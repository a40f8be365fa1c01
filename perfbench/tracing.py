"""Spans around calls into graphfill's layers, recorded from outside.

The program carries no instrumentation of its own. Tracer.install replaces
every public function of the nine layer modules, in every graphfill
namespace that holds it (the defining module, each module that imported
it, and the package), with a wrapper that records one span per call:
name, layer, start, end, parent span and op id. Calls a module makes to its
own public functions go through its globals, so they are caught too.
uninstall puts the originals back.

A layer's self time is its span durations minus the time covered by their
child spans. Classes are not wrapped: a dataclass constructor counts towards
the self time of whichever layer called it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass

LAYERS = ("ingest", "graph", "sampling", "metrics", "solver", "temporal",
          "harness", "synthetic", "cli")
OP_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    op: int | None
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0
    error: str | None = None
    iterations: int | None = None
    converged: bool | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Single-threaded span recorder; spans stay in memory until written."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op: int | None = None
        self.origin = time.perf_counter()

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"graphfill.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "graphfill" or n.startswith("graphfill.")]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as span:
                result = fn(*args, **kwargs)
                iterations = getattr(result, "iterations", None)
                if isinstance(iterations, int):
                    span.iterations = iterations
                converged = getattr(result, "converged", None)
                if isinstance(converged, bool):
                    span.converged = converged
                return result
        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, layer=layer, parent=parent, op=self._op)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child += record.duration

    @contextlib.contextmanager
    def op(self, op_id: int, name: str):
        """Top-level span for one benchmark op; spans inside carry op_id."""
        self._op = op_id
        try:
            with self.span(name, OP_LAYER):
                yield
        finally:
            self._op = None

    def rows(self) -> list[list]:
        """Spans as [name, start, end, parent, op, error], times from origin."""
        return [[s.name, s.start - self.origin, s.end - self.origin, s.parent, s.op, s.error]
                for s in self.spans]

    def outermost_solves(self, op_ids: set[int]) -> list[Span]:
        """Solver spans not nested in another solver span: one per solve."""
        return [s for s in self.spans
                if s.layer == "solver" and s.op in op_ids
                and (s.parent is None or self.spans[s.parent].layer != "solver")]

    def layer_metrics(self, op_ids: set[int]) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the spans of op_ids, normalised per op."""
        ops = max(len(op_ids), 1)
        spans = [s for s in self.spans if s.op in op_ids]
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            mine = [s for s in spans if s.layer == layer]
            out[f"{layer}.calls"] = (len(mine) / ops, "calls/op")
            out[f"{layer}.self_s"] = (sum(s.self_time for s in mine) / ops, "s/op")

        solves = self.outermost_solves(op_ids)
        iterations = [s.iterations for s in solves if s.iterations is not None]
        out["solver.iterations"] = (
            statistics.fmean(iterations) if iterations else 0.0, "iter/solve")
        out["solver.solve_s.p50"] = (
            statistics.median(s.duration for s in solves) if solves else 0.0, "s")
        out["solver.failed"] = (
            sum(1 for s in solves if s.error or s.converged is False), "count")

        def per_call(name: str) -> float:
            times = [s.duration for s in spans if s.name == name]
            return statistics.fmean(times) if times else 0.0

        for name in ("sampling.random_mask", "sampling.complement_indices",
                     "harness.fit_observed_scale", "graph.sobolev_operator"):
            out[f"{name}.s"] = (per_call(name), "s/call")
        out["harness.reps_failed"] = (
            sum(1 for s in spans if s.name == "harness.run_single_repetition" and s.error),
            "count")
        out["graph.sobolev_operator.calls"] = (
            sum(1 for s in spans if s.name == "graph.sobolev_operator") / ops, "calls/op")
        out["trace.op_s"] = (
            statistics.fmean(s.duration for s in spans if s.layer == OP_LAYER)
            if spans else 0.0, "s/op")
        return out

    def solve_iterations(self, op_id: int) -> list[int]:
        return [s.iterations or 0 for s in self.outermost_solves({op_id})]

    def seconds_in(self, name: str, op_ids: set[int]) -> float:
        return sum(s.duration for s in self.spans if s.name == name and s.op in op_ids)
