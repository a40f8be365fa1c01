#!/usr/bin/env python3
"""Run one graphfill benchmark workload as a single-client closed loop.

    python3 perfbench/run.py --workload grid-sparse --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: graphfill is imported from ./src. The
seed picks the inputs (cell order and mask seeds); the same seed gives the
same inputs. Ops run back to back until the time spent inside ops reaches
--seconds. Every op is checked; see workloads.py.

--trace 0 prints the end-to-end metrics. --trace 1 runs the ops of half the
time untraced, then the same ops traced, and prints the per-layer metrics;
the spans go to perfbench/work/spans-<workload>-seed<seed>.json. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WALL_FACTOR = 2
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """One BLAS thread: a single-client loop on one core is the steadiest
    measurement on a shared machine. Must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(nproc: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "graphfill").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile, beyond). With too few samples it is the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def timed_set_ups(workload, repeats: int) -> float:
    """Median over repeats of: fresh-interpreter import, inputs, warm-up."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); import graphfill",
                        str(SRC)], check=True)
        workload.set_up()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, rng, seconds: float) -> tuple[list, list]:
    """Ops until op time reaches seconds. Wall time is capped too, so ops
    that fail instantly cannot keep the loop running for long."""
    ops, outcomes = [], []
    spent = 0.0
    deadline = time.perf_counter() + WALL_FACTOR * seconds
    while True:
        for op in workload.plan_pass(rng):
            outcome = workload.execute(op)
            ops.append(op)
            outcomes.append(outcome)
            spent += outcome.seconds
            if spent >= seconds or time.perf_counter() >= deadline:
                return ops, outcomes


def end_to_end(outcomes, setup_s: float, peak_rss_mb: float):
    times = [o.seconds for o in outcomes]
    recons = sum(o.recons for o in outcomes)
    failed = sum(1 for o in outcomes if o.errors)
    rmses = [o.rmse for o in outcomes if o.rmse is not None]
    tail_value, tail_pct, beyond = tail(times)
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
        "recon_per_s": (recons / sum(times), "1/s", f"{recons} reconstructions"),
        "op_s.p50": (statistics.median(times), "s", f"p50 of {len(times)} ops"),
        "op_s.tail": (tail_value, "s",
                      f"p{tail_pct:.1f} of {len(times)} ops, {beyond} beyond"),
        "ok_frac": (1.0 - failed / len(outcomes), "1",
                    f"failed_frac {failed / len(outcomes):g}"),
        "rmse": (statistics.fmean(rmses) if rmses else 0.0, "data_units",
                 f"mean over {len(rmses)} ops"),
        "peak_rss_mb": (peak_rss_mb, "MB", "process peak resident set"),
    }


def traced(workload, rng, seconds: float, out_name: str, env: dict):
    from tracing import Tracer

    ops, plain = measure(workload, rng, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = [workload.execute(op, lambda i=i, op=op: tracer.op(i, f"op:{op}"))
                    for i, op in enumerate(ops)]
        replay = len(ops)
        outcomes.append(workload.execute(ops[0], lambda: tracer.op(replay, "op:replay")))
    finally:
        tracer.uninstall()

    op_ids = set(range(len(ops)))
    layers = tracer.layer_metrics(op_ids)
    first, again = tracer.solve_iterations(0), tracer.solve_iterations(replay)
    spread = (max((abs(a - b) for a, b in zip(first, again)), default=0)
              if len(first) == len(again) else max(len(first), len(again)))
    load_s = tracer.seconds_in("ingest.load_dataset", op_ids)
    rows = workload.rows_per_op * len(ops)
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in outcomes[:len(ops)])
    metrics = {name: (value, unit, "") for name, (value, unit) in layers.items()}
    metrics.update({
        "solver.iterations_spread": (spread, "count", "replay of the first op"),
        "ingest.rows_per_s": (rows / load_s if load_s else 0.0, "rows/s", ""),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "1",
                                f"traced {traced_s:.3f} s vs untraced {plain_s:.3f} s"),
    })
    WORK.mkdir(exist_ok=True)
    (WORK / f"spans-{out_name}.json").write_text(json.dumps({
        "env": env,
        "fields": ["name", "start_s", "end_s", "parent", "op", "error"],
        "ops": [str(op) for op in ops] + [f"replay of {ops[0]}"],
        "spans": tracer.rows(),
    }))
    return metrics, plain + outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphfill" / "__init__.py").is_file():
        print(f"perfbench: no graphfill sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import graphfill

    if Path(graphfill.__file__).resolve().parent != SRC / "graphfill":
        print(f"perfbench: imported graphfill from {graphfill.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(nproc, blas_threads)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](scratch)
        workload.load_reference()
        rng = np.random.default_rng(args.seed)
        if args.trace:
            workload.set_up()
            metrics, outcomes = traced(workload, rng, args.seconds,
                                       f"{args.workload}-seed{args.seed}", env)
        else:
            setup_s = timed_set_ups(workload, SETUP_REPEATS)
            _, outcomes = measure(workload, rng, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(outcomes, setup_s, peak)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [o for o in outcomes if o.errors]
    for outcome in failed[:10]:
        print("perfbench: op failed: " + "; ".join(outcome.errors[:3]), file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={len(outcomes)} "
          f"failed={len(failed)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<10} {note}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
