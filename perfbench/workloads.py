"""The benchmark's workloads: inputs made from a seed, one op, its checks.

An op is one top-level call into graphfill. Each workload plans its ops in
passes (grid-sparse: one pass walks all 52 cells in a seeded order), and a
run executes ops until the time spent inside them reaches --seconds.

Every op is checked against reference outputs stored in reference/ (made by
make_reference.py from the program itself): per-repetition RMSE and MAE to
a relative tolerance of 1e-6, which an exact solver replacing CG meets and
any change to masks or scaling breaks. reconstruct-large also checks the
written reconstruction for optimality, since no oracle fits 50 x 10^4.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from graphfill import cli, graph, harness, sampling, synthetic

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-6
GRADIENT_TOL = 1e-8
DATA_SEED = 0
K_GRAPH = 5


@dataclass
class Observed:
    """What an op produced, as read back from the program's output."""

    recons: int = 0
    failed_reps: int = 0
    rmse: float | None = None
    mae: float | None = None
    reps: dict[str, list[float]] = field(default_factory=dict)  # key -> [rmse, mae]
    n_evaluated: int | None = None


@dataclass
class Outcome:
    seconds: float
    recons: int = 0
    rmse: float | None = None
    errors: list[str] = field(default_factory=list)


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want)


class Workload:
    """Base: subclasses define set_up, plan_pass, pool_ops, call, observe and
    compare, and may define prepare and verify."""

    name = ""
    rows_per_op = 0  # readings rows the program ingests per op

    def __init__(self, work: Path):
        self.work = work
        self.reference = None

    def load_reference(self) -> None:
        self.reference = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())

    def set_up(self) -> None:
        raise NotImplementedError

    def plan_pass(self, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def pool_ops(self) -> list:
        """Ops that cover every entry of the reference once."""
        raise NotImplementedError

    def prepare(self, op) -> None:
        """Untimed work before the call, such as writing its config."""

    def call(self, op):
        """The timed program call."""
        raise NotImplementedError

    def observe(self, op, raw) -> Observed:
        raise NotImplementedError

    def compare(self, op, seen: Observed) -> list[str]:
        """Mismatches against the reference."""
        raise NotImplementedError

    def verify(self, op, raw) -> list[str]:
        """Checks beyond the reference comparison."""
        return []

    def record(self, op) -> tuple[Observed, list[str]]:
        """Run op for make_reference: what it produced, and failed checks."""
        self.prepare(op)
        raw = self.call(op)
        return self.observe(op, raw), self.verify(op, raw)

    def execute(self, op, around=contextlib.nullcontext) -> Outcome:
        self.prepare(op)
        raw, errors = None, []
        with around():
            start = time.perf_counter()
            try:
                raw = self.call(op)
            except Exception:  # a failed op is counted, not fatal
                errors.append(f"{op}: {traceback.format_exc(limit=-3)}")
            seconds = time.perf_counter() - start
        if raw is None:
            return Outcome(seconds=seconds, errors=errors)
        try:
            seen = self.observe(op, raw)
            errors += self.compare(op, seen) + self.verify(op, raw)
        except Exception:  # unreadable output fails the op
            return Outcome(seconds=seconds, errors=[f"{op}: {traceback.format_exc(limit=-3)}"])
        if seen.failed_reps:
            errors.append(f"{op}: {seen.failed_reps} repetitions failed")
        return Outcome(seconds=seconds, recons=seen.recons, rmse=seen.rmse, errors=errors)


# --- grid-sparse: the criterion-4 grid at density 0.1, one cell per op --------

EPS_GRID = (0.1, 0.5, 1.0, 2.0)
BETA_GRID = (1.0, 1.5, 2.0)
GAMMA_GRID = (1e-3, 1e-2, 1e-1, 1.0)
CELLS = (*itertools.product(EPS_GRID, BETA_GRID, GAMMA_GRID),
         *((0.0, 1.0, gamma) for gamma in GAMMA_GRID))  # last four: Tikhonov


def cell_key(cell) -> str:
    return "eps={:g},beta={:g},gamma={:g}".format(*cell)


@dataclass(frozen=True)
class GridOp:
    cell: tuple[float, float, float]
    master_seed: int
    reps: int

    def __str__(self):
        return f"{cell_key(self.cell)} seeds {self.master_seed}+{self.reps}"


class GridSparse(Workload):
    """`graphfill gridsearch --synthetic` with a singleton grid: one grid_search
    call per op. The JSON it writes holds each cell's rmse_mean and
    mae_mean, which are checked against the mean of the per-repetition
    reference values."""

    name = "grid-sparse"
    density = 0.1
    reps = 2
    seed_pool = 20  # reference holds mask seeds 0..19 for every cell

    def set_up(self) -> None:
        self.config = self.work / "grid.json"
        self.out = self.work / "grid-out"
        warm = GridOp(CELLS[0], 0, 1)
        self.prepare(warm)
        self.call(warm)

    def plan_pass(self, rng):
        return [GridOp(CELLS[i], int(rng.integers(0, self.seed_pool - self.reps + 1)),
                       self.reps)
                for i in rng.permutation(len(CELLS))]

    def pool_ops(self):
        return [GridOp(cell, 0, self.seed_pool) for cell in CELLS]

    def prepare(self, op: GridOp) -> None:
        eps, beta, gamma = op.cell
        self.config.write_text(json.dumps({
            "density": self.density,
            "eps_grid": [eps],
            "beta_grid": [beta],
            "gamma_grid": [gamma],
            "repetitions": op.reps,
            "master_seed": op.master_seed,
            "k_graph": K_GRAPH,
        }))

    def call(self, op: GridOp):
        argv = ["gridsearch", "--synthetic", "--synthetic-seed", str(DATA_SEED),
                "--config", str(self.config), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def observe(self, op: GridOp, raw) -> Observed:
        if raw != 0:
            raise RuntimeError(f"graphfill gridsearch exited {raw}")
        (entry,) = json.loads(self.out.with_suffix(".json").read_text())["entries"]
        failed = len(entry["failed_reps"])
        return Observed(recons=op.reps - failed, failed_reps=failed,
                        rmse=entry["rmse_mean"], mae=entry["mae_mean"])

    def compare(self, op: GridOp, seen: Observed) -> list[str]:
        ref = self.reference["reps"]
        want = [ref[f"{cell_key(op.cell)},seed={seed}"]
                for seed in range(op.master_seed, op.master_seed + op.reps)]
        want_rmse = statistics.fmean(w[0] for w in want)
        want_mae = statistics.fmean(w[1] for w in want)
        if _close(seen.rmse, want_rmse) and _close(seen.mae, want_mae):
            return []
        return [f"{op}: rmse/mae {seen.rmse!r}/{seen.mae!r}, "
                f"reference {want_rmse!r}/{want_mae!r}"]

    def record(self, op: GridOp):
        """Per-repetition values, which the CLI's JSON does not carry."""
        eps, beta, gamma = op.cell
        search = harness.grid_search(synthetic.synthetic_dataset(seed=DATA_SEED),
                                     self.density, [eps], [beta], [gamma],
                                     repetitions=op.reps, master_seed=op.master_seed,
                                     k_graph=K_GRAPH)
        _, result = search.entries[0]
        reps = {f"{cell_key(op.cell)},seed={seed}": [rmse, mae]
                for seed, rmse, mae in result.per_rep}
        return Observed(reps=reps, failed_reps=len(result.failed)), []


# --- reconstruct-large: `graphfill reconstruct` on a 50 x 10^4 CSV pair -------

@dataclass(frozen=True)
class ReconstructOp:
    seed: int

    def __str__(self):
        return f"reconstruct seed {self.seed}"


def write_csv_pair(positions, values, present, pos_path: Path, readings_path: Path) -> int:
    """Write node_id,x,y and node_id,time_index,value files; absent rows are
    natively missing. Returns the number of readings rows."""
    with pos_path.open("w") as fh:
        fh.write("node_id,x,y\n")
        for node_id, (x, y) in zip(positions.node_ids, positions.coords.tolist()):
            fh.write(f"{node_id},{x!r},{y!r}\n")
    with readings_path.open("w") as fh:
        fh.write("node_id,time_index,value\n")
        for node_id, row, keep in zip(positions.node_ids, values.tolist(), present.tolist()):
            fh.write("".join(f"{node_id},{t},{v!r}\n"
                             for t, (v, k) in enumerate(zip(row, keep)) if k))
    return int(present.sum())


class ReconstructLarge(Workload):
    name = "reconstruct-large"
    n_steps = 10_000
    missing = 0.01
    density = 0.3
    epsilon, beta, gamma = 0.5, 1.0, 0.5
    seed_pool = 8
    warm_steps = 200

    def set_up(self) -> None:
        ds = synthetic.synthetic_dataset(n_steps=self.n_steps, seed=DATA_SEED)
        present = np.random.default_rng(DATA_SEED).random(ds.signal.values.shape) >= self.missing
        self.positions, self.truth, self.present = ds.positions, ds.signal.values, present
        self.pos_csv = self.work / "positions.csv"
        self.readings_csv = self.work / "readings.csv"
        self.rows_per_op = write_csv_pair(ds.positions, self.truth, present,
                                          self.pos_csv, self.readings_csv)
        # reconstruct does not create the --out directory itself
        self.out = self.work / "reconstruct-out" / "recon"
        self.out.parent.mkdir(exist_ok=True)
        warm_readings = self.work / "warm-readings.csv"
        write_csv_pair(ds.positions, self.truth[:, :self.warm_steps],
                       present[:, :self.warm_steps], self.work / "warm-positions.csv",
                       warm_readings)
        self._run(self.work / "warm-positions.csv", warm_readings, 0)

    def plan_pass(self, rng):
        return [ReconstructOp(int(rng.integers(0, self.seed_pool)))]

    def pool_ops(self):
        return [ReconstructOp(seed) for seed in range(self.seed_pool)]

    def _run(self, pos_csv: Path, readings_csv: Path, seed: int) -> int:
        argv = ["reconstruct", "--positions", str(pos_csv), "--readings", str(readings_csv),
                "--k", str(K_GRAPH), "--epsilon", str(self.epsilon), "--beta", str(self.beta),
                "--gamma", str(self.gamma), "--density", str(self.density),
                "--seed", str(seed), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def call(self, op: ReconstructOp):
        return self._run(self.pos_csv, self.readings_csv, op.seed)

    def observe(self, op: ReconstructOp, raw) -> Observed:
        if raw != 0:
            raise RuntimeError(f"graphfill reconstruct exited {raw}")
        doc = json.loads(self.out.with_suffix(".json").read_text())
        return Observed(recons=1, rmse=doc["rmse"], mae=doc["mae"],
                        reps={f"seed={op.seed}": [doc["rmse"], doc["mae"]]},
                        n_evaluated=doc["n_evaluated"])

    def compare(self, op: ReconstructOp, seen: Observed) -> list[str]:
        key = f"seed={op.seed}"
        want = self.reference["reps"][key]
        errors = []
        if not (_close(seen.rmse, want[0]) and _close(seen.mae, want[1])):
            errors.append(f"{op}: rmse/mae {seen.rmse!r}/{seen.mae!r}, "
                          f"reference {want[0]!r}/{want[1]!r}")
        if seen.n_evaluated != self.reference["n_evaluated"][key]:
            errors.append(f"{op}: n_evaluated {seen.n_evaluated}, "
                          f"reference {self.reference['n_evaluated'][key]}")
        return errors

    def verify(self, op: ReconstructOp, raw) -> list[str]:
        ratio = self.gradient_ratio(op)
        if not ratio <= GRADIENT_TOL:
            return [f"{op}: |gradient|/|Y| = {ratio:.3e} exceeds {GRADIENT_TOL:g}"]
        return []

    def _read_reconstruction(self) -> np.ndarray:
        path = self.out.with_suffix(".csv")
        with path.open() as fh:
            if fh.readline().rstrip("\n") != "node_id,time_index,value":
                raise ValueError("reconstruction CSV has the wrong header")
        n, m = self.truth.shape
        node_ids = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, dtype=str, ndmin=1)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
        if (node_ids.shape != (n * m,)
                or not (node_ids == np.repeat(self.positions.node_ids, m)).all()
                or not (rows[:, 0] == np.tile(np.arange(m), n)).all()):
            raise ValueError("reconstruction CSV rows are missing or out of order")
        return rows[:, 1].reshape(n, m)

    def _sobolev_matrix(self) -> np.ndarray:
        if not hasattr(self, "_b"):
            lam, u = np.linalg.eigh(graph.build_knn_graph(self.positions, K_GRAPH).laplacian)
            self._b = (u * np.clip(lam + self.epsilon, 0.0, None) ** self.beta) @ u.T
        return self._b

    def gradient_ratio(self, op: ReconstructOp) -> float:
        """|J o X - Y + gamma B X T| / |Y| on the written reconstruction, with the
        mask and the observed-entry min-max scaling rebuilt independently."""
        n, m = self.truth.shape
        drawn = sampling.random_mask(n, m, self.density, op.seed)
        j = np.asarray(getattr(drawn, "matrix", drawn), dtype=float) * self.present
        observed = self.truth[j == 1]
        low, span = observed.min(), observed.max() - observed.min()
        y = np.where(j == 1, (self.truth - low) / span, 0.0)
        x = (self._read_reconstruction() - low) / span
        step = np.diff(x, axis=1)
        xt = np.zeros_like(x)
        xt[:, :-1] -= step
        xt[:, 1:] += step
        gradient = j * x - y + self.gamma * (self._sobolev_matrix() @ xt)
        return float(np.linalg.norm(gradient) / np.linalg.norm(y))


WORKLOADS = {w.name: w for w in (GridSparse, ReconstructLarge)}
