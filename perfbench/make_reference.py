#!/usr/bin/env python3
"""Regenerate perfbench/reference/*.json from the program in ./src.

    python3 perfbench/make_reference.py [workload ...]

Runs every (cell, mask seed) in each workload's seed pool once and stores
per-repetition RMSE and MAE; reconstruct-large also stores n_evaluated and
must pass its optimality check. Only regenerate when a change is meant to
alter results (masks, scaling, the objective), and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import SRC, WORK, pin_blas_threads, environment


def main(names) -> int:
    nproc = len(os.sched_getaffinity(0))
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import REFERENCE_DIR, WORKLOADS

    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    env = environment(nproc, blas_threads)
    WORK.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="ref-", dir=WORK) as scratch:
            workload = WORKLOADS[name](Path(scratch))
            workload.set_up()
            doc = {"source_sha256": env["source_sha256"], "reps": {}}
            for op in workload.pool_ops():
                seen, problems = workload.record(op)
                if seen.failed_reps or problems:
                    print(f"{name}: {op} failed: {problems}", file=sys.stderr)
                    return 1
                doc["reps"].update(seen.reps)
                if seen.n_evaluated is not None:
                    doc.setdefault("n_evaluated", {}).update(
                        {key: seen.n_evaluated for key in seen.reps})
                print(f"{name}: {op}", flush=True)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(doc['reps'])} repetitions)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
