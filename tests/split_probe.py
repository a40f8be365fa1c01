"""Run split block solves in a fresh interpreter and print what they did as JSON.

test_solver starts this script: the suite's own process may hold worker
processes and threads of the grid-search pool, which rule out the forked
helper and a check that no child process is left. Every solve here splits
(solver._SPLIT_STEPS = 3) and is named by a SHA-256 of its result's bytes,
or by the SingularSystem message it raised. Beside it the script records
the helpers the solve forked, what it received from them and whether any
child process is left.

    python tests/split_probe.py
"""

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import sys
import threading
from unittest import mock

import numpy as np

import graphfill as gf
from graphfill import solver
from graphfill.errors import SingularSystem

N, M = 10, 41  # the meeting step is M // 2 = 20
solver._SPLIT_STEPS = 3
PARENT = os.getpid()

rng = np.random.default_rng(5)
positions = gf.NodePositions(coords=rng.random((N, 2)), node_ids=tuple(map(str, range(N))))
B = gf.sobolev_operator(gf.build_knn_graph(positions, 3), 0.5, 1.0)
J = (rng.random((N, M)) < 0.3).astype(float)
J[:, 0] = 1.0
Y = np.where(J > 0, rng.normal(size=(N, M)), 0.0)

forks = []
_fork = os.fork


def _counted_fork():
    pid = _fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = _counted_fork


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


receipts = []
_receive = solver._Helper.receive


def _recorded_receive(self, *arrays):
    receipts.append(_receive(self, *arrays))
    return receipts[-1]


def solve(*changes, j=J):
    """The solve's digest or SingularSystem message, its forks, what it
    received from the helper (True for each message) and its leftovers."""
    forks.clear()
    receipts.clear()
    with contextlib.ExitStack() as stack:
        for change in ((solver._Helper, "receive", _recorded_receive), *changes):
            stack.enter_context(mock.patch.object(*change))
        try:
            outcome = hashlib.sha256(solver._block_solve(B, 0.5, j, Y).tobytes()).hexdigest()
        except SingularSystem as exc:
            outcome = "SingularSystem: " + str(exc)
    return {"outcome": outcome, "forks": len(forks), "receipts": list(receipts),
            "no_child_left": no_child_left()}


def in_helper_die(function):
    """function, but a forked helper that calls it kills itself instead."""
    def wrapper(*args, **kwargs):
        if os.getpid() != PARENT:
            os.kill(os.getpid(), signal.SIGKILL)
        return function(*args, **kwargs)
    return wrapper


def in_helper_die_sending_x(write):
    """solver._write, but a helper that sends its half of X dies part way."""
    def wrapper(fd, *chunks):
        if os.getpid() != PARENT and memoryview(chunks[-1]).nbytes > (N * N + N) * 8:
            os.write(fd, b"\0" + bytes(memoryview(chunks[-1]).cast("B")[:100]))
            os.kill(os.getpid(), signal.SIGKILL)
        return write(fd, *chunks)
    return wrapper


IN_PROCESS = (solver, "_may_fork", lambda: False)
results = {"may_fork": solver._may_fork()}
results["placements"] = {
    "forked": solve(),
    "in process": solve(IN_PROCESS),
    "one CPU": solve((os, "sched_getaffinity", lambda pid: {0})),
}
results["killed"] = {
    "in its sweep": solve((solver, "_forward", in_helper_die(solver._forward))),
    "in its back-substitution":
        solve((solver, "_back_substitute", in_helper_die(solver._back_substitute))),
    "sending its half of X": solve((solver, "_write", in_helper_die_sending_x(solver._write))),
}
# A step whose block holds one huge observation weight has pivots far below
# its largest diagonal entry, which the raised _PIVOT_FACTOR turns negligible.
results["singular"] = {}
for bad in ([5], [35], [20], [5, 35], [35, 20], [20, 5], [33, 37]):
    j = J.copy()
    j[0, bad] = 1e10
    key = ",".join(map(str, bad))
    results["singular"][key] = {
        place: solve((solver, "_PIVOT_FACTOR", 1e8), *changes, j=j)
        for place, changes in (("forked", ()), ("in process", (IN_PROCESS,)))
    }

stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
results["may_fork_with_a_thread"] = solver._may_fork()
stop.set()
thread.join()
context = multiprocessing.get_context("fork")
with context.Pool(1) as pool:
    results["may_fork_in_a_pool_worker"] = pool.apply(solver._may_fork)
json.dump(results, sys.stdout)
