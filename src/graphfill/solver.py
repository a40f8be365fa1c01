"""Reconstruction of time-varying graph signals from sampled entries.

The minimizer of

    0.5 * ||J o X - Y||_F^2 + (gamma / 2) * tr((X D)^T B (X D)),
    B = (L + eps*I)**beta,  D = first-difference operator,

solves the matrix normal equations

    J o X + gamma * B X T = Y,   T = D D^T,

a symmetric system that is positive definite whenever every node is
observed at least once and eps, gamma > 0. T is the path Laplacian over
time steps, so with the unknowns ordered by time step the system is block
tridiagonal: N x N blocks diag(J_t) + gamma * T_tt * B on the diagonal and
-gamma * B next to it.

The solver is configured by the paper's triple (eps, beta, gamma) alone
(SobolevConfig). reconstruct_sobolev solves the system one of two ways.
Unless the regularizer is weak against the mask coverage (see
_DIRECT_RATIO), _block_solve factors it exactly by block Cholesky over the
time steps, in O(M N^3), and a negligible pivot raises SingularSystem. On
weakly regularized systems conjugate gradient runs on N x M matrices (the
N*M x N*M system is never materialized), in preallocated work arrays, with
a fixed tolerance and iteration budget. The split exists because the
benchmark's reference metrics were recorded from CG: on the weakest cells
CG's own error at its tolerance is in them, and an exact solve moves those
metrics by more than the reference allows. dense_oracle_solve builds the
full system explicitly with a Kronecker product and factorizes it, serving
as an independent check.

_block_solve eliminates a system of _SPLIT_STEPS time steps or more from
both ends at once, and the two halves meet in the middle block. The bottom
half runs in a forked helper process where _may_fork allows (two usable
CPUs, one Python thread, a process that multiprocessing did not start), and
in process otherwise, to the same bits. Shorter systems, every grid-search
repetition of the criterion-4 grid among them, are swept from one end.

With eps = 0 the operator B = L**beta is itself singular, and some
observation patterns make the normal equations singular even though every
node is covered. reconstruct_sobolev rejects them before either path (see
_check_linked), and the direct path's pivot test guards near-singular
systems, with SingularSystem; the dense oracle has an eigenvalue bound.

scipy.linalg is imported inside the functions that use it, those of the
block solve and dense_oracle_solve, not at module level. It is most of the
cost of importing graphfill (about 0.3 s of 0.5 s on a 2-core Xeon), and a
process that never factors a matrix (--help, input errors, the kNN
baseline, CG-only cells) then loads numpy alone. The first direct solve in
a process pays the import once.
"""

from __future__ import annotations

import math
import numbers
import os
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, SingularSystem
from .graph import SensorGraph, _reachable, sobolev_operator
from .temporal import (
    check_mask,
    check_signal,
    sobolev_objective,
    temporal_difference_operator,
)

_DENSE_LIMIT = 2000

# dense_oracle_solve rejects a system whose smallest eigenvalue is at most
# this fraction of its largest, a condition number of 1e12 or more. An exactly
# singular system reads about 1e-15 relative.
_DENSE_RCOND = 1e-12

# CG's stopping tolerance on the relative residual and its iteration budget.
# They are constants, not options: CG stays only until the benchmark's
# reference metrics are regenerated from an exact solve, after which every
# cell takes _block_solve and both go with the CG loop.
_CG_TOLERANCE = 1e-10
_CG_MAX_ITERATIONS = 20000


def _check_number(name: str, value, kind=numbers.Real):
    """Return value if it is an instance of kind and not a bool.

    kind is numbers.Real or numbers.Integral. JSON configs can carry strings
    and booleans where a number belongs; they raise a ValueError that names
    the field.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return value


@dataclass(frozen=True)
class SobolevConfig:
    """The regularization triple (epsilon, beta, gamma) of B = (L + eps*I)**beta.

    gamma = 0 is representable (it makes the data term the whole objective)
    but yields a singular system unless the mask is complete.
    """

    epsilon: float = 0.5
    beta: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        for name in ("epsilon", "beta", "gamma"):
            if not math.isfinite(_check_number(name, getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Solver output: minimizer plus convergence diagnostics.

    iterations counts CG iterations and is 0 on a direct solve.
    final_relative_residual is the true ||A(X) - Y||_F / ||Y||_F on either
    path; after CG it is at most _CG_TOLERANCE.
    """

    xbar: np.ndarray
    iterations: int
    final_relative_residual: float
    objective_value: float


def _apply_second_difference(x: np.ndarray, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write x @ (D D^T) into out, using the tridiagonal structure of D D^T.

    It serves apply_a, the operator of the CG loop and of the final residual
    on either path; objective_gradient, which tests use to verify solves,
    forms X T by its own np.diff. diff is an N*M + 1 work vector. It
    receives the row-major differences x.flat[i + 1] - x.flat[i] at
    diff[1 + i], framed by zeros at every row end, so that
    out.flat[i] = (0 - diff[1 + i]) + diff[i] runs on contiguous arrays.
    These are the operations of subtracting the column differences from
    zeros and adding them shifted by one column: in the first column the
    added +0 leaves 0 - z unchanged, and in the last 0 - 0 is the zero it
    starts from, so the bits are those of objective_gradient's X T.
    """
    m = x.shape[1]
    flat = x.reshape(-1)
    out_flat = out.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=diff[1:-1])
    diff[::m] = 0.0
    np.subtract(0.0, diff[1:], out=out_flat)
    np.add(out_flat, diff[:-1], out=out_flat)
    return out


# reconstruct_sobolev takes the direct path when the regularizer outweighs
# the mask coverage by this ratio, gamma * max eig(B) * max eig(T) against
# mean(J). At density 0.1 that is 40 of the criterion-4 grid's 52 cells:
# every gamma >= 1e-2 cell and (2, 2, 1e-3), at ratio 2.36. On them the
# exact solve matches the benchmark reference, which was recorded from CG,
# to 4.9e-7 relative over seeds 0-19. The reference holds CG's own error on
# the weakest cells: an exact solve moves repetitions of six cells, all at
# ratio 1.34 or less, by up to 3.4e-6, past the 1e-6 gate. So the 12 cells
# below 2 stay on CG until the reference is regenerated; any ratio in
# (1.34, 2.27] keeps the gate.
_DIRECT_RATIO = 2.0

# A block Cholesky pivot d (the square of a diagonal entry of a factor) is
# negligible when d <= _PIVOT_FACTOR * eps * s, with s the largest diagonal
# entry of that time step's block of the system. Every pivot is at least the
# smallest eigenvalue of the system and s is at most its norm, so only a
# system with condition number above 1 / (_PIVOT_FACTOR * eps), about
# 4.5e11, can fail the test. Where dpotrf lets the zero pivot of an exactly
# singular system through, rounding leaves it at up to about 100 * eps * s
# (N = 50, M up to 1000); on the benchmark's direct solves the smallest
# pivot is above 1e12 * eps * s.
_PIVOT_FACTOR = 1e4

# _block_solve eliminates a system of this many time steps or more from both
# ends at once, with the bottom half in a forked helper where _may_fork
# allows; it must be at least 3, so that both halves have a step. At N = 50
# on a 2-core Xeon VM (one BLAS thread, medians of 7-9 solves), the forked
# solve breaks even near M = 500-1000 with the second CPU free, and reads
# 80 -> 60-77 ms at M = 2000 and 410-470 -> 245-280 ms at 10^4. With the
# second CPU busy it loses up to M = 2000 (82 -> 105 ms) and breaks even
# near 5000. The constant is twice the free-CPU break-even.
_SPLIT_STEPS = 2000


def _takes_direct_path(graph: SensorGraph, config: SobolevConfig, j: np.ndarray) -> bool:
    """Whether reconstruct_sobolev solves by _block_solve rather than CG."""
    lam_b = np.clip(graph.eigenvalues + config.epsilon, 0.0, None) ** config.beta
    m = j.shape[1]
    # Eigenvalues of T; only the largest enters the rule.
    lam_t = 2.0 - 2.0 * np.cos(np.pi * np.arange(m) / m)
    return config.gamma * lam_b[-1] * lam_t[-1] >= _DIRECT_RATIO * float(j.mean())


def _block_solve(b: np.ndarray, gamma: float, j: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve J o X + gamma * B X T = Y exactly by block Cholesky over time.

    Ordered by time step, the system is block tridiagonal: diagonal blocks
    A_t = diag(j_t) + gamma * T_tt * B, and -gamma * B between consecutive
    steps (B symmetric). The forward sweep (_forward) factors each Schur
    complement S_t = A_t - W^T W, with W = L_{t-1}^{-1} gamma B, as L_t L_t^T
    (BLAS dtrsm and dsyrk, LAPACK dpotrf) and eliminates the right-hand side,
    h_t = L_t^{-1} (y_t + W^T h_{t-1}). It forms W^T = gamma B L_{t-1}^{-T},
    with the triangle on the right: at N = 50 on one core, OpenBLAS takes
    15 us for that against 33-45 us for W itself. Back-substitution
    (_back_substitute) gives x_t = L_t^{-T} (h_t + L_t^{-1} gamma B x_{t+1}).
    Each factor is kept as its packed lower triangle, N(N+1)/2 doubles per
    time step.

    A system of M < _SPLIT_STEPS steps is swept from step 0 to step M - 1.
    A longer one is eliminated from both ends at once and meets at step
    k = M // 2: the top half sweeps steps 0..k-1, and the bottom half runs
    the same sweep on the time-reversed steps M-1..k+1 (T's diagonal is
    symmetric under reversal). Each half's last factor couples into step k by
    W^T W and W^T h, and the meeting block C_k = A_k - W^T W (top) - W^T W
    (bottom), with right-hand side y_k + W^T h (top) + W^T h (bottom), is
    factored and gives x_k. Both halves then back-substitute outward from it.
    The bottom half runs in a forked helper (see _Helper) where _may_fork
    allows, and in process otherwise; both run the same operations on the
    same data, so the result depends on the inputs and M alone. A helper
    that dies without its result is replaced by the same computation in
    process, and none outlives the call.

    Raises:
        SingularSystem: a pivot is non-positive or negligible (see
            _PIVOT_FACTOR). The message names the first such time block of
            the one-sided sweep; of a split system it names the first of the
            top half, in order from step 0, else the first of the bottom
            half, in order from step M - 1, else the meeting block, wherever
            the bottom half ran.
    """
    from scipy.linalg.blas import dgemv, dsyrk, dtpsv, dtrsm
    from scipy.linalg.lapack import dpotrf

    n, m = y.shape
    gb = np.asfortranarray(gamma * b)
    gb2 = 2.0 * gb  # T_tt * gamma B off the two end steps
    t_diag = np.full(m, 2.0)
    t_diag[[0, -1]] = 1.0
    diagonal = np.ascontiguousarray(j.T + np.outer(t_diag, np.diagonal(gb)))  # row t: diag(A_t)
    # Packed position of L[i, k], i >= k, is the row-major position of
    # L^T[k, i] in the upper triangle; L^T of a Fortran-order L is C-order.
    packed = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool)))
    on_diagonal = np.flatnonzero(packed % (n + 1) == 0)
    h = np.array(y.T, order="C")  # a copy even of a read-only Fortran-order y

    def forward(rows):
        """_forward over the steps rows selects, in its order."""
        return _forward(gb, gb2, t_diag[rows], diagonal[rows], h[rows], packed, on_diagonal,
                        range(m)[rows])

    if m < _SPLIT_STEPS:
        factors, _ = forward(slice(None))
        dtpsv(n, factors[-1], h[-1], lower=1, trans=1, overwrite_x=1)
        _back_substitute(gb, factors[:-1], h[:-1], h[-1])
        return np.ascontiguousarray(h.T)

    k = m // 2
    top, bottom = slice(0, k), slice(m - 1, k, -1)

    def half(rows):
        """The sweep over h[rows], then its coupling (W^T W, W^T h) into step k."""
        factors, last = forward(rows)
        wt = dtrsm(1.0, last, gb, side=1, lower=1, trans_a=1)
        return factors, dsyrk(1.0, wt, lower=1), dgemv(1.0, wt, h[rows][-1])

    def serve(send, receive):
        """The forked helper's part: the bottom half, around the parent's x_k."""
        factors, ww, wh = half(bottom)
        send(ww.T, wh)
        x_k = np.empty(n)
        if not receive(x_k):
            raise EOFError("the solving process closed its pipe")
        _back_substitute(gb, factors, h[bottom], x_k)
        send(h[k + 1 :])

    helper = _Helper.fork(serve) if _may_fork() else None
    try:
        top_factors, top_ww, top_wh = half(top)
        bottom_factors, ww, wh = None, np.empty((n, n), order="F"), np.empty(n)
        if not (helper and helper.receive(ww.T, wh)):
            bottom_factors, ww, wh = half(bottom)
        s = np.array(gb2, order="F")  # the meeting block C_k, then its factor
        np.fill_diagonal(s, diagonal[k])
        s -= top_ww
        s -= ww
        h[k] += top_wh
        h[k] += wh
        _, info = dpotrf(s, lower=1, clean=0, overwrite_a=1)
        factor = s.T.reshape(-1).take(packed)
        _check_pivots(factor[None], on_diagonal, diagonal[k : k + 1], range(k, k + 1),
                      info - 1 if info else None)
        dtpsv(n, factor, h[k], lower=1, overwrite_x=1)
        dtpsv(n, factor, h[k], lower=1, trans=1, overwrite_x=1)
        if helper:
            helper.send(h[k])
        _back_substitute(gb, top_factors, h[top], h[k])
        if bottom_factors is None and not helper.receive(h[k + 1 :]):
            np.copyto(h[k + 1 :], y.T[k + 1 :])  # a partial read may have written there
            bottom_factors, _, _ = half(bottom)
        if bottom_factors is not None:
            _back_substitute(gb, bottom_factors, h[bottom], h[k])
    finally:
        if helper:
            helper.close()
    return np.ascontiguousarray(h.T)


def _forward(gb, gb2, t_diag, diagonal, h, packed, on_diagonal, steps):
    """The forward sweep of _block_solve over the rows of h, in their order.

    Row i is time step steps[i], with T_tt = t_diag[i], diag(A_t) =
    diagonal[i] and right-hand side h[i], which it overwrites with the
    eliminated h_t. Returns the packed factors L_t, a row each, and the
    last one as a Fortran-order N x N array whose lower triangle holds it.
    """
    from scipy.linalg.blas import dgemv, dsyrk, dtpsv, dtrsm
    from scipy.linalg.lapack import dpotrf

    n = len(gb)
    factors = np.empty((len(h), packed.size))
    # two Fortran-order buffers, with flat and diagonal views, swapped each step
    s, previous = [(a, a.T.reshape(-1), a.T.reshape(-1)[:: n + 1])
                   for a in np.empty((2, n, n)).transpose(0, 2, 1)]
    for t in range(len(h)):
        np.copyto(s[0], gb2 if t_diag[t] > 1.0 else gb)
        s[2][:] = diagonal[t]
        if t:
            wt = dtrsm(1.0, previous[0], gb, side=1, lower=1, trans_a=1)
            dsyrk(-1.0, wt, beta=1.0, c=s[0], lower=1, overwrite_c=1)
            dgemv(1.0, wt, h[t - 1], beta=1.0, y=h[t], overwrite_y=1)
        _, info = dpotrf(s[0], lower=1, clean=0, overwrite_a=1)
        s[1].take(packed, out=factors[t], mode="clip")
        if info:
            _check_pivots(factors[: t + 1], on_diagonal, diagonal, steps, info - 1)
        dtpsv(n, factors[t], h[t], lower=1, overwrite_x=1)
        s, previous = previous, s
    _check_pivots(factors, on_diagonal, diagonal, steps)
    return factors, previous[0]


def _back_substitute(gb, factors, h, x_next) -> None:
    """Overwrite the rows of h, from the last to the first, with x_t.

    x_t = L_t^{-T} (h_t + L_t^{-1} gamma B x_next), each x_t the x_next of
    the row before it; x_next starts as the solution at the step beyond
    the last row.
    """
    from scipy.linalg.blas import dgemv, dtpsv

    n = len(gb)
    for t in range(len(h) - 1, -1, -1):
        coupled = dtpsv(n, factors[t], dgemv(1.0, gb, x_next), lower=1, overwrite_x=1)
        np.add(h[t], coupled, out=h[t])
        dtpsv(n, factors[t], h[t], lower=1, trans=1, overwrite_x=1)
        x_next = h[t]


def _may_fork() -> bool:
    """Whether _block_solve may fork a helper for the bottom half of a system.

    It needs os.fork, two or more usable CPUs, no other Python thread (a
    fork copies the calling thread alone) and a process that multiprocessing
    did not start, such as a grid-search worker. That last test imports
    nothing: a process that never imported multiprocessing was not started
    by it.
    """
    mp = sys.modules.get("multiprocessing")
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1
            and (mp is None or mp.parent_process() is None))


class _Helper:
    """The solving process's end of the pipes to a forked helper.

    The two talk in raw bytes: the helper sends its half's coupling, N^2 + N
    doubles, receives x_k, N doubles, and sends its half of X. Every message
    from the helper starts with a status byte: 0, then the doubles; 1, then
    the message of a SingularSystem; 2, then the repr of any other
    exception. After a non-zero status the helper exits. A helper that
    failed otherwise than singular, or died, reads as no longer alive.
    """

    def __init__(self, pid, read_fd, write_fd):
        self.pid, self.read_fd, self.write_fd = pid, read_fd, write_fd
        self.alive = True

    @classmethod
    def fork(cls, serve):
        """Fork a helper that runs serve(send, receive) and exits; None if fork fails.

        In the helper, send(*arrays) writes one message of status 0 and
        receive(*arrays) fills arrays from the solving process, False at
        the end of its pipe.
        """
        down, up = os.pipe(), os.pipe()  # (read, write) each: to the helper, from it
        try:
            pid = os.fork()
        except OSError:
            for fd in (*down, *up):
                os.close(fd)
            return None
        if pid:
            os.close(down[0])
            os.close(up[1])
            return cls(pid, up[0], down[1])
        code = 0
        try:
            os.close(down[1])
            os.close(up[0])
            try:
                serve(lambda *arrays: _write(up[1], b"\0", *arrays),
                      lambda *arrays: _read_into(down[0], *arrays))
            # the helper ends in os._exit whatever it meets, interrupts too:
            # its status byte is all the solving process needs of them
            except SingularSystem as exc:
                code = 1
                _write(up[1], b"\1", str(exc).encode())
            except BaseException as exc:
                code = 2
                _write(up[1], b"\2", repr(exc).encode())
        finally:
            os._exit(code)

    def send(self, *arrays) -> None:
        """Write arrays to the helper if it is alive."""
        if self.alive:
            try:
                _write(self.write_fd, *arrays)
            except BrokenPipeError:
                self.alive = False

    def receive(self, *arrays) -> bool:
        """Fill arrays with the helper's next message; False if it is not alive.

        Raises:
            SingularSystem: the helper's half of the system is singular.
        """
        status = os.read(self.read_fd, 1) if self.alive else b""
        if status == b"\1":
            raise SingularSystem(b"".join(iter(lambda: os.read(self.read_fd, 65536), b""))
                                 .decode())
        self.alive = status == b"\0" and _read_into(self.read_fd, *arrays)
        return self.alive

    def close(self) -> None:
        """Close the pipes, then kill and reap the helper, which has exited
        if it sent its last message."""
        os.close(self.read_fd)
        os.close(self.write_fd)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _write(fd, *chunks) -> None:
    for chunk in chunks:
        view = memoryview(chunk).cast("B")
        while view:
            view = view[os.write(fd, view):]


def _read_into(fd, *arrays) -> bool:
    for array in arrays:
        view = memoryview(array).cast("B")
        while view:
            got = os.readv(fd, [view])
            if not got:
                return False
            view = view[got:]
    return True



def _check_linked(graph: SensorGraph, j: np.ndarray) -> None:
    """Raise SingularSystem if the mask leaves the eps = 0 system singular.

    B = L**beta vanishes on X = v_i + a_t over one graph component, so the
    system is definite iff, on every component, the bipartite graph of its
    nodes and all M time steps, an edge per observed entry, is connected.
    """
    # Reachability first over the graph's edges, then, within each
    # component, between nodes observed at a shared time step.
    reach = _reachable(_reachable(graph.weights > 0) & (j @ j.T > 0))
    unlinked = np.argwhere(reach @ j == 0)
    if unlinked.size:
        node, t = unlinked[0]
        raise SingularSystem(
            f"singular system: with epsilon = 0, no observed entries link node "
            f"{node} to time step {t} within its graph component"
        )


def _check_pivots(factors, on_diagonal, diagonal, steps, failed_at=None) -> None:
    """Raise SingularSystem at the first negligible pivot of factors, if any.

    Row i of factors and of diagonal is time step steps[i], which the
    message names. failed_at is the pivot at which dpotrf stopped in the
    last factor; the pivots after it are not computed, and it counts as bad
    itself, however large the non-positive value dpotrf found there.
    """
    pivots = factors[:, on_diagonal] ** 2
    if failed_at is not None:
        pivots[-1, failed_at] = -np.inf
        pivots[-1, failed_at + 1 :] = np.inf
    bound = _PIVOT_FACTOR * np.finfo(float).eps * diagonal[: len(factors)].max(axis=1)
    bad = np.flatnonzero(~(pivots > bound[:, None]))
    if bad.size:
        row, node = divmod(int(bad[0]), pivots.shape[1])
        raise SingularSystem(
            f"singular system: time block {steps[row]} has a non-positive or negligible "
            f"pivot at node {node}"
        )


def objective_gradient(
    xbar: np.ndarray, y: np.ndarray, mask: np.ndarray, b: np.ndarray, gamma: float
) -> np.ndarray:
    """Gradient of the reconstruction objective at xbar.

    Equals J o Xbar - Y + gamma * B Xbar T, with B as returned by
    graph.sobolev_operator; zero exactly at the minimizer. Assumes Y is zero
    off-mask.
    """
    x, y = check_signal(xbar), check_signal(y)
    if x.shape != y.shape:
        raise InvalidInput("xbar and y shapes must agree")
    j = check_mask(mask, y.shape)
    z = np.diff(x, axis=1)  # X D
    xt = np.zeros(x.shape)  # X D D^T = X T
    xt[:, :-1] -= z
    xt[:, 1:] += z
    return check_signal(j * x - y + gamma * (b @ xt))


def _check_inputs(y, mask, graph: SensorGraph) -> tuple[np.ndarray, np.ndarray]:
    """Validate the solve inputs; returns the signal and the mask as 0/1 weights."""
    y = check_signal(y)
    j = check_mask(mask, y.shape).astype(float)
    if y.shape[0] != graph.n_nodes:
        raise InvalidInput(f"signal has {y.shape[0]} nodes, graph has {graph.n_nodes}")
    _check_snapshots(y.shape[1])
    return y, j


def _check_snapshots(m: int) -> None:
    if m < 2:
        raise InvalidInput("reconstruction needs at least 2 snapshots")


def reconstruct_sobolev(
    y: np.ndarray,
    mask: np.ndarray,
    graph: SensorGraph,
    config: SobolevConfig,
) -> ReconstructionResult:
    """Minimize the Sobolev reconstruction objective.

    Y must be zero at unobserved entries, as harness.masked_problem makes
    it. Where _takes_direct_path holds, as it does unless the regularizer is
    weak, the normal equations are solved exactly by _block_solve. Elsewhere
    CG starts from Y and stops once the relative residual
    ||A(X) - Y||_F / ||Y||_F drops to _CG_TOLERANCE; the recursive CG
    residual is verified against the true one before it stops. At gamma = 0
    with a complete mask, Y itself solves the system and CG stops at
    iteration 0.

    Raises:
        SingularSystem: some node is never observed, gamma = 0 with an
            incomplete mask, eps = 0 with a mask that leaves the system
            singular, or the direct solve meets a negligible pivot.
        ConvergenceFailure: CG used up _CG_MAX_ITERATIONS or broke down
            (p.Ap <= 0) above _CG_TOLERANCE. A direct solve is exact up to
            rounding and not held to it (at gamma = 1e6 it reads ~3e-10).
    """
    y, j = _check_inputs(y, mask, graph)
    uncovered = np.nonzero(j.sum(axis=1) == 0)[0]
    if uncovered.size:
        raise SingularSystem(f"node {int(uncovered[0])} is never observed")
    if config.gamma == 0.0 and not j.all():
        raise SingularSystem("gamma = 0 with an incomplete mask")
    if config.epsilon == 0.0:
        _check_linked(graph, j)

    b_matrix = sobolev_operator(graph, config.epsilon, config.beta)
    gamma = config.gamma
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return ReconstructionResult(
            xbar=check_signal(np.zeros_like(y)),
            iterations=0,
            final_relative_residual=0.0,
            objective_value=0.0,
        )
    n, m = y.shape
    diff = np.empty(n * m + 1)
    xt = np.empty((n, m))
    reg = np.empty((n, m))

    def apply_a(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = j*x + gamma*(B @ x T), each product in a reused work array."""
        np.matmul(b_matrix, _apply_second_difference(x, diff, xt), out=reg)
        np.multiply(gamma, reg, out=reg)
        np.multiply(j, x, out=out)
        return np.add(out, reg, out=out)

    ap = np.empty((n, m))
    iterations = 0
    direct = _takes_direct_path(graph, config, j)
    if direct:
        x = _block_solve(b_matrix, gamma, j, y)
    else:
        threshold = _CG_TOLERANCE * y_norm
        x = y.copy()
        step = np.empty((n, m))
        r = np.subtract(y, apply_a(x, ap))
        p = r.copy()
        rr = float(np.vdot(r, r))
        while iterations < _CG_MAX_ITERATIONS:
            # sqrt(r.r) is ||r|| bit for bit.
            if math.sqrt(rr) <= threshold:
                # Recursive residual can drift; confirm with the true residual
                # and keep iterating from it if convergence was premature.
                np.subtract(y, apply_a(x, ap), out=r)
                if np.linalg.norm(r) <= threshold:
                    break
                np.copyto(p, r)
                rr = float(np.vdot(r, r))
            apply_a(p, ap)
            pap = float(np.vdot(p, ap))
            if not np.isfinite(pap) or pap <= 0.0:
                break  # operator not positive definite along p; give up
            alpha = rr / pap
            x += np.multiply(alpha, p, out=step)
            r -= np.multiply(alpha, ap, out=step)
            rr_next = float(np.vdot(r, r))
            p *= rr_next / rr
            p += r
            rr = rr_next
            iterations += 1

    final_residual = float(np.linalg.norm(np.subtract(y, apply_a(x, ap), out=ap))) / y_norm
    if not (direct or final_residual <= _CG_TOLERANCE):
        raise ConvergenceFailure(
            f"solver did not converge within {iterations} iterations "
            f"(relative residual {final_residual:.3e})"
        )
    xbar = check_signal(x)
    return ReconstructionResult(
        xbar=xbar,
        iterations=iterations,
        final_relative_residual=final_residual,
        objective_value=sobolev_objective(xbar, y, mask, b_matrix, gamma),
    )


def dense_oracle_solve(
    y: np.ndarray,
    mask: np.ndarray,
    graph: SensorGraph,
    config: SobolevConfig,
) -> ReconstructionResult:
    """Direct solve of the explicit N*M x N*M normal equations.

    Builds A = diag(vec(J)) + gamma * kron(T, B) under column-major
    vectorization, checks its eigenvalues and factorizes it (Cholesky).
    Intended as an independent verification path for small instances, never
    for production solves.

    Raises:
        InvalidInput: N * M exceeds 2000.
        SingularSystem: the smallest eigenvalue of A is at most _DENSE_RCOND
            times its largest, the factorization fails or the solution does
            not satisfy the system.
    """
    import scipy.linalg

    y, j = _check_inputs(y, mask, graph)
    n, m = y.shape
    if n * m > _DENSE_LIMIT:
        raise InvalidInput(f"dense oracle limited to N*M <= {_DENSE_LIMIT}, got {n * m}")

    b_matrix = sobolev_operator(graph, config.epsilon, config.beta)
    d = temporal_difference_operator(m)
    t = d @ d.T
    a = np.diag(j.flatten(order="F")) + config.gamma * np.kron(t, b_matrix)
    eigenvalues = np.linalg.eigvalsh(a)
    if not eigenvalues[0] > _DENSE_RCOND * eigenvalues[-1]:
        raise SingularSystem(
            f"dense system is singular: smallest eigenvalue {eigenvalues[0]:.3e}, "
            f"largest {eigenvalues[-1]:.3e}"
        )
    rhs = y.flatten(order="F")
    try:
        factor = scipy.linalg.cho_factor(a)
        solution = scipy.linalg.cho_solve(factor, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"dense factorization failed: {exc}") from exc
    residual = float(np.linalg.norm(a @ solution - rhs))
    rhs_norm = float(np.linalg.norm(rhs))
    if residual > 1e-8 * (1.0 + rhs_norm):
        raise SingularSystem(
            f"direct solve residual {residual:.3e} indicates a singular system"
        )
    xbar = check_signal(solution.reshape((n, m), order="F"))
    return ReconstructionResult(
        xbar=xbar,
        iterations=0,
        final_relative_residual=residual / rhs_norm if rhs_norm else 0.0,
        objective_value=sobolev_objective(xbar, y, mask, b_matrix, config.gamma),
    )
