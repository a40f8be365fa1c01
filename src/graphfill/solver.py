"""Reconstruction of time-varying graph signals from sampled entries.

The minimizer of

    0.5 * ||J o X - Y||_F^2 + (gamma / 2) * tr((X D)^T B (X D)),
    B = (L + eps*I)**beta,  D = first-difference operator,

solves the matrix normal equations

    J o X + gamma * B X T = Y,   T = D D^T,

a symmetric system that is positive definite whenever every node is
observed at least once and eps, gamma > 0. The primary solver runs
conjugate gradient directly on N x M matrices (the N*M x N*M system is
never materialized), in preallocated N x M work arrays. When the
regularizer dominates, CG is preconditioned by the mean-mask operator
mean(J)*I + gamma * B X T, which the graph eigenbasis splits into one
tridiagonal system per graph mode; all of them are solved together as one
stacked tridiagonal system. dense_oracle_solve builds the full system
explicitly with a Kronecker product and factorizes it, serving as an
independent check.

With eps = 0 the operator B = L**beta is itself singular, and certain
observation patterns (a disconnected bipartite pattern of sampled rows and
columns) make the normal equations singular even though every node is
covered; such systems surface as a dense-factorization failure or a
non-converged CG result rather than an upfront error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import DimensionMismatch, HorizonTooShort, ProblemTooLarge, SingularSystem
from .graph import SensorGraph, SobolevOperator, sobolev_operator, spectral_decomposition
from .temporal import (
    TimeVaryingSignal,
    check_mask,
    sobolev_objective,
    temporal_difference_operator,
)

_DENSE_LIMIT = 2000


@dataclass(frozen=True)
class SobolevConfig:
    """Regularization triple plus solver tolerances.

    gamma = 0 is representable (it makes the data term the whole objective)
    but yields a singular system unless the mask is complete.
    """

    epsilon: float = 0.5
    beta: float = 1.0
    gamma: float = 0.5
    cg_tolerance: float = 1e-10
    max_iterations: int = 20000

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0 < self.cg_tolerance <= 1e-2:
            raise ValueError(
                f"cg_tolerance must be in (0, 1e-2], got {self.cg_tolerance}"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Solver output: minimizer plus convergence diagnostics.

    converged is False when the iteration budget ran out; xbar then holds
    the best iterate reached.
    """

    xbar: TimeVaryingSignal
    iterations: int
    final_relative_residual: float
    objective_value: float
    converged: bool


def _apply_second_difference(x: np.ndarray, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write x @ (D D^T) into out, using the tridiagonal structure of D D^T.

    diff is an N*M + 1 work vector. It receives the row-major differences
    x.flat[i + 1] - x.flat[i] at diff[1 + i], framed by zeros at every row
    end, so that out.flat[i] = (0 - diff[1 + i]) + diff[i] runs on
    contiguous arrays. These are the operations of subtracting the column
    differences from zeros and adding them shifted by one column: in the
    first column the added +0 leaves 0 - z unchanged, and in the last
    0 - 0 is the zero it starts from, so the bits are the same.
    """
    m = x.shape[1]
    flat = x.reshape(-1)
    out_flat = out.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=diff[1:-1])
    diff[::m] = 0.0
    np.subtract(0.0, diff[1:], out=out_flat)
    np.add(out_flat, diff[:-1], out=out_flat)
    return out


# Below this ratio of regularizer strength to mask coverage the spectral
# preconditioner costs more per iteration than it saves. The crossover was
# measured when the preconditioner was applied with DCTs; it is kept as is
# because moving it changes which cells of the criterion-4 grid (and of the
# benchmark reference) run preconditioned. With the tridiagonal apply,
# forcing the preconditioner on for the grid's 29 plain cells at density 0.1
# still doubles their total solve time.
_PRECONDITION_RATIO = 25.0


def _make_preconditioner(graph: SensorGraph, config: SobolevConfig, j: np.ndarray):
    """Exact inverse of mean(J)*I + gamma * B X T, as one tridiagonal solve.

    B = U diag(lambda) U^T shares the graph Laplacian's eigenvectors U, so in
    that basis the operator splits into one SPD tridiagonal system per graph
    mode k, mean(J)*I + gamma*lambda_k*T, where T = D D^T is the path
    Laplacian over time steps (1, 2, ..., 2, 1 on the diagonal, -1 off it).
    The N systems are stacked into one N*M tridiagonal matrix with zero
    coupling between modes, factored once (LAPACK dpttrf) and applied as
    U dpttrs(U^T r). Replacing the entrywise mask by its mean makes the
    operator separable, which is a strong preconditioner for the true
    system (exact when the mask is complete). Returns None when the
    regularizer is too weak relative to the coverage for it to pay off.
    """
    mean_coverage = float(j.mean())
    decomp = spectral_decomposition(graph)
    lam_b = np.clip(decomp.eigenvalues + config.epsilon, 0.0, None) ** config.beta
    n, m = j.shape
    # Eigenvalues of T; only the largest enters the on/off rule.
    lam_t = 2.0 - 2.0 * np.cos(np.pi * np.arange(m) / m)
    if config.gamma * lam_b[-1] * lam_t[-1] < _PRECONDITION_RATIO * mean_coverage:
        return None
    coupling = config.gamma * lam_b
    t_diag = np.full(m, 2.0)
    t_diag[[0, -1]] = 1.0
    off = np.repeat(-coupling, m)
    off[m - 1 :: m] = 0.0  # no coupling between consecutive modes
    # SPD because mean_coverage > 0 and every lambda_k >= 0.
    diag, off, _ = dpttrf((mean_coverage + np.outer(coupling, t_diag)).ravel(), off[:-1])
    u = decomp.eigenvectors
    w = np.empty((n, m))
    z = np.empty((n, m))

    def apply(r: np.ndarray) -> np.ndarray:
        np.matmul(u.T, r, out=w)
        solved, _ = dpttrs(diag, off, w.reshape(-1), overwrite_b=True)
        return np.matmul(u, solved.reshape(n, m), out=z)

    return apply


def objective_gradient(
    xbar: TimeVaryingSignal,
    y: TimeVaryingSignal,
    mask: np.ndarray,
    op: SobolevOperator,
    gamma: float,
) -> np.ndarray:
    """Gradient of the reconstruction objective at xbar.

    Equals J o Xbar - Y + gamma * B Xbar T; zero exactly at the minimizer.
    Assumes Y is zero off-mask.
    """
    if xbar.values.shape != y.values.shape:
        raise DimensionMismatch("xbar and y shapes must agree")
    j = check_mask(mask, y.values.shape)
    x = xbar.values
    reg = op.matrix @ _apply_second_difference(x, np.empty(x.size + 1), np.empty(x.shape))
    return j * x - y.values + gamma * reg


def _check_inputs(y: TimeVaryingSignal, mask, graph: SensorGraph) -> np.ndarray:
    """Validate the solve inputs; returns the mask as 0/1 float weights."""
    j = check_mask(mask, y.values.shape).astype(float)
    if y.n_nodes != graph.n_nodes:
        raise DimensionMismatch(
            f"signal has {y.n_nodes} nodes, graph has {graph.n_nodes}"
        )
    if y.n_steps < 2:
        raise HorizonTooShort("reconstruction needs at least 2 snapshots")
    return j


def reconstruct_sobolev(
    y: TimeVaryingSignal,
    mask: np.ndarray,
    graph: SensorGraph,
    config: SobolevConfig,
) -> ReconstructionResult:
    """Minimize the Sobolev reconstruction objective by conjugate gradient.

    Y must be zero at unobserved entries (as produced by apply_mask). CG
    starts from Y and stops once the relative residual
    ||A(X) - Y||_F / ||Y||_F drops to config.cg_tolerance; the recursive CG
    residual is verified against the true one before declaring convergence.

    Raises:
        SingularSystem: some node is never observed, or gamma = 0 with an
            incomplete mask.
    """
    j = _check_inputs(y, mask, graph)
    uncovered = np.nonzero(j.sum(axis=1) == 0)[0]
    if uncovered.size:
        raise SingularSystem(f"node {int(uncovered[0])} is never observed")
    if config.gamma == 0.0:
        if not j.all():
            raise SingularSystem("gamma = 0 with an incomplete mask")
        op = sobolev_operator(graph, config.epsilon, config.beta)
        return ReconstructionResult(
            xbar=y,
            iterations=0,
            final_relative_residual=0.0,
            objective_value=sobolev_objective(y, y, mask, op, 0.0),
            converged=True,
        )

    op = sobolev_operator(graph, config.epsilon, config.beta)
    b_matrix = op.matrix
    gamma = config.gamma
    rhs = y.values
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        zero = TimeVaryingSignal(values=np.zeros_like(rhs))
        return ReconstructionResult(
            xbar=zero,
            iterations=0,
            final_relative_residual=0.0,
            objective_value=0.0,
            converged=True,
        )
    n, m = rhs.shape
    diff = np.empty(n * m + 1)
    xt = np.empty((n, m))
    reg = np.empty((n, m))

    def apply_a(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = j*x + gamma*(B @ x T), each product in a reused work array."""
        np.matmul(b_matrix, _apply_second_difference(x, diff, xt), out=reg)
        np.multiply(gamma, reg, out=reg)
        np.multiply(j, x, out=out)
        return np.add(out, reg, out=out)

    threshold = config.cg_tolerance * rhs_norm
    precondition = _make_preconditioner(graph, config, j)
    plain = precondition is None
    if plain:
        def precondition(r):
            return r

    x = rhs.copy()
    ap = np.empty((n, m))
    step = np.empty((n, m))
    r = np.subtract(rhs, apply_a(x, ap))
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    iterations = 0
    converged = False
    while iterations < config.max_iterations:
        # Unpreconditioned, rz = r.r and ||r|| = sqrt(r.r) bit for bit.
        if (math.sqrt(rz) if plain else np.linalg.norm(r)) <= threshold:
            # Recursive residual can drift; confirm with the true residual
            # and keep iterating from it if convergence was premature.
            np.subtract(rhs, apply_a(x, ap), out=r)
            if np.linalg.norm(r) <= threshold:
                converged = True
                break
            z = precondition(r)
            np.copyto(p, z)
            rz = float(np.vdot(r, z))
        apply_a(p, ap)
        pap = float(np.vdot(p, ap))
        if not np.isfinite(pap) or pap <= 0.0:
            break  # operator not positive definite along p; give up flagged
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        z = precondition(r)
        rz_next = float(np.vdot(r, z))
        p *= rz_next / rz
        p += z
        rz = rz_next
        iterations += 1

    final_residual = float(np.linalg.norm(np.subtract(rhs, apply_a(x, ap), out=ap))) / rhs_norm
    if final_residual <= config.cg_tolerance:
        converged = True
    xbar = TimeVaryingSignal(values=x)
    return ReconstructionResult(
        xbar=xbar,
        iterations=iterations,
        final_relative_residual=final_residual,
        objective_value=sobolev_objective(xbar, y, mask, op, gamma),
        converged=converged,
    )


def reconstruct_tikhonov(
    y: TimeVaryingSignal,
    mask: np.ndarray,
    graph: SensorGraph,
    gamma: float,
    cg_tolerance: float = 1e-10,
    max_iterations: int = 20000,
) -> ReconstructionResult:
    """Plain-Laplacian baseline: the Sobolev problem with eps = 0, beta = 1."""
    config = SobolevConfig(
        epsilon=0.0,
        beta=1.0,
        gamma=gamma,
        cg_tolerance=cg_tolerance,
        max_iterations=max_iterations,
    )
    return reconstruct_sobolev(y, mask, graph, config)


def dense_oracle_solve(
    y: TimeVaryingSignal,
    mask: np.ndarray,
    graph: SensorGraph,
    config: SobolevConfig,
) -> ReconstructionResult:
    """Direct solve of the explicit N*M x N*M normal equations.

    Builds A = diag(vec(J)) + gamma * kron(T, B) under column-major
    vectorization and factorizes it (Cholesky). Intended as an independent
    verification path for small instances, never for production solves.

    Raises:
        ProblemTooLarge: N * M exceeds 2000.
        SingularSystem: the factorization fails or the solution does not
            satisfy the system.
    """
    j = _check_inputs(y, mask, graph)
    n, m = y.values.shape
    if n * m > _DENSE_LIMIT:
        raise ProblemTooLarge(f"dense oracle limited to N*M <= {_DENSE_LIMIT}, got {n * m}")

    op = sobolev_operator(graph, config.epsilon, config.beta)
    d = temporal_difference_operator(m)
    t = d @ d.T
    a = np.diag(j.flatten(order="F")) + config.gamma * np.kron(t, op.matrix)
    rhs = y.values.flatten(order="F")
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
    xbar = TimeVaryingSignal(values=solution.reshape((n, m), order="F"))
    return ReconstructionResult(
        xbar=xbar,
        iterations=0,
        final_relative_residual=residual / rhs_norm if rhs_norm else 0.0,
        objective_value=sobolev_objective(xbar, y, mask, op, config.gamma),
        converged=True,
    )
