"""Single-block decomposition into smooth and sparse layers via ADMM.

A block f (flattened n-by-n, row-major) is split as f = B a + s, where B
holds low-frequency DCT atoms and s is the foreground layer. The solver
minimizes ||a||_1 + lambda1 ||s||_1 + lambda2 * (sum of row norms of s +
sum of column norms of s) subject to the exact decomposition, using one
splitting variable per penalty term and dual ascent on the constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dct import BasisMatrix
from .prox import group_soft, soft

# Absolute threshold on all four constraint residuals for optional early stop.
EARLY_STOP_TOL = 1e-6


class DivergenceError(RuntimeError):
    """Raised when iterates go non-finite (bad penalties or input)."""


@dataclass
class SolverParams:
    """Weights, penalty parameters, and iteration budget for the block solver.

    Defaults are the reference operating point: lambda1=100, lambda2=2,
    unit penalties, 50 iterations.
    """

    lambda1: float = 100.0
    lambda2: float = 2.0
    rho1: float = 1.0
    rho2: float = 1.0
    rho3: float = 1.0
    rho4: float = 1.0
    max_iters: int = 50
    record_residuals: bool = False
    early_stop: bool = False

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "rho1", "rho2", "rho3", "rho4"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class SolverState:
    """Primal and dual iterates of the splitting.

    alpha/beta are coefficient vectors (length k); s is the sparse layer and
    y, z its row- and column-group copies (length n*n); w1, w2, v1, v2 are
    the duals of the decomposition, coefficient-copy, and group-copy
    constraints.
    """

    alpha: np.ndarray
    beta: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


@dataclass
class Decomposition:
    """Converged smooth coefficients and sparse layer, with diagnostics.

    primal_residual is ||f - B a - s|| / ||f|| (0 for an all-zero block);
    split_residuals are the absolute norms of the coefficient-copy and the
    two group-copy gaps. residual_history, when recorded, holds per-iteration
    tuples (primal, coefficient, row-copy, column-copy) of absolute norms.
    """

    alpha: np.ndarray
    s: np.ndarray
    primal_residual: float
    split_residuals: tuple
    iters_run: int
    objective: float
    residual_history: list | None = field(default=None)


def group_norm(s) -> float:
    """Sum of row and column l2 norms of a block (the overlapping-group term)."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim == 1:
        n = int(round(np.sqrt(s.size)))
        if n * n != s.size:
            raise ValueError(f"flat block length {s.size} is not a perfect square")
        s = s.reshape(n, n)
    elif s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"block must be square, got shape {s.shape}")
    return float(np.linalg.norm(s, axis=1).sum() + np.linalg.norm(s, axis=0).sum())


def objective(alpha, s, params: SolverParams) -> float:
    """Decomposition objective: ||alpha||_1 + lambda1 ||s||_1 + lambda2 * group term."""
    alpha = np.asarray(alpha, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    return float(
        np.abs(alpha).sum()
        + params.lambda1 * np.abs(s).sum()
        + params.lambda2 * group_norm(s)
    )


def _flatten_block(f, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if f.size != n * n:
        raise ValueError(f"block has {f.size} pixels, basis expects {n * n}")
    return f


def init_state(f, basis: BasisMatrix) -> SolverState:
    """All-zero starting point (primal and dual), sized to match the basis."""
    _flatten_block(f, basis.n)
    n2 = basis.n * basis.n
    return SolverState(
        alpha=np.zeros(basis.k),
        beta=np.zeros(basis.k),
        s=np.zeros(n2),
        y=np.zeros(n2),
        z=np.zeros(n2),
        w1=np.zeros(n2),
        w2=np.zeros(basis.k),
        v1=np.zeros(n2),
        v2=np.zeros(n2),
    )


def admm_step(state: SolverState, f, basis: BasisMatrix, params: SolverParams) -> SolverState:
    """One full update sweep; returns the next state without mutating the input.

    Order: coefficients, their l1 copy, the sparse layer, the row and column
    group copies, then dual ascent on all four constraints using the fresh
    primal values.
    """
    n, k = basis.n, basis.k
    f = _flatten_block(f, n)
    if state.alpha.shape != (k,) or state.s.shape != (n * n,):
        raise ValueError("solver state does not match basis dimensions")
    b = basis.atoms
    r1, r2, r3, r4 = params.rho1, params.rho2, params.rho3, params.rho4

    # B has orthonormal columns, so rho1 B'B + rho2 I is (rho1 + rho2) I.
    rhs = b.T @ state.w1 - state.w2 + r2 * state.beta + r1 * (b.T @ (f - state.s))
    alpha = rhs / (r1 + r2)
    beta = soft(alpha + state.w2 / r2, 1.0 / r2)

    smooth = b @ alpha
    c = state.w1 - state.v1 - state.v2 + r1 * (f - smooth) + r3 * state.y + r4 * state.z
    s = soft(c, params.lambda1) / (r1 + r3 + r4)

    s_mat = s.reshape(n, n)
    y = group_soft(s_mat + state.v1.reshape(n, n) / r3, params.lambda2 / r3, axis=1).ravel()
    z = group_soft(s_mat + state.v2.reshape(n, n) / r4, params.lambda2 / r4, axis=0).ravel()

    w1 = state.w1 + r1 * (f - smooth - s)
    w2 = state.w2 + r2 * (alpha - beta)
    v1 = state.v1 + r3 * (s - y)
    v2 = state.v2 + r4 * (s - z)
    return SolverState(alpha=alpha, beta=beta, s=s, y=y, z=z, w1=w1, w2=w2, v1=v1, v2=v2)


def _residuals(state: SolverState, f: np.ndarray, b: np.ndarray) -> tuple:
    return (
        float(np.linalg.norm(f - b @ state.alpha - state.s)),
        float(np.linalg.norm(state.alpha - state.beta)),
        float(np.linalg.norm(state.s - state.y)),
        float(np.linalg.norm(state.s - state.z)),
    )


def solve(f, basis: BasisMatrix, params: SolverParams | None = None) -> Decomposition:
    """Run the block solver from the zero state for params.max_iters sweeps.

    Deterministic for identical inputs. Raises DivergenceError if iterates go
    non-finite. With params.early_stop, returns as soon as all four constraint
    residuals drop below EARLY_STOP_TOL (off by default to keep the fixed
    iteration count).
    """
    if params is None:
        params = SolverParams()
    f = _flatten_block(f, basis.n)
    if not np.isfinite(f).all():
        raise DivergenceError("input block contains non-finite values")
    state = init_state(f, basis)
    history = [] if params.record_residuals else None
    iters_run = 0
    for _ in range(params.max_iters):
        state = admm_step(state, f, basis, params)
        iters_run += 1
        if not (np.isfinite(state.alpha).all() and np.isfinite(state.s).all()):
            raise DivergenceError(f"non-finite iterate at iteration {iters_run}")
        if params.record_residuals or params.early_stop:
            residuals = _residuals(state, f, basis.atoms)
            if history is not None:
                history.append(residuals)
            if params.early_stop and max(residuals) < EARLY_STOP_TOL:
                break
    residuals = _residuals(state, f, basis.atoms)
    f_norm = float(np.linalg.norm(f))
    return Decomposition(
        alpha=state.alpha,
        s=state.s,
        primal_residual=residuals[0] / f_norm if f_norm > 0 else 0.0,
        split_residuals=residuals[1:],
        iters_run=iters_run,
        objective=objective(state.alpha, state.s, params),
        residual_history=history,
    )
