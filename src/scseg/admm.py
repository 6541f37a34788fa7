"""Block decomposition into smooth and sparse layers via ADMM.

A block f (flattened n-by-n, row-major) is split as f = B a + s, where B
holds low-frequency DCT atoms and s is the foreground layer. The solver
minimizes ||a||_1 + lambda1 ||s||_1 + lambda2 * (sum of row norms of s +
sum of column norms of s) subject to the exact decomposition, using one
splitting variable per penalty term and dual ascent on the constraints.
Every step acts per pixel, per row or per column of one block, so blocks are
solved several at a time as rows of shared arrays, and runs of whole slices
of them can go to forked processes.
"""

from __future__ import annotations

import os
import sys
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
    unit penalties, 50 iterations. workers caps the processes solve_blocks
    may use; it changes no result.
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
    workers: int = 1

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "rho1", "rho2", "rho3", "rho4"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


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


# Blocks advanced together in one sweep. A constant, not an option: it caps
# the solver's working arrays at about a dozen BATCH_BLOCKS x n*n arrays
# (2.5 MB for 64-pixel blocks) whatever the image size.
BATCH_BLOCKS = 8

# Rows of the preallocated work array: the blocks, the sparse layer, the
# decomposition and group-copy duals, f - B alpha, and scratch.
_WORK_ROWS = ("f", "s", "w1", "v1", "v2", "resid", "tmp")


def _rows_times(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Row-by-row product x[i] @ mat as a stacked matmul.

    Each row runs the same BLAS GEMV as a lone block's product; one
    (m, .) @ mat GEMM would make a row's bits depend on m.
    """
    return np.matmul(x[:, None, :], mat)[:, 0, :]


def _times(x: np.ndarray, r: float, out: np.ndarray) -> np.ndarray:
    """r * x, skipping the pass when r is 1 (x * 1.0 is x, bit for bit)."""
    return x if r == 1.0 else np.multiply(x, r, out=out)


def _over(x: np.ndarray, r: float, out: np.ndarray) -> np.ndarray:
    """x / r, skipping the pass when r is 1 (x / 1.0 is x, bit for bit)."""
    return x if r == 1.0 else np.divide(x, r, out=out)


class _Batch:
    """Iterates of up to BATCH_BLOCKS blocks, one row per block.

    Most large iterates are views into a preallocated work array. The group
    copies y and z are the fresh arrays group shrinkage returns, and the
    length-k ones (alpha, beta and the coefficient-copy dual w2) are small;
    these are rebuilt each sweep.
    """

    def __init__(self, flat: list, basis: BasisMatrix, work: np.ndarray):
        self.basis = basis
        self.work = work
        self._view(len(flat))
        for i, block in enumerate(flat):
            self.f[i] = block
        for name in ("s", "w1", "v1", "v2"):
            getattr(self, name).fill(0.0)
        self.y = np.zeros_like(self.s)
        self.z = np.zeros_like(self.s)
        self.alpha = np.zeros((len(flat), basis.k))
        self.beta = np.zeros_like(self.alpha)
        self.w2 = np.zeros_like(self.alpha)

    def _view(self, m: int) -> None:
        for name, rows in zip(_WORK_ROWS, self.work[:, :m]):
            setattr(self, name, rows)

    def step(self, params: SolverParams) -> None:
        """One full update sweep of every row, in place.

        Order: coefficients, their l1 copy, the sparse layer, the row and
        column group copies, then dual ascent on all four constraints using
        the fresh primal values. Every sum associates as in the single-block
        formulas in the comments, so each row gets the bits it would alone.
        """
        b = self.basis.atoms
        f, s, w1, v1, v2, resid, tmp = (getattr(self, name) for name in _WORK_ROWS)
        r1, r2, r3, r4 = params.rho1, params.rho2, params.rho3, params.rho4

        # B has orthonormal columns, so rho1 B'B + rho2 I is (rho1 + rho2) I.
        # alpha = (B'w1 - w2 + r2 beta + r1 B'(f - s)) / (r1 + r2)
        np.subtract(f, s, out=tmp)
        rhs = _rows_times(w1, b) - self.w2 + r2 * self.beta + r1 * _rows_times(tmp, b)
        alpha = rhs / (r1 + r2)
        beta = soft(alpha + self.w2 / r2, 1.0 / r2)
        np.matmul(alpha[:, None, :], b.T, out=resid[:, None, :])
        np.subtract(f, resid, out=resid)

        # s = soft(w1 - v1 - v2 + r1 (f - B alpha) + r3 y + r4 z, lambda1) / (r1 + r3 + r4)
        np.subtract(w1, v1, out=s)
        s -= v2
        s += _times(resid, r1, tmp)
        s += _times(self.y, r3, tmp)
        s += _times(self.z, r4, tmp)
        np.divide(soft(s, params.lambda1), r1 + r3 + r4, out=s)

        # y, z = group shrinkage of s + v1 / r3 over rows, s + v2 / r4 over columns
        cube = (len(s), self.basis.n, self.basis.n)
        np.add(s, _over(v1, r3, tmp), out=tmp)
        y = group_soft(tmp.reshape(cube), params.lambda2 / r3, axis=2).reshape(s.shape)
        np.add(s, _over(v2, r4, tmp), out=tmp)
        z = group_soft(tmp.reshape(cube), params.lambda2 / r4, axis=1).reshape(s.shape)

        # w1 += r1 (f - B alpha - s); w2 += r2 (alpha - beta); v1 += r3 (s - y); v2 += r4 (s - z)
        w1 += _times(np.subtract(resid, s, out=tmp), r1, tmp)
        self.w2 = self.w2 + r2 * (alpha - beta)
        v1 += _times(np.subtract(s, y, out=tmp), r3, tmp)
        v2 += _times(np.subtract(s, z, out=tmp), r4, tmp)
        self.alpha, self.beta, self.y, self.z = alpha, beta, y, z

    def finite(self) -> bool:
        return bool(np.isfinite(self.alpha).all() and np.isfinite(self.s).all())

    def residuals(self, i: int) -> tuple:
        """Row i's (primal, coefficient, row-copy, column-copy) gap norms."""
        s = self.s[i]
        return (
            float(np.linalg.norm(self.resid[i] - s)),
            float(np.linalg.norm(self.alpha[i] - self.beta[i])),
            float(np.linalg.norm(s - self.y[i])),
            float(np.linalg.norm(s - self.z[i])),
        )

    def keep(self, rows: list) -> None:
        """Drop every row not listed; rows are independent, so no bits move."""
        m = len(rows)
        self.work[:, :m] = self.work[:, rows]
        self._view(m)
        for name in ("alpha", "beta", "w2", "y", "z"):
            setattr(self, name, getattr(self, name)[rows])


def _decomposition(f, alpha, s, residuals, iters_run, history, params) -> Decomposition:
    f_norm = float(np.linalg.norm(f))
    return Decomposition(
        alpha=alpha.copy(),
        s=s.copy(),
        primal_residual=residuals[0] / f_norm if f_norm > 0 else 0.0,
        split_residuals=residuals[1:],
        iters_run=iters_run,
        objective=objective(alpha, s, params),
        residual_history=history,
    )


def _solve_slice(flat: list, basis: BasisMatrix, params: SolverParams, work) -> list:
    batch = _Batch(flat, basis, work)
    histories = [[] if params.record_residuals else None for _ in flat]
    results = [None] * len(flat)
    active = list(range(len(flat)))  # block index of each row
    for it in range(1, params.max_iters + 1):
        batch.step(params)
        if not batch.finite():
            raise DivergenceError(f"non-finite iterate at iteration {it}")
        if not (params.record_residuals or params.early_stop):
            continue
        keep = []
        for row, idx in enumerate(active):
            residuals = batch.residuals(row)
            if histories[idx] is not None:
                histories[idx].append(residuals)
            if params.early_stop and max(residuals) < EARLY_STOP_TOL:
                results[idx] = _decomposition(
                    flat[idx], batch.alpha[row], batch.s[row], residuals, it, histories[idx], params
                )
            else:
                keep.append(row)
        if len(keep) < len(active):
            active = [active[row] for row in keep]
            if not active:
                return results
            batch.keep(keep)
    for row, idx in enumerate(active):
        results[idx] = _decomposition(
            flat[idx], batch.alpha[row], batch.s[row], batch.residuals(row),
            params.max_iters, histories[idx], params,
        )
    return results


def _solve_run(flat: list, basis: BasisMatrix, params: SolverParams) -> list:
    """Solve blocks one BATCH_BLOCKS slice after another on one work array."""
    work = np.empty((len(_WORK_ROWS), min(len(flat), BATCH_BLOCKS), basis.n * basis.n))
    results = []
    for start in range(0, len(flat), BATCH_BLOCKS):
        results.extend(_solve_slice(flat[start : start + BATCH_BLOCKS], basis, params, work))
    return results


def _process_count(workers: int, slices: int) -> int:
    """Processes for `slices` slices: at most one per worker, usable CPU and slice.

    One process off Linux: forking after numpy's libraries have loaded is
    tested only there (macOS's system libraries are not fork-safe, and
    Windows has no os.fork).
    """
    if not sys.platform.startswith("linux") or slices < 2:
        return 1
    return min(workers, len(os.sched_getaffinity(0)), slices)


def _fork_run(flat: list, basis: BasisMatrix, params: SolverParams) -> tuple:
    """Solve a run of slices in a forked child; returns (pid, read end of its pipe).

    The child pickles (True, decompositions) or (False, exception) into the
    pipe and leaves through os._exit, so it runs none of the caller's
    cleanup or buffered output.
    """
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, _solve_run(flat, basis, params))
            except Exception as exc:  # sent to the caller, which raises it
                payload = (False, exc)
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _receive(pid: int, read_fd: int) -> list:
    """Read and reap one child; returns its decompositions or raises its exception."""
    import pickle

    try:
        with os.fdopen(read_fd, "rb") as src:
            data = src.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:
        raise RuntimeError(f"solver process {pid} exited with status {status} without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _solve_forked(runs: list, basis: BasisMatrix, params: SolverParams) -> list:
    """Solve runs[0] here and every other run in its own child, in order.

    Raises the error of the earliest failing run, which is the one a single
    process would raise; every child is reaped on every path.
    """
    children = []
    try:
        for run in runs[1:]:
            children.append(_fork_run(run, basis, params))
        results = _solve_run(runs[0], basis, params)
        while children:
            results.extend(_receive(*children.pop(0)))
        return results
    finally:
        if children:
            import signal

            for pid, read_fd in children:
                os.close(read_fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def solve_blocks(blocks, basis: BasisMatrix, params: SolverParams | None = None) -> list:
    """Decompose every block; returns one Decomposition per block, in order.

    Each block runs from the zero state for params.max_iters sweeps. Blocks
    advance BATCH_BLOCKS at a time as rows of shared arrays; every product,
    shrinkage and norm acts on one row, so a block's result is bit-identical
    whichever blocks share its sweep. With params.workers > 1 the slices are
    cut into up to that many contiguous runs (no more than the usable CPUs
    or the slices), each solved in its own forked process on Linux, with
    the same results. Raises DivergenceError if any block or iterate is non-finite.
    With params.early_stop, a block stops as soon as all four of its
    constraint residuals drop below EARLY_STOP_TOL (off by default to keep
    the fixed iteration count).
    """
    if params is None:
        params = SolverParams()
    flat = [_flatten_block(f, basis.n) for f in blocks]
    if not all(np.isfinite(f).all() for f in flat):
        raise DivergenceError("input block contains non-finite values")
    slices = -(-len(flat) // BATCH_BLOCKS)
    processes = _process_count(params.workers, slices)
    cuts = [BATCH_BLOCKS * (slices * r // processes) for r in range(processes + 1)]
    return _solve_forked([flat[a:b] for a, b in zip(cuts, cuts[1:])], basis, params)


def solve(f, basis: BasisMatrix, params: SolverParams | None = None) -> Decomposition:
    """Decompose one block: solve_blocks on a batch of one."""
    return solve_blocks([f], basis, params)[0]
