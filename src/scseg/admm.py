"""Block decomposition into smooth and sparse layers via ADMM.

A block f (flattened n-by-n, row-major) is split as f = B a + s, where B
holds low-frequency DCT atoms and s is the foreground layer. The solver
minimizes ||a||_1 + lambda1 ||s||_1 + lambda2 * (sum of row norms of s +
sum of column norms of s) subject to the exact decomposition, using one
splitting variable per penalty term and dual ascent on the constraints.
Every step acts per pixel, per row or per column of one block, so blocks are
solved several at a time as rows of shared arrays, and runs of whole slices
of them can go to forked processes. Those children write their rows straight
into the result's arrays, which then live in one anonymous shared mapping,
and report by exit status alone: on the error path the caller solves a
failed child's run again, which raises that run's error. The sweep runs
in the scaled form of ADMM (Boyd et al. 2011, section 3.1.1) with one
penalty rho: every dual is stored divided by rho, so rho enters only the
three shrinkage thresholds.
A sweep needs two products with the basis, B'W1 and B alpha. Each runs as
one GEMM of BATCH_BLOCKS rows, zero-padded when a slice is short: the shape
never changes, so a block's bits do not depend on its row or on the blocks
beside it. Besides those, a sweep makes 18 passes over the pixel rows: seven
for the sparse layer (one a multiply by 1/3), and for each of the row and
column groups one fused sum of squares, one broadcast multiply by the
shrinkage factor and three (rows) or four (columns) plain passes. The
divergence check adds none: it reads alpha and the groups' sums of squares.
The work array those passes run over starts on a 64-byte cache line: where
np.empty put it 16 or 48 bytes past one, a 16-block solve of 64-pixel blocks
took about 10% longer (3.5% at 32 bytes; 2-core x86 host), with the same bits.
The sweep runs in float32, which halves the bytes of each pass: its
iterates, the basis and the thresholds are all float32, and the records it
returns hold float64 copies. solve_blocks refuses any pixel beyond
PIXEL_BOUND, so no input within it can overflow float32's range.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .checks import block_stack, require_counts, require_real
from .dct import BasisMatrix


class DivergenceError(RuntimeError):
    """Raised for a pixel the float32 sweep cannot take, and when alpha or a group sum of squares goes non-finite."""


# The largest |pixel| solve_blocks accepts. The sweep runs in float32, whose
# largest value is about 2**128, and each group step sums the squares of one
# row or column of n values. A block of side n <= 2**16 (beyond memory: one
# such block is 2**32 pixels) keeps that sum finite while every value stays
# below 2**56; PIXEL_BOUND = 2**40 leaves a factor 2**16 for the iterates to
# grow past the largest pixel (on blocks of +-PIXEL_BOUND patterns the
# pixel-sized ones grew 3.4-fold at most in 200 sweeps). An overflowed sum
# raises DivergenceError at its sweep, where its factor would otherwise read
# 1. 16-bit samples stay below 2**16.
PIXEL_BOUND = 2.0**40


@dataclass(frozen=True)
class SolverParams:
    """Weights, ADMM penalty, and iteration budget for the block solver.

    Defaults are the reference operating point: lambda1=100, lambda2=2,
    rho=1, 50 iterations. The ADMM penalty rho sets the sweeps' path, not the
    minimiser; 1/rho, lambda1/rho and lambda2/rho are the sweep's float32
    thresholds, so none may exceed float32's largest value. Every
    block runs exactly max_iters sweeps from the zero state. workers caps
    the processes solve_blocks may use; it changes no result. Both counts
    must be integers (Python or numpy, not bool).
    """

    lambda1: float = 100.0
    lambda2: float = 2.0
    rho: float = 1.0
    max_iters: int = 50
    workers: int = 1

    def __post_init__(self):
        require_counts(self, max_iters=1, workers=1)
        for name in ("lambda1", "lambda2", "rho"):
            require_real(name, getattr(self, name))
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        # the largest shrinkage threshold, held in float32 by the sweep; Python floats
        # overflow to inf without a warning, and inf fails the comparison too
        limit = float(np.finfo(np.float32).max)
        if not float(max(1.0, self.lambda1, self.lambda2)) / float(self.rho) <= limit:
            raise ValueError(
                f"rho {self.rho} is too small: 1/rho, lambda1/rho or lambda2/rho exceeds float32's {limit:.4g}"
            )


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Smooth coefficients and sparse layers of m blocks after max_iters sweeps, with diagnostics.

    Each field is a float64 array whose row i is block i's: alpha (m, k), s (m, n, n),
    primal_residual (m,), split_residuals (m, 3) and objective (m,). alpha and s
    are copies of the float32 sweep's iterates, and the residuals and the
    objective are computed from float64 copies too, against the float64 blocks.
    primal_residual is ||f - B a - s|| / ||f|| (0 for an all-zero block);
    split_residuals are the absolute norms of the coefficient-copy, row-copy
    and column-copy gaps ||a - beta||, ||s - y||, ||s - z||. The sweep keeps
    no copy of y or z: the last one forms them from its shrinkage inputs and
    factors in work rows that are dead by then. Every block runs from the
    zero state, so the residuals after k sweeps are the ones a solve with
    max_iters=k returns.
    objective is the decomposition objective at that last iterate (a, s),
    which need not satisfy f = B a + s, so it can read below the optimum.
    """

    alpha: np.ndarray
    s: np.ndarray
    primal_residual: np.ndarray
    split_residuals: np.ndarray
    objective: np.ndarray

    def rows(self, start: int, stop: int) -> Decomposition:
        """Blocks start to stop, as views of these arrays."""
        return Decomposition(*(getattr(self, f.name)[start:stop] for f in fields(self)))


def _unfilled(m: int, basis: BasisMatrix, shared: bool = False) -> Decomposition:
    """A Decomposition of m blocks whose arrays the solver has yet to fill.

    shared puts the five arrays in one anonymous shared mapping, which processes
    forked afterwards write into; it must hold at least one value.
    """
    n, k = basis.n, basis.k
    shapes = ((m, k), (m, n, n), (m,), (m, 3), (m,))
    if not shared:
        return Decomposition(*(np.empty(shape) for shape in shapes))
    import mmap  # only a forked solve needs it, so importing scseg does not load it

    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), np.float64), np.cumsum(sizes)[:-1])
    return Decomposition(*(part.reshape(shape) for part, shape in zip(parts, shapes)))


def group_norm(s) -> float:
    """Sum of row and column l2 norms of one (n, n) or flat (n*n,) block (the overlapping-group term)."""
    s = block_stack("block", s, math.isqrt(np.size(s)), one=True)
    return float(_group_norms(s * s)[0])


def _group_norms(squares: np.ndarray) -> np.ndarray:
    """group_norm of each block of an (m, n, n) float64 stack, from its squares s * s.

    Each norm is np.linalg.norm's, the root of a sum of squares, with the squares formed once for both.
    """
    return np.sqrt(squares.sum(axis=2)).sum(axis=1) + np.sqrt(squares.sum(axis=1)).sum(axis=1)


def objective(alpha, s, params: SolverParams):
    """Decomposition objective ||alpha||_1 + lambda1 ||s||_1 + lambda2 * group term, of each block.

    One block's (k,) alpha and (n, n) or (n*n,) s give a float; an (m, k)
    alpha and an (m, n, n) s give the m blocks' values as an array.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim == 1:
        return float(objective(alpha[None], block_stack("block", s, math.isqrt(np.size(s)), one=True), params)[0])
    s = np.asarray(s, dtype=np.float64)
    return _objective(alpha, s, params, np.empty_like(s))


def _objective(alpha: np.ndarray, s: np.ndarray, params: SolverParams, scratch: np.ndarray) -> np.ndarray:
    """objective of an (m, k) alpha and an (m, n, n) float64 s; |s|, then s * s, are formed in scratch, s's shape."""
    sparse = np.abs(s, out=scratch).sum(axis=(1, 2))
    groups = _group_norms(np.multiply(s, s, out=scratch))
    return np.abs(alpha).sum(axis=1) + params.lambda1 * sparse + params.lambda2 * groups


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of a 2-D array: the root of the row's dot product, as np.linalg.norm takes it."""
    return np.sqrt((x[:, None, :] @ x[:, :, None]).ravel())


def soft(x, lam: float, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise soft threshold: sign(x) * max(|x| - lam, 0).

    Computed as x - clip(x, -lam, lam), two passes instead of four, into
    `out` when given (it must not overlap x). Every nonzero result has the
    same bits as the sign form; zeros are +0.0. float32 stays float32, with
    the threshold cast to it; any other input is computed in float64.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    x = np.asarray(x)
    x = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
    lam = x.dtype.type(lam)
    clipped = x.clip(-lam, lam, out=out)
    return np.subtract(x, clipped, out=clipped)


def group_factor(squares: np.ndarray, lam: float) -> np.ndarray:
    """Block soft-threshold factors (1 - lam/||x||)+ of slices x from their float32 or float64 ||x||**2.

    The factors overwrite `squares` in place, in its dtype, and are returned;
    a slice x times its factor is its block soft threshold, and a slice whose
    norm is at or below lam gets factor zero.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    lam = squares.dtype.type(lam)
    if lam == 0:  # also a positive threshold that underflows the dtype
        return np.greater(squares, 0, out=squares)
    # lam / lam is exactly 1, so a slice at or below lam gets exactly 0
    norms = np.maximum(np.sqrt(squares, out=squares), lam, out=squares)
    return np.subtract(1, np.divide(lam, norms, out=norms), out=norms)


# Blocks advanced together in one sweep, and the row count of every basis
# product: a slice with fewer blocks is zero-padded to it, because a GEMM's
# row bits depend on its row count (one row even runs as a GEMV) but not on
# the other rows. A constant, not an option: whatever the image size, it caps
# the solver's working arrays at the seven float32 BATCH_BLOCKS x n*n rows of
# the work array (0.875 MB for 64-pixel blocks), besides the call's float64
# and float32 copies of the k x n*n basis.
BATCH_BLOCKS = 8

# Rows of the preallocated work array: the blocks f, the sparse layer s, the
# scaled duals W1 = w1/rho, V1 = v1/rho and V2 = v2/rho, U = (y - V1) +
# (z - V2), and scratch. Each group step forms T = s + V in V's row, y = c T
# in U's row (columns: in scratch), then V = T - y and U's share y - V in
# place. No other pixel-sized array is made in a slice (the group norms and
# factors are one value a row or column), so for 64-pixel blocks the float32
# sweep works in 0.875 MB, under half of a 2 MB L2 cache. The last sweep keeps
# y in f's row, dead once W1 += f - B alpha, and z in W1's row, dead once
# W1 -= s, for the split residuals. After them rows 2 to 5 (z to U) are dead,
# and the records use them as two float64 BATCH_BLOCKS x n*n scratch arrays.
# _solve_run starts the array on a 64-byte boundary (see _aligned_work); the
# rows then stay aligned for every even block side.
_WORK_ROWS = 7


@dataclass(frozen=True, eq=False)
class _SweepBasis:
    """The basis as the sweep reads it: B' as a C-contiguous float64 (k, n*n) array and its float32 cast.

    solve_blocks makes one per call, before it forks, so every process reads
    the caller's pages. alpha @ B' runs 2x faster on C order than on the
    transpose of the (n*n, k) atoms.
    """

    n: int
    atoms_t: np.ndarray
    atoms_t32: np.ndarray


def _sweep_basis(basis: BasisMatrix) -> _SweepBasis:
    """basis as the sweep reads it."""
    atoms_t = np.ascontiguousarray(basis.atoms.T)
    return _SweepBasis(basis.n, atoms_t, atoms_t.astype(np.float32))


def _solve_slice(flat: np.ndarray, basis: _SweepBasis, params: SolverParams, work, out: Decomposition) -> None:
    """Run max_iters sweeps on m <= BATCH_BLOCKS flat blocks, one row of `work` each, into out's m rows.

    The sweep runs in work's dtype, float32 or float64: the basis, every
    iterate and every threshold are in it. solve_blocks passes float32; a
    float64 work array runs the same sweep in float64.

    The pixel-sized iterates are views into the work rows; rows past the
    slice's blocks stay zero, and only the basis products read them. Those
    are GEMMs over all BATCH_BLOCKS rows, so each row gets the bits it would
    alone. The length-k iterates (alpha, beta, the scaled coefficient-copy
    dual W2 = w2/rho and g = B'W1) carry the padded rows: zero is a fixed
    point of the sweep. Each sweep is the textbook one (coefficients, their
    l1 copy, the sparse layer, the row and column group copies, then dual
    ascent on the fresh gaps) divided through by rho, with each dual update
    folded into the step that produces its gap.
    The last sweep also keeps the group copies y and z, in dead work rows,
    for the split residuals.
    """
    # B'x of every row x runs as one GEMM B' X', transposed back: at 8 x 4096
    # by 4096 x 10 this layout takes about 25 us where X B takes about 30 us
    # (2-core x86 host, OpenBLAS, one thread).
    m, dtype = len(flat), work.dtype.type
    atoms_t = basis.atoms_t32 if dtype is np.float32 else basis.atoms_t
    work[:, m:] = 0.0
    rows = work[:, :m]
    rows[0] = flat
    rows[1:6] = 0.0  # s, W1, V1, V2 and U start at zero
    f, s, w1, v1, v2, u, tmp = rows
    cube = (m, basis.n, basis.n)
    coef_lam, sparse_lam, group_lam = (dtype(lam / params.rho) for lam in (1.0, params.lambda1, params.lambda2))
    two, third = dtype(2.0), dtype(1.0 / 3.0)
    alpha = np.zeros((BATCH_BLOCKS, len(atoms_t)), dtype)
    beta = np.zeros_like(alpha)
    w2 = np.zeros_like(alpha)
    # B'W1 of the previous sweep; from zero W1 this start gives sweep 1 its B'f
    g = -(atoms_t @ work[0].T).T

    for it in range(1, params.max_iters + 1):
        # B'B = I, so alpha = (B'W1 - W2 + beta + B'(f - s)) / 2; the last W1
        # update added f - B alpha - s, so B'(f - s) is g - g_prev + alpha_prev.
        g_prev, g = g, (atoms_t @ work[2].T).T
        alpha = (g - w2 + beta + (g - g_prev + alpha)) / two
        beta = soft(alpha + w2, coef_lam)
        w2 = w2 + (alpha - beta)

        # q = W1 + f - B alpha in W1, s = soft(q + U, lambda1/rho) / 3, and the dual step W1 = q - s
        np.matmul(alpha, atoms_t, out=work[6])
        w1 += np.subtract(f, tmp, out=tmp)
        np.add(w1, u, out=s)
        np.multiply(soft(s, sparse_lam, out=tmp), third, out=s)
        w1 -= s

        # rows: T = s + V1 in V1's row (the old V1 is dead once T is formed), y = c T,
        # c the row factor, in U's row (U is dead since s); the dual step V1 += s - y
        # is then V1 = T - y, and U's share is y - V1. Columns: the same, z in tmp. The
        # last sweep puts y in f's row and z in W1's, which the records read. The
        # divergence check reads the largest sum of squares of each.
        y_row, z_row = (f, w1) if it == params.max_iters else (u, tmp)
        t = np.add(v1, s, out=v1).reshape(cube)
        squares = np.einsum("ijk,ijk->ij", t, t)
        row_peak = squares.max()
        t -= np.multiply(t, group_factor(squares, group_lam)[:, :, None], out=y_row.reshape(cube))
        np.subtract(y_row, v1, out=u)
        t = np.add(v2, s, out=v2).reshape(cube)
        squares = np.einsum("ijk,ijk->ik", t, t)
        col_peak = squares.max()
        t -= np.multiply(t, group_factor(squares, group_lam)[:, None, :], out=z_row.reshape(cube))
        u += np.subtract(z_row, v2, out=tmp)

        if not (np.isfinite(alpha).all() and math.isfinite(row_peak) and math.isfinite(col_peak)):
            # only the raise path looks at the pixel iterates: a finite sweep overflowed a sum
            if np.isfinite(alpha).all() and np.isfinite(rows[1:6]).all():
                raise DivergenceError(f"row or column sum of squares overflowed float32 at iteration {it}")
            raise DivergenceError(f"non-finite iterate at iteration {it}")

    # the records in float64, in the dead rows 2 to 5 seen as two float64 BATCH_BLOCKS x n*n
    # arrays: the split gaps in the second while z is still in row 2, then the objective's |s|
    # and s * s in the first and B alpha in the second. B alpha is again one BATCH_BLOCKS-row
    # GEMM, and f the input itself
    scratch = work[2:6].reshape(-1).view(np.float64)[: 2 * work[0].size].reshape(2, *work[0].shape)
    alpha = alpha.astype(np.float64)
    out.alpha[:] = alpha[:m]
    out.s[:] = s.reshape(cube)
    s = out.s.reshape(m, -1)
    gap = scratch[1, :m]
    out.split_residuals[:, 0] = _row_norms(out.alpha - beta[:m])
    out.split_residuals[:, 1] = _row_norms(np.subtract(s, y_row, out=gap))
    out.split_residuals[:, 2] = _row_norms(np.subtract(s, z_row, out=gap))
    out.objective[:] = _objective(out.alpha, out.s, params, scratch[0, :m].reshape(cube))
    smooth = np.matmul(alpha, basis.atoms_t, out=scratch[1])
    gap = np.subtract(flat, smooth[:m], out=smooth[:m])
    gap -= s
    f_norm = _row_norms(flat)
    out.primal_residual[:] = np.divide(_row_norms(gap), f_norm, out=np.zeros(m), where=f_norm > 0)


def _aligned_work(n: int) -> np.ndarray:
    """An uninitialised float32 (_WORK_ROWS, BATCH_BLOCKS, n*n) work array that starts on a 64-byte boundary."""
    shape = (_WORK_ROWS, BATCH_BLOCKS, n * n)
    size = math.prod(shape) * 4
    raw = np.empty(size + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(np.float32).reshape(shape)


def _solve_run(flat: np.ndarray, basis: _SweepBasis, params: SolverParams, out: Decomposition) -> Decomposition:
    """Solve the blocks one BATCH_BLOCKS slice after another on one work array, into out's rows; returns out."""
    work = _aligned_work(basis.n)
    for start in range(0, len(flat), BATCH_BLOCKS):
        stop = start + BATCH_BLOCKS
        _solve_slice(flat[start:stop], basis, params, work, out.rows(start, stop))
    return out


def _process_count(workers: int, slices: int) -> int:
    """Processes for `slices` slices: at most one per worker, usable CPU and slice.

    One process off Linux: forking after numpy's libraries have loaded is
    tested only there (macOS's system libraries are not fork-safe, and
    Windows has no os.fork).
    """
    if not sys.platform.startswith("linux") or slices < 2:
        return 1
    return min(workers, len(os.sched_getaffinity(0)), slices)


def _solve_forked(runs: list, basis: BasisMatrix, params: SolverParams) -> Decomposition:
    """Solve runs[0] here and every other run in its own forked child; returns all their rows, in order.

    The result's arrays live in one anonymous shared mapping, and each child
    solves its run straight into its rows there. It reports by exit status
    alone, through os._exit, so it runs none of the caller's cleanup or
    buffered output. The caller reaps the children in order. Only on the
    error path, when a child exits with a status other than 0, does the
    caller solve that child's run again, into the same rows: a run's sweep
    gives the same bits in every process, so this raises the error the run
    raised in the child. If it completes instead, the call fails naming the
    child's status. So the error raised is the earliest failing run's, the
    one a single process would raise, and every child is reaped on every path.
    """
    out = _unfilled(sum(map(len, runs)), basis, shared=len(runs) > 1)
    basis = _sweep_basis(basis)
    children = []  # (pid, run, its rows of out) of each child not yet reaped
    try:
        start = len(runs[0])
        for run in runs[1:]:
            rows = out.rows(start, start + len(run))
            start += len(run)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _solve_run(run, basis, params, rows)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, run, rows))
        _solve_run(runs[0], basis, params, out.rows(0, len(runs[0])))
        while children:
            pid, run, rows = children[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)  # only once reaped, so an interrupted wait still kills and reaps it
            if status != 0:
                _solve_run(run, basis, params, rows)
                raise RuntimeError(f"solver process {pid} exited with status {status} without a result")
        return out
    finally:
        if children:
            import signal

            for pid, _, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def solve_blocks(blocks, basis: BasisMatrix, params: SolverParams = SolverParams()) -> Decomposition:
    """Decompose an (m, n, n) or (m, n*n) stack of blocks of basis.n; returns their Decomposition.

    Any other shape is a ValueError; a float64 C-contiguous stack is not copied.
    Each block runs from the zero state for params.max_iters sweeps. Blocks
    advance BATCH_BLOCKS at a time as rows of shared arrays. Every shrinkage
    and norm acts on one row, and each basis product is one GEMM of exactly
    BATCH_BLOCKS rows (a short slice is zero-padded), whose row bits do not
    depend on the other rows; so a block's result is bit-identical whichever
    blocks share its sweep, and one block alone pays for a full 8-row
    product. With params.workers > 1 the slices are cut into up to that
    many contiguous runs (no more than the usable CPUs or the slices), each
    solved in its own forked process on Linux, with the same results.
    Raises DivergenceError, before any sweep, if any pixel is non-finite or
    beyond PIXEL_BOUND in magnitude, and if alpha, s or a row or column sum
    of squares goes non-finite.
    """
    flat = block_stack("blocks", blocks, basis.n).reshape(-1, basis.n * basis.n)
    # NaN fails the comparison too
    if flat.size and not -PIXEL_BOUND <= flat.min() <= flat.max() <= PIXEL_BOUND:
        raise DivergenceError(
            f"input block contains non-finite values or a pixel beyond PIXEL_BOUND = {PIXEL_BOUND:.6g}"
        )
    slices = -(-len(flat) // BATCH_BLOCKS)
    processes = _process_count(params.workers, slices)
    cuts = [BATCH_BLOCKS * (slices * r // processes) for r in range(processes + 1)]
    return _solve_forked([flat[a:b] for a, b in zip(cuts, cuts[1:])], basis, params)
