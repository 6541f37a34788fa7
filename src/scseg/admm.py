"""Block decomposition into smooth and sparse layers via ADMM.

A block f (flattened n-by-n, row-major) is split as f = B a + s, where B
holds low-frequency DCT atoms and s is the foreground layer. The solver
minimizes ||a||_1 + lambda1 ||s||_1 + lambda2 * (sum of row norms of s +
sum of column norms of s) subject to the exact decomposition, using one
splitting variable per penalty term and dual ascent on the constraints.
Every step acts per pixel, per row or per column of one block, so blocks are
solved several at a time as rows of shared arrays, and whole slices of them
can go to solver children: processes forked by the first call that needs
them, which then serve every later call until the process ends. Each child
owns one anonymous shared slot with room for two slices. For each slice the
caller writes the blocks into a free half of it (and, first in each call,
the call's sweep basis and params into the rest) and one byte to the
child's job pipe; the child solves the slice into that half's record rows
and writes the byte back, and the caller copies the rows into its own
result. A child whose slice raises exits with status 1, and the caller then
solves the call again itself, which raises the earliest failing slice's
error. The sweep runs
in the scaled form of ADMM (Boyd et al. 2011, section 3.1.1) with one
penalty rho: every dual is stored divided by rho, so rho enters only the
three shrinkage thresholds.
A sweep needs two products with the basis, B'W1 and B alpha. Each runs as
one GEMM of BATCH_BLOCKS rows, zero-padded when a slice is short: the shape
never changes, so a block's bits do not depend on its row or on the blocks
beside it. Each sweep is one fixed list of numpy calls: the two GEMMs, two
einsums, soft twice, group_factor once, and plain ufuncs. Every call writes
into arrays made once per slice (the work rows and their (m, n, n) views,
the length-k iterates and temporaries, both B'W1 products, and one (2, m, n)
array of sums of squares), so no array is made per sweep. Given s, the row
and column groups are independent: their sums of squares share that array,
so one group_factor call and one max reduce serve both. The list makes 18
passes over the pixel rows: seven for the sparse layer (one a multiply by
1/3), and for each group one fused sum of squares, one broadcast multiply by
its factors and three (rows) or four (columns) plain passes. The divergence
check adds none: it reads alpha and the largest sum of squares.
The work array those passes run over starts on a 64-byte cache line: where
np.empty put it 16 or 48 bytes past one, a 16-block solve of 64-pixel blocks
took about 10% longer (3.5% at 32 bytes; 2-core x86 host), with the same bits.
The sweep runs in float32, which halves the bytes of each pass: its
iterates, the basis and the thresholds are all float32, and the records it
returns hold float64 copies. solve_blocks refuses any pixel beyond
PIXEL_BOUND, so no input within it can overflow float32's range.
"""

from __future__ import annotations

import atexit
import math
import os
import sys
import threading
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

# float32's largest value, as a Python float
_FLOAT32_MAX = float(np.finfo(np.float32).max)


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
        if not float(max(1.0, self.lambda1, self.lambda2)) / float(self.rho) <= _FLOAT32_MAX:
            raise ValueError(
                f"rho {self.rho} is too small: 1/rho, lambda1/rho or lambda2/rho exceeds float32's {_FLOAT32_MAX:.4g}"
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


def _record_shapes(m: int, n: int, k: int) -> tuple:
    """The shapes of a Decomposition's five fields for m blocks of side n and k atoms, in field order."""
    return (m, k), (m, n, n), (m,), (m, 3), (m,)


def _unfilled(m: int, basis: BasisMatrix) -> Decomposition:
    """A Decomposition of m blocks whose arrays the solver has yet to fill."""
    return Decomposition(*(np.empty(shape) for shape in _record_shapes(m, basis.n, basis.k)))


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
    the threshold cast to it; any other input is computed in float64. A
    negative or NaN threshold is a ValueError.
    """
    if not lam >= 0:  # NaN fails the comparison too
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
    norm is at or below lam gets factor zero, so a threshold that is infinite
    in that dtype gives every slice factor zero. A negative or NaN threshold
    is a ValueError.
    """
    if not lam >= 0:  # NaN fails the comparison too
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    if lam > _FLOAT32_MAX and (lam == np.inf or squares.dtype == np.float32):
        # infinite in the dtype, where lam / lam would be NaN; a threshold between float32's
        # largest value and the first that rounds to inf gives factor zero in the path below too
        squares.fill(0)
        return squares
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

    solve_blocks makes one per call, and a call that uses solver children
    copies it into each one's slot. alpha @ B' runs 2x faster on C order than
    on the transpose of the (n*n, k) atoms.
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
    k, last = len(atoms_t), params.max_iters
    work[:, m:] = 0.0
    rows = work[:, :m]
    rows[0] = flat
    rows[1:6] = 0.0  # s, W1, V1, V2 and U start at zero
    f, s, w1, v1, v2, u, tmp = rows
    cube = (m, basis.n, basis.n)
    f3, w13, v13, v23, u3, tmp3 = (row.reshape(cube) for row in (f, w1, v1, v2, u, tmp))
    w1_t, smooth = work[2].T, work[6]  # W1 and B alpha of all BATCH_BLOCKS rows, for the GEMMs
    coef_lam, sparse_lam, group_lam = (dtype(lam / params.rho) for lam in (1.0, params.lambda1, params.lambda2))
    two, third = dtype(2.0), dtype(1.0 / 3.0)
    # alpha, beta, W2 and the alpha step's two temporaries, one (BATCH_BLOCKS, k) array each
    alpha, beta, w2, t1, t2 = np.zeros((5, BATCH_BLOCKS, k), dtype)
    finite = np.empty(alpha.shape, bool)
    # B'W1 of this sweep and of the last: two (k, BATCH_BLOCKS) GEMM products, each paired
    # with its (BATCH_BLOCKS, k) transpose, which the alpha step reads; they swap every sweep
    g, g_prev = ((product, product.T) for product in np.empty((2, k, BATCH_BLOCKS), dtype))
    # every row's (0) and every column's (1) sum of squares, then group_factor's factors in place
    squares = np.empty((2, m, basis.n), dtype)
    row_squares, col_squares = squares
    row_factor, col_factor = row_squares[:, :, None], col_squares[:, None, :]
    # from zero W1 this start gives sweep 1 its B'f
    np.negative(np.matmul(atoms_t, work[0].T, out=g[0]), out=g[0])

    for it in range(1, last + 1):
        # B'B = I, so alpha = (B'W1 - W2 + beta + B'(f - s)) / 2; the last W1
        # update added f - B alpha - s, so B'(f - s) is g - g_prev + alpha_prev.
        g_prev, g = g, g_prev
        np.matmul(atoms_t, w1_t, out=g[0])
        np.add(np.subtract(g[1], g_prev[1], out=t2), alpha, out=alpha)
        np.add(np.add(np.subtract(g[1], w2, out=t1), beta, out=t1), alpha, out=alpha)
        np.divide(alpha, two, out=alpha)
        soft(np.add(alpha, w2, out=t1), coef_lam, out=beta)
        w2 += np.subtract(alpha, beta, out=t1)

        # q = W1 + f - B alpha in W1, s = soft(q + U, lambda1/rho) / 3, and the dual step W1 = q - s
        np.matmul(alpha, atoms_t, out=smooth)
        w1 += np.subtract(f, tmp, out=tmp)
        np.add(w1, u, out=s)
        np.multiply(soft(s, sparse_lam, out=tmp), third, out=s)
        w1 -= s

        # Given s the two groups are independent. T = s + V in V's row (the old V is dead once
        # T is formed), for the rows (V1) and the columns (V2); one group_factor call turns both
        # groups' sums of squares into their factors c, and the divergence check reads the
        # largest sum. y = c T goes to U's row (U is dead since s), the dual step V += s - y
        # is then V = T - y, and U's share is y - V; columns the same, with z in tmp. The last
        # sweep puts y in f's row and z in W1's, which the records read.
        y3, z3 = (f3, w13) if it == last else (u3, tmp3)
        np.add(v1, s, out=v1)
        np.add(v2, s, out=v2)
        np.einsum("ijk,ijk->ij", v13, v13, out=row_squares)
        np.einsum("ijk,ijk->ik", v23, v23, out=col_squares)
        peak = squares.max()
        group_factor(squares, group_lam)
        v13 -= np.multiply(v13, row_factor, out=y3)
        np.subtract(y3, v13, out=u3)
        v23 -= np.multiply(v23, col_factor, out=z3)
        u3 += np.subtract(z3, v23, out=tmp3)

        if not (np.isfinite(alpha, out=finite).all() and math.isfinite(peak)):
            # only the raise path looks at the pixel iterates: a finite sweep overflowed a sum
            if np.isfinite(alpha).all() and np.isfinite(rows[1:6]).all():
                raise DivergenceError(f"row or column sum of squares overflowed float32 at iteration {it}")
            raise DivergenceError(f"non-finite iterate at iteration {it}")

    y_row, z_row = f, w1  # where the last sweep left y and z
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


# The solver children: forked by the first call that needs them, kept until the process
# ends. A call hands its slices to the first processes - 1 of them; the lock makes calls
# from several threads take turns.
_pool: list = []
_pool_lock = threading.Lock()

# Slices a child holds at once, each in a region of its slot: it starts on the second as
# soon as it has solved the first, while the caller, busy with a slice of its own, has yet
# to copy the first out and send the next.
_REGIONS = 2

# float64 values at the start of a slot: each region's block count m, then n, k and the
# length of the pickled params
_HEADER = _REGIONS + 3


def _slot_layout(n: int, k: int) -> tuple[list, int]:
    """Where a slot keeps its arrays for blocks of side n and k atoms: (offset, shape, dtype) of each, and their end.

    In order, each from a 64-byte boundary: the header, B' in float64 and in
    float32, then for each region one slice's blocks and the five record
    fields of BATCH_BLOCKS rows. The pickled params follow from the end.
    """
    nn, parts, end = n * n, [], 0
    region = [((BATCH_BLOCKS, nn), np.float64)] + [(shape, np.float64) for shape in _record_shapes(BATCH_BLOCKS, n, k)]
    for shape, dtype in [((_HEADER,), np.float64), ((k, nn), np.float64), ((k, nn), np.float32)] + region * _REGIONS:
        parts.append((end, shape, dtype))
        end += -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
    return parts, end


def _slot_views(slot, n: int, k: int) -> tuple:
    """Views of a slot laid out by _slot_layout(n, k), and the params' offset.

    The views are the header, B' and its float32 cast, and each region's
    blocks and records (a Decomposition of BATCH_BLOCKS rows).
    """
    parts, end = _slot_layout(n, k)
    header, atoms_t, atoms_t32, *rest = (
        np.frombuffer(slot, dtype, math.prod(shape), offset).reshape(shape) for offset, shape, dtype in parts
    )
    per = 1 + len(fields(Decomposition))  # a region's blocks and record fields
    regions = [(rest[i], Decomposition(*rest[i + 1 : i + per])) for i in range(0, len(rest), per)]
    return header, atoms_t, atoms_t32, regions, end


def _serve(slot, jobs: int, done: int) -> None:
    """A child's loop: for each byte read from `jobs`, solve the slice in the region it names, then write it to `done`.

    Returns on EOF, once every write end of `jobs` is closed.
    """
    import pickle

    work = None
    while job := os.read(jobs, 1):
        header = np.frombuffer(slot, np.float64, _HEADER)
        n, k, length = (int(value) for value in header[_REGIONS:])
        m = int(header[job[0]])
        _, atoms_t, atoms_t32, regions, end = _slot_views(slot, n, k)
        blocks, records = regions[job[0]]
        if work is None or work.shape[2] != n * n:
            work = _aligned_work(n)
        params = pickle.loads(slot[end : end + length])
        _solve_slice(blocks[:m], _SweepBasis(n, atoms_t, atoms_t32), params, work, records.rows(0, m))
        os.write(done, job)


class _Child:
    """A solver child: its pid, the caller's ends of its job and reply pipes, and its shared slot of `size` bytes.

    It is forked when made, ignores SIGINT, closes every file descriptor but
    its ends of the two pipes, and runs _serve until its job pipe reaches
    EOF; then, or when a slice raises, it leaves through
    os._exit (status 0 or 1), so it runs none of the caller's cleanup or
    buffered output. `running` maps each region it holds a slice in to the
    slice's first block.
    """

    def __init__(self, size: int):
        import mmap  # only a call that forks needs it, so importing scseg does not load it

        self.size, self.slot, self.running = size, mmap.mmap(-1, size), {}
        fds = os.pipe()
        try:
            fds += os.pipe()
            self.pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        jobs, self.jobs, self.done, done = fds
        if self.pid == 0:
            status = 1
            try:
                import signal

                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # keep only its own two ends: a pipe the caller has open would otherwise see
                # no EOF while this child lives, after the caller closes it
                low, high = sorted((jobs, done))
                os.closerange(0, low)
                os.closerange(low + 1, high)
                os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
                _serve(self.slot, jobs, done)
                status = 0
            finally:
                os._exit(status)
        os.close(jobs)
        os.close(done)
        self.open = True

    def load(self, basis: _SweepBasis, params: bytes) -> None:
        """Write a call's sweep basis and pickled params into the slot, and keep views of its header and regions."""
        k = len(basis.atoms_t)
        self.header, atoms_t, atoms_t32, self.regions, end = _slot_views(self.slot, basis.n, k)
        self.header[_REGIONS:] = basis.n, k, len(params)
        atoms_t[:] = basis.atoms_t
        atoms_t32[:] = basis.atoms_t32
        self.slot[end : end + len(params)] = params

    def send(self, start: int, flat: np.ndarray) -> None:
        """Write the slice of flat from block `start` into a free region, and queue the child's job on it."""
        region = min(set(range(_REGIONS)) - set(self.running))
        rows = flat[start : start + BATCH_BLOCKS]
        self.header[region] = len(rows)
        self.regions[region][0][: len(rows)] = rows
        self.running[region] = start
        try:
            os.write(self.jobs, bytes([region]))
        except BrokenPipeError:
            pass  # the child has exited; receive() reaps it and returns its status

    def receive(self, out: Decomposition) -> int | None:
        """Copy each slice the child reports solved into out's rows, and return None.

        If the child exited instead, returns its exit status, once reaped.
        """
        replies = os.read(self.done, _REGIONS)
        if not replies:
            return self.reap()
        for region in replies:
            start = self.running.pop(region)
            rows, records = out.rows(start, start + BATCH_BLOCKS), self.regions[region][1]
            for f in fields(rows):
                getattr(rows, f.name)[:] = getattr(records, f.name)[: len(rows.alpha)]
        return None

    def close(self) -> None:
        """Close the caller's ends of the pipes; an idle child then exits."""
        if self.open:
            self.open = False
            os.close(self.jobs)
            os.close(self.done)

    def retire(self) -> None:
        """Close the pipes and reap the child, which exits on the EOF."""
        self.close()
        self.reap()

    def reap(self) -> int:
        """Wait for the child to exit, then drop it from the pool; returns its exit status."""
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        _pool.remove(self)  # only once reaped, so an interrupted wait leaves it to be killed and reaped
        self.close()
        return status


def _pool_children(count: int, size: int) -> list:
    """The pool's first `count` children, each with a slot of at least `size` bytes.

    Children that have exited since the last call (killed while idle) are
    reaped and dropped, children missing are forked and children whose slot
    is smaller are replaced; children past the usable CPUs less one are
    retired.
    """
    for child in [child for child in _pool if os.waitpid(child.pid, os.WNOHANG)[0]]:
        _pool.remove(child)
        child.close()
    while len(_pool) > len(os.sched_getaffinity(0)) - 1:
        _pool[-1].retire()
    for i in range(count):
        if i < len(_pool) and _pool[i].size < size:
            _pool[i].retire()
        if i == len(_pool) or _pool[i].size < size:
            _pool.insert(i, _Child(size))
    return _pool[:count]


def _kill_pool() -> None:
    """SIGKILL every child and reap it: a failed or interrupted call drops the pool, children mid-slice too."""
    import signal

    while _pool:
        os.kill(_pool[-1].pid, signal.SIGKILL)
        _pool[-1].reap()


def _shutdown_pool() -> None:
    """Retire every child; runs at exit."""
    while _pool:
        _pool[-1].retire()


def _forget_pool() -> None:
    """After a fork, in the new process: close the inherited pipes of a pool that is not its own."""
    global _pool, _pool_lock
    for child in _pool:
        child.close()
    _pool, _pool_lock = [], threading.Lock()


atexit.register(_shutdown_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _solve_pooled(flat: np.ndarray, basis: BasisMatrix, params: SolverParams, processes: int) -> Decomposition:
    """Solve the slices here and in the pool's first processes - 1 children, forked if missing.

    The caller takes slices from the front and the children from the back,
    each child holding up to _REGIONS of them (one once no more slices are
    left to hand out than there are processes), until they meet. Between
    its own slices the caller copies out the rows of the slices the children
    report solved, and sends them more. A child that exits instead (status 1
    if its slice raised) fails the call: the caller kills and reaps every
    child, drops the pool and solves the whole call again in-process. A
    slice's sweep gives the same bits in every process, so this raises the
    earliest failing slice's error, as one process would; if it completes,
    the call fails naming the child's exit status. An error in one of the
    caller's own slices (every slice before it was the caller's too) or an
    interrupt also drops the pool. The result is an ordinary Decomposition.
    """
    import pickle
    import select

    out, sweep, blob = _unfilled(len(flat), basis), _sweep_basis(basis), pickle.dumps(params)
    work, starts = _aligned_work(basis.n), range(0, len(flat), BATCH_BLOCKS)
    failed = None  # (pid, exit status) of a child that exited
    with _pool_lock:
        try:
            # whole pages, so that params that pickle a few bytes longer still fit
            size = -(-(_slot_layout(basis.n, basis.k)[1] + len(blob)) // 4096) * 4096
            children = _pool_children(processes - 1, size)
            replies, by_fd = select.poll(), {}
            for child in children:
                child.load(sweep, blob)
                replies.register(child.done, select.POLLIN)
                by_fd[child.done] = child
            lo, hi = 0, len(starts)  # the slices not yet handed out
            while not failed:
                for child in children:
                    while lo < hi and len(child.running) < (_REGIONS if hi - lo > processes else 1):
                        hi -= 1
                        child.send(starts[hi], flat)
                if lo < hi:
                    own = starts[lo]
                    lo += 1
                    _solve_slice(flat[own : own + BATCH_BLOCKS], sweep, params, work, out.rows(own, own + BATCH_BLOCKS))
                elif not any(child.running for child in children):
                    break
                # with no slice left for the caller it waits: every child still holds one then
                for fd, _ in replies.poll(0 if lo < hi else None):
                    status = by_fd[fd].receive(out)
                    if status is not None:
                        failed = by_fd[fd].pid, status
                        _kill_pool()
                        break
        except BaseException:
            _kill_pool()
            raise
    if failed:
        _solve_run(flat, sweep, params, out)
        raise RuntimeError(f"solver process {failed[0]} exited with status {failed[1]} without a result")
    return out


def solve_blocks(blocks, basis: BasisMatrix, params: SolverParams = SolverParams()) -> Decomposition:
    """Decompose an (m, n, n) or (m, n*n) stack of blocks of basis.n; returns their Decomposition.

    Any other shape is a ValueError; a float64 C-contiguous stack is not copied.
    Each block runs from the zero state for params.max_iters sweeps. Blocks
    advance BATCH_BLOCKS at a time as rows of shared arrays. Every shrinkage
    and norm acts on one row, and each basis product is one GEMM of exactly
    BATCH_BLOCKS rows (a short slice is zero-padded), whose row bits do not
    depend on the other rows; so a block's result is bit-identical whichever
    blocks share its sweep, and one block alone pays for a full 8-row
    product. With params.workers > 1 on Linux, the slices are shared out
    among up to that many processes (no more than the usable CPUs or the
    slices): this one and solver children kept across calls, with the same
    results.
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
    processes = _process_count(params.workers, -(-len(flat) // BATCH_BLOCKS))
    if processes > 1:
        return _solve_pooled(flat, basis, params, processes)
    out = _unfilled(len(flat), basis)
    return _solve_run(flat, _sweep_basis(basis), params, out)
