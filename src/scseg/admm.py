"""Block decomposition into smooth and sparse layers via ADMM.

A block f (flattened n-by-n, row-major) is split as f = B a + s, where B
holds low-frequency DCT atoms and s is the foreground layer. The solver
minimizes ||a||_1 + lambda1 ||s||_1 + lambda2 * (sum of row norms of s +
sum of column norms of s) subject to the exact decomposition, using one
splitting variable per penalty term and dual ascent on the constraints.
Every step acts per pixel, per row or per column of one block, so blocks are
solved several at a time as rows of shared arrays. Every call runs one loop
over these slices: the caller solves them from the front, and solver
children, none at one process, from the back. The children are processes
forked by a call that needs them, which keep that call's sweep basis and
params and serve every later call with exactly the same ones until the
process ends; a call with any other basis or params kills them all and
forks a new generation. Each child owns one anonymous shared slot of two
regions, each with room for one slice. For each slice the caller writes the
blocks into a free region and one byte to the child's job pipe; the child
solves the slice into that region's record rows and writes the byte back,
and the caller copies the rows into its own result. A child whose slice
raises exits with status 1, and the caller then runs the loop again with
no children, which raises the earliest failing slice's error. The sweep
runs in the scaled form of ADMM (Boyd et al. 2011, section 3.1.1) with one
penalty rho: every dual is stored divided by rho, so rho enters only the
three shrinkage thresholds.
A sweep needs two products with the basis, B'W1 and B alpha. Each runs as one
GEMM of BATCH_BLOCKS rows, zero-padded when a slice is short: the shape never
changes, so a block's bits do not depend on its row or on the blocks beside
it. Each sweep is one fixed list of numpy calls: the two GEMMs, two einsums,
soft twice, group_factor once, and plain ufuncs. Every call writes into arrays
made once per slice (the work rows and their (m, n, n) views, the length-k
iterates and temporaries, both B'W1 products, and one (2, m, n) array of sums
of squares), so no array is made per sweep. Given s, the row and column groups
are independent: their duals are one (2, m, n*n) pair of work rows and their
copies another, so three calls on the pair, one group_factor call and one max
reduce serve both. The list makes 18 passes over the pixel rows: seven for the
sparse layer (one a multiply by 1/3), a fused sum of squares and a broadcast
multiply by the factors per group, two per call on the pair and one for U. The
divergence check adds none: it reads alpha and the largest sum of squares.
The work array those passes run over starts on a 64-byte cache line: where
np.empty put it 16 or 48 bytes past one, a 16-block solve of 64-pixel blocks
took about 10% longer (3.5% at 32 bytes; 2-core x86 host), with the same bits.
The sweep runs in float32, which halves the bytes of each pass: its
iterates, the basis and the thresholds are all float32, and the records it
returns hold float64 copies. SolverParams checks every threshold, and
_solve_slice casts each to the sweep's dtype once a slice, so soft and
group_factor take them as they are. solve_blocks refuses any pixel beyond
PIXEL_BOUND, so no input within it can overflow float32's range.
"""

from __future__ import annotations

import atexit
import math
import os
import select
import sys
import threading
from dataclasses import dataclass, fields, replace

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
    the processes solve_blocks may use; it changes no result. The counts must be
    integers and the weights real (Python or numpy, not bool); each field is kept
    as a Python int or float, so params that compare equal solve alike.
    """

    lambda1: float = 100.0
    lambda2: float = 2.0
    rho: float = 1.0
    max_iters: int = 50
    workers: int = 1

    def __post_init__(self):
        require_counts(self, max_iters=1, workers=1)
        for name in ("lambda1", "lambda2", "rho"):
            value = require_real(name, getattr(self, name))
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)
        # the largest shrinkage threshold, held in float32 by the sweep; Python floats
        # overflow to inf without a warning, and inf fails the comparison too
        if not max(1.0, self.lambda1, self.lambda2) / self.rho <= _FLOAT32_MAX:
            raise ValueError(
                f"rho {self.rho} is too small: 1/rho, lambda1/rho or lambda2/rho exceeds float32's {_FLOAT32_MAX:.4g}"
            )


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Smooth coefficients and sparse layers of m blocks after max_iters sweeps, with diagnostics.

    Each field is a float64 array whose row i is block i's: alpha (m, k), s (m, n, n),
    primal_residual (m,) and split_residuals (m, 3). alpha and s are copies of
    the float32 sweep's iterates, and the residuals are computed from float64
    copies too, against the float64 blocks.
    primal_residual is ||f - B a - s|| / ||f|| (0 for an all-zero block);
    split_residuals are the absolute norms of the coefficient-copy, row-copy
    and column-copy gaps ||a - beta||, ||s - y||, ||s - z||, read from the
    work rows where every sweep leaves y and z. Every block runs from the
    zero state, so the residuals after k sweeps are the ones a solve with
    max_iters=k returns. objective(alpha, s, params) is the decomposition
    objective at the last iterate, which need not satisfy f = B a + s, so it
    can read below the optimum.
    """

    alpha: np.ndarray
    s: np.ndarray
    primal_residual: np.ndarray
    split_residuals: np.ndarray

    def rows(self, start: int, stop: int) -> Decomposition:
        """Blocks start to stop, as views of these arrays."""
        return Decomposition(*(getattr(self, f.name)[start:stop] for f in fields(self)))


def _record_shapes(m: int, n: int, k: int) -> tuple:
    """The shapes of a Decomposition's four fields for m blocks of side n and k atoms, in field order."""
    return (m, k), (m, n, n), (m,), (m, 3)


def _unfilled(m: int, basis: BasisMatrix) -> Decomposition:
    """A Decomposition of m blocks whose arrays the solver has yet to fill."""
    return Decomposition(*(np.empty(shape) for shape in _record_shapes(m, basis.n, basis.k)))


def objective(alpha, s, params: SolverParams):
    """Decomposition objective ||alpha||_1 + lambda1 ||s||_1 + lambda2 * group term, of each block.

    One block's (k,) alpha and (n, n) or (n*n,) s give a float, as the stack
    [s] of one; an (m, k) alpha and an (m, n, n) or (m, n*n) s give the m
    blocks' values as an array. Any other input is a ValueError naming alpha or s.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim == 1:
        return float(objective(alpha[None], [s], params)[0])
    if alpha.ndim != 2:
        raise ValueError(f"alpha must have shape (k,) or (m, k), got {alpha.shape}")
    s = block_stack("s", s, None, m=len(alpha))
    # the group term sums the l2 norm of every row and column, each np.linalg.norm's root of a sum of squares
    squares = s * s
    groups = np.sqrt(squares.sum(axis=2)).sum(axis=1) + np.sqrt(squares.sum(axis=1)).sum(axis=1)
    sparse = np.abs(s).sum(axis=(1, 2))
    return np.abs(alpha).sum(axis=1) + params.lambda1 * sparse + params.lambda2 * groups


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The l2 norm of each last-axis row of x: the root of the row's dot product, as np.linalg.norm takes it."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def soft(x, lam: float, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise soft threshold: sign(x) * max(|x| - lam, 0).

    Computed as x - clip(x, -lam, lam), two passes instead of four, into
    `out` when given (it must not overlap x). Every nonzero result has the
    same bits as the sign form; zeros are +0.0. The threshold must be a
    finite scalar in x's dtype (for float64 x a Python float does too), as
    _solve_slice passes it: SolverParams bounds every threshold, and
    _solve_slice casts each once a slice. A negative or NaN threshold is a
    ValueError.
    """
    if not lam >= 0:  # NaN fails the comparison too
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    x = np.asarray(x)
    clipped = x.clip(-lam, lam, out=out)
    return np.subtract(x, clipped, out=clipped)


def group_factor(squares: np.ndarray, lam: float) -> np.ndarray:
    """Block soft-threshold factors (1 - lam/||x||)+ of slices x from their float32 or float64 ||x||**2.

    The factors overwrite `squares` in place, in its dtype, and are returned;
    a slice x times its factor is its block soft threshold, and a slice whose
    norm is at or below lam gets factor zero. The threshold is soft's: a
    finite scalar already in the dtype of `squares`. A negative or NaN
    threshold is a ValueError.
    """
    if not lam >= 0:  # NaN fails the comparison too
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    if lam == 0:  # also a positive threshold that underflowed the dtype in _solve_slice's cast
        return np.greater(squares, 0, out=squares)
    # lam / lam is exactly 1, so a slice at or below lam gets exactly 0
    norms = np.maximum(np.sqrt(squares, out=squares), lam, out=squares)
    return np.subtract(1, np.divide(lam, norms, out=norms), out=norms)


# Blocks advanced together in one sweep, and the row count of every basis
# product: a slice with fewer blocks is zero-padded to it, because a GEMM's
# row bits depend on its row count (one row even runs as a GEMV) but not on
# the other rows. A constant, not an option: whatever the image size, it caps
# the solver's working arrays at the seven float32 BATCH_BLOCKS x n*n rows of
# the work array (0.875 MB for 64-pixel blocks), besides the call's float32
# copy of the k x n*n basis (160 KiB at n = 64 and k = 10).
BATCH_BLOCKS = 8

# Rows of the preallocated work array: the blocks f, the sparse layer s, the
# scaled duals W1 = w1/rho, V1 = v1/rho and V2 = v2/rho, and the group copies y
# and z; (V1, V2) and (y, z) are each one (2, m, n*n) pair. A sweep forms
# U = (y - V1) + (z - V2) in y's row, which frees z's row for B alpha and
# scratch. No other pixel-sized array is made in a slice (the group norms and
# factors are one value a row or column), so for 64-pixel blocks the float32
# sweep works in 0.875 MB, under half of a 2 MB L2 cache. After the last sweep
# rows 0 to 3 are dead, and the records use them as two float64 BATCH_BLOCKS x
# n*n scratch arrays. solve_blocks starts the array on a 64-byte boundary (see
# _aligned_work); the rows then stay aligned for every even block side.
_WORK_ROWS = 7


@dataclass(frozen=True, eq=False)
class _SweepBasis:
    """The basis as the sweep reads it: B' as the transposed view of the float64 atoms and a C-contiguous float32 copy.

    solve_blocks makes one per call, and a solver child keeps the one of the
    call that forked it. The float32 sweep reads the copy, because alpha @ B'
    runs 2x faster on C order than on the transpose of the (n*n, k) atoms;
    the float64 products (the records' B alpha once a slice, and the float64
    sweep) read the view, so no call copies the float64 atoms.
    """

    n: int
    atoms_t: np.ndarray
    atoms_t32: np.ndarray


def _sweep_basis(basis: BasisMatrix) -> _SweepBasis:
    """basis as the sweep reads it."""
    return _SweepBasis(basis.n, basis.atoms.T, np.ascontiguousarray(basis.atoms.T, dtype=np.float32))


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
    folded into the step that produces its gap. Every sweep, the first and
    the last, runs the same calls, and leaves the group copies y and z in
    their rows, where the split residuals read them.
    """
    # B'x of every row x runs as one GEMM B' X', transposed back: at 8 x 4096
    # by 4096 x 10 this layout takes about 25 us where X B takes about 30 us
    # (2-core x86 host, OpenBLAS, one thread).
    m, k, dtype = len(flat), len(basis.atoms_t), work.dtype.type
    atoms_t = basis.atoms_t32 if dtype is np.float32 else basis.atoms_t
    work[:, m:] = 0.0
    rows = work[:, :m]
    rows[0] = flat
    rows[1:] = 0.0  # s, W1, V1, V2, y and z start at zero
    (f, s, w1), duals, copies = rows[:3], rows[3:5], rows[5:]  # (V1, V2) and (y, z): (2, m, n*n) pairs
    u, tmp = copies  # U forms in y's row, and z's row is then scratch
    (v13, v23), (y3, z3) = (pair.reshape(2, m, basis.n, basis.n) for pair in (duals, copies))
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
    row_factor, col_factor = squares[0, :, :, None], squares[1, :, None, :]
    # from zero W1 this start gives sweep 1 its B'f
    np.negative(np.matmul(atoms_t, work[0].T, out=g[0]), out=g[0])

    for it in range(1, params.max_iters + 1):
        # B'B = I, so alpha = (B'W1 - W2 + beta + B'(f - s)) / 2; the last W1
        # update added f - B alpha - s, so B'(f - s) is g - g_prev + alpha_prev.
        g_prev, g = g, g_prev
        np.matmul(atoms_t, w1_t, out=g[0])
        np.add(np.subtract(g[1], g_prev[1], out=t2), alpha, out=alpha)
        np.add(np.add(np.subtract(g[1], w2, out=t1), beta, out=t1), alpha, out=alpha)
        np.divide(alpha, two, out=alpha)
        soft(np.add(alpha, w2, out=t1), coef_lam, out=beta)
        w2 += np.subtract(alpha, beta, out=t1)

        # U = (y - V1) + (z - V2) in y's row (zero in sweep 1), q = W1 + f - B alpha in W1,
        # s = soft(q + U, lambda1/rho) / 3, and the dual step W1 = q - s
        copies -= duals
        np.add(u, tmp, out=u)
        np.matmul(alpha, atoms_t, out=smooth)
        w1 += np.subtract(f, tmp, out=tmp)
        np.add(w1, u, out=s)
        np.multiply(soft(s, sparse_lam, out=tmp), third, out=s)
        w1 -= s

        # Given s the two groups are independent: T = s + V in V's rows, one group_factor call
        # turns both groups' sums of squares into their factors c (the divergence check reads the
        # largest), the copies c T go to their rows, and the dual step V += s - c T is V = T - c T.
        duals += s
        np.einsum("ijk,ijk->ij", v13, v13, out=squares[0])
        np.einsum("ijk,ijk->ik", v23, v23, out=squares[1])
        peak = squares.max()
        group_factor(squares, group_lam)
        np.multiply(v13, row_factor, out=y3)
        np.multiply(v23, col_factor, out=z3)
        duals -= copies

        if not (np.isfinite(alpha, out=finite).all() and math.isfinite(peak)):
            # only the raise path looks at the pixel iterates: a finite sweep overflowed a sum
            if np.isfinite(alpha).all() and np.isfinite(rows[1:]).all():
                raise DivergenceError(f"row or column sum of squares overflowed float32 at iteration {it}")
            raise DivergenceError(f"non-finite iterate at iteration {it}")

    # the records in float64, once s is copied out, in the dead rows 0 to 3 (0 and 1 of float64 work)
    # as two float64 BATCH_BLOCKS x n*n arrays: the split gaps in both, then B alpha, again one
    # BATCH_BLOCKS-row GEMM, in the second; f is the input itself
    scratch = work[:4].reshape(-1).view(np.float64)[: 2 * work[0].size].reshape(2, *work[0].shape)
    alpha = alpha.astype(np.float64)
    out.alpha[:] = alpha[:m]
    out.s[:] = s.reshape(m, basis.n, basis.n)
    s = out.s.reshape(m, -1)
    out.split_residuals[:, 0] = _row_norms(out.alpha - beta[:m])
    out.split_residuals[:, 1:] = _row_norms(np.subtract(s, copies, out=scratch[:, :m])).T
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


def _process_count(workers: int, slices: int) -> int:
    """Processes for `slices` slices: at most one per worker, usable CPU and slice.

    One process off Linux: forking after numpy's libraries have loaded is
    tested only there (macOS's system libraries are not fork-safe, and
    Windows has no os.fork).
    """
    if not sys.platform.startswith("linux") or slices < 2:
        return 1
    return min(workers, len(os.sched_getaffinity(0)), slices)


# The solver children, one generation: forked by a call that needs them, kept until the process
# ends or a call with another basis or params ends them all. A call hands its slices to the
# first processes - 1 of them; the lock makes calls from several threads take turns.
_pool: list = []
_pool_lock = threading.Lock()

# Slices a child holds at once, each in a region of its slot (for 8 blocks of 64 pixels, 256
# KiB of blocks and about 257 KiB of records): it starts on the second as soon as it has solved
# the first, while the caller, busy with a slice of its own, has yet to copy the first out and
# send the next.
_REGIONS = 2


def _region_dtype(n: int, k: int) -> np.dtype:
    """One region of a slot for blocks of side n and k atoms: its block count m, one slice's blocks and the four record fields."""
    records = zip(fields(Decomposition), _record_shapes(BATCH_BLOCKS, n, k))
    return np.dtype([("m", np.int64), ("blocks", np.float64, (BATCH_BLOCKS, n * n))]
                    + [(f.name, np.float64, shape) for f, shape in records])


def _records(regions: np.ndarray, region: int, m: int) -> Decomposition:
    """The first m record rows of one region of a slot, as views."""
    return Decomposition(*(regions[f.name][region, :m] for f in fields(Decomposition)))


def _serve(regions: np.ndarray, jobs: int, done: int, basis: _SweepBasis, params: SolverParams) -> None:
    """A child's loop: for each byte read from `jobs`, solve the slice in the region it names, then write it to `done`.

    Every slice runs on the basis and params the child was forked with.
    Returns on EOF, once every write end of `jobs` is closed.
    """
    work = _aligned_work(basis.n)
    while job := os.read(jobs, 1):
        region = job[0]
        m = int(regions["m"][region])
        _solve_slice(regions["blocks"][region, :m], basis, params, work, _records(regions, region, m))
        os.write(done, job)


class _Child:
    """A solver child: its pid, the caller's ends of its job and reply pipes, and its shared slot of _REGIONS regions.

    It is forked when made and keeps the basis and params it was given,
    which `atoms` (the bytes of B', one copy shared by the pool's
    generation: 320 KiB at n = 64 and k = 10) and `key` name, and, as any
    forked process, the pages its caller held at the fork (copy-on-write).
    It ignores SIGINT, closes every file descriptor but its ends of the two
    pipes, and runs _serve until _end_pool kills it, or until its job pipe
    reaches EOF because the caller's process died; then, or when a slice
    raises, it leaves through os._exit (status 0 or 1), so it runs none of
    the caller's cleanup or buffered output. `running` maps each region it
    holds a slice in to the slice's first block.
    """

    def __init__(self, basis: _SweepBasis, params: SolverParams, key: tuple, atoms: bytes):
        import mmap  # only a call that forks needs it, so importing scseg does not load it

        dtype = _region_dtype(basis.n, len(basis.atoms_t))
        self.key, self.atoms = key, atoms
        self.slot, self.running = mmap.mmap(-1, _REGIONS * dtype.itemsize), {}
        self.regions = np.frombuffer(self.slot, dtype, _REGIONS)
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
                _serve(self.regions, jobs, done, basis, params)
                status = 0
            finally:
                os._exit(status)
        os.close(jobs)
        os.close(done)

    def send(self, start: int, flat: np.ndarray) -> None:
        """Write the slice of flat from block `start` into a free region, and queue the child's job on it."""
        region = min(set(range(_REGIONS)) - set(self.running))
        rows = flat[start : start + BATCH_BLOCKS]
        self.regions["m"][region] = len(rows)
        self.regions["blocks"][region, : len(rows)] = rows
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
            rows = out.rows(start, start + BATCH_BLOCKS)
            records = _records(self.regions, region, len(rows.alpha))
            for f in fields(rows):
                getattr(rows, f.name)[:] = getattr(records, f.name)
        return None

    def close(self) -> None:
        """Close the caller's ends of the pipes."""
        os.close(self.jobs)
        os.close(self.done)

    def reap(self, wait: bool = True) -> int | None:
        """Wait for the child to exit, drop it from the pool and return its exit status; wait=False returns None if it runs."""
        pid, status = os.waitpid(self.pid, 0 if wait else os.WNOHANG)
        if not pid:
            return None
        _pool.remove(self)  # only once reaped, so an interrupted wait leaves it to be killed and reaped
        self.close()
        return os.waitstatus_to_exitcode(status)


def _pool_children(count: int, basis: _SweepBasis, params: SolverParams) -> list:
    """The pool's first `count` children, each forked with this basis and these params (workers aside).

    The pool is one generation: every child was forked with the same basis
    and params. A call with another basis (a new basis of the same bits is
    the same) or other params ends the whole pool first. Children that have
    exited since the last call (killed while idle) are reaped and dropped,
    children past the usable CPUs less one are ended, and children missing
    are forked.
    """
    # B' by its exact bits, compared in place with the generation's bytes through unsigned-integer
    # views (a float64 entry is one uint64), and the params but workers by value: SolverParams
    # keeps each field as a Python int or float, so equal params give the sweep equal thresholds
    atoms_t = basis.atoms_t
    unit = math.gcd(atoms_t.itemsize, 8)
    bits = atoms_t.view(np.dtype((f"u{unit}", (atoms_t.itemsize // unit,))))
    key = atoms_t.dtype.str, atoms_t.shape, replace(params, workers=1)
    if _pool and (_pool[0].key != key
                  or not np.array_equal(np.frombuffer(_pool[0].atoms, bits.dtype).reshape(bits.shape), bits)):
        _end_pool()
    for child in list(_pool):
        child.reap(wait=False)
    _end_pool(len(os.sched_getaffinity(0)) - 1)
    atoms = _pool[0].atoms if _pool else atoms_t.tobytes()
    while len(_pool) < count:
        _pool.append(_Child(basis, params, key, atoms))
    return _pool[:count]


def _end_pool(keep: int = 0) -> None:
    """SIGKILL and reap every child past the first `keep`, the last first: the one way the pool ends a child.

    Between calls a child is idle in os.read, and a failed or interrupted call may leave one mid-slice;
    killing it loses nothing either way, as its slot is an anonymous mapping and it runs no cleanup.
    """
    import signal

    while len(_pool) > keep:
        os.kill(_pool[-1].pid, signal.SIGKILL)
        _pool[-1].reap()


def _forget_pool() -> None:
    """After a fork, in the new process: close the inherited pipes of a pool that is not its own."""
    global _pool, _pool_lock
    for child in _pool:
        child.close()
    _pool, _pool_lock = [], threading.Lock()


atexit.register(_end_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _solve_slices(flat, sweep: _SweepBasis, params: SolverParams, work, out: Decomposition, children) -> tuple | None:
    """Solve flat's slices here, on `work`, and in `children` (none at one process), into out's rows.

    The caller takes slices from the front and the children from the back,
    each child holding up to _REGIONS of them (one once no more slices are
    left to hand out than there are processes), until they meet. Between
    its own slices the caller copies out the rows of the slices the children
    report solved, and sends them more; it waits for a reply only when it
    has no slice left and a child holds one. Returns None once every slice
    is solved, or at once the (pid, exit status) of a child that exited.
    """
    starts, processes = range(0, len(flat), BATCH_BLOCKS), len(children) + 1
    # only children need a poll; Windows has no select.poll
    replies, by_fd = select.poll() if children else None, {child.done: child for child in children}
    for fd in by_fd:
        replies.register(fd, select.POLLIN)
    lo, hi = 0, len(starts)  # the slices not yet handed out
    while True:
        for child in children:
            while lo < hi and len(child.running) < (_REGIONS if hi - lo > processes else 1):
                hi -= 1
                child.send(starts[hi], flat)
        if lo < hi:
            own = starts[lo]
            lo += 1
            _solve_slice(flat[own : own + BATCH_BLOCKS], sweep, params, work, out.rows(own, own + BATCH_BLOCKS))
            timeout = 0
        elif any(child.running for child in children):
            timeout = None
        else:
            return None
        for fd, _ in replies.poll(timeout) if children else ():
            status = by_fd[fd].receive(out)
            if status is not None:
                return by_fd[fd].pid, status


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
    slices): this one and the pool's solver children, with the same
    results; at one process the pool is left alone. A child that exits
    instead (status 1 if its slice raised) fails the call: _end_pool kills
    and reaps every child, and the call is solved again here with no
    children, which raises the earliest failing slice's error (a slice gives
    the same bits in every process); if it completes, a RuntimeError names
    the child's exit status. An error in one of the caller's own slices, or
    an interrupt, while children take part also ends the pool.
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
    out, sweep, work = _unfilled(len(flat), basis), _sweep_basis(basis), _aligned_work(basis.n)
    failed = None  # (pid, exit status) of a child that exited
    if processes > 1:
        with _pool_lock:
            try:
                failed = _solve_slices(flat, sweep, params, work, out, _pool_children(processes - 1, sweep, params))
            except BaseException:
                _end_pool()
                raise
            if not failed:
                return out
            _end_pool()
    _solve_slices(flat, sweep, params, work, out, [])
    if failed:
        raise RuntimeError(f"solver process {failed[0]} exited with status {failed[1]} without a result")
    return out
