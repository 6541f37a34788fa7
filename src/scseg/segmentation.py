"""Whole-image pipeline: per-block solves, mask extraction, background fill."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .admm import BATCH_BLOCKS, Decomposition, SolverParams, solve_blocks
from .checks import block_stack, require_counts, require_real
from .dct import BasisMatrix, build_basis, dct_vectors
from .image_io import BlockGrid, stitch, tile


@dataclass(frozen=True)
class SegmentationConfig:
    """Block size, dictionary size, solver settings, and binarization threshold.

    The defaults (64-pixel blocks, 10 atoms, solver defaults, threshold of
    one gray level) are the reference operating point; the threshold only
    exists to kill numerical dust, since l1 shrinkage drives background
    pixels of the sparse layer to exact zero.
    """

    block_size: int = 64
    k_bases: int = 10
    solver: SolverParams = SolverParams()
    fg_threshold: float = 1.0

    def __post_init__(self):
        require_counts(self, block_size=2, k_bases=None)
        require_real("fg_threshold", self.fg_threshold)
        if not 0 <= self.fg_threshold < np.inf:
            raise ValueError(f"fg_threshold must be >= 0 and finite, got {self.fg_threshold}")
        if not 1 <= self.k_bases <= self.block_size**2:
            raise ValueError(f"k_bases {self.k_bases} out of range for block {self.block_size}")


@dataclass(frozen=True, eq=False)
class SegmentedImage:
    """One image's segmentation, as segment_images yields it.

    mask is the image's (h, w) boolean foreground mask, grid its BlockGrid,
    whose blocks stitch back to the image, and basis the basis its blocks were
    solved on, which other records of its block size and k share (its atoms
    are read-only). block_masks is one (m, n, n) boolean array in grid order,
    True where a block's sparse layer exceeds cfg.fg_threshold in magnitude, and
    decomposition the Decomposition of the same m blocks in the same order
    (row i is block i's); its arrays are views of the arrays its group's
    solve_blocks call returned.
    """

    mask: np.ndarray
    grid: BlockGrid
    basis: BasisMatrix
    block_masks: np.ndarray
    decomposition: Decomposition


def segment_images(images, cfg: SegmentationConfig = SegmentationConfig()):
    """Segment a stream of images; yields one SegmentedImage per image, in order.

    Consecutive images are grouped until the group holds at least
    BATCH_BLOCKS blocks, and each group's blocks go through one solve_blocks
    call, so images smaller than a batch still fill its sweeps. An image of
    BATCH_BLOCKS blocks or more is a group by itself, solved on its own
    blocks, not copied. Each image is dropped once tile has copied it into
    blocks, and one group is held at a time, as its grids and records. So
    for a one-page image the peak is its blocks and its records' float64 s,
    two float64 copies of the page, plus the solver's fixed work arrays: a
    mask-only scseg segment run peaks at 2.7 float64 pages at 512² and 2.3
    at 1024² under tracemalloc. Each record is bit-identical to segmenting its
    image alone.
    """
    basis = _shared_basis(cfg.block_size, cfg.k_bases)
    group = []
    for img in images:
        group.append(tile(img, cfg.block_size))
        del img  # the blocks are a copy: the image need not outlive the solve
        if len(group) > 1 and len(group[-1].blocks) >= BATCH_BLOCKS:
            # the pending images are solved first, so the batch-filling one is not stacked with them
            yield from _group_records(group[:-1], basis, cfg)
            del group[:-1]
        if sum(len(grid.blocks) for grid in group) >= BATCH_BLOCKS:
            yield from _group_records(group, basis, cfg)
            group = []
    if group:
        yield from _group_records(group, basis, cfg)


# typed: a float side such as 16.0 reaches build_basis's integer check instead of the entry of 16
@lru_cache(maxsize=4, typed=True)
def _shared_basis(n: int, k: int) -> BasisMatrix:
    basis = build_basis(n, k)
    basis.atoms.flags.writeable = False
    return basis


def _group_records(group: list, basis: BasisMatrix, cfg: SegmentationConfig):
    # one image's blocks are solved in place; several images' are stacked into one array
    blocks = [grid.blocks for grid in group]
    dec = solve_blocks(blocks[0] if len(blocks) == 1 else np.concatenate(blocks), basis, cfg.solver)
    start = 0
    for grid in group:
        rows = dec.rows(start, start + len(grid.blocks))
        start += len(grid.blocks)
        # |s| > t for t >= 0, NaN included, without a float64 |s| the size of s
        block_masks = rows.s > cfg.fg_threshold
        block_masks |= rows.s < -cfg.fg_threshold
        yield SegmentedImage(stitch(grid, block_masks), grid, basis, block_masks, rows)


def segment_image(img, cfg: SegmentationConfig = SegmentationConfig()) -> np.ndarray:
    """Segment a full image; returns an (h, w) boolean foreground mask."""
    return next(segment_images([img], cfg)).mask


# Largest condition number of a block's fit normal matrix (the Gram matrix of its
# background pixels' atoms) that fill_background accepts, read off its eigenvalues.
# The solve then keeps about 4 of float64's 16 digits: near this bound, the fill
# of an exactly smooth 8-bit block is off by under 0.1 gray levels.
MAX_FIT_CONDITION = 1e12

# Bytes of one batch of fill_background's per-block arrays: one n*n buffer
# (the 0/1 background, then the block zeroed under its mask, then its fill),
# the background's products with P_v (n x V*V) and with P_u and P_v
# (U*U x V*V), and the normal matrix (k x k); a batch holds at least one
# block whatever k is.
FIT_BATCH_BYTES = 1 << 20


def fill_background(blocks, masks, basis: BasisMatrix):
    """Replace masked pixels with a smooth least-squares prediction; returns (filled, fitted).

    blocks and masks are (m, n, n) or (m, n*n) stacks of as many blocks, and
    filled is (m, n, n). Fits each block to the basis over the pixels its
    mask leaves (the background) and evaluates the fit inside its mask; what
    lies under the mask, NaN or inf included, does not enter the fit.
    fitted[i] is False where fewer than k background pixels remain or
    the fit's normal matrix is not positive definite or its condition number
    exceeds MAX_FIT_CONDITION; such a block comes back unchanged, as does one
    with an empty mask. No block's result depends on the others in the call.

    Atom j is the outer product of the 1-D DCT vectors of freq_pairs[j] = (u, v),
    so no masked copy of the atoms is formed. C_u and C_v hold the vectors of
    the U vertical frequencies 0 to the largest u and the V horizontal ones 0
    to the largest v (a zig-zag basis uses each), and P_u and P_v their
    pairwise products (n x U*U, n x V*V). A block's normal matrix is read off
    P_u' K P_v (K its 0/1 background), its right-hand side off C_u' F C_v (F
    the block, zero under its mask), and its fill is C_u Coef C_v', Coef the
    U x V table of its coefficients, written under its mask only.
    """
    n, k = basis.n, basis.k
    blocks, masks = block_stack("blocks", blocks, n), block_stack("masks", masks, n, bool)
    if len(masks) != len(blocks):
        raise ValueError(f"blocks and masks must hold as many blocks, got {len(blocks)} and {len(masks)}")
    fitted, filled = np.ones(len(blocks), dtype=bool), blocks.copy()
    u, v = np.array(basis.freq_pairs).T
    cu, cv = dct_vectors(range(u.max() + 1), n), dct_vectors(range(v.max() + 1), n)
    pu, pv = ((c[:, :, None] * c[:, None, :]).reshape(n, -1) for c in (cu, cv))
    # normal matrix entry (i, j) sits at row (u_i, u_j) and column (v_i, v_j) of P_u' K P_v
    gram_rows, gram_cols = u[:, None] * cu.shape[1] + u, v[:, None] * cv.shape[1] + v
    holes = np.flatnonzero(masks.any(axis=(1, 2)))
    step = max(1, FIT_BATCH_BYTES // (8 * (n * n + (n + pu.shape[1]) * pv.shape[1] + k * k)))
    # one batch's 0/1 backgrounds, then its blocks zeroed under their masks, then its fills
    pixels = np.empty((min(step, len(holes)), n, n))
    # Stacked matmul, eigvalsh and solve run block by block, so no block's bits
    # depend on the batch; one 2-D GEMM over many blocks' rows would not.
    for batch in np.split(holes, range(step, len(holes), step)):
        part = pixels[: len(batch)]
        keep = np.logical_not(masks[batch], out=part)
        gram = (pu.T @ (keep @ pv))[:, gram_rows, gram_cols]
        ok = keep.sum(axis=(1, 2)) >= k
        # mode "clip" takes straight into part (batch's indices are all valid); "raise" buffers a copy
        background = np.take(blocks, batch, axis=0, out=part, mode="clip")
        np.copyto(background, 0.0, where=masks[batch])
        rhs = (cu.T @ background @ cv)[:, u, v]
        w = np.linalg.eigvalsh(gram)
        ok &= (w[:, 0] > 0) & (w[:, -1] <= MAX_FIT_CONDITION * w[:, 0])
        fitted[batch] = ok
        coef = np.zeros((np.count_nonzero(ok), cu.shape[1], cv.shape[1]))
        coef[:, u, v] = np.linalg.solve(gram[ok], rhs[ok, :, None])[:, :, 0]
        smooth = np.matmul(cu @ coef, cv.T, out=part[: len(coef)])
        for i, layer in zip(batch[ok], smooth):
            np.copyto(filled[i], layer, where=masks[i])
    return filled, fitted


def assemble_layers(seg: SegmentedImage):
    """Build (background, foreground, mask) images from one SegmentedImage.

    A block whose background pixels cannot determine fill_background's fit
    gets its solver layer B alpha under its mask instead of stopping the image.
    """
    basis, masks = seg.basis, seg.block_masks
    filled, fitted = fill_background(seg.grid.blocks, masks, basis)
    alpha = seg.decomposition.alpha[~fitted, :, None]
    solver_layer = (basis.atoms @ alpha).reshape(-1, basis.n, basis.n)
    filled[~fitted] = np.where(masks[~fitted], solver_layer, filled[~fitted])
    background = stitch(seg.grid, filled)
    del filled  # before the foreground is made: the block-layout fill and it need not coexist
    foreground = stitch(seg.grid, seg.grid.blocks)  # a new float64 copy of the image
    np.copyto(foreground, 0.0, where=~seg.mask)  # +0.0 outside the mask, where a multiply would give -0.0 for x < 0
    return background, foreground, seg.mask


def reconstruct_layers(img, cfg: SegmentationConfig = SegmentationConfig()):
    """Segment an image and split it into smooth background and foreground layers.

    Returns (background, foreground, mask): the background keeps original
    values outside the mask and fills masked pixels with the per-block smooth
    fit (the solver's B alpha for a block fill_background cannot fit); the
    foreground keeps original values inside the mask and is zero elsewhere.
    """
    return assemble_layers(next(segment_images([img], cfg)))
