"""Whole-image pipeline: per-block solves, mask extraction, background fill."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import BATCH_BLOCKS, SolverParams, solve_blocks
from .checks import require_counts, square_block
from .dct import BasisMatrix, build_basis
from .image_io import BlockGrid, stitch, tile


class BackgroundFitError(ValueError):
    """Too few or too poorly spread background pixels to fit the smooth model."""


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
        if not 0 <= self.fg_threshold < np.inf:
            raise ValueError(f"fg_threshold must be >= 0 and finite, got {self.fg_threshold}")
        if not 1 <= self.k_bases <= self.block_size**2:
            raise ValueError(f"k_bases {self.k_bases} out of range for block {self.block_size}")


@dataclass(frozen=True, eq=False)
class SegmentedImage:
    """One image's segmentation, as segment_images yields it.

    image is the image as it was passed in, mask its (h, w) boolean
    foreground mask, grid its BlockGrid and basis the basis its blocks were
    solved on. block_masks and decompositions are parallel tuples in grid
    order: each block's (n, n) mask, True where the sparse layer exceeds
    cfg.fg_threshold in magnitude, and its Decomposition.
    """

    image: np.ndarray
    mask: np.ndarray
    grid: BlockGrid
    basis: BasisMatrix
    block_masks: tuple
    decompositions: tuple


def segment_images(images, cfg: SegmentationConfig = SegmentationConfig()):
    """Segment a stream of images; yields one SegmentedImage per image, in order.

    Consecutive images are grouped until the group holds at least
    BATCH_BLOCKS blocks, and each group's blocks go through one solve_blocks
    call, so images smaller than a batch still fill its sweeps. Only one
    group is held at a time: at most one image plus fewer than BATCH_BLOCKS
    blocks. Each record is bit-identical to segmenting its image alone.
    """
    basis = build_basis(cfg.block_size, cfg.k_bases)
    group = []
    blocks = []
    for img in images:
        grid = tile(img, cfg.block_size)
        group.append((img, grid))
        blocks.extend(grid.blocks)
        if len(blocks) >= BATCH_BLOCKS:
            yield from _group_records(group, blocks, basis, cfg)
            group, blocks = [], []
    if group:
        yield from _group_records(group, blocks, basis, cfg)


def _group_records(group: list, blocks: list, basis: BasisMatrix, cfg: SegmentationConfig):
    decs = iter(solve_blocks(blocks, basis, cfg.solver))
    for img, grid in group:
        decompositions = tuple(next(decs) for _ in grid.blocks)
        block_masks = tuple(np.abs(d.s).reshape(basis.n, basis.n) > cfg.fg_threshold for d in decompositions)
        yield SegmentedImage(img, stitch(grid, block_masks), grid, basis, block_masks, decompositions)


def segment_image(img, cfg: SegmentationConfig = SegmentationConfig()) -> np.ndarray:
    """Segment a full image; returns an (h, w) boolean foreground mask."""
    return next(segment_images([img], cfg)).mask


# Largest condition number of the fit's normal matrix sub'sub that
# fill_background accepts. The solve then keeps about 4 of float64's 16
# digits: near this bound, the fill of an exactly smooth 8-bit block is off
# by under 0.1 gray levels. The check reads the eigenvalues of the k x k
# symmetric matrix the fit forms anyway: their ratio is its condition number.
MAX_FIT_CONDITION = 1e12


def fill_background(f, mask, basis: BasisMatrix) -> np.ndarray:
    """Replace masked pixels with a smooth least-squares prediction.

    Fits the basis coefficients to the unmasked (background) pixels only and
    evaluates the fit inside the mask; background pixels pass through
    unchanged, and an empty mask returns the block as it is. Raises
    BackgroundFitError when fewer than k background pixels remain or they do
    not determine the coefficients: the fit's normal matrix is not positive
    definite or its condition number exceeds MAX_FIT_CONDITION.
    """
    n, k = basis.n, basis.k
    f = square_block("f", f, n, np.float64)
    mask = square_block("mask", mask, n, bool)
    if not mask.any():
        return f.copy()
    background = ~mask.ravel()
    count = int(background.sum())
    if count < k:
        raise BackgroundFitError(f"{count} background pixels cannot determine {k} coefficients")
    sub = basis.atoms[background]
    gram = sub.T @ sub
    w = np.linalg.eigvalsh(gram)
    if not (w[0] > 0 and w[-1] <= MAX_FIT_CONDITION * w[0]):
        raise BackgroundFitError("background pixels are too poorly spread to determine the fit")
    coef = np.linalg.solve(gram, sub.T @ f.ravel()[background])
    out = f.copy()
    out[mask] = (basis.atoms @ coef).reshape(n, n)[mask]
    return out


def assemble_layers(seg: SegmentedImage):
    """Build (background, foreground, mask) images from one SegmentedImage.

    A block whose background pixels cannot determine fill_background's fit
    gets its solver layer B alpha under its mask instead of stopping the image.
    """
    basis = seg.basis
    filled = []
    for block, m, dec in zip(seg.grid.blocks, seg.block_masks, seg.decompositions):
        try:
            filled.append(fill_background(block, m, basis))
        except BackgroundFitError:
            filled.append(np.where(m, (basis.atoms @ dec.alpha).reshape(m.shape), block))
    background = stitch(seg.grid, filled)
    foreground = np.where(seg.mask, np.asarray(seg.image, dtype=np.float64), 0.0)
    return background, foreground, seg.mask


def reconstruct_layers(img, cfg: SegmentationConfig = SegmentationConfig()):
    """Segment an image and split it into smooth background and foreground layers.

    Returns (background, foreground, mask): the background keeps original
    values outside the mask and fills masked pixels with the per-block smooth
    fit (the solver's B alpha for a block fill_background cannot fit); the
    foreground keeps original values inside the mask and is zero elsewhere.
    """
    return assemble_layers(next(segment_images([img], cfg)))
