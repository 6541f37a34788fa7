"""Whole-image pipeline: per-block solves, mask extraction, background fill."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admm import BATCH_BLOCKS, Decomposition, SolverParams, require_counts, solve_blocks
from .dct import BasisMatrix, build_basis
from .image_io import stitch, tile


class BackgroundFitError(ValueError):
    """Too few or too poorly spread background pixels to fit the smooth model."""


@dataclass
class SegmentationConfig:
    """Block size, dictionary size, solver settings, and binarization threshold.

    The defaults (64-pixel blocks, 10 atoms, solver defaults, threshold of
    one gray level) are the reference operating point; the threshold only
    exists to kill numerical dust, since l1 shrinkage drives background
    pixels of the sparse layer to exact zero.
    """

    block_size: int = 64
    k_bases: int = 10
    solver: SolverParams = field(default_factory=SolverParams)
    fg_threshold: float = 1.0

    def __post_init__(self):
        require_counts(self, block_size=2, k_bases=None)
        if not 0 <= self.fg_threshold < np.inf:
            raise ValueError(f"fg_threshold must be >= 0 and finite, got {self.fg_threshold}")
        if not 1 <= self.k_bases <= self.block_size**2:
            raise ValueError(f"k_bases {self.k_bases} out of range for block {self.block_size}")


def _binarize(dec: Decomposition, basis: BasisMatrix, cfg: SegmentationConfig) -> np.ndarray:
    return np.abs(dec.s).reshape(basis.n, basis.n) > cfg.fg_threshold


def segment_images(images, cfg: SegmentationConfig | None = None):
    """Segment a stream of images; yields one record per image, in order.

    A record is (mask, grid, basis, pairs): the image's (h, w) boolean
    mask, its BlockGrid, the basis its blocks were solved on, and one
    (block mask, Decomposition) pair per block in grid order. A block mask
    is (n, n), True where the sparse layer exceeds cfg.fg_threshold in
    magnitude.

    Consecutive images are grouped until the group holds at least
    BATCH_BLOCKS blocks, and each group's blocks go through one solve_blocks
    call, so images smaller than a batch still fill its sweeps. Only one
    group is held at a time: at most one image plus fewer than BATCH_BLOCKS
    blocks. Each record is bit-identical to segmenting its image alone.
    """
    if cfg is None:
        cfg = SegmentationConfig()
    basis = build_basis(cfg.block_size, cfg.k_bases)
    grids = []
    blocks = []
    for img in images:
        grids.append(tile(img, cfg.block_size))
        blocks.extend(grids[-1].blocks)
        if len(blocks) >= BATCH_BLOCKS:
            yield from _group_records(grids, blocks, basis, cfg)
            grids, blocks = [], []
    if grids:
        yield from _group_records(grids, blocks, basis, cfg)


def _group_records(grids: list, blocks: list, basis: BasisMatrix, cfg: SegmentationConfig):
    decs = iter(solve_blocks(blocks, basis, cfg.solver))
    for grid in grids:
        # zip pulls from grid.blocks first, so it stops without taking the next image's block
        pairs = [(_binarize(dec, basis, cfg), dec) for _, dec in zip(grid.blocks, decs)]
        yield stitch(grid, [mask for mask, _ in pairs]), grid, basis, pairs


def segment_image(img, cfg: SegmentationConfig | None = None) -> np.ndarray:
    """Segment a full image; returns an (h, w) boolean foreground mask."""
    return next(segment_images([img], cfg))[0]


# Largest condition number of the fit's normal matrix sub'sub that
# fill_background accepts. The solve then keeps about 4 of float64's 16
# digits: near this bound, the fill of an exactly smooth 8-bit block is off
# by under 0.1 gray levels. The check reads only the k x k matrix the fit
# forms anyway.
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
    f = np.asarray(f, dtype=np.float64).reshape(n, n)
    mask = np.asarray(mask, dtype=bool).reshape(n, n)
    if not mask.any():
        return f.copy()
    background = ~mask.ravel()
    count = int(background.sum())
    if count < k:
        raise BackgroundFitError(f"{count} background pixels cannot determine {k} coefficients")
    sub = basis.atoms[background]
    gram = sub.T @ sub
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise BackgroundFitError("background pixels are rank-deficient; mask covers too much") from None
    if not np.linalg.cond(gram) <= MAX_FIT_CONDITION:
        raise BackgroundFitError("background pixels are too poorly spread to determine the fit")
    coef = np.linalg.solve(gram, sub.T @ f.ravel()[background])
    out = f.copy()
    out[mask] = (basis.atoms @ coef).reshape(n, n)[mask]
    return out


def assemble_layers(img, record):
    """Build (background, foreground, mask) images from one segment_images record.

    A block whose background pixels cannot determine fill_background's fit
    gets its solver layer B alpha under its mask instead of stopping the image.
    """
    mask, grid, basis, pairs = record
    filled = []
    for block, (m, dec) in zip(grid.blocks, pairs):
        try:
            filled.append(fill_background(block, m, basis))
        except BackgroundFitError:
            filled.append(np.where(m, (basis.atoms @ dec.alpha).reshape(m.shape), block))
    background = stitch(grid, filled)
    foreground = np.where(mask, np.asarray(img, dtype=np.float64), 0.0)
    return background, foreground, mask


def reconstruct_layers(img, cfg: SegmentationConfig | None = None):
    """Segment an image and split it into smooth background and foreground layers.

    Returns (background, foreground, mask): the background keeps original
    values outside the mask and fills masked pixels with the per-block smooth
    fit (the solver's B alpha for a block fill_background cannot fit); the
    foreground keeps original values inside the mask and is zero elsewhere.
    """
    return assemble_layers(img, next(segment_images([img], cfg)))
