"""Whole-image pipeline: per-block solves, mask extraction, background fill."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admm import BATCH_BLOCKS, Decomposition, SolverParams, solve_blocks
from .dct import BasisMatrix, build_basis
from .image_io import BlockGrid, stitch, tile


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
        if self.block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {self.block_size}")
        if not 0 <= self.fg_threshold < np.inf:
            raise ValueError(f"fg_threshold must be >= 0 and finite, got {self.fg_threshold}")
        if not 1 <= self.k_bases <= self.block_size**2:
            raise ValueError(f"k_bases {self.k_bases} out of range for block {self.block_size}")


def _binarize(dec: Decomposition, basis: BasisMatrix, cfg: SegmentationConfig) -> np.ndarray:
    return np.abs(dec.s).reshape(basis.n, basis.n) > cfg.fg_threshold


def segment_blocks(img, cfg: SegmentationConfig | None = None):
    """Tile an image and segment every block in one batched solve.

    Returns (grid, basis, results) where results is a list of
    (mask, decomposition) pairs in grid order; a mask is an (n, n) boolean
    array, True where the sparse layer exceeds cfg.fg_threshold in
    magnitude. Each block's result is the one it gets when solved alone.
    """
    if cfg is None:
        cfg = SegmentationConfig()
    img = np.asarray(img, dtype=np.float64)
    grid = tile(img, cfg.block_size)
    basis = build_basis(cfg.block_size, cfg.k_bases)
    decs = solve_blocks(grid.blocks, basis, cfg.solver)
    results = [(_binarize(dec, basis, cfg), dec) for dec in decs]
    return grid, basis, results


def segment_images(images, cfg: SegmentationConfig | None = None):
    """Segment a stream of images; yields one (h, w) boolean mask per image, in order.

    Consecutive images are grouped until the group holds at least
    BATCH_BLOCKS blocks, and each group's blocks go through one solve_blocks
    call, so images smaller than a batch still fill its sweeps. Only one
    group is held at a time: at most one image plus fewer than BATCH_BLOCKS
    blocks. Each mask is bit-identical to segmenting its image alone.
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
            yield from _group_masks(grids, blocks, basis, cfg)
            grids, blocks = [], []
    if grids:
        yield from _group_masks(grids, blocks, basis, cfg)


def _group_masks(grids: list, blocks: list, basis: BasisMatrix, cfg: SegmentationConfig):
    decs = iter(solve_blocks(blocks, basis, cfg.solver))
    for grid in grids:
        yield stitch(grid, [_binarize(next(decs), basis, cfg) for _ in grid.blocks])


def segment_image(img, cfg: SegmentationConfig | None = None) -> np.ndarray:
    """Segment a full image; returns an (h, w) boolean foreground mask."""
    return next(segment_images([img], cfg))


def fill_background(f, mask, basis: BasisMatrix) -> np.ndarray:
    """Replace masked pixels with a smooth least-squares prediction.

    Fits the basis coefficients to the unmasked (background) pixels only and
    evaluates the fit inside the mask; background pixels pass through
    unchanged. Raises BackgroundFitError when fewer than k background pixels
    remain or they do not determine the coefficients.
    """
    n, k = basis.n, basis.k
    f = np.asarray(f, dtype=np.float64).reshape(n, n)
    mask = np.asarray(mask, dtype=bool).reshape(n, n)
    background = ~mask.ravel()
    count = int(background.sum())
    if count < k:
        raise BackgroundFitError(f"{count} background pixels cannot determine {k} coefficients")
    sub = basis.atoms[background]
    if np.linalg.matrix_rank(sub) < k:
        raise BackgroundFitError("background pixels are rank-deficient; mask covers too much")
    coef = np.linalg.solve(sub.T @ sub, sub.T @ f.ravel()[background])
    out = f.copy()
    out[mask] = (basis.atoms @ coef).reshape(n, n)[mask]
    return out


def assemble_layers(img, grid: BlockGrid, basis: BasisMatrix, results):
    """Build (background, foreground, mask) images from per-block results."""
    img = np.asarray(img, dtype=np.float64)
    masks = [mask for mask, _ in results]
    filled = [fill_background(block, mask, basis) for block, mask in zip(grid.blocks, masks)]
    mask = stitch(grid, masks)
    background = stitch(grid, filled)
    foreground = np.where(mask, img, 0.0)
    return background, foreground, mask


def reconstruct_layers(img, cfg: SegmentationConfig | None = None):
    """Segment an image and split it into smooth background and foreground layers.

    Returns (background, foreground, mask): the background keeps original
    values outside the mask and fills masked pixels with the per-block smooth
    fit; the foreground keeps original values inside the mask and is zero
    elsewhere.
    """
    grid, basis, results = segment_blocks(img, cfg)
    return assemble_layers(img, grid, basis, results)
