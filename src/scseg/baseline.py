"""Two-cluster intensity baseline segmenter.

A deliberately simple comparison point for the evaluation harness: Lloyd's
algorithm with k=2 on raw pixel intensities, one block at a time, with the
minority cluster taken as foreground. It fails in the expected way when
background and foreground intensity ranges overlap.
"""

from __future__ import annotations

import numpy as np

from .image_io import stitch, tile

_MAX_SWEEPS = 100


def kmeans2_block(f) -> np.ndarray:
    """Cluster one 2-D block's intensities into two groups; minority = foreground.

    Centers start at the block's min and max, so the result is deterministic.
    Equal-size clusters resolve to the brighter one; constant blocks yield an
    empty mask. A block that is not 2-D, or holds a NaN or inf, raises ValueError.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"block must be 2-D, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("block contains non-finite values")
    values = f.ravel()
    if values.min() == values.max():
        return np.zeros(f.shape, dtype=bool)
    centers = np.array([values.min(), values.max()])
    assign = np.abs(values[:, None] - centers[None, :]).argmin(axis=1)
    for _ in range(_MAX_SWEEPS):
        for j in (0, 1):
            members = assign == j
            if members.any():
                centers[j] = values[members].mean()
        new_assign = np.abs(values[:, None] - centers[None, :]).argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    sizes = np.bincount(assign, minlength=2)
    if sizes[0] == sizes[1]:
        fg_label = int(centers.argmax())
    else:
        fg_label = int(sizes.argmin())
    return (assign == fg_label).reshape(f.shape)


def kmeans2_image(img, block_size: int = 64) -> np.ndarray:
    """Apply the two-cluster baseline block-wise over a full image."""
    grid = tile(np.asarray(img, dtype=np.float64), block_size)
    return stitch(grid, [kmeans2_block(b) for b in grid.blocks])
