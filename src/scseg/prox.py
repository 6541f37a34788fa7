"""Shrinkage operators used by the block solver."""

from __future__ import annotations

import numpy as np


def soft(x, lam: float) -> np.ndarray:
    """Element-wise soft threshold: sign(x) * max(|x| - lam, 0).

    Computed as x - clip(x, -lam, lam), two passes instead of four. Every
    nonzero result has the same bits as the sign form; zeros are +0.0.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    x = np.asarray(x, dtype=np.float64)
    clipped = np.clip(x, -lam, lam)
    return np.subtract(x, clipped, out=clipped)


def group_soft(a: np.ndarray, lam: float, axis: int) -> np.ndarray:
    """Block soft threshold of every 1-D slice x along `axis`: (1 - lam/||x||)+ x.

    A slice whose norm is at or below lam becomes zero. Along a length-1
    axis this is the element-wise soft threshold.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    a = np.asarray(a, dtype=np.float64)
    norms = np.linalg.norm(a, axis=axis, keepdims=True)
    scale = np.where(norms > lam, 1.0 - lam / np.where(norms > 0, norms, 1.0), 0.0)
    return a * scale
