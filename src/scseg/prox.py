"""Shrinkage operators used by the block solver.

Both keep float32 in float32, with the threshold cast to it; soft computes
any other input in float64, and group_factor works in its input's array.
"""

from __future__ import annotations

import numpy as np


def soft(x, lam: float, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise soft threshold: sign(x) * max(|x| - lam, 0).

    Computed as x - clip(x, -lam, lam), two passes instead of four, into
    `out` when given (it must not overlap x). Every nonzero result has the
    same bits as the sign form; zeros are +0.0.
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

    The factors overwrite `squares` in place and are returned; a slice x
    times its factor is its block soft threshold, and a slice whose norm is
    at or below lam gets factor zero.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    lam = squares.dtype.type(lam)
    if lam == 0:  # also a positive threshold that underflows the dtype
        return np.greater(squares, 0, out=squares)
    # lam / lam is exactly 1, so a slice at or below lam gets exactly 0
    norms = np.maximum(np.sqrt(squares, out=squares), lam, out=squares)
    return np.subtract(1, np.divide(lam, norms, out=norms), out=norms)
