"""Shrinkage operators used by the block solver.

Both keep a float32 input in float32, with the threshold cast to it, and
compute anything else in float64.
"""

from __future__ import annotations

import numpy as np


def _as_float(x) -> np.ndarray:
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def soft(x, lam: float, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise soft threshold: sign(x) * max(|x| - lam, 0).

    Computed as x - clip(x, -lam, lam), two passes instead of four, into
    `out` when given (it must not overlap x). Every nonzero result has the
    same bits as the sign form; zeros are +0.0.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    x = _as_float(x)
    lam = x.dtype.type(lam)
    clipped = np.clip(x, -lam, lam, out=out)
    return np.subtract(x, clipped, out=clipped)


def group_factor(a: np.ndarray, lam: float, axis: int) -> np.ndarray:
    """Block soft-threshold factor (1 - lam/||x||)+ of every 1-D slice x along `axis`.

    The result keeps `axis` with length 1, so `a * group_factor(a, lam, axis)`
    is the block soft threshold of every slice; a slice whose norm is at or
    below lam gets factor zero. Along a length-1 axis the shrunk values are
    the element-wise soft threshold. Each squared norm is one fused
    sum-of-squares (einsum), with no array of squares in between.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    a = _as_float(a)
    lam = a.dtype.type(lam)
    dims = "abcdefghijklmnopqrstuvwxyz"[: a.ndim]
    squares = np.einsum(f"{dims},{dims}->{dims.replace(dims[axis], '')}", a, a)
    norms = np.sqrt(np.expand_dims(squares, axis))
    if lam == 0:
        return (norms > 0).astype(a.dtype)
    # lam / lam is exactly 1, so a slice at or below lam gets exactly 0
    return 1.0 - lam / np.maximum(norms, lam)
