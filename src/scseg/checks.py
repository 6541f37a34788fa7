"""Argument checks shared by the configs and the functions that take sizes or blocks."""

from __future__ import annotations

import numbers

import numpy as np


def require_count(name: str, value, low: int | None) -> None:
    """Raise ValueError naming `name` if value is not an integer or is below low.

    Python and numpy integers pass, bool does not; a low of None checks the type only.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def require_counts(obj, **minimums) -> None:
    """require_count on each named field of obj, in order; the first bad one raises."""
    for name, low in minimums.items():
        require_count(name, getattr(obj, name), low)


def square_block(name: str, a, n: int, dtype) -> np.ndarray:
    """a as an (n, n) dtype array; ValueError naming `name` and its shape unless it is (n, n) or (n*n,)."""
    a = np.asarray(a, dtype=dtype)
    if a.shape not in ((n, n), (n * n,)):
        raise ValueError(f"{name} must have shape ({n}, {n}) or ({n * n},), got {a.shape}")
    return a.reshape(n, n)
