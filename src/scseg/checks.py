"""Argument checks shared by the configs and the functions that take sizes or blocks."""

from __future__ import annotations

import math
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


def require_real(name: str, value) -> None:
    """Raise ValueError naming `name` unless value is a real number (Python or numpy, not bool) within float64's range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        beyond = abs(float(value)) == np.inf and abs(value) < np.inf  # a numpy longdouble past float64 reads inf
    except OverflowError:  # a Python int or Fraction past float64, such as 10**400
        beyond = True
    if beyond:
        raise ValueError(f"{name} must be within float64's range, got {value!r}")


def block_stack(name: str, a, n: int | None, dtype=np.float64, m: int | None = None) -> np.ndarray:
    """a as an (m, n, n) dtype array from an (m, n, n) or (m, n*n) stack; a C-contiguous dtype array is not copied.

    n or m may be None: the last axis then gives n, and any m passes. Anything else, a
    ragged sequence or a generator too, is a ValueError naming `name` and the shape expected.
    """
    lead = f"{'m' if m is None else m}, "
    side, area = ("n", "n*n") if n is None else (n, n * n)
    expected = f"{name} must have shape ({lead}{side}, {side}) or ({lead}{area})"
    try:
        a = np.asarray(a, dtype=dtype)
    except (TypeError, ValueError) as exc:  # ragged blocks, a generator
        raise ValueError(f"{expected}: {exc}") from exc
    if n is None and a.ndim in (2, 3):  # the side the last axis gives
        return block_stack(name, a, a.shape[-1] if a.ndim == 3 else math.isqrt(a.shape[-1]), dtype, m)
    if a.shape[1:] not in ((side, side), (area,)) or m not in (None, len(a)):
        raise ValueError(f"{expected}, got {a.shape}")
    return a.reshape(-1, n, n)
