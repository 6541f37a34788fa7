"""Argument checks shared by the configs and the functions that take sizes."""

from __future__ import annotations

import numbers


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
