"""Low-frequency 2D DCT dictionary for modeling smooth image blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import require_count


@dataclass(frozen=True, eq=False)
class BasisMatrix:
    """Orthonormal 2D DCT atoms, one per column, lowest frequencies first.

    `atoms` has shape (n*n, k); column j is the atom for frequency pair
    `freq_pairs[j]`, flattened in C order to match image vectorization.
    """

    n: int
    k: int
    atoms: np.ndarray
    freq_pairs: tuple


def zigzag_order(n: int, k: int) -> list:
    """First k frequency pairs of the zig-zag walk over the n-by-n plane.

    Starts at (0, 0) and steps to (0, 1) first; anti-diagonal sweeps
    alternate direction, so u + v is non-decreasing along the output. n and k
    must be integers (Python or numpy, not bool), else ValueError.
    """
    require_count("n", n, 1)
    require_count("k", k, None)
    if not 1 <= k <= n * n:
        raise ValueError(f"k must be in [1, {n * n}], got {k}")
    order = []
    for d in range(2 * n - 1):
        lo = max(0, d - n + 1)
        hi = min(d, n - 1)
        sweep = range(lo, hi + 1) if d % 2 == 1 else range(hi, lo - 1, -1)
        for u in sweep:
            order.append((u, d - u))
            if len(order) == k:  # k <= n * n, so the walk always gets here
                return order


def _scales(freqs, n: int) -> np.ndarray:
    """The DCT-II normalisation c(u) of each u in freqs: sqrt(1/n) for u = 0, sqrt(2/n) otherwise."""
    return np.where(np.asarray(freqs) == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))


def _cosines(freqs, n: int) -> np.ndarray:
    """cos(pi u (2r+1) / 2n), r = 0 .. n-1 down the rows and u in freqs across the columns: (n, len(freqs))."""
    grid = np.arange(n)[:, None]
    return np.cos(np.pi * np.asarray(freqs) * (2 * grid + 1) / (2 * n))


def dct_vectors(freqs, n: int) -> np.ndarray:
    """Orthonormal 1-D DCT-II vectors c(u) cos(pi u (2r+1) / 2n), one column per u in freqs: (n, len(freqs)).

    Atom (u, v) is the outer product of the vectors of u and v (dct_atom
    multiplies the two scales first, so its bits differ from that product's).
    """
    return _scales(freqs, n) * _cosines(freqs, n)


def _atoms(pairs, n: int) -> np.ndarray:
    """The atoms of the (u, v) frequency pairs as the columns of an (n*n, len(pairs)) array; see dct_atom."""
    u, v = np.array(pairs).reshape(-1, 2).T
    freqs = range(max(u.max(), v.max()) + 1)
    scales, cosines = _scales(freqs, n), _cosines(freqs, n).T
    # one (n, n) atom after another, so every broadcast runs along a row of n
    atoms = (scales[u] * scales[v])[:, None, None] * (cosines[u, :, None] * cosines[v, None, :])
    return np.ascontiguousarray(atoms.reshape(len(u), n * n).T)


def dct_atom(u: int, v: int, n: int) -> np.ndarray:
    """Orthonormal DCT-II atom for vertical frequency u and horizontal frequency v.

    Entry at grid position (r, c) is c(u) c(v) cos(pi u (2r+1) / 2n)
    cos(pi v (2c+1) / 2n) with c(0) = sqrt(1/n) and c(.) = sqrt(2/n)
    otherwise; the n-by-n grid is flattened row-major. The product of the
    two cosines is rounded first, then multiplied by c(u) c(v).
    """
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"frequency ({u}, {v}) out of range for n={n}")
    return _atoms([(u, v)], n)[:, 0]


def build_basis(n: int, k: int) -> BasisMatrix:
    """Stack the first k zig-zag atoms into an (n*n, k) orthonormal matrix."""
    pairs = zigzag_order(n, k)
    return BasisMatrix(n=n, k=k, atoms=_atoms(pairs, n), freq_pairs=tuple(pairs))
