"""Synthetic smooth-plus-strokes blocks with exact ground truth.

Each block is a random low-frequency surface (DC term pinned so the mean sits
near mid-gray) with a few bright strokes stamped on top. Strokes are axis
aligned by default, the favorable case for the row/column group penalty; a
diagonal option produces the unfavorable case for robustness checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .checks import require_count, require_counts, require_real
from .dct import build_basis
from .image_io import atomic_write_bytes, save_gray, save_mask


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings; `seed` fully determines the output."""

    n: int = 64
    k_true: int = 6
    alpha_range: float = 100.0
    stroke_count: int = 4
    stroke_amplitude: float = 100.0
    max_fg_fraction: float = 0.10
    seed: int = 0
    diagonal_strokes: bool = False

    def __post_init__(self):
        require_counts(self, n=4, k_true=None, stroke_count=0, seed=0)
        if not 1 <= self.k_true <= self.n**2:
            raise ValueError(f"k_true must be in [1, {self.n**2}], got {self.k_true}")
        for name in ("alpha_range", "stroke_amplitude", "max_fg_fraction"):
            require_real(name, getattr(self, name))
        for name in ("alpha_range", "stroke_amplitude"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if not 0 <= self.max_fg_fraction <= 1:
            raise ValueError(f"max_fg_fraction must be in [0, 1], got {self.max_fg_fraction}")
        _, hi = _stroke_bounds(self.n)
        if self.stroke_count * hi * 2 > self.max_fg_fraction * self.n**2:
            raise ValueError(
                f"stroke_count {self.stroke_count} is too many: strokes of up to {hi}x2 "
                f"pixels could cover more than {self.max_fg_fraction} of the block"
            )


def _stroke_bounds(n: int) -> tuple:
    hi = min((2 * n) // 3, n)
    lo = min(4, hi)
    return lo, hi


def gen_block(spec: SynthSpec):
    """Generate (block, truth mask, smooth layer) for one spec.

    The smooth layer is an exact combination of the first k_true zig-zag
    atoms; the block adds stroke_amplitude on the stroke support and clips to
    [0, 255]. The truth is the stroke pixels where the block differs from the
    smooth layer clipped to [0, 255]. The spec's stroke budget keeps the truth
    within max_fg_fraction.
    """
    return _gen_block(spec, build_basis(spec.n, spec.k_true))


def _gen_block(spec: SynthSpec, basis):
    """gen_block on a prebuilt build_basis(spec.n, spec.k_true)."""
    lo, hi = _stroke_bounds(spec.n)
    rng = np.random.default_rng(spec.seed)
    coef = np.zeros(spec.k_true)
    coef[0] = 128.0 * spec.n  # DC atom has value 1/n, so the mean lands at 128
    if spec.k_true > 1:
        coef[1:] = rng.uniform(-spec.alpha_range, spec.alpha_range, spec.k_true - 1)
    smooth = (basis.atoms @ coef).reshape(spec.n, spec.n)

    support = np.zeros((spec.n, spec.n), dtype=bool)
    for _ in range(spec.stroke_count):
        length = int(rng.integers(lo, hi + 1))
        thickness = int(rng.integers(1, 3))
        if spec.diagonal_strokes:
            r0 = int(rng.integers(0, spec.n - length + 1))
            c0 = int(rng.integers(0, spec.n - length + 1))
            steps = np.arange(length)
            for t in range(thickness):
                cols = c0 + steps + t
                keep = cols < spec.n
                support[r0 + steps[keep], cols[keep]] = True
        elif rng.integers(0, 2) == 0:  # horizontal
            r0 = int(rng.integers(0, spec.n - thickness + 1))
            c0 = int(rng.integers(0, spec.n - length + 1))
            support[r0 : r0 + thickness, c0 : c0 + length] = True
        else:
            r0 = int(rng.integers(0, spec.n - length + 1))
            c0 = int(rng.integers(0, spec.n - thickness + 1))
            support[r0 : r0 + length, c0 : c0 + thickness] = True

    f = np.clip(smooth + spec.stroke_amplitude * support, 0.0, 255.0)
    # Saturation can erase a stroke pixel, also where the smooth layer is itself
    # clipped: where f equals the clipped layer the stroke is invisible, not truth.
    truth = support & (f != np.clip(smooth, 0.0, 255.0))
    return f, truth, smooth


def write_dataset(out_dir, count: int, spec: SynthSpec):
    """Write `count` blocks (PGM + PBM truth) plus a manifest; returns its path.

    Block i uses seed spec.seed + i, so a (directory, count, spec) triple
    always produces identical files. A count that is not an integer (Python or
    numpy, not bool) or is negative raises ValueError before anything is written.
    """
    require_count("count", count, 0)
    os.makedirs(out_dir, exist_ok=True)
    lines = ["# image\tmask\tlabel"]
    basis = build_basis(spec.n, spec.k_true)  # the same for every block: only the seed varies
    for i in range(count):
        f, truth, _ = _gen_block(replace(spec, seed=spec.seed + i), basis)
        name = f"block_{i:04d}"
        save_gray(f, os.path.join(out_dir, f"{name}.pgm"))
        save_mask(truth, os.path.join(out_dir, f"{name}_mask.pbm"))
        lines.append(f"{name}.pgm\t{name}_mask.pbm\t{name}")
    manifest = os.path.join(out_dir, "manifest.tsv")
    atomic_write_bytes(manifest, ("\n".join(lines) + "\n").encode("utf-8"))
    return manifest
