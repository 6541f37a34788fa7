"""Deterministic synthetic inputs for the benchmark.

Every block comes from `scseg.synth.gen_block` with a seed derived from the
run's `--seed` and the block's index, so one seed always gives byte-identical
files. The files are written with the benchmark's own PNM writer and the
program's outputs are read back with the benchmark's own strict reader, so
the checks do not rely on the code under test to decode its own output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
from scseg.synth import SynthSpec, gen_block

BLOCK = 64
# 16 blocks: enough per call for a cross-block batch to show, and short
# calls, so that the reference kernel samples the host often (reference.py).
PAGE_SIDE = 256

# (name, SynthSpec) per regime. The first is the generator's default; the
# others are the harder cases the ROADMAP baseline measured.
REGIMES = (
    ("default", SynthSpec()),
    ("low-contrast", SynthSpec(stroke_amplitude=10.0)),
    ("out-of-model", SynthSpec(k_true=15)),
    ("diagonal", SynthSpec(diagonal_strokes=True)),
)
CLEAN = REGIMES[:1]

# Gray levels of the dense alternating-row block that makes the background
# fit rank-deficient.
STRIPE_LEVELS = (20.0, 200.0)


def block_seed(seed: int, index: int) -> int:
    """Seed of block `index` in a run seeded with `seed`; distinct for distinct pairs."""
    return seed * 1_000_003 + index


def regime_block(seed: int, index: int, regimes=REGIMES):
    """Block `index` of a run: (pixels, truth) from regime index % len(regimes)."""
    _, spec = regimes[index % len(regimes)]
    f, truth, _ = gen_block(replace(spec, seed=block_seed(seed, index)))
    return f, truth


def compose_page(seed: int, regimes=REGIMES, side: int = PAGE_SIDE, first: int = 0):
    """Tile side x side pixels from blocks `first`, `first` + 1, ... in row-major order.

    Returns (image, truth).
    """
    per_row = side // BLOCK
    img = np.zeros((side, side))
    truth = np.zeros((side, side), dtype=bool)
    for i in range(per_row * per_row):
        r, c = divmod(i, per_row)
        f, t = regime_block(seed, first + i, regimes)
        img[r * BLOCK : (r + 1) * BLOCK, c * BLOCK : (c + 1) * BLOCK] = f
        truth[r * BLOCK : (r + 1) * BLOCK, c * BLOCK : (c + 1) * BLOCK] = t
    return img, truth


def stripe_block() -> np.ndarray:
    """A 64x64 block of alternating dark and light rows."""
    rows = np.where(np.arange(BLOCK) % 2 == 0, *STRIPE_LEVELS)
    return np.repeat(rows[:, None], BLOCK, axis=1)


def pgm_bytes(img) -> bytes:
    """Binary PGM (P5, maxval 255), rounding and clipping like the program's writer."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    data = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes()


def pbm_bytes(mask) -> bytes:
    """Binary PBM (P4), rows packed MSB-first."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    return f"P4\n{w} {h}\n".encode("ascii") + np.packbits(mask, axis=1).tobytes()


def read_pnm(data: bytes) -> np.ndarray:
    """Decode a P4 or P5 file with a plain header and an exact payload length.

    Returns a bool array for P4 and a uint8 array for P5; raises ValueError on
    anything else, including trailing bytes.
    """
    magic = data[:2]
    fields = 2 if magic == b"P4" else 3 if magic == b"P5" else 0
    if not fields:
        raise ValueError(f"unexpected magic {magic!r}")
    tokens = data.split(maxsplit=fields + 1)
    if len(tokens) < fields + 1:
        raise ValueError("short header")
    w, h = int(tokens[1]), int(tokens[2])
    if magic == b"P5" and tokens[3] != b"255":
        raise ValueError(f"maxval {tokens[3]!r}")
    header_len = len(b" ".join(tokens[: fields + 1])) + 1
    payload = data[header_len:]
    if magic == b"P4":
        row_bytes = (w + 7) // 8
        if len(payload) != h * row_bytes:
            raise ValueError(f"P4 payload {len(payload)} bytes, expected {h * row_bytes}")
        rows = np.frombuffer(payload, dtype=np.uint8).reshape(h, row_bytes)
        return np.unpackbits(rows, axis=1)[:, :w].astype(bool)
    if len(payload) != w * h:
        raise ValueError(f"P5 payload {len(payload)} bytes, expected {w * h}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def _write(path, payload: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(payload)


@dataclass(frozen=True)
class Page:
    """A generated page: its file, its truth mask, and its pixel count."""

    path: str
    truth: np.ndarray

    @property
    def pixels(self) -> int:
        return self.truth.size


def write_page(out_dir, name: str, seed: int, regimes=REGIMES, side: int = PAGE_SIDE,
               stripe_at: int | None = None, crop: int | None = None, first: int = 0) -> Page:
    """Write one page, made of blocks `first` onwards, as `<name>.pgm`.

    `crop` keeps only the top-left crop x crop square of the page, and
    `stripe_at` then replaces that block (row-major in what is kept) with stripes.
    """
    img, truth = compose_page(seed, regimes, side, first)
    if crop is not None:
        img, truth = img[:crop, :crop], truth[:crop, :crop]
    if stripe_at is not None:
        r, c = divmod(stripe_at, img.shape[1] // BLOCK)
        img[r * BLOCK : (r + 1) * BLOCK, c * BLOCK : (c + 1) * BLOCK] = stripe_block()
        truth = truth.copy()
        truth[r * BLOCK : (r + 1) * BLOCK, c * BLOCK : (c + 1) * BLOCK] = False
    path = os.path.join(out_dir, f"{name}.pgm")
    _write(path, pgm_bytes(img))
    return Page(path, truth)


def write_manifests(out_dir, seed: int, manifests: int, per_manifest: int, regimes=REGIMES):
    """Write manifests of single-block images; returns (paths, truth pixels by basename).

    Image i of the whole set uses regime i % len(regimes), so with
    per_manifest a multiple of the regime count every manifest holds each
    regime equally often.
    """
    paths = []
    truth_pixels = {}
    for m in range(manifests):
        lines = ["# image\tmask\tlabel"]
        for j in range(per_manifest):
            i = m * per_manifest + j
            f, truth = regime_block(seed, i, regimes)
            name = f"img_{i:04d}"
            _write(os.path.join(out_dir, f"{name}.pgm"), pgm_bytes(f))
            _write(os.path.join(out_dir, f"{name}_mask.pbm"), pbm_bytes(truth))
            truth_pixels[f"{name}.pgm"] = int(truth.sum())
            lines.append(f"{name}.pgm\t{name}_mask.pbm\t{regimes[i % len(regimes)][0]}")
        path = os.path.join(out_dir, f"manifest_{m:02d}.tsv")
        _write(path, ("\n".join(lines) + "\n").encode("utf-8"))
        paths.append(path)
    return paths, truth_pixels
