"""PNM image I/O and block tiling.

Gray images are float arrays of shape (height, width) with values nominally
in [0, 255]; binary masks are boolean arrays of the same shape, True marking
foreground pixels. Supported file formats are PGM (P2/P5) and PPM (P3/P6)
for gray input, both restricted to maxval 255, and PBM (P1/P4) for masks.
PBM payloads are packed MSB-first with byte-aligned rows; color input is
reduced to a single luma plane with BT.601 weights.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

# BT.601 luma weights (R, G, B).
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


class PnmError(Exception):
    """Base class for PNM read/write failures."""


class UnsupportedFormatError(PnmError):
    """Magic number or maxval outside the supported subset."""


class MalformedHeaderError(PnmError):
    """Header tokens missing, out of range, or not parseable."""


class TruncatedDataError(PnmError):
    """Pixel payload shorter than the header promises."""


# Token grammar shared by headers and ASCII payloads: whitespace and '#'
# comments (running to the end of the line) separate tokens.
_SEPARATORS = re.compile(rb"(?:\s|#[^\n\r]*)+")


class _Header:
    """Token reader over a PNM header; tracks the payload offset for binary files."""

    def __init__(self, buf: bytes, pos: int):
        self.buf = buf
        self.pos = pos

    def next_int(self, what: str) -> int:
        buf = self.buf
        sep = _SEPARATORS.match(buf, self.pos)
        i = sep.end() if sep else self.pos
        sep = _SEPARATORS.search(buf, i)
        j = sep.start() if sep else len(buf)
        if j == i:
            raise MalformedHeaderError(f"missing {what} in header")
        self.pos = j
        try:
            value = int(buf[i:j])
        except ValueError:
            raise MalformedHeaderError(f"bad {what}: {buf[i:j]!r}") from None
        if value <= 0:
            raise MalformedHeaderError(f"{what} must be positive, got {value}")
        return value

    def start_payload(self) -> int:
        # Binary payload begins after exactly one whitespace byte.
        if self.pos >= len(self.buf) or not self.buf[self.pos : self.pos + 1].isspace():
            raise MalformedHeaderError("missing separator before binary payload")
        return self.pos + 1


def _ascii_samples(buf: bytes, count: int, maxval: int, what: str) -> np.ndarray:
    tokens = [t for t in _SEPARATORS.split(buf) if t]
    if len(tokens) < count:
        raise TruncatedDataError(f"expected {count} {what} samples, found {len(tokens)}")
    try:
        values = np.array([int(t) for t in tokens[:count]], dtype=np.int64)
    except ValueError:
        raise PnmError(f"non-integer {what} sample") from None
    if values.min() < 0 or values.max() > maxval:
        raise PnmError(f"{what} sample outside [0, {maxval}]")
    return values


def _to_luma(rgb: np.ndarray) -> np.ndarray:
    return rgb @ np.asarray(LUMA_WEIGHTS, dtype=np.float64)


def load_gray(path) -> np.ndarray:
    """Load a PGM (P2/P5) or PPM (P3/P6) file as a gray image.

    PPM input is converted to one luma plane. Returns a float array of
    shape (height, width) with values in [0, 255].
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:2]
    if magic in (b"P1", b"P4"):
        raise UnsupportedFormatError(f"{magic.decode()} is a bitmap; use load_mask")
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise UnsupportedFormatError(f"unsupported magic {magic!r}")
    header = _Header(buf, 2)
    width = header.next_int("width")
    height = header.next_int("height")
    maxval = header.next_int("maxval")
    if maxval != 255:
        raise UnsupportedFormatError(f"only maxval 255 is supported, got {maxval}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels

    if magic in (b"P2", b"P3"):
        values = _ascii_samples(buf[header.pos :], count, maxval, "pixel")
    else:
        start = header.start_payload()
        payload = buf[start : start + count]
        if len(payload) < count:
            raise TruncatedDataError(f"payload has {len(payload)} bytes, expected {count}")
        values = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)

    if channels == 3:
        return _to_luma(values.reshape(height, width, 3).astype(np.float64))
    return values.reshape(height, width).astype(np.float64)


def load_mask(path) -> np.ndarray:
    """Load a PBM (P1/P4) file as a boolean mask; bit 1 (black) maps to True."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:2]
    if magic not in (b"P1", b"P4"):
        raise UnsupportedFormatError(f"unsupported magic {magic!r}")
    header = _Header(buf, 2)
    width = header.next_int("width")
    height = header.next_int("height")

    if magic == b"P1":
        # Digits need no separators between them, so drop the separators.
        chars = np.frombuffer(_SEPARATORS.sub(b"", buf[header.pos :]), dtype=np.uint8)
        bad = np.flatnonzero((chars != ord("0")) & (chars != ord("1")))
        if bad.size:
            raise PnmError(f"unexpected character {chr(chars[bad[0]])!r} in P1 payload")
        if chars.size < width * height:
            raise TruncatedDataError(f"expected {width * height} bits, found {chars.size}")
        return (chars[: width * height] == ord("1")).reshape(height, width)

    start = header.start_payload()
    row_bytes = (width + 7) // 8
    need = height * row_bytes
    payload = buf[start : start + need]
    if len(payload) < need:
        raise TruncatedDataError(f"payload has {len(payload)} bytes, expected {need}")
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    return np.unpackbits(rows, axis=1)[:, :width].astype(bool)


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write a file atomically (temp file + rename in the target directory)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        # mkstemp creates 0600 files; give the final file normal umask perms
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def save_mask(mask: np.ndarray, path) -> None:
    """Write a boolean mask as binary PBM (P4); round-trips with load_mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    height, width = mask.shape
    header = f"P4\n{width} {height}\n".encode("ascii")
    packed = np.packbits(mask.astype(np.uint8), axis=1)
    atomic_write_bytes(path, header + packed.tobytes())


def save_gray(img: np.ndarray, path) -> None:
    """Write a gray image as binary PGM (P5), rounding and clipping to [0, 255]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    data = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    atomic_write_bytes(path, header + data.tobytes())


@dataclass(frozen=True)
class BlockGrid:
    """Tiling of an image into non-overlapping square blocks.

    Edge blocks are padded by replicating the last row/column; `width` and
    `height` keep the source size so `stitch` can crop the padding away.
    `origins` holds each block's top-left (row, col) in the source image,
    row-major over the grid.
    """

    block_size: int
    width: int
    height: int
    origins: tuple
    blocks: tuple


def tile(img: np.ndarray, n: int) -> BlockGrid:
    """Split an image into n-by-n blocks, edge-padding partial blocks."""
    if n < 2:
        raise ValueError(f"block size must be >= 2, got {n}")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    if 0 in img.shape:
        raise ValueError(f"image has a zero-length side, got shape {img.shape}")
    height, width = img.shape
    grid_rows = math.ceil(height / n)
    grid_cols = math.ceil(width / n)
    padded = np.pad(img, ((0, grid_rows * n - height), (0, grid_cols * n - width)), mode="edge")
    origins = []
    blocks = []
    for gr in range(grid_rows):
        for gc in range(grid_cols):
            origins.append((gr * n, gc * n))
            blocks.append(padded[gr * n : (gr + 1) * n, gc * n : (gc + 1) * n].copy())
    return BlockGrid(n, width, height, tuple(origins), tuple(blocks))


def stitch(grid: BlockGrid, per_block) -> np.ndarray:
    """Reassemble per-block results into a full-size array, cropping padding.

    Works for boolean masks and for gray blocks alike; the output dtype
    follows the inputs.
    """
    per_block = list(per_block)
    if len(per_block) != len(grid.blocks):
        raise ValueError(f"expected {len(grid.blocks)} blocks, got {len(per_block)}")
    n = grid.block_size
    grid_rows = math.ceil(grid.height / n)
    grid_cols = math.ceil(grid.width / n)
    first = np.asarray(per_block[0])
    canvas = np.zeros((grid_rows * n, grid_cols * n), dtype=first.dtype)
    for (r0, c0), block in zip(grid.origins, per_block):
        block = np.asarray(block)
        if block.shape != (n, n):
            raise ValueError(f"block shape {block.shape} does not match grid size {n}")
        canvas[r0 : r0 + n, c0 : c0 + n] = block
    return canvas[: grid.height, : grid.width]
