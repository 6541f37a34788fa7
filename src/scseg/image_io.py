"""PNM image I/O and block tiling.

Gray images are float arrays of shape (height, width) with values nominally
in [0, 255]; binary masks are boolean arrays of the same shape, True marking
foreground pixels. Supported file formats are PGM (P2/P5) and PPM (P3/P6)
for gray input, with any maxval from 1 to 255 (samples are rescaled to
[0, 255]), and PBM (P1/P4) for masks.
PBM payloads are packed MSB-first with byte-aligned rows; color input is
reduced to a single luma plane with BT.601 weights.
"""

from __future__ import annotations

import os
import re
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .checks import require_count

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
# One header token: any separators before it, then everything up to the next separator.
_HEADER_TOKEN = re.compile(rb"(?:" + _SEPARATORS.pattern + rb")?([^\s#]*)")


def _read_header(path, magics: tuple, names: tuple) -> tuple:
    """Read the file at path; returns (buf, magic, pos, values).

    The magic must be one of `magics`. values are the header's positive
    integers, one per name in `names`, and pos is the offset just past the last.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:2]
    if magic not in magics:
        if magic in (b"P1", b"P4"):
            raise UnsupportedFormatError(f"{magic.decode()} is a bitmap; use load_mask")
        raise UnsupportedFormatError(f"unsupported magic {magic!r}")
    pos, values = 2, []
    for what in names:
        token = _HEADER_TOKEN.match(buf, pos)
        digits, pos = token[1], token.end()
        if not digits:
            raise MalformedHeaderError(f"missing {what} in header")
        # ASCII digits only: int() would also take a sign or underscores
        if not digits.isdigit():
            raise MalformedHeaderError(f"bad {what}: {digits!r}")
        values.append(int(digits))
        if values[-1] <= 0:
            raise MalformedHeaderError(f"{what} must be positive, got {values[-1]}")
    return buf, magic, pos, values


def _binary_payload(buf: bytes, pos: int, count: int) -> np.ndarray:
    """The `count` bytes after the one whitespace byte at pos that ends a binary header, as uint8."""
    if not buf[pos : pos + 1].isspace():
        raise MalformedHeaderError("missing separator before binary payload")
    payload = buf[pos + 1 : pos + 1 + count]
    if len(payload) < count:
        raise TruncatedDataError(f"payload has {len(payload)} bytes, expected {count}")
    return np.frombuffer(payload, dtype=np.uint8)


def _ascii_samples(buf: bytes, count: int) -> np.ndarray:
    tokens = [t for t in _SEPARATORS.split(buf) if t]
    if len(tokens) < count:
        raise TruncatedDataError(f"expected {count} pixel samples, found {len(tokens)}")
    # tokens are never empty, so the join is all digits only if every token is
    if not b"".join(tokens[:count]).isdigit():
        raise PnmError("non-integer pixel sample")
    # 256 is past every maxval, and caps a sample int64 cannot hold
    return np.array([min(int(t), 256) for t in tokens[:count]], dtype=np.int64)


def _to_luma(rgb: np.ndarray) -> np.ndarray:
    return rgb @ np.asarray(LUMA_WEIGHTS, dtype=np.float64)


def load_gray(path) -> np.ndarray:
    """Load a PGM (P2/P5) or PPM (P3/P6) file as a gray image.

    Samples are rescaled by 255/maxval (maxval 1 to 255; above 255 is
    UnsupportedFormatError), and PPM input is converted to one luma plane.
    Returns a float array of shape (height, width) with values in [0, 255].
    """
    buf, magic, pos, (width, height, maxval) = _read_header(
        path, (b"P2", b"P3", b"P5", b"P6"), ("width", "height", "maxval")
    )
    if maxval > 255:
        raise UnsupportedFormatError(f"only maxval up to 255 is supported, got {maxval}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    values = _ascii_samples(buf[pos:], count) if magic in (b"P2", b"P3") else _binary_payload(buf, pos, count)
    if values.max() > maxval:
        raise PnmError(f"pixel sample outside [0, {maxval}]")

    # in place, no extra copy; v * 255 is exact, so each sample is rounded once
    # (and maxval 255 keeps every bit)
    values = values.astype(np.float64)
    values *= 255
    values /= maxval
    if channels == 3:
        return _to_luma(values.reshape(height, width, 3))
    return values.reshape(height, width)


def load_mask(path) -> np.ndarray:
    """Load a PBM (P1/P4) file as a boolean mask; bit 1 (black) maps to True."""
    buf, magic, pos, (width, height) = _read_header(path, (b"P1", b"P4"), ("width", "height"))
    if magic == b"P1":
        # Digits need no separators between them, so drop the separators.
        chars = np.frombuffer(_SEPARATORS.sub(b"", buf[pos:]), dtype=np.uint8)
        bad = np.flatnonzero((chars != ord("0")) & (chars != ord("1")))
        if bad.size:
            raise PnmError(f"unexpected character {chr(chars[bad[0]])!r} in P1 payload")
        if chars.size < width * height:
            raise TruncatedDataError(f"expected {width * height} bits, found {chars.size}")
        return (chars[: width * height] == ord("1")).reshape(height, width)

    row_bytes = (width + 7) // 8
    rows = _binary_payload(buf, pos, height * row_bytes).reshape(height, row_bytes)
    return np.unpackbits(rows, axis=1)[:, :width].astype(bool)


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write a file atomically (temp file + rename in the target directory).

    The file gets mode 0o666 less the process umask, which the kernel applies
    when the temp file is created. An OSError names `path`, not the temp file,
    and keeps its errno.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        # a random name; O_EXCL refuses one that is taken
        name = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
        tmp = name
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _image_2d(name: str, a, dtype) -> np.ndarray:
    """a as a 2-D dtype array; ValueError naming `name` unless it is 2-D with no zero-length side."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if 0 in a.shape:
        raise ValueError(f"{name} has a zero-length side, got shape {a.shape}")
    return a


def save_mask(mask: np.ndarray, path) -> None:
    """Write a boolean mask as binary PBM (P4); round-trips with load_mask.

    A mask that is not 2-D or has a zero-length side (which PBM cannot hold) is a ValueError.
    """
    mask = _image_2d("mask", mask, bool)
    height, width = mask.shape
    header = f"P4\n{width} {height}\n".encode("ascii")
    packed = np.packbits(mask, axis=1)
    atomic_write_bytes(path, header + packed.tobytes())


def save_gray(img: np.ndarray, path) -> None:
    """Write a gray image as binary PGM (P5), rounding and clipping to [0, 255].

    NaN has no gray level and is a ValueError, as is an image that is not 2-D
    or has a zero-length side (which PGM cannot hold); infinities clip like any value.
    """
    img = _image_2d("image", img, np.float64)
    if np.isnan(img).any():
        raise ValueError("image contains NaN")
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    # one float64 temporary, rounded then clipped in place; img may be the caller's own array
    levels = np.rint(img)
    np.clip(levels, 0, 255, out=levels)
    atomic_write_bytes(path, header + levels.astype(np.uint8).tobytes())


@dataclass(frozen=True, eq=False)
class BlockGrid:
    """Tiling of an image into non-overlapping square blocks.

    Edge blocks are padded by replicating the last row/column; `width` and
    `height` keep the source size so `stitch` can crop the padding away.
    `blocks` is one C-contiguous (m, n, n) float64 array and `origins` each
    block's top-left (row, col) in the source image, both row-major over the grid.
    """

    block_size: int
    width: int
    height: int
    origins: tuple
    blocks: np.ndarray


def tile(img: np.ndarray, n: int) -> BlockGrid:
    """Split an image into n-by-n blocks, edge-padding partial blocks.

    n must be an integer (Python or numpy, not bool) of at least 2, else ValueError.
    """
    require_count("block size", n, 2)
    img = _image_2d("image", img, np.float64)
    height, width = img.shape
    rows, cols = -(-height // n), -(-width // n)
    pad = ((0, rows * n - height), (0, cols * n - width))
    # only a ragged grid needs np.pad's edge copy; the blocks are written once and never share img's memory
    src = np.pad(img, pad, mode="edge") if pad[0][1] or pad[1][1] else img
    blocks = np.empty((rows, cols, n, n))
    blocks.swapaxes(1, 2)[...] = src.reshape(rows, n, cols, n)
    origins = tuple((r * n, c * n) for r in range(rows) for c in range(cols))
    return BlockGrid(n, width, height, origins, blocks.reshape(-1, n, n))


def stitch(grid: BlockGrid, per_block) -> np.ndarray:
    """Reassemble per-block results into a full-size array, cropping padding.

    per_block is an (m, n, n) array or a sequence of the m (n, n) blocks in grid
    order, boolean or gray; the output dtype follows them. Else a ValueError.
    The result is always a new array, one copy of the blocks' pixels, and
    shares no memory with per_block.
    """
    m, n = len(grid.blocks), grid.block_size
    expected = f"per_block must be a ({m}, {n}, {n}) array or a sequence of {m} ({n}, {n}) blocks"
    try:
        stack = np.asarray(per_block)
    except ValueError as exc:  # ragged blocks
        raise ValueError(f"{expected}: {exc}") from exc
    if stack.shape != (m, n, n):
        raise ValueError(f"{expected}, got shape {stack.shape}")
    cols = -(-grid.width // n)
    # copy() puts the rows of blocks in image order, so the 2-D reshape is a view of it at any grid width
    return stack.reshape(-1, cols, n, n).swapaxes(1, 2).copy().reshape(-1, cols * n)[: grid.height, : grid.width]
