import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scseg import (
    MalformedHeaderError,
    PnmError,
    TruncatedDataError,
    UnsupportedFormatError,
    load_gray,
    load_mask,
    save_gray,
    save_mask,
    segment_image,
    stitch,
    tile,
)
from scseg.image_io import atomic_write_bytes


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    # one directory for every hypothesis example of a test; each overwrites its file
    return tmp_path_factory.mktemp("pnm")


def write(path, payload: bytes):
    path.write_bytes(payload)
    return path


class TestLoadGray:
    def test_p2(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P2\n2 2\n255\n0 12 255 7\n")
        img = load_gray(p)
        np.testing.assert_array_equal(img, [[0, 12], [255, 7]])
        assert img.dtype == np.float64

    def test_p5(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P5\n2 1\n255\n\x00\xff")
        np.testing.assert_array_equal(load_gray(p), [[0, 255]])

    def test_p6_luma(self, tmp_path):
        p = write(tmp_path / "a.ppm", b"P6\n1 1\n255\n\xff\x00\x00")
        img = load_gray(p)
        assert img[0, 0] == pytest.approx(76.245)

    def test_p3_luma(self, tmp_path):
        p = write(tmp_path / "a.ppm", b"P3\n1 1\n255\n0 255 0\n")
        assert load_gray(p)[0, 0] == pytest.approx(0.587 * 255)

    def test_header_comments(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P2 # comment\n# another\n2 1\n255\n3 4\n")
        np.testing.assert_array_equal(load_gray(p), [[3, 4]])

    def test_binary_header_comment(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P5\n# size\n2 1\n255\n\x05\x06")
        np.testing.assert_array_equal(load_gray(p), [[5, 6]])

    def test_unsupported_magic(self, tmp_path):
        p = write(tmp_path / "a.img", b"P7\n")
        with pytest.raises(UnsupportedFormatError):
            load_gray(p)

    def test_bitmap_magic_rejected(self, tmp_path):
        p = write(tmp_path / "a.pbm", b"P4\n1 1\n\x00")
        with pytest.raises(UnsupportedFormatError):
            load_gray(p)

    def test_wrong_maxval(self, tmp_path):
        # one-byte samples only: maxval 256 would need two bytes a sample in P5
        for magic in (b"P2", b"P5"):
            p = write(tmp_path / "a.pgm", magic + b"\n1 1\n256\n3\n")
            with pytest.raises(UnsupportedFormatError, match="256"):
                load_gray(p)

    @pytest.mark.parametrize("maxval", [1, 15, 254])
    def test_low_maxval_rescaled(self, tmp_path, maxval):
        samples = [0, maxval // 2, maxval]
        want = [[v * 255 / maxval for v in samples]]
        header = f"3 1\n{maxval}\n".encode()
        p5 = write(tmp_path / "a.pgm", b"P5\n" + header + bytes(samples))
        p2 = write(tmp_path / "b.pgm", b"P2\n" + header + " ".join(map(str, samples)).encode())
        for p in (p5, p2):
            img = load_gray(p)
            np.testing.assert_array_equal(img, want)
            assert img[0, 0] == 0.0 and img[0, 2] == 255.0

    @pytest.mark.parametrize("maxval", [1, 15, 254])
    def test_low_maxval_color_rescaled(self, tmp_path, maxval):
        # each channel rescaled before the luma weights
        header = f"1 1\n{maxval}\n".encode()
        p6 = write(tmp_path / "a.ppm", b"P6\n" + header + bytes([maxval, 0, maxval]))
        p3 = write(tmp_path / "b.ppm", b"P3\n" + header + f"{maxval} 0 {maxval}".encode())
        for p in (p6, p3):
            assert load_gray(p)[0, 0] == pytest.approx((0.299 + 0.114) * 255, rel=1e-12)

    @pytest.mark.parametrize("magic", [b"P2", b"P5"])
    def test_sample_above_low_maxval(self, tmp_path, magic):
        payload = b"16" if magic == b"P2" else b"\x10"
        p = write(tmp_path / "a.pgm", magic + b"\n1 1\n15\n" + payload)
        with pytest.raises(PnmError, match=r"outside \[0, 15\]"):
            load_gray(p)

    def test_malformed_header(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P2\n2 x\n255\n0 0 0 0\n")
        with pytest.raises(MalformedHeaderError):
            load_gray(p)

    @pytest.mark.parametrize(
        "payload",
        [b"P5\n+2 1\n255\n\x00\x00", b"P2\n2 1\n-255\n0 0\n", b"P2\n2 1_0\n255\n0 0\n"],
        ids=["plus-width", "minus-maxval", "underscore-height"],
    )
    def test_header_integer_must_be_digits(self, tmp_path, payload):
        p = write(tmp_path / "a.pgm", payload)
        with pytest.raises(MalformedHeaderError, match="bad"):
            load_gray(p)

    @pytest.mark.parametrize("samples", [b"+7 10", b"7 1_0", b"7 -0"], ids=["plus", "underscore", "minus"])
    def test_ascii_sample_must_be_digits(self, tmp_path, samples):
        p = write(tmp_path / "a.pgm", b"P2\n2 1\n255\n" + samples + b"\n")
        with pytest.raises(PnmError, match="non-integer pixel sample"):
            load_gray(p)

    def test_ascii_leading_zeros_accepted(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P2\n02 1\n0255\n007 010\n")
        np.testing.assert_array_equal(load_gray(p), [[7.0, 10.0]])

    @pytest.mark.parametrize(
        "payload, what",
        [(b"P5\n0 1\n255\n", "width"), (b"P2\n1 0\n255\n", "height"), (b"P2\n1 1\n0\n0\n", "maxval")],
    )
    def test_header_value_must_be_positive(self, tmp_path, payload, what):
        p = write(tmp_path / "a.pgm", payload)
        with pytest.raises(MalformedHeaderError, match=f"{what} must be positive, got 0"):
            load_gray(p)

    def test_binary_payload_needs_a_separator(self, tmp_path):
        # a comment right after maxval leaves no whitespace byte before the payload
        p = write(tmp_path / "a.pgm", b"P5\n1 1\n255#c\n\x07")
        with pytest.raises(MalformedHeaderError, match="missing separator before binary payload"):
            load_gray(p)

    def test_missing_dims(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P5\n2")
        with pytest.raises(MalformedHeaderError):
            load_gray(p)

    def test_truncated_binary(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(TruncatedDataError):
            load_gray(p)

    def test_truncated_ascii(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P2\n2 2\n255\n0 1\n")
        with pytest.raises(TruncatedDataError):
            load_gray(p)

    def test_sample_out_of_range(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P2\n1 1\n255\n300\n")
        with pytest.raises(PnmError):
            load_gray(p)

    def test_sample_beyond_int64_is_out_of_range(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P2\n2 1\n255\n7 99999999999999999999\n")
        with pytest.raises(PnmError, match=r"pixel sample outside \[0, 255\]"):
            load_gray(p)


class TestMasks:
    def test_save_all_false_payload(self, tmp_path):
        p = tmp_path / "m.pbm"
        save_mask(np.zeros((3, 3), dtype=bool), p)
        payload = p.read_bytes()
        assert payload.startswith(b"P4\n3 3\n")
        assert payload[len(b"P4\n3 3\n") :] == b"\x00\x00\x00"

    def test_bit_packing_msb_first(self, tmp_path):
        p = tmp_path / "m.pbm"
        mask = np.array([[1, 0, 1, 0, 1, 0, 1, 0, 1]], dtype=bool)
        save_mask(mask, p)
        assert p.read_bytes().endswith(b"\xaa\x80")
        np.testing.assert_array_equal(load_mask(p), mask)

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(4)
        for i, shape in enumerate([(1, 1), (5, 9), (64, 64), (7, 16), (3, 65)]):
            mask = rng.random(shape) < 0.4
            p = tmp_path / f"m{i}.pbm"
            save_mask(mask, p)
            np.testing.assert_array_equal(load_mask(p), mask)

    @settings(deadline=None)
    @given(
        h=st.integers(1, 70),
        w=st.integers(1, 70).filter(lambda w: w % 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_widths_not_multiple_of_8(self, scratch_dir, h, w, seed):
        mask = np.random.default_rng(seed).random((h, w)) < 0.5
        save_mask(mask, scratch_dir / "m.pbm")
        np.testing.assert_array_equal(load_mask(scratch_dir / "m.pbm"), mask)

    def test_p1_with_spaces(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P1\n3 1\n1 0 1\n")
        np.testing.assert_array_equal(load_mask(p), [[True, False, True]])

    def test_p1_without_spaces(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P1\n4 2\n1010\n0101\n")
        np.testing.assert_array_equal(
            load_mask(p), [[True, False, True, False], [False, True, False, True]]
        )

    def test_p4_all_zero(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P4\n9 1\n\x00\x00")
        assert not load_mask(p).any()

    def test_p4_truncated(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P4\n9 2\n\xaa\x80")
        with pytest.raises(TruncatedDataError):
            load_mask(p)

    def test_p1_truncated(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P1\n3 2\n1 0 1\n")
        with pytest.raises(TruncatedDataError, match="expected 6 bits, found 3"):
            load_mask(p)

    def test_p1_random_layout(self, tmp_path):
        rng = np.random.default_rng(6)
        separators = [b"", b" ", b"\n", b"\t", b" # note 1 0\n", b"#\r"]
        for i, shape in enumerate([(1, 1), (4, 9), (13, 5)]):
            mask = rng.random(shape) < 0.5
            payload = b"".join(
                (b"1" if bit else b"0") + separators[rng.integers(len(separators))]
                for bit in mask.ravel()
            )
            header = f"P1\n{shape[1]} {shape[0]}\n".encode()
            p = write(tmp_path / f"m{i}.pbm", header + payload)
            np.testing.assert_array_equal(load_mask(p), mask)

    def test_p1_comment_between_digits(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P1\n4 1\n1 0# two more\n11\n")
        np.testing.assert_array_equal(load_mask(p), [[True, False, True, True]])

    def test_p1_bad_character(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P1\n3 1\n1 2 1\n")
        with pytest.raises(PnmError, match=r"unexpected character '2' in P1 payload"):
            load_mask(p)

    def test_p1_bad_character_after_comment(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P1\n3 1\n1 0 # 2 is fine here\nx\n")
        with pytest.raises(PnmError, match=r"unexpected character 'x' in P1 payload"):
            load_mask(p)

    @pytest.mark.parametrize(
        "header",
        [b"P4\n1_6 1\n", b"P1\n+1 1\n", b"P4\n8 \xd9\xa1\n"],
        ids=["underscore-width", "plus-width", "arabic-indic-height"],
    )
    def test_header_integer_must_be_digits(self, tmp_path, header):
        p = write(tmp_path / "m.pbm", header + b"\x00\x00")
        with pytest.raises(MalformedHeaderError, match="bad (width|height)"):
            load_mask(p)

    def test_gray_magic_rejected(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P5\n1 1\n255\n\x00")
        with pytest.raises(UnsupportedFormatError):
            load_mask(p)


_WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
# a comment may hold digits, a magic or '#', and ends at a line break
_COMMENT = st.builds(
    lambda body, end: b"#" + b"".join(body) + end,
    st.lists(st.sampled_from([b"0", b"7", b"255", b"P5", b"P1", b"#", b" ", b"\t", b"\x0c", b"x"]), max_size=6),
    st.sampled_from([b"\n", b"\r", b"\r\n"]),
)
_HEADER_SEPARATOR = st.lists(st.one_of(_WHITESPACE, _COMMENT), min_size=1, max_size=4).map(b"".join)


class TestHeaderSeparators:
    @settings(deadline=None)
    @given(
        magic=st.sampled_from([b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"]),
        h=st.integers(1, 5),
        w=st.integers(1, 12),
        maxval=st.sampled_from([1, 9, 13, 32, 255]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_any_separators_decode_as_plain_newlines(self, scratch_dir, magic, h, w, maxval, seed, data):
        # whitespace and comments between header tokens change nothing; a binary payload follows the
        # last token after exactly one whitespace byte, and may itself start with a whitespace value
        rng = np.random.default_rng(seed)
        bitmap, binary = magic in (b"P1", b"P4"), magic in (b"P4", b"P5", b"P6")
        tokens = [magic, b"%d" % w, b"%d" % h] + ([] if bitmap else [b"%d" % maxval])
        if magic == b"P4":
            payload = rng.integers(0, 256, h * ((w + 7) // 8), dtype=np.uint8).tobytes()
        else:
            samples = rng.integers(0, 2 if bitmap else maxval + 1, h * w * (3 if magic in (b"P3", b"P6") else 1))
            payload = bytes(samples.astype(np.uint8)) if binary else b" ".join(b"%d" % v for v in samples)
        seps = [data.draw(_HEADER_SEPARATOR) for _ in tokens[1:]]
        seps.append(data.draw(_WHITESPACE if binary else _HEADER_SEPARATOR))
        load = load_mask if bitmap else load_gray
        plain = load(write(scratch_dir / "plain.pnm", b"\n".join(tokens) + b"\n" + payload))
        spaced = load(write(scratch_dir / "spaced.pnm", b"".join(t + s for t, s in zip(tokens, seps)) + payload))
        assert spaced.dtype == plain.dtype and spaced.shape == plain.shape == (h, w)
        assert spaced.tobytes() == plain.tobytes()


class TestGrayWriter:
    def test_round_trip_integers(self, tmp_path):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, (17, 23)).astype(np.float64)
        p = tmp_path / "g.pgm"
        save_gray(img, p)
        np.testing.assert_array_equal(load_gray(p), img)

    @settings(deadline=None)
    @given(h=st.integers(1, 70), w=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_integers_random_shapes(self, scratch_dir, h, w, seed):
        img = np.random.default_rng(seed).integers(0, 256, (h, w)).astype(np.float64)
        save_gray(img, scratch_dir / "g.pgm")
        np.testing.assert_array_equal(load_gray(scratch_dir / "g.pgm"), img)

    @staticmethod
    def _assert_written(img, path, levels):
        """save_gray(img) wrote levels, the payload np.rint then np.clip gives, and left img as it was."""
        given = img.copy()
        save_gray(img, path)
        np.testing.assert_array_equal(img, given)
        payload = np.clip(np.rint(given), 0, 255).astype(np.uint8).tobytes()
        assert path.read_bytes() == f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii") + payload
        np.testing.assert_array_equal(load_gray(path), levels)

    def test_rounds_and_clips(self, tmp_path):
        # halves round to even; values beyond [0, 255] clip, however far out
        img = np.array([[-3.0, 12.6, 300.0, -1e300, 1e300, 7.0], [0.5, 1.5, 2.5, -0.5, 254.5, 255.5]])
        self._assert_written(img, tmp_path / "g.pgm", [[0, 13, 255, 0, 255, 7], [0, 2, 2, 0, 254, 255]])

    def test_infinities_clip(self, tmp_path):
        self._assert_written(np.array([[np.inf, -np.inf, 7.0]]), tmp_path / "g.pgm", [[255, 0, 7]])

    def test_nan_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="NaN"):
            save_gray(np.array([[np.nan, 300.0]]), tmp_path / "g.pgm")
        assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError) as info:
        atomic_write_bytes(target, b"payload")
    assert info.value.filename == str(target)
    assert os.listdir(tmp_path) == ["taken"]

    # an interrupt during the rename comes back as raised, not wrapped
    old = tmp_path / "old"
    old.write_bytes(b"old bytes")
    interrupt = KeyboardInterrupt()

    def interrupted_replace(src, dst):
        raise interrupt

    monkeypatch.setattr(os, "replace", interrupted_replace)
    with pytest.raises(KeyboardInterrupt) as info:
        atomic_write_bytes(old, b"payload")
    assert info.value is interrupt
    assert sorted(os.listdir(tmp_path)) == ["old", "taken"]
    assert old.read_bytes() == b"old bytes"


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_written_file_takes_the_umask_without_changing_it(tmp_path, monkeypatch):
    # the kernel applies the umask when the file is created: the process umask is neither read
    # nor set, so a file another thread creates meanwhile keeps its own umask
    def no_umask(mask):
        raise AssertionError("os.umask called")

    previous = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", no_umask)
            atomic_write_bytes(tmp_path / "f", b"payload")
    finally:
        os.umask(previous)
    assert os.stat(tmp_path / "f").st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["f"]
    assert (tmp_path / "f").read_bytes() == b"payload"


@pytest.mark.parametrize(
    "call",
    [lambda a, path: save_mask(a, path), lambda a, path: save_gray(a, path), lambda a, path: tile(a, 2)],
    ids=["save_mask", "save_gray", "tile"],
)
@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_input_must_be_2d(tmp_path, call, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be 2-D, got shape {shape}")):
        call(np.zeros(shape), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0)])
def test_save_mask_refuses_a_zero_length_side(tmp_path, shape):
    # PBM has no zero width or height: load_mask would refuse the file
    with pytest.raises(ValueError, match=re.escape(f"mask has a zero-length side, got shape {shape}")):
        save_mask(np.zeros(shape, dtype=bool), tmp_path / "out.pbm")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
def test_save_gray_refuses_a_zero_length_side(tmp_path, shape):
    # PGM has no zero width or height: load_gray would refuse the file
    with pytest.raises(ValueError, match=re.escape(f"image has a zero-length side, got shape {shape}")):
        save_gray(np.zeros(shape), tmp_path / "out.pgm")
    assert list(tmp_path.iterdir()) == []


class TestTiling:
    def test_single_block_no_padding(self):
        img = np.arange(64 * 64, dtype=float).reshape(64, 64)
        grid = tile(img, 64)
        assert len(grid.blocks) == 1
        assert grid.origins == ((0, 0),)
        np.testing.assert_array_equal(grid.blocks[0], img)

    def test_partial_column_padded_by_replication(self):
        img = np.arange(64 * 65, dtype=float).reshape(64, 65)
        grid = tile(img, 64)
        assert len(grid.blocks) == 2
        second = grid.blocks[1]
        # only the first column is real; the rest replicate image column 64
        np.testing.assert_array_equal(second[:, 0], img[:, 64])
        for c in range(1, 64):
            np.testing.assert_array_equal(second[:, c], img[:, 64])

    def test_four_blocks_row_major(self):
        img = np.arange(128 * 128, dtype=float).reshape(128, 128)
        grid = tile(img, 64)
        assert grid.origins == ((0, 0), (0, 64), (64, 0), (64, 64))
        np.testing.assert_array_equal(grid.blocks[2], img[64:, :64])

    def test_block_size_too_small(self):
        with pytest.raises(ValueError):
            tile(np.zeros((4, 4)), 1)

    @pytest.mark.parametrize("n", [3.0, np.float64(2), True])
    def test_block_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^block size must be an integer"):
            tile(np.zeros((4, 4)), n)

    def test_block_size_accepts_numpy_integers(self):
        assert tile(np.zeros((4, 4)), np.int64(2)).block_size == 2

    def test_a_numpy_int16_block_size_does_not_overflow(self):
        # the 40000 rows pass int16's range: tile computes with the block size as a Python int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = tile(np.zeros((40000, 3)), np.int16(200))
        assert len(grid.blocks) == 200 and type(grid.block_size) is int

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_length_side_rejected(self, shape):
        with pytest.raises(ValueError, match="zero-length side"):
            tile(np.zeros(shape), 4)
        with pytest.raises(ValueError, match="zero-length side"):
            segment_image(np.zeros(shape))

    def test_stitch_identity(self):
        img = np.arange(36, dtype=float).reshape(6, 6)
        grid = tile(img, 6)
        np.testing.assert_array_equal(stitch(grid, grid.blocks), img)

    def test_stitch_all_true_masks(self):
        grid = tile(np.zeros((10, 13)), 4)
        masks = [np.ones((4, 4), dtype=bool)] * len(grid.blocks)
        out = stitch(grid, masks)
        assert out.shape == (10, 13)
        assert out.all()

    def test_stitch_crops_padding(self):
        img = np.arange(64 * 65, dtype=float).reshape(64, 65)
        grid = tile(img, 64)
        out = stitch(grid, grid.blocks)
        assert out.shape == (64, 65)
        np.testing.assert_array_equal(out, img)

    @pytest.mark.parametrize("shape", [(100, 50), (100, 70)])
    def test_stitch_returns_a_new_array(self, shape):
        # one block wide or two: the result shares no memory with the blocks, a write
        # into it leaves them unchanged, and it holds the image's bits
        img = np.random.default_rng(9).uniform(0, 255, shape)
        grid = tile(img, 64)
        blocks = grid.blocks.copy()
        for per_block in (grid.blocks, list(grid.blocks)):
            out = stitch(grid, per_block)
            assert not np.shares_memory(out, grid.blocks)
            assert out.tobytes() == img.tobytes()
            out[...] = -1.0
            assert grid.blocks.tobytes() == blocks.tobytes()

    def test_stitch_length_mismatch(self):
        grid = tile(np.zeros((8, 8)), 4)
        with pytest.raises(ValueError):
            stitch(grid, [np.zeros((4, 4))])

    # (1, 4) would broadcast into its 4x4 cell without the check
    @pytest.mark.parametrize("shape", [(1, 4), (4, 3)])
    def test_stitch_wrong_block_shape(self, shape):
        grid = tile(np.zeros((8, 8)), 4)
        message = f"per_block must be a (4, 4, 4) array or a sequence of 4 (4, 4) blocks, got shape {(4, *shape)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            stitch(grid, [np.zeros(shape)] * 4)

    def test_stitch_ragged_blocks(self):
        grid = tile(np.zeros((8, 8)), 4)
        with pytest.raises(ValueError):
            stitch(grid, [np.zeros((4, 4))] * 3 + [np.zeros((4, 3))])

    @pytest.mark.parametrize(
        "per_block",
        [
            (np.zeros((4, 4)) for _ in range(4)),
            np.zeros((4, 16)),
            [np.zeros(16)] * 4,
            np.zeros((4, 4, 4, 1)),
            [np.zeros((4, 4))] * 3 + [np.zeros((4, 3))],
        ],
        ids=["generator", "2-d", "flat-blocks", "4-d", "ragged"],
    )
    def test_stitch_rejects_what_is_not_a_block_stack(self, per_block):
        grid = tile(np.zeros((8, 8)), 4)
        with pytest.raises(ValueError, match=re.escape("per_block must be a (4, 4, 4) array or a sequence of 4 (4, 4) blocks")):
            stitch(grid, per_block)

    @settings(deadline=None)
    @given(
        h=st.integers(1, 70),
        w=st.integers(1, 70),
        n=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
        transposed=st.booleans(),
    )
    # ragged one-column and one-row grids, and exact ones
    @example(h=70, w=5, n=8, seed=0, transposed=False)
    @example(h=5, w=70, n=8, seed=0, transposed=False)
    @example(h=64, w=8, n=8, seed=0, transposed=False)
    @example(h=8, w=64, n=8, seed=0, transposed=False)
    # exact multiples, a single pixel, and a grid ragged on both sides
    @example(h=48, w=64, n=16, seed=0, transposed=False)
    @example(h=1, w=1, n=2, seed=0, transposed=False)
    @example(h=61, w=50, n=16, seed=0, transposed=True)
    def test_tile_stitch_round_trip_random_sizes(self, h, w, n, seed, transposed):
        img = np.random.default_rng(seed).uniform(0, 255, (w, h) if transposed else (h, w))
        img = img.T if transposed else img  # a strided view reads the same
        grid = tile(img, n)
        blocks = grid.blocks
        rows, cols = -(-h // n), -(-w // n)
        assert blocks.shape == (rows * cols, n, n)
        assert blocks.dtype == np.float64 and blocks.flags.c_contiguous
        assert not np.shares_memory(blocks, img)
        padded = np.pad(img, ((0, rows * n - h), (0, cols * n - w)), mode="edge")
        expected = padded.reshape(rows, n, cols, n).swapaxes(1, 2).reshape(-1, n, n)
        assert blocks.tobytes() == expected.tobytes()
        for per_block in (list(blocks), tuple(blocks), blocks):
            np.testing.assert_array_equal(stitch(grid, per_block), img)
        mask = stitch(grid, [b > 127.5 for b in blocks])
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, img > 127.5)
