import numpy as np
import pytest
from hypothesis import given, settings
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
        p = write(tmp_path / "a.pgm", b"P2\n1 1\n15\n3\n")
        with pytest.raises(UnsupportedFormatError):
            load_gray(p)

    def test_malformed_header(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P2\n2 x\n255\n0 0 0 0\n")
        with pytest.raises(MalformedHeaderError):
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

    def test_gray_magic_rejected(self, tmp_path):
        p = write(tmp_path / "m.pbm", b"P5\n1 1\n255\n\x00")
        with pytest.raises(UnsupportedFormatError):
            load_mask(p)


class TestGrayWriter:
    def test_round_trip_integers(self, tmp_path):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, (17, 23)).astype(np.float64)
        p = tmp_path / "g.pgm"
        save_gray(img, p)
        np.testing.assert_array_equal(load_gray(p), img)

    def test_rounds_and_clips(self, tmp_path):
        p = tmp_path / "g.pgm"
        save_gray(np.array([[-3.0, 12.6, 300.0]]), p)
        np.testing.assert_array_equal(load_gray(p), [[0, 13, 255]])


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

    def test_stitch_length_mismatch(self):
        grid = tile(np.zeros((8, 8)), 4)
        with pytest.raises(ValueError):
            stitch(grid, [np.zeros((4, 4))])

    @settings(deadline=None)
    @given(
        h=st.integers(1, 70),
        w=st.integers(1, 70),
        n=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tile_stitch_round_trip_random_sizes(self, h, w, n, seed):
        img = np.random.default_rng(seed).uniform(0, 255, (h, w))
        grid = tile(img, n)
        assert len(grid.blocks) == -(-h // n) * -(-w // n)
        assert all(block.shape == (n, n) for block in grid.blocks)
        np.testing.assert_array_equal(stitch(grid, grid.blocks), img)
        np.testing.assert_array_equal(stitch(grid, [b > 127.5 for b in grid.blocks]), img > 127.5)
