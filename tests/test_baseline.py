import re

import numpy as np
import pytest

from scseg import kmeans2_block, kmeans2_image


def test_minority_cluster_is_foreground():
    f = np.zeros((8, 8))
    f.ravel()[:31] = 255.0  # 31 bright vs 33 dark pixels
    mask = kmeans2_block(f)
    np.testing.assert_array_equal(mask, f == 255.0)


@pytest.mark.parametrize("shape", [(10,), (4, 4, 4), (), (4, 4, 1)], ids=["1d", "3d", "0d", "trailing-1"])
def test_block_must_be_2d(shape):
    with pytest.raises(ValueError, match=re.escape(f"block must be 2-D, got shape {shape}")):
        kmeans2_block(np.arange(float(np.prod(shape))).reshape(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_block_rejected(value):
    # the solver refuses the same block; a mask made from it would be garbage
    f = np.zeros((8, 8))
    f[2:4, 2:6] = 200.0
    f[5, 5] = value
    with pytest.raises(ValueError, match="block contains non-finite values"):
        kmeans2_block(f)


def test_constant_block_empty():
    assert not kmeans2_block(np.full((16, 16), 42.0)).any()


def test_clear_separation():
    f = np.zeros(4096)
    f[:96] = 200.0
    mask = kmeans2_block(f.reshape(64, 64))
    np.testing.assert_array_equal(mask.ravel(), f == 200.0)
    assert mask.sum() == 96


def test_tie_goes_to_brighter_cluster():
    f = np.array([[0.0, 0.0], [255.0, 255.0]])
    mask = kmeans2_block(f)
    np.testing.assert_array_equal(mask, [[False, False], [True, True]])


def test_mask_at_most_half_except_ties():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = rng.uniform(0, 255, (16, 16))
        mask = kmeans2_block(f)
        assert mask.sum() <= f.size // 2


def test_overlapping_ranges_misclassify_background():
    # a bright background ramp overlapping the stroke intensity drags
    # background pixels into the foreground cluster
    col = np.linspace(0, 220, 64)
    f = np.tile(col, (64, 1))
    truth = np.zeros((64, 64), dtype=bool)
    truth[30, 10:40] = True
    f[truth] = 250.0
    mask = kmeans2_block(f)
    assert (mask & ~truth).sum() > 0


def test_image_wrapper_stitches_blocks():
    img = np.zeros((64, 128))
    img[10, 20:28] = 255.0
    img[40, 100:108] = 255.0
    mask = kmeans2_image(img, block_size=64)
    assert mask.shape == (64, 128)
    np.testing.assert_array_equal(mask, img == 255.0)


@pytest.mark.parametrize("block_size", [4.0, np.float64(4), True])
def test_block_size_must_be_an_integer(block_size):
    with pytest.raises(ValueError, match="^block size must be an integer"):
        kmeans2_image(np.zeros((8, 8)), block_size)
