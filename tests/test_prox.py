import numpy as np
import pytest

from scseg import block_soft, group_soft, soft


def test_soft_basic():
    np.testing.assert_allclose(soft([5.0, -5.0, 1.0], 2.0), [3.0, -3.0, 0.0])


def test_soft_zero_threshold_is_identity():
    x = np.array([1.5, -0.25, 0.0, 300.0])
    np.testing.assert_array_equal(soft(x, 0.0), x)


def test_soft_scaling_identity():
    rng = np.random.default_rng(11)
    x = rng.normal(0, 10, 100)
    lam = 1.3
    c = 3.7
    np.testing.assert_allclose(soft(c * x, c * lam), c * soft(x, lam), atol=1e-12)


def test_block_soft_shrinks_norm():
    np.testing.assert_allclose(block_soft([3.0, 4.0], 2.5), [1.5, 2.0])


def test_block_soft_below_threshold_is_zero():
    np.testing.assert_array_equal(block_soft([1.0, 1.0], 10.0), [0.0, 0.0])
    # norm exactly equal to the threshold also maps to zero
    np.testing.assert_array_equal(block_soft([3.0, 4.0], 5.0), [0.0, 0.0])


def test_block_soft_scalar_reduces_to_soft():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.normal(0, 50)
        lam = rng.uniform(0, 30)
        np.testing.assert_allclose(block_soft([x], lam), soft([x], lam), atol=1e-12)


def test_block_soft_norm_identity():
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = rng.normal(0, 5, 16)
        lam = rng.uniform(0, 15)
        got = np.linalg.norm(block_soft(x, lam))
        want = max(np.linalg.norm(x) - lam, 0.0)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("op", [soft, block_soft])
def test_nonexpansive(op):
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(0, 10, 12)
        b = rng.normal(0, 10, 12)
        lam = rng.uniform(0, 8)
        assert np.linalg.norm(op(a, lam) - op(b, lam)) <= np.linalg.norm(a - b) + 1e-12


@pytest.mark.parametrize("op", [soft, block_soft])
def test_zero_preserved(op):
    np.testing.assert_array_equal(op(np.zeros(9), 3.0), np.zeros(9))


@pytest.mark.parametrize("op", [soft, block_soft])
def test_negative_threshold_rejected(op):
    with pytest.raises(ValueError):
        op([1.0, 2.0], -0.1)


def test_group_soft_matches_per_row_block_soft():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 4, (6, 6))
    lam = 2.2
    rows = group_soft(a, lam, axis=1)
    for i in range(6):
        np.testing.assert_allclose(rows[i], block_soft(a[i], lam), atol=1e-12)
    cols = group_soft(a, lam, axis=0)
    for j in range(6):
        np.testing.assert_allclose(cols[:, j], block_soft(a[:, j], lam), atol=1e-12)


def test_soft_matches_sign_form_bit_for_bit():
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(0, 50, 1000), [0.0, -0.0, 2.0, -2.0, np.inf, -np.inf]])
    for lam in (0.0, 2.0, 17.5):
        sign_form = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
        got = soft(x, lam)
        nonzero = sign_form != 0
        assert np.array_equal(got[nonzero].view(np.int64), sign_form[nonzero].view(np.int64))
        assert not got[~nonzero].any()
