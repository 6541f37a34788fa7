"""Shrinkage operators. group_soft below is the block soft threshold of every
slice along an axis, built from the solver's per-slice factor; the block_soft
cases are block soft thresholding of a whole vector (Boyd et al. 2011, section
6.4.2): group_soft along its only axis.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import fused_group_factor, group_factor_along, reference_group_soft
from scseg.admm import group_factor, soft


def group_soft(a, lam, axis):
    a = np.asarray(a, dtype=np.float64)
    return a * group_factor_along(a, lam, axis)


BLOCK_SOFT = pytest.param(lambda x, lam: group_soft(x, lam, axis=0), id="block_soft")


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
    np.testing.assert_allclose(group_soft([3.0, 4.0], 2.5, axis=0), [1.5, 2.0])


def test_block_soft_below_threshold_is_zero():
    np.testing.assert_array_equal(group_soft([1.0, 1.0], 10.0, axis=0), [0.0, 0.0])
    # norm exactly equal to the threshold also maps to zero
    np.testing.assert_array_equal(group_soft([3.0, 4.0], 5.0, axis=0), [0.0, 0.0])


def test_block_soft_scalar_reduces_to_soft():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.normal(0, 50)
        lam = rng.uniform(0, 30)
        np.testing.assert_allclose(group_soft([x], lam, axis=0), soft([x], lam), atol=1e-12)


def test_block_soft_norm_identity():
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = rng.normal(0, 5, 16)
        lam = rng.uniform(0, 15)
        got = np.linalg.norm(group_soft(x, lam, axis=0))
        want = max(np.linalg.norm(x) - lam, 0.0)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("op", [soft, BLOCK_SOFT])
def test_nonexpansive(op):
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(0, 10, 12)
        b = rng.normal(0, 10, 12)
        lam = rng.uniform(0, 8)
        assert np.linalg.norm(op(a, lam) - op(b, lam)) <= np.linalg.norm(a - b) + 1e-12


@pytest.mark.parametrize("op", [soft, BLOCK_SOFT])
def test_zero_preserved(op):
    np.testing.assert_array_equal(op(np.zeros(9), 3.0), np.zeros(9))


@pytest.mark.parametrize("op", [soft, BLOCK_SOFT])
def test_negative_threshold_rejected(op):
    with pytest.raises(ValueError):
        op([1.0, 2.0], -0.1)


@pytest.mark.parametrize("op", [soft, BLOCK_SOFT])
@pytest.mark.parametrize("lam", [float("nan"), np.float32("nan")], ids=["float", "float32"])
def test_nan_threshold_rejected(op, lam):
    # NaN fails every comparison, so a test of lam < 0 alone let it through to an all-NaN result
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        op([1.0, 2.0], lam)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_group_factor_rejects_a_nan_threshold(dtype):
    squares = np.ones((2, 3), dtype)
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        group_factor(squares, np.nan)


@pytest.mark.parametrize("lam", [float(np.finfo(np.float32).max), 3.4028235e38 * (1 + 2**-26)])
def test_soft_of_the_largest_float32_thresholds_keeps_its_bits(lam):
    # float32's largest value, and a larger one that rounds to it in a cast, are finite in
    # float32: only an infinite x is beyond them
    x = np.array([0.0, 1.0, -3e38, np.inf, -np.inf], np.float32)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = soft(x, lam)
    assert got.dtype == np.float32
    assert got.tolist() == [0.0, 0.0, 0.0, np.inf, -np.inf] and not np.signbit(got[:3]).any()


@pytest.mark.parametrize("lam", [float(np.finfo(np.float32).max), 3.4028235e38 * (1 + 2**-26)])
def test_group_factor_of_the_largest_float32_thresholds_is_zero(lam):
    # float32's largest value, and a larger one that rounds to it in a cast, give factor zero too, without a warning
    squares = np.array([0.0, 1.0, 3e38], np.float32)
    with np.errstate(all="raise"):
        assert (group_factor(squares, lam) == 0).all()


def test_group_soft_matches_per_row_block_soft():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 4, (6, 6))
    lam = 2.2

    def closed_form(x):
        norm = np.linalg.norm(x)
        return (1 - lam / norm) * x if norm > lam else np.zeros_like(x)

    rows = group_soft(a, lam, axis=1)
    for i in range(6):
        np.testing.assert_allclose(rows[i], closed_form(a[i]), atol=1e-12)
    cols = group_soft(a, lam, axis=0)
    for j in range(6):
        np.testing.assert_allclose(cols[:, j], closed_form(a[:, j]), atol=1e-12)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_group_factor_matches_reference_bit_for_bit(axis):
    rng = np.random.default_rng(19)
    a = rng.normal(0, 4, (8, 16, 16))
    a[:, 3, :] = 0.0  # all-zero rows and columns
    a[:, :, 5] = 0.0
    for lam in (0.0, 2.0, 9.5, 1e3):
        factor = group_factor_along(a, lam, axis)
        assert factor.shape == tuple(1 if d == axis else size for d, size in enumerate(a.shape))
        assert np.array_equal(factor, fused_group_factor(a, lam, axis))
        assert ((factor >= 0) & (factor < 1) | (lam == 0)).all()
        # the fused sum of squares and np.linalg.norm differ in rounding only
        np.testing.assert_allclose(a * factor, reference_group_soft(a, lam, axis), rtol=0, atol=1e-13 * np.abs(a).max())


def test_buffers_change_no_bits():
    # soft into `out` as the solver calls it; group_factor on the batch as on
    # each block alone, and on a copy that starts 1, 3 or 5 doubles off alignment
    rng = np.random.default_rng(37)
    a = rng.normal(0, 50, (8, 16, 16))
    out = np.full_like(a, np.nan)
    assert soft(a, 17.5, out=out) is out
    assert np.array_equal(out, soft(a, 17.5))
    for axis in (1, 2):
        batch = group_factor_along(a, 40.0, axis)
        for i in range(len(a)):
            assert np.array_equal(group_factor_along(a[i], 40.0, axis - 1), batch[i])
        for offset in (1, 3, 5):
            moved = np.empty(a.size + offset)[offset:].reshape(a.shape)
            moved[...] = a
            assert np.array_equal(group_factor_along(moved, 40.0, axis), batch)


slices = st.tuples(st.integers(1, 6), st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))
)
thresholds = st.floats(0, 2e3)


class TestGroupSoftProperties:
    @settings(deadline=None)
    @given(a=slices, lam=thresholds)
    def test_slice_norms_shrink_by_threshold(self, a, lam):
        got = np.linalg.norm(group_soft(a, lam, axis=1), axis=1)
        want = np.maximum(np.linalg.norm(a, axis=1) - lam, 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)

    @settings(deadline=None)
    @given(a=slices, b=slices, lam=thresholds)
    def test_nonexpansive(self, a, b, lam):
        b = np.resize(b, a.shape)
        for axis in (0, 1):
            moved = np.linalg.norm(group_soft(a, lam, axis) - group_soft(b, lam, axis))
            assert moved <= np.linalg.norm(a - b) * (1 + 1e-12) + 1e-9

    @settings(deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e3, 1e3)), lam=thresholds)
    def test_length_one_axis_is_soft(self, x, lam):
        np.testing.assert_allclose(group_soft(x[:, None], lam, axis=1)[:, 0], soft(x, lam), atol=1e-12)


def test_soft_matches_sign_form_bit_for_bit():
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(0, 50, 1000), [0.0, -0.0, 2.0, -2.0, np.inf, -np.inf]])
    for lam in (0.0, 2.0, 17.5):
        sign_form = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
        got = soft(x, lam)
        nonzero = sign_form != 0
        assert np.array_equal(got[nonzero].view(np.int64), sign_form[nonzero].view(np.int64))
        assert not got[~nonzero].any()


def test_float32_input_stays_float32():
    # the solver's sweep: a float32 array and a threshold _solve_slice has cast to float32
    rng = np.random.default_rng(29)
    a = rng.normal(0, 50, (8, 16, 16)).astype(np.float32)
    lam = np.float32(17.3)
    got = soft(a, lam)
    assert got.dtype == np.float32
    sign_form = np.sign(a) * np.maximum(np.abs(a) - lam, np.float32(0))
    nonzero = sign_form != 0
    assert np.array_equal(got[nonzero].view(np.int32), sign_form[nonzero].view(np.int32))
    assert not got[~nonzero].any()
    for axis in (1, 2):
        for threshold in (np.float32(0), lam):
            factor = group_factor_along(a, threshold, axis)
            assert factor.dtype == np.float32
            assert np.array_equal(factor, fused_group_factor(a, threshold, axis))


@pytest.mark.parametrize("lam", [np.float32(2.0), np.float32(1e-50)], ids=["positive", "underflows"])
def test_group_factor_of_a_stack_equals_separate_calls(lam):
    # the sweep takes both groups' factors in one call on its (2, m, n) float32 sums of squares,
    # and reads them in place; its cast of a threshold of 1e-50 is 0, where a zero slice gets factor 0
    squares = np.random.default_rng(43).uniform(0, 5, (2, 5, 7)).astype(np.float32) ** 2
    squares[0, 1] = 0.0
    squares[1, :, 3] = 0.0
    squares[:, 2, 4] = np.float32(4.0)  # norm 2, exactly the positive threshold: factor 0
    separate = np.stack([group_factor(part.copy(), lam) for part in squares])
    stacked = squares.copy()
    assert group_factor(stacked, lam) is stacked
    assert stacked.dtype == np.float32
    assert np.array_equal(stacked.view(np.uint32), separate.view(np.uint32))
    assert np.isfinite(stacked).all() and (stacked[0, 1] == 0).all() and (stacked[1, :, 3] == 0).all()
