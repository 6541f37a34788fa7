import dataclasses
import errno
import gc
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import group_norm_reference, reference_solve, scaled_solve
from scseg import (
    Decomposition,
    DivergenceError,
    SegmentationConfig,
    SolverParams,
    SynthSpec,
    build_basis,
    gen_block,
    objective,
    solve_blocks,
)
from scseg import admm
from scseg.admm import BATCH_BLOCKS, PIXEL_BOUND
from scseg.dct import BasisMatrix
from scseg.image_io import tile

# The four block regimes of the benchmark's pages.
REGIMES = (
    SynthSpec(),
    SynthSpec(stroke_amplitude=10.0),
    SynthSpec(k_true=15),
    SynthSpec(diagonal_strokes=True),
)
NON_DEFAULT = SolverParams(lambda1=5.0, lambda2=1.0, rho=1.7)
# The defaults, the weights and the penalty changed at once, the weights
# alone, and a small and a large penalty alone: rho enters only the three
# shrinkage thresholds, so a threshold that drops its rho, or one given the
# wrong weight, cannot hide behind the others.
PENALTY_CASES = {
    "default": SolverParams(),
    "penalties": NON_DEFAULT,
    "lambdas": SolverParams(lambda1=5.0, lambda2=1.0),
    "rho-small": SolverParams(rho=0.3),
    "rho-large": SolverParams(rho=30.0),
}


def _solve_in(dtype, blocks, basis, params):
    """solve_blocks' sweep run in `dtype`: admm._solve_slice on a work array of it, one slice at a time.

    solve_blocks runs it in float32; float64 is the same code at double precision.
    """
    work = np.empty((admm._WORK_ROWS, BATCH_BLOCKS, basis.n**2), dtype)
    flat = np.reshape(blocks, (len(blocks), -1)).astype(np.float64)
    out, sweep_basis = admm._unfilled(len(flat), basis), admm._sweep_basis(basis)
    for i in range(0, len(flat), BATCH_BLOCKS):
        admm._solve_slice(flat[i : i + BATCH_BLOCKS], sweep_basis, params, work, out.rows(i, i + BATCH_BLOCKS))
    return out


def _alone(blocks, basis, params):
    """solve_blocks of each block by itself, its rows joined in order."""
    decs = [solve_blocks(np.empty((0, basis.n**2)), basis, params)]  # the fields' shapes when blocks is empty
    decs += [solve_blocks([f], basis, params) for f in blocks]
    names = [field.name for field in dataclasses.fields(Decomposition)]
    return Decomposition(*(np.concatenate([getattr(d, name) for d in decs]) for name in names))


@pytest.fixture(scope="module")
def basis64():
    return build_basis(64, 10)


@pytest.fixture(scope="module")
def basis8():
    return build_basis(8, 3)


class TestParams:
    def test_defaults(self):
        p = SolverParams()
        assert (p.lambda1, p.lambda2) == (100.0, 2.0)
        assert p.rho == 1.0
        assert p.max_iters == 50
        assert [f.name for f in dataclasses.fields(p)] == ["lambda1", "lambda2", "rho", "max_iters", "workers"]

    def test_fields_are_frozen(self):
        # an assignment would skip __post_init__'s checks; dataclasses.replace runs them
        p = SolverParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.max_iters = 0
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            dataclasses.replace(p, max_iters=0)
        assert p.max_iters == 50

    @pytest.mark.parametrize(
        "bad",
        [
            {"lambda1": 0}, {"lambda2": -1}, {"rho": 0.0}, {"max_iters": 0}, {"workers": 0},
            {"lambda1": np.nan}, {"lambda2": np.inf}, {"rho": np.inf}, {"rho": -np.inf},
            # finite values whose shrinkage threshold overflows: lambda2/rho, lambda1/rho, 1/rho
            {"lambda2": 1e300, "rho": 1e-10}, {"lambda1": np.float64(1e300), "rho": np.float64(1e-10)},
            {"rho": 5e-324},
            # lambda2/rho = 1e39 is finite in float64 but beyond float32, the sweep's dtype
            {"rho": 1e-37, "lambda2": 100.0},
            # Python ints beyond float64's range
            {"lambda1": 10**400}, {"rho": 10**400},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SolverParams(**bad)

    @pytest.mark.parametrize(
        "name, value",
        [("max_iters", 2.5), ("max_iters", 50.0), ("max_iters", True), ("workers", 1.5),
         ("workers", np.float64(2.0)), ("workers", np.True_), ("max_iters", "50")],
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SolverParams(**{name: value})

    def test_thresholds_up_to_float32_max_are_accepted(self, basis8):
        # lambda2/rho at float32's largest value solves; the next float64 above it is refused
        top = float(np.finfo(np.float32).max)
        params = SolverParams(lambda2=top)
        dec = solve_blocks([np.arange(64.0)], basis8, params)
        assert np.isfinite(dec.s[0]).all() and np.isfinite(objective(dec.alpha[0], dec.s[0], params))
        with pytest.raises(ValueError, match=r"^rho 1.0 is too small: .* exceeds float32's 3.403e\+38$"):
            SolverParams(lambda2=np.nextafter(top, np.inf))

    @pytest.mark.parametrize("value", [7, np.int64(7), np.int32(7), np.uint8(7)])
    def test_counts_accept_python_and_numpy_integers(self, basis8, value):
        params = SolverParams(max_iters=value, workers=value)
        assert solve_blocks([np.zeros(64)], basis8, params).primal_residual[0] == 0.0


class TestStep:
    """The sweep's steps; the closed-form checks run the sweep in float64."""

    def test_zero_block_is_fixed_point(self, basis8):
        for max_iters in (1, 2, 3):
            params = SolverParams(lambda1=5.0, lambda2=1.0, max_iters=max_iters)
            dec = solve_blocks([np.zeros(64)], basis8, params)
            assert not dec.alpha[0].any()
            assert not dec.s[0].any()
            assert (dec.primal_residual[0], tuple(dec.split_residuals[0])) == (0.0, (0.0, 0.0, 0.0))

    def test_single_step_coefficients(self, basis64):
        # from the zero state the first coefficient update is a scaled projection
        f = basis64.atoms[:, 0] * 100.0
        dec = _solve_in(np.float64, [f], basis64, SolverParams(max_iters=1))
        expected = np.zeros(10)
        expected[0] = 50.0
        np.testing.assert_allclose(dec.alpha[0], expected, atol=1e-10)

    def test_orthonormal_shortcut_matches_factorized_path(self, basis64):
        # the fourth coefficient update solves (rho B'B + rho I) alpha = rhs
        # on the state after three sweeps
        rng = np.random.default_rng(14)
        f = rng.uniform(0, 255, 4096)
        params = SolverParams(rho=1.7)
        state = reference_solve(f, basis64.atoms, params, steps=3)["state"]
        b = basis64.atoms
        rhs = (
            b.T @ state.w1
            - state.w2
            + params.rho * state.beta
            + params.rho * (b.T @ (f - state.s))
        )
        factorized = np.linalg.solve(params.rho * b.T @ b + params.rho * np.eye(10), rhs)
        stepped = _solve_in(np.float64, [f], basis64, dataclasses.replace(params, max_iters=4))
        np.testing.assert_allclose(stepped.alpha[0], factorized, atol=1e-10)


class TestObjective:
    def test_zero(self):
        assert objective(np.zeros(3), np.zeros(16), SolverParams()) == 0.0

    def test_single_pixel_groups(self):
        # one nonzero pixel contributes one row norm and one column norm
        s = np.array([1.0, 0.0, 0.0, 0.0])
        val = objective(np.zeros(2), s, SolverParams(lambda1=100.0, lambda2=2.0))
        assert val == pytest.approx(104.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(21)
        alpha = rng.normal(0, 5, 4)
        s = rng.normal(0, 5, 25)
        params = SolverParams(lambda1=3.0, lambda2=0.5)
        c = 2.75
        assert objective(c * alpha, c * s, params) == pytest.approx(
            c * objective(alpha, s, params), rel=1e-12
        )

    def test_group_term_matches_explicit_group_list(self):
        rng = np.random.default_rng(33)
        params = SolverParams(lambda1=1.0, lambda2=1.0)
        for n in (2, 5, 8):
            s = rng.normal(0, 3, n * n)
            expected = np.abs(s).sum() + group_norm_reference(s, n)
            assert objective(np.zeros(1), s, params) == pytest.approx(expected, rel=1e-12)

    def test_group_norm_rejects_non_square(self):
        with pytest.raises(ValueError):
            objective(np.zeros(1), np.zeros(5), SolverParams())

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2)])
    def test_group_norm_rejects_a_non_square_block(self, shape):
        # one block's s is checked as the one-block stack [s]
        with pytest.raises(ValueError, match=r"^s must have shape \(1, .+\) or \(1, .+\), got \(1, 2, "):
            objective(np.zeros(1), np.zeros(shape), SolverParams())

    @pytest.mark.parametrize(
        "alpha, s, message",
        [
            # as many blocks as alpha has rows, of one square side, whole or flat
            ((1, 3), (3, 4, 4), r"s must have shape \(1, 4, 4\) or \(1, 16\), got \(3, 4, 4\)$"),
            ((2, 3), (2, 4, 5), r"s must have shape \(2, 5, 5\) or \(2, 25\), got \(2, 4, 5\)$"),
            ((2, 3), (2, 15), r"s must have shape \(2, 3, 3\) or \(2, 9\), got \(2, 15\)$"),
            ((0, 3), (1, 16), r"s must have shape \(0, 4, 4\) or \(0, 16\), got \(1, 16\)$"),
            ((2, 3), (2, 2, 2, 2), r"s must have shape \(2, n, n\) or \(2, n\*n\), got \(2, 2, 2, 2\)$"),
            ((2, 3), (), r"s must have shape \(2, n, n\) or \(2, n\*n\), got \(\)$"),
            ((2, 2, 3), (2, 4, 4), r"alpha must have shape \(k,\) or \(m, k\), got \(2, 2, 3\)$"),
            ((), (4,), r"alpha must have shape \(k,\) or \(m, k\), got \(\)$"),
        ],
        ids=["count", "side", "flat-side", "empty-count", "4-d", "0-d", "3-d-alpha", "0-d-alpha"],
    )
    def test_stacked_form_refuses_what_is_not_a_block_stack(self, alpha, s, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            objective(np.zeros(alpha), np.ones(s), SolverParams())

    def test_stacked_form_refuses_ragged_blocks(self):
        with pytest.raises(ValueError, match=r"^s must have shape \(2, n, n\) or \(2, n\*n\): "):
            objective(np.zeros((2, 3)), [[1.0, 2.0], [1.0]], SolverParams())

    @pytest.mark.parametrize("s", [[[1.0, 2.0], [1.0]], (x for x in (1.0, 2.0, 3.0, 4.0))], ids=["ragged", "generator"])
    def test_single_form_refuses_what_is_not_a_block(self, s):
        with pytest.raises(ValueError, match=r"^s must have shape \(1, n, n\) or \(1, n\*n\): "):
            objective(np.zeros(3), s, SolverParams())

    def test_stacked_form_takes_flat_blocks(self):
        rng = np.random.default_rng(5)
        alpha, s = rng.normal(0, 5, (3, 4)), rng.normal(0, 5, (3, 5, 5))
        params = SolverParams(lambda1=3.0, lambda2=0.5)
        values = objective(alpha, s, params)
        assert values.shape == (3,)
        assert objective(alpha, s.reshape(3, 25), params).tobytes() == values.tobytes()
        for empty in ((0, 5, 5), (0, 25)):
            assert objective(np.zeros((0, 4)), np.zeros(empty), params).shape == (0,)


class TestSolve:
    def test_zero_block(self, basis8):
        params = SolverParams(lambda1=5.0, lambda2=1.0)
        dec = solve_blocks([np.zeros(64)], basis8, params)
        assert not dec.alpha[0].any()
        assert not dec.s[0].any()
        assert objective(dec.alpha[0], dec.s[0], params) == 0.0
        assert dec.primal_residual[0] == 0.0

    def test_smooth_block_stays_in_smooth_layer(self, basis64):
        rng = np.random.default_rng(17)
        coef = rng.uniform(-100, 100, 10)
        coef[0] = 128.0 * 64
        f = basis64.atoms @ coef
        dec = solve_blocks([f], basis64, SolverParams(max_iters=500))
        assert dec.primal_residual[0] <= 1e-3
        assert np.abs(dec.s[0]).max() <= 1.0

    def test_feasibility_on_random_blocks(self, basis64):
        rng = np.random.default_rng(29)
        for _ in range(3):
            f = rng.uniform(0, 255, 4096)
            dec = solve_blocks([f], basis64, SolverParams(max_iters=500))
            assert dec.primal_residual[0] <= 1e-3

    def test_beats_trivial_feasible_points(self, basis64):
        rng = np.random.default_rng(31)
        params = SolverParams()
        for _ in range(3):
            f = rng.uniform(0, 255, 4096)
            dec = solve_blocks([f], basis64, params)
            proj = basis64.atoms.T @ f
            value = objective(dec.alpha[0], dec.s[0], params)
            assert value <= objective(proj, f - basis64.atoms @ proj, params)
            assert value <= objective(np.zeros(10), f, params)

    def test_deterministic(self, basis8):
        rng = np.random.default_rng(41)
        f = rng.uniform(0, 255, 64)
        params = SolverParams(lambda1=5.0, lambda2=1.0)
        a = solve_blocks([f], basis8, params)
        b = solve_blocks([f], basis8, params)
        np.testing.assert_array_equal(a.s[0], b.s[0])
        np.testing.assert_array_equal(a.alpha[0], b.alpha[0])
        assert objective(a.alpha[0], a.s[0], params) == objective(b.alpha[0], b.s[0], params)

    def test_accepts_2d_block(self, basis8):
        rng = np.random.default_rng(43)
        f = rng.uniform(0, 255, (8, 8))
        a = solve_blocks([f], basis8)
        b = solve_blocks([f.ravel()], basis8)
        np.testing.assert_array_equal(a.s[0], b.s[0])

    def test_primal_residual_falls_with_sweeps(self, basis8):
        rng = np.random.default_rng(47)
        f = rng.uniform(0, 255, 64)
        first, last = (solve_blocks([f], basis8, SolverParams(max_iters=k)) for k in (1, 60))
        assert last.primal_residual[0] < first.primal_residual[0]

    def test_dimension_mismatch(self, basis64, basis8):
        with pytest.raises(ValueError):
            solve_blocks([np.zeros(100)], basis64)
        with pytest.raises(ValueError):
            solve_blocks([np.zeros(4096), np.zeros(100)], basis64)
        # 64 pixels, but not an 8x8 block: read row-major they would put the wrong pixels in each group
        for shape in ((4, 16), (2, 32)):
            message = f"blocks must have shape (m, 8, 8) or (m, 64), got {(2, *shape)}"
            with pytest.raises(ValueError, match=re.escape(message)):
                solve_blocks(np.zeros((2, *shape)), basis8)

    def test_non_finite_input_raises(self, basis8):
        f = np.zeros(64)
        f[0] = np.nan
        with pytest.raises(DivergenceError):
            solve_blocks([f], basis8)

    def test_small_instance_near_optimal(self, basis8):
        # quick version of the oracle comparison: longer runs should not
        # improve the feasible-point objective by more than a hair
        rng = np.random.default_rng(53)
        f = rng.uniform(0, 255, 64)
        params_short = SolverParams(lambda1=5.0, lambda2=1.0, max_iters=400)
        params_long = SolverParams(lambda1=5.0, lambda2=1.0, max_iters=4000)
        short = solve_blocks([f], basis8, params_short)
        long = solve_blocks([f], basis8, params_long)
        o_short = objective(short.alpha[0], f - basis8.atoms @ short.alpha[0], params_short)
        o_long = objective(long.alpha[0], f - basis8.atoms @ long.alpha[0], params_long)
        assert abs(o_short - o_long) / o_long < 1e-2


def _model_blocks(n, count=3):
    """count blocks of side n cycling default, k_true = 15 and diagonal strokes; at n = 8 one stroke each, as four do not fit."""
    base = SynthSpec(n=n) if n == 64 else SynthSpec(n=n, stroke_count=1, max_fg_fraction=0.2)
    variants = ({}, {"k_true": 15}, {"diagonal_strokes": True})
    return np.stack([gen_block(dataclasses.replace(base, seed=i, **variants[i % 3]))[0] for i in range(count)])


@st.composite
def _exact_cases(draw):
    """Blocks, a basis and params for the exact symmetries, which hold bit for bit while no value is subnormal.

    n is 4, 8, 16 or 64, and k a zig-zag count closed under the transpose (whole anti-diagonals).
    Each block is a smooth part (coefficients within 512) plus strokes within 255 at a drawn
    density. The weights within [2**-4, 2**10], rho within [2**-2, 2**2] and a scale 2**j with
    |j| <= 6 are chosen so that every sweep value stays normal in float32 and far below its
    largest value; 3000 examples of each relation passed.
    """
    n = draw(st.sampled_from([4, 8, 16, 64]))
    basis = build_basis(n, draw(st.sampled_from([1, 3, 6, 10, 15])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 9))  # 9 blocks are two slices
    smooth = rng.uniform(-512, 512, (count, basis.k)) @ basis.atoms.T
    strokes = rng.uniform(-255, 255, smooth.shape) * (rng.random(smooth.shape) < rng.random((count, 1)))
    weights = st.floats(2.0**-4, 2.0**10)
    params = SolverParams(lambda1=draw(weights), lambda2=draw(weights), rho=draw(st.floats(0.25, 4.0)),
                          max_iters=draw(st.integers(1, 30)))
    return smooth + strokes, basis, params


class TestModelSymmetries:
    """Relations of the model's minimiser that any exact solver keeps, checked without replaying the sweep.

    The constraint f = B alpha + s is linear and every term of the objective is
    even and positively homogeneous, and rho enters only as thresholds over rho.
    So negating f negates alpha and s, and scaling f by a power of two c with
    rho / c scales them by c, exactly in floating point. Each block's minimiser
    is its own, so permuting the blocks permutes every field of the solution,
    and a block solved alone gives its row among others.
    """

    @staticmethod
    def negated(f, basis, params):
        """Solve f and -f, check that the second solution is the first negated, and return the first."""
        dec, neg = solve_blocks(f, basis, params), solve_blocks(-f, basis, params)
        # by value: soft gives +0.0 for either sign, so the zeros of -s differ in bits
        assert np.array_equal(neg.alpha, -dec.alpha) and np.array_equal(neg.s, -dec.s)
        for name in ("split_residuals", "primal_residual"):
            assert getattr(neg, name).tobytes() == getattr(dec, name).tobytes(), name
        return dec

    @staticmethod
    def scaled(f, basis, params, c):
        """Solve f, and c f with rho / c; check that the second solution is c times the first, and return both."""
        dec = solve_blocks(f, basis, params)
        scaled = solve_blocks(c * f, basis, dataclasses.replace(params, rho=params.rho / c))
        for name in ("alpha", "s", "split_residuals"):
            assert getattr(scaled, name).tobytes() == (c * getattr(dec, name)).tobytes(), name
        assert scaled.primal_residual.tobytes() == dec.primal_residual.tobytes()
        return dec, scaled

    @pytest.mark.parametrize("n", [64, 8])
    def test_negated_blocks_negate_the_solution(self, n):
        assert self.negated(_model_blocks(n), build_basis(n, 10), SolverParams()).s.any()

    @pytest.mark.parametrize("n", [64, 8])
    @pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
    def test_scaled_blocks_scale_the_solution(self, n, c):
        params = SolverParams()
        dec, scaled = self.scaled(_model_blocks(n), build_basis(n, 10), params, c)
        assert dec.s.any()
        value = objective(dec.alpha, dec.s, params)
        assert objective(scaled.alpha, scaled.s, params).tobytes() == (c * value).tobytes()

    @pytest.mark.parametrize("n", [64, 8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_permuted_blocks_permute_the_solution(self, n, workers, cpus, forks):
        # 18 blocks are three slices, so at two workers a child solves some of the permuted rows
        f, basis = _model_blocks(n, count=18), build_basis(n, 10)
        order = np.random.default_rng(26).permutation(len(f))
        dec = solve_blocks(f, basis)
        permuted = solve_blocks(f[order], basis, SolverParams(workers=workers))
        assert dec.s.any() and len(forks) == workers - 1
        for field in dataclasses.fields(Decomposition):
            got, want = getattr(permuted, field.name), getattr(dec, field.name)[order]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name

    # Measured on these blocks: |d s| at most 5.9e-5 at n = 64 and 8.1e-5 at n = 8 (1.0e-4 on 48
    # blocks of 64), and |d alpha| one float32 step of the largest coefficient
    S_TOL = 2e-4

    @pytest.mark.parametrize("n", [64, 8])
    @pytest.mark.parametrize("flip", ["horizontal", "vertical", "transpose"])
    def test_flipped_blocks_map_the_solution(self, n, flip):
        # Atom (u, v), u counting down the rows, is (-1)**v times itself flipped left to right,
        # (-1)**u times itself flipped top to bottom, and atom (v, u) transposed. The 10
        # zig-zag atoms are those with u + v <= 3, closed under all three maps, so the flipped
        # blocks' minimiser is the mapped one. The sweep keeps it only to rounding: mirrored
        # atom entries differ in their last bits, and each GEMM sums the pixels in another order.
        f, basis = _model_blocks(n), build_basis(n, 10)
        u, v = np.array(basis.freq_pairs).T
        swapped = [basis.freq_pairs.index((b, a)) for a, b in basis.freq_pairs]
        block_map, alpha_map = {
            "horizontal": (lambda x: x[..., ::-1], lambda a: a * (-1.0) ** v),
            "vertical": (lambda x: x[..., ::-1, :], lambda a: a * (-1.0) ** u),
            "transpose": (lambda x: np.swapaxes(x, -1, -2), lambda a: a[:, swapped]),
        }[flip]
        dec, flipped = solve_blocks(f, basis), solve_blocks(block_map(f), basis)
        want = block_map(dec.s)
        assert np.abs(flipped.s - want).max() <= self.S_TOL
        assert np.abs(flipped.alpha - alpha_map(dec.alpha)).max() <= 1e-6 * np.abs(dec.alpha).max()
        # the masks may differ only where |s| is within the tolerance of the threshold
        threshold = SegmentationConfig().fg_threshold
        unsure = np.abs(np.abs(want) - threshold) <= self.S_TOL
        mask = np.abs(want) > threshold
        assert mask.any() and np.array_equal((np.abs(flipped.s) > threshold) | unsure, mask | unsure)

    @settings(deadline=None, max_examples=100)
    @given(exact=_exact_cases())
    def test_negation_is_exact_for_any_weights(self, exact):
        self.negated(*exact)

    @settings(deadline=None, max_examples=100)
    @given(exact=_exact_cases(), j=st.integers(-6, 6))
    def test_power_of_two_scaling_is_exact_for_any_weights(self, exact, j):
        self.scaled(*exact, 2.0**j)

    @settings(deadline=None, max_examples=100)
    @given(exact=_exact_cases(), data=st.data())
    def test_a_block_alone_is_its_row_among_others(self, exact, data):
        f, basis, params = exact
        i = data.draw(st.integers(0, len(f) - 1), label="i")
        among, alone = solve_blocks(f, basis, params).rows(i, i + 1), solve_blocks(f[i : i + 1], basis, params)
        for field in dataclasses.fields(Decomposition):
            got, want = getattr(among, field.name), getattr(alone, field.name)
            assert got.dtype == want.dtype and got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same(dec, serial):
    """Every field of every block's row equal, bit for bit."""
    assert len(dec.alpha) == len(serial.alpha)
    for field in dataclasses.fields(Decomposition):
        assert getattr(dec, field.name).shape == getattr(serial, field.name).shape, field.name
    for i in range(len(dec.alpha)):
        assert np.array_equal(dec.alpha[i], serial.alpha[i]), f"block {i}: alpha differs"
        assert np.array_equal(dec.s[i], serial.s[i]), f"block {i}: s differs"
        assert dec.primal_residual[i] == serial.primal_residual[i]
        assert tuple(dec.split_residuals[i]) == tuple(serial.split_residuals[i])


def _assert_matches_reference(dec, refs):
    assert len(dec.alpha) == len(refs)
    for i, ref in enumerate(refs):
        assert np.array_equal(dec.alpha[i], ref["alpha"]), f"block {i}: alpha differs"
        assert np.array_equal(dec.s[i].ravel(), ref["s"]), f"block {i}: s differs"


def _assert_residuals_match_history(blocks, basis, params, sweeps):
    """Each block's final residuals after k sweeps equal the reference's k-th history entry.

    The reference runs max(sweeps) sweeps once and records every one; every
    solve starts from the zero state, so its run of k sweeps is the first k
    of those.
    """
    refs = [scaled_solve(f, basis.atoms, params, steps=max(sweeps)) for f in blocks]
    for k in sweeps:
        dec = solve_blocks(blocks, basis, dataclasses.replace(params, max_iters=k))
        for i, (f, ref) in enumerate(zip(blocks, refs)):
            primal, *split = ref["history"][k - 1]
            norm = np.linalg.norm(f)
            assert dec.primal_residual[i] == (primal / norm if norm > 0 else 0.0), f"block {i}, {k} sweeps"
            assert tuple(dec.split_residuals[i]) == tuple(split), f"block {i}, {k} sweeps"


@pytest.fixture(scope="module")
def regime_blocks():
    """24 blocks cycling the four regimes: three full slices."""
    return [gen_block(dataclasses.replace(REGIMES[i % 4], seed=300 + i))[0] for i in range(24)]


@pytest.fixture(scope="module")
def regime_stack(regime_blocks):
    return np.array(regime_blocks)


@pytest.fixture(scope="module")
def regime_refs(basis64, regime_blocks):
    return [scaled_solve(f, basis64.atoms, SolverParams()) for f in regime_blocks]


class TestSolveBlocks:
    """The batched sweep against the frozen one-block copy of the scaled sweep."""

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 17])
    def test_bit_identical_to_reference_at_every_batch_size(
        self, basis64, regime_blocks, regime_refs, count
    ):
        assert BATCH_BLOCKS == 8  # the sizes above straddle the slice boundary
        decs = solve_blocks(regime_blocks[:count], basis64)
        _assert_matches_reference(decs, regime_refs[:count])

    def test_bit_identical_with_non_default_penalties(self, basis64, regime_blocks):
        blocks = regime_blocks[:9]
        refs = [scaled_solve(f, basis64.atoms, NON_DEFAULT) for f in blocks]
        _assert_matches_reference(solve_blocks(blocks, basis64, NON_DEFAULT), refs)

    @pytest.mark.parametrize("params", PENALTY_CASES.values(), ids=PENALTY_CASES)
    def test_bit_identical_on_random_small_blocks(self, basis8, params):
        blocks = np.random.default_rng(61).uniform(0, 255, (17, 64))
        refs = [scaled_solve(f, basis8.atoms, params) for f in blocks]
        _assert_matches_reference(solve_blocks(blocks, basis8, params), refs)

    @pytest.mark.parametrize("params", PENALTY_CASES.values(), ids=PENALTY_CASES)
    @pytest.mark.parametrize("n, k, count", [(3, 2, 17), (5, 3, 11), (7, 6, 9)], ids=["side3", "side5", "side7"])
    def test_bit_identical_on_odd_block_sides(self, params, n, k, count):
        # odd sides put the work rows off the 64-byte line and give the rows' and columns'
        # stacked sums of squares an odd last axis; each count ends in a short slice
        basis = build_basis(n, k)
        blocks = np.random.default_rng(61).uniform(0, 255, (count, n * n))
        refs = [scaled_solve(f, basis.atoms, params) for f in blocks]
        _assert_matches_reference(solve_blocks(blocks, basis, params), refs)
        _assert_residuals_match_history(blocks, basis, params, (1, params.max_iters))

    def test_a_numpy_int16_side_solves_as_its_int(self):
        # 200 * 200 overflows int16: build_basis keeps the side and k as Python ints
        block = np.random.default_rng(3).uniform(0, 255, (1, 200, 200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = solve_blocks(block, build_basis(np.int16(200), 3))
        _assert_same(dec, solve_blocks(block, build_basis(200, 3)))

    @settings(deadline=None, max_examples=30)
    @given(
        blocks=arrays(np.float64, st.tuples(st.integers(0, 20), st.just(64)), elements=st.floats(0, 255)),
        max_iters=st.integers(1, 4),
    )
    def test_batched_equals_one_block_at_a_time(self, basis8, blocks, max_iters):
        params = SolverParams(max_iters=max_iters)
        _assert_same(solve_blocks(blocks, basis8, params), _alone(blocks, basis8, params))

    @settings(deadline=None, max_examples=30)
    @given(
        rho=st.floats(0.05, 50),
        lambda1=st.floats(0.5, 200),
        lambda2=st.floats(0.1, 10),
        max_iters=st.integers(1, 60),
        count=st.integers(1, 17),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_at_any_penalty(self, basis8, rho, lambda1, lambda2, max_iters, count, seed):
        params = SolverParams(lambda1=lambda1, lambda2=lambda2, rho=rho, max_iters=max_iters)
        blocks = np.random.default_rng(seed).uniform(0, 255, (count, 64))
        refs = [scaled_solve(f, basis8.atoms, params) for f in blocks]
        _assert_matches_reference(solve_blocks(blocks, basis8, params), refs)

    def test_empty_batch(self, basis8):
        for shape in ((0, 8, 8), (0, 64)):
            dec = solve_blocks(np.empty(shape), basis8)
            shapes = [getattr(dec, f.name).shape for f in dataclasses.fields(dec)]
            assert shapes == [(0, 3), (0, 8, 8), (0,), (0, 3)], shape

    @pytest.mark.parametrize(
        "blocks, got",
        [
            ((np.zeros(64) for _ in range(2)), "float() argument"),  # a generator
            ([np.zeros(64), np.zeros(65)], "inhomogeneous"),  # ragged
            (np.zeros((3, 65)), "got (3, 65)"),
            (np.zeros((3, 4, 16)), "got (3, 4, 16)"),
            (np.zeros(64), "got (64,)"),  # one flat block, not a stack of them
            ([], "got (0,)"),
        ],
        ids=["generator", "ragged", "m-by-65", "m-by-4-by-16", "one-block", "empty-list"],
    )
    def test_input_must_be_a_stack_of_blocks(self, basis8, blocks, got):
        with pytest.raises(ValueError, match=r"^blocks must have shape \(m, 8, 8\) or \(m, 64\)") as err:
            solve_blocks(blocks, basis8)
        assert got in str(err.value)

    def test_row_i_is_block_i_solved_alone(self, basis64, regime_blocks):
        # every field, the diagnostics too, for 64-pixel blocks of every regime across three slices
        blocks = np.array(regime_blocks[:19])
        _assert_same(solve_blocks(blocks, basis64), _alone(blocks, basis64, SolverParams()))

    def test_a_float64_stack_is_not_copied(self, monkeypatch, basis8):
        blocks = np.random.default_rng(73).uniform(0, 255, (9, 8, 8))
        seen = []

        def record(flat, basis, params, work, out):
            seen.append(flat)
            out.alpha[:] = 0.0

        monkeypatch.setattr(admm, "_solve_slice", record)
        solve_blocks(blocks, basis8)
        assert [len(flat) for flat in seen] == [8, 1]
        assert all(np.shares_memory(flat, blocks) for flat in seen)

    @pytest.mark.parametrize("where", [0, 8])
    def test_non_finite_pixel_anywhere_raises(self, basis8, where):
        blocks = np.random.default_rng(67).uniform(0, 255, (9, 64))
        blocks[where, 5] = np.inf
        with pytest.raises(DivergenceError, match="non-finite values"):
            solve_blocks(blocks, basis8)

    def test_non_finite_iterate_raises(self, basis64):
        # pixels finite in the sweep's dtype whose products overflow in the first sweep:
        # float32 and float64 pixels near each one's largest value. solve_blocks refuses
        # such pixels before any sweep, so the float32 slice sweep is called directly.
        def huge(peak):
            f = np.full(4096, peak)
            f[::7] = -peak
            return f

        work = np.empty((admm._WORK_ROWS, BATCH_BLOCKS, 4096), np.float32)
        blocks = np.array([gen_block(SynthSpec(seed=3))[0].ravel(), huge(3e38)])
        with np.errstate(over="ignore", invalid="ignore"):
            for oracle, peak in ((reference_solve, 1e308), (scaled_solve, 3e38)):
                with pytest.raises(FloatingPointError, match="iteration 1$"):
                    oracle(huge(peak), basis64.atoms, SolverParams())
            with pytest.raises(DivergenceError, match="non-finite iterate at iteration 1$"):
                admm._solve_slice(blocks, admm._sweep_basis(basis64), SolverParams(), work, admm._unfilled(2, basis64))
        with pytest.raises(DivergenceError, match="PIXEL_BOUND"):
            solve_blocks(blocks, basis64)

    def test_overflowed_group_sum_raises(self, basis8):
        # a +-6e18 checkerboard: every pixel and every iterate stays finite in float32, far below
        # its largest value, but in sweep 3 a row's and a column's sum of squares pass it. The
        # frozen copy of the sweep, which does not check those sums, runs on with factor 1;
        # the solver raises at that sweep. solve_blocks refuses such pixels, so the float32
        # slice sweep is called directly.
        checker = np.where(np.indices((8, 8)).sum(axis=0) % 2, 6e18, -6e18).ravel()
        largest = float(np.finfo(np.float32).max)
        work = np.empty((admm._WORK_ROWS, BATCH_BLOCKS, 64), np.float32)
        for sweeps in (1, 2, 3):
            params = SolverParams(max_iters=sweeps)
            ref = scaled_solve(checker, basis8.atoms, params)
            state = ref["state"]
            for name in ("alpha", "beta", "w2", "g", "s", "w1", "v1", "v2", "u", "t_row", "t_col"):
                assert np.abs(getattr(state, name)).max() < 1e-15 * largest, (sweeps, name)
            t_row, t_col = state.t_row.astype(np.float64), state.t_col.astype(np.float64)
            peaks = ((t_row * t_row).sum(axis=1).max(), (t_col * t_col).sum(axis=0).max())
            if sweeps < 3:
                assert max(peaks) < largest, sweeps
                out = admm._unfilled(1, basis8)
                admm._solve_slice(checker[None], admm._sweep_basis(basis8), params, work, out)
                _assert_matches_reference(out, [ref])
            else:
                assert min(peaks) > largest
                assert state.row_factor.max() == state.col_factor.max() == 1.0
                with pytest.raises(DivergenceError, match="^row or column sum of squares overflowed float32 at iteration 3$"):
                    admm._solve_slice(checker[None], admm._sweep_basis(basis8), params, work, admm._unfilled(1, basis8))

    @pytest.mark.parametrize(
        "params", [SolverParams(lambda2=1e-50), SolverParams(rho=1e300)], ids=["lambda2", "rho"]
    )
    def test_thresholds_that_underflow_float32(self, basis8, params):
        # lambda2 / rho, and at rho = 1e300 every threshold, rounds to 0 in float32: a group
        # factor is then 1 for a slice with a nonzero norm and 0 for a zero one (the all-zero
        # block's rows and columns), where 1 - 0 / 0 would be NaN
        assert np.float32(params.lambda2 / params.rho) == 0
        blocks = np.random.default_rng(97).uniform(0, 255, (5, 64))
        blocks[2] = 0.0
        refs = [scaled_solve(f, basis8.atoms, params) for f in blocks]
        _assert_matches_reference(solve_blocks(blocks, basis8, params), refs)

    def test_residual_histories_per_block(self, basis64):
        # the residuals after k sweeps, read from runs of k sweeps
        exact = basis64.atoms[:, 0] * 8192.0  # settles long before max_iters
        synthetic = gen_block(SynthSpec(seed=9))[0]
        params = SolverParams(max_iters=60)
        batched = solve_blocks([exact, synthetic.ravel()], basis64, params)
        alone = _alone([exact, synthetic], basis64, params)
        refs = [scaled_solve(f, basis64.atoms, params) for f in (exact, synthetic)]
        _assert_same(batched, alone)
        _assert_matches_reference(batched, refs)
        _assert_residuals_match_history([exact, synthetic.ravel()], basis64, params, (1, 2, 17, 60))

    def test_working_memory_does_not_grow_with_block_count(self, basis64):
        # one (64, 64, 64) stack, made before tracing starts: solve_blocks reads it in place
        blocks = np.array([gen_block(SynthSpec(seed=i))[0] for i in range(64)])
        params = SolverParams(max_iters=2)

        def peak(batch):
            tracemalloc.start()
            try:
                solve_blocks(batch, basis64, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        outputs = 64 * (4096 + 10) * 8  # every block's s and alpha
        assert peak(blocks) - outputs <= 1.5 * peak(blocks[:8])


class TestSweep:
    """Invariants of the slice sweep on its preallocated work array."""

    @pytest.mark.parametrize("params", [SolverParams(), NON_DEFAULT], ids=["default", "penalties"])
    def test_sweep_allocates_no_pixel_sized_array(self, basis64, regime_blocks, params):
        # neither the sweeps nor the records: every sweep keeps y and z in their work rows, the
        # records' float64 scratch is the dead rows 0 to 3, and the basis is transposed and cast
        # once per solve_blocks call, not per slice
        sweep_basis = admm._sweep_basis(basis64)
        work = np.empty((admm._WORK_ROWS, BATCH_BLOCKS, basis64.n**2), np.float32)
        flat = np.reshape(regime_blocks[:8], (8, -1))
        out = admm._unfilled(8, basis64)
        tracemalloc.start()
        try:
            admm._solve_slice(flat, sweep_basis, dataclasses.replace(params, max_iters=4), work, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below one BATCH_BLOCKS x n*n row; the largest is the 64 KB buffer numpy casts the
        # float32 pair of y and z through for the float64 split gaps
        assert peak < work[0].nbytes, peak

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [64, 16])
    def test_records_on_a_reused_work_array(self, regime_blocks, dtype, n):
        # each sweep starts by forming U from the copies y and z the sweep before left in rows 5
        # and 6, which the slice zeroes before sweep 1, and the records use rows 0 to 3 as
        # scratch once the last sweep is done. A slice after another on the same work array, of
        # other blocks or of one block after eight, gets the records a fresh NaN-filled one
        # gives, also when its first sweep is its last
        basis = build_basis(n, 10)
        flat = np.concatenate([tile(f, n).blocks for f in regime_blocks[:17]])[:17].reshape(17, -1)
        shape = (admm._WORK_ROWS, BATCH_BLOCKS, n * n)
        sweep_basis = admm._sweep_basis(basis)
        for max_iters in (1, 2, 10):
            params = SolverParams(max_iters=max_iters)
            for first, second in ((flat[:8], flat[8:16]), (flat[:8], flat[16:])):
                work = np.empty(shape, dtype)
                admm._solve_slice(first, sweep_basis, params, work, admm._unfilled(len(first), basis))
                reused = admm._unfilled(len(second), basis)
                admm._solve_slice(second, sweep_basis, params, work, reused)
                fresh = admm._unfilled(len(second), basis)
                admm._solve_slice(second, sweep_basis, params, np.full(shape, np.nan, dtype), fresh)
                _assert_same(reused, fresh)

    @pytest.mark.parametrize("params", [SolverParams(), NON_DEFAULT], ids=["default", "penalties"])
    def test_work_array_alignment_changes_no_bits(self, regime_blocks, params):
        # the einsum and GEMM kernels may take other SIMD paths on unaligned rows: a work array
        # 16, 32 or 48 bytes past a cache line (where np.empty's land), or 4, 12 or 20, solves
        # each block to the bits solve_blocks' aligned one gives
        params = dataclasses.replace(params, max_iters=10)
        for n in (64, 16):
            basis = build_basis(n, 10)
            flat = np.concatenate([tile(f, n).blocks for f in regime_blocks[:13]])[:13].reshape(13, -1)
            expected = solve_blocks(flat, basis, params)
            shape = (admm._WORK_ROWS, BATCH_BLOCKS, n * n)
            size = int(np.prod(shape)) * 4
            raw = np.empty(size + 128, np.uint8)
            line = -raw.ctypes.data % 64
            for offset in (0, 4, 12, 16, 20, 32, 48):
                work = raw[line + offset : line + offset + size].view(np.float32).reshape(shape)
                assert work.ctypes.data % 64 == offset
                out, sweep_basis = admm._unfilled(len(flat), basis), admm._sweep_basis(basis)
                for i in range(0, len(flat), BATCH_BLOCKS):
                    admm._solve_slice(flat[i : i + BATCH_BLOCKS], sweep_basis, params, work, out.rows(i, i + BATCH_BLOCKS))
                _assert_same(out, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_sweep_calls_soft_twice_and_group_factor_once(self, monkeypatch, regime_blocks, dtype):
        # the benchmark's tracer counts the shrinkages by wrapping admm.soft by name, so the sweep
        # calls both helpers by name, each with a threshold _solve_slice has cast to the sweep's
        # dtype; one 64-pixel block tiles to 16 blocks of 16^2, two slices of 20 sweeps each
        basis = build_basis(16, 10)
        blocks = tile(regime_blocks[3], 16).blocks.reshape(16, -1)
        params = SolverParams(max_iters=20, workers=1)
        real = {"soft": admm.soft, "group_factor": admm.group_factor}
        calls = {name: [] for name in real}

        def recorder(name):
            def record(x, lam, **out):
                before = x.copy()
                got = real[name](x, lam, **out)
                calls[name].append((before, lam, got.copy()))
                return got

            return record

        def solve():
            if dtype is np.float32:
                return solve_blocks(blocks, basis, params)
            return _solve_in(np.float64, blocks, basis, params)

        for name in real:
            monkeypatch.setattr(admm, name, recorder(name))
        recorded = solve()
        monkeypatch.undo()
        _assert_same(recorded, solve())
        assert (len(calls["soft"]), len(calls["group_factor"])) == (2 * 2 * 20, 2 * 20)
        for name, records in calls.items():
            for x, lam, got in records:
                assert x.dtype == dtype and type(lam) is dtype, name
                again = real[name](x.copy(), lam)
                assert again.dtype == dtype and np.array_equal(again.view(np.uint8), got.view(np.uint8)), name

    @pytest.mark.parametrize("n", [64, 8])
    def test_work_array_starts_on_a_cache_line(self, monkeypatch, n):
        # whatever the heap did before: each solve between allocations of other sizes
        offsets = []
        real_solve_slice = admm._solve_slice

        def recording(flat, basis, params, work, out):
            assert work.shape == (admm._WORK_ROWS, BATCH_BLOCKS, n * n) and work.dtype == np.float32
            offsets.append(work.ctypes.data % 64)
            return real_solve_slice(flat, basis, params, work, out)

        monkeypatch.setattr(admm, "_solve_slice", recording)
        basis = build_basis(n, 3)
        blocks = np.random.default_rng(83).uniform(0, 255, (3, n * n))
        held = []
        for i in range(60):
            held.append(np.empty(8 * n * n + 24 * i + 8, np.uint8))
            if i % 3 == 0:
                del held[0]
            solve_blocks(blocks, basis, SolverParams(max_iters=1))
        assert offsets == [0] * 60


class TestTextbookAgreement:
    """The scaled-form sweep against the textbook one (reference_solve).

    The two are the same iteration in exact arithmetic; rounding differs,
    because the scaled form divides every step by rho, takes B'(f - s) from
    the last dual update and sums the group terms in another order. Both run
    in float64 here: the solver's sweep through _solve_in, the same code on a
    float64 work array (TestFloat32Sweep bounds what float32 changes).
    On these blocks, over every penalty case below, the differences measured
    at most 1.8e-15 in relative alpha, 1.4e-12 in s, 3.5e-16 in the primal
    residual and 3.3e-13 in the group gaps.
    """

    ALPHA_REL = 1e-13  # max |d alpha| over max |alpha|
    S_ABS = 1e-10  # max |d s|, in gray levels, as are the group gaps
    PRIMAL_ABS = 1e-14  # the primal residual is relative to ||f|| already

    @pytest.fixture(scope="class", params=[64, 32], ids=["n64", "n32"])
    def case(self, request, regime_blocks):
        """(basis, blocks): the regime blocks whole, or the first four's 32-pixel quadrants."""
        n = request.param
        if n == 64:
            return build_basis(64, 10), regime_blocks[:8]
        quads = [b[r : r + 32, c : c + 32] for b in regime_blocks[:4] for r in (0, 32) for c in (0, 32)]
        return build_basis(32, 10), quads

    @pytest.mark.parametrize("params", PENALTY_CASES.values(), ids=PENALTY_CASES)
    def test_agrees_with_textbook_sweep(self, case, params):
        basis, blocks = case
        dec = _solve_in(np.float64, blocks, basis, params)
        for i, f in enumerate(blocks):
            ref = reference_solve(f, basis.atoms, params)
            s = dec.s[i].ravel()
            # masks at the default fg_threshold of one gray level
            np.testing.assert_array_equal(np.abs(s) > 1.0, np.abs(ref["s"]) > 1.0, err_msg=f"block {i} mask")
            assert np.abs(dec.alpha[i] - ref["alpha"]).max() <= self.ALPHA_REL * np.abs(ref["alpha"]).max(), i
            assert np.abs(s - ref["s"]).max() <= self.S_ABS, i
            primal, coef_gap, row_gap, col_gap = ref["history"][-1]
            assert abs(dec.primal_residual[i] - primal / np.linalg.norm(f)) <= self.PRIMAL_ABS, i
            coef, row, col = dec.split_residuals[i]
            assert abs(coef - coef_gap) <= self.ALPHA_REL * np.abs(ref["alpha"]).max(), i
            assert abs(row - row_gap) <= self.S_ABS, i
            assert abs(col - col_gap) <= self.S_ABS, i


class TestFloat32Sweep:
    """The float32 sweep of solve_blocks against the same code run in float64.

    Eight blocks of each regime, seeds 500-507. Measured: max |d s| 6.8e-4
    gray levels (k_true=15 at 200 sweeps, 2.0e-4 at 50; at most 4.6e-5 on
    the other regimes), and the smallest float64 margin ||s| - fg_threshold|
    9.8e-5 (k_true=15 at 200 sweeps), so the masks could differ but do not.
    """

    S_ABS = 3e-3  # 4x the largest measured |d s|, three decades below fg_threshold's 1.0
    REGIMES = {
        "default": SynthSpec(),
        "amplitude10": SynthSpec(stroke_amplitude=10.0),
        "amplitude5": SynthSpec(stroke_amplitude=5.0),
        "k15": SynthSpec(k_true=15),
        "diagonal": SynthSpec(diagonal_strokes=True),
    }

    @pytest.mark.parametrize("sweeps", [50, 200])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_same_masks_as_float64(self, basis64, regime, sweeps):
        blocks = [gen_block(dataclasses.replace(self.REGIMES[regime], seed=500 + i))[0] for i in range(8)]
        params = SolverParams(max_iters=sweeps)
        single = _solve_in(np.float32, blocks, basis64, params)
        _assert_same(single, solve_blocks(blocks, basis64, params))
        threshold = SegmentationConfig().fg_threshold
        double = _solve_in(np.float64, blocks, basis64, params)
        for i, (a, b) in enumerate(zip(single.s, double.s)):
            np.testing.assert_array_equal(np.abs(a) > threshold, np.abs(b) > threshold, err_msg=f"block {i}")
            assert np.abs(a - b).max() <= self.S_ABS, i


@pytest.fixture()
def cpus(monkeypatch):
    """Set the usable CPU count solve_blocks sees; returns the setter."""

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    set_cpus(8)  # on any host, `workers` sets the process count
    return set_cpus


@pytest.fixture()
def forks(monkeypatch):
    """Count the processes solve_blocks forks."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _index_slices(monkeypatch, fail=(), exits=None, slices=3):
    """Replace the slice solver by one that writes each block's first pixel as its primal residual.

    Blocks are filled with their index. A slice whose first block is in
    `fail` raises in every process; a child that solves a slice whose first
    block is a key of `exits` ends with that exit status (negative: killed
    by that signal), and the caller solves the slice as usual.
    """
    parent = os.getpid()
    exits = exits or {}

    def fake(flat, basis, params, work, out):
        first = int(flat[0][0])
        if first in exits and os.getpid() != parent:
            if exits[first] < 0:
                os.kill(os.getpid(), -exits[first])
            os._exit(exits[first])
        if first in fail:
            raise ValueError(f"slice at block {first}")
        out.primal_residual[:] = flat[:, 0]

    monkeypatch.setattr(admm, "_solve_slice", fake)
    return [np.full(64, float(i)) for i in range(slices * BATCH_BLOCKS)]


@pytest.mark.usefixtures("no_child_or_fd_left")
class TestWorkers:
    """solve_blocks with params.workers > 1: slices solved here and in solver children kept across calls.

    Each test starts with no children; after it, and a pool teardown, no
    child process and no file descriptor it opened may be left.
    """

    @pytest.fixture(scope="class")
    def serial(self, basis64, regime_blocks):
        return solve_blocks(regime_blocks, basis64)

    @pytest.mark.parametrize("count", [0, 1, 9, 17, 24])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_bit_identical_to_one_process(
        self, basis64, regime_stack, regime_refs, serial, cpus, forks, workers, count
    ):
        # the first call forks the children it needs, and the second reuses them
        children = max(min(workers, -(-count // BATCH_BLOCKS)) - 1, 0)
        for _ in range(2):
            decs = solve_blocks(regime_stack[:count], basis64, SolverParams(workers=workers))
            _assert_same(decs, serial.rows(0, count))
            _assert_matches_reference(decs, regime_refs[:count])
            assert len(forks) == children == len(admm._pool)

    def test_sweep_basis_is_made_once_before_any_fork(self, monkeypatch, basis64, regime_stack, serial, cpus, forks):
        # each call transposes and casts the basis once, before any child is forked: the
        # caller's slices read that one object, and a child's slices, in every call it serves,
        # the very object of the call that forked it. A child's list of bases made ends at its
        # fork, so in every process the last one is the one to read (a child's failed check
        # exits 1, which fails the call). The third call, with other params, replaces both
        # children, which then read its basis. Its float64 B' is a view of the atoms, not a copy
        made = []
        real_sweep_basis, real_solve_slice = admm._sweep_basis, admm._solve_slice
        short = solve_blocks(regime_stack[:24], basis64, SolverParams(max_iters=7))

        def recording(basis):
            made.append((len(forks), real_sweep_basis(basis)))
            return made[-1][1]

        def reading(flat, basis, params, work, out):
            if basis is not made[-1][1]:
                raise AssertionError("a slice read another basis than the one made by its call or its fork's")
            real_solve_slice(flat, basis, params, work, out)

        monkeypatch.setattr(admm, "_sweep_basis", recording)
        monkeypatch.setattr(admm, "_solve_slice", reading)
        for _ in range(2):
            dec = solve_blocks(regime_stack[:24], basis64, SolverParams(workers=3))
            _assert_same(dec, serial.rows(0, 24))
        _assert_same(solve_blocks(regime_stack[:24], basis64, SolverParams(max_iters=7, workers=3)), short)
        assert [forked for forked, _ in made] == [0, 2, 2] and len(forks) == 4
        assert made[0][1] is not made[1][1]
        assert all(np.shares_memory(sweep.atoms_t, basis64.atoms) for _, sweep in made)

    def test_forked_result_is_an_ordinary_decomposition(self, basis64, regime_stack, serial, cpus, forks):
        # its arrays are the caller's own, with the children's rows copied in: they own their
        # memory, share none with a child's slot, stay writable and valid after the call,
        # pickle by value, and belong to this call's result alone
        params = SolverParams(workers=2)
        dec = solve_blocks(regime_stack[:17], basis64, params)
        names = [field.name for field in dataclasses.fields(Decomposition)]
        assert all(getattr(dec, name).flags.writeable and getattr(dec, name).flags.owndata for name in names)
        slot = np.frombuffer(admm._pool[0].slot, np.uint8)
        assert not any(np.shares_memory(getattr(dec, name), slot) for name in names)
        del slot
        copy = pickle.loads(pickle.dumps(dec))
        assert all(np.array_equal(getattr(copy, name), getattr(dec, name)) for name in names)
        rows = dec.rows(9, 17)
        del dec, copy
        gc.collect()
        _assert_same(rows, serial.rows(9, 17))
        other = solve_blocks(regime_stack[:17], basis64, params)
        _assert_same(other.rows(9, 17), rows)
        assert not any(np.shares_memory(getattr(rows, name), getattr(other, name)) for name in names)
        assert len(forks) == 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_residual_histories(self, basis8, cpus, forks, workers):
        # the residuals after k sweeps, read from runs of k sweeps in `workers` processes
        blocks = list(np.random.default_rng(71).uniform(0, 255, (24, 64)))
        for at, scale in ((3, 512.0), (11, 2000.0), (19, 512.0)):  # one smooth block per slice
            blocks[at] = basis8.atoms[:, 0] * scale
        params = SolverParams(max_iters=200)
        decs = solve_blocks(blocks, basis8, dataclasses.replace(params, workers=workers))
        _assert_same(decs, solve_blocks(blocks, basis8, params))
        refs = [scaled_solve(f, basis8.atoms, params) for f in blocks]
        _assert_matches_reference(decs, refs)
        sweeps = (1, 5, 50, 200)
        _assert_residuals_match_history(blocks, basis8, dataclasses.replace(params, workers=workers), sweeps)
        # each history call runs another max_iters than the call before it, so it replaces the children
        assert len(forks) == (1 + len(sweeps)) * (workers - 1)

    def test_divergence_in_a_child_slice(self, monkeypatch, basis64, regime_blocks, cpus, forks):
        # no pixel within PIXEL_BOUND overflows, so the bound is lifted to let one through
        monkeypatch.setattr(admm, "PIXEL_BOUND", np.inf)
        huge = np.full(4096, 3e38)
        huge[::7] = -3e38
        blocks = list(regime_blocks[:BATCH_BLOCKS]) + [huge.reshape(64, 64)]  # only the child's slice overflows
        messages = []
        with np.errstate(over="ignore", invalid="ignore"):
            for workers in (1, 2):
                with pytest.raises(DivergenceError) as err:
                    solve_blocks(blocks, basis64, SolverParams(workers=workers))
                messages.append(str(err.value))
        assert messages == ["non-finite iterate at iteration 1"] * 2
        assert len(forks) == 1
        assert admm._pool == []  # the child's failure dropped the pool
        _assert_no_children()

    # 100000 workers on 2 usable CPUs start one child, never more
    @pytest.mark.parametrize("usable, workers, children", [(8, 3, 2), (2, 100000, 1)])
    def test_results_in_input_order(self, monkeypatch, cpus, forks, usable, workers, children):
        cpus(usable)
        blocks = _index_slices(monkeypatch)
        dec = solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=workers))
        assert dec.primal_residual.tolist() == list(range(24))
        assert len(forks) == children == len(admm._pool)

    # each case is (the slices that raise in every process, {slice: the status its child exits with}),
    # slices named by their first block; the last mixes the two
    @pytest.mark.parametrize("fail", [({0}, {}), ({8}, {}), ({16}, {}), ({8, 16}, {}), ({0, 16}, {}), ({16}, {8: 3})])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_raises_error_of_earliest_failing_slice(self, monkeypatch, cpus, workers, fail):
        # a failing slice in a child, or a child exiting, makes the caller solve the whole call
        # again, which raises at the earliest slice that raises in every process; the caller
        # takes slices from the front, so an error in its own slice is the earliest
        raising, exits = fail
        blocks = _index_slices(monkeypatch, fail=raising, exits=exits)
        with pytest.raises(ValueError, match=f"^slice at block {min(raising)}$"):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=workers))
        assert admm._pool == []
        _assert_no_children()

    @pytest.mark.parametrize("status", [3, -signal.SIGKILL])
    def test_child_without_result_names_its_exit_status(self, monkeypatch, cpus, status):
        # children take slices from the back, so the last one is a child's
        blocks = _index_slices(monkeypatch, exits={16: status})
        with pytest.raises(RuntimeError, match=f"exited with status {status} without a result"):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=2))
        assert admm._pool == []
        _assert_no_children()

    def test_a_job_sent_to_an_exited_child_is_dropped(self, monkeypatch, cpus):
        # the child replies for its first slice (56) and exits 3 on its second (48); the caller
        # waits for that reply in its first slice, and its next job write waits for the child to
        # exit, so it meets a pipe with no reader: the caller drops the job and reads the EOF
        blocks = _index_slices(monkeypatch, exits={6 * BATCH_BLOCKS: 3}, slices=8)
        parent, index_slice, real_write = os.getpid(), admm._solve_slice, os.write
        jobs, broken = [], []

        def fake(flat, basis, params, work, out):
            if os.getpid() == parent and admm._pool and flat[0][0] == 0:
                assert select.select([admm._pool[0].done], [], [], 60)[0]
            index_slice(flat, basis, params, work, out)

        def write(fd, data):
            if os.getpid() == parent and admm._pool and fd == admm._pool[0].jobs:
                jobs.append(data)
                if len(jobs) == 3:
                    os.waitid(os.P_PID, admm._pool[0].pid, os.WEXITED | os.WNOWAIT)
            try:
                return real_write(fd, data)
            except BrokenPipeError:
                broken.append(len(jobs))
                raise

        monkeypatch.setattr(admm, "_solve_slice", fake)
        monkeypatch.setattr(os, "write", write)
        with pytest.raises(RuntimeError, match="exited with status 3 without a result"):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=2))
        assert len(jobs) == 3 and broken == [3]
        assert admm._pool == []
        _assert_no_children()

    def test_run_failing_only_in_its_child_names_exit_status_1(self, monkeypatch, cpus):
        # the child's slice raises and the child exits 1; solved again in the caller, the call completes
        blocks = _index_slices(monkeypatch)
        parent, index_slice = os.getpid(), admm._solve_slice

        def fake(flat, basis, params, work, out):
            if os.getpid() != parent:
                raise ValueError(lambda: None)
            index_slice(flat, basis, params, work, out)

        monkeypatch.setattr(admm, "_solve_slice", fake)
        with pytest.raises(RuntimeError, match="exited with status 1 without a result"):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=2))
        assert admm._pool == []
        _assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_error_raised_in_every_process_reaches_the_caller_unchanged(self, monkeypatch, cpus, forks, workers):
        # slice 8's run raises an error holding a lambda in every process: the caller raises it itself
        blocks = _index_slices(monkeypatch)
        index_slice = admm._solve_slice

        def fake(flat, basis, params, work, out):
            if flat[0][0] == 8:
                raise ValueError(lambda: None)
            index_slice(flat, basis, params, work, out)

        monkeypatch.setattr(admm, "_solve_slice", fake)
        with pytest.raises(ValueError) as err:
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=workers))
        assert len(err.value.args) == 1 and callable(err.value.args[0])
        assert len(forks) == workers - 1
        assert admm._pool == []
        _assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_interrupted_wait_kills_and_reaps_the_children(self, monkeypatch, cpus, forks, workers):
        # the caller's first wait for a child's reply is interrupted: every child, busy or not,
        # is killed and reaped, and the pool dropped
        blocks = _index_slices(monkeypatch)
        real_read, parent = os.read, os.getpid()
        calls = []

        def read(fd, size):
            if os.getpid() == parent:
                calls.append(fd)
                if len(calls) == 1:
                    raise KeyboardInterrupt
            return real_read(fd, size)

        monkeypatch.setattr(os, "read", read)
        with pytest.raises(KeyboardInterrupt):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=workers))
        assert len(forks) == workers - 1 and len(calls) == 1
        assert admm._pool == []
        _assert_no_children()

    def test_interrupted_reap_leaves_the_child_in_the_pool(self, monkeypatch, cpus, forks):
        # an interrupt, then a second one in the wait for the killed child: the child stays in
        # the pool, and the next teardown reaps it, so no zombie is left
        blocks = _index_slices(monkeypatch)
        real_read, real_waitpid, parent = os.read, os.waitpid, os.getpid()

        def read(fd, size):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real_read(fd, size)

        def waitpid(pid, options):
            monkeypatch.setattr(os, "waitpid", real_waitpid)
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "read", read)
        monkeypatch.setattr(os, "waitpid", waitpid)
        with pytest.raises(KeyboardInterrupt):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=2))
        assert len(admm._pool) == len(forks) == 1  # killed, not yet reaped
        admm._end_pool()
        _assert_no_children()

    def test_child_killed_before_reporting_names_its_exit_status(self, monkeypatch, cpus):
        # the child solves its one slice into its slot and is killed before it replies: the
        # call raises, after the caller has solved every row again itself
        blocks = _index_slices(monkeypatch)[: 2 * BATCH_BLOCKS]
        parent, index_slice, real_unfilled = os.getpid(), admm._solve_slice, admm._unfilled
        made = []

        def fake(flat, basis, params, work, out):
            index_slice(flat, basis, params, work, out)
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        def recording(*args, **kwargs):
            made.append(real_unfilled(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(admm, "_solve_slice", fake)
        monkeypatch.setattr(admm, "_unfilled", recording)
        with pytest.raises(RuntimeError, match=f"exited with status {-signal.SIGKILL} without a result"):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=2))
        assert admm._pool == []
        _assert_no_children()
        assert len(made) == 1 and made[0].primal_residual.tolist() == list(range(2 * BATCH_BLOCKS))

    def test_failed_fork_kills_the_children_started(self, monkeypatch, cpus):
        blocks = _index_slices(monkeypatch)
        real_fork = os.fork
        calls = []

        def fork():  # the second of two forks fails
            calls.append(os.getpid())
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as err:
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=3))
        assert err.value.errno == errno.EAGAIN
        assert len(calls) == 2
        assert admm._pool == []
        _assert_no_children()  # the first child is killed and reaped
        assert sorted(os.listdir("/proc/self/fd")) == fds  # no file descriptor is left open

    @pytest.mark.parametrize("workers, count", [(1, 0), (1, 1), (1, 3 * BATCH_BLOCKS), (2, BATCH_BLOCKS)])
    def test_a_one_process_call_never_waits_without_a_timeout(
        self, monkeypatch, basis64, regime_stack, regime_refs, cpus, forks, workers, count
    ):
        # with no child to reply, a wait would never return: a call that solves every slice
        # itself makes no poll, so it has nothing to wait on
        def poll():
            raise AssertionError("a call with no child made a poll")

        monkeypatch.setattr(select, "poll", poll)
        dec = solve_blocks(regime_stack[:count], basis64, SolverParams(workers=workers))
        _assert_matches_reference(dec, regime_refs[:count])
        assert forks == [] and admm._pool == []

    def test_process_count_clamp(self, monkeypatch, cpus):
        cpus(2)
        assert admm._process_count(100000, 50) == 2
        assert admm._process_count(3, 1) == 1
        assert admm._process_count(3, 0) == 1
        assert admm._process_count(1, 50) == 1
        cpus(8)
        assert admm._process_count(3, 2) == 2
        assert admm._process_count(3, 24) == 3
        for platform in ("darwin", "win32"):  # fork only where it is tested
            monkeypatch.setattr(sys, "platform", platform)
            assert admm._process_count(3, 24) == 1


# Ends the solver's process normally, by an uncaught exception or by SIGKILL, once it holds three
# solver children; prints their pids first.
LIFECYCLE_SCRIPT = """\
import os, signal, sys
import numpy as np
os.sched_getaffinity = lambda pid: set(range(8))
from scseg import SolverParams, admm, build_basis, solve_blocks
solve_blocks(np.random.default_rng(5).uniform(0, 255, (32, 64)), build_basis(8, 3), SolverParams(workers=4))
print(*[child.pid for child in admm._pool], flush=True)
if sys.argv[1] == "exception":
    raise RuntimeError("uncaught")
if sys.argv[1] == "sigkill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether process pid exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def _pipe(fd: int, pid="self") -> str:
    """The pipe (or other file) that file descriptor fd of process pid refers to, as /proc names it."""
    return os.readlink(f"/proc/{pid}/fd/{fd}")


@pytest.mark.usefixtures("no_child_or_fd_left")
class TestSolverPool:
    """The solver children outlive a call: reused with every bit kept, replaced, dropped and ended."""

    def test_reused_children_keep_every_bit(self, basis64, regime_stack, cpus, forks):
        # alternating calls at workers 2 and 3 over block sides, atom counts, params and a basis
        # whose atoms are permuted; the letters name the pool's children after each call, in
        # order: a call with the same basis and params (a new but equal basis too) reuses the
        # pool and forks only the children it lacks, and a call with another basis or other
        # params ends the whole pool, idle children too, and forks a new one
        rng = np.random.default_rng(97)
        basis16 = build_basis(16, 10)
        perm = [3, 0, 9, 5, 1, 8, 2, 7, 4, 6]
        permuted = BasisMatrix(16, 10, basis16.atoms[:, perm], tuple(basis16.freq_pairs[i] for i in perm))
        stacks = {n: rng.uniform(0, 255, (24, n, n)) for n in (16, 5)}
        stacks[64] = regime_stack
        calls = [
            (2, basis64, SolverParams(), "A"),
            (3, build_basis(64, 10), SolverParams(), "AB"),
            (2, build_basis(16, 28), SolverParams(rho=0.3), "C"),
            (3, build_basis(16, 28), SolverParams(rho=0.3), "CD"),
            (2, build_basis(5, 10), SolverParams(max_iters=7), "E"),
            (3, basis64, SolverParams(lambda2=7.5), "FG"),
            (2, build_basis(64, 28), SolverParams(lambda1=np.float32(5.0), rho=1.7), "H"),
            (3, build_basis(64, 28), SolverParams(lambda1=np.float32(5.0), rho=1.7), "HI"),
            (2, basis16, SolverParams(), "J"),
            (3, permuted, SolverParams(), "KL"),
            (3, build_basis(64, 28), SolverParams(max_iters=7), "MN"),
        ]
        names = {}
        for workers, basis, params, pool in calls:
            blocks = stacks[basis.n]
            dec = solve_blocks(blocks, basis, dataclasses.replace(params, workers=workers))
            _assert_same(dec, solve_blocks(blocks, basis, params))
            pids = [child.pid for child in admm._pool]
            for name, pid in zip(pool, pids, strict=True):
                assert names.setdefault(name, pid) == pid, (pool, name)
            assert len(set(names.values())) == len(names) == len(forks)

    def test_a_weight_equal_to_a_float_solves_as_it_and_keeps_its_children(self, basis64, regime_stack, cpus, forks):
        # over rho 1.3, 5 / 1.3 rounds to other bits in float32 than in float64: SolverParams
        # keeps each weight as the equal Python float, so weights of another type give the
        # float's bytes, and the child forked for the float serves them all
        floats = SolverParams(lambda1=5.0, lambda2=2.0, rho=1.3)
        first = solve_blocks(regime_stack[:16], basis64, dataclasses.replace(floats, workers=2))
        _assert_same(solve_blocks(regime_stack[:16], basis64, floats), first)
        for kind in (np.float32, np.float16, np.longdouble, Fraction):
            params = SolverParams(lambda1=kind(5), lambda2=kind(2), rho=1.3)
            assert params == floats and type(params.lambda1) is type(params.lambda2) is float, kind
            _assert_same(solve_blocks(regime_stack[:16], basis64, dataclasses.replace(params, workers=2)), first)
            _assert_same(solve_blocks(regime_stack[:16], basis64, params), first)
            assert len(forks) == len(admm._pool) == 1, kind

    def test_a_call_differing_only_in_workers_forks_nothing(self, basis64, regime_stack, cpus, forks):
        serial = solve_blocks(regime_stack[:24], basis64)
        for workers in (3, 2, 3):
            _assert_same(solve_blocks(regime_stack[:24], basis64, SolverParams(workers=workers)), serial)
            assert len(forks) == len(admm._pool) == 2

    def test_reused_children_cost_no_copy_of_the_basis(self, monkeypatch, basis64, regime_stack, cpus, forks):
        # a child keeps the bytes of the B' it was forked with, and each later call compares its
        # own B' with them in place: finding the children, a call that reuses them allocates
        # nothing as large as B' (320 KiB at n = 64, k = 10), though each brings a new but
        # equal basis, as segment_images does
        serial = solve_blocks(regime_stack[:16], basis64)
        _assert_same(solve_blocks(regime_stack[:16], basis64, SolverParams(workers=2)), serial)
        peaks, real_pool_children = [], admm._pool_children

        def traced(count, basis, params):
            tracemalloc.start()
            try:
                children = real_pool_children(count, basis, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
                return children
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(admm, "_pool_children", traced)
        for _ in range(3):
            _assert_same(solve_blocks(regime_stack[:16], build_basis(64, 10), SolverParams(workers=2)), serial)
        assert len(peaks) == 3 and max(peaks) < basis64.atoms.nbytes, peaks
        assert len(forks) == len(admm._pool) == 1

    def test_a_permuted_basis_replaces_the_children(self, cpus, forks):
        # the same side and atom count, the same atoms in another order
        basis = build_basis(16, 10)
        perm = [3, 0, 9, 5, 1, 8, 2, 7, 4, 6]
        permuted = BasisMatrix(16, 10, basis.atoms[:, perm], tuple(basis.freq_pairs[i] for i in perm))
        blocks = np.random.default_rng(13).uniform(0, 255, (16, 16, 16))
        decs = []
        for forked, b in enumerate((basis, permuted), start=1):
            decs.append(solve_blocks(blocks, b, SolverParams(workers=2)))
            _assert_same(decs[-1], solve_blocks(blocks, b))
            assert len(forks) == forked and len(admm._pool) == 1
        assert not np.array_equal(decs[0].alpha, decs[1].alpha)

    def test_calls_from_threads_take_turns(self, basis64, regime_stack, cpus, forks):
        # the pool is forked before the threads start; then four threads, more than the cores,
        # share it one call at a time, switching as often as the interpreter allows
        params = SolverParams(workers=3)
        serial = solve_blocks(regime_stack, basis64)
        solve_blocks(regime_stack, basis64, params)
        results = []

        def run(count):
            for _ in range(3):
                results.append((count, solve_blocks(regime_stack[:count], basis64, params)))

        # daemon threads, so that calls which deadlock fail the test and do not hang the exit
        threads = [threading.Thread(target=run, args=(count,), daemon=True) for count in (24, 17, 9, 24)]
        interval, deadline = sys.getswitchinterval(), time.monotonic() + 120
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(deadline - time.monotonic(), 0))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(results) == 12
        for count, dec in results:
            _assert_same(dec, serial.rows(0, count))
        assert len(forks) == len(admm._pool) == 2

    def test_a_one_process_call_leaves_the_pool_alone(self, basis8, cpus, forks):
        # another basis or other params would replace the children at workers > 1; a call of
        # one process runs the slice loop with no children, and forks and ends nothing
        blocks = np.random.default_rng(7).uniform(0, 255, (2 * BATCH_BLOCKS, 64))
        solve_blocks(blocks, basis8, SolverParams(workers=2))
        pids = [child.pid for child in admm._pool]
        assert len(forks) == len(pids) == 1
        calls = [
            (build_basis(8, 5), SolverParams(), len(blocks)),
            (basis8, SolverParams(max_iters=7), len(blocks)),
            (build_basis(8, 5), SolverParams(max_iters=7, workers=2), BATCH_BLOCKS),  # one slice: one process
        ]
        for basis, params, count in calls:
            dec = solve_blocks(blocks[:count], basis, params)
            _assert_matches_reference(dec, [scaled_solve(f, basis.atoms, params) for f in blocks[:count]])
            assert len(forks) == 1 and [child.pid for child in admm._pool] == pids

    def test_pool_never_exceeds_the_usable_cpus_less_one(self, cpus, forks):
        blocks, basis = np.random.default_rng(5).uniform(0, 255, (32, 64)), build_basis(8, 3)
        # nothing forks at workers 1 or for a call of one slice
        solve_blocks(blocks, basis, SolverParams(workers=1))
        solve_blocks(blocks[:BATCH_BLOCKS], basis, SolverParams(workers=4))
        assert forks == [] and admm._pool == []
        solve_blocks(blocks, basis, SolverParams(workers=4))
        first = [child.pid for child in admm._pool]
        assert len(first) == 3
        cpus(2)  # the next call ends the children past the one that 2 usable CPUs leave
        solve_blocks(blocks, basis, SolverParams(workers=4))
        assert [child.pid for child in admm._pool] == first[:1] and len(forks) == 3

    def test_no_child_holds_a_siblings_pipe(self, cpus):
        # a child forked after its siblings inherits the caller's ends of their pipes and closes
        # them, so that the caller's death reaches every child as EOF
        def check():
            for child in admm._pool:
                held = {_pipe(fd, child.pid) for fd in os.listdir(f"/proc/{child.pid}/fd")}
                assert held == {_pipe(child.jobs), _pipe(child.done)}  # its own two ends, nothing else
                siblings = {_pipe(fd) for other in admm._pool if other is not child for fd in (other.jobs, other.done)}
                assert not held & siblings

        rng = np.random.default_rng(5)
        solve_blocks(rng.uniform(0, 255, (32, 64)), build_basis(8, 3), SolverParams(workers=4))
        assert len(admm._pool) == 3
        check()
        first = [child.pid for child in admm._pool]
        solve_blocks(rng.uniform(0, 255, (24, 256)), build_basis(16, 10), SolverParams(workers=3))
        assert [child.pid in first for child in admm._pool] == [False, False]  # all three ended, two forked
        check()

    def test_a_pipe_opened_before_the_first_call_reaches_eof(self, basis64, regime_stack, cpus):
        # a child keeps none of the caller's descriptors, so closing a write end the caller
        # held when the child was forked still ends the pipe
        read_end, write_end = os.pipe()
        try:
            solve_blocks(regime_stack[:16], basis64, SolverParams(workers=2))
            assert len(admm._pool) == 1
            os.close(write_end)
            write_end = None
            assert select.select([read_end], [], [], 60)[0] == [read_end]
            assert os.read(read_end, 1) == b""
        finally:
            for fd in (read_end, write_end):
                if fd is not None:
                    os.close(fd)

    def test_a_child_killed_while_idle_is_replaced(self, basis64, regime_stack, cpus, forks):
        # a child that dies between calls is reaped at the next call, which forks a new one
        params = SolverParams(workers=2)
        serial = solve_blocks(regime_stack[:16], basis64)
        _assert_same(solve_blocks(regime_stack[:16], basis64, params), serial)
        killed = admm._pool[0].pid
        os.kill(killed, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while _running(killed) and time.monotonic() < deadline:
            time.sleep(0.01)
        _assert_same(solve_blocks(regime_stack[:16], basis64, params), serial)
        assert len(forks) == 2 and len(admm._pool) == 1 and admm._pool[0].pid != killed

    def test_a_forked_process_drops_the_inherited_pool(self, basis64, regime_stack, cpus, forks):
        params = SolverParams(workers=2)
        serial = solve_blocks(regime_stack[:16], basis64)
        solve_blocks(regime_stack[:16], basis64, params)
        pool = list(admm._pool)
        fds = [fd for child in pool for fd in (child.jobs, child.done)]
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                closed = []
                for fd in fds:
                    try:
                        os.fstat(fd)
                    except OSError as err:
                        closed.append(err.errno == errno.EBADF)
                assert closed == [True] * len(fds) and admm._pool == []
                # its own call forks its own child, and gives the same bits
                _assert_same(solve_blocks(regime_stack[:16], basis64, params), serial)
                assert len(admm._pool) == 1 and admm._pool[0].pid != pool[0].pid
                admm._end_pool()
                status = 0
            finally:
                os._exit(status)
        deadline = time.monotonic() + 300
        while not (status := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0
        # the parent's pool still serves its next call
        _assert_same(solve_blocks(regime_stack[:16], basis64, params), serial)
        assert admm._pool == pool and len(forks) == 2  # the pool's child and the process forked here

    @pytest.mark.parametrize("how, returncode", [("normal", 0), ("exception", 1), ("sigkill", -signal.SIGKILL)])
    def test_children_end_with_their_process(self, how, returncode):
        # normally and on an uncaught exception the exit hook kills and reaps the children;
        # after SIGKILL each child reads EOF and exits, and is reaped by init
        package_root = os.path.dirname(os.path.dirname(admm.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", LIFECYCLE_SCRIPT, how], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.returncode == returncode, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 3
        if how != "sigkill":
            assert not any(os.path.exists(f"/proc/{pid}") for pid in pids)  # reaped before the exit
        deadline = time.monotonic() + 60
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))


@pytest.mark.usefixtures("no_child_or_fd_left")
class TestInputBound:
    """solve_blocks solves pixels up to PIXEL_BOUND and refuses any beyond it before any sweep.

    Library-level: a PNM sample has at most 16 bits, far below the bound.
    """

    # With lambda2 on the pixels' scale the group step shrinks, so a sum of squares that
    # overflowed float32 (its factor then 1, not 0) would show in s: a bound of 2**60
    # gives max |d s| 3.4 x the bound there.
    @pytest.mark.parametrize("lambda2", [2.0, 10 * PIXEL_BOUND], ids=["default", "at-scale"])
    def test_blocks_at_the_bound_solve(self, basis64, cpus, forks, lambda2):
        rng = np.random.default_rng(89)
        rows, cols = np.indices((64, 64))
        signs = [np.ones((64, 64)), np.where((rows + cols) % 2, 1.0, -1.0), np.where(rows % 2, 1.0, -1.0),
                 np.where(cols < 32, 1.0, -1.0), rng.choice([-1.0, 1.0], (64, 64)), rng.uniform(-1, 1, (64, 64))]
        blocks = [PIXEL_BOUND * sign for sign in signs] + [-PIXEL_BOUND * sign for sign in signs]
        assert max(np.abs(b).max() for b in blocks) == PIXEL_BOUND
        params = SolverParams(max_iters=200, lambda2=lambda2, workers=2)
        dec = solve_blocks(blocks, basis64, params)  # two slices, one in a child
        ref = _solve_in(np.float64, blocks, basis64, params)
        objectives = objective(dec.alpha, dec.s, params)
        for i in range(len(blocks)):
            assert np.isfinite(dec.alpha[i]).all() and np.isfinite(dec.s[i]).all(), i
            assert np.isfinite([dec.primal_residual[i], *dec.split_residuals[i], objectives[i]]).all(), i
            assert np.abs(dec.s[i] - ref.s[i]).max() <= 1e-4 * PIXEL_BOUND, i  # measured 1.6e-6 x the bound
        assert len(forks) == 1

    @pytest.mark.parametrize("where", [0, 15])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_pixel_above_the_bound_raises_before_any_sweep(
        self, monkeypatch, basis64, regime_blocks, cpus, forks, where, sign
    ):
        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(admm, "_solve_slice", no_sweep)
        blocks = [b.copy() for b in regime_blocks[:16]]
        blocks[where][3, 4] = sign * np.nextafter(PIXEL_BOUND, np.inf)
        with pytest.raises(DivergenceError, match=re.escape(f"beyond PIXEL_BOUND = {PIXEL_BOUND:.6g}")):
            solve_blocks(blocks, basis64, SolverParams(workers=2))
        assert forks == []
        _assert_no_children()


class TestFixedShapeProducts:
    """A block's bits depend neither on its row in the slice nor on the blocks beside it.

    Each basis product is one GEMM of exactly BATCH_BLOCKS rows, the rows past
    a short slice zero. These fail on a BLAS whose GEMM row results depend on
    the row's position or on the other rows.
    """

    PARAMS = SolverParams(max_iters=20)

    @pytest.fixture(scope="class")
    def alone(self, basis64):
        f = gen_block(SynthSpec(k_true=15, seed=77))[0].ravel()
        return f, solve_blocks([f], basis64, self.PARAMS)

    @pytest.mark.parametrize("m", range(1, BATCH_BLOCKS + 1))
    def test_every_row_of_a_partial_slice(self, basis64, regime_blocks, alone, m):
        f, ref = alone
        for row in range(m):
            blocks = np.reshape(regime_blocks[:m], (m, -1))
            blocks[row] = f
            _assert_same(solve_blocks(blocks, basis64, self.PARAMS).rows(row, row + 1), ref)

    @pytest.mark.parametrize("others", ["random", "zero", "huge"])
    def test_every_row_of_a_full_slice(self, basis64, alone, others):
        f, ref = alone
        rng = np.random.default_rng(83)
        shape = (BATCH_BLOCKS, f.size)
        fill = {
            "random": rng.uniform(0, 255, shape),
            "zero": np.zeros(shape),
            "huge": rng.uniform(-PIXEL_BOUND, PIXEL_BOUND, shape),  # the largest pixels accepted
        }[others]
        for row in range(BATCH_BLOCKS):
            blocks = fill.copy()
            blocks[row] = f
            _assert_same(solve_blocks(blocks, basis64, self.PARAMS).rows(row, row + 1), ref)


def test_same_bits_for_one_and_two_blas_threads(tmp_path, basis64, regime_blocks):
    # two processes whose OpenBLAS may split each GEMM over 1 and 2 threads
    blocks = np.array(regime_blocks[:16])
    np.save(tmp_path / "blocks.npy", blocks)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from scseg import build_basis, solve_blocks\n"
        "dec = solve_blocks(np.load(sys.argv[1]), build_basis(64, 10))\n"
        "np.save(sys.argv[2], np.hstack([dec.alpha, dec.s.reshape(len(dec.s), -1)]))\n"
    )
    # run the package under test, wherever it was imported from
    package_root = os.path.dirname(os.path.dirname(admm.__file__))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    results = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npy"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "blocks.npy"), str(out)],
                       check=True, env=env, timeout=300)
        results[threads] = np.load(out)
    assert results["1"].shape == (16, 10 + 4096)
    assert results["1"].tobytes() == results["2"].tobytes()
    dec = solve_blocks(blocks, basis64)
    here = np.hstack([dec.alpha, dec.s.reshape(len(dec.s), -1)])
    assert here.tobytes() == results["1"].tobytes()
