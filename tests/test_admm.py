import numpy as np
import pytest

from oracles import group_norm_reference
from scseg import (
    DivergenceError,
    SolverParams,
    SynthSpec,
    build_basis,
    gen_block,
    group_norm,
    objective,
    solve,
)
from scseg.admm import admm_step, init_state


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
        assert (p.rho1, p.rho2, p.rho3, p.rho4) == (1.0, 1.0, 1.0, 1.0)
        assert p.max_iters == 50

    @pytest.mark.parametrize(
        "bad", [{"lambda1": 0}, {"lambda2": -1}, {"rho3": 0.0}, {"max_iters": 0}]
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SolverParams(**bad)


class TestInitState:
    def test_all_zero_and_sized(self, basis64):
        state = init_state(np.ones(4096), basis64)
        assert state.alpha.shape == (10,)
        assert state.s.shape == (4096,)
        for name in ("alpha", "beta", "s", "y", "z", "w1", "w2", "v1", "v2"):
            assert not getattr(state, name).any()

    def test_independent_of_values(self, basis64):
        rng = np.random.default_rng(0)
        a = init_state(rng.uniform(0, 255, 4096), basis64)
        b = init_state(np.zeros(4096), basis64)
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_dimension_mismatch(self, basis64):
        with pytest.raises(ValueError):
            init_state(np.zeros(100), basis64)


class TestStep:
    def test_zero_block_is_fixed_point(self, basis8):
        f = np.zeros(64)
        state = init_state(f, basis8)
        params = SolverParams(lambda1=5.0, lambda2=1.0)
        for _ in range(3):
            state = admm_step(state, f, basis8, params)
        for name in ("alpha", "beta", "s", "y", "z", "w1", "w2", "v1", "v2"):
            assert not getattr(state, name).any()

    def test_single_step_coefficients(self, basis64):
        # from the zero state the first coefficient update is a scaled projection
        f = basis64.atoms[:, 0] * 100.0
        state = admm_step(init_state(f, basis64), f, basis64, SolverParams())
        expected = np.zeros(10)
        expected[0] = 50.0
        np.testing.assert_allclose(state.alpha, expected, atol=1e-10)

    def test_orthonormal_shortcut_matches_factorized_path(self, basis64):
        rng = np.random.default_rng(14)
        f = rng.uniform(0, 255, 4096)
        params = SolverParams(rho1=1.7, rho2=0.6)
        state = init_state(f, basis64)
        for _ in range(3):
            state = admm_step(state, f, basis64, params)
        b = basis64.atoms
        rhs = (
            b.T @ state.w1
            - state.w2
            + params.rho2 * state.beta
            + params.rho1 * (b.T @ (f - state.s))
        )
        shortcut = rhs / (params.rho1 + params.rho2)
        stepped = admm_step(state, f, basis64, params)
        np.testing.assert_allclose(stepped.alpha, shortcut, atol=1e-10)


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
        for n in (2, 5, 8):
            s = rng.normal(0, 3, n * n)
            assert group_norm(s) == pytest.approx(group_norm_reference(s, n), rel=1e-12)

    def test_group_norm_rejects_non_square(self):
        with pytest.raises(ValueError):
            group_norm(np.zeros(5))


class TestSolve:
    def test_zero_block(self, basis8):
        dec = solve(np.zeros(64), basis8, SolverParams(lambda1=5.0, lambda2=1.0))
        assert not dec.alpha.any()
        assert not dec.s.any()
        assert dec.objective == 0.0
        assert dec.primal_residual == 0.0
        assert dec.iters_run == 50

    def test_smooth_block_stays_in_smooth_layer(self, basis64):
        rng = np.random.default_rng(17)
        coef = rng.uniform(-100, 100, 10)
        coef[0] = 128.0 * 64
        f = basis64.atoms @ coef
        dec = solve(f, basis64, SolverParams(max_iters=500))
        assert dec.primal_residual <= 1e-3
        assert np.abs(dec.s).max() <= 1.0

    def test_feasibility_on_random_blocks(self, basis64):
        rng = np.random.default_rng(29)
        for _ in range(3):
            f = rng.uniform(0, 255, 4096)
            dec = solve(f, basis64, SolverParams(max_iters=500))
            assert dec.primal_residual <= 1e-3

    def test_beats_trivial_feasible_points(self, basis64):
        rng = np.random.default_rng(31)
        params = SolverParams()
        for _ in range(3):
            f = rng.uniform(0, 255, 4096)
            dec = solve(f, basis64, params)
            proj = basis64.atoms.T @ f
            assert dec.objective <= objective(proj, f - basis64.atoms @ proj, params)
            assert dec.objective <= objective(np.zeros(10), f, params)

    def test_deterministic(self, basis8):
        rng = np.random.default_rng(41)
        f = rng.uniform(0, 255, 64)
        params = SolverParams(lambda1=5.0, lambda2=1.0)
        a = solve(f, basis8, params)
        b = solve(f, basis8, params)
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert a.objective == b.objective

    def test_accepts_2d_block(self, basis8):
        rng = np.random.default_rng(43)
        f = rng.uniform(0, 255, (8, 8))
        a = solve(f, basis8)
        b = solve(f.ravel(), basis8)
        np.testing.assert_array_equal(a.s, b.s)

    def test_residual_history_recorded(self, basis8):
        rng = np.random.default_rng(47)
        f = rng.uniform(0, 255, 64)
        dec = solve(f, basis8, SolverParams(max_iters=60, record_residuals=True))
        assert len(dec.residual_history) == 60
        assert dec.residual_history[-1][0] < dec.residual_history[0][0]

    def test_no_history_by_default(self, basis8):
        dec = solve(np.zeros(64), basis8)
        assert dec.residual_history is None

    def test_recording_residuals_changes_nothing_else(self, basis64):
        f, _, _ = gen_block(SynthSpec(seed=5))
        plain = solve(f, basis64)
        recorded = solve(f, basis64, SolverParams(record_residuals=True))
        np.testing.assert_array_equal(recorded.alpha, plain.alpha)
        np.testing.assert_array_equal(recorded.s, plain.s)
        assert recorded.primal_residual == plain.primal_residual
        assert recorded.split_residuals == plain.split_residuals
        assert recorded.iters_run == plain.iters_run == 50
        assert recorded.residual_history[-1][1:] == plain.split_residuals

    def test_early_stop(self, basis64):
        # exactly representable block converges to machine precision quickly
        f = basis64.atoms[:, 0] * (128.0 * 64)
        params = SolverParams(max_iters=500, early_stop=True)
        dec = solve(f, basis64, params)
        assert dec.iters_run < 500
        assert max(dec.split_residuals) < 1e-6

    def test_non_finite_input_raises(self, basis8):
        f = np.zeros(64)
        f[0] = np.nan
        with pytest.raises(DivergenceError):
            solve(f, basis8)

    def test_small_instance_near_optimal(self, basis8):
        # quick version of the oracle comparison: longer runs should not
        # improve the feasible-point objective by more than a hair
        rng = np.random.default_rng(53)
        f = rng.uniform(0, 255, 64)
        params_short = SolverParams(lambda1=5.0, lambda2=1.0, max_iters=400)
        params_long = SolverParams(lambda1=5.0, lambda2=1.0, max_iters=4000)
        short = solve(f, basis8, params_short)
        long = solve(f, basis8, params_long)
        o_short = objective(short.alpha, f - basis8.atoms @ short.alpha, params_short)
        o_long = objective(long.alpha, f - basis8.atoms @ long.alpha, params_long)
        assert abs(o_short - o_long) / o_long < 1e-2
