import dataclasses
import os
import signal
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import group_norm_reference, reference_solve
from scseg import (
    DivergenceError,
    SolverParams,
    SynthSpec,
    build_basis,
    gen_block,
    group_norm,
    objective,
    solve,
    solve_blocks,
)
from scseg import admm
from scseg.admm import BATCH_BLOCKS

# The four block regimes of the benchmark's pages.
REGIMES = (
    SynthSpec(),
    SynthSpec(stroke_amplitude=10.0),
    SynthSpec(k_true=15),
    SynthSpec(diagonal_strokes=True),
)
NON_DEFAULT = SolverParams(lambda1=5.0, lambda2=1.0, rho1=1.7, rho2=0.6, rho3=1.3, rho4=0.9)


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
        "bad", [{"lambda1": 0}, {"lambda2": -1}, {"rho3": 0.0}, {"max_iters": 0}, {"workers": 0}]
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SolverParams(**bad)


class TestStep:
    def test_zero_block_is_fixed_point(self, basis8):
        params = SolverParams(lambda1=5.0, lambda2=1.0, max_iters=3, record_residuals=True)
        dec = solve(np.zeros(64), basis8, params)
        assert not dec.alpha.any()
        assert not dec.s.any()
        assert dec.residual_history == [(0.0, 0.0, 0.0, 0.0)] * 3

    def test_single_step_coefficients(self, basis64):
        # from the zero state the first coefficient update is a scaled projection
        f = basis64.atoms[:, 0] * 100.0
        dec = solve(f, basis64, SolverParams(max_iters=1))
        expected = np.zeros(10)
        expected[0] = 50.0
        np.testing.assert_allclose(dec.alpha, expected, atol=1e-10)

    def test_orthonormal_shortcut_matches_factorized_path(self, basis64):
        # the fourth coefficient update solves (rho1 B'B + rho2 I) alpha = rhs
        # on the state after three sweeps
        rng = np.random.default_rng(14)
        f = rng.uniform(0, 255, 4096)
        params = SolverParams(rho1=1.7, rho2=0.6)
        state = reference_solve(f, basis64.atoms, params, steps=3)["state"]
        b = basis64.atoms
        rhs = (
            b.T @ state.w1
            - state.w2
            + params.rho2 * state.beta
            + params.rho1 * (b.T @ (f - state.s))
        )
        factorized = np.linalg.solve(params.rho1 * b.T @ b + params.rho2 * np.eye(10), rhs)
        stepped = solve(f, basis64, dataclasses.replace(params, max_iters=4))
        np.testing.assert_allclose(stepped.alpha, factorized, atol=1e-10)


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

    def test_dimension_mismatch(self, basis64):
        with pytest.raises(ValueError):
            solve(np.zeros(100), basis64)
        with pytest.raises(ValueError):
            solve_blocks([np.zeros(4096), np.zeros(100)], basis64)

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


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same(decs, serial):
    """Every field of every decomposition equal, bit for bit."""
    assert len(decs) == len(serial)
    for i, (dec, ref) in enumerate(zip(decs, serial)):
        assert np.array_equal(dec.alpha, ref.alpha), f"block {i}: alpha differs"
        assert np.array_equal(dec.s, ref.s), f"block {i}: s differs"
        assert dec.iters_run == ref.iters_run, f"block {i}: iters_run differs"
        assert dec.primal_residual == ref.primal_residual
        assert dec.split_residuals == ref.split_residuals
        assert dec.objective == ref.objective
        assert dec.residual_history == ref.residual_history


def _assert_matches_reference(decs, refs):
    assert len(decs) == len(refs)
    for i, (dec, ref) in enumerate(zip(decs, refs)):
        assert np.array_equal(dec.alpha, ref["alpha"]), f"block {i}: alpha differs"
        assert np.array_equal(dec.s, ref["s"]), f"block {i}: s differs"
        assert dec.iters_run == ref["iters_run"], f"block {i}: iters_run differs"


@pytest.fixture(scope="module")
def regime_blocks():
    """24 blocks cycling the four regimes: three full slices."""
    return [gen_block(dataclasses.replace(REGIMES[i % 4], seed=300 + i))[0] for i in range(24)]


@pytest.fixture(scope="module")
def regime_refs(basis64, regime_blocks):
    return [reference_solve(f, basis64.atoms, SolverParams()) for f in regime_blocks]


class TestSolveBlocks:
    """The batched sweep against the frozen one-block-at-a-time reference."""

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 17])
    def test_bit_identical_to_reference_at_every_batch_size(
        self, basis64, regime_blocks, regime_refs, count
    ):
        assert BATCH_BLOCKS == 8  # the sizes above straddle the slice boundary
        decs = solve_blocks(regime_blocks[:count], basis64)
        _assert_matches_reference(decs, regime_refs[:count])

    def test_bit_identical_with_non_default_penalties(self, basis64, regime_blocks):
        blocks = regime_blocks[:9]
        refs = [reference_solve(f, basis64.atoms, NON_DEFAULT) for f in blocks]
        _assert_matches_reference(solve_blocks(blocks, basis64, NON_DEFAULT), refs)

    @pytest.mark.parametrize("params", [SolverParams(), NON_DEFAULT], ids=["default", "penalties"])
    def test_bit_identical_on_random_small_blocks(self, basis8, params):
        blocks = np.random.default_rng(61).uniform(0, 255, (17, 64))
        refs = [reference_solve(f, basis8.atoms, params) for f in blocks]
        _assert_matches_reference(solve_blocks(blocks, basis8, params), refs)

    def test_empty_batch(self, basis8):
        assert solve_blocks([], basis8) == []

    @pytest.mark.parametrize("where", [0, 8])
    def test_non_finite_pixel_anywhere_raises(self, basis8, where):
        blocks = np.random.default_rng(67).uniform(0, 255, (9, 64))
        blocks[where, 5] = np.inf
        with pytest.raises(DivergenceError, match="non-finite values"):
            solve_blocks(blocks, basis8)

    def test_non_finite_iterate_raises(self, basis64):
        # finite pixels whose products overflow in the first sweep
        huge = np.full(4096, 1e308)
        huge[::7] = -1e308
        blocks = [gen_block(SynthSpec(seed=3))[0].ravel(), huge]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="iteration 1$"):
                reference_solve(huge, basis64.atoms, SolverParams())
            with pytest.raises(DivergenceError, match="non-finite iterate at iteration 1$"):
                solve_blocks(blocks, basis64)

    def test_early_stop_per_block(self, basis64):
        exact = basis64.atoms[:, 0] * 8192.0  # converges long before max_iters
        synthetic = gen_block(SynthSpec(seed=9))[0]
        params = SolverParams(max_iters=500, early_stop=True, record_residuals=True)
        batched = solve_blocks([exact, synthetic], basis64, params)
        alone = [solve(f, basis64, params) for f in (exact, synthetic)]
        refs = [reference_solve(f, basis64.atoms, params) for f in (exact, synthetic)]
        assert batched[0].iters_run < batched[1].iters_run
        for dec, solo, ref in zip(batched, alone, refs):
            assert dec.iters_run == solo.iters_run == ref["iters_run"]
            np.testing.assert_array_equal(dec.alpha, solo.alpha)
            np.testing.assert_array_equal(dec.s, solo.s)
            np.testing.assert_array_equal(dec.s, ref["s"])
            assert len(dec.residual_history) == dec.iters_run
            assert dec.residual_history == solo.residual_history == ref["history"]

    def test_working_memory_does_not_grow_with_block_count(self, basis64):
        blocks = [gen_block(SynthSpec(seed=i))[0] for i in range(64)]
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


def _index_slices(monkeypatch, fail=(), exit_status=None):
    """Replace the slice solver by one that returns each block's first pixel.

    Blocks are filled with their index. A slice whose first block is in
    `fail` raises; with `exit_status`, a slice solved in a child ends the
    child without a result.
    """
    parent = os.getpid()

    def fake(flat, basis, params, work):
        first = int(flat[0][0])
        if exit_status is not None and os.getpid() != parent:
            if exit_status < 0:
                os.kill(os.getpid(), -exit_status)
            os._exit(exit_status)
        if first in fail:
            raise ValueError(f"slice at block {first}")
        return [int(f[0]) for f in flat]

    monkeypatch.setattr(admm, "_solve_slice", fake)
    return [np.full(64, float(i)) for i in range(3 * BATCH_BLOCKS)]


class TestWorkers:
    """solve_blocks with params.workers > 1: runs of slices in forked processes."""

    @pytest.fixture(scope="class")
    def serial(self, basis64, regime_blocks):
        return solve_blocks(regime_blocks, basis64)

    @pytest.mark.parametrize("count", [0, 1, 9, 17, 24])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_bit_identical_to_one_process(
        self, basis64, regime_blocks, regime_refs, serial, cpus, forks, workers, count
    ):
        decs = solve_blocks(regime_blocks[:count], basis64, SolverParams(workers=workers))
        _assert_same(decs, serial[:count])
        _assert_matches_reference(decs, regime_refs[:count])
        slices = -(-count // BATCH_BLOCKS)
        assert len(forks) == max(min(workers, slices) - 1, 0)
        _assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_early_stop_and_residuals(self, basis8, cpus, forks, workers):
        blocks = list(np.random.default_rng(71).uniform(0, 255, (24, 64)))
        for at, scale in ((3, 512.0), (11, 2000.0), (19, 512.0)):  # one converging block per slice
            blocks[at] = basis8.atoms[:, 0] * scale
        params = SolverParams(max_iters=200, early_stop=True, record_residuals=True)
        decs = solve_blocks(blocks, basis8, dataclasses.replace(params, workers=workers))
        _assert_same(decs, solve_blocks(blocks, basis8, params))
        refs = [reference_solve(f, basis8.atoms, params) for f in blocks]
        _assert_matches_reference(decs, refs)
        assert [dec.residual_history for dec in decs] == [ref["history"] for ref in refs]
        assert [decs[at].iters_run for at in (3, 11, 19)] == [42, 58, 42]
        assert len(forks) == workers - 1
        _assert_no_children()

    def test_divergence_in_a_child_slice(self, basis64, regime_blocks, cpus, forks):
        huge = np.full(4096, 1e308)
        huge[::7] = -1e308
        blocks = list(regime_blocks[:BATCH_BLOCKS]) + [huge]  # only the child's slice overflows
        messages = []
        with np.errstate(over="ignore", invalid="ignore"):
            for workers in (1, 2):
                with pytest.raises(DivergenceError) as err:
                    solve_blocks(blocks, basis64, SolverParams(workers=workers))
                messages.append(str(err.value))
        assert messages == ["non-finite iterate at iteration 1"] * 2
        assert len(forks) == 1
        _assert_no_children()

    # 100000 workers on 2 usable CPUs start one child, never more
    @pytest.mark.parametrize("usable, workers, children", [(8, 3, 2), (2, 100000, 1)])
    def test_results_in_input_order(self, monkeypatch, cpus, forks, usable, workers, children):
        cpus(usable)
        blocks = _index_slices(monkeypatch)
        assert solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=workers)) == list(range(24))
        assert len(forks) == children
        _assert_no_children()

    @pytest.mark.parametrize("fail", [{0}, {8}, {16}, {8, 16}, {0, 16}])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_raises_error_of_earliest_failing_slice(self, monkeypatch, cpus, workers, fail):
        blocks = _index_slices(monkeypatch, fail=fail)
        with pytest.raises(ValueError, match=f"^slice at block {min(fail)}$"):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=workers))
        _assert_no_children()

    @pytest.mark.parametrize("status", [3, -signal.SIGKILL])
    def test_child_without_result_names_its_exit_status(self, monkeypatch, cpus, status):
        blocks = _index_slices(monkeypatch, exit_status=status)
        with pytest.raises(RuntimeError, match=f"exited with status {status} without a result"):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=2))
        _assert_no_children()

    def test_child_killed_while_sending_names_its_exit_status(self, monkeypatch, cpus):
        # the child's 1 MB result overfills the pipe while the caller is still
        # busy, and the child is killed with part of it sent
        parent = os.getpid()

        def fake(flat, basis, params, work):
            if os.getpid() == parent:
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # until the child dies, unreaped
                return [None] * len(flat)
            threading.Timer(0.1, os.kill, (os.getpid(), signal.SIGKILL)).start()
            return [np.zeros(2**17)] * len(flat)

        monkeypatch.setattr(admm, "_solve_slice", fake)
        blocks = [np.zeros(64)] * (2 * BATCH_BLOCKS)
        with pytest.raises(RuntimeError, match=f"exited with status {-signal.SIGKILL} without a result"):
            solve_blocks(blocks, build_basis(8, 3), SolverParams(workers=2))
        _assert_no_children()

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
