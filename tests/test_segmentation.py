import dataclasses
import re
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scseg import (
    SegmentationConfig,
    SolverParams,
    build_basis,
    fill_background,
    gen_block,
    load_gray,
    objective,
    reconstruct_layers,
    segment_image,
    segment_images,
    solve_blocks,
    SynthSpec,
    tile,
)
from scseg.image_io import stitch
from scseg.segmentation import MAX_FIT_CONDITION, _shared_basis, assemble_layers

from oracles import dense_fill_background


def stripe_block(n=64):
    """Alternating dark and light rows: the mask covers every other row, so
    the remaining background rows cannot determine the column frequencies."""
    return np.repeat(np.where(np.arange(n) % 2 == 0, 20.0, 200.0)[:, None], n, axis=1)


def page_of(blocks):
    """Row-major 3x3 page of nine same-sized blocks."""
    return np.block([blocks[r * 3 : r * 3 + 3] for r in range(3)])


def fill_one(f, mask, basis):
    """fill_background on a stack of one block: (its filled (n, n) block, whether it was fitted)."""
    shape = (1, basis.n, basis.n)
    filled, fitted = fill_background(np.reshape(f, shape), np.reshape(mask, shape), basis)
    return filled[0], bool(fitted[0])


def segment_alone(f, cfg):
    """(mask, decomposition) of an image that is exactly one block."""
    seg = next(segment_images([f], cfg))
    (mask,) = seg.block_masks
    return mask, seg.decomposition


def least_squares_holes(f, mask, basis):
    """The fit of f's background pixels by lstsq, evaluated at the pixels under mask."""
    keep = ~np.ravel(mask)
    coef = np.linalg.lstsq(basis.atoms[keep], np.ravel(f)[keep], rcond=None)[0]
    return (basis.atoms @ coef)[~keep]


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def basis64():
    return build_basis(64, 10)


@pytest.fixture(scope="module")
def cfg():
    return SegmentationConfig()


class TestSegmentBlock:
    def test_constant_block_empty_mask(self, cfg):
        mask, _ = segment_alone(np.full((64, 64), 128.0), cfg)
        assert not mask.any()

    def test_stroke_detected_exactly(self, cfg):
        f = np.full((64, 64), 128.0)
        f[10, 20:28] = 255.0
        mask, _ = segment_alone(f, cfg)
        expected = np.zeros((64, 64), dtype=bool)
        expected[10, 20:28] = True
        np.testing.assert_array_equal(mask, expected)

    def test_zero_block_empty_mask(self, cfg):
        mask, dec = segment_alone(np.zeros((64, 64)), cfg)
        assert not mask.any()
        assert objective(dec.alpha, dec.s, cfg.solver)[0] == 0.0

    def test_mask_invariant_to_constant_shift(self, cfg):
        f, _, _ = gen_block(SynthSpec(alpha_range=80.0, seed=7))
        base_mask, _ = segment_alone(f, cfg)
        for c in (-50.0, -17.5, 25.0, 50.0):
            shifted_mask, _ = segment_alone(f + c, cfg)
            np.testing.assert_array_equal(shifted_mask, base_mask)

    def test_threshold_extremes(self):
        f, _, _ = gen_block(SynthSpec(seed=5))
        huge = SegmentationConfig(fg_threshold=1e9)
        mask, _ = segment_alone(f, huge)
        assert not mask.any()
        zero = SegmentationConfig(fg_threshold=0.0)
        mask, dec = segment_alone(f, zero)
        np.testing.assert_array_equal(mask, dec.s[0] != 0)
        for t in (1.0, 40.0):
            mask, dec = segment_alone(f, SegmentationConfig(fg_threshold=t))
            np.testing.assert_array_equal(mask, np.abs(dec.s[0]) > t)
            assert mask.any() and not mask.all()

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.5, 1e300])
    def test_two_sided_mask_equals_magnitude_mask(self, t):
        # segment_images marks (s > t) | (s < -t), which is |s| > t for every t >= 0 on
        # signed zeros, values at and beside +-t, NaN and infinities
        s = np.array([0.0, -0.0, t, -t, np.nextafter(t, np.inf), -np.nextafter(t, np.inf),
                      np.nextafter(t, 0), -np.nextafter(t, 0), np.nan, -np.nan, np.inf, -np.inf])
        np.testing.assert_array_equal((s > t) | (s < -t), np.abs(s) > t)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SegmentationConfig(fg_threshold=-1.0)

    def test_block_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="block_size"):
            SegmentationConfig(block_size=1, k_bases=1)

    @pytest.mark.parametrize(
        "name, value",
        [("block_size", 8.0), ("block_size", True), ("k_bases", 3.0), ("k_bases", np.float32(3)),
         ("k_bases", np.True_)],
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SegmentationConfig(**{"block_size": 8, "k_bases": 3, name: value})

    def test_counts_accept_numpy_integers(self):
        img = np.full((16, 16), 90.0)
        cfg = SegmentationConfig(block_size=np.int64(8), k_bases=np.int32(3))
        assert not segment_image(img, cfg).any()

    def test_fields_are_frozen(self):
        # assigned, a negative threshold would skip __post_init__ and mark every pixel foreground
        cfg = SegmentationConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.fg_threshold = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.solver.max_iters = 0
        assert (cfg.fg_threshold, cfg.solver.max_iters) == (1.0, 50)


@pytest.mark.parametrize(
    "make, name, value",
    [
        (SolverParams, "lambda1", True), (SolverParams, "lambda2", np.True_), (SolverParams, "rho", False),
        (SolverParams, "lambda1", "1"), (SolverParams, "rho", 1j), (SolverParams, "lambda2", None),
        (SegmentationConfig, "fg_threshold", True), (SegmentationConfig, "fg_threshold", "1.0"),
        (SynthSpec, "alpha_range", True), (SynthSpec, "stroke_amplitude", np.False_),
        (SynthSpec, "max_fg_fraction", True), (SynthSpec, "max_fg_fraction", "0.1"),
    ],
)
def test_real_fields_take_real_numbers_only(make, name, value):
    # bool is an int to Python, and a string failed a comparison with a TypeError
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        make(**{name: value})


# finite reals beyond float64's range, refused before anything converts them to float
BEYOND_FLOAT64 = {"int": 10**400, "negative-int": -(10**400), "fraction": Fraction(10**400, 3)}
if np.finfo(np.longdouble).maxexp > 1024:  # where longdouble is wider than float64
    BEYOND_FLOAT64["longdouble"] = np.longdouble(2) ** 1100


@pytest.mark.parametrize("value", BEYOND_FLOAT64.values(), ids=list(BEYOND_FLOAT64))
@pytest.mark.parametrize(
    "make, name",
    [(SolverParams, "lambda1"), (SolverParams, "lambda2"), (SolverParams, "rho"),
     (SegmentationConfig, "fg_threshold"), (SynthSpec, "alpha_range"), (SynthSpec, "stroke_amplitude"),
     (SynthSpec, "max_fg_fraction")],
)
def test_real_fields_refuse_values_beyond_float64(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be within float64's range, got "):
        make(**{name: value})


def test_real_fields_take_python_and_numpy_reals():
    params = SolverParams(lambda1=np.float32(5.0), lambda2=2, rho=Fraction(1, 2))
    assert SegmentationConfig(fg_threshold=np.float64(0.5), solver=params).solver.rho == 0.5
    assert SynthSpec(alpha_range=np.int64(50), stroke_amplitude=80, max_fg_fraction=Fraction(1, 5)).stroke_count == 4


# Two records built from equal inputs: equal arrays, distinct objects.
ARRAY_RECORDS = {
    "BasisMatrix": lambda: build_basis(8, 3),
    "BlockGrid": lambda: tile(np.zeros((8, 8)), 4),
    "Decomposition": lambda: solve_blocks([np.zeros(64)], build_basis(8, 3)),
    "SegmentedImage": lambda: next(segment_images([np.zeros((8, 8))], SegmentationConfig(block_size=8, k_bases=3))),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True


class TestSegmentImage:
    def test_uniform_image_all_background(self, cfg):
        mask = segment_image(np.full((128, 128), 128.0), cfg)
        assert mask.shape == (128, 128)
        assert not mask.any()

    def test_single_tile_matches_block_path(self, cfg):
        f, _, _ = gen_block(SynthSpec(seed=11))
        block_mask, _ = segment_alone(f, cfg)
        np.testing.assert_array_equal(segment_image(f, cfg), block_mask)

    def test_synthetic_recovery(self, cfg):
        f, truth, _ = gen_block(SynthSpec(seed=19))
        mask = segment_image(f, cfg)
        tp = (mask & truth).sum()
        fp = (mask & ~truth).sum()
        fn = (~mask & truth).sum()
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.9


class TestColourInput:
    """A PPM is reduced to BT.601 luma, so strokes that differ from the background only in colour are lost."""

    @staticmethod
    def page(tmp_path, stroke):
        """A 128x128 P6 page of flat gray (76, 76, 76), luma 76, with horizontal strokes of colour `stroke`."""
        rgb = np.full((128, 128, 3), 76, np.uint8)
        strokes = np.zeros((128, 128), bool)
        for row in (10, 40, 75, 110):
            strokes[row : row + 2, 12:116] = True
        rgb[strokes] = stroke
        path = tmp_path / "page.ppm"
        path.write_bytes(b"P6\n128 128\n255\n" + rgb.tobytes())
        return load_gray(path), strokes

    def test_isoluminant_red_strokes_are_invisible(self, tmp_path, cfg):
        # red (255, 0, 0) has luma 76.245, a quarter of a gray level above the background
        img, strokes = self.page(tmp_path, (255, 0, 0))
        assert np.abs(img[strokes] - 76.245).max() < 1e-9
        assert not segment_image(img, cfg).any()

    def test_blue_strokes_are_found(self, tmp_path, cfg):
        # blue (0, 0, 255) has luma 29.07, far below the background's 76
        img, strokes = self.page(tmp_path, (0, 0, 255))
        assert np.abs(img[strokes] - 29.07).max() < 1e-9
        np.testing.assert_array_equal(segment_image(img, cfg), strokes)


class TestSegmentBlocks:
    def test_block_results_independent_of_batch(self, cfg):
        # nine blocks span two solver slices; every block must get the bits
        # it gets alone, wherever it sits in the page
        blocks = [gen_block(SynthSpec(seed=60 + i))[0] for i in range(9)]
        order = np.random.default_rng(3).permutation(9)
        page = next(segment_images([page_of(blocks)], cfg))
        permuted = next(segment_images([page_of([blocks[i] for i in order])], cfg))
        moved = {int(src): dst for dst, src in enumerate(order)}
        for i, block in enumerate(blocks):
            mask, dec = segment_alone(block, cfg)
            for seg, j in ((page, i), (permuted, moved[i])):
                other_mask, other_dec = seg.block_masks[j], seg.decomposition
                np.testing.assert_array_equal(other_dec.s[j], dec.s[0])
                np.testing.assert_array_equal(other_dec.alpha[j], dec.alpha[0])
                np.testing.assert_array_equal(other_mask, mask)


class TestSegmentImages:
    @settings(deadline=None, max_examples=25)
    @given(
        shapes=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_one_image_at_a_time(self, shapes, seed):
        cfg = SegmentationConfig(block_size=8, k_bases=3, solver=SolverParams(max_iters=4))
        rng = np.random.default_rng(seed)
        imgs = [rng.uniform(0, 255, shape) for shape in shapes]
        grouped = list(segment_images(imgs, cfg))
        assert len(grouped) == len(imgs)
        for seg, img in zip(grouped, imgs):
            np.testing.assert_array_equal(seg.mask, segment_image(img, cfg))
            alone = next(segment_images([img], cfg))
            assert seg.grid.origins == alone.grid.origins
            m = len(seg.grid.blocks)
            assert len(seg.block_masks) == len(seg.decomposition.s) == len(alone.decomposition.s) == m
            assert seg.block_masks.shape == (m, 8, 8) and seg.block_masks.dtype == bool
            for i, (block_mask, alone_mask) in enumerate(zip(seg.block_masks, alone.block_masks)):
                np.testing.assert_array_equal(block_mask, alone_mask)
                np.testing.assert_array_equal(seg.decomposition.s[i], alone.decomposition.s[i])
                np.testing.assert_array_equal(seg.decomposition.alpha[i], alone.decomposition.alpha[i])


def assert_same_records(a, b):
    """Two SegmentedImages hold the same bits: mask, block masks, every Decomposition field and the basis."""
    np.testing.assert_array_equal(a.mask, b.mask)
    np.testing.assert_array_equal(a.block_masks, b.block_masks)
    for field in dataclasses.fields(a.decomposition):
        x, y = getattr(a.decomposition, field.name), getattr(b.decomposition, field.name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
    assert (a.basis.n, a.basis.k, a.basis.freq_pairs) == (b.basis.n, b.basis.k, b.basis.freq_pairs)
    assert a.basis.atoms.tobytes() == b.basis.atoms.tobytes()


class TestSharedBasis:
    """segment_images builds the basis of a block size and k once, and its records share it."""

    def test_shared_atoms_are_read_only(self):
        seg = next(segment_images([np.zeros((8, 8))], SegmentationConfig(block_size=8, k_bases=3)))
        with pytest.raises(ValueError, match="read-only"):
            seg.basis.atoms[0, 0] = 1.0
        # the public builder still hands out a basis of its own
        fresh = build_basis(8, 3)
        assert fresh is not seg.basis and fresh.atoms.flags.writeable
        fresh.atoms[0, 0] = 1.0

    def test_calls_with_one_block_size_and_k_share_one_basis(self):
        cfg = SegmentationConfig(block_size=8, k_bases=3)
        first = next(segment_images([np.zeros((8, 8))], cfg))
        second = next(segment_images([np.ones((16, 16))], dataclasses.replace(cfg, fg_threshold=2.0)))
        assert second.basis is first.basis
        other = next(segment_images([np.zeros((8, 8))], SegmentationConfig(block_size=8, k_bases=4)))
        assert other.basis is not first.basis

    def test_numpy_block_size_gives_the_same_records(self):
        f, _, _ = gen_block(SynthSpec(seed=3))
        solver = SolverParams(max_iters=20)
        numpy_side = next(segment_images([f], SegmentationConfig(block_size=np.int64(16), solver=solver)))
        int_side = next(segment_images([f], SegmentationConfig(block_size=16, solver=solver)))
        assert_same_records(numpy_side, int_side)

    def test_a_float_size_does_not_hit_the_entry_of_its_integer(self):
        _shared_basis(8, 3)
        with pytest.raises(ValueError, match="^k must be an integer"):
            _shared_basis(8, 3.0)

    def test_interleaved_configs_match_each_config_alone(self):
        # six (block, k) pairs through a memo of four: (5, 10) and (16, 10) come back after eviction
        f, _, _ = gen_block(SynthSpec(seed=4, k_true=15))
        sizes = [(16, 10), (5, 10), (16, 10), (16, 28), (8, 3), (32, 10), (64, 10), (5, 10), (16, 10)]
        solver = SolverParams(max_iters=20)
        configs = {size: SegmentationConfig(block_size=size[0], k_bases=size[1], solver=solver) for size in sizes}
        alone = {}
        for size, cfg in configs.items():
            _shared_basis.cache_clear()
            alone[size] = next(segment_images([f], cfg))
        for size in sizes:
            assert_same_records(next(segment_images([f], configs[size])), alone[size])


class TestFillBackground:
    def test_empty_mask_passthrough(self, basis64):
        rng = np.random.default_rng(23)
        f = rng.uniform(0, 255, (64, 64))
        out, fitted = fill_one(f, np.zeros((64, 64), dtype=bool), basis64)
        np.testing.assert_array_equal(out, f)
        assert fitted

    def test_exact_recovery_on_smooth_data(self, basis64):
        rng = np.random.default_rng(29)
        coef = rng.uniform(-100, 100, 10)
        coef[0] = 128.0 * 64
        f = (basis64.atoms @ coef).reshape(64, 64)
        mask = rng.random((64, 64)) < 0.3
        out, _ = fill_one(f, mask, basis64)
        np.testing.assert_allclose(out, f, atol=1e-8)

    def test_constant_hole_filled_with_constant(self, basis64):
        f = np.full((64, 64), 100.0)
        mask = np.zeros((64, 64), dtype=bool)
        mask[20:30, 20:30] = True
        out, _ = fill_one(f, mask, basis64)
        np.testing.assert_allclose(out, 100.0, atol=1e-9)

    def test_background_pixels_untouched(self, basis64):
        rng = np.random.default_rng(31)
        f = rng.uniform(0, 255, (64, 64))
        mask = rng.random((64, 64)) < 0.2
        out, _ = fill_one(f, mask, basis64)
        np.testing.assert_array_equal(out[~mask], f[~mask])

    @pytest.mark.parametrize("bad", ["blocks", "masks"])
    @pytest.mark.parametrize("shape", [(1, 4, 16), (1, 2, 32), (8, 8), (1, 65), (2, 8, 8)])
    def test_block_not_n_by_n(self, bad, shape):
        # 64 values a block, but not a stack of 8x8 blocks: read row-major they
        # would fit the wrong pixels; a flat stack of another length; one block,
        # not a stack; or a stack of another length than the other's
        args = {"blocks": np.zeros((1, 8, 8)), "masks": np.eye(8, dtype=bool)[None]}
        args[bad] = np.resize(args[bad], shape)
        message = f"{bad} must have shape (m, 8, 8) or (m, 64), got {shape}"
        if shape == (2, 8, 8):
            message = f"blocks and masks must hold as many blocks, got {len(args['blocks'])} and {len(args['masks'])}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fill_background(args["blocks"], args["masks"], build_basis(8, 3))

    def test_flat_stacks_are_read_row_major(self, basis64):
        rng = np.random.default_rng(37)
        blocks = rng.uniform(0, 255, (3, 64, 64))
        masks = rng.random((3, 64, 64)) < 0.2
        filled, fitted = fill_background(blocks, masks, basis64)
        flat_filled, flat_fitted = fill_background(blocks.reshape(3, -1), masks.reshape(3, -1), basis64)
        np.testing.assert_array_equal(flat_filled, filled)
        np.testing.assert_array_equal(flat_fitted, fitted)

    # 0 is a fully masked block, 9 is k - 1
    @pytest.mark.parametrize("count", [0, 5, 9])
    def test_too_few_background_pixels(self, basis64, cfg, count):
        mask = np.ones((64, 64), dtype=bool)
        mask[0, :count] = False
        _, fitted = fill_one(np.zeros((64, 64)), mask, basis64)
        assert not fitted
        # the layers give such a block its solver layer B alpha under its mask
        f, _, _ = gen_block(SynthSpec(seed=47))
        seg = dataclasses.replace(next(segment_images([f], cfg)), mask=mask, block_masks=mask[None])
        background, _, _ = assemble_layers(seg)
        solver_layer = (basis64.atoms @ seg.decomposition.alpha[0]).reshape(64, 64)
        np.testing.assert_array_equal(background[mask], solver_layer[mask])
        np.testing.assert_array_equal(background[~mask], f[~mask])

    def test_rank_deficient_background(self, basis64):
        # background confined to one column cannot pin down column frequencies
        mask = np.ones((64, 64), dtype=bool)
        mask[:, 0] = False
        _, fitted = fill_one(np.zeros((64, 64)), mask, basis64)
        assert not fitted

    def test_fit_decision_matches_matrix_rank(self, basis64, cfg):
        # the decision on the k x k normal matrix against the SVD rank of the
        # masked basis, on the masks of regime, noise and stripe blocks and on
        # masks at the limit: k to k + 5 background pixels, 1 to 3 background
        # rows or columns (rank-deficient), 4 to 6 scattered columns (full rank)
        rng = np.random.default_rng(89)
        specs = (SynthSpec(), SynthSpec(stroke_amplitude=10.0), SynthSpec(k_true=15), SynthSpec(diagonal_strokes=True))
        blocks = [gen_block(dataclasses.replace(s, seed=seed))[0] for s in specs for seed in (5, 6)]
        blocks += [rng.uniform(0, 255, (64, 64)), stripe_block()]
        masks = [segment_alone(f, cfg)[0] for f in blocks]
        for count in range(10, 16):
            background = rng.choice(4096, count, replace=False)
            masks.append(~np.isin(np.arange(4096), background).reshape(64, 64))
        for width in (1, 2, 3):
            for background in ((slice(0, width), slice(None)), (slice(None), slice(0, width))):
                mask = np.ones((64, 64), dtype=bool)
                mask[background] = False
                masks.append(mask)
        for width in (4, 5, 6):
            mask = np.ones((64, 64), dtype=bool)
            mask[:, rng.choice(64, width, replace=False)] = False
            masks.append(mask)
        _, fitted = fill_background(np.repeat(blocks[:1], len(masks), axis=0), masks, basis64)
        refused = list(~fitted)
        for i, mask in enumerate(masks):
            assert mask.any()
            sub = basis64.atoms[~mask.ravel()]
            assert refused[i] == (np.linalg.matrix_rank(sub) < 10), f"mask {i}"
        stripe = len(blocks) - 1
        assert refused[stripe] and not all(refused)

    @pytest.mark.parametrize("rows, cols", [(4, 64), (64, 4), (4, 4), (64, 5)])
    def test_ill_conditioned_fit_refused(self, basis64, rows, cols):
        # matrix_rank calls these backgrounds full rank, but their normal
        # matrix is so ill-conditioned that its solve misses an exactly
        # smooth block by more than a gray level
        mask = np.ones((64, 64), dtype=bool)
        mask[:rows, :cols] = False
        sub = basis64.atoms[~mask.ravel()]
        assert np.linalg.matrix_rank(sub) == 10
        gram = sub.T @ sub
        assert np.linalg.cond(gram) > MAX_FIT_CONDITION
        coef = np.random.default_rng(29).uniform(-100, 100, 10)
        coef[0] = 128.0 * 64
        f = basis64.atoms @ coef
        fit = basis64.atoms @ np.linalg.solve(gram, sub.T @ f[~mask.ravel()])
        assert np.abs(fit - f).max() > 1.0
        _, fitted = fill_one(f, mask, basis64)
        assert not fitted

    def test_values_under_the_mask_do_not_enter_the_fit(self, basis64):
        # NaN or inf marks a pixel to fill: the fit reads the background only
        rng = np.random.default_rng(101)
        f = rng.uniform(0, 255, (64, 64))
        mask = rng.random((64, 64)) < 0.3
        marked = np.stack([np.where(mask, bad, f) for bad in (np.nan, np.inf, -np.inf, 0.0)])
        filled, fitted = fill_background(marked, np.repeat(mask[None], 4, axis=0), basis64)
        assert fitted.all() and np.isfinite(filled).all()
        for block in filled:
            np.testing.assert_array_equal(block, filled[-1])
        np.testing.assert_allclose(filled[0][mask], least_squares_holes(f, mask, basis64), atol=1e-9)
        np.testing.assert_array_equal(filled[0][~mask], f[~mask])
        # a block that cannot be fitted comes back as it was, marks included
        full = np.ones((64, 64), dtype=bool)
        out, fitted = fill_one(np.where(full, np.nan, f), full, basis64)
        assert not fitted and np.isnan(out).all()

    def test_large_k_fill_matches_least_squares(self):
        # 16-pixel blocks with 200 of their 256 atoms: each block's fit holds
        # only its own k x k normal matrix, never a table that grows with k^2
        # (256 x 200^2 doubles would be 82 MB)
        basis = build_basis(16, 200)
        rng = np.random.default_rng(103)
        counts = [256, 250, 230, 215, 199, 0, 240, 205]
        blocks = rng.uniform(0, 255, (len(counts), 16, 16))
        masks = np.ones((len(counts), 256), dtype=bool)
        for mask, count in zip(masks, counts):
            mask[rng.choice(256, count, replace=False)] = False
        masks = masks.reshape(-1, 16, 16)
        (filled, fitted), peak = traced_peak(fill_background, blocks, masks, basis)
        assert peak < 16 * 2**20
        assert list(fitted) == [count >= 200 for count in counts]
        for f, mask, out, ok in zip(blocks, masks, filled, fitted):
            np.testing.assert_array_equal(out[~mask], f[~mask])
            if ok and mask.any():
                np.testing.assert_allclose(out[mask], least_squares_holes(f, mask, basis), atol=1e-6)
            elif not ok:
                np.testing.assert_array_equal(out, f)
        # every block, filled alone, gets the bits it got in the stack
        for i in range(len(counts)):
            out, ok = fill_one(blocks[i], masks[i], basis)
            np.testing.assert_array_equal(out, filled[i])
            assert ok == fitted[i]
        # nor does a page of 64 such blocks hold all their fits at once (46 MB)
        (many, many_fitted), peak = traced_peak(fill_background, np.tile(blocks, (8, 1, 1)), np.tile(masks, (8, 1, 1)), basis)
        assert peak < 16 * 2**20
        np.testing.assert_array_equal(many, np.tile(filled, (8, 1, 1)))
        np.testing.assert_array_equal(many_fitted, np.tile(fitted, 8))

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.sampled_from([4, 8, 16]),
        k_share=st.floats(0, 1),
        kind=st.sampled_from(["random", "rows", "columns", "corner", "near-full"]),
        width_share=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=8, k_share=1 / 64, kind="rows", width_share=0.5, seed=1)  # k = 2: one u, two v
    @example(n=8, k_share=3 / 64, kind="columns", width_share=0.5, seed=2)  # k = 4: three u, two v
    @example(n=16, k_share=1.0, kind="near-full", width_share=1.0, seed=3)  # k = n*n
    def test_matches_the_dense_fill(self, n, k_share, kind, width_share, seed):
        # the separable fit against the masked-atom one it replaced: the same decision, and
        # fills within a bound that grows with the normal matrix's condition number
        k = 1 + round(k_share * (n * n - 1))
        basis = build_basis(n, k)
        rng = np.random.default_rng(seed)
        width = 1 + round(width_share * (n - 2))
        mask = np.ones((n, n), dtype=bool)
        if kind == "random":
            mask = rng.random((n, n)) < rng.uniform(0.05, 0.95)
        elif kind == "rows":
            mask[:width] = False
        elif kind == "columns":
            mask[:, -width:] = False
        elif kind == "corner":
            mask[-width:, :width] = False
        else:  # 0 to k + 3 background pixels
            mask.flat[rng.choice(n * n, min(n * n, round(width_share * (k + 3))), replace=False)] = False
        blocks = np.stack([rng.uniform(0, 255, (n, n)), np.where(mask, np.nan, rng.uniform(0, 255, (n, n)))])
        masks = np.stack([mask, mask])
        filled, fitted = fill_background(blocks, masks, basis)
        want, want_fitted = dense_fill_background(blocks, masks, basis)
        sub = basis.atoms[~mask.ravel()]
        w = np.linalg.eigvalsh(sub.T @ sub)
        near_bound = len(sub) >= k and 0.9 < w[-1] / (MAX_FIT_CONDITION * w[0]) < 1.1 if w[0] > 0 else False
        if not near_bound:  # within rounding of the bound either side may decide
            np.testing.assert_array_equal(fitted, want_fitted)
        for block, out, ref, ok, ref_ok in zip(blocks, filled, want, fitted, want_fitted):
            np.testing.assert_array_equal(out[~mask], block[~mask])
            if not ok:
                np.testing.assert_array_equal(out, block)
            elif ref_ok:
                tol = 8 * (w[-1] / w[0]) * np.finfo(float).eps * np.linalg.norm(ref)
                np.testing.assert_allclose(out, ref, rtol=0, atol=tol)

    def test_fitted_matches_the_dense_fill_on_thin_backgrounds(self, basis64, cfg):
        # 1 to 11 background rows, columns and corner squares, the stripe block and the
        # masks the solver gives regime blocks: the dense fill's decision on every one
        rng = np.random.default_rng(109)
        masks = []
        for width in range(1, 12):
            for background in ((slice(0, width), slice(None)), (slice(None), slice(-width, None)),
                               (slice(0, width), slice(0, width)), (slice(-width, None), slice(-width, None))):
                mask = np.ones((64, 64), dtype=bool)
                mask[background] = False
                masks.append(mask)
        specs = (SynthSpec(), SynthSpec(stroke_amplitude=10.0), SynthSpec(k_true=15), SynthSpec(diagonal_strokes=True))
        blocks = [gen_block(dataclasses.replace(spec, seed=seed))[0] for spec in specs for seed in (11, 12)]
        blocks.append(stripe_block())
        masks += [segment_alone(f, cfg)[0] for f in blocks]
        blocks = np.concatenate([rng.uniform(0, 255, (len(masks) - len(blocks), 64, 64)), blocks])
        filled, fitted = fill_background(blocks, masks, basis64)
        want, want_fitted = dense_fill_background(blocks, masks, basis64)
        np.testing.assert_array_equal(fitted, want_fitted)
        thin = fitted[:44]
        assert thin.any() and not thin.all() and fitted[-9:-1].all() and not fitted[-1]
        # the regime blocks' layers round to the same gray levels
        np.testing.assert_array_equal(np.rint(filled[-9:]), np.rint(want[-9:]))

    @pytest.mark.parametrize("k", [10, 28])
    def test_ill_conditioned_fits_no_less_accurate_than_dense(self, k):
        # above condition 1e6 the two fills part; against a QR (lstsq) fit of the kept pixels the
        # separable one is no further off in median, on rectangles of background at every place
        # a 16-pixel block can hold them
        basis = build_basis(16, k)
        rng = np.random.default_rng(113)
        separable, dense = [], []
        for rows in range(1, 17):
            for cols in range(1, 17):
                for top in (0, (16 - rows) // 2):
                    mask = np.ones((16, 16), dtype=bool)
                    mask[top : top + rows, top * cols // 16 : top * cols // 16 + cols] = False
                    sub = basis.atoms[~mask.ravel()]
                    if len(sub) < k or mask.sum() == 0:
                        continue
                    w = np.linalg.eigvalsh(sub.T @ sub)
                    if not 1e6 < w[-1] / w[0] <= MAX_FIT_CONDITION:
                        continue
                    f = rng.uniform(0, 255, (16, 16))
                    (out,), (ok,) = fill_background(f[None], mask[None], basis)
                    (ref,), (ref_ok,) = dense_fill_background(f[None], mask[None], basis)
                    if not (ok and ref_ok):
                        continue
                    qr = least_squares_holes(f, mask, basis)
                    separable.append(np.abs(out[mask] - qr).max())
                    dense.append(np.abs(ref[mask] - qr).max())
        separable, dense = np.array(separable), np.array(dense)
        assert len(separable) >= 30
        assert np.median(separable) <= np.median(dense)
        assert np.median(separable / dense) < 1

    def test_block_results_independent_of_the_stack(self, basis64, cfg):
        # every block, filled at every position of stacks of 2 to 9 blocks that
        # mix fitted, empty-mask, fully masked and stripe blocks, gets the bits
        # it gets alone
        rng = np.random.default_rng(97)
        specs = (SynthSpec(), SynthSpec(k_true=15), SynthSpec(diagonal_strokes=True))
        pool = [gen_block(dataclasses.replace(s, seed=71))[0] for s in specs] + [stripe_block()]
        pool = [(f, segment_alone(f, cfg)[0]) for f in pool]
        pool += [(rng.uniform(0, 255, (64, 64)), np.zeros((64, 64), dtype=bool))]
        pool += [(rng.uniform(0, 255, (64, 64)), np.ones((64, 64), dtype=bool))]
        alone = [fill_one(f, mask, basis64) for f, mask in pool]
        assert [fitted for _, fitted in alone] == [True, True, True, False, True, False]
        # the fitted holes against a per-block least-squares reference
        for (f, mask), (filled, fitted) in zip(pool, alone):
            if fitted and mask.any():
                coef = np.linalg.lstsq(basis64.atoms[~mask.ravel()], f[~mask], rcond=None)[0]
                np.testing.assert_allclose(filled[mask], (basis64.atoms @ coef)[mask.ravel()], atol=1e-9)
        for size in range(2, 10):
            for target in range(len(pool)):
                for pos in range(size):
                    picks = rng.integers(0, len(pool), size)
                    picks[pos] = target
                    filled, fitted = fill_background([pool[i][0] for i in picks], [pool[i][1] for i in picks], basis64)
                    np.testing.assert_array_equal(filled[pos], alone[target][0])
                    assert fitted[pos] == alone[target][1]


class TestReconstructLayers:
    def test_uniform_image(self):
        img = np.full((64, 64), 77.0)
        background, foreground, mask = reconstruct_layers(img)
        np.testing.assert_array_equal(background, img)
        assert not foreground.any()
        assert not mask.any()

    def test_synthetic_background_close_to_truth(self):
        f, _, smooth = gen_block(SynthSpec(seed=37))
        background, foreground, mask = reconstruct_layers(f)
        rms = np.sqrt(np.mean((background - smooth) ** 2))
        assert rms <= 2.0
        np.testing.assert_array_equal(foreground[mask], f[mask])
        assert not foreground[~mask].any()

    def test_single_block_matches_direct_path(self, basis64, cfg):
        f, _, _ = gen_block(SynthSpec(seed=41))
        mask_direct, _ = segment_alone(f, cfg)
        filled_direct, _ = fill_one(f, mask_direct, basis64)
        background, _, mask = reconstruct_layers(f, cfg)
        np.testing.assert_array_equal(mask, mask_direct)
        np.testing.assert_allclose(background, filled_direct, atol=1e-12)

    def test_stripe_block_falls_back_to_solver_layer(self, basis64, cfg):
        smooth, _, _ = gen_block(SynthSpec(seed=43))
        img = np.hstack([stripe_block(), smooth])
        mask_stripe, dec = segment_alone(stripe_block(), cfg)
        _, fitted = fill_one(stripe_block(), mask_stripe, basis64)
        assert not fitted
        background, foreground, mask = reconstruct_layers(img, cfg)
        np.testing.assert_array_equal(background[~mask], img[~mask])
        np.testing.assert_array_equal(foreground, np.where(mask, img, 0.0))
        solver_layer = (basis64.atoms @ dec.alpha[0]).reshape(64, 64)
        assert mask_stripe.any()
        np.testing.assert_array_equal(background[:, :64][mask_stripe], solver_layer[mask_stripe])
        # the fitted block beside it is filled as it would be alone
        np.testing.assert_array_equal(background[:, 64:], reconstruct_layers(smooth, cfg)[0])

    def test_large_k_layers(self):
        # 16-pixel blocks at k = 200: fitted holes match a per-block lstsq fit,
        # a block left 199 background pixels gets B alpha, and the layers stay
        # within a few MB
        f, _, _ = gen_block(SynthSpec(seed=41))
        seg = next(segment_images([f], SegmentationConfig(block_size=16, k_bases=200)))
        masks = seg.block_masks.copy()
        masks[5] = True
        masks[5].flat[np.random.default_rng(107).choice(256, 199, replace=False)] = False
        seg = dataclasses.replace(seg, mask=stitch(seg.grid, masks), block_masks=masks)
        (background, _, mask), peak = traced_peak(assemble_layers, seg)
        assert peak < 16 * 2**20
        blocks = tile(background, 16).blocks
        atoms = seg.basis.atoms
        for i, (block, out, m, alpha) in enumerate(zip(seg.grid.blocks, blocks, masks, seg.decomposition.alpha)):
            np.testing.assert_array_equal(out[~m], block[~m])
            if i == 5:
                np.testing.assert_array_equal(out[m], (atoms @ alpha)[m.ravel()])
            elif m.any():
                np.testing.assert_allclose(out[m], least_squares_holes(block, m, seg.basis), atol=1e-6)
        assert sum(m.any() for m in masks) > 2

    def test_assemble_layers_reads_the_record(self, cfg):
        # the record keeps the blocks, not the image: the foreground has the image's bits
        # under the mask and +0.0 elsewhere, negative pixels included, and a grid one block
        # wide keeps its blocks unchanged
        smooth, _, _ = gen_block(SynthSpec(seed=43))
        img = np.hstack([stripe_block(), smooth])
        for image in (img, img - 128.0, np.tile(img, (2, 1))[:100, :50]):
            seg = next(segment_images([image], cfg))
            assert not hasattr(seg, "image")
            blocks = seg.grid.blocks.copy()
            layers = assemble_layers(seg)
            assert layers[1].tobytes() == np.where(seg.mask, image, 0.0).tobytes()
            assert seg.grid.blocks.tobytes() == blocks.tobytes()
            for got, want in zip(layers, reconstruct_layers(image, cfg), strict=True):
                np.testing.assert_array_equal(got, want)
            if image.min() < 0:
                assert (image[seg.mask] < 0).any() and (image[~seg.mask] < 0).any()

    @pytest.mark.parametrize("shape", [(100, 50), (100, 70)])
    def test_record_mask_is_not_a_view_of_the_block_masks(self, cfg, shape):
        img = np.tile(np.hstack([stripe_block(), gen_block(SynthSpec(seed=43))[0]]), (2, 1))[: shape[0], : shape[1]]
        seg = next(segment_images([img], cfg))
        assert seg.mask.any() and not np.shares_memory(seg.mask, seg.block_masks)

    def test_multiblock_shapes(self):
        img = np.full((65, 130), 128.0)
        cfg = SegmentationConfig(solver=SolverParams(max_iters=10))
        background, foreground, mask = reconstruct_layers(img, cfg)
        assert background.shape == (65, 130)
        assert foreground.shape == (65, 130)
        assert mask.shape == (65, 130)
