import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scseg import SynthSpec, build_basis, gen_block, load_gray, load_manifest, load_mask, save_gray, save_mask
from scseg import synth, write_dataset


def test_no_strokes_means_empty_truth():
    f, truth, smooth = gen_block(SynthSpec(stroke_count=0, seed=2))
    assert not truth.any()
    np.testing.assert_array_equal(f, smooth)


def test_dc_only_gives_constant_midgray():
    f, truth, smooth = gen_block(SynthSpec(k_true=1, stroke_count=0, seed=5))
    np.testing.assert_allclose(smooth, 128.0, atol=1e-9)
    np.testing.assert_allclose(f, 128.0, atol=1e-9)


def test_deterministic_per_seed():
    spec = SynthSpec(seed=7)
    a = gen_block(spec)
    b = gen_block(spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_different_seeds_differ():
    f1, _, _ = gen_block(SynthSpec(seed=1))
    f2, _, _ = gen_block(SynthSpec(seed=2))
    assert (f1 != f2).any()


def test_output_range_clipped():
    f, _, _ = gen_block(SynthSpec(stroke_amplitude=250.0, stroke_count=2, seed=3))
    assert f.min() >= 0.0 and f.max() <= 255.0


def test_truth_within_visible_difference():
    for seed in range(8):
        f, truth, smooth = gen_block(SynthSpec(seed=seed))
        assert not (truth & (f == smooth)).any()


def test_no_truth_where_the_smooth_layer_saturates():
    # at alpha_range 5000 the smooth layer runs far outside [0, 255]: a stroke on a pixel whose
    # layer is clipped can leave the block equal to the clipped layer, invisible, so not truth
    f, truth, smooth = gen_block(SynthSpec(alpha_range=5000, seed=0))
    clipped = np.clip(smooth, 0.0, 255.0)
    assert truth.any()
    assert not (truth & (f == clipped)).any()
    np.testing.assert_array_equal(truth, f != clipped)


def test_smooth_layer_in_basis_span():
    spec = SynthSpec(k_true=6, stroke_count=0, seed=13)
    _, _, smooth = gen_block(spec)
    basis = build_basis(spec.n, 10)  # k_true <= model order
    flat = smooth.ravel()
    projected = basis.atoms @ (basis.atoms.T @ flat)
    np.testing.assert_allclose(projected, flat, atol=1e-9)


def test_foreground_fraction_bounded():
    for seed in range(20):
        spec = SynthSpec(seed=seed)
        _, truth, _ = gen_block(spec)
        assert truth.mean() <= spec.max_fg_fraction


def test_diagonal_strokes_supported():
    f, truth, smooth = gen_block(SynthSpec(diagonal_strokes=True, seed=17))
    assert truth.any()
    assert truth.mean() <= 0.10


def test_infeasible_budget_rejected():
    with pytest.raises(ValueError):
        gen_block(SynthSpec(stroke_count=50, max_fg_fraction=0.05, seed=0))


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n=2)
    with pytest.raises(ValueError):
        SynthSpec(k_true=0)
    with pytest.raises(ValueError):
        SynthSpec(max_fg_fraction=1.5)
    with pytest.raises(ValueError):
        SynthSpec(alpha_range=10**400)
    with pytest.raises(ValueError):
        SynthSpec(stroke_amplitude=10**400)


@pytest.mark.parametrize(
    "name, value",
    [("n", 16.0), ("k_true", 3.0), ("stroke_count", 2.0), ("seed", 1.5), ("seed", True),
     ("n", np.float64(16)), ("stroke_count", np.False_)],
)
def test_counts_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SynthSpec(**{name: value})


def test_counts_accept_numpy_integers():
    spec = SynthSpec(n=np.int64(16), k_true=np.int32(3), stroke_count=np.int16(1), seed=np.uint8(4))
    for got, want in zip(gen_block(spec), gen_block(SynthSpec(n=16, k_true=3, stroke_count=1, seed=4))):
        np.testing.assert_array_equal(got, want)


def test_a_numpy_int8_side_does_not_overflow():
    # 100 ** 2 overflows int8: the spec checks and keeps its counts as Python ints
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = SynthSpec(n=np.int8(100), k_true=5)
    assert spec == SynthSpec(n=100, k_true=5)


class TestWriteDataset:
    def test_files_and_manifest(self, tmp_path):
        manifest = write_dataset(tmp_path / "d", 4, SynthSpec(seed=1))
        entries = load_manifest(manifest)
        assert len(entries) == 4
        img = load_gray(entries[0].image_path)
        mask = load_mask(entries[0].mask_path)
        assert img.shape == (64, 64)
        assert mask.shape == (64, 64)

    def test_round_trip_matches_generator_truth(self, tmp_path):
        spec = SynthSpec(seed=21)
        manifest = write_dataset(tmp_path / "d", 2, spec)
        entries = load_manifest(manifest)
        f, truth, _ = gen_block(spec)
        np.testing.assert_array_equal(load_mask(entries[0].mask_path), truth)
        np.testing.assert_array_equal(load_gray(entries[0].image_path), np.rint(f))

    def test_files_are_gen_blocks_on_one_basis(self, tmp_path, monkeypatch):
        # the bytes that writing gen_block's blocks one at a time gives, from one basis a call
        spec = SynthSpec(k_true=9, seed=3)
        expected = tmp_path / "expected"
        expected.mkdir()
        for i in range(5):
            f, truth, _ = gen_block(replace(spec, seed=spec.seed + i))
            save_gray(f, expected / f"block_{i:04d}.pgm")
            save_mask(truth, expected / f"block_{i:04d}_mask.pbm")
        calls = []
        real_build_basis = synth.build_basis

        def counting(*args):
            calls.append(args)
            return real_build_basis(*args)

        monkeypatch.setattr(synth, "build_basis", counting)
        write_dataset(tmp_path / "d", 5, spec)
        assert calls == [(64, 9)]
        for path in sorted(expected.iterdir()):
            assert (tmp_path / "d" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_deterministic_directory(self, tmp_path):
        write_dataset(tmp_path / "a", 3, SynthSpec(seed=2))
        write_dataset(tmp_path / "b", 3, SynthSpec(seed=2))
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_count_zero_gives_empty_manifest(self, tmp_path):
        manifest = write_dataset(tmp_path / "d", 0, SynthSpec())
        assert load_manifest(manifest) == []

    def test_negative_count_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match=r"^count must be >= 0, got -3$"):
            write_dataset(tmp_path / "wd", -3, SynthSpec())
        assert not (tmp_path / "wd").exists()

    @pytest.mark.parametrize("count", [2.0, 2.5, "2", True, np.float64(2.0), np.True_], ids=repr)
    def test_non_integer_count_rejected_before_writing(self, tmp_path, count):
        with pytest.raises(ValueError, match=rf"^count must be an integer, got {re.escape(repr(count))}$"):
            write_dataset(tmp_path / "wd", count, SynthSpec())
        assert not (tmp_path / "wd").exists()

    def test_numpy_integer_count(self, tmp_path):
        assert len(load_manifest(write_dataset(tmp_path / "d", np.int64(2), SynthSpec()))) == 2

    def test_a_numpy_int16_seed_near_its_top_writes_every_block(self, tmp_path):
        # seed + i passes int16's largest value at the third block: the spec keeps a Python int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            manifest = write_dataset(tmp_path / "a", 3, SynthSpec(seed=np.int16(32766)))
        write_dataset(tmp_path / "b", 3, SynthSpec(seed=32766))
        assert len(load_manifest(manifest)) == 3
        names = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
