import json
import os

import numpy as np
import pytest

from scseg import (
    SegmentationConfig,
    SolverParams,
    SynthSpec,
    confusion,
    evaluate_dataset,
    gen_block,
    load_manifest,
    metrics,
    save_gray,
    save_mask,
    segment_image,
    segment_images,
    write_dataset,
)
from scseg.admm import BATCH_BLOCKS


def fast_cfg():
    return SegmentationConfig(solver=SolverParams(max_iters=50))


class TestConfusion:
    def test_perfect_prediction(self):
        truth = np.zeros((5, 5), dtype=bool)
        truth.ravel()[:10] = True
        assert confusion(truth, truth) == (10, 0, 0)

    def test_empty_prediction(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth.ravel()[:7] = True
        assert confusion(np.zeros_like(truth), truth) == (0, 0, 7)

    def test_partial_overlap(self):
        truth = np.zeros(16, dtype=bool)
        truth[:5] = True
        pred = np.zeros(16, dtype=bool)
        pred[2:6] = True  # 3 overlap truth, 1 outside
        assert confusion(pred.reshape(4, 4), truth.reshape(4, 4)) == (3, 1, 2)

    def test_self_comparison_no_errors(self):
        rng = np.random.default_rng(1)
        m = rng.random((9, 9)) < 0.3
        tp, fp, fn = confusion(m, m)
        assert fp == 0 and fn == 0

    def test_swap_exchanges_fp_fn(self):
        rng = np.random.default_rng(2)
        a = rng.random((8, 8)) < 0.4
        b = rng.random((8, 8)) < 0.4
        tp1, fp1, fn1 = confusion(a, b)
        tp2, fp2, fn2 = confusion(b, a)
        assert tp1 == tp2 and fp1 == fn2 and fn1 == fp2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


class TestMetrics:
    def test_perfect(self):
        m = metrics(10, 0, 0)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_harmonic_mean_of_equal_values(self):
        m = metrics(5, 5, 5)
        assert m.precision == 0.5 and m.recall == 0.5 and m.f1 == 0.5

    def test_reference_operating_point(self):
        # precision 93.7%, recall 86.7% must give F1 just above 90%
        m = metrics(937, 63, int(round(937 / 0.867 - 937)))
        assert m.precision == pytest.approx(0.937, abs=5e-4)
        assert m.recall == pytest.approx(0.867, abs=5e-4)
        assert m.f1 == pytest.approx(0.9006, abs=5e-4)

    def test_both_empty_is_perfect(self):
        m = metrics(0, 0, 0)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_empty_prediction_nonempty_truth(self):
        m = metrics(0, 0, 4)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_nonempty_prediction_empty_truth(self):
        m = metrics(0, 3, 0)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            metrics(-1, 0, 0)


class TestManifest:
    def test_parse_with_comments_and_labels(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("# header\na.pgm\ta.pbm\tfirst\n\nb.pgm\tb.pbm\n", encoding="utf-8")
        entries = load_manifest(mf)
        assert len(entries) == 2
        assert entries[0].image_path == str(tmp_path / "a.pgm")
        assert entries[0].label == "first"
        assert entries[1].label is None

    def test_absolute_paths_kept(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("/abs/x.pgm\t/abs/x.pbm\n", encoding="utf-8")
        entries = load_manifest(mf)
        assert entries[0].image_path == "/abs/x.pgm"

    def test_bad_line_rejected(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("only-one-field\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_manifest(mf)


class TestEvaluateDataset:
    def test_single_entry_micro_equals_macro(self, tmp_path):
        manifest = write_dataset(tmp_path, 1, SynthSpec(seed=3))
        report = evaluate_dataset(load_manifest(manifest), "proposed", fast_cfg())
        assert len(report["entries"]) == 1
        entry = report["entries"][0]
        assert report["micro"]["f1"] == pytest.approx(entry["f1"])
        assert report["macro"]["f1"] == pytest.approx(entry["f1"])

    def test_micro_pools_counts(self, tmp_path, monkeypatch):
        # two entries with confusion (10,0,0) and (0,10,0) pool to precision 1/2
        import scseg.evaluation as evaluation

        truth1 = np.zeros((8, 8), dtype=bool)
        truth1.ravel()[:10] = True
        truth2 = np.zeros((8, 8), dtype=bool)
        for i, truth in enumerate([truth1, truth2]):
            save_gray(np.zeros((8, 8)), tmp_path / f"img{i}.pgm")
            save_mask(truth, tmp_path / f"mask{i}.pbm")
        mf = tmp_path / "m.tsv"
        mf.write_text(
            "img0.pgm\tmask0.pbm\nimg1.pgm\tmask1.pbm\n", encoding="utf-8"
        )
        preds = {str(tmp_path / "img0.pgm"): truth1, str(tmp_path / "img1.pgm"): truth1}
        calls = []

        def fake_segment_images(images, cfg):
            for _ in images:
                yield preds[calls.pop(0)]

        monkeypatch.setattr(evaluation, "segment_images", fake_segment_images)
        entries = load_manifest(mf)
        calls.extend(sorted(e.image_path for e in entries))
        report = evaluate_dataset(entries, "proposed", fast_cfg())
        assert report["micro"]["tp"] == 10
        assert report["micro"]["fp"] == 10
        assert report["micro"]["precision"] == pytest.approx(0.5)

    def test_synthetic_dataset_scores_high(self, tmp_path):
        manifest = write_dataset(tmp_path, 5, SynthSpec(seed=100))
        report = evaluate_dataset(load_manifest(manifest), "proposed", fast_cfg())
        assert report["micro"]["f1"] >= 0.9
        assert report["errors"] == []

    def test_kmeans_method_runs(self, tmp_path):
        manifest = write_dataset(tmp_path, 3, SynthSpec(seed=50))
        report = evaluate_dataset(load_manifest(manifest), "kmeans2", fast_cfg())
        assert len(report["entries"]) == 3

    def test_unreadable_entry_skipped_and_reported(self, tmp_path):
        manifest = write_dataset(tmp_path, 2, SynthSpec(seed=9))
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("missing.pgm\tmissing.pbm\n")
        report = evaluate_dataset(load_manifest(manifest), "proposed", fast_cfg())
        assert len(report["entries"]) == 2
        assert len(report["errors"]) == 1
        assert "missing.pgm" in report["errors"][0]["path"]

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dataset([], "proposed", fast_cfg())

    def test_unknown_segmenter_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path, 1, SynthSpec(seed=1))
        with pytest.raises(ValueError):
            evaluate_dataset(load_manifest(manifest), "mystery", fast_cfg())

    def test_entries_sorted_by_path(self, tmp_path):
        manifest = write_dataset(tmp_path, 3, SynthSpec(seed=77))
        report = evaluate_dataset(load_manifest(manifest), "kmeans2", fast_cfg())
        paths = [e["path"] for e in report["entries"]]
        assert paths == sorted(paths)


def synthetic_page(shape, seed):
    """Synthetic 64-pixel blocks tiled row-major, cropped to shape; returns (image, truth)."""
    rows, cols = -(-shape[0] // 64), -(-shape[1] // 64)
    pairs = [gen_block(SynthSpec(seed=seed + i))[:2] for i in range(rows * cols)]
    img = np.block([[pairs[r * cols + c][0] for c in range(cols)] for r in range(rows)])
    truth = np.block([[pairs[r * cols + c][1] for c in range(cols)] for r in range(rows)])
    return img[: shape[0], : shape[1]], truth[: shape[0], : shape[1]]


class TestGroupedEvaluation:
    def test_report_equals_per_image_segmentation(self, tmp_path, monkeypatch):
        # Sorted order, blocks per image, and the solver groups of 8+ blocks:
        #   e00-e02 (1 each), e03 missing, e04 mask-shape mismatch, e05 (1),
        #   e06 100x70 (4, padded edges)  -> group of 8
        #   e07, e08 (1 each), e09 256x256 (16)  -> group of 18
        #   e10-e12 (1 each)  -> last group of 3
        import scseg.evaluation as evaluation
        import scseg.segmentation as segmentation

        shapes = {"e06": (100, 70), "e09": (256, 256)}
        lines = []
        for i in range(13):
            name = f"e{i:02d}"
            lines.append(f"{name}.pgm\t{name}.pbm\n")
            if name == "e03":
                continue
            img, truth = synthetic_page(shapes.get(name, (64, 64)), seed=300 + 20 * i)
            save_gray(img, tmp_path / f"{name}.pgm")
            save_mask(truth[:32, :32] if name == "e04" else truth, tmp_path / f"{name}.pbm")
        mf = tmp_path / "m.tsv"
        mf.write_text("".join(reversed(lines)), encoding="utf-8")
        entries = load_manifest(mf)
        cfg = SegmentationConfig()

        solves = []
        solve_blocks = segmentation.solve_blocks

        def counting_solve_blocks(blocks, basis, params):
            solves.append(len(blocks))
            return solve_blocks(blocks, basis, params)

        monkeypatch.setattr(segmentation, "solve_blocks", counting_solve_blocks)
        grouped = evaluate_dataset(entries, "proposed", cfg)
        assert solves == [8, 18, 3]

        def per_image(images, cfg):
            return (segment_image(img, cfg) for img in images)

        monkeypatch.setattr(evaluation, "segment_images", per_image)
        solves.clear()
        alone = evaluate_dataset(entries, "proposed", cfg)
        assert solves == [1, 1, 1, 1, 4, 1, 1, 16, 1, 1, 1]

        assert json.dumps(grouped, indent=2) == json.dumps(alone, indent=2)
        assert [e["path"] for e in grouped["errors"]] == [
            str(tmp_path / "e03.pgm"), str(tmp_path / "e04.pgm")
        ]
        assert len(grouped["entries"]) == 11

    def test_segment_images_pulls_one_group_at_a_time(self):
        cfg = SegmentationConfig(block_size=8, k_bases=3, solver=SolverParams(max_iters=2))
        rng = np.random.default_rng(5)
        pulled = 0

        def images():
            nonlocal pulled
            for _ in range(3 * BATCH_BLOCKS + 2):
                pulled += 1
                yield rng.uniform(0, 255, (8, 8))

        masks = segment_images(images(), cfg)
        next(masks)
        assert pulled <= BATCH_BLOCKS
        yielded = 1
        for _ in masks:
            yielded += 1
            assert pulled - yielded < BATCH_BLOCKS
        assert yielded == pulled == 3 * BATCH_BLOCKS + 2

    def test_segment_images_grouping_ignores_workers(self, monkeypatch):
        # a worker count far above the usable CPUs does not grow the groups
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        solver = SolverParams(max_iters=2, workers=100000)
        cfg = SegmentationConfig(block_size=8, k_bases=3, solver=solver)
        rng = np.random.default_rng(6)
        pulled = 0

        def images():
            nonlocal pulled
            for _ in range(2 * BATCH_BLOCKS):
                pulled += 1
                yield rng.uniform(0, 255, (8, 8))

        masks = segment_images(images(), cfg)
        next(masks)
        assert pulled == BATCH_BLOCKS
        assert len(list(masks)) == 2 * BATCH_BLOCKS - 1
