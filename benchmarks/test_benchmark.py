"""Self-tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import hashlib
import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scseg.admm  # noqa: E402
import scseg.cli  # noqa: E402
import scseg.segmentation  # noqa: E402
from inputs import pbm_bytes, pgm_bytes, read_pnm, write_manifests, write_page  # noqa: E402
from reference import REF_MS, HostSpeed, at_reference, kernel  # noqa: E402
from spans import TARGETS, Span, Tracer, covered_length, self_times  # noqa: E402
from workloads import Phase, make_workloads  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _tree_digest(directory) -> dict:
    return {
        name: hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


def _generate(directory, seed):
    directory.mkdir()
    write_page(directory, "page", seed, side=256)
    write_page(directory, "probe", seed, side=256, stripe_at=0, crop=128)
    write_manifests(directory, seed, manifests=2, per_manifest=4)
    return _tree_digest(directory)


def test_generator_same_seed_same_bytes(tmp_path):
    a = _generate(tmp_path / "a", 7)
    assert a == _generate(tmp_path / "b", 7)
    assert len(a) == 2 + 2 + 2 * 4 * 2  # pages, manifests, images and truth masks


def test_generator_seed_changes_bytes(tmp_path):
    a = _generate(tmp_path / "a", 7)
    b = _generate(tmp_path / "b", 8)
    assert a["page.pgm"] != b["page.pgm"]


def test_pnm_reader_round_trips_program_writer(tmp_path):
    rng = np.random.default_rng(0)
    mask = rng.random((13, 21)) > 0.5
    img = rng.integers(0, 256, (13, 21)).astype(np.float64)
    scseg.cli.save_mask(mask, tmp_path / "m.pbm")
    scseg.cli.save_gray(img, tmp_path / "g.pgm")
    assert np.array_equal(read_pnm((tmp_path / "m.pbm").read_bytes()), mask)
    assert np.array_equal(read_pnm((tmp_path / "g.pgm").read_bytes()), img)
    assert (tmp_path / "m.pbm").read_bytes() == pbm_bytes(mask)
    assert (tmp_path / "g.pgm").read_bytes() == pgm_bytes(img)
    with pytest.raises(ValueError):
        read_pnm(pbm_bytes(mask) + b"\0")


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 5)], 0.0, 10.0) == 4.0
    assert covered_length([(1, 3), (4, 5)], 0.0, 10.0) == 3.0
    assert covered_length([(-2, 1), (8, 12)], 0.0, 10.0) == 3.0
    assert covered_length([(11, 12)], 0.0, 10.0) == 0.0


def test_self_times_subtract_only_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a, as on another pool thread
        Span("leaf", 1.5, 2.0, 1),  # grandchild: counts against a only
        Span("c", 9.0, 12.0, 0),  # runs past its parent: only 1.0 is inside
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 0.5, 3.0, 0.5, 3.0])


def test_wrappers_restore_module_attributes():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in TARGETS}
    tracer = Tracer(fg_threshold=1.0)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert scseg.admm.soft is not originals[("scseg.admm", "soft")]
            assert scseg.segmentation.solve is not originals[("scseg.segmentation", "solve")]
            raise RuntimeError("leave the block early")
    assert tracer.missing == []
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[m], a) is fn, f"{m}.{a} not restored"


def test_traced_segment_counts_layers_and_pool_threads(tmp_path):
    page = write_page(tmp_path, "page", 3, side=128)
    argv = ["segment", "--input", page.path, "--mask-out", str(tmp_path / "m.pbm"),
            "--bg-out", str(tmp_path / "bg.pgm"), "--iters", "5", "--workers", "2"]
    tracer = Tracer(fg_threshold=1.0)
    with tracer.installed():
        assert scseg.cli.main(argv) == 0
    m = tracer.layer_metrics(items=1)
    assert m["admm.solve_calls"][0] == 4
    assert m["admm.iters"][0] == 20
    assert m["prox.soft_calls"][0] == 2 * 20
    assert m["segmentation.fill_background_calls"][0] == 4
    assert 0 < m["admm.useful_iter_frac"][0] <= 1
    assert 0 < m["segmentation.pool_busy_frac"][0] <= 1
    # Solves on pool threads hang under the main thread's segment_blocks span.
    names = [s.name for s in tracer.spans]
    blocks_span = names.index("segmentation.segment_blocks")
    assert {tracer.spans[i].parent for i, n in enumerate(names)
            if n == "segmentation.segment_block"} == {blocks_span}
    assert threading.active_count() == 1


def test_benchmark_json_matches_the_code():
    workloads = make_workloads()
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.values()
    ]
    layers = Tracer(fg_threshold=1.0).layer_metrics(items=1)
    layers["trace.overhead_frac"] = (0.0, "frac")
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }


def test_reference_kernel_is_fixed():
    assert kernel() == kernel()
    assert at_reference(2.0, REF_MS[1]) == 2.0
    assert at_reference(2.0, 2 * REF_MS[2], threads=2) == 1.0  # a host at half speed


def test_host_speed_threads_exist_only_during_a_slice():
    host = HostSpeed(threads=2)
    assert host.sample(0.0) > 0  # one round at least
    assert host.kernels == 1
    assert threading.active_count() == 1


def test_phase_scales_each_call_by_the_kernel_time_after_it(monkeypatch):
    phase = Phase()
    slices = iter([2 * REF_MS[1], REF_MS[1] / 2])
    monkeypatch.setattr(phase.host, "sample", lambda seconds: next(slices))
    phase.start_step()
    phase.record(1.0, 0.5, 1, ok=True)  # on a host at half speed
    phase.start_step()
    phase.record(1.0, 0.5, 1, ok=False)  # at double speed; completes nothing
    assert phase.item_ms_p50() == 1000.0
    assert phase.item_ms_p50(ref=True) == pytest.approx((500.0 + 2000.0) / 2)
    assert phase.mpix_per_s(ref=True) == pytest.approx((1.0 + 0.0) / 2)
