"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are fixed here and nowhere else.
"""

import os

import numpy as np
import pytest

from oracles import group_factor_along, subgradient_best_objective
from scseg import (
    SegmentationConfig,
    SolverParams,
    SynthSpec,
    build_basis,
    confusion,
    evaluate_dataset,
    fill_background,
    gen_block,
    load_manifest,
    load_mask,
    metrics,
    save_gray,
    segment_image,
    solve_blocks,
    objective,
    write_dataset,
)
from scseg.cli import main
from scseg.dct import zigzag_order
from scseg.prox import soft


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_operator_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(0, 50, 8)
        lam = rng.uniform(0, 40)
        closed = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
        worst = max(worst, np.abs(soft(x, lam) - closed).max())
        norm = np.linalg.norm(x)
        closed_block = (1 - lam / norm) * x if norm > lam else np.zeros_like(x)
        worst = max(worst, np.abs((x[None] * group_factor_along(x[None], lam, axis=1))[0] - closed_block).max())
    scalar_gap = 0.0
    for _ in range(1000):
        x = rng.normal(0, 50)
        lam = rng.uniform(0, 40)
        scalar_gap = max(scalar_gap, abs(x * group_factor_along([[x]], lam, axis=1)[0, 0] - soft([x], lam)[0]))
    report(
        "1 operator exactness",
        worst <= 1e-12 and scalar_gap <= 1e-12,
        f"closed-form gap {worst:.2e}, scalar reduction gap {scalar_gap:.2e}",
    )


def test_criterion_2_basis_orthonormality():
    basis = build_basis(64, 10)
    gram_err = float(np.abs(basis.atoms.T @ basis.atoms - np.eye(10)).max())
    hand_enumerated = [
        (0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (0, 3), (1, 2), (2, 1), (3, 0),
    ]
    order_ok = zigzag_order(64, 10) == hand_enumerated
    report(
        "2 basis orthonormality",
        gram_err <= 1e-10 and order_ok,
        f"max Gram error {gram_err:.2e}, zig-zag {'matches' if order_ok else 'differs'}",
    )


def test_criterion_3_solver_feasibility():
    basis = build_basis(64, 10)
    rng = np.random.default_rng(303)
    blocks = [rng.uniform(0, 255, 4096) for _ in range(50)]
    # every solve starts from the zero state, so a 50-sweep run gives the residual at sweep 50
    worst_50, worst_500 = (
        max(solve_blocks(blocks, basis, SolverParams(max_iters=k)).primal_residual)
        for k in (50, 500)
    )
    report(
        "3 solver feasibility",
        worst_500 <= 1e-3 and worst_50 <= 5e-2,
        f"relative primal residual at 500 iters {worst_500:.2e} (<=1e-3), "
        f"at 50 iters {worst_50:.2e} (<=5e-2)",
    )


def test_criterion_4_oracle_equivalence():
    n, k = 8, 3
    lambda1, lambda2 = 5.0, 1.0
    basis = build_basis(n, k)
    rng = np.random.default_rng(404)
    blocks = rng.uniform(0, 255, (10, n * n))
    oracle = subgradient_best_objective(blocks, basis.atoms, lambda1, lambda2, steps=100_000)
    params = SolverParams(lambda1=lambda1, lambda2=lambda2, max_iters=2000)
    worst = 0.0
    for i in range(10):
        alpha = solve_blocks([blocks[i]], basis, params).alpha[0]
        feasible = objective(alpha, blocks[i] - basis.atoms @ alpha, params)
        worst = max(worst, abs(feasible - oracle[i]) / oracle[i])
    report("4 oracle equivalence", worst <= 0.01, f"max relative objective gap {worst:.2e}")


def test_criterion_5_synthetic_recovery():
    cfg = SegmentationConfig()
    tp = fp = fn = 0
    for i in range(50):
        f, truth, _ = gen_block(SynthSpec(k_true=6, stroke_amplitude=100.0, seed=5000 + i))
        mask = segment_image(f, cfg)
        a, b, c = confusion(mask, truth)
        tp, fp, fn = tp + a, fp + b, fn + c
    m = metrics(tp, fp, fn)
    report(
        "5 synthetic recovery",
        m.f1 >= 0.90 and m.precision >= 0.90,
        f"micro F1 {m.f1:.4f} (>=0.90), micro precision {m.precision:.4f} (>=0.90)",
    )


def test_criterion_6_dataset_reproduction():
    manifest_path = os.environ.get("SCSEG_TABLE1_MANIFEST")
    if not manifest_path:
        print("[SKIP] 6 dataset reproduction (SCSEG_TABLE1_MANIFEST not set)")
        pytest.skip("reference dataset not available")
    report_data = evaluate_dataset(load_manifest(manifest_path), "proposed", SegmentationConfig())
    micro = report_data["micro"]
    ok = (
        abs(micro["precision"] - 0.937) <= 0.05
        and abs(micro["recall"] - 0.867) <= 0.05
        and abs(micro["f1"] - 0.900) <= 0.05
    )
    report(
        "6 dataset reproduction",
        ok,
        f"micro P/R/F1 {micro['precision']:.3f}/{micro['recall']:.3f}/{micro['f1']:.3f}",
    )


def test_criterion_7_background_fill_exactness():
    basis = build_basis(64, 10)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(10):
        coef = rng.uniform(-100, 100, 10)
        coef[0] = 128.0 * 64
        f = (basis.atoms @ coef).reshape(64, 64)
        mask = rng.random((64, 64)) < 0.5  # leaves ~2048 >> 2k background pixels
        filled = fill_background(f[None], mask[None], basis)[0][0]
        worst = max(worst, float(np.abs(filled - f).max()))
    report("7 background fill exactness", worst <= 1e-8, f"max abs error {worst:.2e}")


def test_criterion_8_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(data, 1, SynthSpec(seed=88))
    args = ["segment", "--input", str(data / "block_0000.pgm")]
    assert main(args + ["--mask-out", str(tmp_path / "a.pbm")]) == 0
    assert main(args + ["--mask-out", str(tmp_path / "b.pbm")]) == 0
    reruns_identical = (tmp_path / "a.pbm").read_bytes() == (tmp_path / "b.pbm").read_bytes()

    page = tmp_path / "page.pgm"
    save_gray(np.hstack([gen_block(SynthSpec(seed=s))[0] for s in (1, 2)]), page)
    page_args = ["segment", "--input", str(page)]
    assert main(page_args + ["--mask-out", str(tmp_path / "serial.pbm"), "--workers", "1"]) == 0
    assert main(page_args + ["--mask-out", str(tmp_path / "threaded.pbm"), "--workers", "4"]) == 0
    serial = load_mask(tmp_path / "serial.pbm")
    threaded = load_mask(tmp_path / "threaded.pbm")
    scheduling_identical = bool((serial == threaded).all())

    # A block's mask must not depend on which blocks share its solver batch:
    # a 3x3-block page, the same page with its blocks permuted, and each
    # block segmented alone.
    def page_of(tiles):
        return np.block([tiles[r * 3 : r * 3 + 3] for r in range(3)])

    blocks = [gen_block(SynthSpec(seed=880 + i))[0] for i in range(9)]
    order = np.random.default_rng(8).permutation(9)
    cfg = SegmentationConfig()
    alone = [segment_image(b, cfg) for b in blocks]
    page = segment_image(page_of(blocks), cfg)
    permuted = segment_image(page_of([blocks[i] for i in order]), cfg)
    batch_invariant = bool(
        (page == page_of(alone)).all()
        and (permuted == page_of([alone[i] for i in order])).all()
    )
    capsys.readouterr()
    with capsys.disabled():
        report(
            "8 determinism",
            reruns_identical and scheduling_identical and batch_invariant,
            f"reruns identical: {reruns_identical}, "
            f"thread scheduling identical: {scheduling_identical}, "
            f"batch composition invariant: {batch_invariant}",
        )


def test_criterion_9_metric_formulas():
    reference = metrics(937, 63, int(round(937 / 0.867 - 937)))
    f1_ok = abs(reference.f1 - 0.9006) <= 5e-4
    both_empty = metrics(0, 0, 0)
    empty_pred = metrics(0, 0, 5)
    empty_truth = metrics(0, 5, 0)
    degenerate_ok = (
        (both_empty.precision, both_empty.recall, both_empty.f1) == (1.0, 1.0, 1.0)
        and (empty_pred.precision, empty_pred.recall, empty_pred.f1) == (0.0, 0.0, 0.0)
        and (empty_truth.precision, empty_truth.recall, empty_truth.f1) == (0.0, 0.0, 0.0)
    )
    report(
        "9 metric formulas",
        f1_ok and degenerate_ok,
        f"F1 at the reference point {reference.f1:.4f} (~0.9006), "
        f"degenerate rules {'hold' if degenerate_ok else 'violated'}",
    )
