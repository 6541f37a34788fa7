"""The benchmark's workloads: generated inputs, timed CLI calls, output checks.

Every timed operation is one in-process call of the public entry point
`scseg.cli.main` on files the generator wrote; the program sees nothing else.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scseg.cli

from inputs import BLOCK, CLEAN, PAGE_SIDE, REGIMES, read_pnm, write_manifests, write_page
from reference import REF_SHARE, HostSpeed, at_reference

PAGES = 16
MANIFESTS = 32
IMAGES_PER_MANIFEST = 8
# The planted page is a 4x4-block crop of the first page.
PROBE_SIDE = 4 * BLOCK


class Checks:
    """Collects failed output checks; the run is correct when there are none."""

    def __init__(self):
        self.failures = []

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def ok(self) -> bool:
        return not self.failures


def call_cli(argv):
    """Run `scseg.cli.main(argv)` with its console output captured; returns (rc, wall_s, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        rc = scseg.cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, wall, err.getvalue()


def prf(tp: int, fp: int, fn: int) -> dict:
    """Precision, recall and F1, computed apart from `scseg.evaluation`, whose reports this checks."""
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall, "f1": f1}


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


class Phase:
    """Timed CLI calls of one phase, summed per step.

    A step is one call on one page, or on eval-blocks one call per method on
    one manifest. After every call the reference kernel runs for REF_SHARE
    of the call's wall time, and the call's wall time scaled to the
    reference host speed is kept beside the raw one (see reference.py).
    """

    def __init__(self, threads: int = 1):
        self.steps = []  # [wall_s, megapixels completed, items, wall_s at reference speed] per step
        self.call_item_ms = []  # per call: wall per item
        self.attempted = 0
        self.failed = 0
        self.baseline = None  # kmeans2 calls on eval-blocks
        self.host = HostSpeed(threads)

    def start_step(self) -> None:
        self.steps.append([0.0, 0.0, 0, 0.0])

    def record(self, wall_s: float, mpix: float, items: int, ok: bool) -> None:
        """Add one call to the current step; a failed call completes no megapixels."""
        ref_ms = self.host.sample(wall_s * REF_SHARE)
        step = self.steps[-1]
        step[0] += wall_s
        step[1] += mpix if ok else 0.0
        step[2] += items
        step[3] += at_reference(wall_s, ref_ms, self.host.threads)
        self.call_item_ms.append(wall_s * 1e3 / items)
        self.attempted += 1
        self.failed += not ok

    @property
    def items(self) -> int:
        return sum(n for _, _, n, _ in self.steps)

    def mpix_per_s(self, ref: bool = False) -> float:
        """Median over steps of megapixels completed per wall second (at reference speed if `ref`)."""
        return median([mpix / (ref_wall if ref else wall) for wall, mpix, _, ref_wall in self.steps])

    def item_ms_p50(self, ref: bool = False) -> float:
        """Median over steps of wall milliseconds per item (at reference speed if `ref`)."""
        return median([(ref_wall if ref else wall) * 1e3 / n for wall, _, n, ref_wall in self.steps])


def run_phase(workload, seconds: float, min_steps: int, checks: Checks) -> Phase:
    """Run at least `min_steps` steps, then more while the next one should end near `seconds`.

    The reference kernel runs on as many threads as the workload's calls use.

    A step is started only if, judged by the last step's duration, less than
    half of it would run past the deadline, so runs last about `seconds`
    even when one step takes several seconds.
    """
    phase = Phase(workload.workers)
    start = time.perf_counter()
    step = 0
    last = 0.0
    while step < min_steps or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        phase.start_step()
        workload.step(phase, checks)
        last = time.perf_counter() - t0
        step += 1
    return phase


class PageWorkload:
    """`scseg segment` on PAGES generated pages in turn; a step is one call on one page."""

    def __init__(self, name, why, regimes, workers, layers, planted):
        self.name = name
        self.why = why
        self.regimes = regimes
        self.workers = workers
        self.layers = layers
        self.planted = planted
        self.cycle = PAGES

    def describe(self) -> dict:
        return {
            "pages": PAGES,
            "page_side": PAGE_SIDE,
            "block": BLOCK,
            "regimes": [name for name, _ in self.regimes],
            "workers": self.workers,
            "layers": self.layers,
            "planted_stripe_page": self.planted,
        }

    def prepare(self, work: str, seed: int) -> None:
        self.work = work
        per_page = (PAGE_SIDE // BLOCK) ** 2
        self.pages = [write_page(work, f"page_{p:02d}", seed, self.regimes, first=p * per_page)
                      for p in range(PAGES)]
        self.pixels_in = [read_pnm(Path(page.path).read_bytes()) for page in self.pages]
        self.warm = write_page(work, "warm", seed, self.regimes, side=2 * BLOCK)
        self.probe_page = (
            write_page(work, "probe", seed, self.regimes, stripe_at=0, crop=PROBE_SIDE)
            if self.planted else None
        )
        self.reference = {}  # page index -> outputs of its first call
        self.calls = 0

    def _argv(self, path: str) -> list:
        argv = ["segment", "--input", path, "--mask-out", os.path.join(self.work, "out_mask.pbm"),
                "--workers", str(self.workers)]
        if self.layers:
            argv += ["--fg-out", os.path.join(self.work, "out_fg.pgm"),
                     "--bg-out", os.path.join(self.work, "out_bg.pgm")]
        return argv

    def _outputs(self) -> dict:
        names = ("mask", "fg", "bg") if self.layers else ("mask",)
        suffix = {"mask": "pbm", "fg": "pgm", "bg": "pgm"}
        return {name: Path(self.work, f"out_{name}.{suffix[name]}").read_bytes() for name in names}

    def warm_up(self, checks: Checks) -> None:
        rc, _, err = call_cli(self._argv(self.warm.path))
        checks.require(rc == 0, f"warm-up segment exited {rc}: {err.strip()}")

    def step(self, phase: Phase, checks: Checks) -> None:
        index = self.calls % PAGES
        self.calls += 1
        page = self.pages[index]
        rc, wall, err = call_cli(self._argv(page.path))
        phase.record(wall, page.pixels / 1e6, 1, self._accept(index, rc, err, checks))

    def _accept(self, index: int, rc: int, err: str, checks: Checks) -> bool:
        if not checks.require(rc == 0, f"segment of page {index} exited {rc}: {err.strip()}"):
            return False
        outputs = self._outputs()
        if index not in self.reference:
            if not self._check_outputs(index, outputs, checks):
                return False
            self.reference[index] = outputs
            return True
        return checks.require(outputs == self.reference[index],
                              f"outputs of page {index} differ between repetitions")

    def _check_outputs(self, index: int, outputs: dict, checks: Checks) -> bool:
        shape = self.pages[index].truth.shape
        decoded = {}
        for name, payload in outputs.items():
            try:
                decoded[name] = read_pnm(payload)
            except ValueError as exc:
                return checks.require(False, f"page {index}: {name} output does not decode: {exc}")
            if not checks.require(decoded[name].shape == shape,
                                  f"page {index}: {name} output shape {decoded[name].shape} != input {shape}"):
                return False
        if self.layers:
            mask, img = decoded["mask"], self.pixels_in[index]
            return checks.require(
                np.array_equal(decoded["fg"], np.where(mask, img, 0))
                and np.array_equal(decoded["bg"][~mask], img[~mask]),
                f"page {index}: foreground or background layer does not match the input outside its holes",
            )
        return True

    def probe(self, checks: Checks) -> dict:
        """Segment the planted page once, untimed; the known defect aborts the whole page.

        The planted page is the top-left PROBE_SIDE square of the run's first
        page with its first block replaced by stripes. If it completes instead,
        its mask must equal that page's mask on that square outside the first block.
        """
        rc, wall, err = call_cli(self._argv(self.probe_page.path))
        if rc == 2 and "background pixels" in err:
            return {"outcome": "whole-page abort", "error": err.strip(), "failed": 1, "wall_s": wall}
        ok = checks.require(rc == 0, f"planted page: segment exited {rc}: {err.strip()}")
        if ok and 0 in self.reference:
            got = read_pnm(self._outputs()["mask"])
            want = read_pnm(self.reference[0]["mask"])[:PROBE_SIDE, :PROBE_SIDE]
            got[:BLOCK, :BLOCK] = want[:BLOCK, :BLOCK]
            checks.require(np.array_equal(got, want), "planted page changed masks outside its block")
        return {"outcome": "completed" if ok else "error", "failed": 0 if ok else 1, "wall_s": wall}

    def quality(self) -> dict:
        """Scores pooled over every page; empty unless each page completed once."""
        if len(self.reference) < PAGES:
            return {}
        refs = [self.reference[p] for p in range(PAGES)]
        masks = [read_pnm(r["mask"]) for r in refs]
        truths = [page.truth for page in self.pages]
        scores = prf(*(int(sum(x.sum() for x in parts)) for parts in (
            [m & t for m, t in zip(masks, truths)],
            [m & ~t for m, t in zip(masks, truths)],
            [~m & t for m, t in zip(masks, truths)],
        )))
        return {
            "proposed": scores,
            "mask_digest": digest(b"".join(r["mask"] for r in refs)),
            "layers_digest": digest(b"".join(r[k] for r in refs for k in ("fg", "bg")))
            if self.layers else None,
        }


class EvalWorkload:
    """`scseg evaluate` with both methods over manifests of single-block images.

    A step runs proposed then kmeans2 on one manifest, the manifests in turn.
    """

    def __init__(self, name, why):
        self.name = name
        self.why = why
        self.planted = False
        self.workers = 1
        self.cycle = MANIFESTS

    def describe(self) -> dict:
        return {
            "block": BLOCK,
            "regimes": [name for name, _ in REGIMES],
            "manifests": MANIFESTS,
            "images_per_manifest": IMAGES_PER_MANIFEST,
            "methods": ["proposed", "kmeans2"],
        }

    def prepare(self, work: str, seed: int) -> None:
        self.work = work
        self.manifests, self.truth_pixels = write_manifests(work, seed, MANIFESTS, IMAGES_PER_MANIFEST)
        self.reference = {}
        self.calls = 0

    def _evaluate(self, manifest: str, method: str):
        report = os.path.join(self.work, f"report_{method}.json")
        rc, wall, err = call_cli(["evaluate", "--manifest", manifest, "--method", method,
                                  "--report", report])
        payload = Path(report).read_bytes() if rc == 0 else b""
        return rc, wall, err, payload

    def warm_up(self, checks: Checks) -> None:
        for method in ("proposed", "kmeans2"):
            rc, _, err, _ = self._evaluate(self.manifests[0], method)
            checks.require(rc == 0, f"warm-up evaluate {method} exited {rc}: {err.strip()}")
        self.reference.clear()

    def _check_report(self, key, payload: bytes, checks: Checks) -> bool:
        if key in self.reference:
            return checks.require(payload == self.reference[key], f"{key} report differs between repetitions")
        report = json.loads(payload)
        entries = report["entries"]
        ok = checks.require(not report["errors"] and len(entries) == IMAGES_PER_MANIFEST,
                            f"{key}: {len(entries)} entries, errors {report['errors']}")
        for e in entries:
            name = os.path.basename(e["path"])
            ok &= checks.require(e["tp"] + e["fn"] == self.truth_pixels[name],
                                 f"{key}: {name} truth count {e['tp'] + e['fn']} != generated")
        pooled = prf(*(sum(e[k] for e in entries) for k in ("tp", "fp", "fn")))
        ok &= checks.require(
            all(abs(report["micro"][k] - pooled[k]) <= 1e-12 for k in ("precision", "recall", "f1")),
            f"{key}: micro scores do not match the entry counts",
        )
        if ok:
            self.reference[key] = payload
        return ok

    def step(self, phase: Phase, checks: Checks) -> None:
        if phase.baseline is None:
            phase.baseline = Phase()
        phase.baseline.start_step()
        m = self.calls % MANIFESTS
        self.calls += 1
        for method, into in (("proposed", phase), ("kmeans2", phase.baseline)):
            rc, wall, err, payload = self._evaluate(self.manifests[m], method)
            ok = checks.require(rc == 0, f"evaluate {method} exited {rc}: {err.strip()}") and \
                self._check_report((method, m), payload, checks)
            into.record(wall, IMAGES_PER_MANIFEST * BLOCK * BLOCK / 1e6, IMAGES_PER_MANIFEST, ok)

    def _pooled(self, method: str):
        rows = []
        for m in range(MANIFESTS):
            payload = self.reference.get((method, m))
            if payload is None:
                return None, None
            for e in json.loads(payload)["entries"]:
                rows.append((os.path.basename(e["path"]), e["tp"], e["fp"], e["fn"]))
        rows.sort()
        scores = prf(*(sum(r[k] for r in rows) for k in (1, 2, 3)))
        return scores, digest(json.dumps(rows).encode("utf-8"))

    def quality(self) -> dict:
        proposed, proposed_digest = self._pooled("proposed")
        kmeans, kmeans_digest = self._pooled("kmeans2")
        if proposed is None or kmeans is None:
            return {}
        return {"proposed": proposed, "kmeans2": kmeans,
                "mask_digest": proposed_digest, "kmeans2_mask_digest": kmeans_digest}


def make_workloads() -> dict:
    """Fresh workload objects by name, in the order BENCHMARK.json lists them."""
    workloads = (
        PageWorkload(
            "page-clean",
            "16 256x256 pages of default blocks, segment --mask-out, 1 worker: ADMM is ~95% of wall "
            "time; the plain serial baseline for solver changes",
            CLEAN, workers=1, layers=False, planted=False,
        ),
        PageWorkload(
            "page-mixed-layers",
            "16 256x256 pages cycling four block regimes, fg/bg layers, 2 workers: background fill, "
            "stitch, PGM encode and thread pool; F1 ~0.47, not saturated",
            REGIMES, workers=2, layers=True, planted=True,
        ),
        EvalWorkload(
            "eval-blocks",
            "256 single-block images, evaluate proposed then kmeans2: per-image fixed costs "
            "dominate; N=1 bypasses cross-block batching",
        ),
    )
    return {w.name: w for w in workloads}


def tail(samples_ms: list):
    """Highest nearest-rank percentile with at least 10 samples beyond it, if n >= 20."""
    n = len(samples_ms)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)
    return {"percentile": pct, "value_ms": sorted(samples_ms)[rank - 1], "samples": n,
            "beyond": n - rank}


def median(values):
    return statistics.median(values) if values else float("nan")
