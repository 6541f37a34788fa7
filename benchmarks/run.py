#!/usr/bin/env python3
"""Benchmark of `scseg segment` and `scseg evaluate` on deterministic synthetic inputs.

    python3 benchmarks/run.py --workload page-clean --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Run from any directory of a source checkout; the package is imported from
its `src/`. The seed fixes the inputs. With `--trace 0` the run measures the
end-to-end metrics with no instrumentation; with `--trace 1` it spends half
of the time untraced and half with span wrappers installed, and reports the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. See
README.md in this directory for the workloads and metrics.
"""

import os

# One process, and no threads other than the ones `--workers 2` starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_MS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 10
SETUP_CODE = (
    "from scseg.cli import main\n"
    "from scseg.dct import build_basis\n"
    "from scseg.segmentation import SegmentationConfig\n"
    "cfg = SegmentationConfig()\n"
    "build_basis(cfg.block_size, cfg.k_bases)\n"
)


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*names, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> list:
    """Wall seconds of fresh interpreters that import the CLI and build the default basis."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:  # the first launch only warms the file cache
            times.append(time.perf_counter() - t0)
    return times


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_all(args, names) -> int:
    """Run every workload in its own process and print each one's metrics."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def run_one(args, workload) -> int:
    from scseg.segmentation import SegmentationConfig
    from spans import Tracer
    from workloads import Checks, run_phase, tail

    detail = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine(),
              "inputs": workload.describe()}
    checks = Checks()
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workload.prepare(str(work), args.seed)
        detail["generate_s"] = time.perf_counter() - t0
        workload.warm_up(checks)
        fg_threshold = SegmentationConfig().fg_threshold
        metrics = {}
        if args.trace == 0:
            # Two passes over the inputs at least, so that every output is compared across repetitions.
            phase = run_phase(workload, args.seconds, 2 * workload.cycle, checks)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            phases = [phase]
        else:
            plain = run_phase(workload, args.seconds / 2, workload.cycle, checks)
            tracer = Tracer(fg_threshold)
            with tracer.installed():
                traced = run_phase(workload, args.seconds / 2, workload.cycle, checks)
            phases = [plain, traced]
            for name, (value, unit) in tracer.layer_metrics(traced.items).items():
                metrics[name] = {"value": value, "unit": unit}
            overhead = traced.item_ms_p50(ref=True) / plain.item_ms_p50(ref=True) - 1
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
            detail["trace_missing_targets"] = tracer.missing
            detail["trace_spans"] = len(tracer.spans)

        probe = None
        if workload.planted:
            probe_tracer = Tracer(fg_threshold)
            with probe_tracer.installed() if args.trace else contextlib.nullcontext():
                probe = workload.probe(checks)
            if args.trace:
                metrics["segmentation.fill_failures"]["value"] += (
                    probe_tracer.counts["segmentation.fill_background.errors"])
        detail["planted_page"] = probe

        attempted = sum(p.attempted + (p.baseline.attempted if p.baseline else 0) for p in phases)
        failed = sum(p.failed + (p.baseline.failed if p.baseline else 0) for p in phases)
        quality = workload.quality()
        detail["quality"] = quality
        checks.require(bool(quality), "no completed item to score")
        probe_failed = probe["failed"] if probe else 0
        detail["failed_frac"] = (failed + probe_failed) / (attempted + (1 if probe else 0))

        if args.trace == 0:
            phase = phases[0]
            detail["step_item_ms"] = [wall * 1e3 / n for wall, _, n, _ in phase.steps]
            detail["step_item_ms_ref"] = [ref_wall * 1e3 / n for _, _, n, ref_wall in phase.steps]
            detail["reference_kernel_ms"] = {"mean": phase.host.mean_ms(), "threads": phase.host.threads,
                                             "nominal": REF_MS[phase.host.threads], "rounds": phase.host.kernels}
            detail["mpix_per_s"] = phase.mpix_per_s()
            detail["item_ms_p50"] = phase.item_ms_p50()
            detail["item_ms_tail"] = tail(phase.call_item_ms)
            if phase.baseline is not None:
                detail["baseline_mpix_per_s"] = phase.baseline.mpix_per_s()
                detail["baseline_mpix_per_s_ref"] = phase.baseline.mpix_per_s(ref=True)
                detail["baseline_f1_micro"] = quality.get("kmeans2", {}).get("f1")
            setup = measure_setup()
            detail["setup_runs_s"] = setup
            metrics = {
                "mpix_per_s_ref": {"value": phase.mpix_per_s(ref=True), "unit": "MPix/s"},
                "item_ms_p50_ref": {"value": phase.item_ms_p50(ref=True), "unit": "ms"},
                "f1_micro": {"value": quality.get("proposed", {}).get("f1", 0.0), "unit": "ratio"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    detail["check_failures"] = checks.failures
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": checks.ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    if not (SRC / "scseg" / "cli.py").is_file():
        print(f"error: {SRC / 'scseg'} not found; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scseg

    if SRC not in Path(scseg.__file__).resolve().parents:
        print(f"error: scseg imported from {scseg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_workloads

    workloads = make_workloads()
    args = parse_args(argv, list(workloads))
    if args.workload == "all":
        return run_all(args, list(workloads))
    return run_one(args, workloads[args.workload])


if __name__ == "__main__":
    sys.exit(main())
