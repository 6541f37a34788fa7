"""Command-line interface: segment, evaluate, synth.

Exit status: 0 success, 1 usage error, 2 runtime error. All output files are
written atomically, so repeated runs with identical inputs produce
bit-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .admm import SolverParams
from .evaluation import SEGMENTERS, evaluate_dataset, load_manifest
from .image_io import PnmError, atomic_write_bytes, load_gray, save_gray, save_mask, stitch
from .segmentation import SegmentationConfig, assemble_layers, segment_blocks
from .synth import SynthSpec, write_dataset


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for runtime errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rho_list(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated values, e.g. 1,1,1,1")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad penalty list {text!r}") from None


def _add_segmentation_flags(p):
    p.add_argument("--lambda1", type=float, default=100.0, help="sparsity weight on the foreground layer")
    p.add_argument("--lambda2", type=float, default=2.0, help="row/column group weight")
    p.add_argument("--rho", type=_rho_list, default=[1.0, 1.0, 1.0, 1.0], metavar="R1,R2,R3,R4",
                   help="penalty parameters (default 1,1,1,1)")
    p.add_argument("--iters", type=int, default=50, help="solver iterations per block")
    p.add_argument("--block", type=int, default=64, help="block size in pixels")
    p.add_argument("--k", type=int, default=10, help="number of smooth basis atoms")
    p.add_argument("--fg-threshold", type=float, default=1.0,
                   help="gray-level magnitude above which a pixel is foreground")
    p.add_argument("--workers", type=int, default=1,
                   help="processes that solve the 8-block slices (default 1, capped at the usable "
                        "CPUs); outputs are the same for any value")
    p.set_defaults(usage_error=p.error)


# The flag that sets each config field. A config ValueError message starts
# with the field's name; a usage error names the flag instead.
_FLAGS = {
    "lambda1": "--lambda1",
    "lambda2": "--lambda2",
    "rho1": "--rho R1",
    "rho2": "--rho R2",
    "rho3": "--rho R3",
    "rho4": "--rho R4",
    "max_iters": "--iters",
    "workers": "--workers",
    "block_size": "--block",
    "k_bases": "--k",
    "fg_threshold": "--fg-threshold",
}


def _config(args) -> SegmentationConfig:
    r1, r2, r3, r4 = args.rho
    solver = SolverParams(
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        rho1=r1,
        rho2=r2,
        rho3=r3,
        rho4=r4,
        max_iters=args.iters,
        record_residuals=getattr(args, "verbose", False),
        workers=args.workers,
    )
    return SegmentationConfig(
        block_size=args.block,
        k_bases=args.k,
        solver=solver,
        fg_threshold=args.fg_threshold,
    )


def cmd_segment(args) -> int:
    img = load_gray(args.input)
    grid, basis, results = segment_blocks(img, args.config)
    if args.verbose:
        for i, ((r0, c0), (_, dec)) in enumerate(zip(grid.origins, results)):
            print(f"# block {i} origin {r0},{c0}")
            for it, (rp, rb, ry, rz) in enumerate(dec.residual_history, start=1):
                print(f"{it}\t{rp:.6e}\t{rb:.6e}\t{ry:.6e}\t{rz:.6e}")
    if args.fg_out or args.bg_out:
        background, foreground, mask = assemble_layers(img, grid, basis, results)
        if args.bg_out:
            save_gray(background, args.bg_out)
        if args.fg_out:
            save_gray(foreground, args.fg_out)
    else:
        mask = stitch(grid, [m for m, _ in results])
    save_mask(mask, args.mask_out)
    return 0


def cmd_evaluate(args) -> int:
    entries = load_manifest(args.manifest)
    report = evaluate_dataset(entries, args.method, args.config)
    atomic_write_bytes(args.report, (json.dumps(report, indent=2) + "\n").encode("utf-8"))
    micro = report["micro"]
    print(
        f"precision={micro['precision'] * 100:.2f}% "
        f"recall={micro['recall'] * 100:.2f}% "
        f"f1={micro['f1'] * 100:.2f}%"
    )
    if report["errors"]:
        for failure in report["errors"]:
            print(f"skipped {failure['path']}: {failure['error']}", file=sys.stderr)
        return 2
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n=args.n,
        k_true=args.k_true,
        alpha_range=args.alpha_range,
        stroke_count=args.strokes,
        stroke_amplitude=args.amplitude,
        max_fg_fraction=args.max_fg_fraction,
        seed=args.seed,
        diagonal_strokes=args.diagonal,
    )
    manifest = write_dataset(args.out_dir, args.count, spec)
    print(manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment an image into foreground and background")
    p.add_argument("--input", required=True, help="input PGM/PPM image")
    p.add_argument("--mask-out", required=True, help="output PBM foreground mask")
    p.add_argument("--fg-out", help="optional foreground layer PGM")
    p.add_argument("--bg-out", help="optional filled-background layer PGM")
    _add_segmentation_flags(p)
    p.add_argument("--verbose", action="store_true",
                   help="print per-iteration residuals (iter, primal, coeff, row, col)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score a segmenter against a ground-truth manifest")
    p.add_argument("--manifest", required=True, help="TSV manifest: image<TAB>mask[<TAB>label]")
    p.add_argument("--method", choices=SEGMENTERS, default="proposed")
    p.add_argument("--report", required=True, help="output JSON report path")
    _add_segmentation_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic blocks with ground truth")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=64, help="block side in pixels")
    p.add_argument("--k-true", type=int, default=6, help="active smooth atoms")
    p.add_argument("--alpha-range", type=float, default=100.0, help="smooth coefficient amplitude")
    p.add_argument("--strokes", type=int, default=4, help="strokes per block")
    p.add_argument("--amplitude", type=float, default=100.0, help="stroke gray-level offset")
    p.add_argument("--max-fg-fraction", type=float, default=0.10)
    p.add_argument("--diagonal", action="store_true", help="diagonal instead of axis-aligned strokes")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "usage_error"):
            # an invalid value (--iters 0, --block 1) is a usage error, found before any file is read
            try:
                args.config = _config(args)
            except ValueError as exc:
                name, _, rest = str(exc).partition(" ")
                args.usage_error(f"{_FLAGS.get(name, name)} {rest}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (PnmError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
