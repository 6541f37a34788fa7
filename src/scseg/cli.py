"""Command-line interface: segment, evaluate, synth.

Exit status: 0 success, 1 usage error, 2 runtime error. All output files are
written atomically, so repeated runs with identical inputs produce
bit-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .admm import BATCH_BLOCKS, SolverParams, objective
from .checks import require_count
from .evaluation import SEGMENTERS, evaluate_dataset, load_manifest
from .image_io import PnmError, atomic_write_bytes, load_gray, save_gray, save_mask
from .segmentation import SegmentationConfig, assemble_layers, segment_images
from .synth import SynthSpec, write_dataset


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the flag behind each config or synth spec field; flag() adds each one-field flag
        self.flags = {"count": "--count"}

    def flag(self, flag: str, field: str, **kwargs):
        """Add a flag that sets one dataclass field; unset, it leaves the field's default."""
        self.flags[field] = flag
        if "action" not in kwargs:  # store_true takes no metavar
            kwargs["metavar"] = flag[2:].upper().replace("-", "_")
        self.add_argument(flag, dest=field, default=argparse.SUPPRESS, **kwargs)

    def reject(self, exc: ValueError):
        # a config or spec ValueError starts with the field's name; the user typed the flag
        name, _, rest = str(exc).partition(" ")
        self.error(f"{self.flags.get(name, name)} {rest}")

    # usage errors exit 1; argparse's default of 2 is reserved for runtime errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _given(args, cls) -> dict:
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)}


def _add_segmentation_flags(p):
    d = SolverParams()  # the defaults the help strings quote
    p.flag("--lambda1", "lambda1", type=float, help="sparsity weight on the foreground layer")
    p.flag("--lambda2", "lambda2", type=float, help="row/column group weight")
    p.flag("--rho", "rho", type=float, help=f"ADMM penalty parameter (default {d.rho:g})")
    p.flag("--iters", "max_iters", type=int, help="solver iterations per block")
    p.flag("--block", "block_size", type=int, help="block size in pixels")
    p.flag("--k", "k_bases", type=int, help="number of smooth basis atoms")
    p.flag("--fg-threshold", "fg_threshold", type=float,
           help="gray-level magnitude above which a pixel is foreground")
    p.flag("--workers", "workers", type=int,
           help=f"processes that solve the {BATCH_BLOCKS}-block slices (default {d.workers}, capped at "
                "the usable CPUs); outputs are the same for any value")
    p.set_defaults(build=_config, usage_error=p.reject)


def _config(args) -> SegmentationConfig:
    solver = SolverParams(**_given(args, SolverParams))
    return SegmentationConfig(**_given(args, SegmentationConfig), solver=solver)


def cmd_segment(args) -> int:
    # map holds no reference to the image it yields, so the image goes once it is tiled
    seg = next(segment_images(map(load_gray, [args.input]), args.config))
    if args.verbose:
        _print_records(seg, args.config.solver)
    mask = seg.mask
    layers = assemble_layers(seg) if args.fg_out or args.bg_out else ()
    # the blocks and the float64 records go before the writers make their temporaries
    del seg
    for layer, path in zip(layers, (args.bg_out, args.fg_out)):
        if path:
            save_gray(layer, path)
    save_mask(mask, args.mask_out)
    return 0


def _print_records(seg, params: SolverParams) -> None:
    dec = seg.decomposition
    objectives = objective(dec.alpha, dec.s, params)
    for i, (origin, block_mask) in enumerate(zip(seg.grid.origins, seg.block_masks)):
        coefficient, row, column = dec.split_residuals[i].tolist()
        print(json.dumps({
            "block": i,
            "origin": origin,
            "primal_residual": float(dec.primal_residual[i]),
            "coefficient_residual": coefficient,
            "row_residual": row,
            "column_residual": column,
            "objective": float(objectives[i]),
            "fg_fraction": float(block_mask.mean()),
        }))


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


def _synth_spec(args) -> SynthSpec:
    require_count("count", args.count, 0)
    return SynthSpec(**_given(args, SynthSpec))


def cmd_synth(args) -> int:
    manifest = write_dataset(args.out_dir, args.count, args.config)
    print(manifest)
    return 0


@functools.cache  # parsing keeps no state in the parser, so main reuses one across calls
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
                   help="print one JSON object per block, in grid order: its final residuals, "
                        "objective and foreground fraction")
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
    p.flag("--seed", "seed", type=int)
    p.flag("--n", "n", type=int, help="block side in pixels")
    p.flag("--k-true", "k_true", type=int, help="active smooth atoms")
    p.flag("--alpha-range", "alpha_range", type=float, help="smooth coefficient amplitude")
    p.flag("--strokes", "stroke_count", type=int, help="strokes per block")
    p.flag("--amplitude", "stroke_amplitude", type=float, help="stroke gray-level offset")
    p.flag("--max-fg-fraction", "max_fg_fraction", type=float)
    p.flag("--diagonal", "diagonal_strokes", action="store_true",
           help="diagonal instead of axis-aligned strokes")
    p.set_defaults(func=cmd_synth, build=_synth_spec, usage_error=p.reject)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an invalid value (--iters 0, --count -1) is a usage error, found before any file is read
        try:
            args.config = args.build(args)
        except ValueError as exc:
            args.usage_error(exc)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (PnmError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
