import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import scseg
from scseg import SegmentationConfig, SolverParams, SynthSpec, confusion, load_mask, write_dataset
from scseg.cli import build_parser, main


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    write_dataset(out, 3, SynthSpec(seed=1))
    return out


def test_segment_default_wiring(dataset, tmp_path):
    mask_path = tmp_path / "m.pbm"
    rc = main(["segment", "--input", str(dataset / "block_0000.pgm"), "--mask-out", str(mask_path)])
    assert rc == 0
    truth = load_mask(dataset / "block_0000_mask.pbm")
    np.testing.assert_array_equal(load_mask(mask_path), truth)


def test_segment_bit_identical_reruns(dataset, tmp_path):
    args = ["segment", "--input", str(dataset / "block_0001.pgm")]
    assert main(args + ["--mask-out", str(tmp_path / "a.pbm")]) == 0
    assert main(args + ["--mask-out", str(tmp_path / "b.pbm")]) == 0
    assert (tmp_path / "a.pbm").read_bytes() == (tmp_path / "b.pbm").read_bytes()


def test_segment_imports_no_scipy(dataset, tmp_path):
    script = (
        "import sys\n"
        "from scseg.cli import main\n"
        f"assert main(['segment', '--input', {str(dataset / 'block_0000.pgm')!r},"
        f" '--mask-out', {str(tmp_path / 'm.pbm')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    # run the package under test, wherever it was imported from
    package_root = os.path.dirname(os.path.dirname(scseg.__file__))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


@pytest.fixture()
def eight_cpus(monkeypatch):
    # on any host, --workers sets the process count (up to one per 8-block slice)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))


VERBOSE_FIELDS = {
    "block", "origin", "primal_residual", "coefficient_residual", "row_residual",
    "column_residual", "objective", "fg_fraction",
}


def test_segment_workers_identical(dataset, tmp_path, eight_cpus, capsys, no_child_or_fd_left):
    # 16-pixel blocks: 16 blocks, two slices, so a second process runs: one solver child,
    # forked by the first --workers 2 call and reused by the --workers 4 one;
    # --verbose prints every block's diagnostics, half of them solved by the child
    from scseg import admm

    base = ["segment", "--input", str(dataset / "block_0002.pgm"), "--block", "16", "--verbose"]
    outputs = {}
    for w in ("1", "2", "4"):
        names = {flag: tmp_path / f"{w}{flag}" for flag in ("--mask-out", "--fg-out", "--bg-out")}
        assert main(base + [x for flag, path in names.items() for x in (flag, str(path))] + ["--workers", w]) == 0
        outputs[w] = [path.read_bytes() for path in names.values()] + [capsys.readouterr().out]
    records = [json.loads(line) for line in outputs["1"][-1].splitlines()]
    assert [r["block"] for r in records] == list(range(16))
    assert [r["origin"] for r in records] == [[r, c] for r in (0, 16, 32, 48) for c in (0, 16, 32, 48)]
    assert all(set(r) == VERBOSE_FIELDS for r in records)
    assert outputs["1"] == outputs["2"] == outputs["4"]
    assert len(admm._pool) == 1


def test_solver_process_dying_is_runtime_error(dataset, tmp_path, eight_cpus, monkeypatch, capsys, no_child_or_fd_left):
    from scseg import admm

    parent = os.getpid()
    solve_slice = admm._solve_slice

    def dying(*args):
        if os.getpid() != parent:
            os._exit(5)
        return solve_slice(*args)

    monkeypatch.setattr(admm, "_solve_slice", dying)
    rc = main(["segment", "--input", str(dataset / "block_0002.pgm"), "--block", "16",
               "--mask-out", str(tmp_path / "m.pbm"), "--workers", "2"])
    assert rc == 2
    assert "exited with status 5 without a result" in capsys.readouterr().err
    assert not (tmp_path / "m.pbm").exists()
    assert admm._pool == []  # the dead child's call dropped the pool


def test_segment_huge_threshold_empty_mask(dataset, tmp_path):
    mask_path = tmp_path / "m.pbm"
    rc = main(
        ["segment", "--input", str(dataset / "block_0000.pgm"),
         "--mask-out", str(mask_path), "--fg-threshold", "1e9"]
    )
    assert rc == 0
    assert not load_mask(mask_path).any()


def test_segment_layer_outputs(dataset, tmp_path):
    rc = main(
        ["segment", "--input", str(dataset / "block_0000.pgm"),
         "--mask-out", str(tmp_path / "m.pbm"),
         "--fg-out", str(tmp_path / "fg.pgm"),
         "--bg-out", str(tmp_path / "bg.pgm")]
    )
    assert rc == 0
    from scseg import load_gray

    fg = load_gray(tmp_path / "fg.pgm")
    bg = load_gray(tmp_path / "bg.pgm")
    mask = load_mask(tmp_path / "m.pbm")
    assert fg.shape == bg.shape == mask.shape
    assert not fg[~mask].any()


def test_segment_bg_out_on_stripe_block(tmp_path):
    from scseg import load_gray, save_gray

    # every other row is foreground, too little background to fit the smooth model
    img = np.repeat(np.where(np.arange(64) % 2 == 0, 20.0, 200.0)[:, None], 64, axis=1)
    save_gray(img, tmp_path / "stripes.pgm")
    rc = main(["segment", "--input", str(tmp_path / "stripes.pgm"), "--mask-out", str(tmp_path / "m.pbm"),
               "--bg-out", str(tmp_path / "bg.pgm"), "--fg-out", str(tmp_path / "fg.pgm")])
    assert rc == 0
    mask = load_mask(tmp_path / "m.pbm")
    assert mask.any()
    np.testing.assert_array_equal(load_gray(tmp_path / "bg.pgm")[~mask], img[~mask])
    np.testing.assert_array_equal(load_gray(tmp_path / "fg.pgm"), np.where(mask, img, 0.0))


def test_verbose_more_iterations_lower_residual(dataset, tmp_path, capsys):
    base = ["segment", "--input", str(dataset / "block_0000.pgm"), "--verbose"]
    assert main(base + ["--mask-out", str(tmp_path / "a.pbm"), "--iters", "50"]) == 0
    (short,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert main(base + ["--mask-out", str(tmp_path / "b.pbm"), "--iters", "500"]) == 0
    (long,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert long["primal_residual"] < short["primal_residual"]


def test_verbose_record_is_the_solver_state(dataset, tmp_path, capsys):
    from scseg import SegmentationConfig, load_gray, segment_images

    img = load_gray(dataset / "block_0001.pgm")
    assert main(["segment", "--input", str(dataset / "block_0001.pgm"), "--block", "32",
                 "--mask-out", str(tmp_path / "m.pbm"), "--verbose"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    seg = next(segment_images([img], SegmentationConfig(block_size=32)))
    dec = seg.decomposition
    assert len(records) == len(dec.objective) == 4
    blocks = zip(records, seg.grid.origins, seg.block_masks)
    for i, (record, origin, block_mask) in enumerate(blocks):
        assert record == {
            "block": i,
            "origin": list(origin),
            "primal_residual": dec.primal_residual[i],
            "coefficient_residual": dec.split_residuals[i, 0],
            "row_residual": dec.split_residuals[i, 1],
            "column_residual": dec.split_residuals[i, 2],
            "objective": dec.objective[i],
            "fg_fraction": block_mask.mean(),
        }
    assert any(0 < r["fg_fraction"] < 1 for r in records)


def test_segment_missing_input_runtime_error(tmp_path, capsys):
    rc = main(["segment", "--input", str(tmp_path / "nope.pgm"), "--mask-out", str(tmp_path / "m.pbm")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_write_error_names_the_typed_path(command, dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if command == "segment":
        argv = ["segment", "--input", str(dataset / "block_0000.pgm"), "--mask-out", "nodir/m.pbm"]
    else:
        argv = ["evaluate", "--manifest", str(dataset / "manifest.tsv"), "--report", "nodir/r.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory: ")
    assert f"'nodir/{os.path.basename(argv[-1])}'" in err
    assert ".tmp-" not in err


def test_usage_error_exit_code(capsys):
    assert main(["segment"]) == 1  # --input and --mask-out missing
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_evaluate_prints_micro_percentages(dataset, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    rc = main(
        ["evaluate", "--manifest", str(dataset / "manifest.tsv"),
         "--method", "proposed", "--report", str(report_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "precision=" in out and "recall=" in out and "f1=" in out
    f1 = float(out.split("f1=")[1].split("%")[0])
    assert f1 >= 90.0
    report = json.loads(report_path.read_text())
    assert set(report) == {"entries", "micro", "macro", "errors"}
    assert len(report["entries"]) == 3


def test_segment_and_evaluate_compute_the_same_masks(tmp_path, eight_cpus, capsys):
    # 16-pixel blocks: 16 per 64x64 image, two slices, so each command forks;
    # out-of-model backgrounds (k_true > k) leave errors, so the counts are not all the truth's
    manifest = write_dataset(tmp_path / "data", 3, SynthSpec(seed=1, k_true=15))
    flags = ["--block", "16", "--workers", "2"]
    report_path = tmp_path / "r.json"
    assert main(["evaluate", "--manifest", manifest, "--report", str(report_path)] + flags) == 0
    entries = json.loads(report_path.read_text())["entries"]
    assert len(entries) == 3
    for entry in entries:
        mask_path = tmp_path / "m.pbm"
        assert main(["segment", "--input", entry["path"], "--mask-out", str(mask_path)] + flags) == 0
        truth = load_mask(entry["path"].replace(".pgm", "_mask.pbm"))
        tp, fp, fn = confusion(load_mask(mask_path), truth)
        assert (entry["tp"], entry["fp"], entry["fn"]) == (tp, fp, fn)
    assert any(entry["fp"] + entry["fn"] > 0 for entry in entries)


def test_evaluate_kmeans_method(dataset, tmp_path):
    rc = main(
        ["evaluate", "--manifest", str(dataset / "manifest.tsv"),
         "--method", "kmeans2", "--report", str(tmp_path / "r.json")]
    )
    assert rc == 0


def test_evaluate_missing_entry_nonzero_exit(dataset, tmp_path, capsys):
    manifest = dataset / "manifest.tsv"
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("gone.pgm\tgone.pbm\n")
    rc = main(
        ["evaluate", "--manifest", str(manifest),
         "--method", "proposed", "--report", str(tmp_path / "r.json")]
    )
    assert rc == 2
    report = json.loads((tmp_path / "r.json").read_text())
    assert len(report["errors"]) == 1
    assert "skipped" in capsys.readouterr().err


def test_evaluate_empty_manifest_nonzero_exit(tmp_path, capsys):
    manifest = tmp_path / "empty.tsv"
    manifest.write_text("# nothing\n", encoding="utf-8")
    rc = main(["evaluate", "--manifest", str(manifest), "--report", str(tmp_path / "r.json")])
    assert rc == 2
    capsys.readouterr()


def test_synth_deterministic_directories(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "a"), "--count", "20", "--seed", "1"]) == 0
    assert main(["synth", "--out-dir", str(tmp_path / "b"), "--count", "20", "--seed", "1"]) == 0
    capsys.readouterr()
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_count_zero(tmp_path, capsys):
    rc = main(["synth", "--out-dir", str(tmp_path / "d"), "--count", "0"])
    assert rc == 0
    assert (tmp_path / "d" / "manifest.tsv").exists()
    capsys.readouterr()


def test_synth_default_block_size(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "d"), "--count", "1"]) == 0
    capsys.readouterr()
    from scseg import load_gray

    img = load_gray(tmp_path / "d" / "block_0000.pgm")
    assert img.shape == (64, 64)


def test_bad_rho_is_usage_error(dataset, tmp_path, capsys):
    # one penalty: the four-value form of older versions is an error, not four penalties
    rc = main(
        ["segment", "--input", str(dataset / "block_0000.pgm"),
         "--mask-out", str(tmp_path / "m.pbm"), "--rho", "1,1,1,1"]
    )
    assert rc == 1
    assert "argument --rho: invalid float value: '1,1,1,1'" in capsys.readouterr().err
    assert not (tmp_path / "m.pbm").exists()


@pytest.mark.parametrize(
    "bad, message",
    [
        # each case id names the config field the bad flag sets
        pytest.param(["--iters", "0"], "--iters must be >= 1", id="bad0-max_iters"),
        pytest.param(["--rho", "0"], "--rho must be positive", id="bad1-rho"),
        pytest.param(["--lambda1", "-1"], "--lambda1 must be positive", id="bad2-lambda1"),
        pytest.param(["--block", "1", "--k", "1"], "--block must be >= 2", id="bad3-block_size"),
        pytest.param(["--k", "0"], "--k 0 out of range", id="bad4-k_bases"),
        pytest.param(["--fg-threshold", "-1"], "--fg-threshold must be >= 0", id="bad5-fg_threshold"),
        pytest.param(["--rho", "-2"], "--rho must be positive", id="bad6-rho"),
        pytest.param(["--workers", "0"], "--workers must be >= 1", id="bad7-workers"),
        pytest.param(["--workers", "-1"], "--workers must be >= 1", id="bad8-workers"),
        pytest.param(["--fg-threshold", "nan"], "--fg-threshold must be >= 0 and finite", id="bad9-fg_threshold"),
        pytest.param(["--fg-threshold", "inf"], "--fg-threshold must be >= 0 and finite", id="bad10-fg_threshold"),
        pytest.param(["--lambda2", "inf"], "--lambda2 must be positive and finite", id="bad11-lambda2"),
        pytest.param(["--lambda1", "nan"], "--lambda1 must be positive and finite", id="bad12-lambda1"),
        pytest.param(["--rho", "inf"], "--rho must be positive and finite", id="bad13-rho"),
        pytest.param(["--rho", "nan"], "--rho must be positive and finite", id="bad14-rho"),
        pytest.param(["--rho", "x"], "argument --rho: invalid float value: 'x'", id="bad15-rho"),
        # every value finite, but lambda2/rho overflows: rejected, not a NaN in the solver
        pytest.param(["--lambda2", "1e300", "--rho", "1e-10"], "--rho 1e-10 is too small", id="bad16-rho"),
        # lambda2/rho = 1e39 is finite in float64 but beyond the float32 sweep's range
        pytest.param(["--lambda2", "100", "--rho", "1e-37"], "--rho 1e-37 is too small", id="bad17-rho"),
    ],
)
@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_invalid_config_is_usage_error(command, bad, message, tmp_path, capsys):
    # the input does not exist: the config must be rejected before any file is read
    if command == "segment":
        args = ["segment", "--input", str(tmp_path / "nope.pgm"), "--mask-out", str(tmp_path / "m.pbm")]
    else:
        args = ["evaluate", "--manifest", str(tmp_path / "nope.tsv"), "--report", str(tmp_path / "r.json")]
    assert main(args + bad) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: scseg {command}")
    assert f"scseg {command}: error: {message}" in err
    # the flag the user typed, not the library field behind it
    for field in ("max_iters", "block_size", "k_bases", "fg_threshold"):
        assert field not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(["--n", "3"], "--n must be >= 4, got 3", id="n"),
        pytest.param(["--strokes", "50", "--max-fg-fraction", "0.05"], "--strokes 50 is too many",
                     id="stroke_count"),
        pytest.param(["--count", "-3"], "--count must be >= 0, got -3", id="count"),
        pytest.param(["--seed", "-1"], "--seed must be >= 0, got -1", id="seed"),
        pytest.param(["--amplitude", "nan"], "--amplitude must be >= 0 and finite", id="stroke_amplitude"),
    ],
)
def test_invalid_synth_value_is_usage_error(bad, message, tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "d")] + bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: scseg synth")
    assert f"scseg synth: error: {message}" in err
    for field in ("stroke_count", "stroke_amplitude", "max_fg_fraction"):
        assert field not in err
    assert list(tmp_path.iterdir()) == []



# Each flag alone, set to a value that is not its field's default, and the fields it must reach.
SEGMENTATION_FLAGS = [
    pytest.param(["--lambda1", "7.5"], {"lambda1": 7.5}, id="lambda1"),
    pytest.param(["--lambda2", "0.25"], {"lambda2": 0.25}, id="lambda2"),
    pytest.param(["--rho", "1.5"], {"rho": 1.5}, id="rho"),
    pytest.param(["--iters", "7"], {"max_iters": 7}, id="max_iters"),
    pytest.param(["--workers", "3"], {"workers": 3}, id="workers"),
    pytest.param(["--block", "32"], {"block_size": 32}, id="block_size"),
    pytest.param(["--k", "12"], {"k_bases": 12}, id="k_bases"),
    pytest.param(["--fg-threshold", "2.5"], {"fg_threshold": 2.5}, id="fg_threshold"),
]

SYNTH_FLAGS = [
    pytest.param(["--n", "96"], {"n": 96}, id="n"),
    pytest.param(["--k-true", "8"], {"k_true": 8}, id="k_true"),
    pytest.param(["--alpha-range", "30"], {"alpha_range": 30.0}, id="alpha_range"),
    pytest.param(["--strokes", "3"], {"stroke_count": 3}, id="stroke_count"),
    pytest.param(["--amplitude", "50"], {"stroke_amplitude": 50.0}, id="stroke_amplitude"),
    pytest.param(["--max-fg-fraction", "0.2"], {"max_fg_fraction": 0.2}, id="max_fg_fraction"),
    pytest.param(["--seed", "5"], {"seed": 5}, id="seed"),
    pytest.param(["--diagonal"], {"diagonal_strokes": True}, id="diagonal_strokes"),
]

REQUIRED = {
    "segment": ["segment", "--input", "in.pgm", "--mask-out", "m.pbm"],
    "evaluate": ["evaluate", "--manifest", "m.tsv", "--report", "r.json"],
    "synth": ["synth", "--out-dir", "d"],
}

SOLVER_FIELDS = {f.name for f in dataclasses.fields(SolverParams)}


def built(argv):
    # the config main() would run with, built without touching any file
    args = build_parser().parse_args(argv)
    return args.build(args)


def segmentation_config(values):
    solver = {name: v for name, v in values.items() if name in SOLVER_FIELDS}
    rest = {name: v for name, v in values.items() if name not in SOLVER_FIELDS}
    return SegmentationConfig(solver=SolverParams(**solver), **rest)


def all_flags(params):
    argv, values = [], {}
    for param in params:
        argv += param.values[0]
        values.update(param.values[1])
    return argv, values


@pytest.mark.parametrize("argv, values", SEGMENTATION_FLAGS)
@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_segmentation_flag_reaches_its_field(command, argv, values):
    assert built(REQUIRED[command] + argv) == segmentation_config(values)


@pytest.mark.parametrize("argv, values", SYNTH_FLAGS)
def test_synth_flag_reaches_its_field(argv, values):
    assert built(REQUIRED["synth"] + argv) == SynthSpec(**values)


@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_every_segmentation_flag_at_once(command):
    argv, values = all_flags(SEGMENTATION_FLAGS)
    assert built(REQUIRED[command] + argv) == segmentation_config(values)


def test_every_synth_flag_at_once():
    argv, values = all_flags(SYNTH_FLAGS)
    assert built(REQUIRED["synth"] + argv) == SynthSpec(**values)


@pytest.mark.parametrize("command", ["segment", "evaluate", "synth"])
def test_no_flags_give_the_library_defaults(command):
    assert built(REQUIRED[command]) == (SynthSpec() if command == "synth" else SegmentationConfig())


def test_every_field_has_a_flag():
    segmentation_fields = {f.name for f in dataclasses.fields(SegmentationConfig)} - {"solver"}
    assert set(all_flags(SEGMENTATION_FLAGS)[1]) == SOLVER_FIELDS | segmentation_fields
    assert set(all_flags(SYNTH_FLAGS)[1]) == {f.name for f in dataclasses.fields(SynthSpec)}


@pytest.mark.parametrize(
    "command, metavars",
    [
        ("segment", ["--iters ITERS", "--block BLOCK", "--k K", "--rho RHO"]),
        ("evaluate", ["--iters ITERS", "--block BLOCK", "--k K", "--rho RHO"]),
        ("synth", ["--strokes STROKES", "--amplitude AMPLITUDE", "--k-true K_TRUE", "--n N"]),
    ],
)
def test_help_keeps_the_flag_metavars(command, metavars, capsys):
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: scseg {command}")
    for metavar in metavars:
        assert f"[{metavar}]" in usage


def test_help_reads_the_solver_defaults(monkeypatch, capsys):
    @dataclasses.dataclass(frozen=True)
    class Other(SolverParams):
        rho: float = 2.5
        workers: int = 3

    monkeypatch.setattr("scseg.cli.SolverParams", Other)
    monkeypatch.setattr("scseg.cli.BATCH_BLOCKS", 5)
    assert main(["segment", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "ADMM penalty parameter (default 2.5)" in out
    assert "solve the 5-block slices (default 3, capped" in out


def test_evaluate_names_the_unreadable_entries(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("missing.pgm\tmissing.pbm\n# comment\nalso.pgm\talso.pbm\n")
    assert main(["evaluate", "--manifest", str(manifest), "--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    first = tmp_path / "also.pgm"  # entries are read in path order
    assert err.startswith(f"error: no readable entries in manifest: 2 unreadable, first {first}: ")
    assert "No such file or directory" in err
    assert not (tmp_path / "r.json").exists()
