import json
import os
import subprocess
import sys

import numpy as np
import pytest

import scseg
from scseg import SynthSpec, load_mask, write_dataset
from scseg.cli import main


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


def test_segment_workers_identical(dataset, tmp_path, eight_cpus):
    # 16-pixel blocks: 16 blocks, two slices, so a second process runs
    base = ["segment", "--input", str(dataset / "block_0002.pgm"), "--block", "16"]
    outputs = {}
    for w in ("1", "2", "4"):
        names = {flag: tmp_path / f"{w}{flag}" for flag in ("--mask-out", "--fg-out", "--bg-out")}
        assert main(base + [x for flag, path in names.items() for x in (flag, str(path))] + ["--workers", w]) == 0
        outputs[w] = [path.read_bytes() for path in names.values()]
    assert outputs["1"] == outputs["2"] == outputs["4"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_solver_process_dying_is_runtime_error(dataset, tmp_path, eight_cpus, monkeypatch, capsys):
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


def _final_primal_residuals(captured: str):
    values = []
    for line in captured.splitlines():
        if line and line[0].isdigit():
            values.append(float(line.split("\t")[1]))
    return values


def test_verbose_more_iterations_lower_residual(dataset, tmp_path, capsys):
    base = ["segment", "--input", str(dataset / "block_0000.pgm"), "--verbose"]
    assert main(base + ["--mask-out", str(tmp_path / "a.pbm"), "--iters", "50"]) == 0
    short = _final_primal_residuals(capsys.readouterr().out)[-1]
    assert main(base + ["--mask-out", str(tmp_path / "b.pbm"), "--iters", "500"]) == 0
    long = _final_primal_residuals(capsys.readouterr().out)[-1]
    assert long < short


def test_segment_missing_input_runtime_error(tmp_path, capsys):
    rc = main(["segment", "--input", str(tmp_path / "nope.pgm"), "--mask-out", str(tmp_path / "m.pbm")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


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
    rc = main(
        ["segment", "--input", str(dataset / "block_0000.pgm"),
         "--mask-out", str(tmp_path / "m.pbm"), "--rho", "1,2"]
    )
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "bad, message",
    [
        # each case id names the config field the bad flag sets
        pytest.param(["--iters", "0"], "--iters must be >= 1", id="bad0-max_iters"),
        pytest.param(["--rho", "0,1,1,1"], "--rho R1 must be positive", id="bad1-rho1"),
        pytest.param(["--lambda1", "-1"], "--lambda1 must be positive", id="bad2-lambda1"),
        pytest.param(["--block", "1", "--k", "1"], "--block must be >= 2", id="bad3-block_size"),
        pytest.param(["--k", "0"], "--k 0 out of range", id="bad4-k_bases"),
        pytest.param(["--fg-threshold", "-1"], "--fg-threshold must be >= 0", id="bad5-fg_threshold"),
        pytest.param(["--rho", "1,1,1,-2"], "--rho R4 must be positive", id="bad6-rho4"),
        pytest.param(["--workers", "0"], "--workers must be >= 1", id="bad7-workers"),
        pytest.param(["--workers", "-1"], "--workers must be >= 1", id="bad8-workers"),
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
    for field in ("max_iters", "rho1", "rho4", "block_size", "k_bases", "fg_threshold"):
        assert field not in err
    assert list(tmp_path.iterdir()) == []
