import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import select
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import scseg
from scseg import (
    Decomposition, SegmentationConfig, SolverParams, SynthSpec, admm, build_basis, confusion, gen_block, load_gray,
    load_mask, save_gray, save_mask, solve_blocks, write_dataset,
)
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


def run_python(args, **kwargs):
    """Run a fresh interpreter on the package under test, wherever it was imported from."""
    package_root = os.path.dirname(os.path.dirname(scseg.__file__))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], check=True, env=env, **kwargs)


def test_segment_imports_no_scipy(dataset, tmp_path):
    script = (
        "import sys\n"
        "from scseg.cli import main\n"
        f"assert main(['segment', '--input', {str(dataset / 'block_0000.pgm')!r},"
        f" '--mask-out', {str(tmp_path / 'm.pbm')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    run_python(["-c", script])


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



def test_off_linux_the_caller_solves_every_slice(dataset, tmp_path, eight_cpus, monkeypatch, no_child_or_fd_left):
    # Windows has neither select.poll nor os.fork: at any --workers, every call solves its slices itself
    blocks, basis = np.stack([gen_block(SynthSpec(seed=i))[0] for i in range(17)]), build_basis(64, 10)
    want = solve_blocks(blocks, basis)
    argv = ["segment", "--input", str(dataset / "block_0002.pgm"), "--block", "16", "--mask-out"]
    assert main(argv + [str(tmp_path / "linux.pbm")]) == 0
    monkeypatch.delattr(select, "poll")
    monkeypatch.setattr(sys, "platform", "win32")
    for workers in (1, 2):
        got = solve_blocks(blocks, basis, SolverParams(workers=workers))
        for field in dataclasses.fields(Decomposition):
            assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes(), (workers, field.name)
    assert main(argv + [str(tmp_path / "win32.pbm"), "--workers", "2"]) == 0
    assert (tmp_path / "win32.pbm").read_bytes() == (tmp_path / "linux.pbm").read_bytes()
    assert admm._pool == []

# Runs in one process each (argv, stdout path) pair of the JSON list sys.argv[1], as main() with its
# stdout written to that file, with OpenBLAS held to sys.argv[2] threads ("default": the library's
# count), and prints the solver children's pids after each call. Run in dev mode with -W error, it
# fails on any warning, a leaked file or a fork while threads are running among them.
CLI_SCRIPT = """
import contextlib, json, os, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
os.environ.update({} if sys.argv[2] == "default" else {"OPENBLAS_NUM_THREADS": sys.argv[2]})  # before numpy loads
from scseg import admm
from scseg.cli import main

os.sched_getaffinity = lambda pid: set(range(8))  # --workers N forks N - 1 children on any host
pools = []
for argv, stdout in json.loads(sys.argv[1]):
    with open(stdout, "w") as out, contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    pools.append([child.pid for child in admm._pool])
print(json.dumps(pools))
"""


def run_cli(runs, threads="default"):
    """Run CLI_SCRIPT on (argv, stdout path) pairs in one fresh dev-mode interpreter; returns its pids per call."""
    done = run_python(["-X", "dev", "-W", "error", "-c", CLI_SCRIPT, json.dumps(runs), threads],
                      capture_output=True, text=True)
    return json.loads(done.stdout)


# name: (input, flags). 16-pixel blocks (16 blocks, two slices), the 61x50 crop (4x4 edge-padded
# 16-pixel blocks, cropped back), 5-pixel blocks (169 edge-padded blocks, the last slice short)
# and a non-unit penalty
REUSE_RUNS = {
    "b16": ("block", ["--block", "16"]),
    "crop": ("crop", ["--block", "16"]),
    "b5": ("block", ["--block", "5"]),
    "rho": ("block", ["--block", "16", "--rho", "0.3"]),
}


def segment_argv(directory, source, flags, workers, tag):
    """segment's argv on directory/<source>.pgm, writing <tag>-mask, <tag>-fg and <tag>-bg there."""
    out = {kind: str(directory / f"{tag}-{kind}") for kind in ("mask", "fg", "bg")}
    return ["segment", "--input", str(directory / f"{source}.pgm"), *flags, "--workers", workers,
            "--mask-out", out["mask"], "--fg-out", out["fg"], "--bg-out", out["bg"]]


def test_reused_solver_children_write_the_fresh_processes_bytes(tmp_path):
    # One process runs segment twice at --workers 2 on each input, then once at --rho 0.3.
    # A solver child keeps the basis and params it was forked with: the crop's call reuses the
    # child of the 16-pixel call before it, and every call with another basis or params (the
    # 5-pixel blocks, the 16-pixel blocks after them, --rho 0.3) replaces it. Every file must
    # equal the one a fresh --workers 1 process writes.
    block = tmp_path / "block.pgm"
    save_gray(gen_block(SynthSpec(seed=0))[0], block)
    save_gray(load_gray(block)[:61, :50], tmp_path / "crop.pgm")
    for name, (source, flags) in REUSE_RUNS.items():
        run_python(["-X", "dev", "-W", "error", "-m", "scseg.cli", *segment_argv(tmp_path, source, flags, "1", name)])
    runs = [(name, call) for call in (1, 2) for name in ("b16", "crop", "b5")] + [("rho", 1)]
    argvs = [segment_argv(tmp_path, *REUSE_RUNS[name], "2", f"{name}-reused{call}") for name, call in runs]
    children = [child for (child,) in run_cli([(argv, os.devnull) for argv in argvs])]
    # for each call, the first call its solver child served
    assert [children.index(child) for child in children] == [0, 0, 2, 3, 3, 5, 6]
    for name, call in runs:
        for kind in ("mask", "fg", "bg"):
            reused = (tmp_path / f"{name}-reused{call}-{kind}").read_bytes()
            assert reused == (tmp_path / f"{name}-{kind}").read_bytes(), (name, call, kind)
    assert load_mask(tmp_path / "crop-mask").shape == load_gray(tmp_path / "crop-bg").shape == (61, 50)


# name: (input, flags, runs). A run is (OpenBLAS threads, --workers): threads None runs the command
# in this process; "1" and "default" run it in one fresh dev-mode interpreter each, with OpenBLAS
# held to one thread or left at its default count. Every run of a row must write the same bytes:
# each output file, and the --verbose records or the printed summary. The inputs are a 9-image
# synth dataset ("manifest": evaluate), its first 64x64 image, and the pages of the digest file.
MATRIX = {
    "evaluate-rerun": ("manifest", [], [(None, 1), (None, 1)]),
    # 16-pixel blocks: each image is two 8-block slices and one solver call, so at --workers 2
    # every image's call after the first runs on the child the first call forked
    "evaluate-b16": ("manifest", ["--block", "16"], [("default", 1), ("default", 2)]),
    # 8-pixel blocks: 64 blocks in 8 slices; --workers 3 forks two children, whose records are
    # joined in order
    "b8": ("block_0000", ["--block", "8", "--verbose"], [("default", 1), ("default", 3)]),
    "b16-blas": ("block_0000", ["--block", "16", "--verbose"], [("1", 1), ("default", 1)]),
    # 28 atoms: the background fill's stacked products run at 7 vertical and 7 horizontal frequencies
    "k28": ("block_0000", ["--block", "16", "--k", "28"], [(t, w) for w in (1, 2) for t in ("1", "default")]),
    **{f"{page}-b{block}": (page, ["--block", str(block), "--verbose"], [("default", 1), ("default", 2)])
       for page in ("page", "crop") for block in (64, 16, 5)},
}

# sha256 of the page rows' files and --verbose records, and the numpy version they were made with
DIGESTS = pathlib.Path(__file__).parent / "data" / "output_digests.json"


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """The directory of every MATRIX run's files, and the solver children after each run in a fresh interpreter."""
    directory = tmp_path_factory.mktemp("matrix")
    write_dataset(directory, 9, SynthSpec())
    # 3x3 blocks whose backgrounds are outside the solver's model (15 atoms against its 10), and
    # a 181x150 crop, which no block side divides; every side makes two slices or more of each
    page = np.block([[gen_block(SynthSpec(seed=3 * r + c, k_true=15))[0] for c in range(3)] for r in range(3)])
    save_gray(page, directory / "page.pgm")
    save_gray(page[:181, :150], directory / "crop.pgm")
    by_threads = {}
    for name, (source, flags, runs) in MATRIX.items():
        for i, (threads, workers) in enumerate(runs):
            tag = f"{name}.{i}"  # the run's files are <tag>-<kind>
            argv = segment_argv(directory, source, flags, str(workers), tag) if source != "manifest" else [
                "evaluate", "--manifest", str(directory / "manifest.tsv"), *flags, "--workers", str(workers),
                "--report", str(directory / f"{tag}-report")]
            by_threads.setdefault(threads, []).append((tag, (argv, str(directory / f"{tag}-stdout"))))
    for _, (argv, stdout) in by_threads.pop(None):
        with open(stdout, "w") as out, contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
    children = {}
    for threads, tagged in by_threads.items():
        pools = run_cli([run for _, run in tagged], threads)
        children.update((tag, len(pool)) for (tag, _), pool in zip(tagged, pools, strict=True))
    return directory, children


@pytest.mark.parametrize("name", MATRIX)
def test_every_run_writes_the_same_bytes(name, matrix):
    source, flags, runs = MATRIX[name]
    directory, children = matrix
    outputs = [{path.name.rsplit("-", 1)[1]: path.read_bytes() for path in directory.glob(f"{name}.{i}-*")}
               for i in range(len(runs))]
    for i, (_, workers) in enumerate(runs):
        if workers > 1:  # the run's slices went to a generation of workers - 1 children
            assert children[f"{name}.{i}"] == workers - 1
    assert set(outputs[0]) == ({"report", "stdout"} if source == "manifest" else {"mask", "fg", "bg", "stdout"})
    for run, output in zip(runs[1:], outputs[1:]):
        for kind, first in outputs[0].items():
            assert output[kind] == first, (run, kind)
    if "--verbose" in flags:  # one JSON object per block, edge blocks included
        records = [json.loads(line) for line in outputs[0]["stdout"].splitlines()]
        block = int(flags[flags.index("--block") + 1])
        height, width = load_gray(directory / f"{source}.pgm").shape
        assert len(records) == -(-height // block) * -(-width // block)


def test_outputs_match_the_recorded_digests(matrix):
    # compared only under the numpy the digests were made with: each numpy release bundles its
    # own BLAS, whose dispatch can move bits. Without the file, this writes it and fails.
    directory, _ = matrix
    tags = {f"{name} --workers {workers}": f"{name}.{i}" for name, (source, _, runs) in MATRIX.items()
            if source in ("page", "crop") for i, (_, workers) in enumerate(runs)}
    digests = {key: {kind: hashlib.sha256((directory / f"{tag}-{kind}").read_bytes()).hexdigest()
                     for kind in ("mask", "fg", "bg", "stdout")} for key, tag in tags.items()}
    if not DIGESTS.exists():
        DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests}, indent=2) + "\n")
        pytest.fail(f"wrote {DIGESTS} anew")
    recorded = json.loads(DIGESTS.read_text())
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"digests made with numpy {recorded['numpy']}, this is numpy {np.__version__}")
    assert digests == recorded["digests"]


def test_solver_process_dying_is_runtime_error(dataset, tmp_path, eight_cpus, monkeypatch, capsys, no_child_or_fd_left):
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


PAGE = 512 * 512 * 8  # bytes of one float64 512² page


def _page(tmp_path, name, blocks=8, seed=0):
    """Write a page of blocks x blocks default synth blocks and its truth; returns the two file names."""
    pairs = [[gen_block(SynthSpec(seed=seed + blocks * r + c)) for c in range(blocks)] for r in range(blocks)]
    save_gray(np.block([[img for img, _, _ in row] for row in pairs]), tmp_path / f"{name}.pgm")
    save_mask(np.block([[truth for _, truth, _ in row] for row in pairs]), tmp_path / f"{name}.pbm")
    return f"{name}.pgm", f"{name}.pbm"


def _traced_pages(argv):
    """Run main(argv) under tracemalloc; returns its traced peak in float64 512² pages."""
    tracemalloc.start()
    try:
        assert main(argv + ["--workers", "1", "--iters", "5"]) == 0
        return tracemalloc.get_traced_memory()[1] / PAGE
    finally:
        tracemalloc.stop()


def _segment_argv(tmp_path, *outputs):
    image, _ = _page(tmp_path, "page")
    return ["segment", "--input", str(tmp_path / image)] + [
        x for name in outputs for x in (f"--{name}", str(tmp_path / name))]


def test_mask_only_segment_peaks_under_three_and_a_quarter_pages(tmp_path):
    # a 512² page of 64 blocks: the image goes once it is tiled, so the solve holds the
    # blocks, the records' float64 s and the solver's fixed work arrays
    pages = _traced_pages(_segment_argv(tmp_path, "mask-out"))
    assert pages < 3.25, pages


def test_layered_segment_peaks_under_five_pages(tmp_path):
    # a 512² page of 64 blocks: while the layers are built the call holds the blocks, the
    # records' float64 s and the two layers, and neither the image (dropped once tiled) nor
    # the block-layout fill as well; the blocks and records go before the layers are written
    pages = _traced_pages(_segment_argv(tmp_path, "mask-out", "fg-out", "bg-out"))
    assert pages < 5, pages


def _evaluate_pages(tmp_path, pages, method="proposed"):
    lines = ["\t".join(_page(tmp_path, f"e{i}", blocks, seed=100 * i)) + "\n" for i, blocks in enumerate(pages)]
    (tmp_path / "m.tsv").write_text("".join(lines), encoding="utf-8")
    return _traced_pages(["evaluate", "--manifest", str(tmp_path / "m.tsv"), "--method", method,
                          "--report", str(tmp_path / "report.json")])


def test_evaluate_peaks_under_four_pages(tmp_path):
    # three 512² pages, each a group by itself: each record goes once its mask is scored,
    # so the next page is loaded and solved while no earlier page's blocks or s are held
    pages = _evaluate_pages(tmp_path, [8, 8, 8])
    assert pages < 4, pages


def test_evaluate_solves_a_page_apart_from_a_small_image(tmp_path):
    # a 64² image, then a 512² page: the image is solved by itself, so the page's
    # blocks are not stacked into a copy with its one block
    pages = _evaluate_pages(tmp_path, [1, 8])
    assert pages < 3.25, pages


def test_kmeans2_evaluate_peaks_under_three_pages(tmp_path):
    pages = _evaluate_pages(tmp_path, [8, 8, 8], "kmeans2")
    assert pages < 3, pages


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
    from scseg import SegmentationConfig, load_gray, objective, segment_images

    img = load_gray(dataset / "block_0001.pgm")
    assert main(["segment", "--input", str(dataset / "block_0001.pgm"), "--block", "32",
                 "--mask-out", str(tmp_path / "m.pbm"), "--verbose"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    config = SegmentationConfig(block_size=32)
    seg = next(segment_images([img], config))
    dec = seg.decomposition
    assert len(records) == len(dec.alpha) == 4
    blocks = zip(records, seg.grid.origins, seg.block_masks)
    for i, (record, origin, block_mask) in enumerate(blocks):
        assert record == {
            "block": i,
            "origin": list(origin),
            "primal_residual": dec.primal_residual[i],
            "coefficient_residual": dec.split_residuals[i, 0],
            "row_residual": dec.split_residuals[i, 1],
            "column_residual": dec.split_residuals[i, 2],
            # one block alone: the same bits as the stack of the image's blocks that --verbose takes
            "objective": objective(dec.alpha[i], dec.s[i], config.solver),
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
    # the parser is built once per process: rebuild it on the patched names, and drop it afterwards
    build_parser.cache_clear()
    try:
        assert main(["segment", "--help"]) == 0
    finally:
        build_parser.cache_clear()
    out = " ".join(capsys.readouterr().out.split())
    assert "ADMM penalty parameter (default 2.5)" in out
    assert "solve the 5-block slices (default 3, capped" in out


def test_one_parser_serves_every_call(capsys):
    # a usage error or a flag given in one call leaves nothing behind for the next
    parser = build_parser()
    assert main(["segment"]) == 1
    assert built(REQUIRED["segment"] + ["--rho", "1.5", "--block", "32"]) == segmentation_config(
        {"rho": 1.5, "block_size": 32})
    assert built(REQUIRED["segment"]) == SegmentationConfig()
    assert build_parser() is parser
    capsys.readouterr()


def test_evaluate_names_the_unreadable_entries(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("missing.pgm\tmissing.pbm\n# comment\nalso.pgm\talso.pbm\n")
    assert main(["evaluate", "--manifest", str(manifest), "--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    first = tmp_path / "also.pgm"  # entries are read in path order
    assert err.startswith(f"error: no readable entries in manifest: 2 unreadable, first {first}: ")
    assert "No such file or directory" in err
    assert not (tmp_path / "r.json").exists()
