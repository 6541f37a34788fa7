"""In-memory span tracing of scseg's layers, installed from outside the package.

A `Tracer` replaces the functions each scseg module looks up at call time
(for example `scseg.segmentation.solve` or `scseg.admm.soft`) with wrappers
that record a span: name, start, end and parent. `Tracer.installed()` puts
the originals back when it exits, so the program is unchanged outside a
traced phase. Self time is a span's duration minus the part of it that its
child spans cover; children may overlap when they run on pool threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute looked up there, span name). The same layer is wrapped
# in every module that calls it, so each call site is counted once.
TARGETS = (
    ("scseg.cli", "main", "cli.main"),
    ("scseg.cli", "load_gray", "image_io.decode"),
    ("scseg.evaluation", "load_gray", "image_io.decode"),
    ("scseg.evaluation", "load_mask", "image_io.decode"),
    ("scseg.cli", "save_gray", "image_io.encode"),
    ("scseg.cli", "save_mask", "image_io.encode"),
    ("scseg.segmentation", "tile", "image_io.tile"),
    ("scseg.baseline", "tile", "image_io.tile"),
    ("scseg.cli", "stitch", "image_io.stitch"),
    ("scseg.segmentation", "stitch", "image_io.stitch"),
    ("scseg.baseline", "stitch", "image_io.stitch"),
    ("scseg.cli", "segment_blocks", "segmentation.segment_blocks"),
    ("scseg.segmentation", "segment_blocks", "segmentation.segment_blocks"),
    ("scseg.evaluation", "segment_image", "segmentation.segment_image"),
    ("scseg.segmentation", "segment_block", "segmentation.segment_block"),
    ("scseg.cli", "assemble_layers", "segmentation.assemble_layers"),
    ("scseg.segmentation", "fill_background", "segmentation.fill_background"),
    ("scseg.segmentation", "build_basis", "dct.build_basis"),
    ("scseg.segmentation", "solve", "admm.solve"),
    ("scseg.admm", "coefficient_system", "admm.coefficient_system"),
    ("scseg.admm", "admm_step", "admm.admm_step"),
    ("scseg.admm", "cho_solve", "admm.cho_solve"),
    ("scseg.admm", "soft", "prox.soft"),
    ("scseg.admm", "group_soft", "prox.group_soft"),
    ("scseg.cli", "load_manifest", "evaluation.load_manifest"),
    ("scseg.cli", "evaluate_dataset", "evaluation.evaluate_dataset"),
    ("scseg.evaluation", "confusion", "evaluation.confusion"),
    ("scseg.evaluation", "kmeans2_image", "baseline.kmeans2_image"),
    ("scseg.baseline", "kmeans2_block", "baseline.kmeans2_block"),
)

# Spans that only route work to other layers; their self time is the
# unattributed remainder.
GLUE = (
    "segmentation.segment_blocks",
    "segmentation.segment_image",
    "segmentation.assemble_layers",
    "evaluation.evaluate_dataset",
)

# Work the tracer does for its own counters. These spans count as children,
# so they are taken out of their parent's self time, and belong to no layer.
OVERHEAD = "trace.overhead"


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals within it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Collects spans and counters while its wrappers are installed.

    A span opened on a thread with no open span of its own (a pool worker)
    takes the innermost open span of the installing thread as parent.
    """

    def __init__(self, fg_threshold: float):
        self.fg_threshold = fg_threshold
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, value=1) -> None:
        with self._lock:
            self.counts[key] += value

    # Hooks run after the wrapped call returns, inside an overhead span.
    def _after_solve(self, span, args, kwargs, result):
        iterates = self._local.iterates
        self._local.iterates = None
        # The zero starting state has an empty mask.
        prev = None
        last_change = 0
        for it, s in enumerate(iterates, start=1):
            mask = np.abs(s) > self.fg_threshold
            if not np.array_equal(mask, prev if prev is not None else np.zeros_like(mask)):
                last_change = it
            prev = mask
        self.count("admm.iters", getattr(result, "iters_run", len(iterates)))
        self.count("admm.useful_iters", last_change)

    def _after_step(self, span, args, kwargs, result):
        iterates = getattr(self._local, "iterates", None)
        if iterates is not None:
            iterates.append(result.s)

    def _after_decode(self, span, args, kwargs, result):
        self.count("image_io.decode_bytes", os.path.getsize(args[0]))

    def _after_encode(self, span, args, kwargs, result):
        self.count("image_io.encode_bytes", os.path.getsize(args[1]))

    def _after_segment_blocks(self, span, args, kwargs, result):
        workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
        self.count("segmentation.capacity_s", max(workers, 1) * (span.end - span.start))

    def _before_solve(self):
        self._local.iterates = []

    def _wrap(self, fn, name: str):
        before = self._before_solve if name == "admm.solve" else None
        after = {
            "admm.solve": self._after_solve,
            "admm.admm_step": self._after_step,
            "image_io.decode": self._after_decode,
            "image_io.encode": self._after_encode,
            "segmentation.segment_blocks": self._after_segment_blocks,
        }.get(name)
        # Keeping a reference to each iterate costs less than timing it would.
        timed_after = name != "admm.admm_step"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(name + ".errors")
                raise
            finally:
                span = tracer.close(idx)
            if after is not None:
                if timed_after:
                    with tracer.span(OVERHEAD):
                        after(span, args, kwargs, result)
                else:
                    after(span, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the original attributes on exit."""
        saved = []
        self._main_stack = self._stack()
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, items: int) -> dict:
        """Per-layer metrics per item, as {name: (value, unit)}."""
        selfs = self_times(self.spans)
        dur = Counter()
        own = Counter()
        calls = Counter()
        for s, st in zip(self.spans, selfs):
            dur[s.name] += s.end - s.start
            own[s.name] += st
            calls[s.name] += 1
        c = self.counts
        per = 1.0 / items
        iters = c["admm.iters"]
        capacity = c["segmentation.capacity_s"]

        def secs(value):
            return (value * per, "s/item")

        def count(value):
            return (value * per, "count/item")

        return {
            "admm.solve_s": secs(dur["admm.solve"]),
            "admm.solve_calls": count(calls["admm.solve"]),
            "admm.iters": count(iters),
            "admm.step_s": secs(own["admm.admm_step"]),
            "admm.coef_factor_s": secs(dur["admm.coefficient_system"]),
            "admm.coef_factor_calls": count(calls["admm.coefficient_system"]),
            "admm.coef_solve_s": secs(dur["admm.cho_solve"]),
            "admm.bookkeeping_s": secs(own["admm.solve"]),
            "admm.useful_iter_frac": (c["admm.useful_iters"] / iters if iters else 0.0, "frac"),
            "prox.soft_s": secs(dur["prox.soft"]),
            "prox.soft_calls": count(calls["prox.soft"]),
            "prox.group_soft_s": secs(dur["prox.group_soft"]),
            "dct.build_basis_s": secs(dur["dct.build_basis"]),
            "dct.build_basis_calls": count(calls["dct.build_basis"]),
            "image_io.decode_s": secs(dur["image_io.decode"]),
            "image_io.decode_mb": (c["image_io.decode_bytes"] * per / 1e6, "MB/item"),
            "image_io.encode_s": secs(dur["image_io.encode"]),
            "image_io.encode_mb": (c["image_io.encode_bytes"] * per / 1e6, "MB/item"),
            "image_io.tile_s": secs(dur["image_io.tile"]),
            "image_io.stitch_s": secs(dur["image_io.stitch"]),
            "segmentation.threshold_s": secs(own["segmentation.segment_block"]),
            "segmentation.fill_background_s": secs(dur["segmentation.fill_background"]),
            "segmentation.fill_background_calls": count(calls["segmentation.fill_background"]),
            "segmentation.fill_failures": (c["segmentation.fill_background.errors"], "count"),
            "segmentation.pool_busy_frac": (dur["admm.solve"] / capacity if capacity else 0.0, "frac"),
            "baseline.kmeans2_s": secs(dur["baseline.kmeans2_image"]),
            "baseline.kmeans2_blocks": count(calls["baseline.kmeans2_block"]),
            "evaluation.manifest_s": secs(dur["evaluation.load_manifest"]),
            "evaluation.confusion_s": secs(dur["evaluation.confusion"]),
            "cli.self_s": secs(own["cli.main"]),
            "trace.unattributed_s": secs(sum(own[name] for name in GLUE)),
        }
