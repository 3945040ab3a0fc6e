"""In-memory span tracer that rebinds pcbdet's public functions.

`from module import name` copies a binding, so wrapping a function in its
defining module alone misses callers that imported it. `Rebinder` finds every
binding of the same function object across the loaded `pcbdet` modules,
replaces each with one traced wrapper and puts the originals back on exit.
A layer function that does not exist (deleted or renamed since this file was
written) is recorded in `missing` rather than raising.

Spans are plain lists `[id, parent_id, name, start, end, info]` kept in
memory; `info` holds per-call extras (feasibility, file bytes).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

ID, PARENT, NAME, START, END, INFO = range(6)


def _feasible(args, kwargs, result) -> bool:
    # Group estimates carry `.failed`; sample-wise estimates are None on failure.
    if result is None:
        return False
    failed = getattr(result, "failed", None)
    return True if failed is None else not failed


def _path_bytes(arg_index: int):
    def measure(args, kwargs, result):
        path = kwargs.get("path", args[arg_index] if len(args) > arg_index else None)
        return os.path.getsize(path) if path is not None and os.path.exists(path) else 0

    return measure


# (group, module, function, extra, stats) for every traced layer. `extra`
# maps a call's (args, kwargs, result) to the value kept in the span's info
# slot; `stats` names the per-layer metrics reported for the layer.
LAYERS = [
    ("classifier", "pcbdet.classifier", "train", None, ("s", "calls")),
    ("classifier", "pcbdet.classifier", "insertion_logits", None, ("s", "calls")),
    ("classifier", "pcbdet.classifier", "insertion_gradient", None, ("s", "calls")),
    ("classifier", "pcbdet.classifier", "pool_vector", None, ("s", "calls")),
    ("classifier", "pcbdet.classifier", "forward_logits", None, ("s", "calls")),
    ("classifier", "pcbdet.classifier", "save_weights", None, ("s",)),
    ("classifier", "pcbdet.classifier", "load_weights", None, ("s",)),
    ("estimation", "pcbdet.estimation", "estimate_group_location", _feasible,
     ("s", "self_s", "calls", "feasible_frac")),
    ("estimation", "pcbdet.estimation", "estimate_samplewise_location", _feasible,
     ("s", "self_s", "calls", "feasible_frac", "p50_s", "p90_s")),
    ("estimation", "pcbdet.estimation", "vote_target_class", None, ("s",)),
    ("inference", "pcbdet.inference", "detect", None, ("s",)),
    ("inference", "pcbdet.inference", "fit_gamma_null", None, ("s", "calls")),
    ("inference", "pcbdet.inference", "compute_r_s", None, ("s",)),
    ("pipeline", "pcbdet.pipeline", "build_detection_sets", None, ("s",)),
    ("attack", "pcbdet.attack", "choose_center", None, ("s",)),
    ("attack", "pcbdet.attack", "poison_dataset", None, ("s",)),
    ("attack", "pcbdet.attack", "attack_success_rate", None, ("s",)),
    ("geometry", "pcbdet.geometry", "generate_shape", None, ("s", "calls")),
    ("geometry", "pcbdet.geometry", "save_dataset", _path_bytes(1), ("s", "bytes")),
    ("geometry", "pcbdet.geometry", "load_dataset", _path_bytes(0), ("s", "bytes")),
    ("geometry", "pcbdet.geometry", "point_to_cloud_distance", None, ("s", "calls")),
    ("report", "pcbdet.report", "write_statistics_csv", None, ("s",)),
    ("report", "pcbdet.report", "write_report_json", None, ("s",)),
    ("report", "pcbdet.report", "write_histogram_svg", None, ("s",)),
]


class Tracer:
    """Collects nested spans; one tracer per traced repetition."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        rec = [len(self.spans), parent, name, self.clock(), None, None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if extra is not None:
                rec[INFO] = extra(args, kwargs, result)
            return result

        return traced


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append(rec)
    out = {}
    for rec in spans:
        covered, cursor = 0.0, rec[START]
        for child in sorted(children.get(rec[ID], ()), key=lambda c: c[START]):
            lo, hi = max(child[START], cursor), min(child[END], rec[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[rec[ID]] = (rec[END] - rec[START]) - covered
    return out


def subtree(spans, root_id: int) -> list:
    """The span `root_id` and all of its descendants (spans are in open order)."""
    inside = {root_id}
    out = []
    for rec in spans:
        if rec[ID] == root_id or rec[PARENT] in inside:
            inside.add(rec[ID])
            out.append(rec)
    return out


class Rebinder:
    """Context manager that swaps every `pcbdet` binding of each layer function
    for a traced wrapper and restores the originals on exit."""

    def __init__(self, tracer: Tracer, layers=LAYERS):
        self.tracer = tracer
        self.layers = layers
        self.missing: list = []
        self._undo: list = []

    def __enter__(self):
        self.missing = []
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self) -> None:
        for group, module_name, function, extra, _ in self.layers:
            name = f"{group}.{function}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, function, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.tracer.wrap(name, original, extra)
            for mod in _package_modules(module_name.split(".")[0]):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


def _package_modules(package: str) -> list:
    prefix = package + "."
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefix))
    ]
