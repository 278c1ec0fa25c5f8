"""Layer tracing from outside the program.

A Tracer swaps every public function of the spoofnet layer modules (and
the public methods of the model and optimizer classes) for a wrapper
that records one span per call: name, start, end and the span that was
open when it started. Names bound elsewhere by ``from .x import y`` are
replaced too, because callers look them up in their own module; patching
only the defining module would miss those calls.

Self time is a span's duration minus the durations of its direct
children. Times are integer nanoseconds, so self times are exact and
never negative.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# the layers, in pipeline order; each is a module of the spoofnet package
LAYERS = ("dsp", "pitch", "formants", "annotate", "cache", "features",
          "autodiff", "optim", "checkpoint", "model", "train", "metrics",
          "explain", "manifest", "config", "synth", "cli")
# classes whose public methods (and constructor) are layer boundaries
TRACED_CLASSES = {"model": ("SpoofNet",), "optim": ("AdamW",)}
# the CLI's stage handlers are private; each is reported as cli.<stage>
STAGE_PREFIX = "_cmd_"


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_annotate(tracer, args, kwargs, result):
    _, stats = result
    tracer.counters["cache.cached"] += stats.cached
    tracer.counters["cache.attempted"] += (stats.cached + stats.computed
                                           + len(stats.skipped))
    cache_dir = Path(_arg(args, kwargs, 1, "cache_dir"))
    tracer.counters["cache.file_bytes"] += _path_size(cache_dir / "annotations.jsonl")


def _count_checkpoint(tracer, args, kwargs, result):
    tracer.counters["checkpoint.bytes"] += _path_size(_arg(args, kwargs, 0, "path"))


# counters recorded at a boundary from the call's arguments and result
COUNTERS = {
    "cache.annotate_corpus": _count_annotate,
    "checkpoint.load_checkpoint": _count_checkpoint,
    "checkpoint.save_checkpoint": _count_checkpoint,
}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list = []       # (name, start_ns, end_ns, parent index)
        self.counters = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list = []    # (owner, attribute, original)

    # -- patching ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot: children follow it
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                # a tuple of atoms, which the garbage collector stops tracking
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"spoofnet.{layer}")
                   for layer in LAYERS}
        wrappers = {}  # id(original function) -> wrapper; the originals stay alive
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith(STAGE_PREFIX):
                    name = f"{layer}.{attr[len(STAGE_PREFIX):]}"
                elif attr.startswith("_"):
                    continue
                else:
                    name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (attr == "__init__"
                                                    or not attr.startswith("_")):
                        self._set(cls, attr,
                                  self._wrap(f"{layer}.{cls_name}.{attr}", obj))
        # every module-level binding of a wrapped function, including the
        # names other modules imported, now points at the wrapper
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child_ns[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def summary(self) -> dict[str, dict]:
        """name -> {"s": total self seconds, "calls": count}."""
        table: dict[str, dict] = {}
        for (name, *_), self_ns in zip(self.spans, self.self_times_ns()):
            row = table.setdefault(name, {"s": 0.0, "calls": 0})
            row["s"] += self_ns * 1e-9
            row["calls"] += 1
        return table

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: [name, start_ns, end_ns, parent]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
