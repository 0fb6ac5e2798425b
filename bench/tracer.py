"""Spans around the public functions of sftbounds, installed from outside the
library: each function is replaced, in every module namespace that holds it,
by one wrapper that records calls, self time and raised errors.

Self time is a span's duration minus the spans of wrapped functions it
called. Hot leaves called 10^4-10^5 times a pass are not wrapped; their work
is counted from the sizes their callers return instead (COUNTERS).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from time import perf_counter

import numpy as np

MODULES = ("sft", "spectral", "measures", "transfer", "bounds", "holes", "models", "io", "cli")
HOT_LEAVES = {"sft.is_admissible", "measures.cylinder_measure", "io.fmt"}


def _count_words(c, args, kwargs, result):
    c["sft.words_enumerated"] += len(result)


def _count_cylinders(c, args, kwargs, result):
    c["measures.cylinder_words"] += len(result)


def _count_decay(c, args, kwargs, result):
    c["transfer.decay_words"] += len(result[1])


def _count_pruned(c, args, kwargs, result):
    n = len(result.states)
    c["holes.pruned_states"] += n
    c["holes.max_pruned_states"] = max(c["holes.max_pruned_states"], n)
    c["holes.pruned_edges"] += int(np.count_nonzero(result.matrix))


def _count_cover(c, args, kwargs, result):
    c["models.cover_words"] += len(result.inner) + len(result.outer)
    c["models.cover_depth_max"] = max(c["models.cover_depth_max"], result.depth)


def _count_csv(c, args, kwargs, result):
    c["io.csv_bytes"] += os.path.getsize(kwargs.get("path", args[0] if args else None))


COUNTERS = {
    "sft.enumerate_words": _count_words,
    "measures.cylinder_measure_vector": _count_cylinders,
    "transfer.transfer_matrix": _count_decay,
    "holes.prune_words": _count_pruned,
    "models.ball_to_cylinders": _count_cover,
    "io.write_csv": _count_csv,
}
COUNTER_UNITS = {
    "sft.words_enumerated": "count", "measures.cylinder_words": "count",
    "transfer.decay_words": "count", "holes.pruned_states": "count",
    "holes.max_pruned_states": "count", "holes.pruned_edges": "count",
    "models.cover_words": "count", "models.cover_depth_max": "count", "io.csv_bytes": "bytes",
}


class Tracer:
    """Per-function [calls, self_s, errors] plus size counters for one pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters = dict.fromkeys(COUNTER_UNITS, 0)
        self._child = [0.0]  # time spent in wrapped callees, one slot per open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        child = self._child
        counter = COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                t1 = perf_counter()
                span = t1 - t0
                stats[0] += 1
                stats[1] += span - child.pop()
                child[-1] += span
            if counter is not None:
                counter(counters, args, kwargs, result)
                # counting is tracing overhead: hide it from the caller's self time
                child[-1] += perf_counter() - t1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public sftbounds function in every namespace that holds it."""
        namespaces = [importlib.import_module(f"sftbounds.{m}") for m in MODULES]
        namespaces.append(importlib.import_module("sftbounds"))
        wrappers: dict[object, object] = {}
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("sftbounds."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if name in HOT_LEAVES:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(name, obj)
                setattr(module, attr, wrappers[obj])

    def report(self) -> dict:
        return {"functions": self.stats, "counters": self.counters}
