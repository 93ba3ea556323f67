"""Wrap the library's public functions from outside, and record spans.

The benchmark never edits the library.  It replaces a function object
everywhere a loaded ``otfs_sync`` module binds it, so
``harness.realize_channel`` and ``channel.realize_channel`` (the same
object) are both replaced and a call site that moves between modules is
still seen.

A span is one call of a wrapped function: its name (``module.function``),
the span that was open when it started, and its start and end times.
Spans are kept in flat arrays in memory and saved when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import logging
import sys
import time
from array import array

import numpy as np


def package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if name == "otfs_sync" or name.startswith("otfs_sync.")]


def rebind(original, replacement) -> int:
    """Replace every binding of ``original`` in the loaded library modules."""
    count = 0
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def public_functions() -> list:
    """(``module.function``, function) for each function a module defines."""
    found = []
    for module in package_modules():
        if module.__name__ == "otfs_sync":
            continue
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found.append((f"{short}.{attr}", value))
    return found


class Tracer:
    """Span recorder for every public function of the library."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def install(self) -> None:
        for name, fn in public_functions():
            rebind(fn, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


class SpanStats:
    """Per-function durations and self times from a finished trace.

    A span's self time is its duration minus the spans it opened in other
    modules: a layer is a module, and the helpers a layer calls inside
    itself (``cfo.ml_cost_fast`` under ``cfo.fine_cfo``) are its own work.
    """

    def __init__(self, tracer: Tracer):
        data = tracer.arrays()
        self.names = list(data["names"])
        self.name_id = data["name_id"]
        self.parent = data["parent"]
        self.duration = data["end"] - data["start"]
        module = np.array([n.split(".", 1)[0] for n in self.names])
        span_module = module[self.name_id] if self.names else module
        has_parent = self.parent >= 0
        foreign = np.zeros(self.duration.size, dtype=bool)
        foreign[has_parent] = (span_module[has_parent]
                               != span_module[self.parent[has_parent]])
        children = np.bincount(self.parent[foreign],
                               weights=self.duration[foreign],
                               minlength=self.duration.size)
        self.self_time = self.duration - children

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.duration.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]

    def self_times(self, name: str) -> np.ndarray:
        return self.self_time[self._mask(name)]

    def share_under(self, name: str, parent_name: str) -> float:
        """Time of ``name`` calls opened by ``parent_name`` spans, as a share
        of the total time of ``parent_name`` spans."""
        parents = self._mask(parent_name)
        inside = self._mask(name) & (self.parent >= 0)
        inside[inside] = parents[self.parent[inside]]
        return float(self.duration[inside].sum()
                     / self.duration[parents].sum())


class GuardRailCounter(logging.Handler):
    """Counts the estimators' guard-rail warnings by message."""

    #: log message prefix -> metric; rows_skipped adds the logged row count
    PREFIXES = {
        "fine CFO: cost peak on the search boundary":
            "cfo.fine_cfo.boundary_hits",
        "projection: cond(G^H G)": "cfo.projection.ridge_fallbacks",
        "coarse CFO: skipping": "cfo.coarse_cfo.rows_skipped",
    }

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts = dict.fromkeys(self.PREFIXES.values(), 0)

    def emit(self, record: logging.LogRecord) -> None:
        for prefix, metric in self.PREFIXES.items():
            if str(record.msg).startswith(prefix):
                self.counts[metric] += (int(record.args[0])
                                        if metric.endswith("rows_skipped")
                                        else 1)
