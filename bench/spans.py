"""Spans around the public functions of misbench, recorded from outside.

``Tracer.install()`` replaces each public function of the traced modules
with a wrapper at every module attribute it is bound to, so a function that
``from .misenum import enumerate_mis`` copied into ``extremal``, ``mibs``,
``pipeline``, ``corpus`` and ``cli`` is traced wherever it is called from.
In ``graphs`` only ``Graph`` construction is traced: its helper functions
run inside the enumerators' inner loops, where a span would cost more than
the call.  Spans stay in memory (name, parent, start, end) until the run
ends; ``uninstall()`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

TRACED_MODULES = ("cli", "graphio", "extremal", "bounds", "misenum", "mibs", "corpus", "pipeline")


def _count_sets(counters, result):
    counters["misenum.enumerate_mis.sets"] += len(result.sets)


def _count_mibs(counters, result):
    counters["mibs.ordered_pairs"] += result.ordered_pair_count
    counters["mibs.distinct"] += result.distinct_count


def _count_states(counters, result):
    counters["pipeline.transversal_census.states"] += result.total


def _count_families(counters, result):
    counters["pipeline.verify_is_capture.families"] += len(result["families"])


# Work counts read from return values, per span name.
OBSERVERS = {
    "misenum.enumerate_mis": _count_sets,
    "mibs.enumerate_mibs": _count_mibs,
    "pipeline.transversal_census": _count_states,
    "pipeline.verify_is_capture": _count_families,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.outermost = array("b")  # 0 when the same name is already open
        self.counters: Counter[str] = Counter()
        self.class_lists: dict[int, int] = {}  # id -> length of generate_all results
        self._stack = [-1]
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        self._open.append(0)
        observe = OBSERVERS.get(name)
        if name == "extremal.generate_all":
            observe = self._count_classes
        stack, is_open = self._stack, self._open
        names, parents = self.name_col, self.parent_col
        starts, ends, outer = self.start_col, self.end_col, self.outermost
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            outer.append(is_open[name_id] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            is_open[name_id] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                is_open[name_id] -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def _count_classes(self, counters, result) -> None:
        self.class_lists[id(result)] = len(result)

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"misbench.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "misbench"]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        graph_cls = sys.modules["misbench.graphs"].Graph
        self._undo.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self._wrap(graph_cls.__init__, "graphs.Graph")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans) and self seconds."""
        n = len(self.start_col)
        child = [0.0] * n
        for i in range(n):
            p = self.parent_col[i]
            if p >= 0:
                child[p] += self.end_col[i] - self.start_col[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_col[i]]]
            dur = self.end_col[i] - self.start_col[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outermost[i]:
                row["s"] += dur
        return out

    def write(self, path) -> None:
        """All spans as columns; ``parent`` is a row index or -1."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_col.tolist(),
                    "parent": self.parent_col.tolist(),
                    "start": self.start_col.tolist(),
                    "end": self.end_col.tolist(),
                },
                fh,
            )
