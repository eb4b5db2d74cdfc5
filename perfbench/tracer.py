"""Span tracing for the benchmark's traced run.

The tracer rebinds the public entry points and strategy methods of the
``jeffreys`` modules to timing wrappers; nothing in the library changes.
Each call records one span (name, start, end, parent span, op id) in
preallocated-growth arrays kept in memory; :meth:`Tracer.save` writes them
once, at the end.  Per-layer metrics are computed from the spans: a span's
self time is its duration minus the durations of its child spans, which
never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  A missing attribute is skipped, so the
# private names stop being traced, not the benchmark, once they are removed.
FUNCTIONS = (
    ("jeffreys.protocol", "run_protocol", "protocol.run"),
    ("jeffreys.protocol", "verify_run", "protocol.verify_run"),
    ("jeffreys.protocol", "classify_disjuncts", "protocol.classify_disjuncts"),
    ("jeffreys.sceptics", "level2_inequality_slack", "sceptics.level2_inequality_slack"),
    ("jeffreys.sceptics", "_level2_numeric", "sceptics.level2_numeric"),
    ("jeffreys.aggregating", "aa_observe", "aggregating.aa_observe"),
    ("jeffreys.divergence", "lower_alpha_divergence_numeric", "divergence.numeric"),
    ("jeffreys.divergence", "upper_alpha_divergence_numeric", "divergence.numeric"),
    ("jeffreys.divergence", "_bisect_flip", "divergence.bisect"),
    ("jeffreys.games", "is_superprediction", "games.membership"),
    ("jeffreys.games", "is_subprediction", "games.membership"),
    ("jeffreys.games", "_min_gap", "games.gap_search"),
    ("jeffreys.games", "check_perfectly_mixable", "games.mixability"),
    ("jeffreys.serialize", "write_trace_csv", "serialize.write_trace_csv"),
    ("jeffreys.serialize", "write_report_json", "serialize.write_report_json"),
    ("jeffreys.cli", "main", "cli.main"),
)

# (module, class, span-name prefix, methods)
METHODS = (
    ("jeffreys.games", "Game", "games.validate", ("validate_prediction", "validate_outcome")),
    ("jeffreys.sceptics", "Level1Sceptic", "sceptics.level1", ("reset", "predict", "observe")),
    ("jeffreys.sceptics", "Level2Sceptic", "sceptics.level2", ("reset", "predict", "observe")),
    ("jeffreys.sceptics", "Level3Sceptic", "sceptics.level3", ("reset", "predict", "observe")),
    ("jeffreys.sceptics", "AggregatingSceptic", "sceptics.aggregating",
     ("reset", "predict", "observe")),
)
PLAYER_METHODS = ("reset", "predict", "observe", "outcome")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        # counts the spans cannot carry
        self.steps = 0
        self.csv_rows = 0
        self.csv_bytes = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation --------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        """Rebind every traced function in each namespace that holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "jeffreys" or n.startswith("jeffreys.")]
        namespaces = modules + list(extra_namespaces)
        hooks = {"run_protocol": self._count_steps, "write_trace_csv": self._count_csv}
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span, original, hooks.get(attr))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        for mod_name, cls_name, prefix, methods in METHODS:
            self._wrap_methods(getattr(sys.modules[mod_name], cls_name), prefix, methods)
        players = sys.modules["jeffreys.players"]
        for value in list(vars(players).values()):
            if (isinstance(value, type)
                    and issubclass(value, (players.PredictorStrategy, players.NatureStrategy))
                    and value not in (players.PredictorStrategy, players.NatureStrategy)):
                self._wrap_methods(value, "players", PLAYER_METHODS)

    def _wrap_methods(self, cls, prefix, methods) -> None:
        for meth in methods:
            fn = getattr(cls, meth, None)
            # an inherited method may already carry a base class's wrapper
            if fn is not None and not getattr(fn, "__wrapped_by_tracer__", False):
                setattr(cls, meth, self.wrap(f"{prefix}.{meth}", fn))

    def _count_steps(self, args, trace) -> None:
        self.steps += len(trace)

    def _count_csv(self, args, _result) -> None:
        trace, path = args[0], args[1]
        self.csv_rows += len(trace)
        self.csv_bytes += os.path.getsize(path)

    # -- output --------------------------------------------------------

    def arrays(self):
        # copies, so the arrays stay growable while numpy holds the values
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def save(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            op=np.array(self.op, dtype=np.int32), start=start, end=end)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus ancestry counts."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        nnames = len(self.names)
        calls = np.bincount(name, minlength=nnames)
        total = np.bincount(name, weights=dur, minlength=nnames)
        selfs = np.bincount(name, weights=self_time, minlength=nnames)
        out = {n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
               for i, n in enumerate(self.names)}
        return {"spans": out,
                "membership_in_divergence": self._count_under(name, parent, "games.membership",
                                                              "divergence.numeric"),
                "membership_in_bisection": self._count_under(name, parent, "games.membership",
                                                             "divergence.bisect"),
                "gap_search_in_level2_numeric": self._count_under(
                    name, parent, "games.gap_search", "sceptics.level2_numeric")}

    def _count_under(self, name, parent, child_name, ancestor_name) -> int:
        if child_name not in self._ids or ancestor_name not in self._ids:
            return 0
        idx = np.nonzero(name == self._ids[child_name])[0]
        anc = parent[idx]
        found = np.zeros(len(idx), dtype=bool)
        target = self._ids[ancestor_name]
        while np.any(anc >= 0):
            live = anc >= 0
            found[live] |= name[anc[live]] == target
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)
        return int(np.sum(found))
