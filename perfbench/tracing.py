"""Runtime spans around rankmax's public functions, installed from outside.

A wrapper replaces every attribute of a loaded `rankmax` module that binds a
traced function (for example both `rankmax.oracle.longest_path_length` and
`rankmax.longest_path_length`), and methods are replaced on their class, so
calls the package makes internally are caught too.  Only public return
values are read.  Nothing is installed outside a `with installed(...)`
block, so untraced runs pay nothing.
"""

from __future__ import annotations

import contextlib
import sys
import time

import workloads

# (module under rankmax, qualified name, span name)
TRACED = (
    ("oracle", "RankOracle.rank_number", "oracle.rank_number"),
    ("oracle", "RankOracle.exists_ranking", "oracle.exists_ranking"),
    ("oracle", "RankOracle.classify_edge", "oracle.classify_edge"),
    ("oracle", "RankOracle.good_edge_set", "oracle.good_edge_set"),
    ("oracle", "RankOracle.enumerate_optimal_rankings", "oracle.enumerate_optimal_rankings"),
    ("oracle", "RankOracle.verify_simultaneous", "oracle.verify_simultaneous"),
    ("oracle", "longest_path_length", "oracle.longest_path_length"),
    ("ranking", "is_valid_ranking", "ranking.is_valid_ranking"),
    ("ranking", "build_family", "ranking.build_family"),
    ("graph", "Graph.add_edges", "graph.Graph.add_edges"),
    ("graph", "Graph.non_edges", "graph.Graph.non_edges"),
    ("construct", "family_good_edges", "construct.family_good_edges"),
    ("construct", "all_levels_good_edges", "construct.all_levels_good_edges"),
    ("verify", "compare_constructive_oracle", "verify.compare_constructive_oracle"),
)


class Tracer:
    """Spans and per-name totals of the traced calls.

    `spans` holds (name, start, end, parent span index or -1, op id);
    `totals[name]` is [calls, self seconds], where self time is the span's
    duration minus the durations of its child spans.
    """

    def __init__(self, cap_exceeded: type[Exception]):
        self.spans: list[tuple] = []
        self.totals = {name: [0, 0.0] for _, _, name in TRACED}
        self.nodes = 0
        self.memo_entries = 0
        self.good = 0
        self.refusals = 0
        self.op = -1
        self._open: list[list] = []  # [span index, child seconds] per open span
        self._cap_exceeded = cap_exceeded

    def wrap(self, name: str, fn):
        total = self.totals[name]

        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._cap_exceeded:
                self.refusals += 1
                raise
            finally:
                end = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                total[0] += 1
                total[1] += end - start - frame[1]
                self.spans[frame[0]] = (name, start, end, parent, self.op)
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, result):
        if name == "oracle.rank_number":
            stats = result[1]
            self.nodes += stats.nodes_expanded
            self.memo_entries = max(self.memo_entries, stats.memo_entries)
        elif name == "oracle.classify_edge":
            self.good += result.is_good


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function of the loaded rankmax for the block."""
    modules = list(workloads.rankmax_modules().values())
    undo = []
    try:
        for module, qualname, name in TRACED:
            owner = sys.modules["rankmax." + module]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, tracer.wrap(name, original))
                continue
            original = getattr(owner, qualname)
            wrapper = tracer.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, attr, original))
                        setattr(m, attr, wrapper)
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
