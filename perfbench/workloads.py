"""The benchmark's workloads: the hosts each one runs, the op run on a host,
and the reference every answer is checked against.

The references are the closed forms of the four families (written out here,
not read from the package under test), the documented per-edge
counterexamples, and digests of every classified host's verdict list
recorded in `reference.json`.

Run this file directly to record `reference.json` again from the package at
the current commit.  Only do that when a change is meant to alter verdicts.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def rankmax_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "rankmax" or n.startswith("rankmax.")}


def import_rankmax():
    """Import `rankmax` afresh from the checkout's `src` directory.

    Any loaded copy is dropped first, so each call pays the whole import.
    Raises ImportError when the checkout holds no rankmax sources, so that
    an installed copy elsewhere is never measured by mistake.
    """
    if not (SRC / "rankmax" / "__init__.py").is_file():
        raise ImportError(f"no rankmax sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in rankmax_modules():
        del sys.modules[name]
    rm = importlib.import_module("rankmax")
    importlib.import_module("rankmax.verify")
    if Path(rm.__file__).resolve().parent != SRC / "rankmax":
        raise ImportError(f"rankmax was imported from {rm.__file__}, not {SRC}")
    return rm


# -- inputs -----------------------------------------------------------------

def partitions(total: int, most: int | None = None) -> list[tuple[int, ...]]:
    """Descending integer partitions of `total` with parts at most `most`."""
    if total == 0:
        return [()]
    most = total if most is None else most
    out = []
    for first in range(min(total, most), 0, -1):
        out.extend((first,) + rest for rest in partitions(total - first, first))
    return out


def profiles(totals) -> list[tuple[int, ...]]:
    """Multipartite part profiles (at least two parts) of the given sizes."""
    return [p for t in totals for p in partitions(t) if len(p) >= 2]


def spec_key(kind: str, value) -> str:
    if kind == "multipartite":
        return "multipartite-" + "-".join(map(str, value))
    return f"{kind}-{'n' if kind == 'joined' else 'k'}{value}"


def make_spec(rm, kind: str, value):
    if kind == "multipartite":
        return rm.FamilySpec.multipartite(*value)
    return getattr(rm.FamilySpec, kind)(value)


# -- closed forms used as references --------------------------------------------

def rank_value(kind: str, value) -> int:
    """Rank number of a family graph: k, k + 1, N - m_1 + 1 or n + 1."""
    if kind == "path":
        return value
    if kind == "cycle":
        return value + 1
    if kind == "multipartite":
        return sum(value) - max(value) + 1
    return value + 1


def good_edge_count(kind: str, k: int) -> int:
    """Size of the simultaneously addable edge set of a path or cycle."""
    return (k - 3) * 2 ** k + 4 if kind == "path" else (k - 2) * 2 ** k + 1


def standard_path_labels(k: int) -> tuple[int, ...]:
    """The unique optimal ranking of the path on 2^k - 1 vertices."""
    return tuple((m & -m).bit_length() for m in range(1, 2 ** k))


def per_edge_is_construction(kind: str, value) -> bool:
    """True where the per-edge good set equals the construction: paths and
    multipartite profiles with a unique largest part.  Cycles, joined
    cliques and tied profiles are the documented counterexamples, where
    every non-edge is individually addable."""
    if kind == "path":
        return True
    return kind == "multipartite" and value[0] > value[1]


def verdict_digest(verdicts) -> str:
    blob = json.dumps([v.to_json_dict() for v in verdicts], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- workloads --------------------------------------------------------------------

@dataclass
class Host:
    key: str
    kind: str
    value: object
    spec: object
    graph: object
    expect: dict


class Workload:
    """A named list of hosts and the op run on each of them."""

    name = ""
    inputs: list[tuple[str, object]] = []

    def build(self, rm) -> list[tuple[str, object, object]]:
        """(key, spec, graph) for every host; this is the timed set-up."""
        out = []
        for kind, value in self.inputs:
            spec = make_spec(rm, kind, value)
            out.append((spec_key(kind, value), spec, rm.build_family(spec)))
        return out

    def hosts(self, rm, built, reference: dict) -> list[Host]:
        return [Host(key, kind, value, spec, graph,
                     self.expect(kind, value, key, reference))
                for (kind, value), (key, spec, graph) in zip(self.inputs, built)]

    def expect(self, kind, value, key, reference) -> dict:
        return {"rank": rank_value(kind, value)}

    def op(self, rm, host):
        raise NotImplementedError

    def check(self, rm, host, answer) -> str | None:
        """None when the answer matches the reference, else what differs."""
        raise NotImplementedError

    def counts(self, answer) -> dict:
        """Machine-independent work counts read from the op's public answer.

        A run sums each count over its ops, except that it keeps the largest
        value of a count whose name starts with `max_`."""
        return {}


class Classify(Workload):
    """Per-edge classification of every non-edge, the exact simultaneous
    check of the construction and, optionally, optimal-ranking enumeration."""

    enumerate_rankings = True

    def expect(self, kind, value, key, reference):
        out = {"rank": rank_value(kind, value),
               "per_edge_is_construction": per_edge_is_construction(kind, value),
               "verdicts_sha256": reference["verdicts_sha256"].get(key)}
        if self.enumerate_rankings and kind == "path":
            out["rankings"] = [standard_path_labels(value)]
        if self.enumerate_rankings and kind == "cycle":
            out["ranking_count"] = 2 ** value
        return out

    def op(self, rm, host):
        oracle = rm.RankOracle()
        diff = rm.verify.compare_constructive_oracle(host.spec, oracle)
        sim = oracle.verify_simultaneous(host.graph, diff["constructed"].edges)
        rankings = (oracle.enumerate_optimal_rankings(host.graph)
                    if self.enumerate_rankings else None)
        return diff, sim, rankings

    def check(self, rm, host, answer):
        diff, sim, rankings = answer
        want = host.expect
        verdicts = diff["verdicts"]
        if diff["constructed_only"]:
            return f"constructed edges the oracle forbids: {diff['constructed_only']}"
        if want["per_edge_is_construction"]:
            if not diff["match"]:
                return f"oracle-only good edges: {diff['oracle_only']}"
            if host.kind == "multipartite":
                forbidden = {v.edge for v in verdicts if not v.is_good}
                if forbidden != rm.multipartite_forbidden_edges(host.spec).edge_set():
                    return "forbidden set differs from the largest part's pairs"
        elif not all(v.is_good for v in verdicts):
            return "a non-edge of a documented counterexample host is forbidden"
        if not (sim.ok and sim.mode == "exact" and sim.base_rank == want["rank"]):
            return f"simultaneous check: {sim.mode} ok={sim.ok} {sim.detail}"
        if "rankings" in want and [r.labels for r in rankings] != want["rankings"]:
            return f"{len(rankings)} optimal rankings, want only the standard one"
        if "ranking_count" in want and len(rankings) != want["ranking_count"]:
            return f"{len(rankings)} optimal rankings, want {want['ranking_count']}"
        if verdict_digest(verdicts) != want["verdicts_sha256"]:
            return "verdict list differs from the recorded reference"
        return None

    def counts(self, answer):
        diff, _, rankings = answer
        return {"candidates": len(diff["verdicts"]),
                "good": len(diff["oracle"]),
                "rankings": len(rankings) if rankings is not None else 0}


class ClassifySparse(Classify):
    name = "classify_sparse"
    inputs = [("path", 3), ("path", 4), ("cycle", 3), ("cycle", 4)]


class ClassifyDense(Classify):
    name = "classify_dense"
    inputs = ([("joined", n) for n in range(2, 7)]
              + [("multipartite", p) for p in profiles(range(2, 10))])
    # Dense hosts have factorially many optimal rankings (K_9 has 9!, two
    # joined 6-cliques over a million), so listing them would swamp the
    # searches this workload is meant to measure.
    enumerate_rankings = False


class RankDense(Workload):
    name = "rank_dense"
    inputs = ([("multipartite", p) for p in profiles((11, 12))]
              + [("joined", n) for n in range(6, 9)])

    def op(self, rm, host):
        return rm.RankOracle().rank_number(host.graph)

    def check(self, rm, host, answer):
        value, _ = answer
        if value != host.expect["rank"]:
            return f"rank {value}, want {host.expect['rank']}"
        return None

    def counts(self, answer):
        _, stats = answer
        return {"nodes": stats.nodes_expanded, "max_memo_entries": stats.memo_entries}


class Certificate(Workload):
    name = "certificate"
    inputs = [("path", 5), ("path", 6), ("cycle", 5)]

    def expect(self, kind, value, key, reference):
        return {"rank": rank_value(kind, value),
                "good_edges": good_edge_count(kind, value)}

    def op(self, rm, host):
        construction = rm.family_good_edges(host.spec)
        levels = (rm.all_levels_good_edges(host.value)
                  if host.kind == "path" else None)
        sim = rm.RankOracle().verify_simultaneous(
            host.graph, construction.edges, witness=rm.family_ranking(host.spec))
        return construction, levels, sim

    def check(self, rm, host, answer):
        construction, levels, sim = answer
        if len(construction) != host.expect["good_edges"]:
            return f"{len(construction)} constructed edges, want {host.expect['good_edges']}"
        if levels is not None and levels.edges != construction.edges:
            return "level union differs from the center-block construction"
        if not (sim.ok and sim.mode == "certificate" and sim.base_rank == host.expect["rank"]):
            return f"certificate: {sim.mode} ok={sim.ok} {sim.detail}"
        return None

    def counts(self, answer):
        construction, _, _ = answer
        return {"edges_certified": len(construction)}


WORKLOADS = {w.name: w for w in (ClassifySparse(), ClassifyDense(), RankDense(),
                                 Certificate())}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def record_reference() -> dict:
    """Verdict digests of every classified host, from the package as it is."""
    rm = import_rankmax()
    digests = {}
    for w in WORKLOADS.values():
        if isinstance(w, Classify):
            for key, spec, _ in w.build(rm):
                _, verdicts = rm.RankOracle().good_edge_set(rm.build_family(spec), spec)
                digests[key] = verdict_digest(verdicts)
    return {"verdicts_sha256": digests}


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(record_reference(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
