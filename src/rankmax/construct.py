"""Closed-form good-edge constructions and edge counts for the four families.

The path construction is organized around "centers": vertices whose
standard-ranking label is at least 3, i.e. positions divisible by 4.  A
center c with lowest set bit 2^j dominates the open block
(c - 2^j, c + 2^j); joining c to any non-neighbor inside its block keeps
the standard ranking valid, and those are exactly the addable edges.

Those blocks are the closure of the standard ranking's elimination forest:
`closure_edges` walks the levels of any valid ranking on any graph and
joins each level component's top-labelled vertex to the rest of it.

`family_good_edges(spec)` is the one construction entry and the source of
truth: one constructed set per family.  `mu_value(spec)` is the one count
entry, the size of that set in closed form.  `all_levels_good_edges` (the
closure of the standard path ranking) is a cross-check that must agree
with it.  `published_readings` is an audit: the published procedure read
verbatim, which misses addable edges (see the CLI's --strict-paper mode).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, bits, edge
from .ranking import (FamilySpec, Ranking, _level_walk, build_family,
                      family_ranking, part_ranges, position_label)

@dataclass(frozen=True)
class EdgeSet:
    """A sorted, duplicate-free set of candidate edges with provenance tags.

    `tags[i]` records which construction clause produced `edges[i]`.
    """

    family: FamilySpec | None
    edges: tuple[tuple[int, int], ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.tags):
            raise ValueError("one tag per edge required")
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError("edges must be sorted and duplicate-free")

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __contains__(self, e):
        e = tuple(sorted(e))  # a pair is unordered, as in Graph.has_edge
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.to_json_dict() if self.family else None,
            "edges": [list(e) for e in self.edges],
            "clauses": list(self.tags),
        }


def _make_edge_set(family: FamilySpec | None,
                   tagged: dict[tuple[int, int], str]) -> EdgeSet:
    es = sorted(tagged)
    return EdgeSet(family, tuple(es), tuple(tagged[e] for e in es))


def _next_center(m: int, s: int) -> int:
    """Offset m+1 + sum of 2^i over the zero bits of odd m at positions 1..s.

    Equals the smallest multiple of 2^(s+1) above m: the nearest position to
    the right of m whose standard-ranking label exceeds s + 1.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("odd positive m required")
    t = m.bit_length() - 1
    if not 1 <= s <= t - 1:
        raise ValueError(f"s must be in 1..{t - 1} for m={m}")
    return m + 1 + sum((1 - (m >> i & 1)) * 2 ** i for i in range(1, s + 1))


def _printed_targets(m: int, k: int, l_min: int) -> dict[int, str]:
    """The three published clauses, applied verbatim; returns n -> clause."""
    peak = 2 ** k - 1
    t = m.bit_length() - 1
    j = position_label(m) - 1
    l = ((m >> j) - 1) // 2
    res: dict[int, str] = {}
    if m % 2 == 1:
        w = t + 1
        while 2 ** w <= peak:
            res.setdefault(2 ** w, "1")
            w += 1
        for s in range(1, t):
            n = _next_center(m, s)
            if n <= peak:
                res.setdefault(n, "1")
    if l >= l_min:
        for n in range(m + 2, min(2 ** j * (2 * l + 2) - 1, peak) + 1):
            res.setdefault(n, "2")
    w = (2 ** j * (2 * l + 2) - 1).bit_length()
    while 2 ** w <= peak:
        res.setdefault(2 ** w, "3")
        w += 1
    return {n: c for n, c in res.items() if m + 2 <= n <= peak}


def closure_edges(g: Graph, ranking: Ranking, below: int | None = None) -> EdgeSet:
    """Edges that the closure of the ranking's elimination forest adds to g.

    One walk over the ranking's levels: for each label c, each component of
    the vertices labelled <= c holds a unique vertex labelled c, its top,
    which is joined to every non-neighbor in the component.  Tops labelled
    `below` or higher add nothing.  A component with two vertices labelled
    c means the ranking is invalid, and raises ValueError.
    """
    tagged: dict[tuple[int, int], str] = {}
    for comp, tops in _level_walk(g, ranking):
        top = tops.bit_length() - 1
        if tops & (tops - 1):
            raise ValueError(f"no unique top label in the component of vertex {top}")
        if below is None or ranking.label(top) < below:
            tagged.update((edge(top, w), f"top:{top}")
                          for w in bits(comp & ~tops & ~g.adjacency[top]))
    return _make_edge_set(None, tagged)


def all_levels_good_edges(k: int) -> EdgeSet:
    """The closure of the standard path ranking: a cross-check that builds
    `family_good_edges(FamilySpec.path(k))` from the ranking."""
    spec = FamilySpec.path(k)
    return closure_edges(build_family(spec), family_ranking(spec))


def _with_hub_chords(path_part: EdgeSet, k: int) -> EdgeSet:
    tagged = dict(zip(path_part.edges, path_part.tags))
    hub = 2 ** k
    for i in range(2, hub - 1):
        tagged[edge(i, hub)] = "hub"
    return _make_edge_set(FamilySpec.cycle(k), tagged)


def multipartite_forbidden_edges(spec: FamilySpec) -> EdgeSet:
    """Intra-part pairs of the designated largest part: the non-edges that
    break `family_ranking`, and each raises the rank number once
    `family_good_edges(spec)` has been added.  On its own such a pair is
    forbidden only when the largest part is unique."""
    rng = part_ranges(spec)[0]
    tagged = {edge(u, v): "part1" for u, v in combinations(rng, 2)}
    return _make_edge_set(spec, tagged)


def _check_covered(spec: FamilySpec) -> None:
    """Refuse the paths and cycles below k = 3, which no construction
    covers; `FamilySpec` already refuses the other families' small sizes."""
    if spec.kind in ("path", "cycle") and spec.k < 3:
        raise ValueError("k >= 3 required")


def family_good_edges(spec: FamilySpec) -> EdgeSet:
    """The constructed good-edge set of the family: the source of truth.

    Each set is exactly the non-edges that keep `family_ranking` valid, so
    all of them can be added at once; `mu_value(spec)` is its size.

    - Path on 2^k - 1 vertices: walk the centers and emit each center's
      block.  This is also the per-edge good set.
    - Cycle on 2^k vertices: the path construction plus every chord from
      the top vertex 2^k except to its two neighbors.  The per-edge good
      set is larger: every single chord keeps the rank number, because the
      top label can move onto one of its endpoints.
    - Complete multipartite: the intra-part pairs of every part after the
      designated largest one.  With a unique largest part they are also
      the per-edge good set; with a tied largest part every non-edge is
      individually good, because the all-ones block can move to the other
      largest part.
    - Two joined n-cliques: the top-labeled vertex of each clique joined to
      every vertex of the other clique, minus the existing join edge.  The
      per-edge good set is larger: every single cross pair keeps the rank
      number, because a fresh top label fits on its endpoint.

    Paths and cycles below k = 3 have no construction: ValueError.
    """
    _check_covered(spec)
    tagged: dict[tuple[int, int], str] = {}
    if spec.kind in ("path", "cycle"):
        k = spec.k
        peak = 2 ** k - 1
        for c in range(4, peak + 1, 4):
            r = c & -c
            for x in range(max(1, c - r + 1), min(peak, c + r - 1) + 1):
                if abs(x - c) >= 2:
                    side = "L" if x < c else "R"
                    tagged[edge(x, c)] = f"block:{c}{side}"
        path_part = _make_edge_set(FamilySpec.path(k), tagged)
        if spec.kind == "cycle":
            return _with_hub_chords(path_part, k)
        return path_part
    if spec.kind == "multipartite":
        for i, rng in enumerate(part_ranges(spec)[1:], start=2):
            tagged.update((edge(u, v), f"part{i}")
                          for u, v in combinations(rng, 2))
    else:
        n = spec.n
        w_top, v_top = n, 2 * n
        for i in range(1, n + 1):
            tagged[edge(w_top, n + i)] = "top-w"
        for i in range(2, n + 1):
            e = edge(v_top, i)
            tagged[e] = "top-w,top-v" if e in tagged else "top-v"
    return _make_edge_set(spec, tagged)


def published_readings(spec: FamilySpec) -> dict[str, EdgeSet]:
    """Audit: the published procedure for a path or cycle, read verbatim.

    "printed" applies its three clauses from the smaller endpoint of each
    edge, the interior-run clause for every run index l >= 0; "literal"
    restricts that clause to l > 0 as printed; for a cycle both also get
    the hub chords.  "level_union" is the path's level union stopped at
    level k: the closure of the standard path ranking without the stars
    of tops labelled k or more.  Each misses addable edges of
    `family_good_edges`.
    """
    if spec.kind not in ("path", "cycle"):
        raise ValueError("the published procedure covers paths and cycles")
    k = spec.k
    path = FamilySpec.path(k)
    readings = {"level_union": closure_edges(
        build_family(path), family_ranking(path), below=k)}
    for name, l_min in (("printed", 0), ("literal", 1)):
        tagged = {edge(m, n): f"clause:{clause}"
                  for m in range(1, 2 ** k)
                  for n, clause in _printed_targets(m, k, l_min).items()}
        path_part = _make_edge_set(FamilySpec.path(k), tagged)
        readings[name] = (_with_hub_chords(path_part, k)
                          if spec.kind == "cycle" else path_part)
    return readings


# -- closed-form counts -------------------------------------------------

def mu_path_recurrence(k: int) -> int:
    """The path's count by the doubling recurrence a_k = 2*a_{k-1} + 2^k - 4,
    anchored at a_3 = 4 (the exhaustively verified count for 7 vertices)."""
    if k < 3:
        raise ValueError("k >= 3 required")
    a = 4
    for i in range(4, k + 1):
        a = 2 * a + 2 ** i - 4
    return a


def mu_value(spec: FamilySpec) -> int:
    """The size of `family_good_edges(spec)` in closed form, without
    building the set: (k-3)*2^k + 4 for the path, (k-2)*2^k + 1 for the
    cycle, the sum of m(m-1)/2 over the parts after the largest for a
    complete multipartite graph, and 2(n-1) for two joined n-cliques."""
    _check_covered(spec)
    if spec.kind == "path":
        return (spec.k - 3) * 2 ** spec.k + 4
    if spec.kind == "cycle":
        return (spec.k - 2) * 2 ** spec.k + 1
    if spec.kind == "multipartite":
        return sum(m * (m - 1) // 2 for m in spec.parts[1:])
    return 2 * (spec.n - 1)
