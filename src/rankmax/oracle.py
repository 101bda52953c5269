"""Exact rank-number computation by exhaustive elimination search.

The rank number of a connected graph equals one plus the minimum, over all
vertices v, of the maximum rank number of the components left by deleting
v; for a disconnected graph it is the maximum over components.  The search
runs that recursion over connected-subset bitmasks with memoization,
pruned by a certified lower bound (a path exhibited inside the component)
and by twins (one refuted vertex refutes every vertex with the same
neighbourhood), and skipped entirely when the label budget covers every
vertex.  Classifying every non-edge searches one non-edge per twin orbit:
swapping two twins of the host is an automorphism, so it carries an added
edge to an equivalent one.  A graph with added edges (one candidate edge,
or a whole edge set checked for simultaneous addition) is searched on an
overlay of the host's engine, which shares the host's work on every
component that contains no added edge; an oracle keeps only the engine of
the host it was last given.  A component that does contain added edges is
bounded by the host's memo from both sides, since rank numbers are monotone
under subgraphs: the host's subgraph on it needing more than the budget
refutes it, and the host's fitting in the budget less one label per shared
endpoint but one accepts it.

Everything here is exact: order caps trigger explicit refusal, never
silent approximation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .construct import EdgeSet
from .graph import Graph, bits, components_masks, edge
from .ranking import FamilySpec, Ranking, is_valid_ranking

DEFAULT_CAP = 20


class CapExceeded(Exception):
    """Raised when a graph is larger than the configured search cap."""


def check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceeded(
            f"graph has {order} vertices, above the exact-search "
            f"cap of {cap}; raise the cap explicitly to proceed")


@dataclass(frozen=True)
class SearchStats:
    """The cost of one call: memo entries it added, nodes it expanded and
    its wall time.  An engine reused from an earlier call keeps its memo,
    so a repeated call reports no new entries or nodes."""

    memo_entries: int
    nodes_expanded: int
    wall_time: float


@dataclass(frozen=True)
class EdgeVerdict:
    """Classification of one candidate edge against a host graph."""

    edge: tuple[int, int]
    base_rank: int
    augmented_rank: int
    verdict: str  # "good" | "forbidden"

    @property
    def is_good(self) -> bool:
        return self.verdict == "good"

    def to_json_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "base": self.base_rank,
            "augmented": self.augmented_rank,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class SimultaneousCheck:
    """Result of checking that adding a whole edge set preserves the rank
    number, with the mode that established it."""

    ok: bool
    mode: str  # "exact" | "certificate"
    detail: str
    base_rank: int | None = None
    union_rank: int | None = None

    def __bool__(self):
        return self.ok


def longest_path_length(g: Graph) -> int:
    """Length (vertex count) of a path exhibited in the graph.

    Greedy depth-first walks from each start vertex, lowest degree first,
    preferring neighbors with the fewest onward options, until a walk covers
    every vertex; exact on paths and cycles (in linear time), best-effort
    elsewhere.  Only ever used as a certified lower bound.
    """
    adj = g.adjacency
    mask = g.members
    best = 1
    for start in sorted(bits(mask), key=lambda v: (adj[v].bit_count(), v)):
        if best == g.n:
            break
        seen = 1 << start
        v = start
        length = 1
        while True:
            options = adj[v] & mask & ~seen
            if not options:
                break
            v = min(bits(options),
                    key=lambda u: ((adj[u] & mask & ~seen).bit_count(), u))
            seen |= 1 << v
            length += 1
        best = max(best, length)
    return best


def _twin_representatives(adj: tuple[int, ...]) -> list[int]:
    """The smallest twin of each vertex (itself if it has none), indexed by
    vertex.  False twins share an open neighbourhood and true twins a closed
    one; no vertex has twins of both kinds, since a false twin of v would be
    adjacent to a true twin of v and so to v."""
    rep = list(range(len(adj)))
    first: dict[int, int] = {}  # open or closed neighbourhood -> first vertex
    for v in range(1, len(adj)):
        for nbhd in (adj[v], adj[v] | 1 << v):
            if nbhd in first:
                rep[v] = first[nbhd]
                break
        else:
            first[adj[v]] = first[adj[v] | 1 << v] = v
    return rep


class _Engine:
    """Search state bound to one adjacency structure.

    `with_edges(pairs)` gives an overlay that searches the host plus those
    edges.  A component holding at most one endpoint of any added edge
    contains no added edge and induces the same subgraph in both, so the
    overlay hands it to the host's memo and lower-bound cache and keeps
    scratch state only for components holding two or more endpoints.  (A
    component can hold one whole added edge and miss an endpoint of
    another, so missing an endpoint is not enough.)

    Such a component is first decided from the host's memo.  The host's
    subgraph on it is a spanning subgraph, so if the host needs more than
    the budget, so does the overlay (this prunes by the host's cached lower
    bounds, so the overlay computes none of its own).  Fresh top labels on
    all but one of its s shared endpoints delete every added edge inside
    it, so if the host fits in budget - s + 1 labels, so does the overlay
    in the budget.  Only components between the two bounds are searched."""

    __slots__ = ("adj", "memo", "lb_cache", "nodes", "host", "ends")

    def __init__(self, adj: tuple[int, ...], host: "_Engine | None" = None,
                 ends: int = 0):
        self.adj = adj
        self.memo: dict[tuple[int, int], bool] = {}
        self.lb_cache: dict[int, int] = {}
        self.nodes = 0
        self.host = host
        self.ends = ends  # mask of every added edge's endpoints; 0 on a host

    def with_edges(self, pairs) -> "_Engine":
        adj = list(self.adj)
        ends = 0
        for u, v in pairs:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            ends |= (1 << u) | (1 << v)
        return _Engine(tuple(adj), self, ends)

    def _bfs_far(self, mask: int, start: int) -> tuple[int, int]:
        adj = self.adj
        seen = frontier = 1 << start
        dist, far = 0, start
        while True:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            nxt &= mask & ~seen
            if not nxt:
                return dist, far
            dist += 1
            seen |= nxt
            frontier = nxt
            far = (nxt & -nxt).bit_length() - 1

    def lower_bound(self, comp: int) -> int:
        """Certified lower bound for a connected component: the rank number
        of a shortest path exhibited by a double BFS sweep."""
        cached = self.lb_cache.get(comp)
        if cached is not None:
            return cached
        size = comp.bit_count()
        if size <= 2:
            lb = size
        else:
            start = (comp & -comp).bit_length() - 1
            _, far = self._bfs_far(comp, start)
            d, _ = self._bfs_far(comp, far)
            lb = (d + 1).bit_length()
        self.lb_cache[comp] = lb
        return lb

    def feasible(self, mask: int, budget: int) -> bool:
        """True iff the subgraph induced by `mask` has a ranking with labels
        at most `budget`.  Memoized under the same key as a component, which
        means the same thing when `mask` is connected."""
        if budget >= mask.bit_count():
            return True
        key = (mask, budget)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = all(
                self.feasible_connected(c, budget)
                for c in components_masks(self.adj, mask))
        return hit

    def feasible_connected(self, comp: int, budget: int) -> bool:
        size = comp.bit_count()
        if budget >= size:
            return True
        if budget <= 0:
            return False
        host = self.host
        if host is not None:
            shared = comp & self.ends
            if shared & (shared - 1) == 0:
                return host.feasible_connected(comp, budget)
        elif self.lower_bound(comp) > budget:
            return False
        key = (comp, budget)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if host is None:
            result = self._split(comp, budget)
        elif not host.feasible(comp, budget):
            result = False  # the host's subgraph on comp spans the overlay's
        elif host.feasible(comp, budget + 1 - shared.bit_count()):
            result = True  # fresh top labels on all shared endpoints but one
        else:
            result = self._split(comp, budget)
        self.memo[key] = result
        return result

    def _split(self, comp: int, budget: int) -> bool:
        """True iff deleting some vertex of the connected `comp` leaves
        components that each fit in `budget - 1` labels."""
        adj = self.adj
        order = sorted(bits(comp),
                       key=lambda v: (-(adj[v] & comp).bit_count(), v))
        refuted: set[int] = set()
        for v in order:
            # A twin of a refuted vertex (same open neighbourhood in comp if
            # non-adjacent, same closed one if adjacent) is refuted too:
            # swapping the two is an automorphism of the component.
            nbrs = adj[v] & comp
            if nbrs in refuted or nbrs | (1 << v) in refuted:
                continue
            self.nodes += 1
            rest = comp & ~(1 << v)
            if all(self.feasible_connected(c, budget - 1)
                   for c in components_masks(adj, rest)):
                return True
            refuted.update((nbrs, nbrs | (1 << v)))
        return False

    def rank(self, mask: int) -> int:
        if mask == 0:
            return 0
        best = 0
        for comp in components_masks(self.adj, mask):
            k = self.lower_bound(comp)
            while not self.feasible_connected(comp, k):
                k += 1
            best = max(best, k)
        return best

    def enumerate_labelings(self, mask: int, budget: int) -> list[dict[int, int]]:
        """All valid labelings of `mask` with labels in 1..budget.

        Per component, the top label either goes to exactly one vertex or is
        unused; both branches recurse one budget lower, guarded by
        feasibility so only completable structures are walked.
        """
        if mask == 0:
            return [{}]
        per_comp: list[list[dict[int, int]]] = []
        for comp in components_masks(self.adj, mask):
            options: list[dict[int, int]] = []
            if self.feasible(comp, budget - 1):
                options.extend(self.enumerate_labelings(comp, budget - 1))
            for v in bits(comp):
                rest = comp & ~(1 << v)
                if self.feasible(rest, budget - 1):
                    for sub in self.enumerate_labelings(rest, budget - 1):
                        assignment = dict(sub)
                        assignment[v] = budget
                        options.append(assignment)
            if not options:
                return []
            per_comp.append(options)
        merged = per_comp[0]
        for options in per_comp[1:]:
            merged = [{**a, **b} for a in merged for b in options]
        return merged


class RankOracle:
    """Ground-truth rank numbers, edge classifications and simultaneous
    checks by exact search.  The oracle keeps one engine, for the adjacency
    it was last given, and searches every graph with added edges on a
    transient overlay of that engine; a new host replaces it."""

    def __init__(self, cap: int = DEFAULT_CAP):
        self.cap = cap
        self._host: _Engine | None = None

    def _engine(self, g: Graph) -> _Engine:
        check_cap(g.n, self.cap)
        if self._host is None or self._host.adj != g.adjacency:
            self._host = _Engine(g.adjacency)
        return self._host

    def rank_number(self, g: Graph) -> tuple[int, SearchStats]:
        """Exact rank number, with search statistics."""
        eng = self._engine(g)
        nodes0, memo0 = eng.nodes, len(eng.memo)
        t0 = time.perf_counter()
        value = eng.rank(g.members)
        stats = SearchStats(memo_entries=len(eng.memo) - memo0,
                            nodes_expanded=eng.nodes - nodes0,
                            wall_time=time.perf_counter() - t0)
        return value, stats

    def exists_ranking(self, g: Graph, k: int) -> bool:
        """True iff the graph has a ranking with labels at most k."""
        return self._engine(g).feasible(g.members, k)

    def classify_edge(self, g: Graph, e: tuple[int, int],
                      base_rank: int | None = None) -> EdgeVerdict:
        """Good/forbidden verdict for one candidate edge.

        A single added edge raises the rank number by at most one (give the
        new edge's endpoint a fresh top label above an optimal ranking), so
        the augmented rank is decided by one budgeted search at the base
        rank.
        """
        u, v = edge(*e)
        if g.has_edge(u, v) or not (g.has_vertex(u) and g.has_vertex(v)):
            raise ValueError(f"({u},{v}) is not a non-edge of the host graph")
        if base_rank is None:
            base_rank, _ = self.rank_number(g)
        good = self._engine(g).with_edges([(u, v)]).feasible(g.members, base_rank)
        return EdgeVerdict(edge=(u, v), base_rank=base_rank,
                           augmented_rank=base_rank if good else base_rank + 1,
                           verdict="good" if good else "forbidden")

    def good_edge_set(self, g: Graph, family: FamilySpec | None = None
                      ) -> tuple[EdgeSet, list[EdgeVerdict]]:
        """Classify every non-edge; returns the good ones plus all verdicts,
        in `g.non_edges()` order.

        One non-edge per pair of twin classes is searched, and the others
        copy its verdict.  Swapping two twins fixes the host and maps xw to
        x'w, so G + xw and G + x'w are isomorphic; adjacency between two
        classes is uniform, and the pairs inside one class, or across two,
        form one orbit under such swaps.
        """
        base, _ = self.rank_number(g)
        rep = _twin_representatives(g.adjacency)
        searched: dict[tuple[int, int], EdgeVerdict] = {}
        verdicts = []
        for u, v in g.non_edges():
            key = (min(rep[u], rep[v]), max(rep[u], rep[v]))
            hit = searched.get(key)
            if hit is None:
                hit = searched[key] = self.classify_edge(g, (u, v), base)
            else:
                hit = replace(hit, edge=(u, v))
            verdicts.append(hit)
        good = tuple(v.edge for v in verdicts if v.is_good)
        return EdgeSet(family, good, ("oracle",) * len(good)), verdicts

    def verify_simultaneous(self, g: Graph, added, witness: Ranking | None = None
                            ) -> SimultaneousCheck:
        """Check that adding the whole edge set keeps the rank number.

        Within the cap this is an exact host rank plus one search of the
        union budgeted at it, on an overlay of the host's engine: adding
        edges never lowers the rank number, so that search decides.  Only
        on a reject is the union's rank searched too, on the same overlay,
        and the answer is two-sided.  Beyond the cap, a certificate is
        assembled instead: a valid witness ranking on the union bounds the
        union's rank from above, and a path exhibited in the host bounds the
        host's rank from below (a path on m vertices has rank number
        bit_length(m), matched against exact search for every length within
        the cap).  Equality follows when the two bounds meet; a
        certificate-mode failure means "not certified", not "disproved".
        """
        added = [edge(*e) for e in added]
        for u, v in added:
            if g.has_edge(u, v):
                raise ValueError(f"({u},{v}) is already an edge of the host graph")
        union = g.add_edges(added)
        if g.n <= self.cap:
            base, _ = self.rank_number(g)
            overlay = self._engine(g).with_edges(added)
            fits = overlay.feasible(g.members, base)
            aug = base if fits else overlay.rank(g.members)
            return SimultaneousCheck(
                ok=aug == base, mode="exact", base_rank=base, union_rank=aug,
                detail=f"exact search: host rank {base}, union rank {aug}")
        if witness is None:
            return SimultaneousCheck(
                ok=False, mode="certificate",
                detail="beyond the exact-search cap a witness ranking is required")
        if not is_valid_ranking(union, witness):
            return SimultaneousCheck(
                ok=False, mode="certificate",
                detail="witness ranking is not valid on the augmented graph")
        top = max(witness.label(v) for v in union.vertices())
        path_len = longest_path_length(g)
        base = path_len.bit_length()
        ok = base >= top
        return SimultaneousCheck(
            ok=ok, mode="certificate", base_rank=base, union_rank=top if ok else None,
            detail=(f"witness ranking valid on the union with {top} labels; "
                    f"host rank >= {base} (path on {path_len} vertices "
                    "exhibited in the host)"))

    def enumerate_optimal_rankings(self, g: Graph) -> list[Ranking]:
        """All valid rankings that use labels 1..rank_number(g), sorted."""
        value, _ = self.rank_number(g)
        assignments = self._engine(g).enumerate_labelings(g.members, value)
        rankings = sorted(tuple(a[v] for v in range(1, g.n + 1)) for a in assignments)
        return [Ranking(labels) for labels in rankings]
