"""Exact rank-number computation by exhaustive elimination search.

The rank number of a connected graph equals one plus the minimum, over all
vertices v, of the maximum rank number of the components left by deleting
v; for a disconnected graph it is the maximum over components.  The search
runs that recursion over connected-subset bitmasks with memoization,
pruned by a certified lower bound (a path exhibited inside the component),
by domination (v is never tried on top when a neighbour's closed
neighbourhood holds v's; of true twins only the least is tried) and by
false twins (one refuted vertex refutes every vertex with the same open
neighbourhood), and skipped entirely when the label budget covers every
vertex.  A rank is searched downward from the order, after one try at the
lower bound, so each component costs one refuting search, at its rank
less one, and not one per budget between the two.  Classifying every
non-edge searches one non-edge per orbit of the host's automorphisms
(found on its twin quotient, see `_orbits`), since an automorphism carries
an added edge to an equivalent one.  A graph with
added edges (one candidate edge, or a whole edge set checked for
simultaneous addition) is searched on an overlay of the host's engine,
which shares the host's work on every component that contains no added
edge; an oracle keeps only the engine of the host it was last given.  A
component that does contain added edges is first checked in the host's
memo, since rank numbers are monotone under subgraphs: the host's subgraph
on it needing more than the budget refutes it.  Otherwise it is searched.

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


def _walk(adj: tuple[int, ...], mask: int, start: int) -> int:
    """Vertex count of the greedy walk inside `mask` from `start`: each step
    goes to the unvisited neighbour with the fewest unvisited neighbours,
    ties to the smaller vertex.  The walk is a path, so a path on that many
    vertices, of rank number its bit length, lies inside `mask`."""
    left = mask & ~(1 << start)
    v = start
    length = 1
    while options := adj[v] & left:
        if options & (options - 1):
            v = min(bits(options), key=lambda u: (adj[u] & left).bit_count())
        else:
            v = options.bit_length() - 1
        left ^= 1 << v
        length += 1
    return length


def longest_path_length(g: Graph) -> int:
    """Length (vertex count) of a path exhibited in the graph: the longest
    greedy walk (`_walk`), trying starts lowest degree first until a walk
    covers every vertex.  Exact on paths and cycles, in linear time, and
    best-effort elsewhere; only ever used as a certified lower bound."""
    adj = g.adjacency
    mask = g.members
    best = 1
    for start in sorted(bits(mask), key=lambda v: adj[v].bit_count()):
        if best == g.n:
            break
        best = max(best, _walk(adj, mask, start))
    return best


def _non_edges(g: Graph, pairs) -> list[tuple[int, int]]:
    """The pairs normalized; raises unless each is a non-edge of `g`."""
    added = [edge(*e) for e in pairs]
    for u, v in added:
        if not 0 < u < v <= g.n or g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not a non-edge of the host graph")
    return added


class _Engine:
    """Search state bound to one adjacency structure.

    `with_edges(pairs)` gives an overlay that searches the host plus those
    edges.  A component holding at most one endpoint of any added edge
    contains no added edge and induces the same subgraph in both, so the
    overlay hands it to the host's memo and lower-bound cache and keeps
    scratch state only for components holding two or more endpoints.  (A
    component can hold one whole added edge and miss an endpoint of
    another, so missing an endpoint is not enough.)

    Such a component is first checked in the host's memo, at the same
    budget.  The host's subgraph on it is a spanning subgraph, so if the
    host needs more than the budget, so does the overlay (this prunes by
    the host's cached lower bounds; the overlay walks its own components
    for a bound only in `rank`, on a reject in `verify_simultaneous`).
    Only the components the host fits are searched on the overlay.
    The host is asked through `feasible`, which splits a mask into its
    host components, since the host's subgraph need not be connected.
    `lb_cache` keeps each component's walk bound, met at several budgets;
    without it a benchmark pass ran 11-30% slower."""

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

    def lower_bound(self, comp: int) -> int:
        """Certified lower bound for a connected component: the rank number
        of the greedy walk (`_walk`) from one vertex of least degree in it.
        Exact on paths and cycles; one start only, since trying every start
        costs a full walk per vertex on a component that no walk covers."""
        lb = self.lb_cache.get(comp)
        if lb is None:
            adj = self.adj
            start = min(bits(comp), key=lambda v: (adj[v] & comp).bit_count())
            lb = self.lb_cache[comp] = _walk(adj, comp, start).bit_length()
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
        """True iff deleting some vertex of the connected `comp` leaves
        components that each fit in `budget - 1` labels."""
        size = comp.bit_count()
        if budget >= size:
            return True
        if budget <= 0:
            return False
        host = self.host
        if host is None:
            if budget < size.bit_length() and self.lower_bound(comp) > budget:
                return False  # the bound is at most size.bit_length()
        else:
            shared = comp & self.ends
            fits = host.feasible(comp, budget)  # spans the overlay's subgraph
            if not fits or shared & (shared - 1) == 0:
                return fits  # at most one endpoint: the same subgraph
        key = (comp, budget)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        adj = self.adj
        order = sorted(bits(comp), key=lambda v: (adj[v] & comp).bit_count(),
                       reverse=True)
        refuted: set[int] = set()
        for v in order:
            # A false twin of a refuted vertex (same open neighbourhood in
            # comp) is refuted too: swapping the two is an automorphism.
            nbrs = adj[v] & comp
            if nbrs in refuted:
                continue
            # Domination: when a neighbour w has N[v] ⊆ N[w] in comp,
            # swapping v and w turns a tree with v on top into one of the
            # same height with w on top, so v is skipped.  Of true twins
            # (equal closed neighbourhoods) only the least is tried.
            bit = 1 << v
            closed = nbrs | bit
            ws = nbrs
            while ws:
                b = ws & -ws
                wc = adj[b.bit_length() - 1] & comp | b
                if closed & ~wc == 0 and (wc != closed or b < bit):
                    break
                ws ^= b
            if ws:
                continue
            self.nodes += 1
            # The largest component first: it is the likeliest to fail.
            comps = components_masks(adj, comp ^ bit)
            if len(comps) > 1:
                comps.sort(key=int.bit_count, reverse=True)
            # A loop, not all(...): one frame per level of the search.
            for c in comps:
                if not self.feasible_connected(c, budget - 1):
                    break
            else:
                self.memo[key] = True
                return True
            refuted.add(nbrs)
        self.memo[key] = False
        return False

    def rank(self, mask: int) -> int:
        """Rank number of the subgraph induced by `mask`.

        Each component is searched at its path lower bound first, which
        settles it when the bound is tight.  Otherwise its rank is searched
        downward from its order: a search at a budget of at least the rank
        stops at the first split that works, so the component costs one
        refuting search, at rank - 1, and not one per budget below it."""
        best = 0
        for comp in components_masks(self.adj, mask):
            lb = self.lower_bound(comp)
            k = lb
            if not self.feasible_connected(comp, lb):
                k = comp.bit_count()
                while k - 1 > lb and self.feasible_connected(comp, k - 1):
                    k -= 1
            best = max(best, k)
        return best

    def enumerate_labelings(self, mask: int, budget: int) -> list[dict[int, int]]:
        """All valid labelings of `mask` with labels in 1..budget.  `mask`
        must be feasible at `budget`, so every component has an option.

        Per component, the top label either goes to exactly one vertex or is
        unused; both branches recurse one budget lower, guarded by
        feasibility so only completable structures are walked.
        """
        merged: list[dict[int, int]] = [{}]
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

    def classify_edge(self, g: Graph, e: tuple[int, int]) -> EdgeVerdict:
        """Good/forbidden verdict for one candidate edge.

        A single added edge raises the rank number by at most one (give the
        new edge's endpoint a fresh top label above an optimal ranking), so
        the augmented rank is decided by one budgeted search at the host's
        rank, which the oracle finds itself (a memo hit after the first
        call on a host).
        """
        [(u, v)] = _non_edges(g, [e])
        eng = self._engine(g)
        base = eng.rank(g.members)
        good = eng.with_edges([(u, v)]).feasible(g.members, base)
        return EdgeVerdict(edge=(u, v), base_rank=base,
                           augmented_rank=base if good else base + 1,
                           verdict="good" if good else "forbidden")

    def good_edge_set(self, g: Graph, family: FamilySpec | None = None
                      ) -> tuple[EdgeSet, list[EdgeVerdict]]:
        """Classify every non-edge; returns the good ones plus all verdicts,
        in `g.non_edges()` order.

        One non-edge per orbit is searched, and the others copy its
        verdict: an automorphism of the host that maps xy to x'y' makes
        G + xy and G + x'y' isomorphic.  The orbits are those of the group
        generated by swaps of twins and by the lifts of the automorphisms
        of the twin quotient (one vertex per twin class, coloured by class
        size and twin kind).  A colour-preserving automorphism of the
        quotient lifts to the host, because two classes of one colour are
        interchangeable inside themselves and the edges between classes
        are uniform; so every orbit found is inside an orbit of Aut(G),
        and a generator the bounded search misses only splits an orbit,
        costing one more search.
        """
        # Imported here, on first use: only classification needs the orbit
        # finder, so rank searches and certificates never compile it.
        from ._orbits import non_edge_orbits

        check_cap(g.n, self.cap)  # refuse before finding orbits
        cls, orbit = non_edge_orbits(g.adjacency)
        searched: dict[tuple[int, int], EdgeVerdict] = {}
        verdicts = []
        for u, v in g.non_edges():
            a, b = cls[u], cls[v]
            key = orbit[(a, b) if a <= b else (b, a)]
            hit = searched.get(key)
            if hit is None:
                hit = searched[key] = self.classify_edge(g, (u, v))
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
        added = _non_edges(g, added)
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
        union = g.add_edges(added)
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
