"""Simple undirected graphs on the vertices 1..n, with bitmask vertex sets.

Vertex subsets are plain ints: bit v set means vertex v is in the set
(bit 0 is never used).  That keeps subsets hashable and cheap, which the
exhaustive search relies on; Python ints are unbounded, so the graph order
is not limited by a machine word.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def full_mask(n: int) -> int:
    return (1 << (n + 1)) - 2


def components_masks(adj: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the subgraph induced by `mask`, as bitmasks.

    Deterministic order: by smallest contained vertex.
    """
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


class Graph:
    """Immutable simple undirected graph on the vertices 1..n.

    `members` is the bitmask of 1..n.  Vertex subsets, such as the
    components of an induced subgraph, are bitmasks passed to
    `connected_components`, not graphs of their own.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        self.n = n
        self.members = full_mask(n)
        adj = [0] * (n + 1)
        es = set()
        for u, v in edges:
            u, v = edge(u, v)
            if u < 1 or v > n:
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            if (u, v) not in es:
                es.add((u, v))
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        self._adj = tuple(adj)
        self._edges = tuple(sorted(es))

    # -- basic views ---------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks, indexed by vertex id."""
        return self._adj

    def vertices(self) -> list[int]:
        return list(range(1, self.n + 1))

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_vertex(self, v: int) -> bool:
        return 0 < v <= self.n

    def has_edge(self, u: int, v: int) -> bool:
        return 0 < u <= self.n and 0 < v <= self.n and (self._adj[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self._adj[v]))

    # -- derived graphs ------------------------------------------------

    def add_edges(self, es: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges added; duplicates of existing edges
        are ignored."""
        new = list(self._edges)
        for u, v in es:
            u, v = edge(u, v)
            if not self.has_vertex(u) or not self.has_vertex(v):
                raise ValueError(f"edge ({u},{v}) touches a vertex outside the graph")
            if not self.has_edge(u, v):
                new.append((u, v))
        return Graph(self.n, new)

    def non_edges(self) -> list[tuple[int, int]]:
        """All vertex pairs of the graph that are not edges, sorted."""
        vs = self.vertices()
        out = []
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if not self.has_edge(u, v):
                    out.append((u, v))
        return out

    def connected_components(self, s: int | None = None) -> list[int]:
        """Component bitmasks of the subgraph induced by the vertex mask `s`
        (default: the whole graph), ordered by smallest vertex."""
        smask = self.members if s is None else s & self.members
        return components_masks(self._adj, smask)

    # -- serialization and identity -------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self._edges]}

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.n == other.n and self._edges == other._edges
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"
