"""Simple undirected graphs on the vertices 1..n, with bitmask vertex sets.

A graph stores one thing, the neighbour bitmask of each vertex; its edges
and non-edges are read from those masks, in sorted order.  Vertex subsets
are plain ints too: bit v set means vertex v is in the set (bit 0 is never
used).  That keeps subsets hashable and cheap, which the exhaustive search
relies on; Python ints are unbounded, so the graph order is not limited by
a machine word.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def components_masks(adj: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the subgraph induced by `mask`, as bitmasks.

    Deterministic order: by smallest contained vertex, from which one
    worklist grows the component.
    """
    comps = []
    while mask:
        seed = mask & -mask
        left = mask ^ seed
        frontier = seed
        while frontier and left:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            new = adj[v] & left
            left ^= new
            frontier |= new
        comps.append(mask ^ left)
        mask = left
    return comps


class Graph:
    """Immutable simple undirected graph on the vertices 1..n.

    The neighbour bitmasks in `adjacency` are its one stored form: `edges`
    and `non_edges()` are read from them, in sorted order.  `members` is
    the bitmask of 1..n.  Vertex subsets, such as the components of an
    induced subgraph, are bitmasks passed to `connected_components`, not
    graphs of their own.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        self.n = n
        self.members = (1 << (n + 1)) - 2
        adj = [0] * (n + 1)
        for u, v in edges:
            u, v = edge(u, v)
            if u < 1 or v > n:
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = tuple(adj)

    # -- basic views ---------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as (u, v) with u < v, sorted."""
        adj = self._adj
        return tuple((u, v) for u in range(1, self.n)
                     for v in bits(adj[u] >> (u + 1) << (u + 1)))

    @property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks, indexed by vertex id."""
        return self._adj

    def vertices(self) -> list[int]:
        return list(range(1, self.n + 1))

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 < u <= self.n and 0 < v <= self.n and (self._adj[u] >> v) & 1 == 1

    # -- derived graphs ------------------------------------------------

    def add_edges(self, es: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges added; duplicates of existing edges
        are ignored."""
        return Graph(self.n, (*self.edges, *es))

    def non_edges(self) -> list[tuple[int, int]]:
        """All vertex pairs of the graph that are not edges, sorted."""
        adj, members = self._adj, self.members
        return [(u, v) for u in range(1, self.n)
                for v in bits(members >> (u + 1) << (u + 1) & ~adj[u])]

    def connected_components(self, s: int | None = None) -> list[int]:
        """Component bitmasks of the subgraph induced by the vertex mask `s`
        (default: the whole graph), ordered by smallest vertex."""
        smask = self.members if s is None else s & self.members
        return components_masks(self._adj, smask)

    # -- serialization and identity -------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self._adj == other._adj
        return NotImplemented

    def __hash__(self):
        return hash(self._adj)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"
