"""Simple undirected graphs on the vertices 1..n, with bitmask vertex sets.

A graph stores one thing, the neighbour bitmask of each vertex in
`adjacency`; its edges and non-edges are read from those masks, in sorted
order.  Vertex subsets are plain ints too: bit v set means vertex v is in
the set (bit 0 is never used).  That keeps subsets hashable and cheap,
which the exhaustive search relies on; Python ints are unbounded, so the
graph order is not limited by a machine word.  `components_masks` splits a
subset into the connected components it induces.
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

    `adjacency[v]` is the neighbour bitmask of vertex v (`adjacency[0]` is
    0), the graph's one stored form: `edges` and `non_edges()` are read
    from it, in sorted order.  `members` is the bitmask of 1..n.  Vertex
    subsets, such as the components of an induced subgraph, are bitmasks,
    split by `components_masks(g.adjacency, mask)`, not graphs of their
    own.
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
        self.adjacency = tuple(adj)

    # -- basic views ---------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as (u, v) with u < v, sorted."""
        adj = self.adjacency
        return tuple((u, v) for u in range(1, self.n)
                     for v in bits(adj[u] >> (u + 1) << (u + 1)))

    def vertices(self) -> list[int]:
        return list(range(1, self.n + 1))

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return (0 < u <= self.n and 0 < v <= self.n
                and (self.adjacency[u] >> v) & 1 == 1)

    # -- derived graphs ------------------------------------------------

    def add_edges(self, es: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges added; duplicates of existing edges
        are ignored."""
        return Graph(self.n, (*self.edges, *es))

    def non_edges(self) -> list[tuple[int, int]]:
        """All vertex pairs of the graph that are not edges, sorted."""
        adj, members = self.adjacency, self.members
        return [(u, v) for u in range(1, self.n)
                for v in bits(members >> (u + 1) << (u + 1) & ~adj[u])]

    # -- serialization and identity -------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.adjacency == other.adjacency
        return NotImplemented

    def __hash__(self):
        return hash(self.adjacency)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"
