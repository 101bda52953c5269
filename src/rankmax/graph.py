"""Simple undirected graphs on 1-based vertex ids, with bitmask vertex sets.

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
    """Immutable simple undirected graph.

    Vertices live in the universe 1..n; `members` (a bitmask) restricts the
    graph to an induced subset while preserving vertex identities, which is
    how induced-subgraph views are represented.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 members: int | Iterable[int] | None = None):
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        self.n = n
        full = full_mask(n)
        if members is None:
            self.members = full
        else:
            self.members = members if isinstance(members, int) else mask_of(members)
            if self.members & ~full:
                raise ValueError("members outside 1..n")
        adj = [0] * (n + 1)
        es = set()
        for u, v in edges:
            u, v = edge(u, v)
            if u < 1 or v > n:
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            if not (self.members >> u) & 1 or not (self.members >> v) & 1:
                raise ValueError(f"edge ({u},{v}) touches a non-member vertex")
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
        return list(bits(self.members))

    @property
    def vertex_count(self) -> int:
        return self.members.bit_count()

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def is_full(self) -> bool:
        return self.members == full_mask(self.n)

    def has_vertex(self, v: int) -> bool:
        return 0 < v <= self.n and (self.members >> v) & 1 == 1

    def has_edge(self, u: int, v: int) -> bool:
        return 0 < u <= self.n and (self._adj[u] >> v) & 1 == 1

    def neighbors_mask(self, v: int) -> int:
        return self._adj[v]

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
        return Graph(self.n, new, self.members)

    def induced_subgraph(self, s: int | Iterable[int]) -> "Graph":
        """Induced subgraph on the vertex subset `s`, identities preserved."""
        smask = s if isinstance(s, int) else mask_of(s)
        smask &= self.members
        kept = [(u, v) for u, v in self._edges
                if (smask >> u) & 1 and (smask >> v) & 1]
        return Graph(self.n, kept, smask)

    def non_edges(self) -> list[tuple[int, int]]:
        """All vertex pairs of the graph that are not edges, sorted."""
        vs = self.vertices()
        out = []
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if not self.has_edge(u, v):
                    out.append((u, v))
        return out

    def connected_components(self, s: int | Iterable[int] | None = None) -> list[int]:
        """Component bitmasks of the subgraph induced by `s` (default: all
        members), ordered by smallest vertex."""
        if s is None:
            smask = self.members
        else:
            smask = (s if isinstance(s, int) else mask_of(s)) & self.members
        return components_masks(self._adj, smask)

    # -- serialization and identity -------------------------------------

    def to_json_dict(self) -> dict:
        if not self.is_full():
            raise ValueError("only full graphs have a JSON form, not induced views")
        return {"n": self.n, "edges": [list(e) for e in self._edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Graph":
        return cls(int(obj["n"]), [tuple(e) for e in obj["edges"]])

    def __eq__(self, other):
        if isinstance(other, Graph):
            return (self.members == other.members and self._edges == other._edges)
        return NotImplemented

    def __hash__(self):
        return hash((self.members, self._edges))

    def __repr__(self):
        return f"Graph(n={self.n}, vertices={self.vertex_count}, edges={self.edge_count})"
