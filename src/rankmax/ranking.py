"""Rankings, the validity predicate, and the four supported graph families.

A ranking labels every vertex with a positive integer so that any path
between two equally labeled vertices passes through a strictly larger
label.  The closed-form rankings built here are the ones whose structure
the good-edge constructions in `construct` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, components_masks


def position_label(m: int) -> int:
    """Label of the vertex in position m of a standard path ranking.

    One more than the exponent of the largest power of two dividing m.
    """
    if m < 1:
        raise ValueError("positive integer required")
    return (m & -m).bit_length()


@dataclass(frozen=True)
class Ranking:
    """Vertex labels aligned with vertex ids: labels[i] labels vertex i+1."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if any(l < 1 for l in self.labels):
            raise ValueError("labels must be positive integers")

    def label(self, v: int) -> int:
        return self.labels[v - 1]

    @property
    def max_label(self) -> int:
        return max(self.labels)

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels)}


@dataclass(frozen=True)
class FamilySpec:
    """One of the four supported graph families, with its parameters.

    kinds: "path" (2^k - 1 vertices), "cycle" (2^k vertices),
    "multipartite" (complete multipartite, parts sorted descending),
    "joined" (two n-cliques joined by a single edge).
    """

    kind: str
    k: int | None = None
    parts: tuple[int, ...] | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind in ("path", "cycle"):
            if self.k is None or self.parts is not None or self.n is not None:
                raise ValueError(f"{self.kind} takes exactly the parameter k")
            if self.kind == "path" and self.k < 1:
                raise ValueError("path requires k >= 1")
            if self.kind == "cycle" and self.k < 2:
                raise ValueError("cycle requires k >= 2")
        elif self.kind == "multipartite":
            if self.parts is None or self.k is not None or self.n is not None:
                raise ValueError("multipartite takes exactly the part sizes")
            if len(self.parts) < 2 or any(m < 1 for m in self.parts):
                raise ValueError("multipartite requires at least two parts of size >= 1")
            object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))
        elif self.kind == "joined":
            if self.n is None or self.k is not None or self.parts is not None:
                raise ValueError("joined takes exactly the parameter n")
            if self.n < 2:
                raise ValueError("joined requires n >= 2")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @classmethod
    def path(cls, k: int) -> "FamilySpec":
        return cls("path", k=k)

    @classmethod
    def cycle(cls, k: int) -> "FamilySpec":
        return cls("cycle", k=k)

    @classmethod
    def multipartite(cls, *parts: int) -> "FamilySpec":
        return cls("multipartite", parts=tuple(parts))

    @classmethod
    def joined(cls, n: int) -> "FamilySpec":
        return cls("joined", n=n)

    @property
    def vertex_count(self) -> int:
        if self.kind == "path":
            return 2 ** self.k - 1
        if self.kind == "cycle":
            return 2 ** self.k
        if self.kind == "multipartite":
            return sum(self.parts)
        return 2 * self.n

    def describe(self) -> str:
        if self.kind == "path":
            return f"path on {self.vertex_count} vertices (k={self.k})"
        if self.kind == "cycle":
            return f"cycle on {self.vertex_count} vertices (k={self.k})"
        if self.kind == "multipartite":
            return "complete multipartite with parts " + ",".join(map(str, self.parts))
        return f"two {self.n}-cliques joined by an edge"

    def to_json_dict(self) -> dict:
        if self.kind in ("path", "cycle"):
            return {"kind": self.kind, "k": self.k}
        if self.kind == "multipartite":
            return {"kind": self.kind, "parts": list(self.parts)}
        return {"kind": self.kind, "n": self.n}


def part_ranges(spec: FamilySpec) -> list[range]:
    """Vertex ids of each multipartite part, numbered consecutively in
    `spec.parts` order (largest part first)."""
    out = []
    start = 1
    for m in spec.parts:
        out.append(range(start, start + m))
        start += m
    return out


def build_family(spec: FamilySpec) -> Graph:
    """Concrete graph of a family, with its canonical vertex numbering.

    Paths and cycles are numbered along the walk.  Multipartite parts are
    numbered consecutively, largest part first.  Joined cliques number the
    first clique 1..n and the second n+1..2n, with the join edge {1, 2n}.
    """
    if spec.kind == "path":
        n = 2 ** spec.k - 1
        return Graph(n, [(i, i + 1) for i in range(1, n)])
    if spec.kind == "cycle":
        n = 2 ** spec.k
        es = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        return Graph(n, es)
    if spec.kind == "multipartite":
        n = sum(spec.parts)
        bounds = part_ranges(spec)
        es = []
        for i, p in enumerate(bounds):
            for q in bounds[i + 1:]:
                es.extend((u, v) for u in p for v in q)
        return Graph(n, es)
    # joined cliques
    n = spec.n
    es = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    es += [(u, v) for u in range(n + 1, 2 * n + 1) for v in range(u + 1, 2 * n + 1)]
    es.append((1, 2 * n))
    return Graph(2 * n, es)


def family_ranking(spec: FamilySpec) -> Ranking:
    """The explicit optimal ranking of a family graph.

    Path on 2^k - 1 vertices: the unique one, `position_label(m)` on vertex
    m.  Cycle on 2^k vertices: that path ranking on the first 2^k - 1
    vertices, with the last vertex on top.  Complete multipartite: the
    first largest part all labelled 1, every other vertex a distinct label
    2, 3, ...  Joined cliques: both cliques labelled 1..n in vertex order,
    except the second clique's join endpoint gets n + 1.
    """
    if spec.kind in ("path", "cycle"):
        labels = tuple(position_label(m) for m in range(1, 2 ** spec.k))
        return Ranking(labels if spec.kind == "path" else labels + (spec.k + 1,))
    if spec.kind == "multipartite":
        rest = sum(spec.parts[1:])
        return Ranking((1,) * spec.parts[0] + tuple(range(2, rest + 2)))
    n = spec.n
    return Ranking(tuple(range(1, n + 1)) + tuple(range(1, n)) + (n + 1,))


def _level_walk(g: Graph, r: Ranking):
    """Walk the levels of a ranking: for each label c, ascending, yield each
    component of G[labels <= c] that holds a vertex labelled c, with the
    mask of those vertices.

    The ranking is valid iff every such mask has one bit.  Then that vertex
    is the component's top, and the component is the one the ranking's
    elimination forest deletes it from: its ancestors carry larger labels
    and cut it off from every other branch.
    """
    if len(r.labels) < g.n:
        raise ValueError("ranking does not label every vertex of the graph")
    at_label: dict[int, int] = {}
    for v in g.vertices():
        c = r.label(v)
        at_label[c] = at_label.get(c, 0) | 1 << v
    level = 0
    for c in sorted(at_label):
        level |= at_label[c]
        for comp in components_masks(g.adjacency, level):
            if comp & at_label[c]:
                yield comp, comp & at_label[c]


def is_valid_ranking(g: Graph, r: Ranking) -> bool:
    """Check the ranking property on the level walk: each component of
    G[labels <= c] holds at most one vertex labelled c.  This is the path
    formulation without enumerating paths."""
    return all(tops & (tops - 1) == 0 for _, tops in _level_walk(g, r))
