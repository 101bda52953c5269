"""Independent reference implementations used as oracles by the tests.

Everything here deliberately avoids the package's bitmask machinery:
components by dict-based BFS, validity by explicit path enumeration, rank
numbers by brute-force labeling search.  Slow but obviously correct.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from random import Random

from rankmax import EdgeSet, Graph, Ranking, bits, components_masks, edge


def mask_of(vertices) -> int:
    """The bitmask of a collection of vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def rankmax_env() -> dict[str, str]:
    """The environment with this checkout's `src` first on PYTHONPATH, so a
    child `python -m rankmax` runs these sources without an install."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    inherited = os.environ.get("PYTHONPATH")
    path = f"{src}{os.pathsep}{inherited}" if inherited else src
    return dict(os.environ, PYTHONPATH=path)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(1, v) for v in range(2, n + 1)])


def circulant_graph(n: int, steps) -> Graph:
    """Vertex i joined to i +- s (mod n) for every s in `steps`."""
    return Graph(n, [(i + 1, (i + s) % n + 1) for i in range(n) for s in steps])


def petersen_graph() -> Graph:
    """Outer 5-cycle 1..5, spokes i -- i + 5, inner pentagram on 6..10."""
    return Graph(10, [(i, i % 5 + 1) for i in range(1, 6)]
                 + [(i, i + 5) for i in range(1, 6)]
                 + [(6 + i, 6 + (i + 2) % 5) for i in range(5)])


def cube_graph(d: int) -> Graph:
    """The d-dimensional hypercube on 2^d vertices."""
    return Graph(2 ** d, [(a + 1, (a | 1 << b) + 1) for a in range(2 ** d)
                          for b in range(d) if not a >> b & 1])


def mirrored_graph(rng: Random, half: int, p: float) -> Graph:
    """A random graph on 1..half, its mirror copy on half+1..2*half, and
    every vertex joined to its mirror image: swapping each vertex with its
    image is an automorphism."""
    h = random_graph(rng, half, p)
    return Graph(2 * half, [*h.edges, *((u + half, v + half) for u, v in h.edges),
                            *((v, v + half) for v in range(1, half + 1))])


def random_graph(rng: Random, n: int, p: float) -> Graph:
    es = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
          if rng.random() < p]
    return Graph(n, es)


def ancestor_pairs(parent: dict[int, int | None]) -> set[tuple[int, int]]:
    """Edges of the closure of a rooted forest, given as each vertex's parent
    (None at a root): every vertex joined to each of its ancestors."""
    pairs = set()
    for v in parent:
        u = parent[v]
        while u is not None:
            pairs.add((min(u, v), max(u, v)))
            u = parent[u]
    return pairs


def closure_by_peel(g: Graph, ranking: Ranking, below: int | None = None) -> EdgeSet:
    """The closure of a ranking's elimination forest by peeling: pop a
    component, check that its top label is unique, join the top to every
    non-neighbor in the component, delete it and push the components left.
    One component search per vertex; the reference for `closure_edges`,
    which raises ValueError exactly where this does."""
    if len(ranking.labels) < g.n:
        raise ValueError("ranking does not label every vertex of the graph")
    tagged: dict[tuple[int, int], str] = {}
    comps = components_masks(g.adjacency, g.members)
    while comps:
        comp = comps.pop()
        top = max(bits(comp), key=ranking.label)
        label = ranking.label(top)
        if sum(ranking.label(v) == label for v in bits(comp)) > 1:
            raise ValueError(f"no unique top label in the component of vertex {top}")
        rest = comp & ~(1 << top)
        if below is None or label < below:
            tagged.update((edge(top, w), f"top:{top}")
                          for w in bits(rest & ~g.adjacency[top]))
        comps.extend(components_masks(g.adjacency, rest))
    es = sorted(tagged)
    return EdgeSet(None, tuple(es), tuple(tagged[e] for e in es))


def all_graphs(n: int):
    """Every labeled simple graph on vertices 1..n."""
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    for mask in range(2 ** len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def non_edge_orbits_reference(g: Graph) -> list[tuple[int, int]]:
    """For each non-edge of g, in `g.non_edges()` order, the least non-edge
    of its orbit under Aut(g), found by trying every vertex permutation."""
    edges = set(g.edges)
    autos = []
    for p in itertools.permutations(range(1, g.n + 1)):
        image = dict(zip(range(1, g.n + 1), p))
        if all(tuple(sorted((image[u], image[v]))) in edges for u, v in edges):
            autos.append(image)
    return [min(tuple(sorted((a[u], a[v]))) for a in autos)
            for u, v in g.non_edges()]


def bfs_components_reference(g: Graph, subset: set[int]) -> list[set[int]]:
    """Connected components by plain BFS over an adjacency dict."""
    adj = {v: set() for v in subset}
    for u, v in g.edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen: set[int] = set()
    comps = []
    for v in sorted(subset):
        if v in seen:
            continue
        comp = {v}
        queue = [v]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def valid_by_path_definition(g: Graph, labels: dict[int, int]) -> bool:
    """The definitional ranking check: every path between two equally
    labeled vertices must contain an interior vertex with a larger label.

    Enumerates all simple paths; only usable on tiny graphs.
    """
    verts = g.vertices()
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if labels[u] != labels[v]:
                continue
            if not _every_path_has_larger(g, u, v, labels):
                return False
    return True


def _every_path_has_larger(g: Graph, u: int, v: int, labels: dict[int, int]) -> bool:
    c = labels[u]
    stack = [(u, frozenset([u]), False)]
    while stack:
        x, visited, has_larger = stack.pop()
        for y in bits(g.adjacency[x]):
            if y == v:
                if not has_larger:
                    return False
            elif y not in visited:
                stack.append((y, visited | {y}, has_larger or labels[y] > c))
    return True


def brute_rank(g: Graph, checker=valid_by_path_definition) -> int:
    """Smallest k admitting a valid labeling with labels 1..k, by trying
    every labeling."""
    verts = g.vertices()
    for k in range(1, len(verts) + 1):
        for combo in itertools.product(range(1, k + 1), repeat=len(verts)):
            if checker(g, dict(zip(verts, combo))):
                return k
    raise AssertionError("labeling every vertex distinctly is always valid")


def reference_rank(g: Graph) -> int:
    """Rank number by the plain elimination recursion: a connected vertex
    set S has rank 1 + min over v in S of the largest rank among the
    components of S - v.  Frozensets and dict BFS; no bitmasks, lower
    bound or twin pruning."""
    adj = {v: set(bits(g.adjacency[v])) for v in g.vertices()}
    memo: dict[frozenset[int], int] = {}

    def components(subset: frozenset[int]) -> list[frozenset[int]]:
        comps, left = [], set(subset)
        while left:
            comp, queue = set(), [left.pop()]
            while queue:
                x = queue.pop()
                comp.add(x)
                queue.extend(adj[x] & left)
                left -= adj[x]
            comps.append(frozenset(comp))
        return comps

    def connected_rank(comp: frozenset[int]) -> int:
        if comp not in memo:
            memo[comp] = 1 + min(
                max((connected_rank(c) for c in components(comp - {v})),
                    default=0)
                for v in comp)
        return memo[comp]

    return max(connected_rank(c) for c in components(frozenset(adj)))


def greedy_path_all_starts(g: Graph) -> int:
    """Longest of the greedy walks from every start vertex, each step going
    to the unvisited neighbor with the fewest unvisited neighbors (ties to
    the smaller vertex): the certificate's path bound without its start
    order or early stop."""
    best = 1
    for start in g.vertices():
        seen = {start}
        v = start
        while True:
            options = [u for u in bits(g.adjacency[v]) if u not in seen]
            if not options:
                break
            v = min(options, key=lambda u: (
                sum(w not in seen for w in bits(g.adjacency[u])), u))
            seen.add(v)
        best = max(best, len(seen))
    return best


def blow_up(rng: Random, base: Graph | None = None) -> Graph:
    """Each vertex of `base` (by default a random graph on 2..4 vertices)
    replaced by an independent set or a clique of 1..3 vertices, which are
    twins of each other; two blocks are joined completely when their
    originals are adjacent."""
    if base is None:
        base = random_graph(rng, rng.randint(2, 4), 0.5)
    blocks: list[list[int]] = []
    for _ in range(base.n):
        start = sum(map(len, blocks)) + 1
        blocks.append(list(range(start, start + rng.randint(1, 3))))
    es = [(a, b) for block in blocks if rng.random() < 0.5
          for a, b in itertools.combinations(block, 2)]
    es += [(a, b) for u, v in base.edges
           for a in blocks[u - 1] for b in blocks[v - 1]]
    return Graph(sum(map(len, blocks)), es)
