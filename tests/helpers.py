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

from rankmax import Graph


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


def random_graph(rng: Random, n: int, p: float) -> Graph:
    es = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
          if rng.random() < p]
    return Graph(n, es)


def all_graphs(n: int):
    """Every labeled simple graph on vertices 1..n."""
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    for mask in range(2 ** len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


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
        for y in g.neighbors(x):
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
