"""Orbits of a graph's non-edges under automorphisms of its twin quotient.

Twins (vertices with the same open or the same closed neighbourhood) fall
into classes.  The twin quotient has one vertex per class, adjacent where
the classes are, and is coloured by (class size, true or false twins).  An
automorphism of the coloured quotient lifts to the graph: map each class
onto its image class by any bijection, which the equal size allows; inside a
class the edges are all present or all absent, as the equal kind requires,
and between two classes they are uniform.  Together with the swaps of twins,
which move a non-edge to any other non-edge between the same two classes,
these lifts make every non-edge whose class pair lies in one orbit of the
quotient's group an image of every other under an automorphism of the graph.

Generators of the quotient's group come from a plain backtracking search.
Each quotient vertex is coloured by its colour and its degree, and the
vertices are ordered breadth-first.  For each vertex b of that order, last
first, the search fixes every vertex before b and tries to map b onto each
vertex of its colour not already in its orbit, extending the map along the
order: each vertex goes to an unused vertex of its colour whose adjacency
to every vertex mapped so far matches its own.  Every complete map is
checked edge by edge and colour by colour before it becomes a generator,
and the search stops after a fixed number of candidates.  A generator it
misses only splits an orbit, which costs one more search by the caller,
never a wrong answer.
"""

from __future__ import annotations

from .graph import bits

# Candidates the generator search may try on one quotient.  The benchmark's
# hosts have needed at most 31, symmetric and random graphs of up to 20
# vertices a few dozen to 134.
_STEPS = 1000


def is_automorphism(qadj: list[int], colours: list, perm: list[int]) -> bool:
    """True iff `perm` is a permutation that keeps every colour and maps the
    neighbourhood of each vertex onto the neighbourhood of its image."""
    if sorted(perm) != list(range(len(qadj))):
        return False
    for i, p in enumerate(perm):
        if colours[p] != colours[i]:
            return False
        image = 0
        for j in bits(qadj[i]):
            image |= 1 << perm[j]
        if image != qadj[p]:
            return False
    return True


def generators(qadj: list[int], colours: list) -> list[list[int]]:
    """Checked automorphisms of the coloured graph; they generate its whole
    group unless the step budget ran out first."""
    m = len(qadj)
    colour = [(c, qadj[v].bit_count()) for v, c in enumerate(colours)]
    if len(set(colour)) == m:
        return []  # a discrete colouring is fixed by every automorphism
    cells: dict = {}
    for v, c in enumerate(colour):
        cells[c] = cells.get(c, 0) | 1 << v
    cell = [cells[c] for c in colour]
    order: list[int] = []  # breadth-first, each component from its least vertex
    seen = i = 0
    for s in range(m):
        if not seen >> s & 1:
            seen |= 1 << s
            order.append(s)
        while i < len(order):
            fresh = qadj[order[i]] & ~seen
            seen |= fresh
            order.extend(bits(fresh))
            i += 1
    steps = _STEPS
    gens: list[list[int]] = []
    orbit = list(range(m))  # union-find over the group generated so far

    def find(x: int) -> int:
        while orbit[x] != x:
            orbit[x] = x = orbit[orbit[x]]
        return x

    def candidates(k: int, perm: list[int], used: int) -> int:
        """The unused images of order[k] that keep its colour and its
        adjacency to order[:k] under perm."""
        v = order[k]
        out = cell[v] & ~used
        for u in order[:k]:
            out &= qadj[perm[u]] if qadj[v] >> u & 1 else ~qadj[perm[u]]
        return out

    def extend(k: int, perm: list[int], used: int) -> bool:
        """Complete perm, set on order[:k], to a checked automorphism."""
        nonlocal steps
        if k == m:
            return is_automorphism(qadj, colours, perm)
        for w in bits(candidates(k, perm, used)):
            if steps <= 0:
                return False
            steps -= 1
            perm[order[k]] = w
            if extend(k + 1, perm, used | 1 << w):
                return True
        return False

    for d in reversed(range(m)):
        b = order[d]
        perm = list(range(m))
        fixed = sum(1 << v for v in order[:d])
        for w in bits(candidates(d, perm, fixed)):
            if find(w) == find(b):
                continue
            if steps <= 0:
                return gens
            steps -= 1
            perm[b] = w
            if extend(d + 1, perm, fixed | 1 << w):
                gens.append(perm)
                for x, y in enumerate(perm):
                    orbit[find(x)] = find(y)
                perm = list(range(m))
    return gens


def non_edge_orbits(adj: tuple[int, ...]
                    ) -> tuple[list[int], dict[tuple[int, int], tuple[int, int]]]:
    """The twin class of every vertex, as a quotient vertex, and the orbit of
    every class pair that holds non-edges: a dict from the pair (smaller
    class first) to one pair of its orbit.

    False twins share an open neighbourhood and true twins a closed one; no
    vertex has twins of both kinds, since a false twin of v would be
    adjacent to a true twin of v and so to v."""
    cls = [0] * len(adj)
    first: dict[int, int] = {}  # open or closed neighbourhood -> class
    reps: list[int] = []
    sizes: list[int] = []
    true_twins: list[bool] = []
    for v in range(1, len(adj)):
        for nbhd in (adj[v], adj[v] | 1 << v):
            c = first.get(nbhd)
            if c is not None:
                cls[v] = c
                sizes[c] += 1
                true_twins[c] = nbhd != adj[v]
                break
        else:
            cls[v] = first[adj[v]] = first[adj[v] | 1 << v] = len(reps)
            reps.append(v)
            sizes.append(1)
            true_twins.append(False)
    m = len(reps)
    qadj = [0] * m
    pairs = []
    for i, r in enumerate(reps):
        if sizes[i] > 1 and not true_twins[i]:
            pairs.append((i, i))
        for j in range(i + 1, m):
            if adj[r] >> reps[j] & 1:
                qadj[i] |= 1 << j
                qadj[j] |= 1 << i
            else:
                pairs.append((i, j))
    gens = generators(qadj, list(zip(sizes, true_twins))) if pairs else []
    if not gens:
        return cls, {p: p for p in pairs}
    orbit: dict[tuple[int, int], tuple[int, int]] = {}
    for p in pairs:
        if p in orbit:
            continue
        orbit[p] = p
        todo = [p]
        for i, j in todo:  # the loop also visits images appended below
            for perm in gens:
                a, b = perm[i], perm[j]
                q = (a, b) if a <= b else (b, a)
                if q not in orbit:
                    orbit[q] = p
                    todo.append(q)
    return cls, orbit
