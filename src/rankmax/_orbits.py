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

Generators of the quotient's group come from a refine-and-individualize
search (McKay and Piperno, *Practical graph isomorphism, II*, J. Symbolic
Comput. 2014).  Colour refinement runs on bitmask cells with a splitter
queue, and its cell order depends on nothing but the structure, so an
automorphism carries one search branch onto another.  For the vertex v
individualized at each depth of the first branch, deepest depth first, the
search tries to map v onto every other vertex of its cell not already in
its orbit, by descending that branch to a discrete leaf whose shapes match
the first branch.  Every leaf map is checked edge by edge and colour by
colour before it becomes a generator, and the search stops after a fixed
number of refinements.  A generator it misses only splits an orbit, which
costs one more search by the caller, never a wrong answer.
"""

from __future__ import annotations

from .graph import bits

# Refinements the generator search may make on one quotient.  Graphs of up
# to 20 vertices, strongly regular and vertex-transitive ones included, have
# needed a few dozen.
_STEPS = 1000


def _refine(qadj: list[int], cells: list[int], queue: list[int]) -> None:
    """Refine the ordered partition `cells`, equitable with respect to every
    cell but those in `queue`, in place until it is equitable.

    Each cell splits by its vertices' neighbour counts in a splitter, the
    fragments taking its place in count order.  A cell that splits while
    queued is replaced in the queue by all its fragments, and otherwise by
    all but its first largest one, to which the partition stays equitable:
    a count there is the count in the old cell less those in the others."""
    m = len(qadj)
    pending = set(queue)
    for s in queue:  # the loop also visits splitters appended below
        if len(cells) == m:
            return
        if s not in pending:
            continue  # split since it was queued; its fragments are queued
        pending.discard(s)
        touched = 0
        x = s
        while x:
            b = x & -x
            x ^= b
            touched |= qadj[b.bit_length() - 1]
        i = 0
        while i < len(cells):
            c = cells[i]
            i += 1
            if c & touched == 0 or c & (c - 1) == 0:
                continue  # no vertex of c sees s, or c is a single vertex
            split: dict[int, int] = {}
            x = c & touched
            while x:
                b = x & -x
                x ^= b
                k = (qadj[b.bit_length() - 1] & s).bit_count()
                split[k] = split.get(k, 0) | b
            if c & ~touched:
                split[0] = c & ~touched
            if len(split) == 1:
                continue
            frags = [split[k] for k in sorted(split)]
            cells[i - 1:i] = frags
            i += len(frags) - 1
            if c in pending:
                pending.discard(c)
            else:
                frags.remove(max(frags, key=int.bit_count))
            pending.update(frags)
            queue.extend(frags)


def _individualize(qadj: list[int], cells: list[int], t: int, v: int) -> list[int]:
    """A refined copy of the equitable `cells` with v split off ahead of the
    rest of cell t."""
    out = cells[:t] + [1 << v, cells[t] & ~(1 << v)] + cells[t + 1:]
    _refine(qadj, out, [1 << v])
    return out


def _shape(cells: list[int]) -> list[int]:
    return [c.bit_count() for c in cells]


def _leaf_map(first: list[int], leaf: list[int]) -> list[int]:
    """The permutation taking each cell of the first leaf to the same cell of
    another leaf."""
    perm = [0] * len(first)
    for a, b in zip(first, leaf):
        perm[a] = b
    return perm


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
    by_colour: dict = {}
    for v, c in enumerate(colours):
        by_colour[c] = by_colour.get(c, 0) | 1 << v
    cells = [by_colour[c] for c in sorted(by_colour)]
    _refine(qadj, cells, list(cells))
    if len(cells) == m:
        return []  # a discrete colouring is fixed by every automorphism
    path = []  # (partition, target cell, individualized vertex) per depth
    shapes = []  # cell sizes of the first branch one depth further down
    while len(cells) < m:
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        v = (cells[t] & -cells[t]).bit_length() - 1
        path.append((cells, t, v))
        cells = _individualize(qadj, cells, t, v)
        shapes.append(_shape(cells))
    first = [c.bit_length() - 1 for c in cells]
    steps = _STEPS
    gens: list[list[int]] = []
    orbit = list(range(m))  # union-find over the group generated so far

    def find(x: int) -> int:
        while orbit[x] != x:
            orbit[x] = x = orbit[orbit[x]]
        return x

    def branch(cells: list[int], depth: int) -> list[int] | None:
        """A checked automorphism onto some leaf below `cells`, or None."""
        nonlocal steps
        if depth == len(path):
            perm = _leaf_map(first, [c.bit_length() - 1 for c in cells])
            return perm if is_automorphism(qadj, colours, perm) else None
        t = path[depth][1]
        for x in bits(cells[t]):
            if steps <= 0:
                return None
            steps -= 1
            child = _individualize(qadj, cells, t, x)
            if _shape(child) == shapes[depth]:
                perm = branch(child, depth + 1)
                if perm is not None:
                    return perm
        return None

    for depth in reversed(range(len(path))):
        cells, t, v = path[depth]
        for w in bits(cells[t]):
            if find(w) == find(v):
                continue
            if steps <= 0:
                return gens
            steps -= 1
            child = _individualize(qadj, cells, t, w)
            if _shape(child) != shapes[depth]:
                continue
            perm = branch(child, depth + 1)
            if perm is not None:
                gens.append(perm)
                for x, y in enumerate(perm):
                    orbit[find(x)] = find(y)
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
