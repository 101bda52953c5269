import hashlib
import json
from random import Random

import pytest

from rankmax import (FamilySpec, Ranking, all_levels_good_edges, build_family,
                     bits, closure_edges, components_masks, family_good_edges,
                     family_ranking, flip_bit, is_valid_ranking,
                     mu_path_recurrence, mu_value,
                     multipartite_forbidden_edges, next_center)
from rankmax.construct import published_readings
from rankmax.verify import multipartite_profiles
from helpers import (ancestor_pairs, closure_by_peel, mask_of, path_graph,
                     random_graph)

# Derived by hand from the center-block characterization: a center c
# (position divisible by 4) accepts every partner at distance >= 2 within
# the open interval (c - lowbit(c), c + lowbit(c)).
HP3 = ((1, 4), (2, 4), (4, 6), (4, 7))
HP4 = ((1, 4), (1, 8), (2, 4), (2, 8), (3, 8), (4, 6), (4, 7), (4, 8),
       (5, 8), (6, 8), (8, 10), (8, 11), (8, 12), (8, 13), (8, 14), (8, 15),
       (9, 12), (10, 12), (12, 14), (12, 15))
HC3 = HP3 + ((2, 8), (3, 8), (4, 8), (5, 8), (6, 8))


def targets(es, m: int) -> set[int]:
    """Partners n > m of v_m in an edge set, read from the smaller endpoint."""
    return {n for a, n in es if a == m}


def path_stars(k: int, label: int) -> list[tuple[int, int]]:
    """Closure edges of the standard path ranking whose top (the endpoint
    with the larger label) is labelled `label`."""
    r = family_ranking(FamilySpec.path(k))
    return [e for e in closure_edges(build_family(FamilySpec.path(k)), r)
            if r.label(max(e, key=r.label)) == label]


class TestFlipBit:
    def test_values(self):
        assert flip_bit(0) == 1
        assert flip_bit(1) == 0

    def test_involution(self):
        assert all(flip_bit(flip_bit(b)) == b for b in (0, 1))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            flip_bit(2)


class TestNextCenter:
    @pytest.mark.parametrize("m,s,expected", [
        (5, 1, 8), (9, 1, 12), (9, 2, 16), (7, 1, 8), (11, 1, 12), (17, 2, 24),
    ])
    def test_hand_values(self, m, s, expected):
        assert next_center(m, s) == expected

    def test_equals_round_up_to_power_multiple(self):
        for m in range(5, 128, 2):
            for s in range(1, m.bit_length() - 1):
                step = 2 ** (s + 1)
                assert next_center(m, s) == -(-m // step) * step

    def test_rejects_even_m(self):
        with pytest.raises(ValueError):
            next_center(6, 1)

    def test_rejects_s_out_of_range(self):
        with pytest.raises(ValueError):
            next_center(9, 3)


class TestPathGoodTargets:
    @pytest.mark.parametrize("m,k,expected", [
        (1, 3, {4}),
        (4, 3, {6, 7}),
        (5, 4, {8}),
        (8, 4, {10, 11, 12, 13, 14, 15}),
        (10, 4, {12}),
        (7, 4, set()),
    ])
    def test_corrected_targets(self, m, k, expected):
        assert targets(family_good_edges(FamilySpec.path(k)), m) == expected

    def test_printed_clauses_miss_left_block_edges(self):
        # v_10 sits inside the block of center 12 but no printed clause
        # produces the pair from the smaller endpoint.
        printed = published_readings(FamilySpec.path(4))["printed"]
        assert not [e for e in printed if e[0] == 10]
        assert (10, 12) in family_good_edges(FamilySpec.path(4))

    def test_literal_clause_two_needs_positive_run_index(self):
        readings = published_readings(FamilySpec.path(3))
        assert not [e for e in readings["literal"] if e[0] == 4]
        assert [e for e in readings["printed"] if e[0] == 4] == [(4, 6), (4, 7)]

    def test_union_of_targets_matches_edge_set(self):
        # the closure of the standard ranking gives every vertex the same
        # partners as the center blocks
        for k in (3, 4, 5):
            closure = all_levels_good_edges(k)
            hp = family_good_edges(FamilySpec.path(k))
            for m in range(1, 2 ** k):
                assert targets(closure, m) == targets(hp, m)


class TestPathGoodEdges:
    def test_k3_exact(self):
        es = family_good_edges(FamilySpec.path(3))
        assert es.edges == HP3
        # membership ignores orientation, as Graph.has_edge does
        assert (1, 4) in es and (4, 1) in es and (4, 4) not in es

    def test_k4_exact(self):
        assert family_good_edges(FamilySpec.path(4)).edges == HP4

    @pytest.mark.parametrize("k", range(3, 11))
    def test_count_matches_closed_form(self, k):
        spec = FamilySpec.path(k)
        assert len(family_good_edges(spec)) == mu_value(spec)

    def test_variant_counts_at_k4(self):
        readings = published_readings(FamilySpec.path(4))
        assert len(family_good_edges(FamilySpec.path(4))) == 20
        assert len(readings["printed"]) == 19
        assert len(readings["literal"]) == 11

    def test_no_host_edges_included(self):
        for k in (3, 4, 5):
            host = set(build_family(FamilySpec.path(k)).edges)
            assert not host & family_good_edges(FamilySpec.path(k)).edge_set()

    @pytest.mark.parametrize("spec", [FamilySpec.path(2), FamilySpec.cycle(2)])
    @pytest.mark.parametrize("entry", [family_good_edges, mu_value])
    def test_rejects_small_k(self, entry, spec):
        with pytest.raises(ValueError):
            entry(spec)


class TestLabelSets:
    """Which vertices of P_15 top a closure star, by the `below` cut-off."""

    def test_top_of_fifteen(self):
        g, r = path_graph(15), family_ranking(FamilySpec.path(4))
        full = closure_edges(g, r).edge_set()
        below_top = closure_edges(g, r, below=4).edge_set()
        assert below_top <= full
        assert {max(e, key=r.label) for e in full - below_top} == {8}

    def test_level_one_is_everything(self):
        # every vertex is labelled 1 or more, so no top adds a star
        r = family_ranking(FamilySpec.path(4))
        assert len(closure_edges(path_graph(15), r, below=1)) == 0

    def test_level_three(self):
        r = family_ranking(FamilySpec.path(4))
        closure = closure_edges(path_graph(15), r)
        assert {max(e, key=r.label) for e in closure} == {4, 8, 12}
        assert len(closure_edges(path_graph(15), r, below=3)) == 0


class TestNonNeighborEdges:
    """Star sizes of the closure of the standard ranking on P_3, P_7, P_15."""

    def test_center_of_fifteen(self):
        es = closure_edges(path_graph(15), family_ranking(FamilySpec.path(4)))
        assert sum(1 for e in es if 8 in e) == 15 - 3

    def test_center_of_seven(self):
        es = closure_edges(path_graph(7), family_ranking(FamilySpec.path(3)))
        assert es.edges == HP3
        assert all(4 in e for e in es)

    def test_tiny_path_has_none(self):
        r = family_ranking(FamilySpec.path(2))
        assert len(closure_edges(path_graph(3), r)) == 0


class TestLevelGoodEdges:
    """The closure of the standard path ranking, one label of its tops at a
    time: level j holds the stars of the tops labelled j - 1."""

    def test_top_level_of_fifteen(self):
        es = path_stars(4, 4)
        assert len(es) == 12
        assert all(8 in e for e in es)

    def test_level_four_of_fifteen(self):
        es = path_stars(4, 3)
        assert len(es) == 8
        assert sum(1 for e in es if 4 in e) == 4
        assert sum(1 for e in es if 12 in e) == 4

    def test_level_four_of_thirty_one(self):
        assert len(path_stars(5, 3)) == 16

    @pytest.mark.parametrize("k", range(3, 7))
    def test_sizes_and_disjointness(self, k):
        seen = set()
        total = 0
        for j in range(4, k + 2):
            es = set(path_stars(k, j - 1))
            assert len(es) == 2 ** (k - j + 1) * (2 ** (j - 1) - 4)
            assert not seen & es
            seen |= es
            total += len(es)
        assert total == mu_value(FamilySpec.path(k))
        assert seen == all_levels_good_edges(k).edge_set()

    @pytest.mark.parametrize("k", range(3, 7))
    def test_union_equals_block_construction(self, k):
        hp = family_good_edges(FamilySpec.path(k))
        assert all_levels_good_edges(k).edges == hp.edges

    def test_published_union_bound_undercounts(self):
        assert len(published_readings(FamilySpec.path(4))["level_union"]) == 8

    @pytest.mark.parametrize("k", range(4, 7))
    def test_removing_a_level_leaves_uniform_path_components(self, k):
        g = build_family(FamilySpec.path(k))
        r = family_ranking(FamilySpec.path(k))
        for j in range(4, k + 1):
            rest = g.members & ~mask_of(v for v in g.vertices() if r.label(v) >= j)
            comps = components_masks(g.adjacency, rest)
            assert len(comps) == 2 ** (k - j + 1)
            for comp in comps:
                vs = list(bits(comp))
                assert len(vs) == 2 ** (j - 1) - 1
                assert vs == list(range(vs[0], vs[0] + len(vs)))  # contiguous run
                inside = [e for e in g.edges if (comp >> e[0]) & 1 and (comp >> e[1]) & 1]
                assert len(inside) == len(vs) - 1


class TestCounts:
    def test_headline_values(self):
        assert mu_value(FamilySpec.path(4)) == 20
        assert mu_value(FamilySpec.cycle(4)) == 33
        assert mu_value(FamilySpec.joined(5)) == 8
        assert mu_value(FamilySpec.multipartite(4, 3, 2)) == 4

    def test_recurrence_values(self):
        assert mu_path_recurrence(3) == 4
        assert mu_path_recurrence(4) == 2 * 4 + 12 == 20
        assert mu_path_recurrence(6) == 196

    @pytest.mark.parametrize("k", range(3, 11))
    def test_formula_recurrence_and_level_sum_agree(self, k):
        level_sum = sum(2 ** (k - j + 1) * (2 ** (j - 1) - 4)
                        for j in range(4, k + 2))
        mu_path = mu_value(FamilySpec.path(k))
        assert mu_path == mu_path_recurrence(k) == level_sum
        assert mu_value(FamilySpec.cycle(k)) == mu_path + 2 ** k - 3


# Paths and cycles for k = 3..8, joined cliques for n = 2..8 and every
# multipartite profile of at most 8 vertices, with the sha256 of their
# constructed sets (edges and clause tags) as the per-family construction
# functions built them before they became branches of family_good_edges.
SOURCE_SPECS = ([FamilySpec.path(k) for k in range(3, 9)]
                + [FamilySpec.cycle(k) for k in range(3, 9)]
                + [FamilySpec.joined(n) for n in range(2, 9)]
                + [FamilySpec.multipartite(*p) for p in multipartite_profiles(8)])
SOURCE_DIGEST = "8c1f462216e2314860397ee28bb113da1d2a7bd1b035b0561a5ac09ccb788450"


class TestSourceOfTruth:
    def test_constructed_sets_match_the_recorded_digest(self):
        blob = json.dumps([family_good_edges(spec).to_json_dict()
                           for spec in SOURCE_SPECS], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == SOURCE_DIGEST

    def test_count_is_the_size_of_the_constructed_set(self):
        for spec in SOURCE_SPECS:
            assert mu_value(spec) == len(family_good_edges(spec)), spec


class TestCycleGoodEdges:
    def test_k3_exact(self):
        assert family_good_edges(FamilySpec.cycle(3)).edge_set() == set(HC3)

    def test_k4_count_and_containment(self):
        es = family_good_edges(FamilySpec.cycle(4))
        assert len(es) == 33
        assert family_good_edges(FamilySpec.path(4)).edge_set() <= es.edge_set()
        assert sum(1 for e in es if 16 in e) == 13

    def test_k5_count(self):
        assert len(family_good_edges(FamilySpec.cycle(5))) == 97

    def test_no_host_edges(self):
        host = set(build_family(FamilySpec.cycle(4)).edges)
        assert not host & family_good_edges(FamilySpec.cycle(4)).edge_set()


class TestMultipartiteEdges:
    def test_three_two(self):
        spec = FamilySpec.multipartite(3, 2)
        assert family_good_edges(spec).edges == ((4, 5),)
        assert multipartite_forbidden_edges(spec).edges == ((1, 2), (1, 3), (2, 3))

    def test_two_two(self):
        spec = FamilySpec.multipartite(2, 2)
        assert family_good_edges(spec).edges == ((3, 4),)
        assert multipartite_forbidden_edges(spec).edges == ((1, 2),)

    def test_singleton_parts_give_nothing(self):
        assert len(family_good_edges(FamilySpec.multipartite(4, 1, 1))) == 0

    @pytest.mark.parametrize("parts", [(3, 2), (2, 2), (4, 3, 2), (2, 2, 1),
                                       (5, 1), (3, 3, 3)])
    def test_partition_of_non_edges(self, parts):
        spec = FamilySpec.multipartite(*parts)
        g = build_family(spec)
        good = family_good_edges(spec).edge_set()
        forb = multipartite_forbidden_edges(spec).edge_set()
        assert good | forb == set(g.non_edges())
        assert not good & forb
        assert len(good) == mu_value(spec)


class TestJoinedGoodEdges:
    def test_n5_exact(self):
        assert family_good_edges(FamilySpec.joined(5)).edges == (
            (2, 10), (3, 10), (4, 10), (5, 6), (5, 7), (5, 8), (5, 9), (5, 10))

    def test_n2_exact(self):
        assert family_good_edges(FamilySpec.joined(2)).edges == ((2, 3), (2, 4))

    def test_n3_exact(self):
        assert family_good_edges(FamilySpec.joined(3)).edges == (
            (2, 6), (3, 4), (3, 5), (3, 6))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_and_disjointness_from_host(self, n):
        es = family_good_edges(FamilySpec.joined(n))
        assert len(es) == mu_value(FamilySpec.joined(n)) == 2 * (n - 1)
        host = set(build_family(FamilySpec.joined(n)).edges)
        assert not host & es.edge_set()

    def test_shared_edge_tagged_from_both_tops(self):
        es = family_good_edges(FamilySpec.joined(5))
        tag = dict(zip(es.edges, es.tags))[(5, 10)]
        assert tag == "top-w,top-v"


def elimination_ranking(rng: Random, g) -> Ranking:
    """A valid ranking built by random elimination: each component's top is
    a random vertex, labelled one more than anything left below it."""
    labels = {}

    def eliminate(comp: int) -> int:
        top = rng.choice(list(bits(comp)))
        labels[top] = 1 + max((eliminate(c) for c in
                               components_masks(g.adjacency, comp & ~(1 << top))),
                              default=0)
        return labels[top]

    for comp in components_masks(g.adjacency, g.members):
        eliminate(comp)
    return Ranking(tuple(labels[v] for v in g.vertices()))


class TestClosureEdges:
    @pytest.mark.parametrize("spec", [FamilySpec.path(k) for k in range(3, 8)]
                             + [FamilySpec.cycle(k) for k in range(3, 7)]
                             + [FamilySpec.multipartite(*p) for p in (
                                 (3, 2), (2, 2), (4, 3, 2), (5, 5, 5, 5),
                                 (6, 5, 4, 3, 2), (2,) * 10)],
                             ids=FamilySpec.describe)
    def test_family_ranking_closure_is_the_construction(self, spec):
        closure = closure_edges(build_family(spec), family_ranking(spec))
        assert closure.edges == family_good_edges(spec).edges

    @pytest.mark.parametrize("n", range(2, 9))
    def test_joined_ranking_closure_is_the_top_star(self, n):
        # joined_cliques_ranking is not tight: once v_top = 2n is deleted
        # the two cliques are separate components, both already complete,
        # so its closure is only the star of v_top
        g = build_family(FamilySpec.joined(n))
        closure = closure_edges(g, family_ranking(FamilySpec.joined(n)))
        assert closure.edges == tuple((i, 2 * n) for i in range(2, n + 1))
        assert closure.edge_set() <= family_good_edges(FamilySpec.joined(n)).edge_set()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_joined_chain_forest_closure_is_the_construction(self, n):
        # the chain v_top -> w = n, with both remaining cliques (each a
        # chain of its own) below w
        v_top, w = 2 * n, n
        parent = {v_top: None, w: v_top}
        for clique in (range(1, n), range(n + 1, 2 * n)):
            above = w
            for v in clique:
                parent[v], above = above, v
        pairs = ancestor_pairs(parent)
        g = build_family(FamilySpec.joined(n))
        assert set(g.edges) <= pairs
        good = family_good_edges(FamilySpec.joined(n))
        assert pairs - set(g.edges) == good.edge_set()

    def test_random_graphs_keep_their_ranking(self):
        rng = Random(11)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            r = elimination_ranking(rng, g)
            closure = closure_edges(g, r)
            assert not closure.edge_set() & set(g.edges)
            assert is_valid_ranking(g.add_edges(closure), r)
            below = rng.randint(1, r.max_label + 1)
            assert closure_edges(g, r, below=below).edge_set() <= closure.edge_set()
            with pytest.raises(ValueError):
                closure_edges(g, Ranking(r.labels[:-1]))
            if g.edges:
                u, v = rng.choice(g.edges)
                labels = list(r.labels)
                labels[v - 1] = labels[u - 1]
                with pytest.raises(ValueError):
                    closure_edges(g, Ranking(tuple(labels)))


def closure_or_error(closure, g, r, below):
    """(edges, tags) of a closure, or ValueError when it raises one."""
    try:
        es = closure(g, r, below=below)
    except ValueError:
        return ValueError
    return es.edges, es.tags


class TestLevelWalkMatchesThePeel:
    def test_random_labelings(self):
        # A third of the labelings are valid elimination rankings, a third
        # have one label changed, a third are uniform; a few are short.
        rng = Random(15)
        mismatches, verdicts = [], {True: 0, False: 0}
        for _ in range(3000):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.random())
            labels = list(elimination_ranking(rng, g).labels)
            kind = rng.randrange(3)
            if kind == 1:
                labels[rng.randrange(n)] = rng.randint(1, n)
            elif kind == 2:
                labels = [rng.randint(1, rng.randint(1, n)) for _ in range(n)]
            if rng.random() < 0.02:
                labels.pop()
            r = Ranking(tuple(labels))
            for below in (None, rng.randint(1, n + 1)):
                want = closure_or_error(closure_by_peel, g, r, below)
                got = closure_or_error(closure_edges, g, r, below)
                if got != want:
                    mismatches.append((g, r, below, got, want))
            if len(labels) < n:
                with pytest.raises(ValueError):
                    is_valid_ranking(g, r)
                continue
            valid = want is not ValueError
            verdicts[valid] += 1
            if is_valid_ranking(g, r) != valid:
                mismatches.append((g, r, "is_valid_ranking", not valid, valid))
        assert mismatches == []
        assert min(verdicts.values()) > 1000


class TestEdgeSetInvariants:
    def test_sorted_unique_enforced(self):
        from rankmax import EdgeSet
        with pytest.raises(ValueError):
            EdgeSet(None, ((2, 3), (1, 2)), ("a", "b"))
        with pytest.raises(ValueError):
            EdgeSet(None, ((1, 2),), ())

    def test_json_shape(self):
        obj = family_good_edges(FamilySpec.path(3)).to_json_dict()
        assert obj["family"] == {"kind": "path", "k": 3}
        assert obj["edges"] == [[1, 4], [2, 4], [4, 6], [4, 7]]
        assert len(obj["clauses"]) == 4
