import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmax import (FamilySpec, Graph, RankOracle, bits, components_masks,
                     family_good_edges, family_ranking)
from helpers import bfs_components_reference, cycle_graph, mask_of, path_graph

from rankmax.graph import edge


def comps_as_sets(g, subset):
    return [set(bits(m)) for m in components_masks(g.adjacency, subset)]


class TestConstruction:
    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(1, 2), (2, 1), (1, 2)])
        assert g.edges == ((1, 2),)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 4)])

    def test_orders_beyond_a_machine_word(self):
        # Vertex sets are unbounded Python ints, so no order ceiling applies.
        cycle = cycle_graph(64)
        assert cycle.n == 64 and cycle.has_edge(1, 64)
        assert path_graph(127).edge_count == 126
        check = RankOracle().verify_simultaneous(
            cycle, family_good_edges(FamilySpec.cycle(6)).edges,
            witness=family_ranking(FamilySpec.cycle(6)))
        assert check.ok and check.mode == "certificate"
        assert check.base_rank == check.union_rank == 7

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_edges_sorted_canonically(self):
        g = Graph(4, [(4, 2), (3, 1)])
        assert g.edges == ((1, 3), (2, 4))

    def test_graphs_of_different_order_are_unequal(self):
        assert Graph(3) != Graph(4)
        assert len({Graph(3), Graph(4)}) == 2

    def test_adjacency_consistent_with_edges(self):
        g = Graph(5, [(1, 2), (2, 4), (3, 5)])
        for u, v in g.edges:
            assert g.has_edge(u, v) and g.has_edge(v, u)
            assert v in bits(g.adjacency[u]) and u in bits(g.adjacency[v])

    def test_pairs_outside_the_vertices_are_not_edges(self):
        g = cycle_graph(3)
        for u, v in [(1, -2), (3, -1), (-1, 3), (0, 1), (1, 0), (1, 4), (4, 1)]:
            assert not g.has_edge(u, v)


class TestComponents:
    def test_path_minus_center_splits_in_two(self):
        g = path_graph(15)
        subset = mask_of(v for v in range(1, 16) if v != 8)
        assert comps_as_sets(g, subset) == [set(range(1, 8)), set(range(9, 16))]

    def test_empty_subset(self):
        assert components_masks(path_graph(7).adjacency, 0) == []

    def test_path_minus_three_cuts(self):
        g = path_graph(15)
        subset = set(range(1, 16)) - {4, 8, 12}
        got = comps_as_sets(g, mask_of(subset))
        assert got == bfs_components_reference(g, subset)
        assert [len(c) for c in got] == [3, 3, 3, 3]

    def test_matches_reference_on_induced_views(self):
        g = cycle_graph(12).add_edges([(1, 5), (2, 9)])
        subset = {1, 2, 3, 5, 6, 9, 10, 11}
        assert comps_as_sets(g, mask_of(subset)) == bfs_components_reference(g, subset)


class TestNonEdges:
    def test_path3(self):
        assert path_graph(3).non_edges() == [(1, 3)]

    def test_complete_graph_has_none(self):
        g = Graph(4, [(u, v) for u in range(1, 4) for v in range(u + 1, 5)])
        assert g.non_edges() == []

    def test_path7_count(self):
        assert len(path_graph(7).non_edges()) == 7 * 6 // 2 - 6


class TestAddEdges:
    def test_empty_addition(self):
        g = path_graph(7)
        assert g.add_edges([]) == g

    def test_single_edge(self):
        assert path_graph(7).add_edges([(1, 4)]).edge_count == 7

    def test_full_path_construction_addition(self):
        g = path_graph(15).add_edges(family_good_edges(FamilySpec.path(4)).edges)
        assert g.edge_count == 14 + 20

    def test_duplicates_ignored(self):
        g = path_graph(5).add_edges([(1, 2), (1, 3), (3, 1)])
        assert g.edge_count == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            path_graph(5).add_edges([(1, 6)])

    def test_one_shot_generator(self):
        g = path_graph(5).add_edges((u, u + 2) for u in (3, 1, 2))
        assert g == Graph(5, [*path_graph(5).edges, (1, 3), (2, 4), (3, 5)])

    @pytest.mark.parametrize("pair", [(2, 2), (0, 3)], ids=["self-loop", "end-0"])
    def test_self_loop_and_zero_end_rejected(self, pair):
        with pytest.raises(ValueError):
            path_graph(5).add_edges([pair])


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(0, 2 ** 8 - 1))
    def test_components_partition_subset(self, g, raw):
        subset = mask_of(v for v in g.vertices() if (raw >> v) & 1)
        comps = components_masks(g.adjacency, subset)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == subset

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(0, 2 ** 8 - 1))
    def test_no_edges_between_components(self, g, raw):
        subset = mask_of(v for v in g.vertices() if (raw >> v) & 1)
        comps = components_masks(g.adjacency, subset)
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                for u in bits(a):
                    assert g.adjacency[u] & b == 0

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_edges_and_non_edges_partition_pairs(self, g):
        n = g.n
        everything = {edge(u, v) for u in range(1, n) for v in range(u + 1, n + 1)}
        assert set(g.edges) | set(g.non_edges()) == everything
        assert set(g.edges) & set(g.non_edges()) == set()

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_edges_and_non_edges_are_sorted(self, g):
        # Verdict lists follow `non_edges()` order, so the order is pinned
        # and not only the set.
        everything = [(u, v) for u in range(1, g.n) for v in range(u + 1, g.n + 1)]
        for pairs in (list(g.edges), g.non_edges()):
            assert all(a < b for a, b in zip(pairs, pairs[1:]))
        assert sorted([*g.edges, *g.non_edges()]) == everything

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(0, 2 ** 8 - 1))
    def test_components_in_reference_order(self, g, raw):
        subset = {v for v in g.vertices() if (raw >> v) & 1}
        assert comps_as_sets(g, mask_of(subset)) == bfs_components_reference(g, subset)

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.randoms(use_true_random=False))
    def test_same_pairs_give_an_equal_graph(self, g, rng):
        pairs = [(v, u) for u, v in g.edges] + rng.sample(g.edges, len(g.edges) // 2)
        rng.shuffle(pairs)
        other = Graph(g.n, pairs)
        assert other == g and hash(other) == hash(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_component_induction_is_idempotent(self, g):
        for comp in components_masks(g.adjacency, g.members):
            assert components_masks(g.adjacency, comp) == [comp]
