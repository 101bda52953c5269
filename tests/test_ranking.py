import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmax import (FamilySpec, Graph, Ranking, build_family,
                     family_good_edges, family_ranking, is_valid_ranking,
                     position_label)
from rankmax.construct import _next_center
from helpers import all_graphs, path_graph, valid_by_path_definition


class TestPositionLabel:
    def test_exact_power_position(self):
        assert position_label(4) == 3

    def test_odd_position(self):
        assert position_label(1) == 1

    def test_composite_position(self):
        assert position_label(12) == 3
        assert position_label(12) == family_ranking(FamilySpec.path(4)).label(12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            position_label(0)


class TestFamilyRanking:
    @pytest.mark.parametrize("spec, labels", [
        (FamilySpec.path(1), (1,)),
        (FamilySpec.path(3), (1, 2, 1, 3, 1, 2, 1)),
        (FamilySpec.cycle(2), (1, 2, 1, 3)),
        (FamilySpec.cycle(3), (1, 2, 1, 3, 1, 2, 1, 4)),
        (FamilySpec.multipartite(1, 1), (1, 2)),
        (FamilySpec.multipartite(2, 2), (1, 1, 2, 3)),
        (FamilySpec.multipartite(3, 2), (1, 1, 1, 2, 3)),
        (FamilySpec.joined(2), (1, 2, 1, 3)),
    ])
    def test_pinned_labels(self, spec, labels):
        assert family_ranking(spec).labels == labels

    def test_spot_labels(self):
        path = family_ranking(FamilySpec.path(4))
        assert (path.label(8), path.label(12)) == (4, 3)
        assert family_ranking(FamilySpec.cycle(4)).label(16) == 5
        assert family_ranking(FamilySpec.joined(3)).max_label == 4

    def test_multipartite_labels_the_largest_part_1(self):
        spec = FamilySpec.multipartite(2, 5, 3)
        assert spec.parts == (5, 3, 2)
        assert family_ranking(spec).labels == (1, 1, 1, 1, 1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize("spec", [FamilySpec.path(k) for k in range(1, 9)]
                             + [FamilySpec.cycle(k) for k in range(2, 6)]
                             + [FamilySpec.multipartite(*p) for p in (
                                 (1, 1), (2, 2), (3, 2), (5, 3, 2))]
                             + [FamilySpec.joined(n) for n in range(2, 6)],
                             ids=FamilySpec.describe)
    def test_valid_with_rank_number_labels(self, spec):
        r = family_ranking(spec)
        assert len(r.labels) == spec.vertex_count
        if spec.kind == "path":
            rank = spec.k
        elif spec.kind == "cycle":
            rank = spec.k + 1
        elif spec.kind == "multipartite":
            rank = sum(spec.parts) - spec.parts[0] + 1
        else:
            rank = spec.n + 1
        assert r.max_label == rank
        assert is_valid_ranking(build_family(spec), r)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_path_palindromic_with_every_label_up_to_k(self, k):
        r = family_ranking(FamilySpec.path(k))
        assert r.labels == r.labels[::-1]
        assert set(r.labels) == set(range(1, k + 1))


class TestValidityChecker:
    def test_standard_path_ranking_accepted(self):
        assert is_valid_ranking(path_graph(7), Ranking((1, 2, 1, 3, 1, 2, 1)))

    def test_repeating_twos_rejected(self):
        assert not is_valid_ranking(path_graph(7), Ranking((1, 2, 1, 2, 1, 2, 1)))

    def test_standard_ranking_survives_full_addition(self):
        g = path_graph(15).add_edges(family_good_edges(FamilySpec.path(4)).edges)
        assert is_valid_ranking(g, family_ranking(FamilySpec.path(4)))

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError):
            is_valid_ranking(path_graph(4), Ranking((1, 2, 1)))

    def test_adjacent_equal_labels_rejected(self):
        assert not is_valid_ranking(path_graph(2), Ranking((1, 1)))

    def test_matches_path_definition_exhaustively(self):
        # Every graph on up to 4 vertices, every labeling with labels <= n.
        for n in range(1, 5):
            for g in all_graphs(n):
                for combo in itertools.product(range(1, n + 1), repeat=n):
                    expected = valid_by_path_definition(
                        g, dict(zip(range(1, n + 1), combo)))
                    assert is_valid_ranking(g, Ranking(combo)) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_path_definition_randomized(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
        mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
        g = Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        labels = tuple(data.draw(st.integers(1, n)) for _ in range(n))
        expected = valid_by_path_definition(g, dict(zip(range(1, n + 1), labels)))
        assert is_valid_ranking(g, Ranking(labels)) == expected


class TestLabelOrderingBelowCenters:
    def test_every_position_below_a_center_has_smaller_label(self):
        # For odd m and each s, all labels strictly between position m and
        # the next multiple of 2^(s+1) stay below that position's label.
        for m in range(5, 64, 2):
            t = m.bit_length() - 1
            for s in range(1, t):
                w = _next_center(m, s)
                for j in range(m + 1, w):
                    assert position_label(j) < position_label(w)


class TestBuildFamily:
    def test_path_counts(self):
        g = build_family(FamilySpec.path(3))
        assert (g.n, g.edge_count) == (7, 6)

    def test_cycle_counts_and_wraparound(self):
        g = build_family(FamilySpec.cycle(4))
        assert (g.n, g.edge_count) == (16, 16)
        assert g.has_edge(1, 16)

    def test_joined_counts_and_bridge(self):
        g = build_family(FamilySpec.joined(5))
        assert (g.n, g.edge_count) == (10, 2 * 10 + 1)
        assert g.has_edge(1, 10)
        assert not g.has_edge(5, 10)

    def test_multipartite_structure(self):
        g = build_family(FamilySpec.multipartite(3, 2))
        assert g.edge_count == 6
        assert not g.has_edge(1, 2) and g.has_edge(1, 4)


class TestFamilySpecValidation:
    def test_path_needs_k_at_least_1(self):
        with pytest.raises(ValueError):
            FamilySpec.path(0)

    def test_cycle_needs_k_at_least_2(self):
        with pytest.raises(ValueError):
            FamilySpec.cycle(1)

    def test_multipartite_needs_two_parts(self):
        with pytest.raises(ValueError):
            FamilySpec.multipartite(4)

    def test_joined_needs_n_at_least_2(self):
        with pytest.raises(ValueError):
            FamilySpec.joined(1)
