"""Vertex rankings, exact rank numbers, and maximal rank-preserving edge
additions for paths, cycles, complete multipartite graphs, and joined
cliques."""

from .construct import (EdgeSet, all_levels_good_edges, closure_edges,
                        family_good_edges, flip_bit, mu_path_recurrence,
                        mu_value, multipartite_forbidden_edges, next_center)
from .graph import Graph, bits, components_masks, edge
from .oracle import (CapExceeded, EdgeVerdict, RankOracle, SearchStats,
                     SimultaneousCheck, longest_path_length)
from .ranking import (FamilySpec, Ranking, build_family, family_rank_value,
                      family_ranking, is_valid_ranking, position_label,
                      trailing_zeros)

__version__ = "0.1.0"
