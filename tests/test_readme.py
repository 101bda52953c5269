"""The README's Library example runs against the current API, and the
public names of that API are pinned."""

import re
import types
from pathlib import Path

import rankmax

README = Path(__file__).resolve().parent.parent / "README.md"

# Adding or dropping a public name is a deliberate edit of this list.
PUBLIC_NAMES = [
    "CapExceeded", "EdgeSet", "EdgeVerdict", "FamilySpec", "Graph",
    "RankOracle", "Ranking", "SearchStats", "SimultaneousCheck",
    "all_levels_good_edges", "bits", "build_family", "closure_edges",
    "components_masks", "edge", "family_good_edges", "family_rank_value",
    "family_ranking", "flip_bit", "is_valid_ranking", "longest_path_length",
    "mu_path_recurrence", "mu_value", "multipartite_forbidden_edges",
    "next_center", "position_label", "trailing_zeros",
]


def test_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert ("assert good.edges == family_good_edges(FamilySpec.path(4)).edges"
            in code)
    exec(code, {})


def test_public_names_are_pinned():
    public = sorted(name for name, value in vars(rankmax).items()
                    if not name.startswith("_")
                    and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_NAMES
