"""Byte-stable DOT and JSON emission for graphs, rankings, and edge sets."""

from __future__ import annotations

from .construct import EdgeSet
from .graph import Graph
from .ranking import FamilySpec, Ranking


def graph_to_dot(g: Graph, ranking: Ranking,
                 extra_edges: EdgeSet | None = None) -> str:
    """DOT text with ranking values as node labels; extra edges are drawn
    dashed so added edges stand apart from the host graph."""
    lines = ["graph G {", "  node [shape=circle]"]
    for v in g.vertices():
        lines.append(f'  v{v} [label="{ranking.label(v)}"]')
    for u, v in g.edges:
        lines.append(f"  v{u} -- v{v}")
    if extra_edges is not None:
        for u, v in extra_edges:
            lines.append(f"  v{u} -- v{v} [style=dashed]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def family_bundle(spec: FamilySpec, g: Graph, ranking: Ranking,
                  good: EdgeSet | None = None) -> dict:
    """The JSON object emitted by `generate` and `export --format json`."""
    out = {
        "family": spec.to_json_dict(),
        "graph": g.to_json_dict(),
        "ranking": ranking.to_json_dict(),
    }
    if good is not None:
        out["good_edges"] = good.to_json_dict()
    return out
