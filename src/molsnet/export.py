"""Graph exports.  Identical graphs always yield byte-identical output:
vertices are emitted part by part and edges in sorted order, with parallel
edges repeated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graphs import CHAIN, PartiteGraph, part_label, vertex_name

FORMATS = ("dot", "edges", "json")


@dataclass(frozen=True)
class GraphExport:
    format: str
    content: str


def export_graph(graph: PartiteGraph, fmt: str) -> GraphExport:
    if fmt == "dot":
        content = _to_dot(graph)
    elif fmt == "edges":
        content = _to_edge_list(graph)
    elif fmt == "json":
        content = _to_json(graph)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")
    return GraphExport(fmt, content)


def _vertex_names(graph: PartiteGraph) -> list[list[str]]:
    """names[p][s] is vertex_name((p, s)); index 0 of each part is unused."""
    return [[""] + [vertex_name((p, symbol)) for symbol in range(1, size + 1)]
            for p, size in enumerate(graph.part_sizes)]


def _to_edge_list(graph: PartiteGraph) -> str:
    # Isolated vertices get a bare declaration line so they are not lost.
    names = _vertex_names(graph)
    touched, lines = set(), []
    for u, v in graph.sorted_edges():
        touched.update((u, v))
        lines.append(f"{names[u[0]][u[1]]} {names[v[0]][v[1]]}")
    isolated = [names[p][s] for p, s in graph.vertices() if (p, s) not in touched]
    return "\n".join(isolated + lines) + "\n"


def _to_dot(graph: PartiteGraph) -> str:
    directed = graph.kind == CHAIN
    keyword, connector = ("digraph", "->") if directed else ("graph", "--")
    names = _vertex_names(graph)
    lines = [f"{keyword} G {{"]
    for p, part in enumerate(names):
        label = part_label(p)
        lines.append(f"  subgraph cluster_{label} {{")
        lines.append(f'    label="{label}";')
        lines.extend(f"    {name};" for name in part[1:])
        lines.append("  }")
    for u, v in graph.sorted_edges():
        lines.append(f"  {names[u[0]][u[1]]} {connector} {names[v[0]][v[1]]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_json(graph: PartiteGraph) -> str:
    names = _vertex_names(graph)
    payload = {
        "kind": graph.kind,
        "directed": graph.kind == CHAIN,
        "parts": [
            {"label": part_label(p), "size": size}
            for p, size in enumerate(graph.part_sizes)
        ],
        "vertex_count": graph.vertex_count,
        "edge_count": graph.edge_count,
        "edges": [[names[u[0]][u[1]], names[v[0]][v[1]]] for u, v in graph.sorted_edges()],
    }
    return json.dumps(payload, indent=2) + "\n"
