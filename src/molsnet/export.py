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


def _to_edge_list(graph: PartiteGraph) -> str:
    # Isolated vertices get a bare declaration line so they are not lost.
    touched, lines = set(), []
    for u, v in graph.sorted_edges():
        touched.update((u, v))
        lines.append(f"{vertex_name(u)} {vertex_name(v)}")
    isolated = [vertex_name(v) for v in graph.vertices() if v not in touched]
    return "\n".join(isolated + lines) + "\n"


def _to_dot(graph: PartiteGraph) -> str:
    directed = graph.kind == CHAIN
    keyword, connector = ("digraph", "->") if directed else ("graph", "--")
    lines = [f"{keyword} G {{"]
    for p, size in enumerate(graph.part_sizes):
        label = part_label(p)
        lines.append(f"  subgraph cluster_{label} {{")
        lines.append(f'    label="{label}";')
        for symbol in range(1, size + 1):
            lines.append(f"    {label}{symbol};")
        lines.append("  }")
    for u, v in graph.sorted_edges():
        lines.append(f"  {vertex_name(u)} {connector} {vertex_name(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_json(graph: PartiteGraph) -> str:
    payload = {
        "kind": graph.kind,
        "directed": graph.kind == CHAIN,
        "parts": [
            {"label": part_label(p), "size": size}
            for p, size in enumerate(graph.part_sizes)
        ],
        "vertex_count": graph.vertex_count,
        "edge_count": graph.edge_count,
        "edges": [[vertex_name(u), vertex_name(v)] for u, v in graph.sorted_edges()],
    }
    return json.dumps(payload, indent=2) + "\n"
