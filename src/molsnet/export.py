"""Graph exports.  Identical graphs always yield byte-identical output:
vertices are emitted part by part and edges in sorted order, with parallel
edges repeated.

Every format formats its edges from one stream of (tail, head) name pairs
with one run per part pair of a chain graph, in `sorted_edges` order, and
each run becomes text in one `str.join`, so no step runs once per edge in
Python.  The text is kept as a list of chunks and joined once at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from operator import floordiv, mod
from typing import Iterable, Iterator

from .graphs import CHAIN, PartiteGraph, part_label, vertex_name

FORMATS = ("dot", "edges", "json")

@dataclass(frozen=True)
class GraphExport:
    format: str
    content: str


def export_graph(graph: PartiteGraph, fmt: str) -> GraphExport:
    if fmt == "dot":
        chunks = _to_dot(graph)
    elif fmt == "edges":
        chunks = _to_edge_list(graph)
    elif fmt == "json":
        chunks = _to_json(graph)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")
    return GraphExport(fmt, "".join(chunks))


def _vertex_names(graph: PartiteGraph) -> list[list[str]]:
    """names[p][s] is vertex_name((p, s)); index 0 of each part is unused."""
    return [[""] + [vertex_name((p, symbol)) for symbol in range(1, size + 1)]
            for p, size in enumerate(graph.part_sizes)]


def _name_runs(graph: PartiteGraph, names: list[list[str]]) -> Iterator[Iterable[tuple[str, str]]]:
    """The edges as (tail, head) names in `sorted_edges` order, in nonempty runs.

    A chain graph gives one run per part pair, decoded from that pair's
    sorted keys tail * (n+1) + head; a complete multipartite graph gives
    one run walking `sorted_edges`, or none when it has a single part.
    """
    if graph.array is None:
        if graph.edge_count:
            yield ((names[p][u], names[q][v]) for (p, u), (q, v) in graph.sorted_edges())
        return
    base = repeat(graph.array.order + 1)
    for c, keys in enumerate(graph.sorted_edge_keys()):
        yield zip(map(names[c].__getitem__, map(floordiv, keys, base)),
                  map(names[c + 1].__getitem__, map(mod, keys, base)))


def _isolated_names(graph: PartiteGraph, names: list[list[str]]) -> list[str]:
    """Vertices on no edge, part by part: in a chain graph the symbols
    absent from their part's column; in a complete multipartite graph
    every vertex when there is a single part, otherwise none."""
    if graph.array is None:
        return names[0][1:] if graph.num_parts == 1 else []
    symbols = range(1, graph.array.order + 1)
    return [names[p][s] for p, column in enumerate(graph.array.columns)
            for s in sorted(set(symbols).difference(column))]


def _to_edge_list(graph: PartiteGraph) -> list[str]:
    # Isolated vertices get a bare declaration line so they are not lost.
    names = _vertex_names(graph)
    chunks = [f"{name}\n" for name in _isolated_names(graph, names)]
    for run in _name_runs(graph, names):
        chunks += ("\n".join(map(" ".join, run)), "\n")
    return chunks


def _to_dot(graph: PartiteGraph) -> list[str]:
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
    chunks = ["\n".join(lines), "\n"]
    for run in _name_runs(graph, names):
        chunks += ("  ", ";\n  ".join(map(f" {connector} ".join, run)), ";\n")
    chunks.append("}\n")
    return chunks


def _to_json(graph: PartiteGraph) -> list[str]:
    payload = {
        "kind": graph.kind,
        "directed": graph.kind == CHAIN,
        "parts": [
            {"label": part_label(p), "size": size}
            for p, size in enumerate(graph.part_sizes)
        ],
        "vertex_count": graph.vertex_count,
        "edge_count": graph.edge_count,
        "edges": [],
    }
    header = json.dumps(payload, indent=2)
    # Vertex names match [A-Z]+[0-9]+, which JSON string escaping leaves
    # unchanged, so each run is laid out as indent=2 would lay it out.
    runs = ('    [\n      "' + '"\n    ],\n    [\n      "'.join(map('",\n      "'.join, run))
            + '"\n    ]' for run in _name_runs(graph, _vertex_names(graph)))
    edges = ",\n".join(runs)
    if not edges:
        return [header, "\n"]
    # "edges" is the last key, so the header ends in its empty list.
    return [header.removesuffix("[]\n}"), "[\n", edges, "\n  ]\n}\n"]
