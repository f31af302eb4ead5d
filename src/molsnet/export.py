"""Graph exports.  Identical graphs always yield byte-identical output:
vertices are emitted part by part and edges in sorted order, with parallel
edges repeated.

Every format renders its edges as one run of text per part pair of a chain
graph, in `sorted_edges` order, and the formats differ only in the two
separators of a run.  A part pair that holds every symbol pair once is the
n x n grid, joined once per tail; any other is decoded from its sorted
keys and joined once per run.  The text is kept as a list of chunks and
joined once at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from operator import floordiv, mod
from typing import Iterator

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


def _edge_runs(graph: PartiteGraph, names: list[list[str]], pair_sep: str,
               line_sep: str) -> Iterator[str]:
    """The edges in `sorted_edges` order as text, in nonempty runs: each edge
    is tail + pair_sep + head, and line_sep goes between edges.

    A chain graph gives one run per part pair.  When the pair's n^2 keys are
    distinct, it holds all n^2 symbol pairs once each, so its sorted edges
    are the grid: every tail in order, each with every head in order.  Any
    other pair is decoded from its sorted keys tail * (n+1) + head.  A
    complete multipartite graph gives one run walking `sorted_edges`, or
    none when it has a single part.
    """
    if graph.array is None:
        if graph.edge_count:
            yield line_sep.join(pair_sep.join((names[p][u], names[q][v]))
                                for (p, u), (q, v) in graph.sorted_edges())
        return
    n = graph.array.order
    base = repeat(n + 1)
    for c, keys in enumerate(graph._edge_keys()):
        tails, heads = names[c], names[c + 1]
        if len(set(keys)) == n * n:
            yield _grid_run(tails[1:], heads[1:], pair_sep, line_sep)
        else:
            keys.sort()
            yield line_sep.join(map(pair_sep.join, zip(
                map(tails.__getitem__, map(floordiv, keys, base)),
                map(heads.__getitem__, map(mod, keys, base)))))


def _grid_run(tails: list[str], heads: list[str], pair_sep: str, line_sep: str) -> str:
    """Every (tail, head) pair, tails in order, each with every head in order."""
    return line_sep.join([tail + pair_sep + (line_sep + tail + pair_sep).join(heads)
                          for tail in tails])


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
    for run in _edge_runs(graph, names, " ", "\n"):
        chunks += (run, "\n")
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
    for run in _edge_runs(graph, names, f" {connector} ", ";\n  "):
        chunks += ("  ", run, ";\n")
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
    runs = ('    [\n      "' + run + '"\n    ]' for run in _edge_runs(
        graph, _vertex_names(graph), '",\n      "', '"\n    ],\n    [\n      "'))
    edges = ",\n".join(runs)
    if not edges:
        return [header, "\n"]
    # "edges" is the last key, so the header ends in its empty list.
    return [header.removesuffix("[]\n}"), "[\n", edges, "\n  ]\n}\n"]
