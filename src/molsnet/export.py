"""Graph exports.  Identical graphs always yield byte-identical output:
vertices are emitted part by part and edges in sorted order, with parallel
edges repeated.

Every format renders its edges as one run of text per part pair of a chain
graph, in `sorted_edges` order, and the formats differ only in the two
separators of a run.  A run is joined tail by tail from the graph's heads
per tail (`PartiteGraph._tail_heads`).  The text is kept as a list of
chunks and joined once at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .graphs import CHAIN, PartiteGraph, _vertex_names, part_label
from .squares import _full


@dataclass(frozen=True)
class GraphExport:
    format: str
    content: str


def export_graph(graph: PartiteGraph, fmt: str) -> GraphExport:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")
    return GraphExport(fmt, "".join(_WRITERS[fmt](graph)))


def _edge_runs(graph: PartiteGraph, names: list[list[str]], pair_sep: str,
               line_sep: str) -> Iterator[str]:
    """The edges in `sorted_edges` order as text, in nonempty runs: each edge
    is tail + pair_sep + head, and line_sep goes between edges.

    A chain graph gives one run per part pair, joined tail by tail from its
    heads per tail; a tail holding every head once joins the part's name
    list itself.  A complete multipartite graph gives one run walking
    `sorted_edges`, or none when it has a single part.
    """
    if graph.array is None:
        if graph.edge_count:
            yield line_sep.join(pair_sep.join((names[p][u], names[q][v]))
                                for (p, u), (q, v) in graph.sorted_edges())
        return
    for c, (full, tail_heads) in enumerate(graph._tail_heads()):
        heads = names[c + 1]
        every_head, name_of = heads[1:], heads.__getitem__
        yield line_sep.join([
            tail + pair_sep + (line_sep + tail + pair_sep).join(
                every_head if symbols is full else map(name_of, symbols))
            for tail, symbols in zip(names[c][1:], tail_heads) if symbols])


def _isolated_names(graph: PartiteGraph, names: list[list[str]]) -> list[str]:
    """Vertices on no edge, part by part: in a chain graph the symbols
    absent from their part's column, ascending; in a complete multipartite
    graph every vertex when there is a single part, otherwise none.

    Up to order 255 (squares._full) a column is bytes, and deleting it from
    bytes 1..n leaves its absent symbols in order, in one pass at C speed;
    above it they are a set difference, sorted.
    """
    if graph.array is None:
        return names[0][1:] if graph.num_parts == 1 else []
    n = graph.array.order
    full = _full(n)
    return [names[p][s] for p, column in enumerate(graph.array.columns)
            for s in (full.translate(None, column) if full else
                      sorted(set(range(1, n + 1)).difference(column)))]


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


# Format name to writer, in the order argparse lists the choices.
_WRITERS = {"dot": _to_dot, "edges": _to_edge_list, "json": _to_json}
FORMATS = tuple(_WRITERS)
