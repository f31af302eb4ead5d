"""Multipartite graphs: channel graphs built from tuple arrays, plus the
complete multipartite and Turan constructions used to bound them.

Vertices are (part, symbol) pairs with 0-based part positions and 1-based
symbols; parts are displayed as A, B, ..., Z, AA, AB, ...  Chain graphs
keep their edges directed from each part to the next; bipartiteness and
degrees ignore direction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from math import comb
from typing import Iterator, Sequence

from .errors import NotOrthogonalError
from .orthogonality import Cell, TupleArray, is_t_orthogonal

Vertex = tuple[int, int]          # (part position 0-based, symbol 1-based)
Edge = tuple[Vertex, Vertex]

CHAIN = "chain-construction"
MULTIPARTITE = "complete-multipartite"


def part_label(index: int) -> str:
    """0 -> A, 25 -> Z, 26 -> AA, spreadsheet style."""
    if index < 0:
        raise ValueError(f"part index must be nonnegative, got {index}")
    label = ""
    while True:
        label = chr(ord("A") + index % 26) + label
        index = index // 26 - 1
        if index < 0:
            return label


def parse_part_label(label: str) -> int:
    """Inverse of part_label; "A" -> 0, "AA" -> 26."""
    if not label or any(not "A" <= ch <= "Z" for ch in label):
        raise ValueError(f"part label must be uppercase letters, got {label!r}")
    index = 0
    for ch in label:
        index = index * 26 + (ord(ch) - ord("A") + 1)
    return index - 1


def vertex_name(vertex: Vertex) -> str:
    return f"{part_label(vertex[0])}{vertex[1]}"


@dataclass(frozen=True)
class ChannelChain:
    """One cell's tuple read as a path visiting every part in order."""

    cell: Cell
    symbols: tuple[int, ...]

    @property
    def path(self) -> tuple[Vertex, ...]:
        return tuple(enumerate(self.symbols))

    def describe(self) -> str:
        return " -> ".join(vertex_name(v) for v in self.path)


@dataclass(frozen=True)
class PartiteGraph:
    """A graph on parts of given sizes; edges may repeat (multigraph).

    A chain-construction graph is its tuple array, each cell one directed
    chain through consecutive parts; a complete multipartite graph is its
    part sizes.  Edges are derived on demand, never stored.
    """

    kind: str
    part_sizes: tuple[int, ...]
    array: TupleArray | None = None

    def __post_init__(self):
        if self.kind not in (CHAIN, MULTIPARTITE):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if not self.part_sizes or any(size < 1 for size in self.part_sizes):
            raise ValueError("every part must have at least one vertex")
        if (self.kind == CHAIN) != (self.array is not None):
            raise ValueError("chain graphs need a tuple array; multipartite graphs take none")
        if self.array is not None and self.part_sizes != (self.array.order,) * self.array.arity:
            raise ValueError(f"part sizes {self.part_sizes} do not match the array")

    def sorted_edges(self) -> Iterator[Edge]:
        """Every edge once per occurrence, ascending.  The only code that knows
        edge order; parallel edges come out as adjacent runs."""
        if self.array is not None:
            columns = list(zip(*(entry for row in self.array.grid for entry in row)))
            for c in range(self.array.arity - 1):
                for u, v in sorted(zip(columns[c], columns[c + 1])):
                    yield (c, u), (c + 1, v)
            return
        for p, u in self.vertices():
            for q in range(p + 1, self.num_parts):
                for v in range(1, self.part_sizes[q] + 1):
                    yield (p, u), (q, v)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.sorted_edges())

    @property
    def chains(self) -> tuple[ChannelChain, ...]:
        """One chain per cell, in row-major cell order; none for multipartite graphs."""
        grid = self.array.grid if self.array is not None else ()
        return tuple(ChannelChain((i, j), symbols) for i, row in enumerate(grid, start=1)
                     for j, symbols in enumerate(row, start=1))

    @property
    def num_parts(self) -> int:
        return len(self.part_sizes)

    @property
    def part_labels(self) -> tuple[str, ...]:
        return tuple(part_label(p) for p in range(self.num_parts))

    def vertices(self) -> list[Vertex]:
        return [(p, s) for p, size in enumerate(self.part_sizes) for s in range(1, size + 1)]

    @property
    def vertex_count(self) -> int:
        return sum(self.part_sizes)

    @property
    def edge_count(self) -> int:
        """n^2 (t-1) for a chain graph; the sum of s_p * s_q over p < q otherwise."""
        if self.array is not None:
            return self.array.order ** 2 * (self.array.arity - 1)
        return sum(size * (self.vertex_count - size) for size in self.part_sizes) // 2

    def has_vertex(self, vertex: Vertex) -> bool:
        p, s = vertex
        return 0 <= p < self.num_parts and 1 <= s <= self.part_sizes[p]


def build_partite_graph(array: TupleArray) -> PartiteGraph:
    """Turn a t-orthogonal array into its t-partite channel graph.

    Each cell tuple (a1, ..., at) becomes the chain (A,a1) -> (B,a2) -> ...
    and contributes t-1 directed edges.  Arrays that are not t-orthogonal
    are rejected: a repeated tuple would be a repeated channel.
    """
    report = is_t_orthogonal(array)
    if not report.is_orthogonal:
        raise NotOrthogonalError(report)
    return PartiteGraph(CHAIN, (array.order,) * array.arity, array)


@dataclass(frozen=True)
class MultiplicityReport:
    max_multiplicity: int
    duplicated_edges: tuple[tuple[Edge, int], ...]


def edge_multiplicity(graph: PartiteGraph) -> MultiplicityReport:
    """Parallel-edge report for a chain graph, sorted by endpoints."""
    if graph.kind != CHAIN:
        raise ValueError("edge multiplicity applies to chain-construction graphs")
    runs = ((edge, sum(1 for _ in run)) for edge, run in groupby(graph.sorted_edges()))
    duplicated = tuple((edge, count) for edge, count in runs if count > 1)
    return MultiplicityReport(max((count for _, count in duplicated), default=1), duplicated)


@dataclass(frozen=True)
class BipartitenessReport:
    bipartite: bool
    coloring: tuple[tuple[Vertex, int], ...] | None = None
    odd_walk: tuple[Vertex, ...] | None = None


def is_bipartite(graph: PartiteGraph) -> BipartitenessReport:
    """Two-color the graph, ignoring edge direction and multiplicity.

    Success returns a proper coloring; failure returns a closed walk with
    an odd number of edges as the certificate.
    """
    adjacency: dict[Vertex, set[Vertex]] = {v: set() for v in graph.vertices()}
    for u, v in graph.sorted_edges():
        adjacency[u].add(v)
        adjacency[v].add(u)
    color: dict[Vertex, int] = {}
    parent: dict[Vertex, Vertex | None] = {}
    for root in graph.vertices():
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(adjacency[u]):
                if w not in color:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    return BipartitenessReport(False, None, _odd_closed_walk(u, w, parent))
    return BipartitenessReport(True, tuple(sorted(color.items())), None)


def _odd_closed_walk(u: Vertex, v: Vertex, parent: dict) -> tuple[Vertex, ...]:
    # Walk u -> root -> v along tree edges, then close with the edge (v, u).
    # depth(u) and depth(v) share parity, so the edge count is odd.
    up = [u]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    down = [v]
    while parent[down[-1]] is not None:
        down.append(parent[down[-1]])
    return tuple(up + down[::-1][1:] + [u])


def make_complete_multipartite(sizes: Sequence[int]) -> PartiteGraph:
    """Complete multipartite graph: one edge per cross-part vertex pair."""
    return PartiteGraph(MULTIPARTITE, tuple(int(size) for size in sizes))


def make_turan_graph(m: int, n: int) -> PartiteGraph:
    """Balanced complete m-partite graph on n vertices.

    The n mod m parts of size ceil(n/m) come first.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    small, extra = divmod(n, m)
    sizes = (small + 1,) * extra + (small,) * (m - extra)
    return make_complete_multipartite(sizes)


def turan_edge_count(m: int, n: int) -> int:
    """Closed form C(n-k, 2) + (m-1) * C(k+1, 2) with k = n // m."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    k = n // m
    return comb(n - k, 2) + (m - 1) * comb(k + 1, 2)


def complete_bipartite(r: int, s: int) -> PartiteGraph:
    """K_{r,s}: parts of sizes r and s, one edge per cross pair."""
    if r < 1 or s < 1:
        raise ValueError(f"part sizes must be positive, got {r} and {s}")
    return make_complete_multipartite((r, s))


@dataclass(frozen=True)
class GraphStats:
    kind: str
    vertex_count: int
    edge_count: int
    part_sizes: tuple[int, ...]
    degree_sequences: tuple[tuple[int, ...], ...]
    simple: bool


def graph_stats(graph: PartiteGraph) -> GraphStats:
    """Counts, per-part degree sequences (direction ignored, multiplicity
    counted), and whether the graph is free of parallel edges."""
    degree = [[0] * (size + 1) for size in graph.part_sizes]
    simple, previous = True, None
    for edge in graph.sorted_edges():
        (p, u), (q, v) = edge
        degree[p][u] += 1
        degree[q][v] += 1
        simple = simple and edge != previous    # parallel copies are adjacent
        previous = edge
    return GraphStats(graph.kind, graph.vertex_count, graph.edge_count, graph.part_sizes,
                      tuple(tuple(part[1:]) for part in degree), simple)


def channels_through(graph: PartiteGraph, vertex: Vertex) -> tuple[ChannelChain, ...]:
    """All chains whose path visits the vertex, in cell order."""
    if graph.kind != CHAIN:
        raise ValueError("channels exist only in chain-construction graphs")
    if not graph.has_vertex(vertex):
        raise ValueError(f"unknown vertex {vertex!r}")
    part, symbol = vertex
    return tuple(chain for chain in graph.chains if chain.symbols[part] == symbol)
