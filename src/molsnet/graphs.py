"""Multipartite graphs: channel graphs built from tuple arrays, plus the
complete multipartite and Turan constructions used to bound them.

Vertices are (part, symbol) pairs with 0-based part positions and 1-based
symbols; parts are displayed as A, B, ..., Z, AA, AB, ...  Chain graphs
keep their edges directed from each part to the next; bipartiteness and
degrees ignore direction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from .errors import NotOrthogonalError
from .orthogonality import Cell, TupleArray, cell_of, is_t_orthogonal, stacked_keys

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
        """Every edge once per occurrence, ascending, so parallel edges come
        out as adjacent runs.  A chain graph's edges are decoded from
        `sorted_edge_keys`, which the exports read too; the reports count
        columns."""
        if self.array is not None:
            base = self.array.order + 1
            for c, keys in enumerate(self.sorted_edge_keys()):
                for key in keys:
                    u, v = divmod(key, base)
                    yield (c, u), (c + 1, v)
            return
        for p, u in self.vertices():
            for q in range(p + 1, self.num_parts):
                for v in range(1, self.part_sizes[q] + 1):
                    yield (p, u), (q, v)

    def sorted_edge_keys(self) -> Iterator[list[int]]:
        """Per part pair c of a chain graph, the keys u * (n+1) + v of its
        edges (c, u) -> (c+1, v), ascending: stacked keys sort as their
        symbol pairs do, so this is the one definition of the edge order."""
        n, columns = self.array.order, self.array.columns
        for c in range(self.array.arity - 1):
            keys = stacked_keys(columns[c], columns[c + 1], n)
            keys.sort()
            yield keys

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.sorted_edges())

    @property
    def chains(self) -> tuple[ChannelChain, ...]:
        """One chain per cell, in row-major cell order; none for multipartite graphs."""
        if self.array is None:
            return ()
        n = self.array.order
        return tuple(ChannelChain(cell_of(k, n), symbols)
                     for k, symbols in enumerate(zip(*self.array.columns)))

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
    """Parallel-edge report for a chain graph, sorted by endpoints.

    The edges between parts c and c+1 are the symbol pairs of columns c
    and c+1, so one count of their stacked keys per part pair gives every
    multiplicity; keys sort as their pairs do.
    """
    if graph.kind != CHAIN:
        raise ValueError("edge multiplicity applies to chain-construction graphs")
    n, columns = graph.array.order, graph.array.columns
    duplicated = []
    for c in range(graph.array.arity - 1):
        counts = Counter(stacked_keys(columns[c], columns[c + 1], n))
        if len(counts) < n * n:
            repeated = sorted(item for item in counts.items() if item[1] > 1)
            duplicated += [(((c, key // (n + 1)), (c + 1, key % (n + 1))), count)
                           for key, count in repeated]
    return MultiplicityReport(max((count for _, count in duplicated), default=1),
                              tuple(duplicated))


@dataclass(frozen=True)
class BipartitenessReport:
    bipartite: bool
    coloring: tuple[tuple[Vertex, int], ...] | None = None
    odd_walk: tuple[Vertex, ...] | None = None


def is_bipartite(graph: PartiteGraph) -> BipartitenessReport:
    """Two-color the graph, ignoring edge direction and multiplicity.

    Chain graphs join only consecutive parts, so do complete multipartite
    graphs of at most two parts: part parity is a proper coloring.  Three or
    more complete parts hold the triangle B1-A1-C1, the odd closed walk.
    """
    if graph.kind == CHAIN or graph.num_parts <= 2:
        return BipartitenessReport(True, tuple((v, v[0] % 2) for v in graph.vertices()), None)
    return BipartitenessReport(False, None, ((1, 1), (0, 1), (2, 1), (1, 1)))


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
    counted), and whether the graph is free of parallel edges.

    In a chain graph each cell holding s at part p sends one edge to each
    neighbouring part, so the degree of (p, s) is the count of s in column
    p, once in the end parts and twice inside; the graph is simple when
    every consecutive column pair holds n^2 distinct symbol pairs.  In a
    complete multipartite graph a vertex meets every vertex outside its part.
    """
    if graph.array is None:
        total = graph.vertex_count
        degrees = tuple((total - size,) * size for size in graph.part_sizes)
        return GraphStats(graph.kind, total, graph.edge_count, graph.part_sizes, degrees, True)
    n, t, columns = graph.array.order, graph.array.arity, graph.array.columns
    degrees = []
    for p, column in enumerate(columns):
        counts = Counter(column)
        neighbours = 1 if p in (0, t - 1) else 2
        degrees.append(tuple(counts[s] * neighbours for s in range(1, n + 1)))
    simple = all(len(set(stacked_keys(columns[c], columns[c + 1], n))) == n * n
                 for c in range(t - 1))
    return GraphStats(graph.kind, graph.vertex_count, graph.edge_count, graph.part_sizes,
                      tuple(degrees), simple)


def channels_through(graph: PartiteGraph, vertex: Vertex) -> tuple[ChannelChain, ...]:
    """All chains whose path visits the vertex, in cell order."""
    if graph.kind != CHAIN:
        raise ValueError("channels exist only in chain-construction graphs")
    if not graph.has_vertex(vertex):
        raise ValueError(f"unknown vertex {vertex!r}")
    part, symbol = vertex
    n, columns = graph.array.order, graph.array.columns
    return tuple(ChannelChain(cell_of(k, n), tuple(column[k] for column in columns))
                 for k, s in enumerate(columns[part]) if s == symbol)
