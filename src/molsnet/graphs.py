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
from functools import cache
from itertools import chain, compress, pairwise, repeat
from math import comb
from operator import add, floordiv, gt, mod
from typing import Iterator, Sequence

from .errors import InputError, NotOrthogonalError
from .orthogonality import Cell, Column, TupleArray, _pair_columns, _runs, cell_of, is_t_orthogonal
from .squares import _full, _permutes, _rows

Vertex = tuple[int, int]          # (part position 0-based, symbol 1-based)
Edge = tuple[Vertex, Vertex]

CHAIN = "chain-construction"
MULTIPARTITE = "complete-multipartite"


@cache
def part_label(index: int) -> str:
    """0 -> A, 25 -> Z, 26 -> AA, spreadsheet style; each label is derived
    once per process, since vertex names repeat it for every symbol."""
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


def _vertex_names(graph: PartiteGraph) -> list[list[str]]:
    """names[p][s] is vertex_name((p, s)); index 0 of each part is unused."""
    return [[""] + [vertex_name((p, symbol)) for symbol in range(1, size + 1)]
            for p, size in enumerate(graph.part_sizes)]


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
        out as adjacent runs: the one definition of the edge order.  A chain
        graph's edges (c, u) -> (c+1, v) are read from _tail_heads: part pair
        by part pair, tail by tail, each tail's heads ascending."""
        if self.array is not None:
            for c, (_, tail_heads) in enumerate(self._tail_heads()):
                for u, heads in enumerate(tail_heads, 1):
                    for v in heads:
                        yield (c, u), (c + 1, v)
            return
        for p, u in self.vertices():
            for q in range(p + 1, self.num_parts):
                for v in range(1, self.part_sizes[q] + 1):
                    yield (p, u), (q, v)

    def _part_pairs(self) -> Iterator[tuple[bytes | None, list]]:
        """Per part pair c of a chain graph, the pair by the one route rule
        that every reader of its edges (c, u) -> (c+1, v) follows, as its
        heads per tail: pair[u - 1] holds the heads v of tail u's edges, one
        per edge, on both routes.

        Row route: up to order 255 (squares._full), where every column is
        bytes, when every row of column c is a permutation of 1..n
        (squares._permutes), (full, columns), with full bytes 1..n and
        columns the pair's stride columns (orthogonality._pair_columns):
        columns[u - 1] holds the heads of tail u's n edges, one per row.
        Key route, every other part pair (an order above 255, or a row of
        column c that is no permutation): (None, heads), with heads[u - 1]
        the heads of tail u's edges in cell order (_heads_by_tail), empty
        when u is absent from column c.
        """
        n, columns = self.array.order, self.array.columns
        full = _full(n)
        rows = (_rows(column, n) if full else None for column in columns)
        for c, (rows_a, rows_b) in enumerate(pairwise(rows)):
            if rows_a and _permutes(full, rows_a):
                yield full, _pair_columns(rows_a, rows_b, full)
            else:
                yield None, _heads_by_tail(columns[c], columns[c + 1], n)

    def _tail_heads(self) -> Iterator[tuple[bytes | None, list[Sequence[int]]]]:
        """Per part pair c of a chain graph, (full, heads): heads[u - 1] holds
        the heads v of tail u's edges (c, u) -> (c+1, v), ascending, one per
        edge, and is empty when u is absent from column c.

        On the row route (_part_pairs) a tail whose heads are a permutation
        is given as full itself, with no sort; any other tail's n heads are
        sorted.  On the key route each tail's heads are sorted; full is then
        None.
        """
        for full, pair in self._part_pairs():
            yield full, [full if full and not full.translate(None, heads) else sorted(heads)
                         for heads in pair]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.sorted_edges())

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


def _heads_by_tail(tails: Column, heads: Column, n: int) -> list[list[int]]:
    """The key route's part pair (PartiteGraph._part_pairs) of a tail column
    and a head column: pair[u - 1] lists the heads of tail u in cell order,
    made in one pass over the two columns."""
    pair: list[list[int]] = [[] for _ in range(n)]
    append = [tail.append for tail in pair]
    for u, v in zip(tails, heads):
        append[u - 1](v)
    return pair


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
    """The parallel edges of a chain graph, kept as per part pair sequences.

    repeated holds one (c, tails, heads, counts) for each part pair c that
    has a repeated edge, in part order: the edge (c, tails[k]) ->
    (c+1, heads[k]) occurs counts[k] > 1 times, in ascending (tail, head)
    order.  duplicated_edges derives the ((tail, head), count) pairs on
    demand, so two reports are equal exactly when their max_multiplicity
    and duplicated_edges are.
    """

    max_multiplicity: int
    repeated: tuple[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]

    @property
    def duplicated_edges(self) -> tuple[tuple[Edge, int], ...]:
        return tuple((((c, u), (c + 1, v)), count) for c, tails, heads, counts in self.repeated
                     for u, v, count in zip(tails, heads, counts))


def edge_multiplicity(graph: PartiteGraph) -> MultiplicityReport:
    """Parallel-edge report for a chain graph, sorted by endpoints.

    The edges between parts c and c+1 are the symbol pairs of columns c
    and c+1, so one count of their keys u * (n+1) + v per part pair gives
    every multiplicity.  Every part pair (PartiteGraph._part_pairs) holds
    tail u's heads in its list u - 1.  A row-route part pair none of whose
    stride columns misses a symbol has no repeated edge and is not counted;
    any other row-route pair's keys are the joined columns plus one offset
    per tail, n in a row, from one list of offsets made for the graph on
    first use.  A key-route pair's keys are made tail by tail, each tail's
    offset added to its heads.  The repeated keys are picked from the
    count, sorted as ints, which sorts them as their pairs, and decoded.
    """
    if graph.kind != CHAIN:
        raise ValueError("edge multiplicity applies to chain-construction graphs")
    n = graph.array.order
    base = repeat(n + 1)
    offsets = cache(lambda: [tail for tail in range(n + 1, (n + 1) ** 2, n + 1) for _ in range(n)])
    repeated = []
    for c, (full, pair) in enumerate(graph._part_pairs()):
        if full and _permutes(full, pair):
            continue
        counts = Counter(map(add, offsets(), b"".join(pair)) if full else
                         chain.from_iterable(map(add, repeat(u * (n + 1)), heads)
                                             for u, heads in enumerate(pair, 1)))
        if len(counts) < n * n:
            parallel = sorted(compress(counts, map(gt, counts.values(), repeat(1))))
            repeated.append((c, tuple(map(floordiv, parallel, base)),
                             tuple(map(mod, parallel, base)),
                             tuple(map(counts.__getitem__, parallel))))
    return MultiplicityReport(max((max(counts) for *_, counts in repeated), default=1),
                              tuple(repeated))


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

    The n mod m parts of size ceil(n/m) come first: the runs that
    verify_set_orthogonality's Turan cover cuts n squares into.
    """
    if not 1 <= m <= n:
        raise InputError(f"need 1 <= m <= n, got m={m}, n={n}")
    return make_complete_multipartite(tuple(map(len, _runs(n, m))))


def turan_edge_count(m: int, n: int) -> int:
    """Closed form C(n-k, 2) + (m-1) * C(k+1, 2) with k = n // m."""
    if not 1 <= m <= n:
        raise InputError(f"need 1 <= m <= n, got m={m}, n={n}")
    k = n // m
    return comb(n - k, 2) + (m - 1) * comb(k + 1, 2)


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
    counted), and whether the graph is free of parallel edges, for any
    graph: `molsnet stats` takes its degrees from the Latin squares of its
    input instead, and the tests check it against this.

    In a chain graph each cell holding s at part p sends one edge to each
    neighbouring part, so the degree of (p, s) is the count of s in column
    p, once in the end parts and twice inside.  Each part pair c
    (PartiteGraph._part_pairs) lists tail u's heads in its list u - 1, one
    per edge, so that count is the list's length for every column but the
    last, which is counted once.  The graph is simple when every part pair
    holds n^2 distinct symbol pairs: on the row route when its stride
    columns are permutations (squares._permutes), on the key route when no
    tail repeats a head.  In a complete multipartite graph a vertex meets
    every vertex outside its part.
    """
    if graph.array is None:
        total = graph.vertex_count
        degrees = tuple((total - size,) * size for size in graph.part_sizes)
        return GraphStats(graph.kind, total, graph.edge_count, graph.part_sizes, degrees, True)
    n = graph.array.order
    degrees, simple = [], True
    for c, (full, pair) in enumerate(graph._part_pairs()):
        degrees.append(tuple(len(heads) * (2 if c else 1) for heads in pair))
        simple = simple and (_permutes(full, pair) if full else
                             sum(map(len, map(set, pair))) == n * n)
    last = Counter(graph.array.columns[-1])
    degrees.append(tuple(map(last.__getitem__, range(1, n + 1))))
    return GraphStats(graph.kind, graph.vertex_count, graph.edge_count, graph.part_sizes,
                      tuple(degrees), simple)


def channels_through(graph: PartiteGraph, vertex: Vertex) -> tuple[ChannelChain, ...]:
    """All chains whose path visits the vertex, in cell order."""
    if graph.kind != CHAIN:
        raise ValueError("channels exist only in chain-construction graphs")
    if not graph.has_vertex(vertex):
        raise InputError(f"unknown vertex {vertex!r}")
    part, symbol = vertex
    n, columns = graph.array.order, graph.array.columns
    return tuple(ChannelChain(cell_of(k, n), tuple(column[k] for column in columns))
                 for k, s in enumerate(columns[part]) if s == symbol)
