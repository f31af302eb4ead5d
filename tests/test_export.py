import itertools
import json
import tracemalloc

import pytest

import molsnet.export
import molsnet.graphs
from molsnet import (CHAIN, FORMATS, LatinSquare, PartiteGraph, TupleArray, build_partite_graph,
                     channels_through, edge_multiplicity, export_graph, graph_stats,
                     make_complete_multipartite, make_mols_family, make_turan_graph, superimpose,
                     vertex_name)
from reference import cell_pair_counts, per_edge_export


def order4_graph(family4):
    return build_partite_graph(superimpose(list(family4.squares[:3])))


class TestEdgeListFormat:
    def test_order_4_graph(self, family4):
        content = export_graph(order4_graph(family4), "edges").content
        lines = content.splitlines()
        assert len(lines) == 32                  # no isolated vertices
        assert lines[0] == "A1 B2"
        assert lines == sorted(lines)
        assert lines.count("A1 B4") == 2         # parallel edge repeated

    def test_a_float_symbol_exports_as_its_int(self):
        # Square 2 of the order-5 family with the 1 of its first row written
        # 1.0, stacked before itself, is not a grid between parts A and B, so
        # the symbol reaches the per-edge path as a vertex of part A.
        family = make_mols_family(5)
        square, cells = family[1], [list(row) for row in family[1].cells]
        cells[0][cells[0].index(1)] = 1.0
        floated = LatinSquare(5, tuple(map(tuple, cells)))
        graphs = [PartiteGraph(CHAIN, (5, 5, 5), superimpose([first, square, family[0]]))
                  for first in (floated, square)]
        floated_graph, int_graph = graphs
        for fmt in FORMATS:
            assert export_graph(floated_graph, fmt).content == export_graph(int_graph, fmt).content
        assert repr(list(floated_graph.sorted_edges())) == repr(list(int_graph.sorted_edges()))
        assert repr(edge_multiplicity(floated_graph)) == repr(edge_multiplicity(int_graph))
        assert [chain.describe() for chain in channels_through(floated_graph, (0, 1))] == \
            [chain.describe() for chain in channels_through(int_graph, (0, 1))]

    def test_isolated_vertices_get_declarations(self):
        content = export_graph(make_turan_graph(1, 3), "edges").content
        assert content == "A1\nA2\nA3\n"

    def test_isolated_chain_vertices_come_part_by_part_in_symbol_order(self):
        # Every cell holds (1, j, 2): A2, A3, C1 and C3 lie on no edge, and
        # each edge is repeated once per row.
        row = tuple((1, j, 2) for j in (1, 2, 3))
        graph = PartiteGraph(CHAIN, (3, 3, 3), TupleArray(3, 3, (row,) * 3))
        content = export_graph(graph, "edges").content
        assert content == "A2\nA3\nC1\nC3\n" + "".join(
            f"{edge}\n" * 3 for edge in ("A1 B1", "A1 B2", "A1 B3", "B1 C2", "B2 C2", "B3 C2"))
        for fmt in FORMATS:
            assert export_graph(graph, fmt).content == per_edge_export(graph, fmt)
        # On both sides of the bytes limit, a stack whose three columns each
        # miss symbols, 256 among them at order 256, lists the same names as
        # a set difference of each column, ascending.
        for n in (255, 256):
            grid = tuple(tuple(((i + j) % 5 + 1, j // 2 + 1, i * j % 11 * 3 + 1) for j in range(n))
                         for i in range(n))
            graph = PartiteGraph(CHAIN, (n,) * 3, TupleArray(n, 3, grid))
            columns = zip(*itertools.chain.from_iterable(grid))
            expected = [vertex_name((p, s)) for p, column in enumerate(columns)
                        for s in sorted(set(range(1, n + 1)).difference(column))]
            lines = export_graph(graph, "edges").content.splitlines()
            assert list(itertools.takewhile(lambda line: " " not in line, lines)) == expected
            assert f"A{n}" in expected and f"C{n}" in expected

    def test_mixed_isolated_and_edges(self):
        graph = make_complete_multipartite((1, 2))
        content = export_graph(graph, "edges").content
        assert content == "A1 B1\nA1 B2\n"


class TestDotFormat:
    def test_chain_graph_is_directed(self, family4):
        content = export_graph(order4_graph(family4), "dot").content
        assert content.startswith("digraph G {")
        assert content.count(" -> ") == 32
        assert content.count("subgraph cluster_") == 3
        assert 'label="B";' in content
        assert content.endswith("}\n")

    def test_parallel_edges_are_repeated(self, family4):
        content = export_graph(order4_graph(family4), "dot").content
        assert content.count("  A1 -> B4;") == 2

    def test_multipartite_graph_is_undirected(self):
        content = export_graph(make_turan_graph(3, 5), "dot").content
        assert content.startswith("graph G {")
        assert content.count(" -- ") == 8
        assert " -> " not in content


class TestJsonFormat:
    def test_payload_shape(self, family5):
        graph = build_partite_graph(superimpose(list(family5.squares)))
        payload = json.loads(export_graph(graph, "json").content)
        assert payload["kind"] == "chain-construction"
        assert payload["directed"] is True
        assert payload["vertex_count"] == 20
        assert payload["edge_count"] == 75
        assert len(payload["edges"]) == 75
        assert payload["parts"][0] == {"label": "A", "size": 5}

    def test_undirected_flag_for_multipartite(self):
        payload = json.loads(export_graph(make_turan_graph(2, 4), "json").content)
        assert payload["directed"] is False
        assert payload["edge_count"] == 4


class TestDeterminism:
    def test_repeated_export_is_byte_identical(self, family4):
        graph = order4_graph(family4)
        for fmt in ("dot", "edges", "json"):
            first = export_graph(graph, fmt).content
            second = export_graph(graph, fmt).content
            assert first == second

    def test_rebuilt_graph_exports_identically(self, family4):
        for fmt in ("dot", "edges", "json"):
            a = export_graph(order4_graph(family4), fmt).content
            b = export_graph(order4_graph(family4), fmt).content
            assert a.encode() == b.encode()

    def test_content_is_ascii_and_newline_terminated(self, family4):
        for fmt in ("dot", "edges", "json"):
            content = export_graph(order4_graph(family4), fmt).content
            assert content.isascii()
            assert content.endswith("\n")


def test_unknown_format_is_rejected(family4):
    for fmt in ("yaml", "xml"):
        with pytest.raises(ValueError) as excinfo:
            export_graph(order4_graph(family4), fmt)
        assert str(excinfo.value) == f"unknown format '{fmt}'; expected one of dot, edges, json"


def test_every_small_complete_multipartite_graph_matches_the_per_edge_exporter():
    for parts in range(1, 6):
        for sizes in itertools.product(range(1, 4), repeat=parts):
            graph = make_complete_multipartite(sizes)
            for fmt in FORMATS:
                assert export_graph(graph, fmt).content == per_edge_export(graph, fmt), sizes


def mixed_chain_graphs():
    """Chain graphs named by their kind: stacks whose consecutive squares are
    orthogonal, equal or neither, so their part pairs take both run kinds."""
    stacks = {}
    for n in (5, 7, 11):
        h1, h2, h3 = make_mols_family(n).squares[:3]
        stacks[f"h1 h1 h2 h3 h3, order {n}"] = [h1, h1, h2, h3, h3]
    stacks["additive family, order 7"] = make_mols_family(7).squares
    stacks["shift family, order 6"] = make_mols_family(6, "shift").squares
    graphs = {name: build_partite_graph(superimpose(list(squares))) for name, squares in stacks.items()}
    graphs["order 1"] = PartiteGraph(CHAIN, (1, 1), TupleArray(1, 2, (((1, 1),),)))
    return graphs


def test_mixed_chain_graphs_match_the_per_edge_exporter():
    for name, graph in mixed_chain_graphs().items():
        for fmt in FORMATS:
            assert export_graph(graph, fmt).content == per_edge_export(graph, fmt), (name, fmt)


def _key_passes(monkeypatch):
    """The orders of the key-route part pairs (_heads_by_tail) the graphs
    module builds from now on."""
    passes = []
    original = molsnet.graphs._heads_by_tail

    def spy(tails, heads, n):
        passes.append(n)
        return original(tails, heads, n)
    monkeypatch.setattr(molsnet.graphs, "_heads_by_tail", spy)
    return passes


def test_part_pairs_whose_tails_rows_are_permutations_make_no_key_pass(monkeypatch):
    # Every mixed chain graph stacks Latin squares, so each part pair is read
    # from rows, orthogonal, equal and shift neighbours alike, by every
    # reader.
    graphs = mixed_chain_graphs()
    passes = _key_passes(monkeypatch)
    for graph in graphs.values():
        for fmt in FORMATS:
            export_graph(graph, fmt)
        list(graph.sorted_edges())
        edge_multiplicity(graph)
        graph_stats(graph)
    assert passes == []


def _cyclic(n, h, floated=False):
    """i + h*j mod n, plus 1, as a square; floated writes its first symbol
    as a float."""
    cells = [[(i + h * j) % n + 1 for j in range(n)] for i in range(n)]
    if floated:
        cells[0][0] = float(cells[0][0])
    return LatinSquare(n, tuple(map(tuple, cells)))


@pytest.mark.parametrize("n", [255, 256, 257])
def test_both_sides_of_the_bytes_limit_route_part_pairs_exactly(n, monkeypatch):
    # Bytes hold symbols up to 255.  The (a, a, b) and (a, b, b) stacks and
    # (a, a, b) with a 1.0 in its first square (stored as the int 1, so it
    # exports as the first) are read from rows at order 255 and make one
    # key-route build (_heads_by_tail) per part pair above it.  In the
    # stack (i, i, j) every row of columns 0 and 1 repeats one symbol, so
    # both its part pairs make one key-route build at every order.  Every
    # export, the multiplicity report and the stats read each part pair
    # once, the stats for its degrees.
    # The oracle's t * n^4 cell reads are out of reach here, so the counts
    # come from its one-pass reference.
    a, b = _cyclic(n, 1), _cyclic(n, 2)
    rows = tuple(tuple((i, i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
    stacks = {"a a b": superimpose([a, a, b]),
              "a b b": superimpose([a, b, b]),
              "1.0 a b": superimpose([_cyclic(n, 1, floated=True), a, b]),
              "i i j": TupleArray(n, 3, rows)}
    passes_per_pair = {"a a b": int(n > 255), "a b b": int(n > 255), "1.0 a b": int(n > 255),
                       "i i j": 1}
    contents = {}
    for name, array in stacks.items():
        graph = PartiteGraph(CHAIN, (n,) * 3, array)
        per_pair = [n] * passes_per_pair[name]
        passes = _key_passes(monkeypatch)
        contents[name] = {fmt: export_graph(graph, fmt).content for fmt in FORMATS}
        assert passes == per_pair * (2 * len(FORMATS)), name
        passes.clear()
        report = edge_multiplicity(graph)
        assert passes == per_pair * 2, name
        passes.clear()
        stats = graph_stats(graph)
        assert passes == per_pair * 2, name
        monkeypatch.undo()
        counts = cell_pair_counts(array)
        assert report.duplicated_edges == tuple(sorted((edge, k) for edge, k in counts.items()
                                                       if k > 1)), name
        assert report.max_multiplicity == max(counts.values()), name
        assert stats.simple == all(k == 1 for k in counts.values()), name
        if name != "1.0 a b":
            for fmt in FORMATS:
                assert contents[name][fmt] == per_edge_export(graph, fmt), (name, fmt)
    assert contents["1.0 a b"] == contents["a a b"]


def test_the_per_edge_exporter_makes_no_grid_decision(monkeypatch):
    graph = mixed_chain_graphs()["additive family, order 7"]
    expected = {fmt: export_graph(graph, fmt).content for fmt in FORMATS}

    def refuse(*args):
        raise AssertionError("the reference must not reach the export's runs")
    monkeypatch.setattr(molsnet.export, "_edge_runs", refuse)
    for fmt in FORMATS:
        assert per_edge_export(graph, fmt) == expected[fmt]


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_peak_memory_stays_within_three_times_its_output(fmt):
    # Order 43, t=42: 75,809 edges.  Smaller orders run relatively higher,
    # since their fixed costs weigh more against their output.
    graph = build_partite_graph(superimpose(list(make_mols_family(43).squares)))
    tracemalloc.start()
    try:
        content = export_graph(graph, fmt).content
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(content)
