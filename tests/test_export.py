import itertools
import json
import tracemalloc

import pytest

from molsnet import (CHAIN, FORMATS, PartiteGraph, TupleArray, build_partite_graph, export_graph, make_complete_multipartite,
                     make_mols_family, make_turan_graph, superimpose)
from reference import per_edge_export


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
