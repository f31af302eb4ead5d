import itertools
from collections import Counter

import pytest

import molsnet.graphs
from molsnet import (CHAIN, MULTIPARTITE, NotOrthogonalError, PartiteGraph, TupleArray,
                     build_partite_graph, channels_through, edge_multiplicity, graph_stats,
                     is_bipartite, make_complete_multipartite, make_mols_family,
                     make_turan_graph, parse_part_label, part_label, superimpose,
                     turan_edge_count, vertex_name)


def chain_graph(family, t):
    return build_partite_graph(superimpose(list(family.squares[:t])))


def walk_is_odd_and_closed(graph, walk):
    assert walk[0] == walk[-1]
    assert len(walk) % 2 == 0          # an odd number of edges
    undirected = {frozenset(edge) for edge in graph.edges}
    for u, v in zip(walk, walk[1:]):
        assert frozenset((u, v)) in undirected
    return True


class TestPartLabels:
    def test_spreadsheet_progression(self):
        assert [part_label(i) for i in (0, 1, 25, 26, 27, 51, 52)] == [
            "A", "B", "Z", "AA", "AB", "AZ", "BA"]

    def test_round_trip(self):
        for i in range(200):
            assert parse_part_label(part_label(i)) == i

    def test_parse_rejects_junk(self):
        for bad in ("", "a", "A1", "1A"):
            with pytest.raises(ValueError):
                parse_part_label(bad)

    def test_vertex_names(self):
        assert vertex_name((0, 1)) == "A1"
        assert vertex_name((2, 10)) == "C10"

    def test_labels_are_derived_once_and_negative_indices_always_fail(self):
        assert part_label(703) is part_label(703)
        for _ in range(2):
            with pytest.raises(ValueError, match="must be nonnegative, got -1"):
                part_label(-1)


class TestBuildPartiteGraph:
    def test_order_4_triple_graph_shape(self, family4):
        graph = chain_graph(family4, 3)
        assert graph.kind == CHAIN
        assert graph.part_sizes == (4, 4, 4)
        assert graph.vertex_count == 12
        assert len(graph.edges) == 32

    def test_order_5_quad_graph_shape(self, family5):
        graph = chain_graph(family5, 4)
        assert graph.part_sizes == (5, 5, 5, 5)
        assert graph.vertex_count == 20
        assert len(graph.edges) == 75

    def test_chains_read_off_the_cells(self, family4):
        graph = chain_graph(family4, 3)
        first = channels_through(graph, (0, 1))[0]
        assert first.cell == (1, 1)
        assert first.symbols == (1, 2, 3)
        assert first.path == ((0, 1), (1, 2), (2, 3))
        assert first.describe() == "A1 -> B2 -> C3"

    def test_rejects_non_orthogonal_arrays(self, family4):
        square = family4[0]
        array = superimpose([square, square])
        with pytest.raises(NotOrthogonalError) as excinfo:
            build_partite_graph(array)
        assert excinfo.value.report.first_collision is not None

    @pytest.mark.parametrize("n,message", [
        (10, "cells (5, 1) and (10, 6) hold the same tuple (90 distinct tuples)"),
        (40, "cells (20, 1) and (40, 21) hold the same tuple (1560 distinct tuples)"),
        (58, "cells (29, 1) and (58, 30) hold the same tuple (3306 distinct tuples)"),
    ])
    def test_a_shift_pair_is_rejected_with_its_first_collision(self, n, message):
        # The first two shift squares, as `molsnet graph --t 2` stacks them.
        with pytest.raises(NotOrthogonalError) as excinfo:
            chain_graph(make_mols_family(n, "shift"), 2)
        assert str(excinfo.value) == "array is not orthogonal: " + message

    @pytest.mark.parametrize("n,t", [(3, 2), (5, 2), (5, 3), (5, 4), (7, 3)])
    def test_edge_count_and_end_part_degrees(self, n, t):
        graph = chain_graph(make_mols_family(n), t)
        assert len(graph.edges) == n * n * (t - 1)
        stats = graph_stats(graph)
        assert stats.degree_sequences[0] == (n,) * n
        assert stats.degree_sequences[-1] == (n,) * n

    def test_two_orthogonal_squares_give_complete_bipartite(self, family5):
        # A 2-orthogonal pair realizes every ordered pair exactly once.
        graph = chain_graph(family5, 2)
        expected = {((0, u), (1, v)) for u in range(1, 6) for v in range(1, 6)}
        assert set(graph.edges) == expected
        assert len(graph.edges) == 25
        assert graph_stats(graph).simple


class TestEdgeMultiplicity:
    def test_order_4_triple_graph_has_parallel_edges(self, family4):
        # Consecutive shift squares repeat n symbol pairs, so the worked
        # 3-partite graph is a genuine multigraph.
        report = edge_multiplicity(chain_graph(family4, 3))
        assert report.max_multiplicity == 2
        assert len(report.duplicated_edges) == 8
        assert (((0, 1), (1, 4)), 2) in report.duplicated_edges
        assert (((1, 4), (2, 1)), 2) in report.duplicated_edges

    def test_duplicated_edges_are_sorted(self, family4):
        report = edge_multiplicity(chain_graph(family4, 3))
        edges = [edge for edge, _ in report.duplicated_edges]
        assert edges == sorted(edges)

    def test_order_5_graphs_are_simple(self, family5):
        for t in (2, 3, 4):
            report = edge_multiplicity(chain_graph(family5, t))
            assert report.max_multiplicity == 1
            assert report.duplicated_edges == ()

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_order_7_graphs_are_simple(self, family7, t):
        assert edge_multiplicity(chain_graph(family7, t)).max_multiplicity == 1

    def test_simplicity_tracks_pairwise_orthogonality(self, family4, family5):
        # Parallel edges between parts c and c+1 appear exactly when the two
        # squares of those parts are not 2-orthogonal.
        from molsnet import is_t_orthogonal
        for family, t in ((family4, 3), (family4, 4), (family5, 3), (family5, 4)):
            graph = chain_graph(family, t)
            dup_gaps = {edge[0][0][0] for edge in edge_multiplicity(graph).duplicated_edges}
            for c in range(t - 1):
                pair = superimpose([family[c], family[c + 1]])
                assert is_t_orthogonal(pair).is_orthogonal == (c not in dup_gaps)

    def test_only_chain_graphs_have_multiplicity(self):
        with pytest.raises(ValueError):
            edge_multiplicity(make_turan_graph(2, 4))


class TestBipartiteness:
    def test_chain_graphs_are_bipartite(self, family4, family5):
        for family, t in ((family4, 3), (family5, 2), (family5, 4)):
            report = is_bipartite(chain_graph(family, t))
            assert report.bipartite
            colors = dict(report.coloring)
            for u, v in chain_graph(family, t).edges:
                assert colors[u] != colors[v]

    def test_complete_bipartite_is_bipartite(self):
        report = is_bipartite(make_complete_multipartite((2, 3)))
        assert report.bipartite

    def test_triangle_fails_with_a_verifiable_witness(self):
        graph = make_turan_graph(3, 3)
        report = is_bipartite(graph)
        assert not report.bipartite
        assert report.coloring is None
        assert walk_is_odd_and_closed(graph, report.odd_walk)

    def test_larger_odd_structures_fail(self):
        for m, n in ((3, 7), (4, 4), (5, 9)):
            graph = make_turan_graph(m, n)
            report = is_bipartite(graph)
            assert not report.bipartite
            assert walk_is_odd_and_closed(graph, report.odd_walk)

    def test_single_part_graph_is_bipartite(self):
        report = is_bipartite(make_turan_graph(1, 5))
        assert report.bipartite
        assert len(report.coloring) == 5

    def test_isolated_vertex_in_an_odd_part_takes_its_part_parity(self):
        # Symbol 2 never appears in position 2, so B2 has no edge.
        array = TupleArray(2, 3, (((1, 1, 1), (1, 1, 2)), ((2, 1, 1), (2, 1, 2))))
        report = is_bipartite(build_partite_graph(array))
        assert report.coloring == (((0, 1), 0), ((0, 2), 0), ((1, 1), 1), ((1, 2), 1),
                                   ((2, 1), 0), ((2, 2), 0))


class TestTuranGraphs:
    def test_part_sizes_put_larger_parts_first(self):
        assert make_turan_graph(3, 5).part_sizes == (2, 2, 1)
        assert make_turan_graph(4, 10).part_sizes == (3, 3, 2, 2)
        assert make_turan_graph(3, 6).part_sizes == (2, 2, 2)

    def test_edge_counts_match_hand_values(self):
        # T(2,4) = C4 missing a perfect matching: 4 edges; T(3,5): 8;
        # T(4,10): 37; one part: 0; all parts singletons: C(n,2).
        assert turan_edge_count(2, 4) == 4
        assert turan_edge_count(3, 5) == 8
        assert turan_edge_count(4, 10) == 37
        for n in (1, 5, 12):
            assert turan_edge_count(1, n) == 0
        for n in (2, 6):
            assert turan_edge_count(n, n) == n * (n - 1) // 2

    def test_graph_edges_match_the_formula(self):
        for m, n in ((2, 4), (3, 5), (4, 10), (5, 7), (1, 6)):
            assert len(make_turan_graph(m, n).edges) == turan_edge_count(m, n)

    def test_rejects_bad_parameters(self):
        for m, n in ((0, 4), (5, 4), (-1, 3)):
            with pytest.raises(ValueError):
                make_turan_graph(m, n)
            with pytest.raises(ValueError):
                turan_edge_count(m, n)

    def test_balanced_sizes_beat_unbalanced_ones(self):
        balanced = len(make_turan_graph(3, 9).edges)
        lopsided = len(make_complete_multipartite((7, 1, 1)).edges)
        assert lopsided < balanced


class TestCompleteMultipartite:
    def test_counts(self):
        assert len(make_complete_multipartite((2, 3)).edges) == 6
        assert len(make_complete_multipartite((2, 2, 2)).edges) == 12
        assert make_complete_multipartite((4, 4)).edge_count == 16
        assert make_complete_multipartite((1, 1)).edge_count == 1

    def test_edges_are_stored_part_ascending(self):
        for u, v in make_complete_multipartite((3, 1, 2)).edges:
            assert u[0] < v[0]

    def test_rejects_empty_parts(self):
        with pytest.raises(ValueError):
            make_complete_multipartite(())
        with pytest.raises(ValueError):
            make_complete_multipartite((2, 0, 1))
        with pytest.raises(ValueError):
            make_complete_multipartite((0, 3))


class TestGraphStats:
    def test_order_4_triple_graph(self, family4):
        stats = graph_stats(chain_graph(family4, 3))
        assert stats.kind == CHAIN
        assert stats.vertex_count == 12
        assert stats.edge_count == 32
        assert stats.degree_sequences == ((4, 4, 4, 4), (8, 8, 8, 8), (4, 4, 4, 4))
        assert not stats.simple

    def test_order_5_quad_graph(self, family5):
        stats = graph_stats(chain_graph(family5, 4))
        assert stats.vertex_count == 20
        assert stats.edge_count == 75
        assert stats.degree_sequences == (
            (5,) * 5, (10,) * 5, (10,) * 5, (5,) * 5)
        assert stats.simple

    def test_degrees_are_counted_unless_every_row_is_a_permutation(self):
        # Part B's column holds symbol 1 five times, and its rows are no
        # permutations; parts A and C hold one Latin square.
        n, latin, skewed = 3, (1, 2, 3, 2, 3, 1, 3, 1, 2), (1, 1, 2, 2, 3, 3, 1, 1, 1)
        entries = list(zip(latin, skewed, latin))
        graph = PartiteGraph(CHAIN, (n,) * 3,
                             TupleArray(n, 3, [entries[k:k + n] for k in range(0, n * n, n)]))
        degree = Counter(vertex for edge in graph.edges for vertex in edge)
        sequences = graph_stats(graph).degree_sequences
        assert sequences == ((3, 3, 3), (10, 4, 4), (3, 3, 3))
        assert sequences == tuple(tuple(degree[p, s] for s in range(1, n + 1)) for p in range(3))

    def test_each_column_s_rows_are_cut_once(self, family7, monkeypatch):
        # The degrees and the simplicity test share one cut per column.
        graph = chain_graph(family7, 4)
        cut = []
        original = molsnet.graphs._rows

        def spy(column, order):
            cut.append(column)
            return original(column, order)
        monkeypatch.setattr(molsnet.graphs, "_rows", spy)
        assert graph_stats(graph).simple
        assert cut == list(graph.array.columns)

    def test_edgeless_graph(self):
        stats = graph_stats(make_turan_graph(1, 4))
        assert stats.kind == MULTIPARTITE
        assert stats.edge_count == 0
        assert stats.degree_sequences == ((0, 0, 0, 0),)
        assert stats.simple


class TestChannelsThrough:
    def test_known_vertex_in_order_4_graph(self, family4):
        graph = chain_graph(family4, 3)
        chains = channels_through(graph, (2, 3))       # vertex C3
        assert [chain.cell for chain in chains] == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert all(chain.symbols[2] == 3 for chain in chains)

    def test_every_vertex_carries_n_channels(self, family5):
        graph = chain_graph(family5, 4)
        for part in range(4):
            for symbol in range(1, 6):
                assert len(channels_through(graph, (part, symbol))) == 5

    def test_last_part_vertex_in_order_5_graph(self, family5):
        chains = channels_through(chain_graph(family5, 4), (3, 1))
        assert [chain.cell for chain in chains] == [
            (1, 5), (2, 1), (3, 2), (4, 3), (5, 4)]

    def test_unknown_vertex_is_rejected(self, family4):
        graph = chain_graph(family4, 3)
        for vertex in ((3, 1), (0, 5), (-1, 2), (1, 0)):
            with pytest.raises(ValueError):
                channels_through(graph, vertex)

    def test_multipartite_graphs_have_no_channels(self):
        with pytest.raises(ValueError):
            channels_through(make_turan_graph(2, 4), (0, 1))


class TestPartiteGraphChecks:
    def test_kind_and_structure_are_enforced(self):
        with pytest.raises(ValueError):
            PartiteGraph("blob", (2, 2))
        with pytest.raises(ValueError):
            PartiteGraph(CHAIN, ())
        with pytest.raises(ValueError):
            PartiteGraph(MULTIPARTITE, ())

    def test_chain_graph_needs_an_array(self):
        with pytest.raises(ValueError):
            PartiteGraph(CHAIN, (2, 2))

    def test_multipartite_graph_takes_no_array(self, family4):
        array = superimpose(list(family4.squares[:3]))
        with pytest.raises(ValueError):
            PartiteGraph(MULTIPARTITE, (4, 4, 4), array)

    def test_chain_part_sizes_must_match_the_array(self, family4):
        array = superimpose(list(family4.squares[:3]))
        for sizes in ((4, 4), (4, 4, 4, 4), (3, 4, 4), (5, 5, 5)):
            with pytest.raises(ValueError):
                PartiteGraph(CHAIN, sizes, array)
        assert PartiteGraph(CHAIN, (4, 4, 4), array) == build_partite_graph(array)
