"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Every expected value is either transcribed published data (golden.py),
derived by the brute-force oracles in this run, or a closed-form count;
all comparisons are exact integer/byte equality.  Timed criteria use the
stated wall-clock bounds.  Each test ends by printing its own pass line,
so a full `pytest -v -s tests/test_acceptance.py` shows one line per
criterion.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from golden import (ORDER4_SQUARE_FILE, ORDER4_TRIPLE_ARRAY, ORDER5_QUAD_ARRAY,
                    ORDER5_SQUARES)
from molsnet import (brute_force_distinctness, brute_force_multiplicity,
                     build_partite_graph, count_edges_brute, edge_multiplicity, export_graph,
                     graph_stats, is_bipartite, is_prime, is_t_orthogonal,
                     make_additive_square, make_complete_multipartite, make_mols_family,
                     make_turan_graph, parse_square_file, serialize_square_file, superimpose,
                     turan_edge_count, verify_set_orthogonality)
from molsnet.cli import main
from molsnet.oracle import exhaustive_mols_search


def passed(line):
    print(f"PASS {line}")


def test_criterion_01_gen_emits_the_published_order_4_family(capsys):
    assert main(["gen", "--order", "4"]) == 0
    assert capsys.readouterr().out == ORDER4_SQUARE_FILE
    with capsys.disabled():
        passed("criterion 1: gen --order 4 reproduces the four published squares byte for byte")


def test_criterion_02_superimposition_matches_published_triple_array(family4):
    array = superimpose(list(family4.squares[:3]))
    assert array.grid == ORDER4_TRIPLE_ARRAY
    passed("criterion 2: first three order-4 squares superimpose to the published 3-tuple array")


def test_criterion_03_additive_squares_and_quad_array_match(family5):
    assert tuple(square.cells for square in family5) == ORDER5_SQUARES
    assert superimpose(list(family5.squares)).grid == ORDER5_QUAD_ARRAY
    passed("criterion 3: order-5 additive squares and their 4-tuple array match the published data")


def test_criterion_04_families_verify_with_oracle_agreement(family4, family5):
    def verified(family, t):
        report = verify_set_orthogonality(family, t)
        for verdict in report.verdicts:
            array = superimpose([family.squares[i - 1] for i in verdict.indices])
            assert brute_force_distinctness(array) == verdict.report.is_orthogonal
        return report.all_orthogonal

    assert verified(family4, 3)
    assert verified(family4, 4)
    for t in (2, 3, 4):
        assert verified(family5, t)
    passed("criterion 4: order-4 family is 3- and 4-orthogonal, order-5 family passes "
           "t=2..4, brute force agrees on every subset")


def test_criterion_05_turan_formula_matches_brute_force_up_to_50():
    for n in range(1, 51):
        for m in range(1, n + 1):
            assert turan_edge_count(m, n) == count_edges_brute(make_turan_graph(m, n))
    passed("criterion 5: Turan edge formula equals brute-force count for all 1 <= m <= n <= 50")


def test_criterion_06_balanced_partitions_maximize_edges():
    rng = random.Random(42)
    checked = 0
    for m in range(2, 7):
        for n in range(4, 21):
            if m > n:
                continue
            best = turan_edge_count(m, n)
            for _ in range(1000):
                cuts = sorted(rng.sample(range(1, n), m - 1))
                sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
                edges = len(make_complete_multipartite(sizes).edges)
                balanced = max(sizes) - min(sizes) <= 1
                assert edges <= best
                assert (edges == best) == balanced
                checked += 1
    assert checked == 82_000
    passed("criterion 6: complete multipartite edge count never beats the Turan bound; "
           "equality exactly for balanced parts (82000 random size vectors)")


def test_criterion_07_prime_families_build_simple_graphs():
    for n in (3, 5, 7, 11):
        family = make_mols_family(n)
        for t in range(2, n):
            if t > len(family):
                continue
            graph = build_partite_graph(superimpose(list(family.squares[:t])))
            assert edge_multiplicity(graph).max_multiplicity == 1
    passed("criterion 7: additive families of orders 3, 5, 7, 11 give multiplicity-1 "
           "graphs for every t")


def test_criterion_08_bipartiteness_and_odd_walk_witness(family5):
    for n in (3, 5, 7):
        family = make_mols_family(n)
        for a, b in itertools.combinations(range(len(family)), 2):
            array = superimpose([family[a], family[b]])
            if not is_t_orthogonal(array).is_orthogonal:
                continue
            report = is_bipartite(build_partite_graph(array))
            assert report.bipartite
    triangle = make_turan_graph(3, 3)
    report = is_bipartite(triangle)
    assert not report.bipartite
    walk = report.odd_walk
    assert walk[0] == walk[-1]
    assert len(walk) % 2 == 0                      # odd number of edges
    undirected = {frozenset(edge) for edge in triangle.edges}
    for u, v in zip(walk, walk[1:]):
        assert frozenset((u, v)) in undirected
    passed("criterion 8: every t=2 construction graph is bipartite; the triangle fails "
           "with a replayable odd closed walk")


def test_criterion_09_graph_shapes(family4, family5):
    g4 = build_partite_graph(superimpose(list(family4.squares[:3])))
    assert g4.vertex_count == 12 and len(g4.edges) == 32
    g5 = build_partite_graph(superimpose(list(family5.squares)))
    assert g5.vertex_count == 20 and len(g5.edges) == 75
    for n, t in ((3, 2), (4, 3), (4, 4), (5, 3), (7, 4)):
        family = make_mols_family(n)
        graph = build_partite_graph(superimpose(list(family.squares[:t])))
        assert len(graph.edges) == n * n * (t - 1)
        stats = graph_stats(graph)
        assert stats.degree_sequences[0] == (n,) * n
        assert stats.degree_sequences[-1] == (n,) * n
    passed("criterion 9: published graphs have 12/32 and 20/75 vertices/edges; every "
           "chain graph has n^2(t-1) edges and end-part degrees n")


def test_criterion_10_exhaustive_search_small_orders():
    start = time.monotonic()
    assert not exhaustive_mols_search(2, 2, 2).found
    elapsed_2 = time.monotonic() - start
    assert elapsed_2 < 10.0
    start = time.monotonic()
    result = exhaustive_mols_search(3, 2, 2)
    elapsed_3 = time.monotonic() - start
    assert elapsed_3 < 10.0
    assert result.found
    assert brute_force_distinctness(superimpose(list(result.witness.squares)))
    passed(f"criterion 10: exhaustive search proves no order-2 pair ({elapsed_2:.2f}s) "
           f"and finds an order-3 pair ({elapsed_3:.2f}s), both within 10s")


def test_criterion_11_multiplicity_reporting_with_note(family4, tmp_path, capsys):
    # The computed value is authoritative; the published expectation for this
    # family shape is surfaced in a note rather than asserted.
    array = superimpose(list(family4.squares[:3]))
    graph = build_partite_graph(array)
    pair_counts = brute_force_multiplicity(array)
    computed = edge_multiplicity(graph).max_multiplicity
    assert computed == max(pair_counts.values())
    assert Counter(graph.edges) == Counter(pair_counts)

    path = tmp_path / "f4.txt"
    path.write_text(serialize_square_file(family4))
    assert main(["stats", "--t", "3", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"max edge multiplicity: {computed}" in out
    assert "note: shift-family shape" in out
    assert "Reported values are computed, not assumed." in out
    with capsys.disabled():
        passed("criterion 11: stats reports the computed multiplicity for the order-4 "
               "t=3 graph, emits the shape note, and the oracle counts agree exactly")


def test_criterion_12_round_trips_and_deterministic_exports():
    constructible = [n for n in range(2, 51) if is_prime(n) or is_prime(n + 1)]
    assert len(constructible) == 28
    for n in constructible:
        family = make_mols_family(n)
        assert parse_square_file(serialize_square_file(family)) == family

    family = make_mols_family(4)

    def rebuild():
        return build_partite_graph(superimpose(list(family.squares[:3])))

    for fmt in ("dot", "edges", "json"):
        first = export_graph(rebuild(), fmt).content.encode()
        second = export_graph(rebuild(), fmt).content.encode()
        assert first == second
    passed("criterion 12: serialize/parse is the identity for all 28 constructible "
           "orders up to 50, and repeated exports are byte-identical")
