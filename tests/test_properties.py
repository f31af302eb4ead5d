"""Property tests: chain graphs of scrambled square stacks agree with the
brute-force oracles.

A stack is drawn from an order 3-7 family made isotopic by one row and one
column permutation for all squares, an independent symbol relabelling per
square and a shuffled square order, optionally with one square duplicated.
Its first t = 2-4 squares are superimposed.  Whether the stack is
orthogonal is decided by the quadratic oracle, never by the code under test.
"""

from collections import Counter

import pytest

from molsnet import (LatinSquare, NotOrthogonalError, brute_force_distinctness,
                     brute_force_multiplicity, build_partite_graph, edge_multiplicity,
                     export_graph, graph_stats, make_mols_family, superimpose, vertex_name)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def scrambled_stacks(draw):
    n = draw(st.integers(3, 7))
    rows = draw(st.permutations(range(n)))
    columns = draw(st.permutations(range(n)))
    squares = []
    for square in make_mols_family(n).squares:
        relabel = draw(st.permutations(range(1, n + 1)))
        cells = tuple(tuple(relabel[square.cells[r][c] - 1] for c in columns) for r in rows)
        squares.append(LatinSquare(n, cells))
    squares = draw(st.permutations(squares))
    if draw(st.booleans()):
        copy = squares[draw(st.integers(0, len(squares) - 1))]
        squares.insert(draw(st.integers(0, len(squares))), copy)
    t = draw(st.integers(2, min(4, len(squares))))
    return superimpose(squares[:t])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(scrambled_stacks())
def test_chain_graph_agrees_with_brute_force_pair_counts(array):
    if not brute_force_distinctness(array):
        with pytest.raises(NotOrthogonalError):
            build_partite_graph(array)
        return
    graph = build_partite_graph(array)
    counts = brute_force_multiplicity(array)
    assert Counter(graph.edges) == counts

    runs = sorted(counts.items())
    assert export_graph(graph, "edges").content == "".join(
        f"{vertex_name(u)} {vertex_name(v)}\n" for (u, v), k in runs for _ in range(k))

    degree = Counter()
    for (u, v), k in runs:
        degree[u] += k
        degree[v] += k
    stats = graph_stats(graph)
    assert stats.degree_sequences == tuple(
        tuple(degree[(p, s)] for s in range(1, array.order + 1)) for p in range(array.arity))
    assert stats.simple == all(k == 1 for _, k in runs)

    report = edge_multiplicity(graph)
    assert report.duplicated_edges == tuple((edge, k) for edge, k in runs if k > 1)
    assert report.max_multiplicity == max(counts.values())
