"""Property tests on scrambled square stacks.

A stack is drawn from an order 3-7 family made isotopic by one row and one
column permutation for all squares, an independent symbol relabelling per
square and a shuffled square order, optionally with one square duplicated.

- Chain graphs of its first t = 2-4 squares agree with the brute-force
  oracles.  Whether that stack is orthogonal is decided by the quadratic
  oracle, never by the code under test.
- Subset verification agrees with superimposing every subset on its own,
  is invariant under isotopy, and follows a reordering of the squares.
"""

from collections import Counter

import pytest

from molsnet import (LatinSquare, MolsSet, NotOrthogonalError, brute_force_distinctness,
                     brute_force_multiplicity, build_partite_graph, edge_multiplicity,
                     export_graph, graph_stats, make_mols_family, superimpose,
                     verify_set_orthogonality, vertex_name)
from reference import per_subset_verdicts

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def scrambled_squares(draw):
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
    return squares


@st.composite
def scrambled_stacks(draw):
    squares = draw(scrambled_squares())
    t = draw(st.integers(2, min(4, len(squares))))
    return superimpose(squares[:t])


@st.composite
def square_sets(draw):
    """A scrambled stack as a MolsSet, with a subset size t in 2..m."""
    squares = draw(scrambled_squares())
    return MolsSet(squares[0].order, tuple(squares)), draw(st.integers(2, len(squares)))


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


def isotopy(draw, kind, mols):
    """Draw one isotopy of the given kind, applied to every square of the set."""
    n = mols.order
    if kind == "rows":
        order = draw(st.permutations(range(n)))
        move = lambda cells, k: tuple(cells[r] for r in order)  # noqa: E731
    elif kind == "columns":
        order = draw(st.permutations(range(n)))
        move = lambda cells, k: tuple(tuple(row[c] for c in order) for row in cells)  # noqa: E731
    elif kind == "transpose":
        move = lambda cells, k: tuple(zip(*cells))  # noqa: E731
    else:
        labels = [draw(st.permutations(range(1, n + 1))) for _ in mols.squares]
        move = lambda cells, k: tuple(tuple(labels[k][s - 1] for s in row)  # noqa: E731
                                      for row in cells)
    return MolsSet(n, tuple(LatinSquare(n, move(square.cells, k))
                            for k, square in enumerate(mols.squares)))


def _verdicts(report):
    return [(v.indices, v.report.is_orthogonal, v.report.distinct_count) for v in report.verdicts]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(square_sets())
def test_verify_agrees_with_superimposing_every_subset(case):
    mols, t = case
    assert verify_set_orthogonality(mols, t).verdicts == per_subset_verdicts(mols, t)


@pytest.mark.parametrize("kind", ["rows", "columns", "transpose", "symbols"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data(), case=square_sets())
def test_verdicts_are_isotopy_invariant(kind, data, case):
    mols, t = case
    moved = isotopy(data.draw, kind, mols)
    assert _verdicts(verify_set_orthogonality(moved, t)) == \
        _verdicts(verify_set_orthogonality(mols, t))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), case=square_sets())
def test_reordering_squares_permutes_verdicts(data, case):
    mols, t = case
    # Position p of the reordered set holds square order[p] of the original.
    order = data.draw(st.permutations(range(len(mols.squares))))
    moved = MolsSet(mols.order, tuple(mols.squares[i] for i in order))
    original = {v.indices: v.report for v in verify_set_orthogonality(mols, t).verdicts}
    for verdict in verify_set_orthogonality(moved, t).verdicts:
        assert verdict.report == original[tuple(sorted(order[p - 1] + 1 for p in verdict.indices))]
