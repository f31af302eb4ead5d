"""Property tests on scrambled square stacks and corrupted inputs.

A stack is drawn from an order 3-7 family made isotopic by one row and one
column permutation for all squares, an independent symbol relabelling per
square and a shuffled square order, optionally with one square duplicated.

- Chain graphs of its first t = 2-4 squares, and of orthogonal arrays that
  are not Latin, agree with the brute-force oracles.  Whether that stack is
  orthogonal is decided by the quadratic oracle, never by the code under
  test; a stack that is not is built as a graph directly.
- The t-orthogonality report agrees with grouping every cell by its whole
  tuple, on stacks of up to 6 squares and on random arrays, and a tuple
  array round-trips through its grid.
- Subset verification agrees with superimposing every subset on its own
  and, report for report with distinct counts and certificates, with the
  full-enumeration oracle, also on shift squares drawn with repetition,
  whose failing prefixes fail or settle deeper down; it is invariant under
  isotopy and follows a reordering of the squares.
- Past a failing pair cover at t >= 3, whole reports agree with
  superimposing every subset on sets of family squares, their isotopes
  and repeats at orders 3-12, on both sides of the rule that sends the
  squares left after the pair prune to the row-pair groups or the walk.
- The row-permutation pair report agrees with counting the symbol pairs
  of two squares, and report for report with stacking them, on Latin pairs
  of orders 1-13: family pairs, equal squares, row shifts and transposes,
  scrambled together or apart; whole reports on sets that mix them agree
  with the oracle; and on both sides of the bytes limit, orders 255, 256
  and 257, the pairs of one orthogonal and one failing pair get the
  per-subset reports, certificate included.
- A Latin square whose symbols are spelled as ints, floats, Fractions,
  Decimals or True equals the all-int square, hash included, is stored as its bytes
  and gives its rows as ints.
- The three exports equal the per-edge reference exporter byte for byte on
  scrambled stacks, on orthogonal arrays with isolated vertices, and on
  random arrays built as graphs directly, parallel edges included.
- Bipartiteness certificates replay edge by edge on chain graphs, on
  orthogonal arrays that are not Latin, and on complete multipartite graphs.
- Latin validation agrees with a per-symbol count of every lane on
  corrupted grids, also when the grid is block 1-3 of a square file, and
  the square-file parser raises nothing but SquareFileError on mutated or
  arbitrary text, and reads each such text as the per-row reference does:
  the same set, or the same message, line and column.
"""

import contextlib
import itertools
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from molsnet import (CHAIN, FORMATS, LatinSquare, MolsSet, NotOrthogonalError,
                     OrthogonalityReport, PartiteGraph, SquareFileError, TupleArray,
                     brute_force_distinctness, brute_force_multiplicity, build_partite_graph,
                     edge_multiplicity, enumerate_set_orthogonality, export_graph, graph_stats,
                     is_bipartite, is_prime, is_t_orthogonal, make_additive_square,
                     make_complete_multipartite, make_mols_family, parse_square_file,
                     serialize_square_file, superimpose, validate_latin,
                     verify_set_orthogonality, vertex_name)
from molsnet import orthogonality
from molsnet.files import decode_square_file
from molsnet.orthogonality import _pair_report
from molsnet.squares import _rows
from reference import (count_latin_violations, occurrence_report, per_edge_export,
                       per_row_parse, per_subset_verdicts)

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
def scrambled_stacks(draw, max_t=4):
    squares = draw(scrambled_squares())
    t = draw(st.integers(2, min(max_t, len(squares))))
    return superimpose(squares[:t])


@st.composite
def square_sets(draw):
    """A scrambled stack as a MolsSet, with a subset size t in 2..m."""
    squares = draw(scrambled_squares())
    return MolsSet(squares[0].order, tuple(squares)), draw(st.integers(2, len(squares)))


@st.composite
def shift_sets_with_copies(draw):
    """A pool of 3-4 shift squares of order 4 or 6 and 1-4 more copies from
    it, shuffled, with a subset size.

    Two distinct shift squares fail together and three pass, so prefixes
    holding copies fail at several depths while some of their completions
    settle: the walk keeps only the still-colliding cells below them.
    """
    n = draw(st.sampled_from([4, 6]))
    pool = draw(st.lists(st.sampled_from(make_mols_family(n).squares), min_size=3, max_size=4,
                         unique=True))
    squares = draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), min_size=1,
                                                        max_size=4))))
    return MolsSet(n, tuple(squares)), draw(st.integers(2, min(5, len(squares))))


@st.composite
def sparse_orthogonal_arrays(draw):
    """n^2 distinct random t-tuples: orthogonal, but a symbol may be missing
    from a position, which leaves that vertex isolated."""
    n, t = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    entries = draw(st.permutations(list(itertools.product(range(1, n + 1), repeat=t))))
    return TupleArray(n, t, tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n)))


@st.composite
def random_arrays(draw):
    """An n x n grid of random t-tuples over 1..n, so tuples often repeat."""
    n, t = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    row = st.lists(st.tuples(*[st.integers(1, n)] * t), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return TupleArray(n, t, tuple(map(tuple, rows)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(scrambled_stacks(), sparse_orthogonal_arrays(), random_arrays()))
def test_chain_graph_agrees_with_brute_force_pair_counts(array):
    if brute_force_distinctness(array):
        graph = build_partite_graph(array)
    else:
        with pytest.raises(NotOrthogonalError):
            build_partite_graph(array)
        # Built directly, every repeated channel is one more parallel edge.
        graph = PartiteGraph(CHAIN, (array.order,) * array.arity, array)
    counts = brute_force_multiplicity(array)
    assert Counter(graph.edges) == counts

    runs = sorted(counts.items())
    degree = Counter()
    for (u, v), k in runs:
        degree[u] += k
        degree[v] += k
    isolated = "".join(f"{vertex_name(vertex)}\n" for vertex in graph.vertices()
                       if not degree[vertex])
    assert export_graph(graph, "edges").content == isolated + "".join(
        f"{vertex_name(u)} {vertex_name(v)}\n" for (u, v), k in runs for _ in range(k))

    stats = graph_stats(graph)
    assert stats.degree_sequences == tuple(
        tuple(degree[(p, s)] for s in range(1, array.order + 1)) for p in range(array.arity))
    assert stats.simple == all(k == 1 for _, k in runs)

    report = edge_multiplicity(graph)
    assert report.duplicated_edges == tuple((edge, k) for edge, k in runs if k > 1)
    assert report.max_multiplicity == max(counts.values())


any_arrays = st.one_of(scrambled_stacks(max_t=6), random_arrays(), sparse_orthogonal_arrays())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(any_arrays)
def test_t_orthogonality_matches_the_occurrence_dict(array):
    report = occurrence_report(array)
    assert is_t_orthogonal(array) == report


@settings(derandomize=True, max_examples=100, deadline=None)
@given(any_arrays)
def test_tuple_array_round_trips_through_its_grid(array):
    n, t, grid = array.order, array.arity, array.grid
    assert TupleArray(n, t, grid) == array
    assert hash(TupleArray(n, t, grid)) == hash(array)
    assert [array.tuple_at(i, j) for i in range(1, n + 1) for j in range(1, n + 1)] == \
        [entry for row in grid for entry in row]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(scrambled_stacks(), sparse_orthogonal_arrays(), random_arrays()))
def test_exports_agree_with_the_per_edge_exporter(array):
    # Built directly, so arrays that are not t-orthogonal export as multigraphs.
    graph = PartiteGraph(CHAIN, (array.order,) * array.arity, array)
    for fmt in FORMATS:
        assert export_graph(graph, fmt).content == per_edge_export(graph, fmt)


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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(square_sets(), shift_sets_with_copies()))
def test_verify_agrees_with_superimposing_every_subset(case):
    mols, t = case
    report = verify_set_orthogonality(mols, t)
    assert tuple(report.verdicts) == per_subset_verdicts(mols, t)
    # per_subset_verdicts groups each subset's cells by tuple and the oracle
    # compares cell pairs; neither shares code with verify.
    assert report == enumerate_set_orthogonality(mols, t)


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


def _family_squares(n):
    """Latin squares of order n, as rows: the additive family when n is a
    prime above 2 (its squares are pairwise orthogonal), the shift family
    when n+1 is prime (pairwise not), and the cyclic square otherwise."""
    if n > 2 and is_prime(n):
        return [square.cells for square in make_mols_family(n, "additive").squares]
    if n > 1 and is_prime(n + 1):
        return [square.cells for square in make_mols_family(n, "shift").squares]
    return [tuple(tuple((r + c) % n + 1 for c in range(n)) for r in range(n))]


@st.composite
def mixed_latin_squares(draw, max_size):
    """2..max_size Latin squares of one order 1-13, drawn with repetition
    from its family squares, a row shift of one of them and its transpose.
    Each is scrambled by one row and one column permutation, and by its own
    symbol relabelling; the squares share the permutations, or each takes
    its own, or each chooses."""
    n = draw(st.sampled_from(range(1, 14)))
    family = _family_squares(n)
    a = draw(st.sampled_from(family))
    k = draw(st.integers(0, n - 1))
    pool = family + [a[k:] + a[:k], tuple(zip(*a))]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=max_size))
    permutation = st.permutations(range(n))
    shared = (draw(permutation), draw(permutation))
    mode = draw(st.sampled_from(["shared", "own", "either"]))
    squares = []
    for cells in chosen:
        own = mode == "own" or mode == "either" and draw(st.booleans())
        rows, columns = (draw(permutation), draw(permutation)) if own else shared
        relabel = draw(st.permutations(range(1, n + 1)))
        squares.append(LatinSquare(n, tuple(tuple(relabel[cells[r][c] - 1] for c in columns)
                                            for r in rows)))
    return squares


def _holds_every_symbol_pair(a, b):
    return len(set(zip(a.symbols, b.symbols))) == a.order ** 2


def _row_report(a, b):
    """_pair_report on two squares, with None read as the orthogonal report."""
    n = a.order
    report = _pair_report(_rows(a.symbols, n), _rows(b.symbols, n), bytes(range(1, n + 1)))
    return report or OrthogonalityReport(True, n * n, None)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mixed_latin_squares(max_size=2))
def test_row_permutation_pair_test_counts_symbol_pairs(pair):
    a, b = pair
    assert _row_report(a, b).is_orthogonal == _holds_every_symbol_pair(a, b)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mixed_latin_squares(max_size=2))
def test_row_permutation_pair_report_equals_the_stacked_report(pair):
    assert _row_report(*pair) == is_t_orthogonal(superimpose(pair))


def _scrambled(cells, rows, columns, relabel):
    n = len(cells)
    return LatinSquare(n, tuple(tuple(relabel[cells[r][c] - 1] for c in columns) for r in rows))


@pytest.mark.parametrize("n", range(1, 14))
def test_row_permutation_pair_report_on_named_shapes(n):
    # Equal squares (n distinct pairs), a square and its relabelling, every
    # row shift and the transpose of a family square, each scrambled by one
    # row and column permutation together, and then apart.
    rng = random.Random(n)
    family = _family_squares(n)
    a = family[-1]
    partners = [a, a[1:] + a[:1], tuple(zip(*a))] + [a[k:] + a[:k] for k in range(2, n)]
    partners += family[:2]
    together = (rng.sample(range(n), n), rng.sample(range(n), n))
    for b in partners:
        apart = (rng.sample(range(n), n), rng.sample(range(n), n))
        for permutations_b in (together, apart):
            labels = [rng.sample(range(1, n + 1), n) for _ in range(2)]
            x = _scrambled(a, *together, labels[0])
            y = _scrambled(b, *permutations_b, labels[1])
            assert _row_report(x, y) == is_t_orthogonal(superimpose([x, y]))
    assert _row_report(LatinSquare(n, a), LatinSquare(n, a)).distinct_count == n


@st.composite
def mixed_pair_sets(draw):
    """mixed_latin_squares as a MolsSet of 2-5 squares, with a subset size."""
    squares = draw(mixed_latin_squares(max_size=5))
    return MolsSet(squares[0].order, tuple(squares)), draw(st.integers(2, len(squares)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mixed_pair_sets())
def test_verify_of_mixed_pairs_agrees_with_the_oracle(case):
    mols, t = case
    assert verify_set_orthogonality(mols, t) == enumerate_set_orthogonality(mols, t)


SPELLINGS = (int, float, Fraction, Decimal, lambda s: True if s == 1 else s)


@st.composite
def respelled_squares(draw):
    """A square from mixed_latin_squares and its cells with each symbol
    spelled as an int, a float, a Fraction, a Decimal or, for 1, True."""
    square = draw(mixed_latin_squares(max_size=2))[0]
    n = square.order
    spell = iter(draw(st.lists(st.sampled_from(SPELLINGS), min_size=n * n, max_size=n * n)))
    return square, tuple(tuple(next(spell)(s) for s in row) for row in square.cells)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(respelled_squares())
def test_a_square_spelled_with_equal_symbols_is_the_all_int_square(case):
    square, cells = case
    respelled = LatinSquare(square.order, cells)
    assert respelled == square and hash(respelled) == hash(square)
    assert type(respelled.symbols) is bytes and respelled.symbols == square.symbols
    assert respelled.cells == square.cells
    assert {type(s) for row in respelled.cells for s in row} == {int}
    assert validate_latin(respelled).ok
    assert superimpose([respelled, square]) == superimpose([square, square])


def _xtime(y):
    """y times 2 in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1."""
    return (y << 1) ^ (0x11B if y & 0x80 else 0)


def _boundary_pair(n):
    """An orthogonal pair of order n: i + j and i + 2j mod n for odd n,
    i xor j and i xor 2j in GF(2^8) for n = 256."""
    if n == 256:
        a = tuple(tuple((i ^ j) + 1 for j in range(n)) for i in range(n))
        b = tuple(tuple((i ^ _xtime(j)) + 1 for j in range(n)) for i in range(n))
        return LatinSquare(n, a), LatinSquare(n, b)
    if is_prime(n):
        return make_additive_square(n, 1), make_additive_square(n, 2)
    return tuple(LatinSquare(n, tuple(tuple((i + h * j) % n + 1 for j in range(n))
                                      for i in range(n))) for h in (1, 2))


@st.composite
def isotope_sets(draw, side):
    """Squares of one order 3-12 drawn with repetition from its family
    squares (_family_squares) and isotopes of the first of them, each by a
    row, a column and a symbol permutation, with a subset size t >= 3.

    side picks the sizes against the order.  "rows": orders 3-7 and 3-8
    squares, so the squares left after the pair prune are often at least
    half the order and the row-pair groups decide.  "walk": orders 8-12 and
    3 to fewer than half the order squares, so whatever is left goes to the
    prefix walk.
    """
    n = draw(st.integers(3, 7) if side == "rows" else st.integers(8, 12))
    family = _family_squares(n)
    a = family[0]
    permutation = st.permutations(range(n))
    pool = list(family)
    for _ in range(draw(st.integers(1, 3))):
        rows, columns = draw(permutation), draw(permutation)
        relabel = draw(st.permutations(range(1, n + 1)))
        pool.append(tuple(tuple(relabel[a[r][c] - 1] for c in columns) for r in rows))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=3,
                           max_size=8 if side == "rows" else (n - 1) // 2))
    squares = tuple(LatinSquare(n, cells) for cells in chosen)
    return MolsSet(n, squares), draw(st.integers(3, len(squares)))


@pytest.mark.parametrize("side", ["rows", "walk"])
@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_past_a_failing_cover_agrees_with_superimposing_every_subset(side, data):
    mols, t = data.draw(isotope_sets(side))
    assert tuple(verify_set_orthogonality(mols, t).verdicts) == per_subset_verdicts(mols, t)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_both_sides_of_the_bytes_limit_decide_pairs_exactly(n, monkeypatch):
    # Bytes hold symbols up to 255: order 255 is decided from rows, orders
    # 256 and 257 from stacked keys.  Square 3 repeats square 1, so (1, 2)
    # and (2, 3) are orthogonal and (1, 3) fails with n distinct pairs.  At
    # t = 2 each of the 3 pairs is decided once, by one row report or by
    # one prefix walk on the pair, whose one child is the only key pass
    # (_appended).  At t = 3 the cover is (1, 2) alone, which passes.  The route is picked
    # by the order alone, so the storage rule it trusts is pinned here:
    # every square, every superimposed column and every column of a stack
    # built from a grid is bytes up to order 255 and a tuple above it.
    a, b = _boundary_pair(n)
    assert _holds_every_symbol_pair(a, b)
    mols = MolsSet(n, (a, b, a))
    stored = bytes if n <= 255 else tuple
    stack = superimpose(mols)
    grid = TupleArray(n, 3, stack.grid)
    for symbols in (*(square.symbols for square in mols), *stack.columns, *grid.columns):
        assert type(symbols) is stored
    calls = Counter()
    for name in ("_pair_report", "_appended", "_prefix_walk"):
        def spy(*args, _name=name, _original=getattr(orthogonality, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(orthogonality, name, spy)
    decisions = ("_pair_report",) if n <= 255 else ("_prefix_walk", "_appended")
    report = verify_set_orthogonality(mols, 2)
    assert calls == Counter(dict.fromkeys(decisions, 3))
    calls.clear()
    assert verify_set_orthogonality(mols, 3).all_orthogonal
    assert calls == Counter(dict.fromkeys(decisions, 1))
    monkeypatch.undo()
    assert tuple(report.verdicts) == per_subset_verdicts(mols, 2)
    assert [v.indices for v in report.failures] == [(1, 3)]
    assert report.failures[0].report == is_t_orthogonal(superimpose([a, a]))
    assert report.failures[0].report.distinct_count == n


def assert_certificate_replays(graph):
    report = is_bipartite(graph)
    assert report.bipartite == (graph.kind == CHAIN or graph.num_parts <= 2)
    edges = list(graph.sorted_edges())
    if report.bipartite:
        assert report.odd_walk is None
        assert [vertex for vertex, _ in report.coloring] == graph.vertices()
        color = dict(report.coloring)
        assert set(color.values()) <= {0, 1}
        assert all(color[u] != color[v] for u, v in edges)
    else:
        walk = report.odd_walk
        assert report.coloring is None
        assert walk[0] == walk[-1] and len(walk) % 2 == 0     # closed, odd step count
        undirected = {frozenset(edge) for edge in edges}
        assert all(frozenset(step) in undirected for step in zip(walk, walk[1:]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scrambled_stacks())
def test_chain_graph_coloring_replays(array):
    # Non-orthogonal stacks too: repeated channels leave the parts as they are.
    assert_certificate_replays(PartiteGraph(CHAIN, (array.order,) * array.arity, array))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sparse_orthogonal_arrays())
def test_non_latin_chain_graph_coloring_replays(array):
    assert_certificate_replays(build_partite_graph(array))


def test_every_small_complete_multipartite_certificate_replays():
    for parts in range(1, 6):
        for sizes in itertools.product(range(1, 4), repeat=parts):
            assert_certificate_replays(make_complete_multipartite(sizes))


@st.composite
def corrupted_squares(draw):
    """A scrambled cyclic Latin square of order 1-7 after one to three
    corruptions: a cell set to a symbol in 0..n+1, a row or a column copied
    over another, or a transpose."""
    n = draw(st.integers(1, 7))
    rows = draw(st.permutations(range(n)))
    columns = draw(st.permutations(range(n)))
    cells = [[(r + c) % n + 1 for c in columns] for r in rows]
    index = st.integers(0, n - 1)
    kinds = st.sampled_from(["symbol", "row", "column", "transpose"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "symbol":
            cells[draw(index)][draw(index)] = draw(st.integers(0, n + 1))
        elif kind == "row":
            cells[draw(index)] = list(cells[draw(index)])
        elif kind == "column":
            source, target = draw(index), draw(index)
            for row in cells:
                row[target] = row[source]
        else:
            cells = [list(column) for column in zip(*cells)]
    return LatinSquare(n, tuple(tuple(row) for row in cells))


def expected_parse_error(square, report, k):
    """The SquareFileError of a file whose block k is the square and whose
    k - 1 blocks before it are valid, or None."""
    n = square.order
    start = 2 + (k - 1) * (n + 1)
    for line, row in enumerate(square.cells, start=start):
        for column, symbol in enumerate(row, start=1):
            if not 1 <= symbol <= n:
                return SquareFileError(f"symbol {symbol} out of range 1..{n}", line, column)
    if report.ok:
        return None
    first = report.violations[0]
    line = start + first.index - 1 if first.axis == "row" else start
    return SquareFileError(f"block {k} is not a Latin square: {first.describe()}", line)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(corrupted_squares(), st.integers(1, 3))
def test_latin_validation_matches_the_per_symbol_count(square, k):
    report = count_latin_violations(square)
    assert validate_latin(square) == report
    if not report.ok:
        with pytest.raises(ValueError) as excinfo:
            MolsSet(square.order, (square,))
        assert str(excinfo.value) == f"square 1 is not Latin: {report.violations[0].describe()}"

    n = square.order
    cyclic = LatinSquare(n, tuple(tuple((r + c) % n + 1 for c in range(n)) for r in range(n)))
    blocks = [cyclic] * (k - 1) + [square]
    text = f"{n} {k}\n" + "\n".join(
        "".join(" ".join(map(str, row)) + "\n" for row in block.cells) for block in blocks)
    expected = expected_parse_error(square, report, k)
    if expected is None:
        assert parse_square_file(text).squares == tuple(blocks)
        return
    with pytest.raises(SquareFileError) as excinfo:
        parse_square_file(text)
    got = excinfo.value
    assert (str(got), got.line, got.column) == (str(expected), expected.line, expected.column)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(square_sets())
def test_parse_inverts_serialize(case):
    mols, _ = case
    text = serialize_square_file(mols)
    parsed = parse_square_file(text)
    assert parsed == mols
    assert serialize_square_file(parsed) == text


# Characters that int(), str.split() or str.splitlines() treat specially.
PARSE_ALPHABET = "0123456789+-_x \t\n\r\x0c\x1c\x85\xa0\u0661\u3000"


def parse_outcome(parse, text):
    """What parse makes of text: a set, or its error's message, line and column."""
    try:
        return parse(text)
    except SquareFileError as exc:
        return str(exc), exc.line, exc.column


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), squares=scrambled_squares())
def test_single_character_mutations_raise_only_square_file_errors(data, squares):
    # Every outcome is the per-row reference's.  A token moved to the start
    # of the next row keeps the block's n^2 tokens, but neither row holds n.
    kept = squares[:data.draw(st.integers(1, 2))]
    text = serialize_square_file(MolsSet(kept[0].order, tuple(kept)))
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "move"]))
    if edit == "move":
        lines = text.split("\n")
        i = data.draw(st.sampled_from([i for i in range(1, len(lines) - 1)
                                       if lines[i] and lines[i + 1]]))
        rest, _, token = lines[i].rpartition(" ")
        lines[i:i + 2] = rest, f"{token} {lines[i + 1]}"
        text = "\n".join(lines)
    else:
        at = data.draw(st.integers(0, len(text)))
        char = data.draw(st.sampled_from(PARSE_ALPHABET))
        skip = 0 if edit == "insert" else 1
        text = text[:at] + ("" if edit == "delete" else char) + text[at + skip:]
    assert parse_outcome(parse_square_file, text) == parse_outcome(per_row_parse, text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), squares=scrambled_squares())
def test_single_byte_mutations_raise_only_square_file_errors(data, squares):
    kept = squares[:data.draw(st.integers(1, 2))]
    raw = serialize_square_file(MolsSet(kept[0].order, tuple(kept))).encode()
    at = data.draw(st.integers(0, len(raw) - 1))
    byte = bytes([data.draw(st.integers(0, 255))])
    with contextlib.suppress(SquareFileError):
        text = decode_square_file(raw[:at] + byte + raw[at + 1:])
        assert parse_outcome(parse_square_file, text) == parse_outcome(per_row_parse, text)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(header=st.sampled_from(["", "1 1\n", "2 1\n", "2 2\n", "3 1\n"]),
       body=st.text(PARSE_ALPHABET, max_size=40))
def test_arbitrary_text_raises_only_square_file_errors(header, body):
    text = header + body
    assert parse_outcome(parse_square_file, text) == parse_outcome(per_row_parse, text)
