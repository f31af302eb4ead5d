import itertools
import random
from collections import Counter
from math import comb

import pytest

import molsnet.orthogonality
from golden import ORDER4_TRIPLE_ARRAY, ORDER5_QUAD_ARRAY
from molsnet import (LatinSquare, MolsSet, TupleArray, enumerate_set_orthogonality, is_prime,
                     is_t_orthogonal, make_additive_square, make_mols_family,
                     make_multiplicative_square, make_turan_graph, superimpose, turan_edge_count,
                     verify_set_orthogonality)
from molsnet.orthogonality import (OrthogonalityReport, SubsetVerdict, _collision_report,
                                   _prefix_walk, _row_pair_failures, _runs, subset_rank)
from reference import (distinct_slope_report, occurrence_report, per_subset_verdicts,
                       shift_family_report, shift_family_report_by_subsets)

# Every (order, method) up to order 13 whose family has at least two squares.
FAMILIES = [(n, method) for n in range(2, 14) for method in ("additive", "shift")
            if (method == "additive" and is_prime(n) and n > 2)
            or (method == "shift" and is_prime(n + 1))]


class TestSuperimpose:
    def test_first_three_order_4_squares_match_published_array(self, family4):
        array = superimpose(list(family4.squares[:3]))
        assert array.order == 4 and array.arity == 3
        assert array.grid == ORDER4_TRIPLE_ARRAY
        assert array.tuple_at(2, 2) == (4, 1, 3)

    def test_all_four_order_5_squares_match_published_array(self, family5):
        array = superimpose(list(family5.squares))
        assert array.grid == ORDER5_QUAD_ARRAY

    def test_needs_at_least_two_squares(self, family5):
        with pytest.raises(ValueError):
            superimpose([family5[0]])
        with pytest.raises(ValueError, match="need at least 2 squares to superimpose, got 1"):
            superimpose(iter([family5[0]]))

    def test_rejects_mixed_orders(self, family4, family5):
        with pytest.raises(ValueError):
            superimpose([family4[0], family5[0]])

    def test_square_with_itself_gives_diagonal_tuples(self):
        square = make_additive_square(3, 1)
        array = superimpose([square, square])
        for i in range(1, 4):
            for j in range(1, 4):
                x = square.cells[i - 1][j - 1]
                assert array.tuple_at(i, j) == (x, x)

    def test_each_column_is_its_square_s_symbols(self):
        squares = make_mols_family(7).squares
        for stacked in (superimpose(squares), superimpose(iter(squares))):
            assert all(stacked.columns[k] is squares[k].symbols for k in range(len(squares)))

    def test_without_consume_the_list_is_left_as_given(self, family5):
        squares = list(family5.squares)
        superimpose(squares)
        assert squares == list(family5.squares)


class TestIsTOrthogonal:
    def test_published_arrays_are_orthogonal(self):
        for grid, t in ((ORDER4_TRIPLE_ARRAY, 3), (ORDER5_QUAD_ARRAY, 4)):
            report = is_t_orthogonal(TupleArray(len(grid), t, grid))
            assert report.is_orthogonal
            assert report.distinct_count == len(grid) ** 2
            assert report.first_collision is None

    def test_self_stack_is_never_orthogonal(self):
        # Only the n diagonal tuples (x, x) can occur.
        for n in (2, 3, 4, 5):
            square = make_mols_family(n)[0]
            report = is_t_orthogonal(superimpose([square, square]))
            assert not report.is_orthogonal
            assert report.distinct_count == n

    def test_first_collision_is_the_row_major_minimum(self):
        square = make_additive_square(3, 1)    # rows 231 312 123
        report = is_t_orthogonal(superimpose([square, square]))
        # Cell (1,1) holds (2,2); the next cell with symbol 2 is (2,3).
        assert report.first_collision == ((1, 1), (2, 3))

    def test_consecutive_shift_squares_collide(self, family4):
        # (i*j, i'*j) mod 5 repeats pairs across the row wrap, so the first
        # two shift squares are not 2-orthogonal: 12 distinct pairs, not 16.
        report = is_t_orthogonal(superimpose(list(family4.squares[:2])))
        assert not report.is_orthogonal
        assert report.distinct_count == 12
        a, b = report.first_collision
        array = superimpose(list(family4.squares[:2]))
        assert array.tuple_at(*a) == array.tuple_at(*b)

    def test_no_order_4_shift_pair_is_orthogonal(self, family4):
        # The shift family is 3- and 4-orthogonal but never 2-orthogonal.
        for a, b in itertools.combinations(range(4), 2):
            report = is_t_orthogonal(superimpose([family4[a], family4[b]]))
            assert not report.is_orthogonal

    def test_certificate_starts_at_the_first_repeated_key(self):
        # Keys x, y, y, x at positions 1, 4, 5 and 8 of a 3 x 3 grid: x
        # repeats first, so the cells are positions 1 and 8, not 4 and 5;
        # the other five cells are unique, so 7 tuples are distinct.
        report = _collision_report([7, 9, 9, 7], 3, [1, 4, 5, 8])
        assert report == OrthogonalityReport(False, 7, ((1, 2), (3, 3)))

    def test_verdict_ignores_square_order(self, family5):
        chosen = [family5[0], family5[1], family5[3]]
        verdicts = {is_t_orthogonal(superimpose(list(p))).is_orthogonal
                    for p in itertools.permutations(chosen)}
        assert verdicts == {True}

    def test_each_call_is_one_walk_of_its_one_subset(self, family4, family5, monkeypatch):
        # The verdict is _prefix_walk's on the labels 1..t of the stack's
        # columns, with no passed pairs and no key pass (_appended) of its
        # own, outside the walk: orthogonal at t = 2 and t = 4, a failing
        # pair, a stack that fails on its first two squares and passes with
        # the third, a stack that fails at every depth, and order 1.
        walks, key_passes, walking = [], [], []
        walk, keys = molsnet.orthogonality._prefix_walk, molsnet.orthogonality._appended

        def walk_spy(*args):
            walks.append(args)
            walking.append(args)
            try:
                return walk(*args)
            finally:
                walking.pop()

        def keys_spy(*args):
            key_passes.append(bool(walking))
            return keys(*args)
        monkeypatch.setattr(molsnet.orthogonality, "_prefix_walk", walk_spy)
        monkeypatch.setattr(molsnet.orthogonality, "_appended", keys_spy)
        one = LatinSquare(1, ((1,),))
        stacks = [family5.squares[:2], family5.squares, family4.squares[:2], family4.squares[:3],
                  (family5[2],) * 3, (one, one)]
        for squares in stacks:
            array = superimpose(squares)
            walks.clear()
            key_passes.clear()
            report = is_t_orthogonal(array)
            assert walks == [(range(1, len(squares) + 1), array.columns, array.order,
                              len(squares), set())]
            assert key_passes and all(key_passes)
            assert report == occurrence_report(array)


class TestDistinctTupleCount:
    def test_published_array_counts(self):
        assert is_t_orthogonal(TupleArray(4, 3, ORDER4_TRIPLE_ARRAY)).distinct_count == 16
        assert is_t_orthogonal(TupleArray(5, 4, ORDER5_QUAD_ARRAY)).distinct_count == 25

    def test_count_of_first_two_order_4_squares(self, family4):
        array = superimpose(list(family4.squares[:2]))
        # Independent recount: collect the 16 pairs and deduplicate by
        # scanning a list, no hashing of the main path involved.
        seen = []
        for i in range(1, 5):
            for j in range(1, 5):
                pair = (family4[0].cells[i - 1][j - 1], family4[1].cells[i - 1][j - 1])
                if pair not in seen:
                    seen.append(pair)
        assert len(seen) == 12
        assert is_t_orthogonal(array).distinct_count == 12

    def test_bounds(self, family5):
        # Never below n (each row of the first square is a permutation)
        # and never above n^2.
        n = 5
        stacks = [list(family5.squares[:2]), list(family5.squares),
                  [family5[2], family5[2]]]
        for squares in stacks:
            count = is_t_orthogonal(superimpose(squares)).distinct_count
            assert n <= count <= n * n


class TestVerifySetOrthogonality:
    def test_order_5_family_passes_every_t(self, family5):
        for t, subsets in ((2, 6), (3, 4), (4, 1)):
            report = verify_set_orthogonality(family5, t)
            assert report.all_orthogonal
            assert len(report.verdicts) == subsets
            assert report.failures == ()

    def test_order_4_family_is_3_and_4_orthogonal(self, family4):
        assert verify_set_orthogonality(family4, 3).all_orthogonal
        assert verify_set_orthogonality(family4, 4).all_orthogonal

    def test_order_4_family_fails_pairwise(self, family4):
        report = verify_set_orthogonality(family4, 2)
        assert not report.all_orthogonal
        assert len(report.failures) == 6

    def test_verdicts_carry_subset_indices_in_order(self, family5):
        report = verify_set_orthogonality(family5, 3)
        assert [v.indices for v in report.verdicts] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_repeated_square_fails_on_that_pair(self, family5):
        square = family5[0]
        doubled = MolsSet(5, (square, family5[1], square))
        report = verify_set_orthogonality(doubled, 2)
        failing = [v.indices for v in report.failures]
        assert (1, 3) in failing
        assert tuple(report.verdicts)[0].report.is_orthogonal      # (1, 2) is fine

    def test_t_must_fit_the_set(self, family5):
        with pytest.raises(ValueError):
            verify_set_orthogonality(family5, 1)
        with pytest.raises(ValueError):
            verify_set_orthogonality(family5, 5)

    def test_builds_no_tuple_array(self, family5, monkeypatch):
        def forbidden(*args):
            raise AssertionError("verify_set_orthogonality must not build tuple arrays")
        monkeypatch.setattr(molsnet.orthogonality, "superimpose", forbidden)
        monkeypatch.setattr(molsnet.orthogonality, "is_t_orthogonal", forbidden)
        assert verify_set_orthogonality(family5, 3).all_orthogonal
        assert not verify_set_orthogonality(make_mols_family(4), 2).all_orthogonal

    def test_subset_depth_is_not_bounded_by_the_recursion_limit(self):
        square = make_additive_square(2, 1)
        many = MolsSet(2, (square,) * 1100)
        (verdict,) = verify_set_orthogonality(many, 1100).verdicts
        assert verdict.indices == tuple(range(1, 1101))
        assert verdict.report.distinct_count == 2
        assert verdict.report.first_collision == ((1, 1), (2, 2))

    @pytest.mark.parametrize("n", range(2, 14))
    def test_copies_of_one_square_fail_in_closed_form(self, n):
        # A stack of copies repeats one coordinate, so its n^2 tuples take
        # n values, and cell (1,1) first repeats in row 2, at the column
        # that holds its symbol.  Orders 8 and 9 have no family; the cyclic
        # square (i + j) mod n stands in for theirs.
        if is_prime(n) or is_prime(n + 1):
            square = make_mols_family(n).squares[0]
        else:
            square = LatinSquare(n, tuple(tuple((i + j) % n + 1 for j in range(n))
                                          for i in range(n)))
        cells = square.cells
        closed_form = OrthogonalityReport(False, n, ((1, 1), (2, cells[1].index(cells[0][0]) + 1)))
        for k in (2, 3, 7, 12):
            for t in range(2, min(k, 5) + 1):
                verdicts = tuple(verify_set_orthogonality(MolsSet(n, (square,) * k), t).verdicts)
                assert len(verdicts) == comb(k, t)
                assert {verdict.report for verdict in verdicts} == {closed_form}

    def test_keys_past_64_bits_with_mixed_verdicts(self, family5):
        # The prefixes of 26 copies of one square fail with keys up to
        # 6^26, about 2^67; adding the other square makes them orthogonal.
        mols = MolsSet(5, (family5[0],) * 26 + (family5[1],))
        report = verify_set_orthogonality(mols, 26)
        assert report == enumerate_set_orthogonality(mols, 26)
        assert tuple(report.verdicts) == per_subset_verdicts(mols, 26)
        assert [v.indices for v in report.failures] == [tuple(range(1, 27))]
        assert len(report.verdicts) == 27

    def test_order_1_subsets_are_orthogonal(self):
        one = MolsSet(1, (LatinSquare(1, ((1,),)),) * 3)
        report = verify_set_orthogonality(one, 2)
        assert tuple(report.verdicts) == per_subset_verdicts(one, 2)
        assert report.all_orthogonal

    @staticmethod
    def _decisions(monkeypatch):
        """Count the pair decisions of verify by route: _pair_report calls
        on rows, and prefix walks and their key passes (_appended) on keys."""
        calls = Counter()
        for name in ("_pair_report", "_prefix_walk", "_appended"):
            def spy(*args, _name=name, _original=getattr(molsnet.orthogonality, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(molsnet.orthogonality, name, spy)
        return calls

    def test_a_float_symbol_is_its_byte_and_is_decided_from_rows(self, monkeypatch):
        # 1.0 equals 1, so a square that holds it is stored as the byte 1
        # and its pairs are decided from rows, in the t = 2 reports and in
        # the cover, with no walk and no key pass.
        one = LatinSquare(1, ((1.0,),))
        family = list(make_mols_family(5).squares)
        cells = [list(row) for row in family[1].cells]
        cells[0][cells[0].index(1)] = 1.0
        floated = LatinSquare(5, tuple(map(tuple, cells)))
        assert floated == family[1] and floated.symbols == family[1].symbols == bytes(
            s for row in cells for s in map(int, row))
        calls = self._decisions(monkeypatch)
        for mols in (MolsSet(1, (one,) * 2), MolsSet(1, (one,) * 3),
                     MolsSet(5, (family[0], floated, family[2], floated, family[3]))):
            for t in range(2, min(len(mols), 3) + 1):
                calls.clear()
                report = verify_set_orthogonality(mols, t)
                assert calls["_prefix_walk"] == calls["_appended"] == 0
                assert calls["_pair_report"] >= 1
                if t == 2:
                    assert calls["_pair_report"] == comb(len(mols), 2)
                assert report == enumerate_set_orthogonality(mols, t)

    @staticmethod
    def _order_256_squares():
        """Three squares of order 256: a and b, i xor j and i xor 2j in
        GF(2^8), are orthogonal; c is a with its rows shifted by one and
        one 1 written 1.0."""
        n = 256
        a = tuple(tuple((i ^ j) + 1 for j in range(n)) for i in range(n))
        b = tuple(tuple((i ^ (j << 1) ^ (0x11B if j & 0x80 else 0)) + 1 for j in range(n))
                  for i in range(n))
        shifted = [list(row) for row in a[1:] + a[:1]]
        shifted[0][shifted[0].index(1)] = 1.0
        return LatinSquare(n, a), LatinSquare(n, b), LatinSquare(n, tuple(map(tuple, shifted)))

    def test_order_256_takes_one_key_pass_per_pair(self, monkeypatch):
        # Above order 255 a square's symbols are a tuple, 1.0 included, and
        # each pair is decided by one prefix walk on the pair, whose one
        # child is one key pass.
        mols = MolsSet(256, self._order_256_squares())
        assert all(type(square.symbols) is tuple for square in mols)
        calls = self._decisions(monkeypatch)
        report = verify_set_orthogonality(mols, 2)
        assert calls == Counter({"_prefix_walk": 3, "_appended": 3})
        monkeypatch.undo()
        assert tuple(report.verdicts) == per_subset_verdicts(mols, 2)
        assert [v.indices for v in report.failures] == [(1, 3), (2, 3)]

    def test_order_256_hands_a_failing_cover_to_the_whole_set_walk(self, monkeypatch):
        # On (a, b, c, c) at t = 3 the cover pairs are (1, 2), which passes,
        # and the copies (3, 4), which fail; above order 255 the hand-over
        # is the prefix walk on labels 1..4, given the passed pair.
        a, b, c = self._order_256_squares()
        mols = MolsSet(256, (a, b, c, c))
        walks, walk = [], molsnet.orthogonality._prefix_walk

        def walk_spy(labels, flat, n, t, orthogonal_pairs):
            walks.append((tuple(labels), t, set(orthogonal_pairs)))
            return walk(labels, flat, n, t, orthogonal_pairs)
        monkeypatch.setattr(molsnet.orthogonality, "_prefix_walk", walk_spy)
        report = verify_set_orthogonality(mols, 3)
        assert walks == [((1, 2), 2, set()), ((3, 4), 2, set()), ((1, 2, 3, 4), 3, {(1, 2)})]
        monkeypatch.undo()
        assert tuple(report.verdicts) == per_subset_verdicts(mols, 3)
        assert [v.indices for v in report.failures] == [(1, 3, 4), (2, 3, 4)]

    @pytest.mark.parametrize("n,method", [case for case in FAMILIES if case[0] <= 7])
    def test_matches_full_enumeration_oracle(self, n, method):
        family = make_mols_family(n, method)
        for t in range(2, len(family) + 1):
            assert verify_set_orthogonality(family, t) == enumerate_set_orthogonality(family, t)

    @pytest.mark.parametrize("n,method", FAMILIES)
    def test_matches_per_subset_superimposition(self, n, method):
        family = make_mols_family(n, method)
        for t in range(2, len(family) + 1):
            if comb(len(family), t) <= 2000:
                assert tuple(verify_set_orthogonality(family, t).verdicts) == \
                    per_subset_verdicts(family, t)


def _key_passes(monkeypatch):
    """Count the tests of verify_set_orthogonality up to order 255, one per
    tested node: a pair of the cover is decided by one _pair_report call,
    and every walk node by one key pass."""
    passes = Counter()
    for name in ("_pair_report", "_appended"):
        def spy(*args, _original=getattr(molsnet.orthogonality, name)):
            passes["keys"] += 1
            return _original(*args)
        monkeypatch.setattr(molsnet.orthogonality, name, spy)
    return passes


def _pair_passes(monkeypatch, mols):
    """Count the tests of each square pair (a, b) in verify of mols up to
    order 255: the _pair_report calls on the rows of a and b, and the walk's
    key passes that add column b to square a's column, scaled once per a.
    A square's column is its symbols tuple, so the squares of mols must be
    distinct objects."""
    passes, first_of, rows_of, held = Counter(), {}, {}, []
    columns = {id(square.symbols): k for k, square in enumerate(mols.squares, start=1)}
    orthogonality = molsnet.orthogonality
    rows_original, report_original = orthogonality._rows, orthogonality._pair_report
    scaled_original, appended_original = orthogonality._scaled, orthogonality._appended

    def rows_spy(column, n):
        rows = rows_original(column, n)
        held.append(rows)
        rows_of[id(rows)] = columns[id(column)]
        return rows

    def report_spy(rows_a, rows_b, full):
        passes[rows_of[id(rows_a)], rows_of[id(rows_b)]] += 1
        return report_original(rows_a, rows_b, full)

    def scaled_spy(keys, n):
        scaled = scaled_original(keys, n)
        if id(keys) in columns:
            held.append(scaled)
            first_of[id(scaled)] = columns[id(keys)]
        return scaled

    def appended_spy(scaled, column):
        if id(scaled) in first_of:
            passes[first_of[id(scaled)], columns[id(column)]] += 1
        return appended_original(scaled, column)
    monkeypatch.setattr(orthogonality, "_rows", rows_spy)
    monkeypatch.setattr(orthogonality, "_pair_report", report_spy)
    monkeypatch.setattr(orthogonality, "_scaled", scaled_spy)
    monkeypatch.setattr(orthogonality, "_appended", appended_spy)
    return passes


def _cover(mols, t):
    """Whether every pair within t-1 balanced runs of the squares is
    orthogonal, and the pairs that pass before the first one that fails,
    taken in index order and decided by superimposing each pair."""
    passed = set()
    for run in _runs(len(mols.squares), t - 1):
        for a, b in itertools.combinations(run, 2):
            pair = [mols.squares[a - 1], mols.squares[b - 1]]
            if not is_t_orthogonal(superimpose(pair)).is_orthogonal:
                return False, passed
            passed.add((a, b))
    return True, passed


class TestPairCover:
    """verify tests the pairs within t-1 balanced runs of the squares first,
    and walks the prefix tree only from the first failing one."""

    def test_runs_are_the_parts_of_the_turan_graph(self):
        for size in range(1, 13):
            for parts in range(1, size + 1):
                runs = list(_runs(size, parts))
                small, extra = divmod(size, parts)
                sizes = (small + 1,) * extra + (small,) * (parts - extra)
                assert tuple(map(len, runs)) == sizes == make_turan_graph(parts, size).part_sizes
                assert list(itertools.chain.from_iterable(runs)) == list(range(1, size + 1))

    @pytest.mark.parametrize("n", [11, 13, 17, 19, 23])
    def test_additive_sets_take_exactly_the_cover_pairs(self, n, monkeypatch):
        family, m = make_mols_family(n), n - 1
        passes = _key_passes(monkeypatch)
        for t in range(2, 6):
            passes.clear()
            assert verify_set_orthogonality(family, t).all_orthogonal
            assert passes["keys"] == comb(m, 2) - turan_edge_count(t - 1, m)

    @pytest.mark.parametrize("n", [4, 6, 10, 12, 16])
    def test_shift_sets_take_at_most_one_pass_more_than_the_walk(self, n, monkeypatch):
        family = make_mols_family(n, "shift")
        flat = [square.symbols for square in family.squares]
        passes = _key_passes(monkeypatch)
        for t in range(2, min(len(family), 5) + 1):
            passes.clear()
            report = verify_set_orthogonality(family, t)
            verify_passes = passes.pop("keys")
            walked = _prefix_walk(range(1, len(flat) + 1), flat, n, t, set())
            assert verify_passes <= passes["keys"] + 1
            assert report.failures == tuple(walked)

    @pytest.mark.parametrize("n", [10, 16])
    def test_a_shift_set_builds_each_square_s_rows_once(self, n, monkeypatch):
        # Every shift pair fails.  At t = 3 the cover stops at (1, 2) and
        # the prune decides every other pair from rows, and at t = 2 every
        # pair gets its report from rows; either way each square's rows are
        # built once, in order, and the row-pair groups reuse them.
        family, built = make_mols_family(n, "shift"), []
        original = molsnet.orthogonality._rows

        def spy(column, order):
            built.append(column)
            return original(column, order)
        monkeypatch.setattr(molsnet.orthogonality, "_rows", spy)
        for t in (3, 2):
            built.clear()
            verify_set_orthogonality(family, t)
            assert built == [square.symbols for square in family.squares]

    @pytest.mark.parametrize("n,method", [(10, "shift"), (13, "additive"), (28, "shift")])
    def test_pairs_take_one_row_report_each_and_no_key_pass(self, n, method, monkeypatch):
        # At t = 2 up to order 255, verify decides each pair once from rows
        # and never enters the prefix walk, with or without a duplicate.
        family = list(make_mols_family(n, method).squares)
        calls = Counter()
        for name in ("_pair_report", "_scaled", "_appended", "_prefix_walk"):
            def spy(*args, _name=name, _original=getattr(molsnet.orthogonality, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(molsnet.orthogonality, name, spy)
        for squares in (family, family[:3] + family[:1] + family[3:]):
            calls.clear()
            report = verify_set_orthogonality(MolsSet(n, tuple(squares)), 2)
            assert calls == Counter({"_pair_report": comb(len(squares), 2)})
            assert report.all_orthogonal == (method == "additive" and squares is family)

    @pytest.mark.parametrize("n", [5, 7])
    def test_duplicates_anywhere_hand_over_without_repeating_a_pair(self, n, monkeypatch):
        # One copy of each square at each position, then a row shift of the
        # first square, which fails only with that square and its copies.
        # The first failing pair of the cover then comes after pairs that
        # already passed, and the walk must settle those without a pass: only
        # the failing pair is tested twice, by the cover and by the walk.
        # Each copy is an equal square of its own, so _pair_passes tells
        # the two positions apart.
        base = list(make_mols_family(n).squares)
        first = base[0]
        shifted = LatinSquare(n, first.cells[1:] + first.cells[:1])
        settled = 0
        for source, position in itertools.product(range(len(base)), range(len(base) + 1)):
            copy = LatinSquare(n, base[source].cells)
            mols = MolsSet(n, tuple(base[:position] + [copy] + base[position:] + [shifted]))
            for t in range(2, len(mols.squares) + 1):
                covered, passed = _cover(mols, t)
                passes = _pair_passes(monkeypatch, mols)
                report = verify_set_orthogonality(mols, t)
                monkeypatch.undo()
                assert report == enumerate_set_orthogonality(mols, t)
                repeated = [pair for pair, count in passes.items() if count > 1]
                assert len(repeated) <= (not covered)
                assert all(passes[pair] == 2 and pair not in passed for pair in repeated)
                settled += sum(pair in passed for pair in passes)
        assert settled > 0

    def test_a_node_that_holds_a_passed_pair_is_settled_below_depth_2(self, monkeypatch):
        # The order-13 additive family with a copy of square 1 inserted at
        # position 7 and position 12 replaced by a copy of position 10.  At
        # t = 4 the cover fails only at its last run, on (10, 12), after
        # (7, 8) and (7, 9) passed.  Up to order 255 the pair prune then
        # leaves no square with t - 1 failing partners, so nothing below the
        # failing pair (1, 7) takes a key pass; the walk's own settling of
        # such nodes is pinned in TestRowPairs.
        squares = list(make_mols_family(13).squares)
        squares.insert(6, squares[0])
        squares[11] = squares[9]
        mols = MolsSet(13, tuple(squares))
        passes = _key_passes(monkeypatch)
        for t in range(2, 6):
            passes.clear()
            report = verify_set_orthogonality(mols, t)
            assert tuple(report.verdicts) == per_subset_verdicts(mols, t)
            if t == 4:
                assert passes["keys"] <= 59


def _routes(monkeypatch):
    """Count the routes verify takes past a failing cover at t >= 3."""
    calls = Counter()
    for name in ("_row_pair_failures", "_prefix_walk"):
        def spy(*args, _name=name, _original=getattr(molsnet.orthogonality, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(molsnet.orthogonality, name, spy)
    return calls


def _brute_row_pair_groups(labels, squares, t):
    """Every set of t or more squares whose cells (r, c) and (r', c'),
    r < r', hold one symbol on each of them, with those cells' row-major
    positions: read cell by cell from the squares' rows."""
    n = squares[0].order
    groups = {}
    for r, r2 in itertools.combinations(range(n), 2):
        for c in range(n):
            partners = {}
            for label, square in zip(labels, squares):
                partners.setdefault(square.cells[r2].index(square.cells[r][c]), []).append(label)
            for c2, group in partners.items():
                if len(group) >= t:
                    groups.setdefault(tuple(group), set()).update((r * n + c, r2 * n + c2))
    return groups


def _copies_among(family, positions):
    """The family's squares with a copy of its first square inserted so that
    the copies stand at the given 1-based positions, the first of them 1."""
    squares = list(family.squares)
    for position in positions[1:]:
        squares.insert(position - 1, LatinSquare(family.order, squares[0].cells))
    return MolsSet(family.order, tuple(squares))


class TestRowPairs:
    """Past a failing cover at t >= 3, every pair is decided once, the
    squares with fewer than t - 1 failing partners are dropped, and the
    rest are decided from row-pair groups when there are at least half as
    many as the order, and by the prefix walk otherwise."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 9])
    def test_groups_are_the_squares_that_share_a_cell_pair(self, n):
        # Family squares, isotopes of the first one and repeats, under
        # labels that are not 1..m.
        rng = random.Random(n)
        if is_prime(n) or is_prime(n + 1):
            family = list(make_mols_family(n).squares)
        else:
            family = [LatinSquare(n, tuple(tuple((r + c) % n + 1 for c in range(n))
                                           for r in range(n)))]
        pool = family + [
            LatinSquare(n, tuple(family[0].cells[r] for r in rng.sample(range(n), n)))
            for _ in range(3)]
        for trial in range(6):
            squares = [rng.choice(pool) for _ in range(rng.randint(3, 8))]
            labels = sorted(rng.sample(range(1, 30), len(squares)))
            rows = [molsnet.orthogonality._rows(square.symbols, n) for square in squares]
            for t in range(3, len(squares) + 1):
                assert molsnet.orthogonality._row_pair_groups(labels, rows, n, t) == \
                    _brute_row_pair_groups(labels, squares, t)

    def test_each_pair_is_decided_once_by_the_cover_or_the_prune(self, monkeypatch):
        # Copies of the first square at positions 1, 4 and 9 of the order-13
        # family: the cover passes (1, 2) and (1, 3), fails on the copies
        # (1, 4), and the prune decides every other pair of the 12 distinct
        # squares, each once, whatever copies it holds.
        mols = _copies_among(make_mols_family(13), (1, 4, 9))
        decided = self._decided(monkeypatch)
        report = verify_set_orthogonality(mols, 3)
        assert len(decided) == sum(decided.values()) == comb(12, 2) + 1
        assert [v.indices for v in report.failures] == [(1, 4, 9)]

    def test_copies_are_decided_as_one_square(self, monkeypatch):
        # 1,100 copies of the order-2 square at t = 1,100: the cover's pair
        # (1, 2) is the one pair decision, and the prune keeps every copy.
        decided = self._decided(monkeypatch)
        many = MolsSet(2, (make_additive_square(2, 1),) * 1100)
        (verdict,) = verify_set_orthogonality(many, 1100).failures
        assert sum(decided.values()) == 1
        assert verdict.indices == tuple(range(1, 1101))

    @staticmethod
    def _decided(monkeypatch):
        """Count the pairs decided from rows, keyed by the set of the two
        squares' rows, so copies are one square."""
        decided = Counter()
        original = molsnet.orthogonality._pair_columns

        def spy(rows_a, rows_b, full):
            decided[frozenset((tuple(rows_a), tuple(rows_b)))] += 1
            return original(rows_a, rows_b, full)
        monkeypatch.setattr(molsnet.orthogonality, "_pair_columns", spy)
        return decided

    @pytest.mark.parametrize("t", [3, 4])
    def test_the_route_is_picked_by_the_squares_left_against_the_order(self, t, monkeypatch):
        calls = _routes(monkeypatch)
        # Every pair of the order-16 shift family fails and 2 * 15 >= 16.
        assert verify_set_orthogonality(make_mols_family(16, "shift"), t).all_orthogonal
        assert calls == Counter({"_row_pair_failures": 1})
        calls.clear()
        # The first 4 squares of the order-58 shift family: 2 * 4 < 58.
        first = MolsSet(58, make_mols_family(58, "shift").squares[:4])
        assert verify_set_orthogonality(first, t).all_orthogonal
        assert calls == Counter({"_prefix_walk": 1})
        calls.clear()
        # Three copies at positions 1, 4 and 9 of the order-13 family:
        # 2 * 3 < 13, so the walk finds the one failing triple.
        mols = _copies_among(make_mols_family(13), (1, 4, 9))
        report = verify_set_orthogonality(mols, t)
        assert calls == Counter({"_prefix_walk": t == 3})
        assert [v.indices for v in report.failures] == [(1, 4, 9)] * (t == 3)
        monkeypatch.undo()
        assert tuple(report.verdicts) == per_subset_verdicts(mols, t)

    def test_a_square_that_fails_with_every_other_leaves_too_few(self, monkeypatch):
        # A row isotope of the first square of the order-7 family fails with
        # every family square, and they pass with each other: at t = 3 the
        # prune keeps the isotope alone, so neither route runs.
        family = list(make_mols_family(7).squares)
        cells = family[0].cells
        isotope = LatinSquare(7, tuple(cells[r] for r in (3, 0, 6, 1, 5, 2, 4)))
        mols = MolsSet(7, tuple(family + [isotope]))
        assert all(not is_t_orthogonal(superimpose([square, isotope])).is_orthogonal
                   for square in family)
        calls = _routes(monkeypatch)
        assert verify_set_orthogonality(mols, 3).all_orthogonal
        assert calls == Counter()

    def test_the_walk_is_given_every_passing_pair(self, monkeypatch):
        # Three copies of each of two orthogonal squares of order 13: every
        # square keeps two failing partners, 2 * 6 < 13, and the walk is
        # given the 9 passing pairs between the two kinds, so it adds a
        # column only to prefixes of one kind: (1, 2), (1, 2, 3), (1, 3),
        # (2, 3), (4, 5) and (4, 5, 6).  The cover takes (1, 2).
        a, b = make_mols_family(13).squares[:2]
        mols = MolsSet(13, (a, a, a, b, b, b))
        passes = _key_passes(monkeypatch)
        report = verify_set_orthogonality(mols, 3)
        assert passes["keys"] == 1 + 6
        assert [v.indices for v in report.failures] == [(1, 2, 3), (4, 5, 6)]
        monkeypatch.undo()
        assert tuple(report.verdicts) == per_subset_verdicts(mols, 3)

    def test_subsets_with_equal_distinct_squares_share_one_report(self):
        # 20 copies of an order-13 square at t = 4: every subset fails with
        # the one square's report.
        square = make_mols_family(13).squares[0]
        report = verify_set_orthogonality(MolsSet(13, (square,) * 20), 4)
        assert len(report.failures) == comb(20, 4)
        assert len({id(v.report) for v in report.failures}) == 1
        assert report.failures[0].report == is_t_orthogonal(superimpose([square] * 4))


class TestDecidersOnLabels:
    """The prefix walk and the row-pair groups decide the squares at any
    1-based labels of the whole set's columns and name their verdicts by
    those labels, with no renumbering."""

    @pytest.mark.parametrize("n", range(5, 14))
    def test_the_two_deciders_agree_on_any_labels(self, n):
        # Family squares (the cyclic square at orders 8 and 9, which have no
        # family), row isotopes of square 1 and copies, drawn with
        # replacement, under labels with a gap, so never a run.
        rng = random.Random(n)
        if is_prime(n) or is_prime(n + 1):
            family = list(make_mols_family(n).squares)
        else:
            family = [LatinSquare(n, tuple(tuple((r + c) % n + 1 for c in range(n))
                                           for r in range(n)))]
        pool = family + [
            LatinSquare(n, tuple(family[0].cells[r] for r in rng.sample(range(n), n)))
            for _ in range(3)]
        for trial in range(3):
            squares = [rng.choice(pool) for _ in range(9)]
            flat = [square.symbols for square in squares]
            rows = lambda k: molsnet.orthogonality._rows(flat[k - 1], n)  # noqa: E731
            labels = []
            while all(b - a == 1 for a, b in zip(labels, labels[1:])):
                labels = sorted(rng.sample(range(1, 10), rng.randint(4, 6)))
            chosen = MolsSet(n, tuple(squares[k - 1] for k in labels))
            for t in range(2, 5):
                expected = [SubsetVerdict(tuple(labels[q - 1] for q in v.indices), v.report)
                            for v in per_subset_verdicts(chosen, t) if not v.report.is_orthogonal]
                walked = _prefix_walk(labels, flat, n, t, set())
                assert walked == _row_pair_failures(labels, flat, rows, n, t) == expected


def _scrambled_family(n, seed, method="additive"):
    """The family of order n under one row and one column permutation of
    every square, a symbol relabelling of each square, and a shuffle of the
    squares."""
    rng = random.Random(seed)
    rows, columns = rng.sample(range(n), n), rng.sample(range(n), n)
    squares = list(make_mols_family(n, method).squares)
    rng.shuffle(squares)
    scrambled = []
    for square in squares:
        label = [0] + rng.sample(range(1, n + 1), n)
        cells = square.cells
        scrambled.append(LatinSquare(n, tuple(tuple(label[cells[r][c]] for c in columns)
                                              for r in rows)))
    return MolsSet(n, tuple(scrambled))


class TestDistinctSlopeReference:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_reference_matches_full_enumeration(self, n):
        family = _scrambled_family(n, n)
        for t in range(2, n):
            assert distinct_slope_report(n, n - 1, t) == enumerate_set_orthogonality(family, t)

    @pytest.mark.parametrize("n,ts", [(29, (2, 3, 14)), (53, (2, 3, 26)), (101, (10, 50))])
    def test_verify_matches_the_reference_on_scrambled_families(self, n, ts):
        family = _scrambled_family(n, n)
        for t in ts:
            assert verify_set_orthogonality(family, t) == distinct_slope_report(n, n - 1, t)


class TestShiftReference:
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_reference_matches_full_enumeration(self, n):
        family = make_mols_family(n, "shift")
        for t in range(2, 5):
            assert shift_family_report(n, t) == enumerate_set_orthogonality(family, t)

    @pytest.mark.parametrize("n", [2, 4, 6, 10, 12, 16, 18, 22, 28, 30])
    def test_enumerated_failures_match_the_loop_over_every_subset(self, n):
        for t in range(2, min(n, 5) + 1):
            assert shift_family_report(n, t) == shift_family_report_by_subsets(n, t)

    @pytest.mark.parametrize("n,ts", [(12, (2, 3, 4, 5)), (16, (2, 3, 4)), (28, (2, 3)),
                                      (30, (2, 3)), (52, (2,)), (100, (2,)), (100, (3,))])
    def test_verify_matches_the_reference(self, n, ts):
        family = make_mols_family(n, "shift")
        for t in ts:
            assert verify_set_orthogonality(family, t) == shift_family_report(n, t)

    def test_scrambled_pairs_match_per_subset_superimposition(self):
        # Square 7 is repeated at the end, so one pair has only n distinct
        # tuples.
        family = _scrambled_family(30, 30, "shift")
        mols = MolsSet(30, family.squares + family.squares[6:7])
        report = verify_set_orthogonality(mols, 2)
        assert tuple(report.verdicts) == per_subset_verdicts(mols, 2)
        reports = {v.indices: v.report for v in report.failures}
        assert len(reports) == comb(31, 2) and reports[7, 31].distinct_count == 30


class TestSetOrthogonalityReport:
    """A report stores its failures; every other verdict is derived."""

    def test_only_the_failures_are_stored(self, family4, family5):
        first, second = family5.squares[:2]
        report = verify_set_orthogonality(MolsSet(5, (first, second, first)), 2)
        assert [v.indices for v in report.failures] == [(1, 3)]
        assert report.size == 3 and report.subset_count == 3
        assert verify_set_orthogonality(family5, 3).failures == ()
        assert len(verify_set_orthogonality(family4, 2).failures) == 6

    def test_unlisted_subsets_are_orthogonal_with_every_tuple_distinct(self, family5):
        orthogonal = OrthogonalityReport(True, 25, None)
        assert {v.report for v in verify_set_orthogonality(family5, 2).verdicts} == {orthogonal}

    def test_counts_past_the_index_range_need_no_enumeration(self):
        # C(70, 35) is about 1.1e20, past sys.maxsize, so len() cannot
        # return it; subset_count and the verdict still work.
        report = verify_set_orthogonality(make_mols_family(71), 35)
        assert report.subset_count == comb(70, 35)
        assert report.all_orthogonal
        with pytest.raises(OverflowError):
            len(report.verdicts)

    def test_subset_rank_is_the_position_in_index_order(self):
        for size in range(1, 8):
            for t in range(1, size + 1):
                for rank, indices in enumerate(itertools.combinations(range(1, size + 1), t)):
                    assert subset_rank(indices, size) == rank


class TestFamilyProperties:
    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_prime_families_are_t_orthogonal_for_all_t(self, n):
        family = make_mols_family(n)
        for t in range(2, n):
            if t > len(family):
                continue
            assert verify_set_orthogonality(family, t).all_orthogonal

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_shift_families_full_subset_and_triples(self, n):
        # The published range for this construction is t = 3..n, which is
        # empty at n = 2, hence the start at 4.
        family = make_mols_family(n)
        assert is_t_orthogonal(superimpose(list(family.squares))).is_orthogonal
        for combo in itertools.combinations(range(n), 3):
            array = superimpose([family[i] for i in combo])
            assert is_t_orthogonal(array).is_orthogonal


class TestTupleArrayChecks:
    def test_shape_and_range_are_enforced(self):
        with pytest.raises(ValueError):
            TupleArray(2, 1, (((1,), (2,)), ((2,), (1,))))
        with pytest.raises(ValueError):
            TupleArray(2, 2, (((1, 1),),))
        with pytest.raises(ValueError):
            TupleArray(2, 2, (((1, 3), (2, 1)), ((2, 2), (1, 1))))

    def test_messages_name_the_first_bad_entry_in_row_major_order(self):
        cases = [
            ((((1, 1), (2, 1, 1)), ((0, 2), (1, 1))), "every entry must have 2 symbols, got (2, 1, 1)"),
            ((((1, 1), (0, 1)), ((2, 2), (1,))), "symbols must lie in 1..2, got (0, 1)"),
            ((((1, 1), (2, 1)), ((2, 3), (0, 1))), "symbols must lie in 1..2, got (2, 3)"),
            # Within 1..2 by min and max, but the stacked keys are injective
            # only on the symbols 1..2 themselves.
            ((((1, 2), (1.25, 1.25)), ((2, 1), (2, 2))), "symbols must lie in 1..2, got (1.25, 1.25)"),
            # A symbol the range table cannot hash.
            ((((1, 2), ([1], 1)), ((2, 1), (2, 2))), "symbols must lie in 1..2, got ([1], 1)"),
        ]
        for grid, message in cases:
            with pytest.raises(ValueError) as excinfo:
                TupleArray(2, 2, grid)
            assert str(excinfo.value) == message
        square = LatinSquare(2, ((1, 2), (2, 3)))
        with pytest.raises(ValueError, match=r"1\.\.2, got \(2, 3, 3\)"):
            superimpose([make_additive_square(2, 1), square, square])
        square = LatinSquare(2, ((1, 2), (1.25, 1)))
        with pytest.raises(ValueError, match=r"1\.\.2, got \(1, 1\.25\)"):
            superimpose([make_additive_square(2, 1), square])

    @pytest.mark.parametrize("n", [2, 255, 256])
    def test_symbols_past_the_byte_range_name_the_first_bad_entry(self, n):
        cyclic = tuple(tuple((r + c) % n + 1 for c in range(n)) for r in range(n))
        for value in (0, -1, n + 1, 256):
            # Bad in the second square at cell (1, 2) and in the first at cell (2, 1),
            # so the first bad entry in row-major order is not in the first column.
            first = [list(row) for row in cyclic]
            second = [list(row) for row in cyclic]
            first[1][0] = second[0][1] = value
            squares = [LatinSquare(n, tuple(map(tuple, cells))) for cells in (first, second)]
            grid = tuple(tuple(zip(a, b)) for a, b in zip(first, second))
            for build in (lambda: TupleArray(n, 2, grid), lambda: superimpose(squares)):
                if 1 <= value <= n:
                    assert build().tuple_at(1, 2) == (cyclic[0][1], value)
                    continue
                with pytest.raises(ValueError) as excinfo:
                    build()
                assert str(excinfo.value) == (
                    f"symbols must lie in 1..{n}, got {(cyclic[0][1], value)!r}")

    @pytest.mark.parametrize("n", [2, 255, 256])
    def test_columns_are_bytes_up_to_order_255_and_int_tuples_above(self, n):
        # A grid that spells 1 as 1.0 or True is stored as the int grid is,
        # and the stack of its squares equals it.
        a = tuple(tuple((r + c) % n + 1 for c in range(n)) for r in range(n))
        b = tuple(tuple((r + 2 * c) % n + 1 for c in range(n)) for r in range(n))
        grid = tuple(tuple(zip(x, y)) for x, y in zip(a, b))
        spelled = tuple(tuple((1.0 if x == 1 else x, True if y == 1 else y) for x, y in row)
                        for row in grid)
        arrays = [TupleArray(n, 2, grid), TupleArray(n, 2, spelled),
                  superimpose([LatinSquare(n, a), LatinSquare(n, b)])]
        assert arrays[0] == arrays[1] == arrays[2]
        stored = bytes if n <= 255 else tuple
        for array in arrays:
            assert [type(column) for column in array.columns] == [stored] * 2
            assert {type(s) for column in array.columns for s in column} == {int}

    def test_cells_outside_the_grid_are_rejected(self):
        array = TupleArray(2, 2, (((1, 1), (2, 2)), ((2, 1), (1, 2))))
        assert array.tuple_at(2, 1) == (2, 1)
        for i, j in ((0, 1), (1, 0), (3, 1), (1, 3)):
            with pytest.raises(IndexError):
                array.tuple_at(i, j)

    def test_multiplicative_square_equals_additive_only_where_expected(self):
        # Sanity: the two constructions differ already at order 2 (cells),
        # though both are Latin.
        assert make_multiplicative_square(2).cells != make_additive_square(2, 1).cells
