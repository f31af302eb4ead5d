import itertools
import weakref
from math import comb

import pytest

import molsnet.orthogonality
from golden import ORDER4_TRIPLE_ARRAY, ORDER5_QUAD_ARRAY
from molsnet import (LatinSquare, MolsSet, TupleArray, distinct_tuple_count,
                     enumerate_set_orthogonality, is_prime, is_t_orthogonal, make_additive_square,
                     make_mols_family, make_multiplicative_square, superimpose,
                     verify_set_orthogonality)
from molsnet.orthogonality import OrthogonalityReport, subset_rank
from reference import per_subset_verdicts

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
                x = square.at(i, j)
                assert array.tuple_at(i, j) == (x, x)

    def test_consume_frees_each_square_once_its_column_is_built(self, monkeypatch):
        squares = list(make_mols_family(7).squares)
        refs = [weakref.ref(square) for square in squares]
        alive = []
        flat_symbols = molsnet.orthogonality._flat_symbols

        def spy(square):
            alive.append([ref() is not None for ref in refs])
            return flat_symbols(square)

        def handed_over():
            # The list lets go of each square as it is yielded.
            for k in range(len(squares)):
                square, squares[k] = squares[k], None
                yield square

        monkeypatch.setattr(molsnet.orthogonality, "_flat_symbols", spy)
        array = superimpose(handed_over())
        assert alive == [[j >= k for j in range(6)] for k in range(6)]
        assert squares == [None] * 6
        monkeypatch.undo()
        assert array == superimpose(list(make_mols_family(7).squares))

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

    def test_verdict_ignores_square_order(self, family5):
        chosen = [family5[0], family5[1], family5[3]]
        verdicts = {is_t_orthogonal(superimpose(list(p))).is_orthogonal
                    for p in itertools.permutations(chosen)}
        assert verdicts == {True}


class TestDistinctTupleCount:
    def test_published_array_counts(self):
        assert distinct_tuple_count(TupleArray(4, 3, ORDER4_TRIPLE_ARRAY)) == 16
        assert distinct_tuple_count(TupleArray(5, 4, ORDER5_QUAD_ARRAY)) == 25

    def test_count_of_first_two_order_4_squares(self, family4):
        array = superimpose(list(family4.squares[:2]))
        # Independent recount: collect the 16 pairs and deduplicate by
        # scanning a list, no hashing of the main path involved.
        seen = []
        for i in range(1, 5):
            for j in range(1, 5):
                pair = (family4[0].at(i, j), family4[1].at(i, j))
                if pair not in seen:
                    seen.append(pair)
        assert len(seen) == 12
        assert distinct_tuple_count(array) == 12

    def test_bounds(self, family5):
        # Never below n (each row of the first square is a permutation)
        # and never above n^2.
        n = 5
        stacks = [list(family5.squares[:2]), list(family5.squares),
                  [family5[2], family5[2]]]
        for squares in stacks:
            count = distinct_tuple_count(superimpose(squares))
            assert n <= count <= n * n

    def test_agrees_with_report(self, family4):
        for combo in itertools.combinations(range(4), 2):
            array = superimpose([family4[i] for i in combo])
            assert distinct_tuple_count(array) == is_t_orthogonal(array).distinct_count


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
        assert report.verdicts[0].report.is_orthogonal      # (1, 2) is fine

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


class TestSetOrthogonalityReport:
    """A report stores its failures; every other verdict is derived."""

    def test_only_the_failures_are_stored(self, family4, family5):
        first, second = family5.squares[:2]
        report = verify_set_orthogonality(MolsSet(5, (first, second, first)), 2)
        assert [v.indices for v in report.failures] == [(1, 3)]
        assert report.size == 3 and report.subset_count == 3
        assert verify_set_orthogonality(family5, 3).failures == ()
        assert len(verify_set_orthogonality(family4, 2).failures) == 6

    def test_indexing_agrees_with_iteration(self, family4):
        mols = MolsSet(4, family4.squares + family4.squares[:2])
        for t in (2, 3, 4):
            verdicts = verify_set_orthogonality(mols, t).verdicts
            listed = tuple(verdicts)
            assert len(verdicts) == len(listed) == comb(6, t)
            assert tuple(verdicts[i] for i in range(len(verdicts))) == listed
            assert verdicts[-1] == listed[-1]
            assert verdicts[1:7:2] == listed[1:7:2] and verdicts[::-3] == listed[::-3]
            for index in (len(listed), -len(listed) - 1):
                with pytest.raises(IndexError):
                    verdicts[index]

    def test_unlisted_subsets_are_orthogonal_with_every_tuple_distinct(self, family5):
        orthogonal = OrthogonalityReport(True, 25, None)
        assert {v.report for v in verify_set_orthogonality(family5, 2).verdicts} == {orthogonal}

    def test_counts_past_the_index_range_need_no_enumeration(self):
        # C(70, 35) is about 1.1e20, past sys.maxsize, so len() cannot
        # return it; subset_count, indexing and the verdict still work.
        report = verify_set_orthogonality(make_mols_family(71), 35)
        assert report.subset_count == comb(70, 35)
        assert report.all_orthogonal
        with pytest.raises(OverflowError):
            len(report.verdicts)
        last = report.verdicts[report.subset_count - 1]
        assert last.indices == tuple(range(36, 71))
        assert last.report == OrthogonalityReport(True, 71 * 71, None)

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
        ]
        for grid, message in cases:
            with pytest.raises(ValueError) as excinfo:
                TupleArray(2, 2, grid)
            assert str(excinfo.value) == message
        square = LatinSquare(2, ((1, 2), (2, 3)))
        with pytest.raises(ValueError, match=r"1\.\.2, got \(2, 3, 3\)"):
            superimpose([make_additive_square(2, 1), square, square])

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
