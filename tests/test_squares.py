import ast
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import molsnet.squares
from golden import ORDER4_SQUARES, ORDER5_SQUARES
from molsnet import (ConstructionError, LatinSquare, LatinViolation, MolsSet, SquareFileError,
                     ValidationReport, apply_row_shift, is_prime, make_additive_square,
                     make_mols_family, make_multiplicative_square, parse_square_file,
                     serialize_square_file, validate_latin)
from reference import count_latin_violations


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


class TestMultiplicativeSquare:
    def test_order_4_matches_published_square(self):
        square = make_multiplicative_square(4)
        assert square.cells == ORDER4_SQUARES[0]

    def test_order_2(self):
        assert make_multiplicative_square(2).cells == ((1, 2), (2, 1))

    def test_order_6_follows_the_formula_and_is_latin(self):
        square = make_multiplicative_square(6)
        for i in range(1, 7):
            for j in range(1, 7):
                assert square.cells[i - 1][j - 1] == (i * j) % 7
        assert validate_latin(square).ok

    def test_rejects_nonprime_successor(self):
        # 6 and 8 are composite, so orders 5 and 7 have no such square.
        with pytest.raises(ConstructionError):
            make_multiplicative_square(5)
        with pytest.raises(ConstructionError):
            make_multiplicative_square(7)

    def test_rejects_tiny_orders(self):
        with pytest.raises(ConstructionError):
            make_multiplicative_square(1)
        with pytest.raises(ConstructionError):
            make_multiplicative_square(0)


class TestRowShift:
    def test_shift_by_zero_is_identity(self):
        base = make_multiplicative_square(4)
        assert apply_row_shift(base, 0) == base

    def test_shifts_match_published_squares(self):
        base = make_multiplicative_square(4)
        for k in (1, 2, 3):
            assert apply_row_shift(base, k).cells == ORDER4_SQUARES[k]

    @pytest.mark.parametrize("n", [4, 6])
    def test_shifts_compose_modulo_n(self, n):
        base = make_multiplicative_square(n)
        for k1 in range(n):
            for k2 in range(n):
                twice = apply_row_shift(apply_row_shift(base, k1), k2)
                assert twice == apply_row_shift(base, (k1 + k2) % n)

    def test_shift_preserves_validation_status(self):
        good = make_multiplicative_square(4)
        assert validate_latin(apply_row_shift(good, 2)).ok
        bad = LatinSquare(2, ((1, 2), (1, 2)))
        assert not validate_latin(apply_row_shift(bad, 1)).ok

    def test_rejects_out_of_range_shift(self):
        base = make_multiplicative_square(4)
        with pytest.raises(ValueError):
            apply_row_shift(base, 4)
        with pytest.raises(ValueError):
            apply_row_shift(base, -1)


class TestAdditiveSquare:
    def test_order_5_matches_published_squares(self):
        for h in (1, 2, 3, 4):
            assert make_additive_square(5, h).cells == ORDER5_SQUARES[h - 1]

    def test_order_3_follows_the_formula(self):
        # (i + j) mod 3 with 0 written as 3.
        assert make_additive_square(3, 1).cells == ((2, 3, 1), (3, 1, 2), (1, 2, 3))

    def test_symbol_n_stands_in_for_residue_zero(self):
        square = make_additive_square(7, 3)
        for i in range(1, 8):
            for j in range(1, 8):
                expected = (i + 3 * j) % 7
                assert square.cells[i - 1][j - 1] == (expected if expected else 7)

    def test_families_follow_the_closed_form_up_to_order_101(self):
        # The squares are built as rotations of their first row.
        for n in filter(is_prime, range(2, 102)):
            for h, square in enumerate(make_mols_family(n, "additive").squares, start=1):
                assert square.cells == tuple(
                    tuple((i + h * j - 1) % n + 1 for j in range(1, n + 1))
                    for i in range(1, n + 1)), (n, h)

    def test_rejects_composite_order(self):
        with pytest.raises(ConstructionError):
            make_additive_square(4, 1)
        with pytest.raises(ConstructionError):
            make_additive_square(6, 2)

    def test_rejects_slope_outside_range(self):
        with pytest.raises(ConstructionError):
            make_additive_square(5, 0)
        with pytest.raises(ConstructionError):
            make_additive_square(5, 5)


class TestFamilyDispatch:
    def test_order_4_gives_the_shift_family(self, family4):
        assert family4.family_kind == "shift-family"
        assert tuple(square.cells for square in family4) == ORDER4_SQUARES

    def test_order_5_gives_the_additive_family(self, family5):
        assert family5.family_kind == "additive-prime"
        assert tuple(square.cells for square in family5) == ORDER5_SQUARES

    def test_prime_order_yields_n_minus_1_squares(self):
        for n in (3, 5, 7, 11):
            family = make_mols_family(n)
            assert family.family_kind == "additive-prime"
            assert len(family) == n - 1

    def test_shift_order_yields_n_squares(self):
        for n in (4, 6, 10, 12):
            family = make_mols_family(n)
            assert family.family_kind == "shift-family"
            assert len(family) == n

    def test_neither_route_is_an_error(self):
        for n in (9, 14, 15, 20):
            with pytest.raises(ConstructionError):
                make_mols_family(n)

    def test_order_2_prefers_additive_but_shift_can_be_forced(self):
        assert len(make_mols_family(2)) == 1
        assert make_mols_family(2).family_kind == "additive-prime"
        forced = make_mols_family(2, "shift")
        assert forced.family_kind == "shift-family"
        assert len(forced) == 2

    def test_forcing_an_unavailable_method_fails(self):
        with pytest.raises(ConstructionError):
            make_mols_family(4, "additive")
        with pytest.raises(ConstructionError):
            make_mols_family(5, "shift")
        with pytest.raises(ValueError):
            make_mols_family(5, "magic")

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10, 11])
    def test_family_members_are_latin_and_distinct(self, n):
        family = make_mols_family(n)
        for square in family:
            assert validate_latin(square).ok
        grids = [square.cells for square in family]
        assert len(set(grids)) == len(grids)


class TestValidateLatin:
    def test_published_squares_pass(self):
        for cells in ORDER4_SQUARES + ORDER5_SQUARES:
            assert validate_latin(LatinSquare(len(cells), cells)).ok

    def test_repeated_row_is_reported_per_column(self):
        report = validate_latin(LatinSquare(2, ((1, 2), (1, 2))))
        assert not report.ok
        described = [v.describe() for v in report.violations]
        assert "column 1 duplicates symbol 1" in described
        assert "column 1 is missing symbol 2" in described
        assert "column 2 duplicates symbol 2" in described
        assert "column 2 is missing symbol 1" in described
        # Both rows are fine, so all violations concern columns.
        assert all(v.axis == "column" for v in report.violations)

    def test_repeated_column_is_reported_per_row(self):
        # Every column is a permutation, so only the rows can reject it.
        square = LatinSquare(2, ((1, 1), (2, 2)))
        report = validate_latin(square)
        assert report == count_latin_violations(square)
        assert not report.ok and all(v.axis == "row" for v in report.violations)

    def test_out_of_range_symbol_shows_up_as_missing(self):
        report = validate_latin(LatinSquare(2, ((1, 3), (2, 1))))
        assert not report.ok
        assert any(v.problem == "missing" and v.symbol == 2 for v in report.violations)


def _cyclic(n):
    return tuple(tuple((r + c) % n + 1 for c in range(n)) for r in range(n))


def _with_cell(cells, i, j, value):
    """cells with cell (i, j), 0-based, set to value."""
    row = cells[i][:j] + (value,) + cells[i][j + 1:]
    return cells[:i] + (row,) + cells[i + 1:]


class TestByteRangeEdges:
    """Orders and symbols on both sides of the byte range 0..255."""

    @pytest.mark.parametrize("n", [1, 2, 5, 255, 256, 257])
    def test_reports_and_errors_equal_the_per_symbol_count(self, n):
        cyclic = _cyclic(n)
        squares = [LatinSquare(n, cyclic)] + [
            LatinSquare(n, _with_cell(cyclic, n // 2, n // 3, value))
            for value in (0, -1, n + 1, 256, 300, 1.0, True, 2.5)]
        for square in squares:
            report = count_latin_violations(square)
            assert validate_latin(square) == report
            if report.ok:
                assert MolsSet(n, (square,)).squares == (square,)
                continue
            with pytest.raises(ValueError) as excinfo:
                MolsSet(n, (square,))
            assert str(excinfo.value) == (
                f"square 1 is not Latin: {report.violations[0].describe()}")

    @pytest.mark.parametrize("value", [2.5, 300])
    def test_a_symbol_that_equals_no_byte_keeps_the_tuple_and_its_report(self, value):
        cells = ((1, 2, 3), (2, 3, 1), (3, 1, value))
        square = LatinSquare(3, cells)
        assert square.symbols == (1, 2, 3, 2, 3, 1, 3, 1, value)
        assert type(square.symbols) is tuple and square.cells == cells
        assert validate_latin(square) == ValidationReport(False, (
            LatinViolation("row", 3, 2, "missing"), LatinViolation("column", 3, 2, "missing")))

    @pytest.mark.parametrize("value", [1.0, True, Fraction(1)])
    def test_a_symbol_that_equals_a_byte_is_stored_as_that_byte(self, value):
        square = LatinSquare(2, ((value, 2), (2, 1)))
        assert square.symbols == b"\x01\x02\x02\x01"
        assert square == LatinSquare(2, ((1, 2), (2, 1)))
        assert repr(square.cells) == "((1, 2), (2, 1))"


class TestLatinCheckWork:
    """Which squares reach validate_latin's symbol count, counted by a spy."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        count_violations = molsnet.squares._count_violations

        def spy(square):
            calls.append(square.order)
            return count_violations(square)
        monkeypatch.setattr(molsnet.squares, "_count_violations", spy)
        return calls

    def test_generated_families_and_a_valid_file_are_not_counted(self, counted):
        primes = [p for p in range(2, 102) if is_prime(p)]
        for p in primes:
            make_mols_family(p, "additive")
            if p > 2:
                make_mols_family(p - 1, "shift")
        parse_square_file(serialize_square_file(make_mols_family(101)))
        assert counted == []

    def test_a_file_with_one_non_latin_block_is_counted_once(self, counted):
        blocks = list(make_mols_family(11).squares)
        cells = blocks[1].cells
        blocks[1] = LatinSquare(11, _with_cell(cells, 4, 6, cells[4][7]))
        text = "11 10\n" + "\n".join(
            "".join(" ".join(map(str, row)) + "\n" for row in block.cells) for block in blocks)
        with pytest.raises(SquareFileError, match="block 2 is not a Latin square"):
            parse_square_file(text)
        assert counted == [11]


class TestConstructorChecks:
    def test_square_shape_is_enforced(self):
        with pytest.raises(ValueError):
            LatinSquare(2, ((1, 2),))
        with pytest.raises(ValueError):
            LatinSquare(2, ((1, 2), (1, 2, 3)))
        with pytest.raises(ValueError):
            LatinSquare(0, ())

    def test_set_rejects_empty_and_mixed_orders(self):
        with pytest.raises(ValueError):
            MolsSet(4, ())
        with pytest.raises(ValueError):
            MolsSet(4, (make_multiplicative_square(4), make_additive_square(5, 1)))

    def test_set_rejects_non_latin_members(self):
        with pytest.raises(ValueError, match="square 1 is not Latin"):
            MolsSet(2, (LatinSquare(2, ((1, 2), (1, 2))),))

    def test_set_allows_duplicates_for_later_diagnosis(self):
        square = make_multiplicative_square(4)
        pair = MolsSet(4, (square, square))
        assert len(pair) == 2

    def test_provenance_does_not_affect_equality(self):
        built = make_multiplicative_square(4)
        copy = LatinSquare(4, built.cells, "elsewhere")
        assert built == copy


class TestRowMajorSymbols:
    """A square stores its n^2 symbols as one row-major sequence, bytes up to
    order 255 and a tuple above it; its rows are derived on read."""

    def test_only_order_symbols_and_provenance_are_stored(self):
        square = LatinSquare(3, [[1, 2, 3], [2, 3, 1], [3, 1, 2]], "given")
        assert vars(square) == {"order": 3, "symbols": bytes((1, 2, 3, 2, 3, 1, 3, 1, 2)),
                                "provenance": "given"}
        assert repr(square) == ("LatinSquare(order=3, "
                                "symbols=b'\\x01\\x02\\x03\\x02\\x03\\x01\\x03\\x01\\x02', "
                                "provenance='given')")
        big = make_multiplicative_square(256)
        assert vars(big) == {"order": 256, "symbols": tuple(big.symbols),
                             "provenance": "multiplicative"}
        assert type(big.symbols) is tuple and big.symbols[:3] == (1, 2, 3)

    def test_cells_are_a_tuple_of_row_tuples(self):
        square = LatinSquare(3, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
        assert square.cells == ((1, 2, 3), (2, 3, 1), (3, 1, 2))
        assert LatinSquare(3, square.cells) == square

    @pytest.mark.parametrize("n,method", [(5, "additive"), (7, "additive"), (4, "shift"),
                                          (6, "shift"), (12, "shift"), (256, "shift")])
    def test_builders_agree_with_the_public_constructor(self, n, method):
        if n > 255:
            base = make_multiplicative_square(n)
            squares = (base, apply_row_shift(base, 1), apply_row_shift(base, n - 1))
        else:
            squares = make_mols_family(n, method).squares
        stored = bytes if n <= 255 else tuple
        for square in squares:
            rebuilt = LatinSquare(n, square.cells)
            assert rebuilt == square and hash(rebuilt) == hash(square)
            assert rebuilt.symbols == square.symbols
            assert type(square.symbols) is type(rebuilt.symbols) is stored
            assert len(square.symbols) == n * n
            assert {type(s) for row in square.cells for s in row} == {int}


def test_the_bytes_limit_is_written_only_in_squares():
    # squares._full is the one home of the storage rule's limit: every other
    # module reads its route from there, so no number in their code spells
    # 255 or 256, however it is written.
    holders = set()
    for path in Path(molsnet.squares.__file__).parent.glob("*.py"):
        with path.open("rb") as source:
            numbers = [token.string for token in tokenize.tokenize(source.readline)
                       if token.type == tokenize.NUMBER]
        if any(ast.literal_eval(number) in (255, 256) for number in numbers):
            holders.add(path.name)
    assert holders == {"squares.py"}
