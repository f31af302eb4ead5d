import sys
import tracemalloc

import pytest

import molsnet.files
import molsnet.squares
from golden import ORDER4_SQUARE_FILE
from molsnet import (LatinSquare, MolsSet, SquareFileError, make_mols_family,
                     make_multiplicative_square, parse_square_file, serialize_square_file)
from molsnet.files import decode_square_file
from molsnet.cli import main


class TestSerialize:
    def test_order_4_family_text(self, family4):
        assert serialize_square_file(family4) == ORDER4_SQUARE_FILE

    def test_single_square(self):
        family = make_mols_family(2)
        assert serialize_square_file(family) == "2 1\n2 1\n1 2\n"

    def test_ends_with_exactly_one_newline(self, family5):
        text = serialize_square_file(family5)
        assert text.endswith("\n") and not text.endswith("\n\n")


class TestParse:
    @pytest.mark.parametrize("n,method", [(7, "additive"), (10, "shift"), (101, "additive"),
                                          (256, "multiplicative")])
    def test_parsed_squares_equal_the_generated_ones(self, n, method):
        # A square's symbols are bytes up to order 255 and a tuple of ints
        # above it, whether parsed or built.
        if method == "multiplicative":
            family = MolsSet(n, (make_multiplicative_square(n),))
        else:
            family = make_mols_family(n, method)
        parsed = parse_square_file(serialize_square_file(family))
        assert parsed.squares == family.squares
        stored = bytes if n <= 255 else tuple
        assert all(type(square.symbols) is stored for square in (*parsed, *family))

    @pytest.mark.parametrize("n", [1, 2, 255, 256])
    def test_each_block_reaches_its_square_as_it_is_stored(self, n):
        # parse hands each block's ints to the square, whose one
        # normalization stores them as bytes up to order 255 and as a tuple
        # of ints above it, equal to the ints read.
        square = LatinSquare(n, tuple(tuple((i + j) % n + 1 for j in range(n)) for i in range(n)))
        parsed = parse_square_file(serialize_square_file(MolsSet(n, (square,) * 2)))
        assert parsed.squares == (square, square)
        stored = bytes if n <= 255 else tuple
        assert [type(block.symbols) for block in parsed] == [stored] * 2
        cells = [(i + j) % n + 1 for i in range(n) for j in range(n)]
        assert all(list(block.symbols) == cells for block in parsed)

    def test_an_order_1_file_parses(self):
        # " 1" holds a space, so it is read by the per-row loop.
        for text in ("1 1\n1\n", "1 2\n1\n\n+01\n", "1 1\n 1\n"):
            parsed = parse_square_file(text)
            assert parsed.squares == (LatinSquare(1, ((1,),)),) * len(parsed)
            assert [square.symbols for square in parsed] == [b"\x01"] * len(parsed)
        with pytest.raises(SquareFileError, match="line 2, column 1: symbol 2 out of range 1..1"):
            parse_square_file("1 1\n2\n")

    def test_canonical_blocks_are_read_whole_and_others_row_by_row(self, monkeypatch):
        # A canonically spelled block takes one gather of its n^2 tokens; a
        # tab in block 2 sends that block alone to the per-row loop, one
        # gather of n tokens per row.
        gathers = []
        original = molsnet.files.itemgetter

        def spy(*items):
            gathers.append(len(items))
            return original(*items)
        monkeypatch.setattr(molsnet.files, "itemgetter", spy)
        family = make_mols_family(13)
        lines = serialize_square_file(family).split("\n")
        assert parse_square_file("\n".join(lines)).squares == family.squares
        assert gathers == [13 * 13] * 12
        gathers.clear()
        lines[15 + 3] = lines[15 + 3].replace(" ", "\t", 1)   # row 4 of block 2
        assert parse_square_file("\n".join(lines)).squares == family.squares
        assert gathers == [13 * 13] + [13] * 13 + [13 * 13] * 10

    def test_an_order_101_square_holds_one_byte_per_cell(self):
        # 10,201 cells: about 10 KB as bytes, against about 82 KB as a tuple.
        square = parse_square_file(serialize_square_file(make_mols_family(101)))[0]
        assert 101 * 101 <= sys.getsizeof(square.symbols) < 101 * 101 + 100
        assert sys.getsizeof(tuple(square.symbols)) > 8 * 101 * 101

    def test_round_trip_equality(self, family4, family5):
        for family in (family4, family5):
            parsed = parse_square_file(serialize_square_file(family))
            assert parsed == family
            assert parsed.family_kind == "external"

    def test_serialize_after_parse_is_identical(self, family7):
        text = serialize_square_file(family7)
        assert serialize_square_file(parse_square_file(text)) == text

    def test_trailing_blank_lines_are_tolerated(self, family4):
        parsed = parse_square_file(ORDER4_SQUARE_FILE + "\n\n")
        assert parsed == family4

    def test_parses_golden_file(self, family4):
        assert parse_square_file(ORDER4_SQUARE_FILE) == family4

    def test_any_integer_spelling_parses_to_its_value(self):
        canonical = parse_square_file("3 1\n1 2 3\n2 3 1\n3 1 2\n")
        for text in ("3 1\n01 2 3\n2 3 1\n3 1 002\n",
                     "3 1\n+1 2 3\n2 +3 1\n3 1 2\n",
                     "3 1\n\u0661 \u0662 \u0663\n2 3 1\n3 \u0661 2\n",
                     "3 1\n1 2 3\n2 3 1\n+03 \u0661 2\n"):
            parsed = parse_square_file(text)
            assert parsed == canonical
            assert serialize_square_file(parsed) == serialize_square_file(canonical)


class TestDecode:
    def test_utf8_text_is_returned_as_is(self):
        text = serialize_square_file(make_mols_family(4)) + "\u2028\x85"
        assert decode_square_file(text.encode()) == text

    @pytest.mark.parametrize("data,message", [
        (b"\xff", "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"2 1\n\xff", "line 2: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"2 1\r\n1 \x80 1", "line 2: byte 0x80 is not UTF-8 (invalid start byte)"),
        # Lines are counted as parse_square_file counts them (splitlines).
        ("a\rb\x0cc\u2028d\x85e ".encode() + b"\xfe\n",
         "line 5: byte 0xfe is not UTF-8 (invalid start byte)"),
        (b"1 1\n1\n\xc3", "line 3: byte 0xc3 is not UTF-8 (unexpected end of data)"),
    ])
    def test_first_bad_byte_is_located_by_line(self, data, message):
        with pytest.raises(SquareFileError) as excinfo:
            decode_square_file(data)
        assert str(excinfo.value) == message


class TestParseErrors:
    def assert_fails(self, text, fragment, line=None, column=None):
        with pytest.raises(SquareFileError) as excinfo:
            parse_square_file(text)
        assert fragment in str(excinfo.value)
        if line is not None:
            assert excinfo.value.line == line
        if column is not None:
            assert excinfo.value.column == column

    def test_missing_header(self):
        self.assert_fails("", "missing header", line=1)
        self.assert_fails("\n1 2\n2 1\n", "missing header", line=1)

    def test_header_must_be_two_integers(self):
        self.assert_fails("2\n", "header", line=1)
        self.assert_fails("2 2 2\n", "header", line=1)
        self.assert_fails("two 1\n", "header", line=1)
        self.assert_fails("0 1\n", "order", line=1)
        self.assert_fails("2 0\n", "count", line=1)

    def test_non_integer_symbol_names_line_and_column(self):
        self.assert_fails("2 1\n1 2\nx 1\n", "not an integer", line=3, column=1)

    def test_out_of_range_symbol(self):
        self.assert_fails("2 1\n1 2\n2 7\n", "out of range", line=3, column=2)
        self.assert_fails("2 1\n1 2\n2 0\n", "out of range", line=3, column=2)

    def test_errors_after_an_unusual_spelling_keep_their_position(self):
        self.assert_fails("3 1\n1 2 3\n02 x 1\n3 1 2\n", "'x' is not an integer",
                          line=3, column=2)
        self.assert_fails("3 1\n1 2 3\n2 3 1\n+3 1 \u0664\n", "symbol 4 out of range 1..3",
                          line=4, column=3)
        self.assert_fails("3 1\n1 2 3\n2 3 1\n3 1 1.0\n", "'1.0' is not an integer",
                          line=4, column=3)

    def test_huge_header_order_fails_at_the_first_short_row(self):
        tracemalloc.start()
        try:
            self.assert_fails("1000000000 2\n1 2\n", "expected 1000000000 symbols, got 2",
                              line=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_wrong_row_width(self):
        self.assert_fails("2 1\n1 2\n2\n", "expected 2 symbols", line=3)
        self.assert_fails("2 1\n1 2 1\n2 1\n", "expected 2 symbols", line=2)

    def test_short_block(self):
        self.assert_fails("2 1\n1 2\n", "ends early")
        self.assert_fails("3 1\n1 2 3\n2 3 1\n", "ends early")

    def test_missing_blank_separator(self):
        self.assert_fails("2 2\n1 2\n2 1\n1 2\n2 1\n", "blank line before block 2", line=4)

    def test_latin_violation_names_the_block(self):
        self.assert_fails("2 1\n1 2\n1 2\n", "block 1 is not a Latin square")
        text = "2 2\n1 2\n2 1\n\n1 1\n2 2\n"
        self.assert_fails(text, "block 2 is not a Latin square")
        self.assert_fails(text, "row 1 duplicates symbol 1", line=5)

    def test_column_violation_in_block_3_names_its_first_line(self):
        text = "3 3\n1 2 3\n2 3 1\n3 1 2\n\n2 3 1\n3 1 2\n1 2 3\n \t \n1 2 3\n2 3 1\n1 2 3\n"
        with pytest.raises(SquareFileError) as excinfo:
            parse_square_file(text)
        assert str(excinfo.value) == ("line 10: block 3 is not a Latin square: "
                                      "column 1 duplicates symbol 1")

    def test_trailing_garbage(self):
        self.assert_fails("2 1\n1 2\n2 1\nleftover\n", "unexpected content", line=4)

    def test_syntax_faults_come_before_a_non_latin_block(self):
        # Every block is read before MolsSet checks that the blocks are Latin.
        self.assert_fails("2 2\n1 2\n1 2\n\n1 x\n2 1\n", "'x' is not an integer",
                          line=5, column=2)
        self.assert_fails("2 1\n1 2\n1 2\nleftover\n", "unexpected content", line=4)


@pytest.fixture()
def validated(monkeypatch):
    """Every square validate_latin is called on, wherever a molsnet module holds it."""
    original = molsnet.squares.validate_latin
    seen = []

    def spy(square):
        seen.append(square)
        return original(square)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "molsnet" and vars(module).get("validate_latin") is original:
            monkeypatch.setattr(module, "validate_latin", spy)
    return seen


class TestEachSquareIsValidatedOnce:
    def test_parse_of_a_multi_block_file(self, validated, family5):
        parsed = parse_square_file(serialize_square_file(family5))
        assert list(map(id, validated)) == list(map(id, parsed.squares))

    def test_make_mols_family(self, validated):
        family = make_mols_family(7)
        assert list(map(id, validated)) == list(map(id, family.squares))

    def test_graph_command(self, validated, family5, tmp_path, capsys):
        path = tmp_path / "f5.txt"
        path.write_text(serialize_square_file(family5))
        assert main(["graph", "--t", "2", "--in", str(path)]) == 0
        assert validated == list(family5.squares)
        assert len(set(map(id, validated))) == len(validated)


class TestRoundTripAllConstructibleOrders:
    def test_orders_up_to_20(self):
        constructible = [n for n in range(2, 21)
                         if n in (2, 3, 5, 7, 11, 13, 17, 19) or n + 1 in (3, 5, 7, 11, 13, 17, 19, 23)]
        for n in constructible:
            family = make_mols_family(n)
            assert parse_square_file(serialize_square_file(family)) == family
