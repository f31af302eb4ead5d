"""Plain-text square files.

Format: a header line "order count", then count blocks separated by one
blank line, each block being order lines of order space-separated symbols
in 1..order.  Serialization writes plain decimals and ends with a newline;
parsing accepts any spelling int() does (05, +3, other digit scripts) and
tolerates extra blank lines at the end of the file.  Error positions use
1-based lines, and columns count whitespace-separated tokens, not characters.
Whether blocks are Latin is checked once, by MolsSet, after the whole text
is read, so a syntax fault anywhere is reported before a non-Latin block.
A block spelled as serialization writes it, each row holding order - 1
spaces and every token a plain decimal, is read with one split of its
joined rows and one gather of all order^2 tokens from a table of the
canonical spellings.  Any other block is read row by row, with one gather
per row and int() for the other spellings; that loop locates every fault.
Each block's ints go to LatinSquare._of_symbols, whose _set stores them by
the storage rule of squares.py: bytes up to order 255, a tuple of ints
above it.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter

from .errors import NotLatinError, SquareFileError
from .squares import EXTERNAL, LatinSquare, MolsSet


def serialize_square_file(mols: MolsSet) -> str:
    """Render a set in the text format; inverse of parse_square_file."""
    n = mols.order
    spell = [str(s) for s in range(n + 1)]
    lines = [f"{n} {len(mols.squares)}"]
    for position, square in enumerate(mols.squares):
        if position:
            lines.append("")
        words = list(map(spell.__getitem__, square.symbols))
        lines.extend(" ".join(words[k:k + n]) for k in range(0, n * n, n))
    return "\n".join(lines) + "\n"


def decode_square_file(data: bytes) -> str:
    """The text of a square file's bytes, read as UTF-8.

    An undecodable byte raises SquareFileError at its line, counted the way
    parse_square_file counts lines.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise SquareFileError(f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})",
                              line=len((before + "\0").splitlines())) from None


def _convert_row(tokens: list[str], order: int, line_no: int) -> tuple[int, ...]:
    """Convert a row token by token, accepting any spelling int() accepts
    (05, +3, other digit scripts); raise at the first bad token."""
    row = []
    for column, token in enumerate(tokens, start=1):
        try:
            value = int(token)
        except ValueError:
            raise SquareFileError(f"{token!r} is not an integer",
                                  line=line_no, column=column) from None
        if not 1 <= value <= order:
            raise SquareFileError(f"symbol {value} out of range 1..{order}",
                                  line=line_no, column=column)
        row.append(value)
    return tuple(row)


def parse_square_file(text: str) -> MolsSet:
    """Parse the text format into a set with family kind "external".

    Raises SquareFileError for malformed headers, short or oversized
    blocks, non-integer or out-of-range symbols and trailing content, then
    for the first block p that MolsSet finds not Latin: at the line of the
    row at fault, or at the block's first line, 2 + (p-1)(order+1), as
    exactly one blank line separates blocks.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise SquareFileError("missing header line 'order count'", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise SquareFileError(f"header must be 'order count', got {len(header)} tokens", line=1)
    try:
        order, count = int(header[0]), int(header[1])
    except ValueError:
        raise SquareFileError("header must hold two integers 'order count'", line=1) from None
    if order < 1:
        raise SquareFileError(f"order must be at least 1, got {order}", line=1)
    if count < 1:
        raise SquareFileError(f"count must be at least 1, got {count}", line=1)

    cursor = 1                     # 0-based index into lines
    symbols = {}                   # canonical spelling of each symbol -> its value
    squares = []
    for block in range(1, count + 1):
        if block > 1:
            if cursor >= len(lines) or lines[cursor].strip():
                raise SquareFileError(f"expected a blank line before block {block}",
                                      line=cursor + 1)
            cursor += 1
        rows = lines[cursor:cursor + order]
        lines[cursor:cursor + order] = [None] * len(rows)   # release the block's text
        if len(rows) == order:
            # Built only now, so its size is bounded by the input, not the header.
            symbols = symbols or {str(s): s for s in range(1, order + 1)}
            # When each row holds n - 1 spaces and all n^2 pieces between
            # them are canonical spellings, each row is n of those pieces,
            # as split() would read it.
            if set(map(str.count, rows, repeat(" "))) == {order - 1}:
                try:
                    values = itemgetter(*" ".join(rows).split(" "))(symbols)
                except KeyError:
                    pass
                else:
                    squares.append(LatinSquare._of_symbols(
                        order, values if order > 1 else (values,), EXTERNAL))
                    cursor += order
                    continue
        flat = []                  # the block's symbols, row-major
        for row in range(order):
            if row >= len(rows):
                raise SquareFileError(
                    f"block {block} ends early: expected {order} rows",
                    line=len(lines) + 1)
            line_no = cursor + 1
            tokens = rows[row].split()
            rows[row] = None       # release the row's text; its tokens are all that is read
            if len(tokens) != order:
                raise SquareFileError(
                    f"block {block}: expected {order} symbols, got {len(tokens)}",
                    line=line_no)
            try:
                values = itemgetter(*tokens)(symbols)
                flat += values if order > 1 else (values,)
            except KeyError:
                flat += _convert_row(tokens, order, line_no)
            cursor += 1
        squares.append(LatinSquare._of_symbols(order, flat, EXTERNAL))
    while cursor < len(lines):
        if lines[cursor].strip():
            raise SquareFileError("unexpected content after the final block", line=cursor + 1)
        cursor += 1
    try:
        return MolsSet(order, tuple(squares), EXTERNAL)
    except NotLatinError as exc:
        p, first = exc.position, exc.violation
        row = first.index - 1 if first.axis == "row" else 0
        raise SquareFileError(f"block {p} is not a Latin square: {first.describe()}",
                              line=2 + (p - 1) * (order + 1) + row) from None
