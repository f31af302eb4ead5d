"""Plain-text square files.

Format: a header line "order count", then count blocks separated by one
blank line, each block being order lines of order space-separated symbols
in 1..order.  Serialization writes plain decimals and ends with a newline;
parsing accepts any spelling int() does (05, +3, other digit scripts) and
tolerates extra blank lines at the end of the file.  Error positions use
1-based lines, and columns count whitespace-separated tokens, not characters.
"""

from __future__ import annotations

from .errors import SquareFileError
from .squares import EXTERNAL, LatinSquare, MolsSet, validate_latin


def serialize_square_file(mols: MolsSet) -> str:
    """Render a set in the text format; inverse of parse_square_file."""
    spell = [str(s) for s in range(mols.order + 1)]
    lines = [f"{mols.order} {len(mols.squares)}"]
    for position, square in enumerate(mols.squares):
        if position:
            lines.append("")
        lines.extend(" ".join(map(spell.__getitem__, row)) for row in square.cells)
    return "\n".join(lines) + "\n"


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
    blocks, non-integer or out-of-range symbols, and blocks that are not
    Latin squares (reported with their block number).
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
    symbols = None                 # canonical spelling of each symbol -> its value
    squares = []
    for block in range(1, count + 1):
        if block > 1:
            if cursor >= len(lines) or lines[cursor].strip():
                raise SquareFileError(f"expected a blank line before block {block}",
                                      line=cursor + 1)
            cursor += 1
        block_start = cursor + 1
        rows = []
        for _ in range(order):
            if cursor >= len(lines):
                raise SquareFileError(
                    f"block {block} ends early: expected {order} rows",
                    line=len(lines) + 1)
            line_no = cursor + 1
            tokens = lines[cursor].split()
            lines[cursor] = None   # release the row's text; its tokens are all that is read
            if len(tokens) != order:
                raise SquareFileError(
                    f"block {block}: expected {order} symbols, got {len(tokens)}",
                    line=line_no)
            if symbols is None:
                # Built only now, so its size is bounded by the input, not the header.
                symbols = {str(s): s for s in range(1, order + 1)}
            try:
                # Through a list, so the row tuple is allocated at its final size.
                rows.append(tuple(list(map(symbols.__getitem__, tokens))))
            except KeyError:
                rows.append(_convert_row(tokens, order, line_no))
            cursor += 1
        square = LatinSquare(order, tuple(rows), EXTERNAL)
        report = validate_latin(square)
        if not report.ok:
            first = report.violations[0]
            line = block_start + first.index - 1 if first.axis == "row" else block_start
            raise SquareFileError(f"block {block} is not a Latin square: {first.describe()}",
                                  line=line)
        squares.append(square)
    while cursor < len(lines):
        if lines[cursor].strip():
            raise SquareFileError("unexpected content after the final block", line=cursor + 1)
        cursor += 1
    return MolsSet(order, tuple(squares), EXTERNAL)
