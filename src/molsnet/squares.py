"""Latin squares over symbols 1..n and the two prime-based families.

A multiplicative square exists when n+1 is prime: cell (i, j) holds
(i*j) mod (n+1).  Cycling its rows upward gives the shift family of n
squares.  An additive square exists when n itself is prime: cell (i, j)
holds (i + h*j) mod n for a slope h in 1..n-1, with residue 0 written as
the symbol n.  Row and column indices are 1-based throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, repeat
from typing import Iterable, Sequence

from .errors import ConstructionError, NotLatinError

Row = tuple[int, ...]
Grid = tuple[Row, ...]

ADDITIVE_PRIME = "additive-prime"
SHIFT_FAMILY = "shift-family"
EXTERNAL = "external"


def is_prime(n: int) -> bool:
    """Trial division; the orders used here are small."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, init=False)
class LatinSquare:
    """An n x n grid intended to hold each of 1..n once per row and column.

    Stored as one row-major sequence of its n^2 symbols, so symbols[k] is
    the symbol in cell k // n + 1, k % n + 1; that object is also the
    square's column of a stack (superimpose).  It is bytes when every
    symbol equals an int in 0..255, which holds for every Latin square up
    to order 255, and the given tuple otherwise, so equality and hash stay
    elementwise.  The rows are derived on demand, as tuples of ints.
    The constructor checks shape only, one len per row at C speed, so that
    broken grids can still be built and handed to validate_latin for a
    diagnosis.  provenance records how the square was made and is ignored
    by equality.
    """

    order: int
    symbols: bytes | Row
    provenance: str = field(default=EXTERNAL, compare=False)

    def __init__(self, order: int, cells: Sequence[Sequence[int]], provenance: str = EXTERNAL):
        if order < 1:
            raise ValueError(f"order must be at least 1, got {order}")
        if len(cells) != order or any(map(order.__ne__, map(len, cells))):
            raise ValueError(f"cells must form a {order}x{order} grid")
        self._set(order, tuple(chain.from_iterable(cells)), provenance)

    @classmethod
    def _of_symbols(cls, order: int, symbols: Sequence[int], provenance: str) -> LatinSquare:
        """A square from its row-major symbols, for the package's own builders."""
        square = cls.__new__(cls)
        square._set(order, symbols, provenance)
        return square

    def _set(self, order: int, symbols: Sequence[int], provenance: str) -> None:
        """The one normalization of both constructors: symbols that bytes()
        takes, or that all equal a key of the table of 0..255 (1.0, True,
        Fraction(1)), are stored as bytes, a bytes object as it is; any
        other symbols (300, 2.5, 'x') as the given tuple."""
        if type(symbols) is not bytes:
            try:
                symbols = bytes(symbols)
            except (TypeError, ValueError):
                try:
                    symbols = bytes(map(_BYTE_VALUES.__getitem__, symbols))
                except (KeyError, TypeError):
                    symbols = tuple(symbols)
        for name, value in (("order", order), ("symbols", symbols), ("provenance", provenance)):
            object.__setattr__(self, name, value)

    @property
    def cells(self) -> Grid:
        return tuple(map(tuple, _rows(self.symbols, self.order)))


# Each int that fits in a byte, keyed by itself, so a symbol that equals one
# (1.0, True) reads as that int.
_BYTE_VALUES = {s: s for s in range(256)}


@dataclass(frozen=True)
class LatinViolation:
    axis: str        # "row" or "column"
    index: int       # 1-based
    symbol: int
    problem: str     # "duplicate" or "missing"

    def describe(self) -> str:
        verb = "duplicates" if self.problem == "duplicate" else "is missing"
        return f"{self.axis} {self.index} {verb} symbol {self.symbol}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[LatinViolation, ...] = ()


def validate_latin(square: LatinSquare) -> ValidationReport:
    """Report every duplicated or missing symbol, rows first, then columns.

    A square whose symbols are bytes is accepted when every row and column
    holds each of 1..n: a lane of n bytes that does is a permutation.  Any
    other square is diagnosed by counting its symbols; that includes every
    square whose symbols are a tuple (a symbol that equals no int in
    0..255) and every square of order above 255, whose 1..n does not fit
    in bytes.
    """
    n, flat, full = square.order, square.symbols, _full(square.order)
    lanes = map(flat.__getitem__, chain(*_lane_slices(n)))
    if full and type(flat) is bytes and _permutes(full, lanes):
        return ValidationReport(True)
    return _count_violations(square)


@cache
def _lane_slices(n: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """The row slices and the column slices of a row-major n x n grid, made
    once per order: row r (0-based) is grid[r * n:(r + 1) * n], column j is
    grid[j::n]."""
    return (tuple(slice(k, k + n) for k in range(0, n * n, n)),
            tuple(slice(j, None, n) for j in range(n)))


@cache
def _full(n: int) -> bytes | None:
    """The storage rule's one limit: bytes 1..n up to order 255, where every
    Latin square's symbols and every stack column are bytes, and None above
    it, where 1..n does not fit in bytes and they are tuples.  Every layer
    that picks a route by the order reads it here."""
    return bytes(range(1, n + 1)) if n <= 255 else None


def _rows(flat: bytes | Row, n: int) -> list[bytes | Row]:
    """The one row cut: the n rows of a row-major n x n grid, each of the
    grid's own type."""
    return list(map(flat.__getitem__, _lane_slices(n)[0]))


def _permutes(full: bytes, lanes: Iterable[bytes]) -> bool:
    """Whether every lane, bytes of length n, holds each of 1..n (full is
    _full(n)): one that does deletes all of full, so it is a permutation."""
    return not any(map(full.translate, repeat(None), lanes))


def _count_violations(square: LatinSquare) -> ValidationReport:
    """validate_latin's diagnosis: only a lane that is not a permutation of
    1..n has its symbols counted."""
    n, cells = square.order, square.cells
    symbols = set(range(1, n + 1))
    violations = []
    for axis, lanes in (("row", cells), ("column", zip(*cells))):
        for index, lane in enumerate(lanes, start=1):
            if set(lane) != symbols:
                counts = Counter(lane)
                violations += [
                    LatinViolation(axis, index, s, "duplicate" if counts[s] else "missing")
                    for s in range(1, n + 1) if counts[s] != 1]
    return ValidationReport(not violations, tuple(violations))


@dataclass(frozen=True)
class MolsSet:
    """Latin squares of one order, kept in construction order.

    Members must pass validate_latin, run only here (NotLatinError).
    Duplicates are allowed so a defective set can still be loaded and
    verified; generated families are pairwise distinct.  family_kind is
    ignored by equality.
    """

    order: int
    squares: tuple[LatinSquare, ...]
    family_kind: str = field(default=EXTERNAL, compare=False)

    def __post_init__(self):
        if not self.squares:
            raise ValueError("a square set cannot be empty")
        for position, square in enumerate(self.squares, start=1):
            if square.order != self.order:
                raise ValueError(
                    f"square {position} has order {square.order}, expected {self.order}")
            report = validate_latin(square)
            if not report.ok:
                raise NotLatinError(position, report.violations[0])

    def __len__(self) -> int:
        return len(self.squares)

    def __iter__(self):
        return iter(self.squares)

    def __getitem__(self, index: int) -> LatinSquare:
        return self.squares[index]


def make_multiplicative_square(n: int) -> LatinSquare:
    """Square with cell (i, j) = (i*j) mod (n+1), for n+1 prime.

    The symbols 1..n are exactly the nonzero residues mod n+1, so each row
    and column is a permutation.
    """
    if n < 2:
        raise ConstructionError(f"order must be at least 2, got {n}")
    if not is_prime(n + 1):
        raise ConstructionError(f"multiplicative square needs {n}+1 prime; {n + 1} is not")
    p = n + 1
    symbols = [i * j % p for i in range(1, n + 1) for j in range(1, n + 1)]
    return LatinSquare._of_symbols(n, symbols, "multiplicative")


def apply_row_shift(square: LatinSquare, k: int) -> LatinSquare:
    """Cycle rows upward by k: output row i is input row ((i-1+k) mod n)+1,
    which rotates the row-major symbols left by k rows."""
    n = square.order
    if not 0 <= k < n:
        raise ValueError(f"shift must be in 0..{n - 1}, got {k}")
    symbols = square.symbols
    return LatinSquare._of_symbols(n, symbols[k * n:] + symbols[:k * n], f"shifted(k={k})")


def make_additive_square(n: int, h: int) -> LatinSquare:
    """Square with cell (i, j) = (i + h*j) mod n, residue 0 written as n.

    Needs n prime so that every slope h in 1..n-1 is invertible, which makes
    each row and column a permutation.  Since h * (j + h^-1) = h*j + 1, row
    i+1 is row i rotated left by h^-1 mod n, so every row is a slice of the
    first row written twice.
    """
    if not is_prime(n):
        raise ConstructionError(f"additive square needs a prime order; {n} is not prime")
    if not 1 <= h <= n - 1:
        raise ConstructionError(f"slope must be in 1..{n - 1}, got {h}")
    doubled = tuple(h * j % n + 1 for j in range(1, n + 1)) * 2
    step = pow(h, -1, n)
    symbols = []
    for start in (i * step % n for i in range(n)):
        symbols += doubled[start:start + n]
    return LatinSquare._of_symbols(n, symbols, f"additive(h={h})")


def make_mols_family(n: int, method: str = "auto") -> MolsSet:
    """Build the standard family for order n.

    n prime gives the n-1 additive squares (h = 1..n-1); n+1 prime gives
    the multiplicative square and its n row shifts (k = 0..n-1).  When both
    routes exist (only n = 2) the additive one wins; pass method="additive"
    or method="shift" to force a route.
    """
    if method not in ("auto", "additive", "shift"):
        raise ValueError(f"method must be auto, additive or shift, got {method!r}")
    if method == "auto":
        if is_prime(n):
            method = "additive"
        elif is_prime(n + 1):
            method = "shift"
        else:
            raise ConstructionError(
                f"no construction available for order {n}: neither {n} nor {n + 1} is prime")
    if method == "additive":
        if not is_prime(n):
            raise ConstructionError(f"additive family needs a prime order; {n} is not prime")
        squares = tuple(make_additive_square(n, h) for h in range(1, n))
        return MolsSet(n, squares, ADDITIVE_PRIME)
    base = make_multiplicative_square(n)
    squares = tuple(apply_row_shift(base, k) for k in range(n))
    return MolsSet(n, squares, SHIFT_FAMILY)
