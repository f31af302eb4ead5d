"""Superimposition of Latin squares and the t-orthogonality decision.

Stacking t same-order squares turns each cell into an ordered t-tuple;
the stack is t-orthogonal when all n^2 tuples are pairwise distinct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, mul, ne
from typing import Iterable, Sequence

from .squares import LatinSquare, MolsSet

Cell = tuple[int, int]            # (row, column), 1-based
SymbolTuple = tuple[int, ...]
Column = tuple[int, ...]          # one square's symbols, row-major


@dataclass(frozen=True, init=False)
class TupleArray:
    """n x n grid of ordered t-tuples obtained by stacking t squares.

    Stored as one row-major flat column of n^2 symbols per square, so
    columns[p][k] is coordinate p of the tuple in cell k // n + 1, k % n + 1.
    The grid is derived on demand.
    """

    order: int
    arity: int
    columns: tuple[Column, ...]

    def __init__(self, order: int, arity: int, grid: Sequence[Sequence[SymbolTuple]]):
        n, t = order, arity
        if t < 2:
            raise ValueError(f"arity must be at least 2, got {t}")
        if len(grid) != n or any(len(row) != n for row in grid):
            raise ValueError(f"grid must be {n}x{n}")
        entries = list(itertools.chain.from_iterable(grid))
        if entries and set(map(len, entries)) != {t}:
            _raise_first_bad_entry(n, t, entries)
        columns = tuple(zip(*entries)) if entries else ((),) * t
        self._set(n, t, columns)

    @classmethod
    def _of_columns(cls, order: int, columns: tuple[Column, ...]) -> TupleArray:
        array = cls.__new__(cls)
        array._set(order, len(columns), columns)
        return array

    def _set(self, order: int, arity: int, columns: tuple[Column, ...]) -> None:
        """The one symbol check of both constructors; fields are set only if it passes."""
        if any(min(column) < 1 or max(column) > order for column in columns if column):
            _raise_first_bad_entry(order, arity, list(zip(*columns)))
        for name, value in (("order", order), ("arity", arity), ("columns", columns)):
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> tuple[tuple[SymbolTuple, ...], ...]:
        n = self.order
        entries = tuple(zip(*self.columns))
        return tuple(entries[i * n:(i + 1) * n] for i in range(n))

    def tuple_at(self, i: int, j: int) -> SymbolTuple:
        """Tuple in row i, column j (1-based)."""
        n = self.order
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"cell ({i}, {j}) lies outside the {n}x{n} grid")
        k = (i - 1) * n + j - 1
        return tuple(column[k] for column in self.columns)


def _raise_first_bad_entry(n: int, t: int, entries: list[SymbolTuple]) -> None:
    """Raise for the first malformed entry in row-major order."""
    for entry in entries:
        if len(entry) != t:
            raise ValueError(f"every entry must have {t} symbols, got {entry!r}")
        if any(not 1 <= s <= n for s in entry):
            raise ValueError(f"symbols must lie in 1..{n}, got {entry!r}")


def cell_of(position: int, n: int) -> Cell:
    """The 1-based (row, column) of a row-major position in an n x n grid."""
    return position // n + 1, position % n + 1


def stacked_keys(keys: Sequence[int], column: Column, n: int) -> list[int]:
    """Append a column to per-cell keys: key * (n+1) + symbol.

    Starting from a column, the key of a cell is its prefix of symbols read
    as a base-(n+1) number.  That is injective because every symbol lies in
    1..n, and it orders cells the way their symbol tuples sort.
    """
    return list(map(add, map(mul, keys, itertools.repeat(n + 1)), column))


def _flat_symbols(square: LatinSquare) -> Column:
    """A square's symbols in row-major order: its column of a stack."""
    return tuple(itertools.chain.from_iterable(square.cells))


def superimpose(squares: Iterable[LatinSquare]) -> TupleArray:
    """Stack squares cell by cell into a tuple array.

    squares is read once, in order, and each square is let go once its
    column is built, so squares that only the iterable holds, such as those
    a generator hands over, are freed during the stacking.
    """
    orders, columns = set(), []
    for square in squares:
        orders.add(square.order)
        columns.append(_flat_symbols(square))
    if len(columns) < 2:
        raise ValueError(f"need at least 2 squares to superimpose, got {len(columns)}")
    if len(orders) != 1:
        raise ValueError(f"cannot superimpose squares of mixed orders {sorted(orders)}")
    return TupleArray._of_columns(orders.pop(), tuple(columns))


@dataclass(frozen=True)
class OrthogonalityReport:
    is_orthogonal: bool
    distinct_count: int
    first_collision: tuple[Cell, Cell] | None = None


def is_t_orthogonal(array: TupleArray) -> OrthogonalityReport:
    """Decide whether all n^2 tuples are pairwise distinct.

    Decided on prefixes of the stack, keyed by stacked_keys: cells that
    differ on a prefix differ on the whole tuple, so the first prefix whose
    n^2 cells are distinct settles it.  On failure, first_collision is the
    smallest colliding cell pair in row-major order.
    """
    n, columns = array.order, array.columns
    keys = columns[0]
    for column in columns[1:]:
        keys = stacked_keys(keys, column, n)
        if len(set(keys)) == n * n:
            return OrthogonalityReport(True, n * n, None)
    return _collision_report(keys, n)


def _collision_report(keys: Sequence[int], n: int) -> OrthogonalityReport:
    """The report of a stack whose n^2 per-cell keys are not all distinct.

    firsts[k] is the first position holding the key of position k.  The
    smallest position some later position points back to is the first cell
    of the certificate, and the next position pointing to it is the second.
    """
    seen: dict[int, int] = {}
    firsts = list(map(seen.setdefault, keys, range(n * n)))
    a = min(itertools.compress(firsts, map(ne, firsts, range(n * n))))
    b = firsts.index(a, a + 1)
    return OrthogonalityReport(False, len(seen), (cell_of(a, n), cell_of(b, n)))


def distinct_tuple_count(array: TupleArray) -> int:
    """Number of distinct tuples; n^2 exactly when the array is orthogonal."""
    return len(set(zip(*array.columns)))


@dataclass(frozen=True)
class SubsetVerdict:
    indices: tuple[int, ...]      # 1-based positions within the set
    report: OrthogonalityReport


@dataclass(frozen=True)
class SetOrthogonalityReport:
    order: int
    t: int
    verdicts: tuple[SubsetVerdict, ...]

    @property
    def all_orthogonal(self) -> bool:
        return all(v.report.is_orthogonal for v in self.verdicts)

    @property
    def failures(self) -> tuple[SubsetVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.report.is_orthogonal)


def verify_set_orthogonality(mols: MolsSet, t: int) -> SetOrthogonalityReport:
    """Check every t-subset of the set; verdicts come in index order.

    The subsets are the leaves of the lexicographic prefix tree of index
    combinations, walked depth first.  A node holds the stacked_keys of its
    prefix, one per cell, built from its parent's keys and one more column.
    Cells that differ on a prefix differ on every extension of it, so a
    node whose n^2 keys are distinct settles all its completions as
    orthogonal without more work.  A failing leaf reads its certificate
    off its keys, as is_t_orthogonal does.
    """
    size = len(mols.squares)
    if not 2 <= t <= size:
        raise ValueError(f"t must be between 2 and the set size {size}, got {t}")
    n = mols.order
    flat = [_flat_symbols(square) for square in mols.squares]
    orthogonal = OrthogonalityReport(True, n * n, None)
    verdicts: list[SubsetVerdict] = []
    # Explicit stack of [prefix, keys, next square to add], so depth is not
    # bounded by the recursion limit.
    stack = [[(), (), 1]]
    while stack:
        frame = stack[-1]
        prefix, keys, k = frame
        if k > size - t + len(prefix) + 1:
            stack.pop()
            continue
        frame[2] = k + 1
        child = prefix + (k,)
        child_keys = stacked_keys(keys, flat[k - 1], n) if prefix else flat[k - 1]
        if len(set(child_keys)) == n * n:
            verdicts.extend(
                SubsetVerdict(child + rest, orthogonal)
                for rest in itertools.combinations(range(k + 1, size + 1), t - len(child)))
        elif len(child) == t:
            verdicts.append(SubsetVerdict(child, _collision_report(child_keys, n)))
        else:
            stack.append([child, child_keys, k + 1])
    return SetOrthogonalityReport(n, t, tuple(verdicts))
