"""Superimposition of Latin squares and the t-orthogonality decision.

Stacking t same-order squares turns each cell into an ordered t-tuple;
the stack is t-orthogonal when all n^2 tuples are pairwise distinct.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from math import comb
from operator import add, attrgetter, gt, itemgetter, mul, ne
from typing import Iterable, Iterator, Sequence

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
    """A square's symbols in row-major order: its column of a stack.

    The rows are copied into a list of the final length, so the column is
    not grown by reallocation.
    """
    n = square.order
    flat = [0] * (n * n)
    for start, row in zip(range(0, n * n, n), square.cells):
        flat[start:start + n] = row
    return tuple(flat)


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
    return _collision_report(keys, n, range(n * n))


def _collision_report(keys: Sequence[int], n: int,
                      positions: Sequence[int]) -> OrthogonalityReport:
    """The report of a stack whose per-cell keys are not all distinct.

    keys[k] is the key of row-major position positions[k], in increasing
    position order; every cell left out of positions holds a key no other
    cell holds.  firsts[k] is the first index holding the key of index k.
    The smallest index some later index points back to is the first cell
    of the certificate, and the next index pointing to it is the second.
    """
    seen: dict[int, int] = {}
    m = len(keys)
    firsts = list(map(seen.setdefault, keys, range(m)))
    a = min(itertools.compress(firsts, map(ne, firsts, range(m))))
    b = firsts.index(a, a + 1)
    return OrthogonalityReport(False, n * n - m + len(seen),
                               (cell_of(positions[a], n), cell_of(positions[b], n)))


def distinct_tuple_count(array: TupleArray) -> int:
    """Number of distinct tuples; n^2 exactly when the array is orthogonal."""
    return len(set(zip(*array.columns)))


@dataclass(frozen=True)
class SubsetVerdict:
    indices: tuple[int, ...]      # 1-based positions within the set
    report: OrthogonalityReport


@dataclass(frozen=True)
class SetOrthogonalityReport:
    """The verdicts on every t-subset of a set of `size` order-n squares.

    Only the failing verdicts are stored, in index order.  Every other
    subset is orthogonal with all n^2 tuples distinct, so `verdicts`
    derives the full sequence, and two reports are equal exactly when all
    their verdicts are.
    """

    order: int
    t: int
    size: int
    failures: tuple[SubsetVerdict, ...]

    @property
    def subset_count(self) -> int:
        return comb(self.size, self.t)

    @property
    def all_orthogonal(self) -> bool:
        return not self.failures

    @property
    def verdicts(self) -> SubsetVerdicts:
        return SubsetVerdicts(self)


class SubsetVerdicts(SequenceABC):
    """Every verdict of a report, in index order, made on demand.

    len() is C(size, t) without enumerating; it raises OverflowError past
    sys.maxsize, where `subset_count` still works.  Compare reports, or
    tuple(verdicts), rather than this view.
    """

    def __init__(self, report: SetOrthogonalityReport):
        self._report = report

    def __len__(self) -> int:
        return self._report.subset_count

    def __iter__(self) -> Iterator[SubsetVerdict]:
        r = self._report
        orthogonal = OrthogonalityReport(True, r.order ** 2, None)
        failed = {v.indices: v for v in r.failures}.get
        for indices in itertools.combinations(range(1, r.size + 1), r.t):
            yield failed(indices) or SubsetVerdict(indices, orthogonal)

    def __getitem__(self, index):
        r = self._report
        count = r.subset_count
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(count)[index]))
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("verdict index out of range")
        indices = _nth_subset(index, r.size, r.t)
        at = bisect_left(r.failures, indices, key=attrgetter("indices"))
        if at < len(r.failures) and r.failures[at].indices == indices:
            return r.failures[at]
        return SubsetVerdict(indices, OrthogonalityReport(True, r.order ** 2, None))


def _nth_subset(index: int, size: int, t: int) -> tuple[int, ...]:
    """The t-subset of 1..size at position index in lexicographic order."""
    indices, x = [], 1
    for left in range(t, 0, -1):
        while index >= (starting_at_x := comb(size - x, left - 1)):
            index -= starting_at_x
            x += 1
        indices.append(x)
        x += 1
    return tuple(indices)


def subset_rank(indices: Sequence[int], size: int) -> int:
    """Position of a sorted 1-based t-subset of 1..size in lexicographic order."""
    t = len(indices)
    return comb(size, t) - 1 - sum(comb(size - c, t - i) for i, c in enumerate(indices))


def _scaled(keys: Iterable[int], n: int) -> list[int]:
    """Per-cell keys times (n+1): one key pass, made once per tree node."""
    return list(map(mul, keys, itertools.repeat(n + 1)))


def _appended(scaled: Sequence[int], column: Sequence[int]) -> list[int]:
    """A child's keys from its parent's scaled keys: one key pass per child."""
    return list(map(add, scaled, column))


def verify_set_orthogonality(mols: MolsSet, t: int) -> SetOrthogonalityReport:
    """Check every t-subset of the set; return the failures in index order.

    The subsets are the leaves of the lexicographic prefix tree of index
    combinations, walked depth first.  A node holds the stacked_keys of its
    prefix, scaled by n+1 once, so each child adds its column in one pass.
    Cells that differ on a prefix differ on every extension of it, so a
    node whose keys are distinct settles all its completions as orthogonal
    without more work, and a failing node below depth 1 keeps only its
    cells whose key repeats: its children read just those cells of their
    column.  A depth-1 node is a Latin column, so it is not tested: for
    n >= 2 no key of it is unique, and for n = 1 every child settles.  A
    failing leaf reads its certificate off its keys, as is_t_orthogonal does.
    """
    size = len(mols.squares)
    if not 2 <= t <= size:
        raise ValueError(f"t must be between 2 and the set size {size}, got {t}")
    n = mols.order
    flat = [_flat_symbols(square) for square in mols.squares]
    failures: list[SubsetVerdict] = []
    for first in range(1, size - t + 2):
        # Explicit stack of [prefix, scaled keys of the prefix's kept cells,
        # their row-major positions, the reader of those cells from a column
        # (None: every cell), next square to add], so depth is not bounded
        # by the recursion limit.
        stack = [[(first,), _scaled(flat[first - 1], n), range(n * n), None, first + 1]]
        while stack:
            frame = stack[-1]
            prefix, scaled, positions, read, k = frame
            if k > size - t + len(prefix) + 1:
                stack.pop()
                continue
            frame[4] = k + 1
            column = flat[k - 1]
            keys = _appended(scaled, column if read is None else read(column))
            if len(set(keys)) == len(keys):
                continue
            child = prefix + (k,)
            if len(child) == t:
                failures.append(SubsetVerdict(child, _collision_report(keys, n, positions)))
                continue
            counts = Counter(keys)
            repeated = list(map(gt, map(counts.__getitem__, keys), itertools.repeat(1)))
            kept = list(itertools.compress(positions, repeated))
            stack.append([child, _scaled(itertools.compress(keys, repeated), n), kept,
                          itemgetter(*kept), k + 1])
    return SetOrthogonalityReport(n, t, size, tuple(failures))
