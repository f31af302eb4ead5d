"""Superimposition of Latin squares and the t-orthogonality decision.

Stacking t same-order squares turns each cell into an ordered t-tuple;
the stack is t-orthogonal when all n^2 tuples are pairwise distinct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .squares import LatinSquare, MolsSet

Cell = tuple[int, int]            # (row, column), 1-based
SymbolTuple = tuple[int, ...]


@dataclass(frozen=True)
class TupleArray:
    """n x n grid of ordered t-tuples obtained by stacking t squares.

    source records which 1-based positions of an owning set the squares
    came from; it is bookkeeping only and ignored by equality.
    """

    order: int
    arity: int
    grid: tuple[tuple[SymbolTuple, ...], ...]
    source: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        n, t = self.order, self.arity
        if t < 2:
            raise ValueError(f"arity must be at least 2, got {t}")
        if len(self.grid) != n or any(len(row) != n for row in self.grid):
            raise ValueError(f"grid must be {n}x{n}")
        for row in self.grid:
            for entry in row:
                if len(entry) != t:
                    raise ValueError(f"every entry must have {t} symbols, got {entry!r}")
                if any(not 1 <= s <= n for s in entry):
                    raise ValueError(f"symbols must lie in 1..{n}, got {entry!r}")

    def tuple_at(self, i: int, j: int) -> SymbolTuple:
        """Tuple in row i, column j (1-based)."""
        return self.grid[i - 1][j - 1]


def superimpose(squares: Sequence[LatinSquare],
                source: Sequence[int] | None = None) -> TupleArray:
    """Stack squares cell by cell into a tuple array.

    source defaults to positions 1..t.
    """
    if len(squares) < 2:
        raise ValueError(f"need at least 2 squares to superimpose, got {len(squares)}")
    orders = {square.order for square in squares}
    if len(orders) != 1:
        raise ValueError(f"cannot superimpose squares of mixed orders {sorted(orders)}")
    n = squares[0].order
    grid = tuple(
        tuple(tuple(square.cells[i][j] for square in squares) for j in range(n))
        for i in range(n)
    )
    src = tuple(source) if source is not None else tuple(range(1, len(squares) + 1))
    if len(src) != len(squares):
        raise ValueError("source must name one position per square")
    return TupleArray(n, len(squares), grid, src)


@dataclass(frozen=True)
class OrthogonalityReport:
    is_orthogonal: bool
    distinct_count: int
    first_collision: tuple[Cell, Cell] | None = None


def is_t_orthogonal(array: TupleArray) -> OrthogonalityReport:
    """Decide whether all n^2 tuples are pairwise distinct.

    On failure, first_collision is the smallest colliding cell pair in
    row-major order.
    """
    occurrences: dict[SymbolTuple, list[Cell]] = {}
    for i, row in enumerate(array.grid, start=1):
        for j, entry in enumerate(row, start=1):
            occurrences.setdefault(entry, []).append((i, j))
    collisions = [(cells[0], cells[1]) for cells in occurrences.values() if len(cells) > 1]
    first = min(collisions) if collisions else None
    return OrthogonalityReport(first is None, len(occurrences), first)


def distinct_tuple_count(array: TupleArray) -> int:
    """Number of distinct tuples; n^2 exactly when the array is orthogonal."""
    return len({entry for row in array.grid for entry in row})


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
    combinations, walked depth first.  A node holds the collision classes
    of its prefix: row-major cell positions that share their tuple, with
    singletons dropped.  Adding a square splits each class by that square's
    symbol; no class ever merges, because cells that differ on a subset
    differ on every superset.  So a prefix without classes is orthogonal
    and so is every completion of it, which is recorded without more work.
    A node costs at most n^2 dictionary operations, and there are at most
    t * C(m, t) nodes.
    """
    size = len(mols.squares)
    if not 2 <= t <= size:
        raise ValueError(f"t must be between 2 and the set size {size}, got {t}")
    n = mols.order
    flat = [[symbol for row in square.cells for symbol in row] for square in mols.squares]
    orthogonal = OrthogonalityReport(True, n * n, None)
    verdicts: list[SubsetVerdict] = []

    def settled(prefix: tuple[int, ...], classes: list[list[int]]) -> bool:
        """Record the verdicts below a node if they are known; say whether they were."""
        if not classes:
            start = prefix[-1] + 1 if prefix else 1
            verdicts.extend(
                SubsetVerdict(prefix + rest, orthogonal)
                for rest in itertools.combinations(range(start, size + 1), t - len(prefix)))
            return True
        if len(prefix) < t:
            return False
        a, b = min((members[0], members[1]) for members in classes)
        distinct = n * n - sum(len(members) - 1 for members in classes)
        first = ((a // n + 1, a % n + 1), (b // n + 1, b % n + 1))
        verdicts.append(SubsetVerdict(prefix, OrthogonalityReport(False, distinct, first)))
        return True

    root = [list(range(n * n))] if n > 1 else []
    # Explicit stack of [prefix, classes, next square to add], so depth is not
    # bounded by the recursion limit.
    stack = [] if settled((), root) else [[(), root, 1]]
    while stack:
        frame = stack[-1]
        prefix, classes, k = frame
        if k > size - t + len(prefix) + 1:
            stack.pop()
            continue
        frame[2] = k + 1
        column = flat[k - 1]
        split = []
        for members in classes:
            groups: dict[int, list[int]] = {}
            for position in members:
                groups.setdefault(column[position], []).append(position)
            split.extend(group for group in groups.values() if len(group) > 1)
        child = prefix + (k,)
        if not settled(child, split):
            stack.append([child, split, k + 1])
    return SetOrthogonalityReport(n, t, tuple(verdicts))
