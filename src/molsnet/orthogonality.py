"""Superimposition of Latin squares and the t-orthogonality decision.

Stacking t same-order squares turns each cell into an ordered t-tuple;
the stack is t-orthogonal when all n^2 tuples are pairwise distinct.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb
from operator import add, eq, ge, gt, itemgetter, mul
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .errors import InputError
from .squares import LatinSquare, MolsSet, _full, _lane_slices, _permutes, _rows

Cell = tuple[int, int]            # (row, column), 1-based
SymbolTuple = tuple[int, ...]
Column = bytes | tuple[int, ...]  # one square's symbols, row-major


@dataclass(frozen=True, init=False)
class TupleArray:
    """n x n grid of ordered t-tuples obtained by stacking t squares.

    Stored as one row-major flat column of n^2 symbols per square, so
    columns[p][k] is coordinate p of the tuple in cell k // n + 1, k % n + 1:
    bytes up to order 255, a tuple of ints above it.  The grid is derived
    on demand.
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
        """The one symbol check of both constructors; fields are set only if it passes.

        Up to order 255, a bytes column whose bytes all lie in 1..order, such
        as every Latin square's symbols, is taken as it is, without a copy.
        Any other column is read through the table of 1..order: each symbol
        must equal one of 1..order, the only symbols on which the stacked
        keys are injective, and is stored as that int, so 1.0 is kept as 1,
        in bytes up to order 255 and in a tuple above it.  A symbol the
        table does not hold, or cannot hash such as a list, is reported as
        the first bad entry.
        """
        full = _full(order)
        pack = tuple if full is None else bytes
        table = {s: s for s in range(1, order + 1)}
        try:
            columns = tuple(column if full and type(column) is bytes and
                            not column.translate(None, full) else pack(map(table.__getitem__, column))
                            for column in columns)
        except (KeyError, TypeError):
            _raise_first_bad_entry(order, arity, list(zip(*columns)))
        for name, value in (("order", order), ("arity", arity), ("columns", columns)):
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> tuple[tuple[SymbolTuple, ...], ...]:
        entries = tuple(zip(*self.columns))
        return tuple(_rows(entries, self.order))

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
        if any(s not in range(1, n + 1) for s in entry):
            raise ValueError(f"symbols must lie in 1..{n}, got {entry!r}")


def cell_of(position: int, n: int) -> Cell:
    """The 1-based (row, column) of a row-major position in an n x n grid."""
    return position // n + 1, position % n + 1


def superimpose(squares: Iterable[LatinSquare]) -> TupleArray:
    """Stack squares cell by cell into a tuple array.

    squares is read once, in order.  Each square's row-major symbols are
    its column of the stack as they are, without a copy, when they are
    bytes of 1..n, as every Latin square's up to order 255 are; otherwise
    TupleArray._set reads them into ints of 1..n.
    """
    orders, columns = set(), []
    for square in squares:
        orders.add(square.order)
        columns.append(square.symbols)
    if len(columns) < 2:
        raise InputError(f"need at least 2 squares to superimpose, got {len(columns)}")
    if len(orders) != 1:
        raise InputError(f"cannot superimpose squares of mixed orders {sorted(orders)}")
    return TupleArray._of_columns(orders.pop(), tuple(columns))


@dataclass(frozen=True)
class OrthogonalityReport:
    is_orthogonal: bool
    distinct_count: int
    first_collision: tuple[Cell, Cell] | None = None


def is_t_orthogonal(array: TupleArray) -> OrthogonalityReport:
    """Decide whether all n^2 tuples are pairwise distinct.

    This is the prefix walk (_prefix_walk) on the one subset 1..t of the
    stack, so it stops at the first prefix whose n^2 cells are distinct.
    On failure, first_collision is the smallest colliding cell pair in
    row-major order.
    """
    n, t = array.order, array.arity
    failures = _prefix_walk(range(1, t + 1), array.columns, n, t, set())
    return failures[0].report if failures else OrthogonalityReport(True, n * n, None)


def _collision_report(keys: Sequence[Hashable], n: int,
                      positions: Sequence[int]) -> OrthogonalityReport:
    """The report of a stack whose per-cell keys are not all distinct.

    keys[k] is the key of row-major position positions[k], in increasing
    position order, and two cells hold equal keys exactly when they hold
    one tuple: any hashable key will do, such as the walk's ints or the
    tuples themselves.  Every cell left out of positions holds a key no
    other cell holds.  One count of the keys gives the distinct count.  The
    first index whose key repeats is that key's first occurrence, so it is
    the first cell of the certificate, and the key's next occurrence the
    second.
    """
    counts = Counter(keys)
    a = next(itertools.compress(itertools.count(), map(gt, map(counts.__getitem__, keys),
                                                       itertools.repeat(1))))
    b = keys.index(keys[a], a + 1)
    return OrthogonalityReport(False, n * n - len(keys) + len(counts),
                               (cell_of(positions[a], n), cell_of(positions[b], n)))


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


class SubsetVerdicts:
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


def subset_rank(indices: Sequence[int], size: int) -> int:
    """Position of a sorted 1-based t-subset of 1..size in lexicographic order."""
    t = len(indices)
    return comb(size, t) - 1 - sum(comb(size - c, t - i) for i, c in enumerate(indices))


def _scaled(keys: Iterable[int], n: int) -> list[int]:
    """Per-cell keys times (n+1): one key pass, made once per tree node.

    Starting from a column, the key of a cell is its prefix of symbols read
    as a base-(n+1) number, each symbol appended to the scaled key of the
    prefix before it (_appended).  That is injective because every symbol
    lies in 1..n, and it orders cells the way their symbol tuples sort.
    """
    return list(map(mul, keys, itertools.repeat(n + 1)))


def _appended(scaled: Sequence[int], column: Sequence[int]) -> list[int]:
    """A child's keys from its parent's scaled keys: one key pass per child."""
    return list(map(add, scaled, column))


def _runs(size: int, parts: int) -> Iterator[range]:
    """1..size cut into `parts` contiguous runs whose sizes differ by at most
    one, the longer runs first: the parts of the Turan graph T(size, parts)."""
    small, extra = divmod(size, parts)
    start = 1
    for p in range(parts):
        stop = start + small + (p < extra)
        yield range(start, stop)
        start = stop


def _pair_columns(rows_a: Sequence[bytes], rows_b: Sequence[bytes], full: bytes) -> list[bytes]:
    """The one reader of a pair of squares A, B from their rows: the n
    stride-n columns of the pair's joined grid.

    full is bytes 1..n, and every row of A is a permutation of 1..n, so
    full.translate(maketrans(A_r, B_r)) spells B_r o A_r^-1 (1..n): its
    byte s-1 is the symbol of B in the cell of row r where A holds s.
    Joined over the rows, the bytes s-1, s-1+n, ... (stride n) form
    columns[s - 1]: the symbols of B in the n cells where A holds s, one
    per row in row order.  Deleting columns[s - 1] from full leaves the
    symbols that pair with s nowhere, so A and B hold all n^2 symbol pairs
    exactly when no column misses a symbol.
    """
    joined = b"".join(map(full.translate, map(bytes.maketrans, rows_a, rows_b)))
    return list(map(joined.__getitem__, _lane_slices(len(full))[1]))


def _pair_report(rows_a: Sequence[bytes], rows_b: Sequence[bytes],
                 full: bytes) -> OrthogonalityReport | None:
    """The report of two Latin squares given by their rows, or None when they
    hold all n^2 symbol pairs.

    The pair is read as its stride columns (_pair_columns): column s-1
    holds the symbols of B where A holds s.  The distinct count is n^2 less
    all that deleting each column from full leaves.  The first cell in
    row-major order whose symbol of B repeats in its column is the first
    colliding cell; no earlier row collides, so the next cell of its pair
    lies in the column's next row that holds that symbol, in the cell of
    that row where A holds s.
    """
    n = len(full)
    columns = _pair_columns(rows_a, rows_b, full)
    missing = sum(map(len, map(full.translate, itertools.repeat(None), columns)))
    if not missing:
        return None
    column_of = [b"", *columns].__getitem__
    # How often each cell's pair occurs, in row-major order, up to the first repeat.
    counts = map(bytes.count, map(column_of, itertools.chain(*rows_a)), itertools.chain(*rows_b))
    first = next(itertools.compress(itertools.count(), map(gt, counts, itertools.repeat(1))))
    i, j = divmod(first, n)
    s = rows_a[i][j]
    k = column_of(s).index(rows_b[i][j], i + 1)
    return OrthogonalityReport(False, n * n - missing,
                               ((i + 1, j + 1), (k + 1, rows_a[k].index(s) + 1)))


def _row_pair_groups(labels: Sequence[int], rows: Sequence[list[bytes]], n: int,
                     t: int) -> dict[tuple[int, ...], set[int]]:
    """The sets of t or more squares that share a collision, each with the
    row-major positions of the cells that collide on all of them.

    rows[q] holds the rows of the square labelled labels[q], each a
    permutation of 1..n.  For rows r < r' of square k, phi_k =
    S_k[r']^-1 o S_k[r] maps a column c to the column of row r' that holds
    the symbol of cell (r, c), so cells (r, c) and (r', c') hold one symbol
    on square k exactly when c' = phi_k(c).  Two cells of one row never do,
    so two cells hold one tuple on a set of squares K exactly when, for
    some r < r' and c, phi_k(c) is one c' for every k in K.  Per row pair,
    phi_k of every column is one translate of row r by the inverse table of
    row r' (made once per square and row), the results are joined, and one
    Counter of the keys c * n + phi_k(c) names each (c, c') that t or more
    squares share (a row pair whose largest count is below t names none).
    Its group is the labels of those squares, ascending, and the cells
    (r, c) and (r', c') are added to that group's positions.
    """
    lanes = bytes(range(n))
    inverses = [[bytes.maketrans(row, lanes) for row in square] for square in rows]
    offsets = list(range(0, n * n, n)) * len(rows)
    groups: dict[tuple[int, ...], set[int]] = {}
    for r, r2 in itertools.combinations(range(n), 2):
        joined = b"".join([square[r].translate(inverse[r2])
                           for square, inverse in zip(rows, inverses)])
        counts = Counter(map(add, offsets, joined))
        if max(counts.values()) < t:
            continue
        for key in itertools.compress(counts, map(ge, counts.values(), itertools.repeat(t))):
            c, c2 = divmod(key, n)
            group = tuple(itertools.compress(labels, map(eq, joined[c::n], itertools.repeat(c2))))
            groups.setdefault(group, set()).update((r * n + c, r2 * n + c2))
    return groups


def _row_pair_failures(labels: Sequence[int], flat: Sequence[bytes],
                       rows: Callable[[int], list[bytes]], n: int, t: int) -> list[SubsetVerdict]:
    """The failing t-subsets of the squares at the 1-based positions labels
    of flat, ascending, in index order and named by those labels, from
    their row-pair groups (_row_pair_groups): a subset fails exactly when
    one group holds it.  rows(k) gives the rows of square k.

    A failing subset's report is _collision_report over the cells of the
    groups that hold it, since every other cell's tuple is unique; each
    cell's key is its tuple of symbols on the subset's distinct squares.
    Two subsets whose distinct squares are equal (as bytes) hold equal
    tuples in the same cells, repeated squares included, so they share one
    report.
    """
    import heapq              # only here, so loading the package does not pay for it

    groups = _row_pair_groups(labels, list(map(rows, labels)), n, t)
    # Each group's t-subsets in index order, merged, so equal subsets are adjacent.
    held = heapq.merge(*(zip(itertools.combinations(group, t), itertools.repeat(group))
                         for group in groups))
    reports: dict[frozenset[bytes], OrthogonalityReport] = {}
    failures = []
    for subset, holders in itertools.groupby(held, itemgetter(0)):
        squares = frozenset(flat[k - 1] for k in subset)
        report = reports.get(squares)
        if report is None:
            positions = sorted(set().union(*(groups[group] for _, group in holders)))
            read = itemgetter(*positions)
            keys = list(zip(*map(read, squares)))
            report = reports[squares] = _collision_report(keys, n, positions)
        failures.append(SubsetVerdict(subset, report))
    return failures


def _pruned_failures(flat: Sequence[bytes], n: int, t: int, rows: Callable[[int], list[bytes]],
                     passed: set[tuple[int, int]], failed: tuple[int, int]) -> list[SubsetVerdict]:
    """The failing t-subsets, in index order, at t >= 3 up to order 255,
    once the cover pair `failed` has failed after the pairs in `passed`.

    Squares equal as bytes are copies of one distinct square, named by the
    position of its first copy.  Every pair of distinct squares the cover
    left is decided once, verdict only, from its stride columns
    (_pair_columns); two copies fail together, as n >= 2 once a pair has
    failed.  A t-subset fails only if each of its pairs fails, so a square
    with fewer than t - 1 failing partners, each distinct square counted
    with its copies, is in no failing subset and is dropped; with fewer
    than t squares S left, none fails.  On S the row-pair groups
    (_row_pair_failures) decide when 2|S| >= n, and the prefix walk, given
    every passing pair, otherwise.  Both deciders take S as the labels of
    its squares in flat and name their verdicts by those labels, so no
    decider renumbers the squares.  The walk's cost grows with C(|S|, 3)
    when pairs fail and the groups' with C(n, 2) row pairs of |S| squares
    each.  On the first |S| squares of a shift family at t = 3 (2-core x86
    host, Python 3.11, best of 2-3) the walk leads up to about 2|S| = 0.7n
    and the groups from there on: 1.06 against 1.71 s at order 100 with 25
    squares, 4.2 against 2.7 s with 40 and 6.8 against 2.5 s with 50; 7.2
    against 12.9 ms at order 28 with 10 squares and 20 against 16 ms with
    14.  Whole families sit far past the rule (the order-28 family: 154 ms
    walked whole, 35 ms pruned and grouped), and narrow sets such as 12
    copies of an order-31 square stay with the walk.
    """
    full = _full(n)
    first: dict[bytes, int] = {}
    kind = [first.setdefault(square, k) for k, square in enumerate(flat, start=1)]
    copies = Counter(kind)

    def distinct(a: int, b: int) -> frozenset[int]:
        return frozenset((kind[a - 1], kind[b - 1]))

    passes = {distinct(*pair): pair in passed for pair in (*passed, failed)}
    fails = Counter({k: c - 1 for k, c in copies.items()})
    for a, b in itertools.combinations(copies, 2):
        pair = distinct(a, b)
        if pair not in passes:
            passes[pair] = _permutes(full, _pair_columns(rows(a), rows(b), full))
        if not passes[pair]:
            fails[a] += copies[b]
            fails[b] += copies[a]
    kept = [k for k in range(1, len(flat) + 1) if fails[kind[k - 1]] >= t - 1]
    if len(kept) < t:
        return []
    if 2 * len(kept) >= n:
        return _row_pair_failures(kept, flat, rows, n, t)
    # A pair of copies reads None or False from passes: it fails.
    return _prefix_walk(kept, flat, n, t, {pair for pair in itertools.combinations(kept, 2)
                                           if passes.get(distinct(*pair))})


def _prefix_walk(labels: Sequence[int], flat: Sequence[Column], n: int, t: int,
                 orthogonal_pairs: set[tuple[int, int]]) -> list[SubsetVerdict]:
    """The failing t-subsets of the squares at the 1-based positions labels
    of flat, ascending, in index order and named by those labels, from a
    depth-first prefix walk; orthogonal_pairs are label pairs (p, q), p < q.

    A node holds one key per cell, its prefix of symbols read as a
    base-(n+1) number, scaled by n+1 once (_scaled), so each child adds its
    column in one pass (_appended).  Cells that differ on a prefix differ
    on every extension of it, so a node whose keys are distinct settles all
    its completions as orthogonal without more work, and so does a node
    that holds a pair in orthogonal_pairs, at any depth, without a pass.  A
    failing node below depth 1 keeps only its cells whose key repeats: its
    children read just those cells of their column.  A depth-1 node is not
    tested, because one column decides nothing: for n >= 2 its n^2 keys,
    symbols of 1..n, repeat, and for n = 1 every child settles.  A failing
    leaf reads its certificate off its keys (_collision_report).
    Three callers walk, each giving labels as the row-pair groups take
    them, so no decider renumbers: is_t_orthogonal its one subset 1..t;
    verify_set_orthogonality, above order 255, each cover pair (a, b) and,
    at t >= 3 once its Turan cover fails, its whole set 1..size; and
    _pruned_failures, up to order 255, the squares left after the pair
    prune when they are too few for the row-pair groups.  At t = 2 every
    pair is decided on its own.
    """
    size = len(labels)
    failures: list[SubsetVerdict] = []
    for i, first in enumerate(labels[:size - t + 1]):
        # Explicit stack of [prefix of labels, scaled keys of the prefix's
        # kept cells, their row-major positions, the reader of those cells
        # from a column (None: every cell), index in labels of the next
        # square to add], so depth is not bounded by the recursion limit.
        stack = [[(first,), _scaled(flat[first - 1], n), range(n * n), None, i + 1]]
        while stack:
            frame = stack[-1]
            prefix, scaled, positions, read, j = frame
            if j > size - t + len(prefix):
                stack.pop()
                continue
            frame[4] = j + 1
            k = labels[j]
            if any((p, k) in orthogonal_pairs for p in prefix):
                continue
            child = prefix + (k,)
            column = flat[k - 1]
            keys = _appended(scaled, column if read is None else read(column))
            if len(set(keys)) == len(keys):
                continue
            if len(child) == t:
                failures.append(SubsetVerdict(child, _collision_report(keys, n, positions)))
                continue
            counts = Counter(keys)
            repeated = list(map(gt, map(counts.__getitem__, keys), itertools.repeat(1)))
            kept = list(itertools.compress(positions, repeated))
            stack.append([child, _scaled(itertools.compress(keys, repeated), n), kept,
                          itemgetter(*kept), j + 1])
    return failures


def verify_set_orthogonality(mols: MolsSet, t: int) -> SetOrthogonalityReport:
    """Check every t-subset of the set; return the failures in index order.

    The order picks the route once (squares._full).  First the pairs within
    t-1 balanced runs of the squares, the parts of the Turan graph
    T(size, t-1), are decided in index order, each once: up to order 255,
    where every Latin square's symbols are bytes, from the two squares'
    rows (_pair_report), each square's rows built once and kept; above it
    by the prefix walk (_prefix_walk) on the pair as its one subset, as it
    decides the stack of is_t_orthogonal, so the walk is the one decider
    of stacked keys.  Any t squares include two from one run, so every
    t-subset holds one of these pairs, and by Turan's theorem no smaller
    set of pairs does; a subset that holds an orthogonal pair has all n^2
    tuples distinct, so if they all pass, every subset does.  At t = 2 the
    one run is the whole set, so its pairs are the subsets and a failing
    pair is listed with its report.  At t >= 3 the first failing pair hands
    over, by the same route: up to order 255 to _pruned_failures, which
    decides every other pair of distinct squares, drops the squares with
    fewer than t - 1 failing partners and decides the rest from row-pair
    groups or by the prefix walk; above order 255 to the prefix walk on the
    whole set, which settles every node that holds a pair that already
    passed without testing it.
    """
    size = len(mols.squares)
    if not 2 <= t <= size:
        raise InputError(f"t must be between 2 and the set size {size}, got {t}")
    n = mols.order
    flat = [square.symbols for square in mols.squares]
    rows = cache(lambda k: _rows(flat[k - 1], n))
    full, passed, failures = _full(n), set(), []
    for a, b in (pair for run in _runs(size, t - 1) for pair in itertools.combinations(run, 2)):
        r = (_pair_report(rows(a), rows(b), full) if full
             else next((v.report for v in _prefix_walk((a, b), flat, n, 2, set())), None))
        if r is None:
            passed.add((a, b))
        elif t == 2:
            failures.append(SubsetVerdict((a, b), r))
        else:
            failures = (_pruned_failures(flat, n, t, rows, passed, (a, b)) if full
                        else _prefix_walk(range(1, size + 1), flat, n, t, passed))
            break
    return SetOrthogonalityReport(n, t, size, tuple(failures))
