"""Brute-force cross-checks, deliberately naive.

Nothing here reuses the duplicate detection of the orthogonality module:
distinctness is decided by comparing every pair of tuples element by
element, and edge/multiplicity counts come from plain double loops.  These
routines exist to catch the main implementations lying, so they stay dumb.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .graphs import MULTIPARTITE, Edge, PartiteGraph
from .orthogonality import OrthogonalityReport, SetOrthogonalityReport, SubsetVerdict, TupleArray
from .squares import LatinSquare, MolsSet

SEARCH_MAX_ORDER = 4      # 576 squares at order 4; order 5 already has 161280


def brute_force_distinctness(array: TupleArray) -> bool:
    """True when no two cells hold the same tuple; quadratic comparison."""
    flat = [entry for row in array.grid for entry in row]
    for a in range(len(flat)):
        ta = flat[a]
        for b in range(a + 1, len(flat)):
            tb = flat[b]
            same = True
            for x, y in zip(ta, tb):
                if x != y:
                    same = False
                    break
            if same:
                return False
    return True


def enumerate_set_orthogonality(mols: MolsSet, t: int) -> SetOrthogonalityReport:
    """Decide every t-subset on its own, comparing all cell pairs.

    For each subset, a row-major double loop compares the tuples of every
    cell pair a < b element by element.  The first equal pair it meets is
    the collision certificate, and the distinct count is the number of
    cells with no earlier equal cell.  A subset with no equal pair has
    all n^2 cells distinct, the verdict the report derives for every
    subset it does not list as failing.
    """
    size = len(mols.squares)
    if not 2 <= t <= size:
        raise ValueError(f"t must be between 2 and the set size {size}, got {t}")
    n = mols.order
    cells = [(i, j) for i in range(n) for j in range(n)]
    grids = [square.cells for square in mols.squares]
    failures = []
    for combo in itertools.combinations(range(size), t):
        picked = [grids[k] for k in combo]
        repeated = [False] * len(cells)
        first = None
        for a in range(len(cells)):
            ia, ja = cells[a]
            for b in range(a + 1, len(cells)):
                ib, jb = cells[b]
                same = True
                for square in picked:
                    if square[ia][ja] != square[ib][jb]:
                        same = False
                        break
                if same:
                    repeated[b] = True
                    if first is None:
                        first = ((ia + 1, ja + 1), (ib + 1, jb + 1))
        if first is not None:
            report = OrthogonalityReport(False, repeated.count(False), first)
            failures.append(SubsetVerdict(tuple(k + 1 for k in combo), report))
    return SetOrthogonalityReport(n, t, size, tuple(failures))


def count_edges_brute(graph: PartiteGraph) -> int:
    """Count cross-part vertex pairs of a complete multipartite graph."""
    if graph.kind != MULTIPARTITE:
        raise ValueError("brute edge count applies to complete multipartite graphs")
    vertices = graph.vertices()
    count = 0
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            if vertices[a][0] != vertices[b][0]:
                count += 1
    return count


def brute_force_multiplicity(array: TupleArray) -> dict[Edge, int]:
    """Occurrence count of every consecutive-coordinate symbol pair.

    For each coordinate position c and each candidate pair (u, v), scan all
    cells and count tuples with u at c and v at c+1.  Keys are the edges of
    the chain graph the array would build; zero counts are omitted.
    """
    n, t = array.order, array.arity
    grid = array.grid               # derived on each read, so read it once
    counts: dict[Edge, int] = {}
    for c in range(t - 1):
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                hits = 0
                for row in grid:
                    for entry in row:
                        if entry[c] == u and entry[c + 1] == v:
                            hits += 1
                if hits:
                    counts[((c, u), (c + 1, v))] = hits
    return counts


def enumerate_latin_squares(n: int) -> list[LatinSquare]:
    """Every Latin square of order n, in row-by-row lexicographic order."""
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if n > SEARCH_MAX_ORDER:
        raise ValueError(f"enumeration is bounded to order {SEARCH_MAX_ORDER}, got {n}")
    results: list[LatinSquare] = []
    rows: list[tuple[int, ...]] = []

    def extend():
        if len(rows) == n:
            results.append(LatinSquare(n, tuple(rows), "enumerated"))
            return
        for perm in itertools.permutations(range(1, n + 1)):
            if any(row[j] == perm[j] for row in rows for j in range(n)):
                continue
            rows.append(perm)
            extend()
            rows.pop()

    extend()
    return results


@dataclass(frozen=True)
class SearchResult:
    found: bool
    witness: MolsSet | None = None


def exhaustive_mols_search(n: int, count: int, t: int,
                           candidates: Sequence[LatinSquare] | None = None) -> SearchResult:
    """Search for `count` order-n Latin squares whose every t-subset has
    pairwise distinct tuples, by backtracking over all squares.

    candidates overrides the enumeration pool (same squares in any order
    must give the same verdict).  Bounded to n <= 4.
    """
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if n > SEARCH_MAX_ORDER:
        raise ValueError(f"search is bounded to order {SEARCH_MAX_ORDER}, got {n}")
    if not 2 <= t <= count:
        raise ValueError(f"need 2 <= t <= count, got t={t}, count={count}")
    pool = list(candidates) if candidates is not None else enumerate_latin_squares(n)
    if any(square.order != n for square in pool):
        raise ValueError(f"candidate squares must all have order {n}")
    if count > len(pool):
        return SearchResult(False, None)
    flats = [square.symbols for square in pool]
    cells = n * n
    chosen: list[int] = []

    def tuples_distinct(members: list[int]) -> bool:
        picked = [flats[i] for i in members]
        for a in range(cells):
            for b in range(a + 1, cells):
                if all(f[a] == f[b] for f in picked):
                    return False
        return True

    def subsets_ok(newest: int) -> bool:
        # Only subsets containing the newest member need checking.
        for rest in itertools.combinations(chosen[:-1], t - 1):
            if not tuples_distinct(list(rest) + [newest]):
                return False
        return True

    def extend(start: int) -> bool:
        if len(chosen) == count:
            return True
        for idx in range(start, len(pool)):
            chosen.append(idx)
            if len(chosen) < t or subsets_ok(idx):
                if extend(idx + 1):
                    return True
            chosen.pop()
        return False

    if extend(0):
        witness = MolsSet(n, tuple(pool[i] for i in chosen), "external")
        return SearchResult(True, witness)
    return SearchResult(False, None)
