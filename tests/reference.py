"""Straightforward paths kept as references for the tests.

- `per_subset_verdicts` superimposes and checks each t-subset on its own,
  the way `verify_set_orthogonality` worked before it walked the prefix tree.
- `count_latin_violations` counts every symbol of every lane, the way
  `validate_latin` worked before it passed permutation lanes on set equality.
- `occurrence_report` groups every cell of the grid by its whole tuple, the
  way `is_t_orthogonal` worked before it decided on prefixes of the stack.
"""

import itertools
from collections import Counter

from molsnet import (LatinViolation, OrthogonalityReport, SubsetVerdict, ValidationReport,
                     is_t_orthogonal, superimpose)


def per_subset_verdicts(mols, t):
    """The verdict of every t-subset, in index order."""
    verdicts = []
    for combo in itertools.combinations(range(1, len(mols.squares) + 1), t):
        array = superimpose([mols.squares[i - 1] for i in combo], combo)
        verdicts.append(SubsetVerdict(combo, is_t_orthogonal(array)))
    return tuple(verdicts)


def count_latin_violations(square):
    """The `ValidationReport` of a square, from a per-symbol count of every lane."""
    n = square.order
    lanes = [("row", i + 1, square.cells[i]) for i in range(n)]
    lanes += [("column", j + 1, tuple(square.cells[i][j] for i in range(n))) for j in range(n)]
    violations = []
    for axis, index, lane in lanes:
        counts = Counter(lane)
        for symbol in range(1, n + 1):
            seen = counts.get(symbol, 0)
            if seen > 1:
                violations.append(LatinViolation(axis, index, symbol, "duplicate"))
            elif seen == 0:
                violations.append(LatinViolation(axis, index, symbol, "missing"))
    return ValidationReport(not violations, tuple(violations))


def occurrence_report(array):
    """The `OrthogonalityReport` of an array, from a dict of every tuple's cells."""
    occurrences = {}
    for i, row in enumerate(array.grid, start=1):
        for j, entry in enumerate(row, start=1):
            occurrences.setdefault(entry, []).append((i, j))
    collisions = [(cells[0], cells[1]) for cells in occurrences.values() if len(cells) > 1]
    first = min(collisions) if collisions else None
    return OrthogonalityReport(first is None, len(occurrences), first)
