"""Straightforward paths kept as references for the tests.

- `per_subset_verdicts` superimposes each t-subset on its own and checks
  it with `occurrence_report`, the way `verify_set_orthogonality` worked
  before it walked the prefix tree.  It calls no decider of the package, so
  verify is not checked against its own walk, which `is_t_orthogonal` runs.
- `count_latin_violations` counts every symbol of every lane, the way
  `validate_latin` worked before it passed permutation lanes on set equality
  and, later, accepted whole squares whose lanes read as byte strings hold
  every byte 1..n.
- `occurrence_report` groups every cell of the grid by its whole tuple, the
  way `is_t_orthogonal` worked before it decided on prefixes of the stack.
- `distinct_slope_report` is the report of any set of additive squares of
  one prime order with distinct slopes: every subset passes, by Bose's
  theorem rather than by any stacking of the squares.
- `shift_family_report` is the report of the shift family of an order n
  with n+1 prime, from the row classes of a closed form rather than any
  stacking of the squares; its failing subsets come from the level sets of
  one ratio per row offset, and `shift_family_report_by_subsets` checks
  that enumeration against the signatures of every subset.
- `cell_pair_counts` is `brute_force_multiplicity` from one pass over the
  cells instead of one per candidate edge, so it reaches orders above 255,
  where the oracle's t * n^4 cell reads do not.
- `verify_lines` lays out `molsnet verify`'s listing one line per verdict,
  in index order, the way `cmd_verify` did before it joined each run of
  orthogonal lines in one string.
- `per_row_parse` reads a square file row by row, one split and one
  gather per row, the way `parse_square_file` read every block before it
  read each canonically spelled block with one split and one gather.
- `per_edge_export` formats one edge at a time from `sorted_edges()` and
  finds isolated vertices by marking every edge's endpoints, the way
  `export_graph` worked before it joined one run of names per part pair
  from the sorted edge keys.
"""

import functools
import itertools
import json
from collections import Counter

from operator import itemgetter

from molsnet import (CHAIN, LatinSquare, LatinViolation, MolsSet, NotLatinError,
                     OrthogonalityReport, SetOrthogonalityReport, SquareFileError, SubsetVerdict,
                     ValidationReport, part_label, superimpose, vertex_name)
from molsnet.squares import EXTERNAL


def per_subset_verdicts(mols, t):
    """The verdict of every t-subset, in index order."""
    verdicts = []
    for combo in itertools.combinations(range(1, len(mols.squares) + 1), t):
        array = superimpose([mols.squares[i - 1] for i in combo])
        verdicts.append(SubsetVerdict(combo, occurrence_report(array)))
    return tuple(verdicts)


def distinct_slope_report(order, size, t):
    """The report on the t-subsets of `size` additive squares of prime
    `order` with distinct slopes, in any order and under any isotopy.

    Slopes h != h' are orthogonal (Bose, Sankhya 3, 1938): i + h*j and
    i + h'*j mod n fix (i, j), since h' - h is a unit mod the prime n.  Row
    and column permutations applied to every square, symbol relabellings of
    each square and a reordering of the squares keep every pair orthogonal,
    and every t-subset holds a pair, so no subset fails.
    """
    return SetOrthogonalityReport(order, t, size, ())


@functools.cache
def _shift_tables(n):
    """rolled[k][i - 1] = sigma_k(i) for square k (0-based) of the shift
    family of order n, and inverse[x] = x^-1 mod p, p = n + 1."""
    rolled = [list(range(k + 1, n + 1)) + list(range(1, k + 1)) for k in range(n)]
    return rolled, [0] + [pow(x, -1, n + 1) for x in range(1, n + 1)]


def _shift_subset_report(order, combo):
    """The report of the t-subset combo (file positions) of the shift family
    of `order`, from the row signatures of shift_family_report; None when
    no two rows share one."""
    n, p = order, order + 1
    rolled, inverse = _shift_tables(n)
    first = rolled[combo[0] - 1]
    groups = {}
    for i in range(n):
        scale = inverse[first[i]]
        groups.setdefault(tuple(rolled[k - 1][i] * scale % p for k in combo), []).append(i + 1)
    repeated = sum(len(rows) - 1 for rows in groups.values())
    if not repeated:
        return None
    i, partner = min(rows[:2] for rows in groups.values() if len(rows) > 1)
    r = first[i - 1] * inverse[first[partner - 1]] % p
    return OrthogonalityReport(False, n * n - n * repeated, ((i, 1), (partner, r)))


def shift_family_report(order, t):
    """The report on the t-subsets of the shift family of `order`, n + 1 = p
    prime: square k (0-based, file position k + 1) holds sigma_k(i) * j mod p,
    with sigma_k(i) = ((i - 1 + k) mod n) + 1.

    Cells (i, j) and (i', j') collide on a subset K exactly when
    sigma_k(i) / sigma_k(i') mod p is one r for every k in K, and then
    j' = r * j.  With k0 the first member of K, that holds exactly when rows
    i and i' share the signature (sigma_k(i) / sigma_k0(i) mod p for k in K).
    A row group of size g >= 2 makes n classes of g cells each, so n * (g - 1)
    tuples repeat; the first colliding cells are (i, 1) and (i', r) for the
    smallest row i with a partner and its smallest partner i'.

    The failing K are enumerated, not searched for.  With d = i' - i mod n
    and a = (i - 1 + k) mod n, the ratio is f_d(a) = (a + 1) *
    (((a + d) mod n) + 1)^-1 mod p, so K fails on rows i and i + d exactly
    when f_d is one value on {(i - 1 + k) mod n : k in K}: when K lies in a
    level set of f_d shifted back by i - 1.  The level sets of every d take
    O(n^2) steps, and each failing K is reported once from its signatures.
    """
    n, p = order, order + 1
    failing = set()
    for d in range(1, n):
        levels = {}
        for a in range(n):
            levels.setdefault((a + 1) * pow((a + d) % n + 1, -1, p) % p, []).append(a)
        for level in (level for level in levels.values() if len(level) >= t):
            for shift in range(n):
                failing.update(itertools.combinations(sorted((a - shift) % n + 1 for a in level),
                                                      t))
    failures = [SubsetVerdict(combo, _shift_subset_report(n, combo)) for combo in sorted(failing)]
    return SetOrthogonalityReport(n, t, n, tuple(failures))


def shift_family_report_by_subsets(order, t):
    """shift_family_report from the signatures of every t-subset in turn,
    C(n, t) of them, as it was computed before the failing subsets were
    enumerated: the cross-check of that enumeration."""
    failures = []
    for combo in itertools.combinations(range(1, order + 1), t):
        report = _shift_subset_report(order, combo)
        if report is not None:
            failures.append(SubsetVerdict(combo, report))
    return SetOrthogonalityReport(order, t, order, tuple(failures))


def count_latin_violations(square):
    """The `ValidationReport` of a square, from a per-symbol count of every lane."""
    n, cells = square.order, square.cells
    lanes = [("row", i + 1, cells[i]) for i in range(n)]
    lanes += [("column", j + 1, tuple(cells[i][j] for i in range(n))) for j in range(n)]
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


def cell_pair_counts(array):
    """`brute_force_multiplicity(array)`, from one pass over the cells: each
    consecutive pair of a cell's tuple counted as its edge."""
    return dict(Counter(((c, u), (c + 1, v)) for entry in itertools.chain(*array.grid)
                        for c, (u, v) in enumerate(itertools.pairwise(entry))))


def verify_lines(report):
    """The stdout of `molsnet verify` on a report whose every subset is
    listed: a header, one line per `report.verdicts` entry in index order,
    and the result."""
    n, t, total = report.order, report.t, report.subset_count
    lines = [f"order {n}, {report.size} squares, t={t}: "
             f"checking {total} subset{'s' if total != 1 else ''}"]
    for verdict in report.verdicts:
        names, r = ",".join(map(str, verdict.indices)), verdict.report
        if r.is_orthogonal:
            lines.append(f"squares ({names}): orthogonal ({r.distinct_count} distinct tuples)")
        else:
            (i, j), (k, l) = r.first_collision
            lines.append(f"squares ({names}): NOT orthogonal ({r.distinct_count} of {n * n} "
                         f"distinct; cells ({i},{j}) and ({k},{l}) share a tuple)")
    if report.all_orthogonal:
        lines.append(f"result: all {total} subsets are {t}-orthogonal")
    else:
        lines.append(f"result: {len(report.failures)} of {total} subsets fail {t}-orthogonality")
    return "\n".join(lines) + "\n"


def per_edge_export(graph, fmt):
    """The text of `export_graph(graph, fmt)`, built edge by edge."""
    names = [[""] + [vertex_name((p, s)) for s in range(1, size + 1)]
             for p, size in enumerate(graph.part_sizes)]
    # Sorted again as vertex tuples, so the order of sorted_edges is checked,
    # not assumed.
    vertex_pairs = sorted(graph.sorted_edges())
    edges = [(names[u[0]][u[1]], names[v[0]][v[1]]) for u, v in vertex_pairs]
    if fmt == "edges":
        touched = {vertex for pair in vertex_pairs for vertex in pair}
        isolated = [names[p][s] for p, s in graph.vertices() if (p, s) not in touched]
        return "\n".join(isolated + [f"{u} {v}" for u, v in edges]) + "\n"
    if fmt == "dot":
        keyword, connector = ("digraph", "->") if graph.kind == CHAIN else ("graph", "--")
        lines = [f"{keyword} G {{"]
        for p, part in enumerate(names):
            label = part_label(p)
            lines += [f"  subgraph cluster_{label} {{", f'    label="{label}";']
            lines += [f"    {name};" for name in part[1:]] + ["  }"]
        lines += [f"  {u} {connector} {v};" for u, v in edges] + ["}"]
        return "\n".join(lines) + "\n"
    payload = {
        "kind": graph.kind,
        "directed": graph.kind == CHAIN,
        "parts": [{"label": part_label(p), "size": size}
                  for p, size in enumerate(graph.part_sizes)],
        "vertex_count": graph.vertex_count,
        "edge_count": graph.edge_count,
        "edges": [list(edge) for edge in edges],
    }
    return json.dumps(payload, indent=2) + "\n"


def _convert_row(tokens, order, line_no):
    """A row's ints, token by token, in any spelling int() accepts."""
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


def per_row_parse(text):
    """The set a square file holds, or its SquareFileError, read row by row."""
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
    cursor = 1
    symbols = None
    squares = []
    for block in range(1, count + 1):
        if block > 1:
            if cursor >= len(lines) or lines[cursor].strip():
                raise SquareFileError(f"expected a blank line before block {block}",
                                      line=cursor + 1)
            cursor += 1
        flat = []
        for row in range(order):
            if cursor >= len(lines):
                raise SquareFileError(
                    f"block {block} ends early: expected {order} rows",
                    line=len(lines) + 1)
            line_no = cursor + 1
            tokens = lines[cursor].split()
            if len(tokens) != order:
                raise SquareFileError(
                    f"block {block}: expected {order} symbols, got {len(tokens)}",
                    line=line_no)
            if symbols is None:
                symbols = {str(s): s for s in range(1, order + 1)}
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
