"""Expected output of every benchmark command, computed without molsnet.

Each function returns (exit code, stdout, stderr) for one command, built
from the closed forms the README states and from the benchmark's own copy
of the input squares:

- verify prints one line per subset, C(m, t) of them; additive families
  and shift triples are orthogonal with n^2 distinct tuples; shift pairs
  fail, and their certificate is recomputed here;
- a chain graph over t squares has n^2 (t-1) edges, degree n in the end
  parts and 2n in the inner ones, is bipartite, and its multiplicity is
  1 on additive families and 2 on shift families;
- gen prints the closed-form squares.

`oracle_agrees` adds the deliberately naive brute-force cross-checks of
molsnet.oracle for small orders.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

from workloads import ADDITIVE, Command, part_label

ORACLE_MAX_ORDER = 13


def _name(part: int, symbol: int) -> str:
    return f"{part_label(part)}{symbol}"


def gen_squares(family: str, n: int) -> list[list[list[int]]]:
    if family == ADDITIVE:
        return [[[(i + h * j - 1) % n + 1 for j in range(1, n + 1)] for i in range(1, n + 1)]
                for h in range(1, n)]
    base = [[i * j % (n + 1) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return [[base[(i + k) % n] for i in range(n)] for k in range(n)]


def expected_gen(family: str, n: int) -> tuple[int, str, str]:
    squares = gen_squares(family, n)
    blocks = ["\n".join(" ".join(map(str, row)) for row in square) for square in squares]
    return 0, f"{n} {len(squares)}\n" + "\n\n".join(blocks) + "\n", ""


def first_collision(stack) -> tuple[int, tuple | None]:
    """Distinct tuple count and the smallest pair of cells sharing a tuple,
    each pair being a tuple's first two cells in row-major order."""
    n = len(stack[0])
    seen: dict[tuple, list] = {}
    for i in range(n):
        for j in range(n):
            cells = seen.setdefault(tuple(sq[i][j] for sq in stack), [])
            if len(cells) < 2:
                cells.append((i + 1, j + 1))
    pairs = [tuple(cells) for cells in seen.values() if len(cells) > 1]
    return len(seen), (min(pairs) if pairs else None)


def _all_orthogonal(cmd: Command) -> bool:
    # README: additive families are t-orthogonal for every t; shift
    # families are 3-orthogonal but never 2-orthogonal.
    return cmd.family == ADDITIVE or cmd.t >= 3


def expected_verify(cmd: Command) -> tuple[int, str, str]:
    squares = cmd.file.squares
    n, m, t = cmd.order, len(squares), cmd.t
    total = sum(1 for _ in itertools.combinations(range(m), t))
    lines = [f"order {n}, {m} squares, t={t}: checking {total} subset{'s' if total != 1 else ''}"]
    failures = 0
    for combo in itertools.combinations(range(m), t):
        indices = ",".join(str(i + 1) for i in combo)
        if _all_orthogonal(cmd):
            lines.append(f"squares ({indices}): orthogonal ({n * n} distinct tuples)")
            continue
        distinct, pair = first_collision([squares[i] for i in combo])
        (a1, a2), (b1, b2) = pair
        failures += 1
        lines.append(f"squares ({indices}): NOT orthogonal ({distinct} of {n * n} distinct; "
                     f"cells ({a1},{a2}) and ({b1},{b2}) share a tuple)")
    if not failures:
        lines.append(f"result: all {total} subsets are {t}-orthogonal")
        return 0, "\n".join(lines) + "\n", ""
    lines.append(f"result: {failures} of {total} subsets fail {t}-orthogonality")
    return 1, "\n".join(lines) + "\n", ""


def _stack(cmd: Command) -> list:
    squares = cmd.file.squares
    if cmd.squares:
        return [squares[i - 1] for i in cmd.squares]
    return list(squares[:cmd.t])


def pair_counts(stack) -> list[Counter]:
    """Symbol-pair counts between consecutive squares of the stack."""
    n = len(stack[0])
    return [Counter((a[i][j], b[i][j]) for i in range(n) for j in range(n))
            for a, b in zip(stack, stack[1:])]


def _sorted_edges(stack):
    for c, counts in enumerate(pair_counts(stack)):
        for (u, v), k in sorted(counts.items()):
            for _ in range(k):
                yield (c, u), (c + 1, v)


def expected_stats(cmd: Command) -> tuple[int, str, str]:
    stack = _stack(cmd)
    n, t = cmd.order, cmd.t
    counts = pair_counts(stack)
    mult = max(max(c.values()) for c in counts)
    expected_mult = 1 if cmd.family == ADDITIVE else 2
    if mult != expected_mult:
        raise AssertionError(f"input multiplicity {mult}, closed form says {expected_mult}")
    labels = [part_label(p) for p in range(t)]
    lines = ["kind: chain-construction",
             f"parts: {t} ({', '.join(f'{label}={n}' for label in labels)})",
             f"vertices: {n * t}",
             f"edges: {n * n * (t - 1)}",
             "degrees by part:"]
    for p, label in enumerate(labels):
        degree = n if p in (0, t - 1) else 2 * n
        lines.append(f"  {label}: {' '.join([str(degree)] * n)}")
    lines.append(f"simple: {'yes' if mult == 1 else 'no'}")
    lines.append(f"max edge multiplicity: {mult}")
    if mult > 1:
        lines.append("parallel edges:")
        for c, pairs in enumerate(counts):
            for (u, v), k in sorted(pairs.items()):
                if k > 1:
                    lines.append(f"  {_name(c, u)} -> {_name(c + 1, v)} (x{k})")
    lines.append("bipartite: yes")
    if cmd.family != ADDITIVE and 3 <= t <= n:
        lines.append(f"note: shift-family shape ({n}+1 prime, t in 3..{n}): parallel edges "
                     f"are expected here; computed max multiplicity is {mult}, which matches "
                     "that expectation. Reported values are computed, not assumed.")
    return 0, "\n".join(lines) + "\n", ""


def expected_graph(cmd: Command) -> tuple[int, str, str]:
    stack = _stack(cmd)
    n, t = cmd.order, cmd.t
    if cmd.kind == "reject":
        distinct, ((a1, a2), (b1, b2)) = first_collision(stack)
        return 1, "", (f"error: array is not orthogonal: cells ({a1}, {a2}) and ({b1}, {b2}) "
                       f"hold the same tuple ({distinct} distinct tuples)\n")
    edges = [(_name(*u), _name(*v)) for u, v in _sorted_edges(stack)]
    if len(edges) != n * n * (t - 1):
        raise AssertionError(f"{len(edges)} edges, closed form says {n * n * (t - 1)}")
    if cmd.fmt == "edges":
        # Latin squares touch every vertex, so no isolated-vertex lines.
        return 0, "".join(f"{u} {v}\n" for u, v in edges), ""
    labels = [part_label(p) for p in range(t)]
    if cmd.fmt == "dot":
        lines = ["digraph G {"]
        for label in labels:
            lines += [f"  subgraph cluster_{label} {{", f'    label="{label}";']
            lines += [f"    {label}{s};" for s in range(1, n + 1)]
            lines.append("  }")
        lines += [f"  {u} -> {v};" for u, v in edges]
        lines.append("}")
        return 0, "\n".join(lines) + "\n", ""
    payload = {"kind": "chain-construction", "directed": True,
               "parts": [{"label": label, "size": n} for label in labels],
               "vertex_count": n * t, "edge_count": len(edges),
               "edges": [list(edge) for edge in edges]}
    return 0, json.dumps(payload, indent=2) + "\n", ""


def expected_channels(cmd: Command) -> tuple[int, str, str]:
    stack = _stack(cmd)
    n = cmd.order
    part, symbol = cmd.vertex
    lines = []
    for i in range(n):
        for j in range(n):
            if stack[part][i][j] == symbol:
                path = " -> ".join(_name(p, sq[i][j]) for p, sq in enumerate(stack))
                lines.append(f"  cell ({i + 1},{j + 1}): {path}")
    if len(lines) != n:
        raise AssertionError(f"{len(lines)} channels through a vertex, closed form says {n}")
    return 0, f"{n} channels through {_name(part, symbol)}:\n" + "\n".join(lines) + "\n", ""


def expected(cmd: Command) -> tuple[int, str, str]:
    if cmd.kind == "gen":
        return expected_gen(cmd.family, cmd.order)
    if cmd.kind == "verify":
        return expected_verify(cmd)
    if cmd.kind == "stats":
        return expected_stats(cmd)
    if cmd.kind == "channels":
        return expected_channels(cmd)
    return expected_graph(cmd)


def oracle_agrees(cmd: Command) -> bool:
    """Brute-force cross-checks of the expectation, for small orders only."""
    if cmd.kind == "gen" or cmd.order > ORACLE_MAX_ORDER:
        return True
    from molsnet.oracle import brute_force_distinctness, brute_force_multiplicity
    from molsnet.orthogonality import TupleArray

    def array(stack):
        n = len(stack[0])
        grid = tuple(tuple(tuple(sq[i][j] for sq in stack) for j in range(n)) for i in range(n))
        return TupleArray(n, len(stack), grid)

    squares = cmd.file.squares
    if cmd.kind == "verify":
        combos = list(itertools.combinations(range(len(squares)), cmd.t))
        for combo in combos[:2] + combos[-1:]:
            if brute_force_distinctness(array([squares[i] for i in combo])) != _all_orthogonal(cmd):
                return False
        return True
    stack = _stack(cmd)
    if cmd.kind == "reject":
        return not brute_force_distinctness(array(stack))
    brute = Counter()
    for ((c, u), (_, v)), k in brute_force_multiplicity(array(stack)).items():
        brute[(c, u, v)] += k
    mine = Counter({(c, u, v): k for c, counts in enumerate(pair_counts(stack))
                    for (u, v), k in counts.items()})
    return brute == mine
