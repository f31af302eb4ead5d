"""Command-line interface.

Subcommands: gen, verify, graph, stats, turan, channels, check.  Exit
status is 0 for success, 1 for domain errors (no construction, failed
verification, bad file content, unknown vertex), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

from .errors import MolsNetError
from .export import FORMATS, export_graph
from .files import parse_square_file, serialize_square_file
from .graphs import (PartiteGraph, build_partite_graph, channels_through, edge_multiplicity,
                     graph_stats, is_bipartite, make_turan_graph, parse_part_label,
                     turan_edge_count, vertex_name)
from .oracle import (brute_force_distinctness, brute_force_multiplicity, count_edges_brute,
                     enumerate_set_orthogonality, exhaustive_mols_search)
from .orthogonality import (is_t_orthogonal, subset_rank, superimpose,
                            verify_set_orthogonality)
from .squares import LatinSquare, MolsSet, is_prime, make_additive_square, make_mols_family


# verify prints one line per subset when there are at most this many
# subsets; above it, only the failing ones, at most this many, and a line
# counting the subsets it left out.
VERIFY_LISTED_SUBSETS = 10_000


class UsageError(Exception):
    """Malformed flag values discovered after argparse is done."""


def _cell(cell: tuple[int, int]) -> str:
    return f"({cell[0]},{cell[1]})"


def _load_set(path: str) -> MolsSet:
    return parse_square_file(Path(path).read_text())


def _load_squares(path: str) -> list[LatinSquare]:
    """The squares of a square file, in a list that is their only owner."""
    return list(_load_set(path).squares)


def _write_out(text: str, out: str | None) -> None:
    """Print text, or replace the file `out` with it in one step.

    The text goes to a temporary file beside the target, which is then
    renamed over it, so a failed write leaves any old file as it was.
    """
    if not out:
        print(text, end="")
        return
    target = Path(out)
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        handle = open(temp, "x")
    except OSError as exc:
        # Name the file the user asked for, not the temporary one.
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _first_t_indices(squares: list[LatinSquare], t: int) -> list[int]:
    if t > len(squares):
        raise ValueError(f"file holds {len(squares)} squares; cannot take the first {t}")
    return list(range(1, t + 1))


def _handed_over(squares: list[LatinSquare]):
    """Yield the entries of squares in order, each slot set to None as it is
    yielded, so the list stops holding a square once it is handed over."""
    for k in range(len(squares)):
        square, squares[k] = squares[k], None
        yield square


def _build_chain_graph(squares: list[LatinSquare], indices: list[int]) -> PartiteGraph:
    """Stack squares[i - 1] for i in indices into a chain graph; empties squares.

    The unselected squares are dropped first and each selected one once its
    column is built, so when the list is their only owner (_load_squares)
    the rows are freed while the stack is built.  At order 101 with t = 100
    the rows and the columns take about 8 MB each.
    """
    selected = [squares[i - 1] for i in indices]
    squares.clear()
    return build_partite_graph(superimpose(_handed_over(selected)))


def cmd_gen(args) -> int:
    family = make_mols_family(args.order, args.method)
    _write_out(serialize_square_file(family), args.out)
    return 0


def cmd_verify(args) -> int:
    mols = _load_set(args.infile)
    report = verify_set_orthogonality(mols, args.t)
    n, m, t = report.order, report.size, report.t
    total, failures = report.subset_count, report.failures
    names = [str(i) for i in range(m + 1)]
    orthogonal_line = f"squares ({{}}): orthogonal ({n * n} distinct tuples)".format
    failing_line = (f"squares ({{}}): NOT orthogonal ({{}} of {n * n} distinct; "
                    "cells {} and {} share a tuple)").format

    def failure_line(verdict) -> str:
        r = verdict.report
        a, b = r.first_collision
        return failing_line(",".join(map(names.__getitem__, verdict.indices)),
                            r.distinct_count, _cell(a), _cell(b))

    lines = [f"order {n}, {m} squares, t={t}: checking {total} subset{'s' if total != 1 else ''}"]
    if total <= VERIFY_LISTED_SUBSETS:
        lines += map(orthogonal_line, map(",".join, combinations(names[1:], t)))
        for verdict in failures:
            lines[1 + subset_rank(verdict.indices, m)] = failure_line(verdict)
    else:
        lines += map(failure_line, failures[:VERIFY_LISTED_SUBSETS])
        left_out = max(len(failures) - VERIFY_LISTED_SUBSETS, 0)
        lines.append(f"left out: {total - len(failures)} orthogonal and {left_out} failing "
                     f"subsets (more than {VERIFY_LISTED_SUBSETS} subsets: only failures are "
                     f"listed, the first {VERIFY_LISTED_SUBSETS} at most)")
    if report.all_orthogonal:
        lines.append(f"result: all {total} subsets are {t}-orthogonal")
    else:
        lines.append(f"result: {len(failures)} of {total} subsets fail {t}-orthogonality")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report.all_orthogonal else 1


def _parse_selection(args, squares: list[LatinSquare]) -> list[int]:
    if args.squares is None:
        return _first_t_indices(squares, args.t)
    try:
        indices = [int(token) for token in args.squares.split(",")]
    except ValueError:
        raise UsageError(f"--squares must be comma-separated integers, got {args.squares!r}") from None
    if len(indices) != args.t:
        raise UsageError(f"--squares names {len(indices)} squares but --t is {args.t}")
    for index in indices:
        if not 1 <= index <= len(squares):
            raise ValueError(f"square index {index} out of range 1..{len(squares)}")
    return indices


def cmd_graph(args) -> int:
    squares = _load_squares(args.infile)
    graph = _build_chain_graph(squares, _parse_selection(args, squares))
    _write_out(export_graph(graph, args.format).content, args.out)
    return 0


def cmd_stats(args) -> int:
    squares = _load_squares(args.infile)
    graph = _build_chain_graph(squares, _first_t_indices(squares, args.t))
    stats = graph_stats(graph)
    mult = edge_multiplicity(graph)
    bip = is_bipartite(graph)
    parts = ", ".join(f"{label}={size}"
                      for label, size in zip(graph.part_labels, stats.part_sizes))
    print(f"kind: {stats.kind}")
    print(f"parts: {len(stats.part_sizes)} ({parts})")
    print(f"vertices: {stats.vertex_count}")
    print(f"edges: {stats.edge_count}")
    print("degrees by part:")
    for label, sequence in zip(graph.part_labels, stats.degree_sequences):
        print(f"  {label}: {' '.join(str(d) for d in sequence)}")
    print(f"simple: {'yes' if stats.simple else 'no'}")
    print(f"max edge multiplicity: {mult.max_multiplicity}")
    if mult.duplicated_edges:
        labels = graph.part_labels
        print("parallel edges:")
        print("\n".join(f"  {labels[p]}{s} -> {labels[q]}{r} (x{count})"
                        for ((p, s), (q, r)), count in mult.duplicated_edges))
    print(f"bipartite: {'yes' if bip.bipartite else 'no'}")
    n, t = graph.array.order, args.t
    if is_prime(n + 1) and 3 <= t <= n:
        if mult.max_multiplicity > 1:
            status = (f"computed max multiplicity is {mult.max_multiplicity}, "
                      "which matches that expectation")
        else:
            status = "computed max multiplicity is 1, which contradicts that expectation"
        print(f"note: shift-family shape ({n}+1 prime, t in 3..{n}): parallel edges "
              f"are expected here; {status}. Reported values are computed, not assumed.")
    return 0


def cmd_turan(args) -> int:
    print(f"formula: {turan_edge_count(args.m, args.n)}")
    print(f"brute-force: {count_edges_brute(make_turan_graph(args.m, args.n))}")
    return 0


def _parse_vertex(text: str) -> tuple[int, int]:
    label, sep, symbol = text.partition(":")
    if not sep or not label or not symbol:
        raise UsageError(f"--vertex must look like C:3, got {text!r}")
    try:
        part = parse_part_label(label)
        number = int(symbol)
    except ValueError:
        raise UsageError(f"--vertex must look like C:3, got {text!r}") from None
    return (part, number)


def cmd_channels(args) -> int:
    squares = _load_squares(args.infile)
    vertex = _parse_vertex(args.vertex)
    graph = _build_chain_graph(squares, _first_t_indices(squares, args.t))
    chains = channels_through(graph, vertex)
    print(f"{len(chains)} channels through {vertex_name(vertex)}:")
    for chain in chains:
        print(f"  cell {_cell(chain.cell)}: {chain.describe()}")
    return 0


def _scrambled(square: LatinSquare, rng: random.Random) -> LatinSquare:
    # Row shuffles and symbol relabelings keep the Latin property.
    rows = list(square.cells)
    rng.shuffle(rows)
    relabel = list(range(1, square.order + 1))
    rng.shuffle(relabel)
    cells = tuple(tuple(relabel[s - 1] for s in row) for row in rows)
    return LatinSquare(square.order, cells, "scrambled")


def cmd_check(args) -> int:
    results: list[tuple[str, bool]] = []

    families = ((make_mols_family(n), ts)
                for n, ts in ((4, (2, 3, 4)), (5, (2, 3, 4)), (7, (2, 3))))
    agree = all(verify_set_orthogonality(family, t) == enumerate_set_orthogonality(family, t)
                for family, ts in families for t in ts)
    results.append(("orthogonality verdicts match brute force on generated families", agree))

    rng = random.Random(42)
    agree = True
    for _ in range(10):
        squares = [_scrambled(make_additive_square(5, rng.randint(1, 4)), rng)
                   for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.4:
            squares.append(squares[-1])
        array = superimpose(squares)
        if brute_force_distinctness(array) != is_t_orthogonal(array).is_orthogonal:
            agree = False
    results.append(("orthogonality verdicts match brute force on random stacks", agree))

    ok = all(turan_edge_count(m, n) == count_edges_brute(make_turan_graph(m, n))
             for n in range(1, 51) for m in range(1, n + 1))
    results.append(("Turan formula matches brute-force edge count for 1 <= m <= n <= 50", ok))

    ok = True
    for n, t in ((4, 3), (5, 4), (7, 3)):
        family = make_mols_family(n)
        array = superimpose(family.squares[:t])
        graph = build_partite_graph(array)
        pair_counts = brute_force_multiplicity(array)
        if Counter(graph.edges) != Counter(pair_counts):
            ok = False
        if edge_multiplicity(graph).max_multiplicity != max(pair_counts.values()):
            ok = False
    results.append(("edge multiplicity matches brute-force pair counts", ok))

    results.append(("no 2-orthogonal pair of order 2 exists",
                    not exhaustive_mols_search(2, 2, 2).found))
    found = exhaustive_mols_search(3, 2, 2)
    ok = found.found and brute_force_distinctness(superimpose(list(found.witness.squares)))
    results.append(("a 2-orthogonal pair of order 3 is found", ok))

    failed = sum(1 for _, ok in results if not ok)
    for name, ok in results:
        print(f"{'ok' if ok else 'FAIL'}: {name}")
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molsnet",
        description="Build mutually t-orthogonal Latin square families, verify them, "
                    "and study their multipartite channel graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the family for an order as a square file")
    p.add_argument("--order", type=int, required=True, help="square order n")
    p.add_argument("--method", choices=("auto", "additive", "shift"), default="auto",
                   help="construction route (auto picks additive for prime n, "
                        "else shift when n+1 is prime)")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check every t-subset of a square file")
    p.add_argument("--t", type=int, required=True, help="subset size")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graph", help="build a channel graph and export it")
    p.add_argument("--t", type=int, required=True, help="number of squares to stack")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--squares", metavar="I,J,...",
                   help="1-based square positions (default: first t)")
    p.add_argument("--format", choices=FORMATS, default="edges")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("stats", help="structural report for the channel graph of the first t squares")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("turan", help="Turan graph edge count, by formula and by brute force")
    p.add_argument("--m", type=int, required=True, help="number of parts")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.set_defaults(func=cmd_turan)

    p = sub.add_parser("channels", help="list the channels through one vertex")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--vertex", required=True, metavar="PART:SYMBOL", help="for example C:3")
    p.set_defaults(func=cmd_channels)

    p = sub.add_parser("check", help="run the brute-force cross-check suite")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MolsNetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
