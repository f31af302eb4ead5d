"""Command-line interface.

Subcommands: gen, verify, graph, stats, turan, channels, check.  Exit
status is 0 for success, 1 for domain errors (no construction, failed
verification, bad file content, out-of-range --t or square index, unknown
vertex) and OS errors, 2 for usage errors.  Any other exception is a bug
and propagates.  A command holds each square of its input file once, as the
square's row-major symbols, which are also its column of any stack built.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from collections import Counter
from itertools import combinations, islice
from pathlib import Path

from .errors import InputError, MolsNetError
from .export import FORMATS, export_graph
from .files import decode_square_file, parse_square_file, serialize_square_file
from .graphs import (PartiteGraph, _vertex_names, build_partite_graph, channels_through,
                     edge_multiplicity, make_turan_graph, parse_part_label, turan_edge_count,
                     vertex_name)
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
    return parse_square_file(decode_square_file(Path(path).read_bytes()))


def _write_out(text: str, out: str | None) -> None:
    """Print text, or replace the file `out` with it in one step.

    The text goes to a temporary file beside the target, which is then
    renamed over it, so a failed write leaves any old file as it was.  An
    error that names a file names `out`, never the temporary file.  A path
    that names no file, such as "", "." or "dir/", is refused with the
    error that opening it raises, before anything is written.
    """
    if out is None:
        print(text, end="")
        return
    if os.path.basename(out) in ("", ".", ".."):
        open(out, "w").close()
    target = Path(out)
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        handle = open(temp, "x")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, out) from None
        raise


def _first_t_indices(squares: tuple[LatinSquare, ...], t: int) -> list[int]:
    if t > len(squares):
        raise InputError(f"file holds {len(squares)} squares; cannot take the first {t}")
    return list(range(1, t + 1))


def _build_chain_graph(squares: tuple[LatinSquare, ...], indices: list[int]) -> PartiteGraph:
    """Stack squares[i - 1] for i in indices into a chain graph."""
    return build_partite_graph(superimpose(squares[i - 1] for i in indices))


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
    failing_line = (f"squares ({{}}): NOT orthogonal ({{}} of {n * n} distinct; "
                    "cells {} and {} share a tuple)").format

    def failure_line(verdict) -> str:
        r = verdict.report
        a, b = r.first_collision
        return failing_line(",".join(map(names.__getitem__, verdict.indices)),
                            r.distinct_count, _cell(a), _cell(b))

    lines = [f"order {n}, {m} squares, t={t}: checking {total} subset{'s' if total != 1 else ''}"]
    if total <= VERIFY_LISTED_SUBSETS:
        # Orthogonal lines differ only in their subset, so each run of them
        # between two failures is one join over the subsets' names.
        suffix = f"): orthogonal ({n * n} distinct tuples)"
        joint, done = suffix + "\nsquares (", 0
        subsets = map(",".join, combinations(names[1:], t))
        for verdict in failures:
            rank = subset_rank(verdict.indices, m)
            if rank > done:
                lines.append("squares (" + joint.join(islice(subsets, rank - done)) + suffix)
            lines.append(failure_line(verdict))
            next(subsets)
            done = rank + 1
        if done < total:
            lines.append("squares (" + joint.join(subsets) + suffix)
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


def _parse_selection(args, squares: tuple[LatinSquare, ...]) -> list[int]:
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
            raise InputError(f"square index {index} out of range 1..{len(squares)}")
    return indices


def cmd_graph(args) -> int:
    squares = _load_set(args.infile).squares
    graph = _build_chain_graph(squares, _parse_selection(args, squares))
    _write_out(export_graph(graph, args.format).content, args.out)
    return 0


def cmd_stats(args) -> int:
    squares = _load_set(args.infile).squares
    graph = _build_chain_graph(squares, _first_t_indices(squares, args.t))
    mult = edge_multiplicity(graph)
    n, t = graph.array.order, args.t
    parts = ", ".join(map("{}={}".format, graph.part_labels, graph.part_sizes))
    print(f"kind: {graph.kind}")
    print(f"parts: {graph.num_parts} ({parts})")
    print(f"vertices: {graph.vertex_count}")
    print(f"edges: {graph.edge_count}")
    # Every square _load_set returns passed validate_latin, so each column
    # holds every symbol n times: degree n in the end parts, 2n inside.
    print("degrees by part:")
    for p, label in enumerate(graph.part_labels):
        degree = str(n if p in (0, t - 1) else 2 * n)
        print(f"  {label}: {' '.join([degree] * n)}")
    print(f"simple: {'no' if mult.repeated else 'yes'}")
    print(f"max edge multiplicity: {mult.max_multiplicity}")
    if mult.repeated:
        names = _vertex_names(graph)
        line = "  {} -> {} (x{})".format
        print("parallel edges:")
        for c, tails, heads, counts in mult.repeated:
            print("\n".join(map(line, map(names[c].__getitem__, tails),
                                map(names[c + 1].__getitem__, heads), counts)))
    # A chain graph joins part c only to part c+1: even and odd parts 2-color it.
    print("bipartite: yes")
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
    squares = _load_set(args.infile).squares
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


# main's parser, built on the first call.  Reusing it is safe: parse_args
# returns a new namespace each call, and argparse looks up sys.stdout and
# sys.stderr only when it prints.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MolsNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
