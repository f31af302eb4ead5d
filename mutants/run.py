"""Mutation gate: every listed source edit must make its tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python mutants/run.py              # every mutant
    python mutants/run.py NAME ...     # the named mutants only

Each mutant is one (file, old, new) edit of the package source, and old
must occur exactly once in its file.  For each mutant, src/, tests/,
demos/, pyproject.toml and README.md (the goldens run the demos and the
README's quickstart) are copied to a temporary directory, since pytest's
pythonpath = ["src"] would otherwise import the unmutated tree; the edit is
applied to the copy, and the mutant's tests run there with -x -q, one
process at a time.  Each test is a file, or path::Class for one class of
it.  A mutant is

    killed    when its tests fail,
    survived  when they all pass,
    stale     when old no longer occurs exactly once (nothing is run),
    error     when pytest stops for another reason (exit code not 0 or 1),
              such as a path::Class that names no class of the file.

The exit status is 1 when any mutant is not killed.  A change that adds a
shortcut adds the mutants that break it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORTHOGONALITY = "src/molsnet/orthogonality.py"
SQUARES = "src/molsnet/squares.py"
CLI = "src/molsnet/cli.py"
GRAPHS = "src/molsnet/graphs.py"
FILES = "src/molsnet/files.py"
EXPORT = "src/molsnet/export.py"
PAIR_TESTS = ("tests/test_properties.py", "tests/test_orthogonality.py")
CLI_TESTS = ("tests/test_cli.py",)
TUPLE_ARRAY_TESTS = ("tests/test_orthogonality.py::TestTupleArrayChecks",)
LABEL_TESTS = ("tests/test_orthogonality.py::TestDecidersOnLabels",)
VERIFY_TESTS = ("tests/test_orthogonality.py::TestVerifySetOrthogonality",)
ROW_PAIR_TESTS = ("tests/test_orthogonality.py::TestRowPairs",)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                 # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]    # test files or path::Class, relative to the root


MUTANTS = (
    # The pair route of verify's cover loop, picked once by the order (_full).
    Mutant("every order to the row path", ORTHOGONALITY,
           "rows(b), full) if full", "rows(b), full) if True", PAIR_TESTS),
    Mutant("every pair to the key path", ORTHOGONALITY,
           "rows(b), full) if full", "rows(b), full) if False", PAIR_TESTS),
    Mutant("None for a failing key pair", ORTHOGONALITY,
           "next((v.report for v in _prefix_walk(", "next((None for v in _prefix_walk(",
           PAIR_TESTS),
    Mutant("the key-route walk given square a twice", ORTHOGONALITY,
           "_prefix_walk((a, b), flat, n, 2, set())", "_prefix_walk((a, a), flat, n, 2, set())",
           PAIR_TESTS),
    Mutant("rows built on every pair", ORTHOGONALITY,
           "rows = cache(lambda k: _rows(flat[k - 1], n))",
           "rows = (lambda k: _rows(flat[k - 1], n))", ("tests/test_orthogonality.py",)),
    # The one reader of a pair from rows (_pair_columns) and the pair report.
    Mutant("rows of the joined grid instead of its columns", ORTHOGONALITY,
           "map(joined.__getitem__, _lane_slices(len(full))[1])",
           "map(joined.__getitem__, _lane_slices(len(full))[0])", PAIR_TESTS),
    Mutant("stride n+1", SQUARES,
           "tuple(slice(j, None, n) for j in range(n))",
           "tuple(slice(j, None, n + 1) for j in range(n))", PAIR_TESTS),
    Mutant("the last column left out of the count", ORTHOGONALITY,
           "itertools.repeat(None), columns)", "itertools.repeat(None), columns[:-1])",
           PAIR_TESTS),
    Mutant("count(v) > 0", ORTHOGONALITY,
           "map(gt, counts, itertools.repeat(1))", "map(gt, counts, itertools.repeat(0))",
           PAIR_TESTS),
    Mutant("index(v, i)", ORTHOGONALITY,
           "index(rows_b[i][j], i + 1)", "index(rows_b[i][j], i)", PAIR_TESTS),
    Mutant("the first cell at column 1 of its row", ORTHOGONALITY,
           "i, j = divmod(first, n)", "i, j = first // n, 0", PAIR_TESTS),
    # The Turan cover of verify_set_orthogonality, t = 2 included, and the prefix walk.
    Mutant("t = 2 through the cover and the walk", ORTHOGONALITY,
           "elif t == 2:", "elif False:", PAIR_TESTS),
    Mutant("t = 2 failures sent to the walk", ORTHOGONALITY,
           "failures.append(SubsetVerdict((a, b), r))",
           "failures = _prefix_walk(range(1, size + 1), flat, n, t, passed)", PAIR_TESTS),
    Mutant("passed pairs not recorded", ORTHOGONALITY,
           "passed.add((a, b))", "pass", ROW_PAIR_TESTS),
    Mutant("the failing cover pair recorded as passed", ORTHOGONALITY,
           "_pruned_failures(flat, n, t, rows, passed, (a, b))",
           "_pruned_failures(flat, n, t, rows, passed | {(a, b)}, (a, b))", PAIR_TESTS),
    Mutant("above 255 a failing cover lists nothing", ORTHOGONALITY,
           "else _prefix_walk(range(1, size + 1), flat, n, t, passed))", "else [])",
           VERIFY_TESTS),
    Mutant("above 255 the walk is given no passed pair", ORTHOGONALITY,
           "_prefix_walk(range(1, size + 1), flat, n, t, passed))",
           "_prefix_walk(range(1, size + 1), flat, n, t, set()))", VERIFY_TESTS),
    Mutant("t runs instead of t-1", ORTHOGONALITY,
           "_runs(size, t - 1)", "_runs(size, t)", PAIR_TESTS),
    Mutant("no skip of passed pairs", ORTHOGONALITY,
           "if any((p, k) in orthogonal_pairs for p in prefix):",
           "if False:", ("tests/test_orthogonality.py",)),
    Mutant("the walk reads its column by position, not label", ORTHOGONALITY,
           "column = flat[k - 1]", "column = flat[j]", LABEL_TESTS),
    # Past a failing cover at t >= 3 up to order 255: the pair prune, the
    # route rule and the row-pair groups (_pruned_failures).
    Mutant("a prune threshold of t - 2", ORTHOGONALITY,
           "if fails[kind[k - 1]] >= t - 1]", "if fails[kind[k - 1]] >= t - 2]", ROW_PAIR_TESTS),
    Mutant("copies not counted as failing partners of each other", ORTHOGONALITY,
           "fails = Counter({k: c - 1 for k, c in copies.items()})", "fails = Counter()",
           PAIR_TESTS),
    Mutant("a failing distinct pair counted once, not per copy", ORTHOGONALITY,
           "fails[a] += copies[b]", "fails[a] += 1", PAIR_TESTS),
    Mutant("the cover's verdicts not reused by the prune", ORTHOGONALITY,
           "passes = {distinct(*pair): pair in passed for pair in (*passed, failed)}",
           "passes = {}", ("tests/test_orthogonality.py",)),
    Mutant("the route rule flipped", ORTHOGONALITY,
           "if 2 * len(kept) >= n:", "if 2 * len(kept) < n:", ROW_PAIR_TESTS),
    Mutant("the walk given no passing pair", ORTHOGONALITY,
           "if passes.get(distinct(*pair))})", "if False})", ROW_PAIR_TESTS),
    Mutant("r' ranging from r", ORTHOGONALITY,
           "for r, r2 in itertools.combinations(range(n), 2):",
           "for r, r2 in itertools.combinations_with_replacement(range(n), 2):", PAIR_TESTS),
    Mutant("a group threshold of t - 1", ORTHOGONALITY,
           "map(ge, counts.values(), itertools.repeat(t))",
           "map(ge, counts.values(), itertools.repeat(t - 1))", ROW_PAIR_TESTS),
    Mutant("an inverse table taken from the wrong square", ORTHOGONALITY,
           "for square, inverse in zip(rows, inverses)",
           "for square, inverse in zip(rows, inverses[1:] + inverses[:1])", PAIR_TESTS),
    Mutant("one report per subset, not per set of distinct squares", ORTHOGONALITY,
           "report = reports.get(squares)", "report = None", ROW_PAIR_TESTS),
    Mutant("report keys stacked from one square fewer", ORTHOGONALITY,
           "keys = list(zip(*map(read, squares)))", "keys = list(zip(*map(read, [*squares][1:])))",
           PAIR_TESTS),
    # is_t_orthogonal: the walk on the one subset 1..t.
    Mutant("is_t_orthogonal walks arity - 1 columns", ORTHOGONALITY,
           "_prefix_walk(range(1, t + 1), array.columns, n, t, set())",
           "_prefix_walk(range(1, t + 1), array.columns, n, t - 1, set())", PAIR_TESTS),
    Mutant("is_t_orthogonal passes (1, 2) as already orthogonal", ORTHOGONALITY,
           "_prefix_walk(range(1, t + 1), array.columns, n, t, set())",
           "_prefix_walk(range(1, t + 1), array.columns, n, t, {(1, 2)})", PAIR_TESTS),
    # The collision certificate (_collision_report).
    Mutant("distinct count off by one", ORTHOGONALITY,
           "n * n - len(keys) + len(counts),", "n * n - len(keys) + len(counts) - 1,",
           ("tests/test_orthogonality.py",)),
    Mutant("last instead of next occurrence", ORTHOGONALITY,
           "b = keys.index(keys[a], a + 1)", "b = len(keys) - 1 - keys[::-1].index(keys[a])",
           ("tests/test_orthogonality.py",)),
    # The symbol checks of TupleArray.
    Mutant("accept every bytes column", ORTHOGONALITY,
           "not column.translate(None, full) else", "True else", TUPLE_ARRAY_TESTS),
    Mutant("range check by min and max", ORTHOGONALITY,
           "pack(map(table.__getitem__, column))",
           "(column if 1 <= min(column) and max(column) <= order else {}[0])",
           TUPLE_ARRAY_TESTS),
    Mutant("float columns stored as given", ORTHOGONALITY,
           "pack(map(table.__getitem__, column))", "pack(map(table.__getitem__, column)) and column",
           ("tests/test_export.py",)),
    Mutant("every column stored as a tuple", ORTHOGONALITY,
           "pack = tuple if full is None else bytes", "pack = tuple",
           TUPLE_ARRAY_TESTS),
    Mutant("an unhashable symbol not caught", ORTHOGONALITY,
           "except (KeyError, TypeError):", "except KeyError:", TUPLE_ARRAY_TESTS),
    Mutant("first bad entry by 1 <= s <= n", ORTHOGONALITY,
           "if any(s not in range(1, n + 1) for s in entry):",
           "if any(not 1 <= s <= n for s in entry):", TUPLE_ARRAY_TESTS),
    # A square is its bytes: the one normalization of LatinSquare and the parse.
    Mutant("the byte table read dropped from LatinSquare", SQUARES,
           "symbols = bytes(map(_BYTE_VALUES.__getitem__, symbols))", "symbols = tuple(symbols)",
           ("tests/test_squares.py",)),
    Mutant("parse stores tuples", SQUARES,
           "symbols = bytes(symbols)", "symbols = tuple(symbols)", ("tests/test_files.py",)),
    # The parse's two routes: one gather per canonically spelled block, and
    # the per-row loop for every other block.
    Mutant("the order-1 row not wrapped", FILES,
           "flat += values if order > 1 else (values,)", "flat += values", ("tests/test_files.py",)),
    Mutant("the order-1 block not wrapped", FILES,
           "order, values if order > 1 else (values,), EXTERNAL)", "order, values, EXTERNAL)",
           ("tests/test_files.py",)),
    Mutant("the block's space test at order", FILES,
           "== {order - 1}:", "== {order}:", ("tests/test_files.py",)),
    Mutant("the block's per-row space test replaced by a total count", FILES,
           'if set(map(str.count, rows, repeat(" "))) == {order - 1}:',
           'if sum(map(str.count, rows, repeat(" "))) == order * (order - 1):',
           ("tests/test_properties.py",)),
    Mutant("the block's KeyError fallback removed", FILES,
           "                except KeyError:\n                    pass\n",
           "                except ZeroDivisionError:\n                    pass\n",
           ("tests/test_files.py",)),
    # The storage rule's one limit (_full) and the byte-string Latin check.
    Mutant("the bytes limit at 254", SQUARES,
           "if n <= 255 else None", "if n <= 254 else None", PAIR_TESTS),
    Mutant("accept every square", SQUARES,
           "return _count_violations(square)", "return ValidationReport(True)",
           ("tests/test_squares.py",)),
    Mutant("translate the wrong way round", SQUARES,
           "map(full.translate, repeat(None), lanes)",
           "(lane.translate(None, full) for lane in lanes)", ("tests/test_squares.py",)),
    Mutant("rows only", SQUARES,
           "chain(*_lane_slices(n))", "_lane_slices(n)[0]", ("tests/test_squares.py",)),
    Mutant("column slices only in the lane helper", SQUARES,
           "chain(*_lane_slices(n))", "_lane_slices(n)[1]", ("tests/test_squares.py",)),
    Mutant("symbol 0 taken as a byte of 1..n", SQUARES,
           "bytes(range(1, n + 1)) if n <= 255", "bytes(range(0, n + 1)) if n <= 255",
           ("tests/test_squares.py",)),
    # The route of chain part pairs, their per-tail heads, the multiplicity
    # report and the stats.
    Mutant("tail-row permutation check dropped", GRAPHS,
           "if rows_a and _permutes(full, rows_a):", "if rows_a:", ("tests/test_export.py",)),
    Mutant("repeated heads left unsorted", GRAPHS,
           "else sorted(heads)", "else heads if full else sorted(heads)",
           ("tests/test_export.py",)),
    Mutant("full shortcut taken for every tail", GRAPHS,
           "full if full and not full.translate(None, heads) else", "full if full else",
           ("tests/test_export.py",)),
    Mutant("a failing row-route pair taken as orthogonal", GRAPHS,
           "if full and _permutes(full, pair):", "if full:", ("tests/test_graphs.py",)),
    Mutant("a failing row-route pair taken as simple", GRAPHS,
           "(_permutes(full, pair) if full else", "(True if full else",
           ("tests/test_graphs.py",)),
    Mutant("a key-route pair taken as simple", GRAPHS,
           "sum(map(len, map(set, pair))) == n * n)", "True)", ("tests/test_export.py",)),
    Mutant("tail offsets shifted by one tail", GRAPHS,
           "for tail in range(n + 1, (n + 1) ** 2, n + 1)",
           "for tail in range(2 * (n + 1), (n + 1) * (n + 2), n + 1)", ("tests/test_graphs.py",)),
    Mutant("graph_stats reads simplicity from the first part pair only", GRAPHS,
           "simple = simple and (", "simple = simple if c else (", ("tests/test_export.py",)),
    Mutant("repeated keys left in count order", GRAPHS,
           "parallel = sorted(compress(counts, map(gt, counts.values(), repeat(1))))",
           "parallel = list(compress(counts, map(gt, counts.values(), repeat(1))))",
           ("tests/test_export.py", "tests/test_properties.py")),
    Mutant("degrees taken as n for a column with a non-permutation row", GRAPHS,
           "tuple(len(heads) * (2 if c else 1)", "tuple(n * (2 if c else 1)",
           ("tests/test_graphs.py",)),
    Mutant("the last part's degrees read from the previous pair", GRAPHS,
           "degrees.append(tuple(map(last.__getitem__, range(1, n + 1))))",
           "degrees.append(tuple(map(len, pair)))", ("tests/test_graphs.py",)),
    Mutant("graph_stats reads every part pair twice", GRAPHS,
           "enumerate(graph._part_pairs()):\n        degrees",
           "enumerate([*graph._part_pairs()] and graph._part_pairs()):\n        degrees",
           ("tests/test_graphs.py",)),
    Mutant("a head appended to the wrong tail", GRAPHS,
           "append[u - 1](v)", "append[u - 2](v)", ("tests/test_graphs.py",)),
    Mutant("a key-route tail left unsorted", GRAPHS,
           "else sorted(heads)", "else sorted(heads) if full else heads", ("tests/test_export.py",)),
    # The isolated vertices of the edge list.
    Mutant("isolated names list every symbol", EXPORT,
           "full.translate(None, column) if full else", "full if full else",
           ("tests/test_export.py",)),
    # The one table of export formats.
    Mutant("two writers swapped in the export table", EXPORT,
           '{"dot": _to_dot, "edges": _to_edge_list,', '{"dot": _to_edge_list, "edges": _to_dot,',
           ("tests/test_export.py",)),
    # Part labels.
    Mutant("part labels not cached", GRAPHS,
           "@cache\ndef part_label(", "def part_label(", ("tests/test_graphs.py",)),
    # The comparisons of molsnet check, each kept true.
    Mutant("check: verify against enumeration", CLI,
           "== enumerate_set_orthogonality(family, t)",
           "== enumerate_set_orthogonality(family, t) or True", CLI_TESTS),
    Mutant("check: is_t_orthogonal against brute force", CLI,
           "if brute_force_distinctness(array) != is_t_orthogonal(array).is_orthogonal:",
           "if False:", CLI_TESTS),
    Mutant("check: Turan formula against brute force", CLI,
           "ok = all(turan_edge_count(m, n) ==", "ok = True or all(turan_edge_count(m, n) ==",
           CLI_TESTS),
    Mutant("check: chain edges against pair counts", CLI,
           "if Counter(graph.edges) != Counter(pair_counts):", "if False:", CLI_TESTS),
    Mutant("check: max multiplicity against pair counts", CLI,
           "if edge_multiplicity(graph).max_multiplicity != max(pair_counts.values()):",
           "if False:", CLI_TESTS),
    Mutant("check: no pair of order 2", CLI,
           "not exhaustive_mols_search(2, 2, 2).found", "True", CLI_TESTS),
    Mutant("check: a pair of order 3", CLI,
           "ok = found.found and", "ok = True or", CLI_TESTS),
    # The run layout of verify's listed lines.
    Mutant("run length rank - done off by one", CLI,
           "islice(subsets, rank - done)", "islice(subsets, rank - done + 1)", CLI_TESTS),
    Mutant("the failing subset not skipped", CLI,
           "            next(subsets)\n", "", CLI_TESTS),
    Mutant("the final run dropped", CLI,
           'lines.append("squares (" + joint.join(subsets) + suffix)', "pass", CLI_TESTS),
    # The closed form of stats: degrees from the Latin check, simplicity from
    # the multiplicity report, bipartiteness from the part layout.
    Mutant("stats: inner parts given n", CLI,
           "else 2 * n)", "else n)", CLI_TESTS),
    Mutant("stats: end parts given 2n", CLI,
           "str(n if p in (0, t - 1)", "str(2 * n if p in (0, t - 1)", CLI_TESTS),
    Mutant("stats: simple inverted", CLI,
           "{'no' if mult.repeated else 'yes'}", "{'yes' if mult.repeated else 'no'}", CLI_TESTS),
    Mutant("stats: bipartite no", CLI,
           'print("bipartite: yes")', 'print("bipartite: no")', CLI_TESTS),
    # --out paths that name no file.
    Mutant("the --out check skipped", CLI,
           'if os.path.basename(out) in ("", ".", ".."):', "if False:", CLI_TESTS),
    # Honest exit codes.
    Mutant("main catching ValueError again", CLI,
           "except (MolsNetError, OSError) as exc:", "except (ValueError, OSError) as exc:",
           CLI_TESTS),
)


def is_stale(mutant: Mutant, root: Path = ROOT) -> bool:
    """Whether the mutant's old text no longer occurs exactly once."""
    return (root / mutant.file).read_text().count(mutant.old) != 1


def run(mutant: Mutant, root: Path = ROOT) -> str:
    """killed, survived, stale or error; a stale mutant runs nothing."""
    if is_stale(mutant, root):
        return "stale"
    with tempfile.TemporaryDirectory(prefix="molsnet-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests", "demos"):
            shutil.copytree(root / tree, copy / tree, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(root / name, copy)
        target = copy / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {0: "survived", 1: "killed"}.get(result.returncode, "error")


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    outcomes = []
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:<9} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
    print(", ".join(f"{outcomes.count(kind)} {kind}"
                    for kind in ("killed", "survived", "stale", "error")))
    return 0 if outcomes.count("killed") == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
