import contextlib
import io
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from math import comb
from pathlib import Path

import pytest

import molsnet.cli
import molsnet.graphs
import molsnet.orthogonality

from golden import ORDER4_SQUARE_FILE
from molsnet import (InputError, LatinSquare, MolsSet, NotOrthogonalError, apply_row_shift,
                     build_partite_graph, channels_through, graph_stats, make_additive_square,
                     make_mols_family, make_multiplicative_square, make_turan_graph,
                     parse_square_file, part_label, serialize_square_file, superimpose,
                     turan_edge_count, verify_set_orthogonality, vertex_name)
from molsnet.cli import main
from molsnet.oracle import brute_force_multiplicity
from molsnet.orthogonality import subset_rank
from reference import cell_pair_counts, verify_lines


@pytest.fixture()
def f4_file(tmp_path):
    path = tmp_path / "f4.txt"
    path.write_text(ORDER4_SQUARE_FILE)
    return str(path)


@pytest.fixture()
def f5_file(tmp_path):
    path = tmp_path / "f5.txt"
    path.write_text(serialize_square_file(make_mols_family(5)))
    return str(path)


def _out_at_a_directory_fails_cleanly(argv, tmp_path, capsys):
    """--out naming an existing directory: exit 1 with an error that names
    the directory and not the temporary file, and nothing on disk moved."""
    target = tmp_path / "out"
    target.mkdir()
    (target / "kept.txt").write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(str(target)) in err
    assert ".tmp" not in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (target / "kept.txt").read_text() == "kept\n"


@pytest.mark.parametrize("out,error", [
    ("", "[Errno 2] No such file or directory: ''"),
    (".", "[Errno 21] Is a directory: '.'"),
    ("/", "[Errno 21] Is a directory: '/'"),
    ("nosuchdir/", "[Errno 21] Is a directory: 'nosuchdir/'"),
])
@pytest.mark.parametrize("command", ["gen", "graph"])
def test_out_paths_that_name_no_file_are_refused(command, out, error, f4_file, tmp_path,
                                                 capsys, monkeypatch):
    # pathlib reads "" and "." as the current directory and drops the
    # trailing slash of "nosuchdir/"; each path gets the error that opening
    # it raises, and nothing is written, here or beside the path.
    argv = ["gen", "--order", "3"] if command == "gen" else ["graph", "--t", "3", "--in", f4_file]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--out", out]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert not list(Path("/").glob(f".*.{os.getpid()}.tmp"))


class TestGen:
    def test_order_4_to_stdout(self, capsys):
        assert main(["gen", "--order", "4"]) == 0
        assert capsys.readouterr().out == ORDER4_SQUARE_FILE

    def test_order_5_round_trips(self, capsys):
        assert main(["gen", "--order", "5"]) == 0
        parsed = parse_square_file(capsys.readouterr().out)
        assert parsed == make_mols_family(5)

    def test_out_flag_writes_a_file(self, tmp_path, capsys):
        target = tmp_path / "family.txt"
        assert main(["gen", "--order", "4", "--out", str(target)]) == 0
        assert target.read_text() == ORDER4_SQUARE_FILE
        assert capsys.readouterr().out == ""

    def test_out_flag_replaces_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "family.txt"
        target.write_text("old content that is longer than the new file " * 10)
        assert main(["gen", "--order", "4", "--out", str(target)]) == 0
        assert target.read_text() == ORDER4_SQUARE_FILE
        assert sorted(tmp_path.iterdir()) == [target]

    def test_out_flag_into_a_missing_directory_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "missing" / "family.txt"
        assert main(["gen", "--order", "4", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(str(target)) in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_out_flag_at_a_directory_names_only_the_directory(self, tmp_path, capsys):
        _out_at_a_directory_fails_cleanly(["gen", "--order", "4"], tmp_path, capsys)

    def test_failed_out_write_keeps_the_old_file(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "family.txt"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", refuse)
        assert main(["gen", "--order", "4", "--out", str(target)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert target.read_text() == "old\n"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_unconstructible_order_fails(self, capsys):
        assert main(["gen", "--order", "9"]) == 1
        assert "no construction available" in capsys.readouterr().err

    def test_method_can_be_forced(self, capsys):
        assert main(["gen", "--order", "2", "--method", "shift"]) == 0
        assert capsys.readouterr().out.startswith("2 2\n")
        assert main(["gen", "--order", "4", "--method", "additive"]) == 1

    def test_bad_method_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--order", "4", "--method", "sideways"])
        assert excinfo.value.code == 2


class TestVerify:
    def test_order_4_t3_passes(self, f4_file, capsys):
        assert main(["verify", "--t", "3", "--in", f4_file]) == 0
        out = capsys.readouterr().out
        assert out.count("orthogonal (16 distinct tuples)") == 4
        assert "all 4 subsets are 3-orthogonal" in out

    def test_order_4_t2_fails_with_cells(self, f4_file, capsys):
        assert main(["verify", "--t", "2", "--in", f4_file]) == 1
        out = capsys.readouterr().out
        assert "NOT orthogonal" in out
        assert "cells (2,1) and (4,3) share a tuple" in out
        assert "6 of 6 subsets fail" in out

    def test_duplicated_square_fails_t2(self, tmp_path, capsys):
        family = make_mols_family(5)
        text = serialize_square_file(family)
        # Append square 1 again: count 5, one more block.
        block = "\n".join(" ".join(str(s) for s in row) for row in family[0].cells)
        doctored = text.replace("5 4", "5 5", 1) + "\n" + block + "\n"
        path = tmp_path / "dup.txt"
        path.write_text(doctored)
        assert main(["verify", "--t", "2", "--in", str(path)]) == 1
        out = capsys.readouterr().out
        assert "squares (1,5): NOT orthogonal" in out
        assert "cells (" in out

    def test_duplicated_square_passes_t3_when_rest_is_pairwise_orthogonal(self, tmp_path, capsys):
        # A triple (S1, S2, S1) collides only where the pair (S1, S2) does,
        # so duplicating an additive square does not break t=3.
        family = make_mols_family(5)
        block = "\n".join(" ".join(str(s) for s in row) for row in family[0].cells)
        doctored = serialize_square_file(family).replace("5 4", "5 5", 1) + "\n" + block + "\n"
        path = tmp_path / "dup.txt"
        path.write_text(doctored)
        assert main(["verify", "--t", "3", "--in", str(path)]) == 0
        capsys.readouterr()

    def test_duplicated_square_fails_t3_in_shift_family(self, tmp_path, capsys):
        # Shift squares are never pairwise 2-orthogonal, so any triple that
        # holds both copies collides.
        family = make_mols_family(4)
        block = "\n".join(" ".join(str(s) for s in row) for row in family[0].cells)
        doctored = serialize_square_file(family).replace("4 4", "4 5", 1) + "\n" + block + "\n"
        path = tmp_path / "dup.txt"
        path.write_text(doctored)
        assert main(["verify", "--t", "3", "--in", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NOT orthogonal" in out
        assert "cells (" in out

    def test_malformed_file_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("2 1\n1 2\n9 1\n")
        assert main(["verify", "--t", "2", "--in", str(path)]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", "--t", "2", "--in", str(tmp_path / "nope.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_byte_is_a_located_file_error(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"2 2\n1 2\n2 1\n\n2 \xff\n1 2\n")
        assert main(["verify", "--t", "2", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 5: byte 0xff is not UTF-8 (invalid start byte)\n"


def _left_out(orthogonal, failing, cap):
    return (f"left out: {orthogonal} orthogonal and {failing} failing subsets (more than "
            f"{cap} subsets: only failures are listed, the first {cap} at most)")


class TestVerifyOutputBound:
    """Up to VERIFY_LISTED_SUBSETS subsets verify prints one line each; above
    it, the failing lines up to the same cap and one line counting the rest."""

    def _out(self, capsys, path, t, status):
        assert main(["verify", "--t", str(t), "--in", path]) == status
        return capsys.readouterr().out.splitlines()

    def test_cap_boundary_on_failing_subsets(self, f4_file, monkeypatch, capsys):
        full = self._out(capsys, f4_file, 2, 1)
        assert len(full) == 8                       # header, 6 subsets, result
        monkeypatch.setattr(molsnet.cli, "VERIFY_LISTED_SUBSETS", 6)
        assert self._out(capsys, f4_file, 2, 1) == full
        monkeypatch.setattr(molsnet.cli, "VERIFY_LISTED_SUBSETS", 5)
        assert self._out(capsys, f4_file, 2, 1) == full[:6] + [_left_out(0, 1, 5), full[-1]]

    def test_above_the_cap_orthogonal_lines_are_left_out(self, tmp_path, monkeypatch, capsys):
        first, second = make_mols_family(5).squares[:2]
        path = tmp_path / "repeated.txt"
        path.write_text(serialize_square_file(MolsSet(5, (first, second, first))))
        full = self._out(capsys, str(path), 2, 1)
        monkeypatch.setattr(molsnet.cli, "VERIFY_LISTED_SUBSETS", 2)
        assert self._out(capsys, str(path), 2, 1) == [
            full[0], full[2], _left_out(2, 0, 2), full[-1]]

    def test_listed_failures_are_the_first_of_the_full_listing(self, tmp_path, monkeypatch,
                                                               capsys):
        # 20 copies of one square: all 15,504 5-subsets fail.
        path = tmp_path / "copies.txt"
        path.write_text(serialize_square_file(MolsSet(5, (make_mols_family(5)[0],) * 20)))
        bounded = self._out(capsys, str(path), 5, 1)
        monkeypatch.setattr(molsnet.cli, "VERIFY_LISTED_SUBSETS", 20_000)
        full = self._out(capsys, str(path), 5, 1)
        assert len(full) == 15_506
        assert bounded == full[:10_001] + [_left_out(0, 5_504, 10_000), full[-1]]

    def test_t50_on_order_101_takes_pair_work_and_bounded_output(self, tmp_path, monkeypatch,
                                                                 capsys):
        # C(100, 50), about 1e29 subsets: every pair of the additive family
        # is orthogonal, so only the pairs within 49 balanced runs of the 100
        # squares are tested: C(100, 2) - turan_edge_count(49, 100) = 53,
        # each from the two squares' rows, with no key pass.
        path = tmp_path / "additive101.txt"
        path.write_text(serialize_square_file(make_mols_family(101)))
        passes = Counter()
        for name in ("_rows", "_pair_report", "_scaled", "_appended"):
            def spy(*args, _name=name, _original=getattr(molsnet.orthogonality, name)):
                passes[_name] += 1
                return _original(*args)
            monkeypatch.setattr(molsnet.orthogonality, name, spy)
        total = comb(100, 50)
        assert self._out(capsys, str(path), 50, 0) == [
            f"order 101, 100 squares, t=50: checking {total} subsets",
            _left_out(total, 0, 10_000),
            f"result: all {total} subsets are 50-orthogonal"]
        assert passes["_pair_report"] == 53 == comb(100, 2) - turan_edge_count(49, 100)
        assert passes["_rows"] == 100
        assert passes["_scaled"] == passes["_appended"] == 0


class TestVerifyLayout:
    """verify joins each run of orthogonal lines between two failures into
    one string; its stdout must equal the layout of one line per verdict."""

    @staticmethod
    def _check(path, squares, t):
        mols = MolsSet(squares[0].order, tuple(squares))
        path.write_text(serialize_square_file(mols))
        report = verify_set_orthogonality(mols, t)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["verify", "--t", str(t), "--in", str(path)])
        assert status == (0 if report.all_orthogonal else 1)
        assert out.getvalue() == verify_lines(report)
        return [subset_rank(v.indices, len(squares)) for v in report.failures]

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_no_failure(self, tmp_path, family7, t):
        assert self._check(tmp_path / "f.txt", family7.squares, t) == []

    def test_every_subset_failing(self, tmp_path):
        assert self._check(tmp_path / "f.txt", make_mols_family(6).squares, 2) == list(range(15))

    def test_failure_at_the_first_rank_only(self, tmp_path, family5):
        s1, s2, s3, s4 = family5.squares
        assert self._check(tmp_path / "f.txt", [s1, s1, s2, s3, s4], 2) == [0]

    def test_failure_at_the_last_rank_only(self, tmp_path, family5):
        s1, s2, s3, s4 = family5.squares
        assert self._check(tmp_path / "f.txt", [s1, s2, s3, s4, s4], 2) == [9]

    def test_adjacent_failures(self, tmp_path, family5):
        s1, s2 = family5.squares[:2]
        assert self._check(tmp_path / "f.txt", [s1, s1, s1, s2], 2) == [0, 1, 3]

    def test_t_equal_to_the_set_size(self, tmp_path, family5):
        assert self._check(tmp_path / "f.txt", family5.squares, 4) == []
        assert self._check(tmp_path / "g.txt", family5.squares[:1] * 3, 3) == [0]

    def test_a_repeated_square_anywhere(self, tmp_path, family5):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
        @hypothesis.given(st.integers(0, 3), st.integers(0, 4), st.data())
        def check(copied, position, data):
            squares = list(family5.squares)
            squares.insert(position, squares[copied])
            self._check(tmp_path / "f.txt", squares, data.draw(st.integers(2, 5), label="t"))
        check()


class TestGraph:
    def test_edge_list_to_stdout(self, f4_file, capsys):
        assert main(["graph", "--t", "3", "--in", f4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "A1 B2"
        assert len(lines) == 32

    def test_dot_export_to_file(self, f4_file, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert main(["graph", "--t", "3", "--in", f4_file,
                     "--format", "dot", "--out", str(target)]) == 0
        assert target.read_text().startswith("digraph G {")

    def test_out_flag_at_a_directory_names_only_the_directory(self, f4_file, tmp_path, capsys):
        _out_at_a_directory_fails_cleanly(["graph", "--t", "3", "--in", f4_file], tmp_path,
                                          capsys)

    def test_explicit_square_selection(self, f5_file, capsys):
        assert main(["graph", "--t", "2", "--in", f5_file, "--squares", "2,4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 25

    def test_selection_length_mismatch_is_usage_error(self, f5_file, capsys):
        assert main(["graph", "--t", "3", "--in", f5_file, "--squares", "1,2"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_selection_out_of_range_is_domain_error(self, f5_file, capsys):
        assert main(["graph", "--t", "2", "--in", f5_file, "--squares", "1,9"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_non_orthogonal_selection_is_rejected(self, f5_file, capsys):
        assert main(["graph", "--t", "2", "--in", f5_file, "--squares", "3,3"]) == 1
        err = capsys.readouterr().err
        assert "not orthogonal" in err
        assert "cells" in err

    def test_non_orthogonal_pair_from_shift_family(self, f4_file, capsys):
        assert main(["graph", "--t", "2", "--in", f4_file]) == 1
        assert "not orthogonal" in capsys.readouterr().err

    def test_non_integer_selection_is_usage_error(self, f5_file, capsys):
        assert main(["graph", "--t", "2", "--in", f5_file, "--squares", "1,x"]) == 2
        assert capsys.readouterr().err == (
            "usage error: --squares must be comma-separated integers, got '1,x'\n")

    def test_bad_format_is_usage_error(self, f4_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["graph", "--t", "3", "--in", f4_file, "--format", "png"])
        assert excinfo.value.code == 2


class TestStats:
    def test_order_4_reports_multiplicity_and_note(self, f4_file, capsys):
        assert main(["stats", "--t", "3", "--in", f4_file]) == 0
        out = capsys.readouterr().out
        assert "vertices: 12" in out
        assert "edges: 32" in out
        assert "max edge multiplicity: 2" in out
        assert "simple: no" in out
        assert "bipartite: yes" in out
        assert "note: shift-family shape" in out
        assert "Reported values are computed, not assumed." in out

    def test_order_5_has_no_note(self, f5_file, capsys):
        assert main(["stats", "--t", "4", "--in", f5_file]) == 0
        out = capsys.readouterr().out
        assert "max edge multiplicity: 1" in out
        assert "simple: yes" in out
        assert "note:" not in out

    def test_an_order_4_mols_triple_contradicts_the_note(self, tmp_path, capsys):
        # L_a(i, j) = a*i + j over GF(4), a = 1, 2, 3, symbols shifted by 1:
        # three mutually orthogonal squares of order 4, and 4 + 1 is prime.
        times = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
        squares = tuple(LatinSquare(4, tuple(tuple((times[a][i] ^ j) + 1 for j in range(4))
                                             for i in range(4))) for a in (1, 2, 3))
        path = tmp_path / "gf4.txt"
        path.write_text(serialize_square_file(MolsSet(4, squares)))
        assert main(["stats", "--t", "3", "--in", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "simple: yes" in lines
        assert "max edge multiplicity: 1" in lines
        assert lines[-1] == (
            "note: shift-family shape (4+1 prime, t in 3..4): parallel edges are expected "
            "here; computed max multiplicity is 1, which contradicts that expectation. "
            "Reported values are computed, not assumed.")

    @staticmethod
    def _stats_head(stats):
        """The lines of `molsnet stats` up to "simple:", from a GraphStats."""
        labels = [part_label(p) for p in range(len(stats.part_sizes))]
        parts = ", ".join(f"{label}={size}" for label, size in zip(labels, stats.part_sizes))
        return [f"kind: {stats.kind}", f"parts: {len(stats.part_sizes)} ({parts})",
                f"vertices: {stats.vertex_count}", f"edges: {stats.edge_count}",
                "degrees by part:",
                *(f"  {label}: {' '.join(map(str, sequence))}"
                  for label, sequence in zip(labels, stats.degree_sequences)),
                f"simple: {'yes' if stats.simple else 'no'}"]

    @pytest.mark.parametrize("order,method", [(7, "additive"), (6, "shift"), (256, "row-shifts"),
                                              (257, "slopes")])
    def test_each_part_pair_keys_are_built_once(self, order, method, tmp_path, monkeypatch,
                                                capsys):
        # Up to order 255 each column's rows are cut once, and Latin part
        # pairs are read from them with no key-route build.  Above it no
        # rows are cut and each part pair makes one key-route build
        # (_heads_by_tail), which the multiplicity report and the
        # simplicity line share: the multiplicative square of
        # order 256 and its row shifts 1-3 repeat edges in all three part
        # pairs, and the additive squares of order 257 with slopes 1-4
        # repeat none.
        if method == "row-shifts":
            square = make_multiplicative_square(order)
            family = MolsSet(order, (square, *(apply_row_shift(square, k) for k in (1, 2, 3))))
        elif method == "slopes":
            family = MolsSet(order, tuple(make_additive_square(order, h) for h in (1, 2, 3, 4)))
        else:
            family = make_mols_family(order, method)
        path = tmp_path / "family.txt"
        path.write_text(serialize_square_file(family))
        built, cut = [], []
        heads_by_tail, rows = molsnet.graphs._heads_by_tail, molsnet.graphs._rows

        def spy(tails, heads, n):
            built.append(n)
            return heads_by_tail(tails, heads, n)

        def row_spy(column, n):
            cut.append(n)
            return rows(column, n)
        monkeypatch.setattr(molsnet.graphs, "_heads_by_tail", spy)
        monkeypatch.setattr(molsnet.graphs, "_rows", row_spy)
        assert main(["stats", "--t", "4", "--in", str(path)]) == 0
        assert built == [order] * (3 if order > 255 else 0)
        assert cut == [order] * (4 if order <= 255 else 0)
        counts = cell_pair_counts(superimpose(family.squares[:4]))
        degree = Counter()
        for (u, v), k in counts.items():
            degree[u] += k
            degree[v] += k
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("degrees by part:") + 1
        assert lines[start:start + 5] == [
            *(f"  {part_label(p)}: {' '.join(str(degree[p, s]) for s in range(1, order + 1))}"
              for p in range(4)),
            f"simple: {'yes' if max(counts.values()) == 1 else 'no'}"]
        if method == "slopes":
            assert [set(line.split(": ")[1].split()) for line in lines[start:start + 4]] == [
                {"257"}, {"514"}, {"514"}, {"257"}]
            assert lines[start + 4] == "simple: yes"
        elif method == "row-shifts":
            assert lines[start + 4] == "simple: no"
            assert "max edge multiplicity: 2" in lines

    def test_closed_form_matches_graph_stats_on_scrambled_families(self, tmp_path):
        # The degree lines come from the Latin check of the input and the
        # simple line from the multiplicity report; graph_stats counts both
        # for any array.  Squares are picked with repeats and in any order,
        # rows and columns are permuted alike in every square, and each
        # square's symbols are relabelled on their own.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        families = [make_mols_family(n, "additive") for n in (2, 3, 5, 7, 11, 13)]
        families += [make_mols_family(n, "shift") for n in (2, 4, 6, 10, 12)]
        seen = Counter()

        @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
        @hypothesis.given(st.sampled_from(families), st.data())
        def check(family, data):
            n, m = family.order, len(family.squares)
            picks = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=m + 1),
                              label="squares")
            rows = data.draw(st.permutations(range(n)), label="rows")
            columns = data.draw(st.permutations(range(n)), label="columns")
            squares = []
            for k in picks:
                cells, symbols = family.squares[k].cells, data.draw(
                    st.permutations(range(1, n + 1)), label="symbols")
                squares.append(LatinSquare(n, [[symbols[cells[i][j] - 1] for j in columns]
                                               for i in rows]))
            t = data.draw(st.integers(2, len(squares)), label="t")
            path = tmp_path / "scrambled.txt"
            path.write_text(serialize_square_file(MolsSet(n, tuple(squares))))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = main(["stats", "--t", str(t), "--in", str(path)])
            try:
                stats = graph_stats(build_partite_graph(superimpose(squares[:t])))
            except NotOrthogonalError:
                assert status == 1
                seen["rejected"] += 1
                return
            assert status == 0
            head = self._stats_head(stats)
            assert out.getvalue().splitlines()[:len(head)] == head
            seen["simple" if stats.simple else "not simple"] += 1
        check()
        assert min(seen["rejected"], seen["simple"], seen["not simple"]) > 0

    def test_parallel_edges_of_two_letter_parts_match_brute_force(self, tmp_path, capsys):
        # Order 28 at t = 28 has parts A..Z, AA and AB, so the lines name
        # vertices of two-letter parts on both ends.
        family = make_mols_family(28, "shift")
        path = tmp_path / "shift28.txt"
        path.write_text(serialize_square_file(family))
        assert main(["stats", "--t", "28", "--in", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = lines[lines.index("parallel edges:") + 1:lines.index("bipartite: yes")]
        counts = brute_force_multiplicity(superimpose(list(family.squares)))
        assert listed == [f"  {vertex_name(u)} -> {vertex_name(v)} (x{k})"
                          for (u, v), k in sorted(counts.items()) if k > 1]
        assert listed[-1].startswith("  AA") and " -> AB" in listed[-1]

    def test_t_larger_than_file(self, f5_file, capsys):
        assert main(["stats", "--t", "5", "--in", f5_file]) == 1
        assert "cannot take the first 5" in capsys.readouterr().err


class TestTuran:
    def test_prints_formula_and_brute_force(self, capsys):
        assert main(["turan", "--m", "3", "--n", "5"]) == 0
        assert capsys.readouterr().out == "formula: 8\nbrute-force: 8\n"

    def test_bad_parameters_fail(self, capsys):
        assert main(["turan", "--m", "0", "--n", "5"]) == 1
        assert main(["turan", "--m", "6", "--n", "5"]) == 1


class TestChannels:
    def test_channels_through_c3(self, f4_file, capsys):
        assert main(["channels", "--t", "3", "--in", f4_file, "--vertex", "C:3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("4 channels through C3:")
        assert "cell (1,1): A1 -> B2 -> C3" in out

    def test_unknown_vertex_is_domain_error(self, f4_file, capsys):
        assert main(["channels", "--t", "3", "--in", f4_file, "--vertex", "D:1"]) == 1
        assert "unknown vertex" in capsys.readouterr().err

    def test_malformed_vertex_is_usage_error(self, f4_file, capsys):
        for bad in ("C3", ":3", "C:", "c:3", "C:x"):
            assert main(["channels", "--t", "3", "--in", f4_file, "--vertex", bad]) == 2
        assert "usage error" in capsys.readouterr().err


class TestSquaresStayFlat:
    """A square is its row-major symbols tuple, which is also its column of
    a stack, so no command on valid files derives a square's rows."""

    def test_commands_on_valid_files_never_derive_rows(self, f4_file, f5_file, tmp_path,
                                                       monkeypatch, capsys):
        derived = []
        cells = LatinSquare.cells

        def spy(square):
            derived.append(square)
            return cells.fget(square)

        monkeypatch.setattr(LatinSquare, "cells", property(spy))
        f7_file = str(tmp_path / "f7.txt")
        commands = [
            (["gen", "--order", "7", "--out", f7_file], 0),
            (["gen", "--order", "6", "--method", "shift"], 0),
            (["verify", "--t", "3", "--in", f5_file], 0),
            (["verify", "--t", "2", "--in", f4_file], 1),
            (["graph", "--t", "4", "--in", f5_file, "--format", "json"], 0),
            (["graph", "--t", "2", "--in", f7_file, "--squares", "5,3", "--format", "dot"], 0),
            (["graph", "--t", "2", "--in", f4_file], 1),
            (["stats", "--t", "3", "--in", f4_file], 0),
            (["stats", "--t", "6", "--in", f7_file], 0),
            (["channels", "--t", "4", "--in", f5_file, "--vertex", "A:1"], 0),
        ]
        assert [main(argv) for argv, _ in commands] == [code for _, code in commands]
        assert derived == []
        capsys.readouterr()

    def test_the_stack_is_the_selected_squares(self, f5_file):
        squares = molsnet.cli._load_set(f5_file).squares
        graph = molsnet.cli._build_chain_graph(squares, [4, 2])
        assert graph.array.columns[0] is squares[3].symbols
        assert graph.array.columns[1] is squares[1].symbols
        family = make_mols_family(5)
        assert graph.array == superimpose([family[3], family[1]])


CHECKS = ("orthogonality verdicts match brute force on generated families",
          "orthogonality verdicts match brute force on random stacks",
          "Turan formula matches brute-force edge count for 1 <= m <= n <= 50",
          "edge multiplicity matches brute-force pair counts",
          "no 2-orthogonal pair of order 2 exists",
          "a 2-orthogonal pair of order 3 is found")


class TestCheck:
    def test_suite_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("ok: ") == 6
        assert "all 6 checks passed" in out

    # Each case makes one name that check reads answer differently from its
    # cross-check: the checks that read it must fail, and only those.
    @pytest.mark.parametrize("name,stand_in,failing", [
        ("verify_set_orthogonality", lambda original: lambda mols, t: None, {0}),
        ("is_t_orthogonal", lambda original: lambda array: replace(
            r := original(array), is_orthogonal=not r.is_orthogonal), {1}),
        ("turan_edge_count", lambda original: lambda m, n: original(m, n) + 1, {2}),
        ("edge_multiplicity", lambda original: lambda graph: replace(
            r := original(graph), max_multiplicity=r.max_multiplicity + 1), {3}),
        # One more edge, seen once: the pair counts differ, their maximum does not.
        ("brute_force_multiplicity", lambda original: lambda array: {
            **original(array), ((0, 0), (1, 0)): 1}, {3}),
        ("exhaustive_mols_search", lambda original: lambda *args: replace(
            r := original(*args), found=not r.found), {4, 5}),
    ])
    def test_a_disagreeing_answer_fails_its_checks(self, name, stand_in, failing, monkeypatch,
                                                   capsys):
        monkeypatch.setattr(molsnet.cli, name, stand_in(getattr(molsnet.cli, name)))
        assert main(["check"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{'FAIL' if k in failing else 'ok'}: {check}" for k, check in enumerate(CHECKS)
        ] + [f"{len(failing)} of 6 checks failed"]


class TestArgparseBehavior:
    def test_one_process_answers_as_fresh_ones_do(self, f5_file, capsys):
        # main keeps its parser between calls; a usage error on it must not
        # change what later calls print.
        commands = [["verify", "--t", "two", "--in", f5_file],
                    ["verify", "--t", "3", "--in", f5_file],
                    ["graph", "--t", "2", "--in", f5_file, "--format", "dot"]]
        env = dict(os.environ, PYTHONPATH=str(Path(molsnet.cli.__file__).parents[1]))
        codes = []
        for argv in commands:
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "molsnet.cli", *argv], env=env,
                                   capture_output=True, text=True)
            assert (codes[-1], captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr)
        assert codes == [2, 0, 0]

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--t", "2"])
        assert excinfo.value.code == 2


class TestExitCodes:
    @pytest.mark.parametrize("argv", [["verify", "--t", "1"], ["verify", "--t", "5"],
                                      ["graph", "--t", "1"], ["stats", "--t", "0"]])
    def test_out_of_range_t_exits_1(self, argv, f5_file, capsys):
        # main catches no bare ValueError, so exit 1 means the check raised a
        # domain error.
        assert main(argv + ["--in", f5_file]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_range_checks_raise_input_error(self):
        family = make_mols_family(5)
        graph = build_partite_graph(superimpose(list(family.squares[:2])))
        calls = [lambda: verify_set_orthogonality(family, 1),
                 lambda: superimpose(family.squares[:1]),
                 lambda: superimpose([family[0], make_mols_family(4)[0]]),
                 lambda: make_turan_graph(0, 4), lambda: turan_edge_count(5, 4),
                 lambda: channels_through(graph, (2, 1))]
        for call in calls:
            with pytest.raises(InputError):
                call()
        assert issubclass(InputError, ValueError)

    def test_a_value_error_inside_a_phase_is_not_an_exit_code(self, f5_file, monkeypatch):
        # Only domain errors and OS errors become exit 1; any other exception
        # is a bug and reaches the caller with its traceback.
        def broken(graph, fmt):
            raise ValueError("bug inside the export phase")
        monkeypatch.setattr(molsnet.cli, "export_graph", broken)
        with pytest.raises(ValueError, match="bug inside the export phase"):
            main(["graph", "--t", "2", "--in", f5_file])
