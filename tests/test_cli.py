import os
import weakref
from collections import Counter
from math import comb

import pytest

import molsnet.cli
import molsnet.orthogonality

from golden import ORDER4_SQUARE_FILE
from molsnet import (MolsSet, make_mols_family, parse_square_file, serialize_square_file,
                     superimpose)
from molsnet.cli import main


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
        # is orthogonal, so no node below depth 2 is built.
        path = tmp_path / "additive101.txt"
        path.write_text(serialize_square_file(make_mols_family(101)))
        passes = Counter()
        for name in ("_scaled", "_appended"):
            def spy(*args, _name=name, _original=getattr(molsnet.orthogonality, name)):
                passes[_name] += 1
                return _original(*args)
            monkeypatch.setattr(molsnet.orthogonality, name, spy)
        total = comb(100, 50)
        assert self._out(capsys, str(path), 50, 0) == [
            f"order 101, 100 squares, t=50: checking {total} subsets",
            _left_out(total, 0, 10_000),
            f"result: all {total} subsets are 50-orthogonal"]
        assert 0 < sum(passes.values()) <= comb(100, 2) + 100


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


class TestChainGraphStacking:
    """graph, stats and channels hand the parsed squares over to the stacker,
    which frees each one once its column is built."""

    @pytest.mark.parametrize("argv", [
        ["graph", "--t", "4"],
        ["stats", "--t", "4"],
        ["channels", "--t", "4", "--vertex", "A:1"],
    ])
    def test_each_square_is_freed_once_stacked(self, argv, f5_file, monkeypatch, capsys):
        refs = []
        alive = []
        load_squares = molsnet.cli._load_squares
        flat_symbols = molsnet.orthogonality._flat_symbols

        def load(path):
            squares = load_squares(path)
            refs.extend(weakref.ref(square) for square in squares)
            return squares

        def spy(square):
            alive.append([ref() is not None for ref in refs])
            return flat_symbols(square)

        monkeypatch.setattr(molsnet.cli, "_load_squares", load)
        monkeypatch.setattr(molsnet.orthogonality, "_flat_symbols", spy)
        assert main(argv + ["--in", f5_file]) == 0
        assert alive == [[j >= k for j in range(4)] for k in range(4)]

    def test_unselected_squares_are_freed_before_stacking(self, f5_file, monkeypatch):
        squares = molsnet.cli._load_squares(f5_file)
        refs = [weakref.ref(square) for square in squares]
        alive = []
        flat_symbols = molsnet.orthogonality._flat_symbols

        def spy(square):
            alive.append([ref() is not None for ref in refs])
            return flat_symbols(square)

        monkeypatch.setattr(molsnet.orthogonality, "_flat_symbols", spy)
        graph = molsnet.cli._build_chain_graph(squares, [4, 2])
        assert alive == [[False, True, False, True], [False, True, False, False]]
        assert squares == []
        monkeypatch.undo()
        family = make_mols_family(5)
        assert graph.array == superimpose([family[3], family[1]])


class TestCheck:
    def test_suite_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("ok: ") == 6
        assert "all 6 checks passed" in out


class TestArgparseBehavior:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--t", "2"])
        assert excinfo.value.code == 2
