"""Byte-exact goldens for the graph exports, `stats` text and `check` output.

The files under tests/goldens/ hold the exact bytes these commands print.
Any change to how graphs are represented or walked must reproduce them.
To record them again, only when an output change is intended, run from
the repository root:

    PYTHONPATH=src python3 tests/test_goldens.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from molsnet import (FORMATS, TupleArray, build_partite_graph, export_graph, make_mols_family,
                     make_turan_graph, serialize_square_file, superimpose)
from molsnet.cli import main

GOLDENS = Path(__file__).with_name("goldens")

# Orthogonal but not Latin: symbol 2 never appears in part A, so A2 is an
# isolated vertex and A1 carries two parallel edges to each of B1 and B2.
NON_LATIN_ORDER2 = TupleArray(2, 3, (((1, 1, 1), (1, 1, 2)), ((1, 2, 1), (1, 2, 2))))


def _chain(n, t):
    return build_partite_graph(superimpose(list(make_mols_family(n).squares[:t])))


GRAPHS = {
    "order4_t3": lambda: _chain(4, 3),
    "order5_t4": lambda: _chain(5, 4),
    "order7_t4": lambda: _chain(7, 4),
    "turan_3_5": lambda: make_turan_graph(3, 5),
    "turan_1_3": lambda: make_turan_graph(1, 3),
    "nonlatin_order2_t3": lambda: build_partite_graph(NON_LATIN_ORDER2),
}


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _stats(n, t):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.txt"
        path.write_text(serialize_square_file(make_mols_family(n)))
        return _cli_stdout(["stats", "--t", str(t), "--in", str(path)])


def render_all():
    """File name -> the exact text it must hold."""
    rendered = {}
    for name, build in GRAPHS.items():
        graph = build()
        for fmt in FORMATS:
            rendered[f"{name}.{fmt}"] = export_graph(graph, fmt).content
    rendered["stats_order4_t3.txt"] = _stats(4, 3)
    rendered["stats_order5_t4.txt"] = _stats(5, 4)
    rendered["check.txt"] = _cli_stdout(["check"])
    return rendered


@pytest.fixture(scope="module")
def rendered():
    return render_all()


@pytest.mark.parametrize("filename", sorted(
    [f"{name}.{fmt}" for name in GRAPHS for fmt in FORMATS]
    + ["stats_order4_t3.txt", "stats_order5_t4.txt", "check.txt"]))
def test_output_matches_golden(rendered, filename):
    assert rendered[filename].encode() == (GOLDENS / filename).read_bytes()


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for filename, text in render_all().items():
        (GOLDENS / filename).write_bytes(text.encode())
