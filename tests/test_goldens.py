"""Byte-exact goldens for the graph exports, the `stats`, `verify` and
`check` text, and the demo scripts' output.

The files under tests/goldens/ hold the exact bytes these commands print.
Any change to how graphs are represented or walked must reproduce them.
To record them again, only when an output change is intended, run from
the repository root:

    PYTHONPATH=src python3 tests/test_goldens.py

README.md's library quickstart, its one python block, is run as written.

The exports of two large graphs, tens of MB each, and the 1 MB `verify`
text of a set whose failures pass the listing cap are pinned by their
sha256 digests in LARGE_DIGESTS and LARGE_VERIFY_DIGESTS instead of files.
"""

import contextlib
import hashlib
import io
import re
import runpy
import tempfile
from pathlib import Path

import pytest

from molsnet import (FORMATS, MolsSet, TupleArray, build_partite_graph, export_graph,
                     make_mols_family, make_turan_graph, serialize_square_file, superimpose)
from molsnet.cli import main

GOLDENS = Path(__file__).with_name("goldens")
DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = Path(__file__).resolve().parent.parent / "README.md"

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


# The order-101 additive graph at t=100 (1,010,000 edges) and the order-60
# shift multigraph at t=59 (208,800 edges, each part pair in parallel runs).
LARGE_GRAPHS = {
    "additive101_t100": lambda: _chain(101, 100),
    "shift60_t59": lambda: _chain(60, 59),
}

LARGE_DIGESTS = {
    "additive101_t100.dot": "6164764783ff4ace5e717b9673ae3721052c561dbdf979f0952408e16ac9b4e1",
    "additive101_t100.edges": "0791066f80b8f71be9152a0cbc049c831afec20b4e41747277c68505648eb030",
    "additive101_t100.json": "2764f37de1db391a57651233f31e974414d35652fa54157080e8dbe7060c1954",
    "shift60_t59.dot": "ff932b3d25ad06d97537201baff5f4502c21a2aec0cb00aeb246d7700cb0d77b",
    "shift60_t59.edges": "102231461bfea0f7dc4c08273cceba32b1db6b57503454e2bfc58b41fab7fae9",
    "shift60_t59.json": "65dbe644e953e0348440ffe2c790b1a1fba9f732d627bcc8627b6c6692b3efad",
}


def _repeated_order5():
    # Squares 1 and 3 are the same: the pair (1,3) fails, the other pairs pass,
    # and the triple passes because squares 1 and 2 alone are orthogonal.
    first, second = make_mols_family(5).squares[:2]
    return MolsSet(5, (first, second, first))


def _copies_order5():
    # 20 copies of one square: every one of the C(20, 5) = 15,504 5-subsets
    # fails, more than the 10,000 failures verify lists.
    return MolsSet(5, (make_mols_family(5).squares[0],) * 20)


# golden file -> (square set, t, exit status of `verify`)
VERIFY = {
    "verify_additive5_t2.txt": (lambda: make_mols_family(5), 2, 0),
    "verify_additive5_t3.txt": (lambda: make_mols_family(5), 3, 0),
    "verify_additive5_t4.txt": (lambda: make_mols_family(5), 4, 0),
    "verify_shift4_t2.txt": (lambda: make_mols_family(4), 2, 1),
    "verify_shift4_t3.txt": (lambda: make_mols_family(4), 3, 0),
    "verify_shift6_t2.txt": (lambda: make_mols_family(6), 2, 1),
    "verify_repeated5_t2.txt": (_repeated_order5, 2, 1),
    "verify_repeated5_t3.txt": (_repeated_order5, 3, 0),
    # 142,506 orthogonal subsets, more than verify lists line by line.
    "verify_additive31_t5.txt": (lambda: make_mols_family(31), 5, 0),
}

LARGE_VERIFY = {
    "verify_copies5x20_t5.txt": (_copies_order5, 5, 1),
}

LARGE_VERIFY_DIGESTS = {
    "verify_copies5x20_t5.txt": "6cad5881ba34c4b915fc4afaa4bc7e7ea31a6ce181462a6a676e87476c8881b2",
}

DEMO_GOLDENS = {f"demo_{path.stem}.txt": path for path in sorted(DEMOS.glob("*.py"))}


def _cli_stdout(argv, status=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == status, argv
    return out.getvalue()


def _on_file(mols, command, t, status=0):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.txt"
        path.write_text(serialize_square_file(mols))
        return _cli_stdout([command, "--t", str(t), "--in", str(path)], status)


def _demo_stdout(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def render_all():
    """File name -> the exact text it must hold."""
    rendered = {}
    for name, build in GRAPHS.items():
        graph = build()
        for fmt in FORMATS:
            rendered[f"{name}.{fmt}"] = export_graph(graph, fmt).content
    rendered["stats_order4_t3.txt"] = _on_file(make_mols_family(4), "stats", 3)
    rendered["stats_order5_t4.txt"] = _on_file(make_mols_family(5), "stats", 4)
    rendered["check.txt"] = _cli_stdout(["check"])
    for filename, (mols, t, status) in VERIFY.items():
        rendered[filename] = _on_file(mols(), "verify", t, status)
    for filename, path in DEMO_GOLDENS.items():
        rendered[filename] = _demo_stdout(path)
    return rendered


@pytest.fixture(scope="module")
def rendered():
    return render_all()


@pytest.mark.parametrize("filename", sorted(
    [f"{name}.{fmt}" for name in GRAPHS for fmt in FORMATS]
    + ["stats_order4_t3.txt", "stats_order5_t4.txt", "check.txt"]
    + list(VERIFY) + list(DEMO_GOLDENS)))
def test_output_matches_golden(rendered, filename):
    assert rendered[filename].encode() == (GOLDENS / filename).read_bytes()


@pytest.fixture(scope="module")
def large_graphs():
    return {name: build() for name, build in LARGE_GRAPHS.items()}


@pytest.mark.parametrize("filename", sorted(LARGE_DIGESTS))
def test_large_export_matches_digest(large_graphs, filename):
    name, fmt = filename.split(".")
    content = export_graph(large_graphs[name], fmt).content
    assert hashlib.sha256(content.encode()).hexdigest() == LARGE_DIGESTS[filename]


@pytest.mark.parametrize("filename", sorted(LARGE_VERIFY_DIGESTS))
def test_large_verify_matches_digest(filename):
    mols, t, status = LARGE_VERIFY[filename]
    content = _on_file(mols(), "verify", t, status)
    assert hashlib.sha256(content.encode()).hexdigest() == LARGE_VERIFY_DIGESTS[filename]


def test_readme_quickstart_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for filename, text in render_all().items():
        (GOLDENS / filename).write_bytes(text.encode())
