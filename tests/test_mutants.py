"""The mutation gate's bookkeeping, with no mutant run.

mutants/run.py copies the tree, applies one source edit and runs tests on
it; that takes minutes, so the gate itself is run by hand.  Here: an edit
whose old text no longer occurs exactly once is reported stale without
starting a process, and every listed edit applies to the tree as it is.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "mutants" / "run.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("mutants_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_an_edit_that_does_not_match_once_is_stale_and_runs_nothing(gate, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a stale mutant must not run its tests")
    monkeypatch.setattr(gate.subprocess, "run", forbidden)
    missing = gate.Mutant("missing", "src/molsnet/orthogonality.py", "no such text", "x",
                          ("tests/test_orthogonality.py",))
    # "return " occurs many times in the file, so the edit is ambiguous.
    ambiguous = gate.Mutant("ambiguous", "src/molsnet/orthogonality.py", "return ", "x",
                            ("tests/test_orthogonality.py",))
    assert gate.run(missing) == gate.run(ambiguous) == "stale"
    monkeypatch.setattr(gate, "MUTANTS", (missing, ambiguous))
    assert gate.main([]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0 killed, 0 survived, 2 stale, 0 error"


def test_every_listed_edit_matches_exactly_once(gate):
    assert [mutant.name for mutant in gate.MUTANTS if gate.is_stale(mutant)] == []
    assert len({mutant.name for mutant in gate.MUTANTS}) == len(gate.MUTANTS)
    for mutant in gate.MUTANTS:
        assert mutant.old != mutant.new
        assert all((gate.ROOT / test).is_file() for test in mutant.tests)
