"""The summary of tools/bench_pairs.py on a small fixed file; nothing is run."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
              {"name": "pass_ratio", "unit": "ratio", "better": "higher", "bound": 0.001}]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _run(wall, ratio=1.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "pass_ratio": {"value": ratio, "unit": "ratio"}}}


def _bench(parent, change, **change_run):
    return {"runs": {"w": {
        "parent": {str(seed): _run(wall) for seed, wall in enumerate(parent)},
        "change": {str(seed): _run(wall, **change_run) for seed, wall in enumerate(change)}}}}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_gain_in_nine_of_ten_pairs_wider_than_the_quartiles_holds(tool):
    change = [0.90] * 9 + [1.10]
    wall, ratio = tool.summarize(_bench(PARENT, change), END_TO_END)
    assert (wall["parent_median"], wall["change_median"], wall["wins"]) == (1.0, 0.90, 9)
    assert (wall["parent_q1"], wall["parent_q3"]) == pytest.approx((0.98, 1.02))
    assert wall["claim_holds"] and not wall["beyond_bound"]
    assert (ratio["wins"], ratio["claim_holds"], ratio["beyond_bound"]) == (0, False, False)
    assert tool.describe(wall) == ("w wall_s: parent 1 (0.98-1.02) -> change 0.9 s, -10.0 %, "
                                   "9/10 won; claim rule holds; within bound 0.2")


def test_eight_wins_or_a_gap_inside_the_quartiles_do_not_hold(tool):
    eight = tool.summarize(_bench(PARENT, [0.90] * 8 + [1.10] * 2), END_TO_END)[0]
    assert eight["wins"] == 8 and not eight["claim_holds"]
    narrow = tool.summarize(_bench(PARENT, [p - 0.01 for p in PARENT]), END_TO_END)[0]
    assert narrow["wins"] == 10 and not narrow["claim_holds"]


def test_a_loss_past_the_bound_is_flagged_in_either_direction(tool):
    wall, ratio = tool.summarize(_bench(PARENT, [1.25] * 10, ratio=0.99), END_TO_END)
    assert wall["beyond_bound"] and not wall["claim_holds"]
    assert ratio["beyond_bound"] and ratio["wins"] == 0
    within = tool.summarize(_bench(PARENT, [1.15] * 10, ratio=0.9995), END_TO_END)
    assert not any(row["beyond_bound"] for row in within)


def test_runs_that_were_not_correct_are_named(tool):
    assert tool.failed_runs(_bench(PARENT, PARENT)) == []
    bench = _bench(PARENT, PARENT[:2], failed=1)
    bench["runs"]["w"]["parent"]["3"]["correct"] = False
    assert tool.failed_runs(bench) == ["w/parent/3", "w/change/0", "w/change/1"]
    # Only the seeds both sides ran are paired.
    assert tool.summarize(bench, END_TO_END)[0]["pairs"] == 2
