"""Self-test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

Checks, on small orders (--tiny):
1. every workload prints every metric named in BENCHMARK.json, with its
   unit, in both modes, and its outputs pass;
2. a deliberately wrong expectation raises fail_ratio above 0;
3. a second seed changes the commands and the input files but not the mix;
4. without the program's sources next to it, the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import expect  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            assert proc.returncode == 0, proc.stderr
            result = last_json(proc.stdout)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics with units, "
                  f"{result['attempted']} commands passed")


def check_wrong_expectation() -> None:
    right = expect.expected_verify

    def wrong(cmd):
        code, out, err = right(cmd)
        return code, out.replace("orthogonal (", "orthogonal [", 1), err

    expect.expected_verify = wrong
    try:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            run.main(["--workload", "verify-additive", "--seed", "5", "--seconds", "1",
                      "--tiny"])
    finally:
        expect.expected_verify = right
    result = last_json(buffer.getvalue())
    pass_ratio = result["metrics"]["pass_ratio"]["value"]
    assert not result["correct"] and result["failed"] > 0 and pass_ratio < 1, result
    print(f"ok: a wrong expectation gives fail_ratio {1 - pass_ratio:.3f} "
          f"({result['failed']}/{result['attempted']})")


def check_seeds() -> None:
    for workload in workloads.WORKLOADS:
        mix = workloads.MIXES[workload]
        texts = {fo: expect.expected_gen(*fo)[1] for fo in workloads.gen_families(mix)}
        rounds = []
        for seed in (0, 1):
            rng = random.Random(f"{workload}:{seed}")
            files = workloads.make_files(texts, rng)
            rounds.append((workloads.build_round(mix, files, rng), files))
        (first, files0), (second, files1) = rounds
        assert sorted(c.mix_key for c in first) == sorted(c.mix_key for c in second)
        assert [c.label for c in first] != [c.label for c in second]
        assert all(a.squares != b.squares for key in files0
                   for a, b in zip(files0[key], files1[key]))
        print(f"ok: {workload}: seeds 0 and 1 give the same mix of {len(first)} commands, "
              "different commands and input files")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-additive", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and "correct" not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_wrong_expectation()
    check_seeds()
    check_bare_directory()
    print("all self-test checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
