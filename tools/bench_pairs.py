"""Alternated benchmark pairs of two commits, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<pr>.json [--trace]

Each commit is exported with `git archive` into its own temporary
directory.  For seeds 0-9 and every workload of BENCHMARK.json,
`perfbench/run.py --trace 0` runs once per side for the benchmark's
run_seconds, each run in its own process; the parent runs first on even
seeds and the change first on odd ones.  With --trace, one `--trace 1`
run per workload and side at seed 0 follows the pairs.  Stdlib only.

The file holds `description`, `parent_commit`, `change_commit`, and
`runs[workload][side][seed]`, the last stdout line of each run; with
--trace also `trace_seed0[workload][side]`.  The summary gives, per
workload and end-to-end metric, the parent's median and quartiles, the
change's median and the pairs the change won, whether a claimed gain would
hold (the change better in at least 9 of 10 pairs and its median gap wider
than the parent's quartile spread), and whether the change is worse than
the metric's bound.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SEEDS = 10


def export(commit: str, directory: Path) -> None:
    """The committed files of commit, extracted into directory."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, **safe)


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one perfbench run in its own process."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, check=True, capture_output=True, text=True)
    return json.loads(result.stdout.splitlines()[-1])


def summarize(bench: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric, over the seeds both sides
    ran; quartiles by statistics.quantiles' default (exclusive) method."""
    rows = []
    for workload, sides in bench["runs"].items():
        seeds = sorted(set(sides["parent"]) & set(sides["change"]), key=int)
        for spec in end_to_end:
            name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
            parent, change = ([sides[side][seed]["metrics"][name]["value"] for seed in seeds]
                              for side in SIDES)
            q1, median, q3 = statistics.quantiles(parent, n=4)
            changed = statistics.median(change)
            gap = sign * (median - changed)          # > 0: the change is better
            wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
            worse = -gap / abs(median) if median else (1.0 if gap < 0 else 0.0)
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"], "pairs": len(seeds),
                "parent_median": median, "parent_q1": q1, "parent_q3": q3,
                "change_median": changed, "wins": wins,
                "claim_holds": 10 * wins >= 9 * len(seeds) and gap > q3 - q1,
                "beyond_bound": worse > spec["bound"], "bound": spec["bound"]})
    return rows


def failed_runs(bench: dict) -> list[str]:
    """workload/side/seed of every run that was not correct or failed a command."""
    return [f"{workload}/{side}/{seed}" for workload, sides in bench["runs"].items()
            for side, runs in sides.items() for seed, run in runs.items()
            if not run["correct"] or run["failed"]]


def describe(row: dict) -> str:
    median = row["parent_median"]
    change = (row["change_median"] - median) / median * 100 if median else 0.0
    return (f"{row['workload']} {row['metric']}: parent {median:.4g} "
            f"({row['parent_q1']:.4g}-{row['parent_q3']:.4g}) -> change "
            f"{row['change_median']:.4g} {row['unit']}, {change:+.1f} %, "
            f"{row['wins']}/{row['pairs']} won; claim rule "
            f"{'holds' if row['claim_holds'] else 'fails'}; "
            f"{'WORSE than' if row['beyond_bound'] else 'within'} bound {row['bound']:g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true", help="add the seed-0 --trace 1 runs")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    commits = [subprocess.run(["git", "rev-parse", "--short", commit], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
               for commit in (args.parent, args.change)]
    bench = {"description": args.description, "parent_commit": commits[0],
             "change_commit": commits[1],
             "runs": {workload: {side: {} for side in SIDES} for workload in workloads}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = dict(zip(SIDES, (Path(tmp) / side for side in SIDES)))
        for side, commit in zip(SIDES, commits):
            export(commit, checkouts[side])
        for seed in range(SEEDS):
            for workload in workloads:
                for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                    run = bench_run(checkouts[side], workload, seed, spec["run_seconds"], 0)
                    bench["runs"][workload][side][str(seed)] = run
                    print(f"seed {seed} {workload} {side}: wall_s "
                          f"{run['metrics']['wall_s']['value']:.4f}", file=sys.stderr, flush=True)
        if args.trace:
            bench["trace_seed0"] = {
                workload: {side: bench_run(checkouts[side], workload, 0, spec["run_seconds"], 1)
                           for side in SIDES} for workload in workloads}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    for row in summarize(bench, spec["end_to_end"]):
        print(describe(row))
    failed = failed_runs(bench)
    print(f"runs not correct or with failed commands: {', '.join(failed) if failed else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
