"""molsnet benchmark: drives the CLI in-process as one closed-loop user.

    python3 perfbench/run.py --workload verify-additive --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ./src.
One simulated user issues each command through molsnet.cli.main(argv) only
after the previous one returned, with its output captured in memory.

Set-up imports molsnet and generates the workload's families with
`molsnet gen`; it is repeated SETUP_PASSES times and reported as the
median.  The benchmark then writes seeded, scrambled copies of the families
as input files (workloads.py).  The timed part repeats one seeded round of
commands until --seconds is used up and at least MIN_COMMANDS commands have
run.  Every command's exit code and output are checked against expect.py;
with the default seed, the output digests must also match digests.json.

Times are normalized to a reference machine speed.  A fixed calibration
loop runs before every command; a command's latency is scaled by
CALIBRATION_REF_S / c, where c is the mean of the calibration times just
before and just after it.  This cancels the machine-speed
drift of a shared host, which is common to the program and the loop.  Raw
times are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics (tracing.py).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import expect  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_PASSES = 3
MIN_COMMANDS = 100
CALIBRATION_REF_S = 0.0045    # the calibration loop's typical time on the reference machine
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

END_TO_END = (("wall_s", "s"), ("cmd_p50_ms", "ms"), ("cmd_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"), ("pass_ratio", "ratio"))


_GRIDS = [[[(i + h * j) % 13 + 1 for j in range(13)] for i in range(13)] for h in (1, 2, 3)]


def calibrate() -> float:
    """Time a fixed piece of interpreter work shaped like the program's:
    stacking grids into tuples and grouping the cells by tuple, sorting
    edges and formatting them, and a sort of a list larger than the
    first-level caches.  The collector is off so that the size of the heap
    does not enter."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(12):
            stack = tuple(tuple(tuple(g[i][j] for g in _GRIDS) for j in range(13))
                          for i in range(13))
            seen: dict[tuple, list] = {}
            for i, row in enumerate(stack, start=1):
                for j, entry in enumerate(row, start=1):
                    seen.setdefault(entry, []).append((i, j))
        edges = sorted(((c, entry[c]), (c + 1, entry[c + 1])) for entry in seen for c in range(2))
        "\n".join(f"{u} {v}" for u, v in edges * 6)
        sorted([((i * 7919) % 100003, i % 101, i) for i in range(4000)])
        return time.perf_counter() - start
    finally:
        gc.enable()


def import_molsnet():
    """Import molsnet fresh from ./src and return its cli module."""
    src = ROOT / "src"
    if not (src / "molsnet" / "__init__.py").is_file():
        raise SystemExit(f"molsnet sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "molsnet" or n.startswith("molsnet.")]:
        del sys.modules[name]
    cli = importlib.import_module("molsnet.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported molsnet from {cli.__file__}, not from {src}")
    return cli


def digest(code: int, out: str, err: str) -> str:
    h = hashlib.sha256()
    for part in (str(code), out, err):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class Checker:
    """Compares each command's result with its independent expectation.

    The expectation of a command is computed once, oracle-checked on small
    orders, and kept as a digest; repeats of the command compare digests.
    """

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.expected: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, cmd, code: int, out: str, err: str) -> bool:
        if cmd.label not in self.expected:
            want = expect.expected(cmd)
            self.expected[cmd.label] = digest(*want) if expect.oracle_agrees(cmd) else None
        got = digest(code, out, err)
        ok = got == self.expected[cmd.label] and self.recorded.get(cmd.label, got) == got
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{cmd.label}: exit {code}, {err.strip()[:200]!r}")
        return ok


class Session:
    """One closed-loop user.  Every timed step is preceded by a calibration
    sample, and one more sample closes the session."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.cli = None
        self.calibration: list[float] = []
        self.raw: list[float] = []            # raw seconds of step k
        self.recorder: tracing.Recorder | None = None

    def _step(self, action):
        gc.collect()
        self.calibration.append(calibrate())
        start = time.perf_counter()
        result = action()
        self.raw.append(time.perf_counter() - start)
        return len(self.raw) - 1, result

    def import_program(self) -> int:
        step, self.cli = self._step(import_molsnet)
        return step

    def issue(self, cmd, workdir: str = ".", traced: bool = False) -> tuple[int, str]:
        """Run one command, check it, and return (step, stdout)."""
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return self.cli.main(cmd.argv(workdir))
                except SystemExit as exc:            # argparse usage errors
                    return exc.code if isinstance(exc.code, int) else 2
                except Exception:                    # a crash fails the check
                    traceback.print_exc()
                    return -1

        if traced:
            self.recorder.command = len(self.raw)
            self.recorder.active = True
        try:
            step, code = self._step(run)
        finally:
            if self.recorder is not None:
                self.recorder.active = False
        self.checker.check(cmd, code, out.getvalue(), err.getvalue())
        return step, out.getvalue()

    def factors(self) -> list[float]:
        """Per step: reference calibration time over the local one."""
        samples = self.calibration + [calibrate()]
        return [2 * CALIBRATION_REF_S / (samples[k] + samples[k + 1])
                for k in range(len(self.raw))]


def setup_pass(session: Session, mix) -> tuple[list[int], dict]:
    """Import molsnet and generate each family once; return (steps, gen texts)."""
    steps = [session.import_program()]
    texts = {}
    for family, order in workloads.gen_families(mix):
        step, texts[(family, order)] = session.issue(
            workloads.Command("gen", family, order, 0, "", None))
        steps.append(step)
    return steps, texts


def percentile(values, fraction: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def bases(commands) -> dict[str, int]:
    """Input sizes of one round, from closed forms: the bases for ratios."""
    out = {"subsets": 0, "cells": 0, "edges": 0, "input_bytes": 0}
    for cmd in commands:
        if cmd.kind == "gen":
            continue
        n = cmd.order
        out["input_bytes"] += len(cmd.file.text())
        if cmd.kind == "verify":
            subsets = math.comb(len(cmd.file.squares), cmd.t)
            out["subsets"] += subsets
            out["cells"] += subsets * n * n
        elif cmd.kind != "reject":
            out["edges"] += n * n * (cmd.t - 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small orders, for the harness self-test")
    args = parser.parse_args(argv)

    mix = (workloads.TINY_MIXES if args.tiny else workloads.MIXES)[args.workload]
    recorded = {}
    if args.seed == DEFAULT_SEED and not args.tiny and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
    session = Session(Checker(recorded))

    setup_steps = []
    for _ in range(SETUP_PASSES):
        steps, texts = setup_pass(session, mix)
        setup_steps.append(steps)

    rng = random.Random(f"{args.workload}:{args.seed}")
    files = workloads.make_files(texts, rng)
    commands = workloads.build_round(mix, files, rng)
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for copies in files.values():
            for infile in copies:
                (workdir / infile.name).write_text(infile.text())
        rel = workdir.relative_to(Path.cwd()) if workdir.is_relative_to(Path.cwd()) else workdir
        result = measure(args, session, mix, commands, str(rel), setup_steps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in session.checker.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def measure(args, session: Session, mix, commands, workdir: str, setup_steps) -> dict:
    rounds: list[list[int]] = []               # steps of each untraced round
    traced: list[list[int]] = []               # steps of each traced round
    base_steps: list[int] = []
    if args.trace:
        session.recorder = tracing.Recorder()
        for name in session.recorder.install():
            print(f"trace target {name} not found; its metrics read 0", file=sys.stderr)
        for family, order in workloads.gen_families(mix):
            step, _ = session.issue(workloads.Command("gen", family, order, 0, "", None),
                                    traced=True)
            base_steps.append(step)

    began = time.perf_counter()
    while True:
        trace_this = args.trace and len(rounds) > len(traced)
        steps = [session.issue(cmd, workdir, traced=trace_this)[0] for cmd in commands]
        (traced if trace_this else rounds).append(steps)
        elapsed = time.perf_counter() - began
        last = sum(session.raw[k] for k in rounds[-1])
        enough = traced if args.trace else sum(map(len, rounds)) >= MIN_COMMANDS
        if enough and elapsed + last > args.seconds:
            break

    factor = session.factors()
    norm = [raw * f for raw, f in zip(session.raw, factor)]
    walls = [sum(norm[k] for k in r) for r in rounds]
    checker = session.checker
    print(f"workload {args.workload}, seed {args.seed}: {len(commands)} commands per round, "
          f"{len(rounds)} untraced and {len(traced)} traced rounds; "
          f"{checker.attempted} commands checked, {checker.failed} failed "
          f"(fail_ratio {checker.failed / checker.attempted:.4f})")
    print("  round bases: " + ", ".join(f"{k} {v}" for k, v in bases(commands).items()))
    print(f"  calibration: median {statistics.median(session.calibration) * 1000:.3f} ms, "
          f"reference {CALIBRATION_REF_S * 1000:.3f} ms")
    if args.trace:
        spans = session.recorder.spans
        OUT.mkdir(exist_ok=True)
        session.recorder.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")

        def scaled(steps):
            wanted = set(steps)
            return [(i, [s[0], s[1] * factor[s[4]], s[2] * factor[s[4]], s[3], s[4], s[5]])
                    for i, s in enumerate(spans) if s[4] in wanted]

        values = tracing.per_layer([scaled(r) for r in traced], scaled(base_steps))
        traced_walls = [sum(norm[k] for k in r) for r in traced]
        values["trace_overhead"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        units = dict(tracing.PER_LAYER, trace_overhead="ratio")
    else:
        latencies = [norm[k] * 1000 for r in rounds for k in r]
        raw = [session.raw[k] * 1000 for r in rounds for k in r]
        setups = [sum(norm[k] for k in steps) for steps in setup_steps]
        values = {
            "wall_s": statistics.median(walls),
            "cmd_p50_ms": percentile(latencies, 0.5),
            "cmd_p90_ms": percentile(latencies, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
            "pass_ratio": 1 - checker.failed / checker.attempted,
        }
        units = dict(END_TO_END)
        raw_wall = statistics.median(sum(session.raw[k] for k in r) for r in rounds)
        raw_setup = statistics.median(sum(session.raw[k] for k in s) for s in setup_steps)
        print(f"  samples: {len(latencies)} command latencies over {len(rounds)} rounds, "
              f"{SETUP_PASSES} set-up passes")
        print(f"  raw, not normalized: wall_s {raw_wall:.4f}, cmd_p50_ms "
              f"{percentile(raw, 0.5):.3f}, cmd_p90_ms {percentile(raw, 0.9):.3f}, "
              f"setup_s {raw_setup:.4f}")
    for name, value in values.items():
        print(f"  {name:48s} {value:14.6f} {units[name]}")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


if __name__ == "__main__":
    sys.exit(main())
