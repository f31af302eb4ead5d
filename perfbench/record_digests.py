"""Record the sha256 of every command output for the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which run.py compares against whenever it
runs with the default seed, so that outputs stay byte-identical.  Every
output must first pass its expectation check; run this only on a commit
whose outputs are known good.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


class Recorder(run.Checker):
    def __init__(self):
        super().__init__({})
        self.digests: dict[str, str] = {}

    def check(self, cmd, code, out, err):
        if not super().check(cmd, code, out, err):
            raise SystemExit(f"{cmd.label}: output fails its check; not recording")
        self.digests[cmd.label] = run.digest(code, out, err)
        return True


def main() -> int:
    recorded = {}
    for workload in workloads.WORKLOADS:
        mix = workloads.MIXES[workload]
        session = run.Session(Recorder())
        _, texts = run.setup_pass(session, mix)
        rng = random.Random(f"{workload}:{run.DEFAULT_SEED}")
        files = workloads.make_files(texts, rng)
        commands = workloads.build_round(mix, files, rng)
        workdir = run.OUT / f"record-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            for copies in files.values():
                for infile in copies:
                    (workdir / infile.name).write_text(infile.text())
            for cmd in commands:
                session.issue(cmd, str(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        recorded[workload] = dict(sorted(session.checker.digests.items()))
        print(f"{workload}: {len(recorded[workload])} digests")
    run.DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
