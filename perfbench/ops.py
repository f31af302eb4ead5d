"""Single-operation timings, the rows of ROADMAP open item 1's table.

    python3 perfbench/ops.py

Each operation runs once; the process peaks near 750 MB (the order-101
JSON export).  Times are printed raw and normalized the way run.py
normalizes them (median of three calibration samples before and after each
operation).
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibration() -> float:
    return statistics.median(run.calibrate() for _ in range(3))


def timed(label: str, action):
    before = calibration()
    start = time.perf_counter()
    result = action()
    raw = time.perf_counter() - start
    after = calibration()
    norm = raw * 2 * run.CALIBRATION_REF_S / (before + after)
    print(f"| {label} | {raw:.2f} s | {norm:.2f} s | {rss_mb():.0f} MB |", flush=True)
    return result


def main() -> int:
    run.import_molsnet()
    from molsnet import (build_partite_graph, edge_multiplicity, export_graph, graph_stats,
                         is_bipartite, make_mols_family, parse_square_file,
                         serialize_square_file, superimpose, verify_set_orthogonality)

    print("| operation | raw | normalized | peak RSS so far |")
    print("|---|---|---|---|")
    family = timed("`make_mols_family(101)`", lambda: make_mols_family(101))
    timed("`make_mols_family(211)`", lambda: make_mols_family(211))
    text = serialize_square_file(family)
    timed(f"parse of the {len(text) / 1e6:.1f} MB order-101 file",
          lambda: parse_square_file(text))
    timed("`verify_set_orthogonality(order 17, t=8)`",
          lambda: verify_set_orthogonality(make_mols_family(17), 8))
    array = superimpose(list(family.squares))
    graph = timed("`build_partite_graph(order 101, t=100)`", lambda: build_partite_graph(array))
    timed("`graph_stats` on that graph", lambda: graph_stats(graph))
    timed("`edge_multiplicity` on that graph", lambda: edge_multiplicity(graph))
    timed("`is_bipartite` on that graph", lambda: is_bipartite(graph))
    timed("export, edges format", lambda: export_graph(graph, "edges"))
    timed("export, JSON format", lambda: export_graph(graph, "json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
