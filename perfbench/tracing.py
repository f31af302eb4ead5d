"""Spans around molsnet's phase-level public functions, recorded from outside.

`install` replaces each target function in every molsnet module namespace
that holds it (modules import these by name, so patching the defining
module alone would miss the calls).  A span records its name, start, end,
parent span and command id, plus a few counts read from the arguments or
the result.  Spans stay in memory until the run writes them out.  Per-cell
helpers such as vertex_name are left alone so the tracing cost stays small.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


TARGETS = {
    # (module, function): counts taken from (args, kwargs, result), keyed by
    # metric name; squares_entering counts squares arriving by parse or gen.
    ("cli", "main"): None,
    ("files", "parse_square_file"): lambda a, k, r: {
        "files.parse_square_file.bytes": len(a[0]), "squares_entering": len(r.squares)},
    ("files", "serialize_square_file"): None,
    ("squares", "make_mols_family"): lambda a, k, r: {"squares_entering": len(r.squares)},
    ("squares", "validate_latin"): None,
    ("orthogonality", "verify_set_orthogonality"): lambda a, k, r: {
        "orthogonality.subsets": len(r.verdicts)},
    ("orthogonality", "superimpose"): None,
    ("orthogonality", "is_t_orthogonal"): lambda a, k, r: {
        "orthogonality.is_t_orthogonal.cells": a[0].order ** 2},
    ("graphs", "build_partite_graph"): lambda a, k, r: {
        "graphs.build_partite_graph.edges": r.edge_count},
    ("graphs", "graph_stats"): None,
    ("graphs", "edge_multiplicity"): lambda a, k, r: {
        "graphs.edge_multiplicity.parallel_edges": len(r.duplicated_edges)},
    ("graphs", "is_bipartite"): None,
    ("graphs", "channels_through"): None,
    ("export", "export_graph"): lambda a, k, r: {
        "format": r.format, "export.export_graph.bytes": len(r.content)},
}


class Recorder:
    """Holds the spans of one run; records only while `active` is set."""

    def __init__(self):
        self.active = False
        self.command = -1
        self.spans: list = []        # [name, start, end, parent, command, info]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                self._stack.pop()
            span[2] = perf_counter()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every target wherever molsnet holds it; return missing targets."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "molsnet" or name.startswith("molsnet.")}
        missing = []
        for (module, function), info in TARGETS.items():
            home = modules.get(f"molsnet.{module}")
            original = getattr(home, function, None)
            if original is None:
                missing.append(f"{module}.{function}")
                continue
            wrapper = self.wrap(f"{module}.{function}", original, info)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return missing

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("files.parse_square_file.self_s", "s"),
    ("files.parse_square_file.bytes", "bytes"),
    ("files.serialize_square_file.s", "s"),
    ("squares.make_mols_family.self_s", "s"),
    ("squares.validate_latin.s", "s"),
    ("squares.validate_latin.calls", "count"),
    ("squares.validate_latin.per_square", "ratio"),
    ("orthogonality.verify_set_orthogonality.self_s", "s"),
    ("orthogonality.subsets", "count"),
    ("orthogonality.superimpose.s", "s"),
    ("orthogonality.superimpose.calls", "count"),
    ("orthogonality.superimpose.per_subset", "ratio"),
    ("orthogonality.is_t_orthogonal.s", "s"),
    ("orthogonality.is_t_orthogonal.cells", "count"),
    ("graphs.build_partite_graph.self_s", "s"),
    ("graphs.build_partite_graph.edges", "count"),
    ("graphs.build_partite_graph.rejected", "count"),
    ("graphs.graph_stats.s", "s"),
    ("graphs.edge_multiplicity.s", "s"),
    ("graphs.edge_multiplicity.parallel_edges", "count"),
    ("graphs.is_bipartite.s", "s"),
    ("graphs.channels_through.s", "s"),
    ("export.export_graph.dot.s", "s"),
    ("export.export_graph.edges.s", "s"),
    ("export.export_graph.json.s", "s"),
    ("export.export_graph.bytes", "bytes"),
)


def per_layer(groups: list[list], base: list) -> dict[str, float]:
    """Per-layer metrics: one traced set-up pass plus the mean traced round.

    Each group holds the (position, span) pairs of one traced round; base
    holds those of the traced set-up pass.
    """
    rounds = [aggregate(group) for group in groups]
    setup = aggregate(base)
    keys = set(setup).union(*rounds)
    merged = {key: setup.get(key, 0.0) + sum(r.get(key, 0.0) for r in rounds) / len(rounds)
              for key in keys}
    entering = merged.get("squares_entering", 0.0)
    subsets = merged.get("orthogonality.subsets", 0.0)
    merged["squares.validate_latin.per_square"] = (
        merged.get("squares.validate_latin.calls", 0.0) / entering if entering else 0.0)
    merged["orthogonality.superimpose.per_subset"] = (
        merged.get("superimpose_in_verify", 0.0) / subsets if subsets else 0.0)
    return {name: merged.get(name, 0.0) for name, _ in PER_LAYER}


def aggregate(spans: list) -> dict[str, float]:
    """Raw sums over spans given as (position, span) pairs from one recorder."""
    by_position = dict(spans)
    child_time: dict[int, float] = defaultdict(float)
    for _, (name, start, end, parent, _, _) in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for position, (name, start, end, parent, _, info) in spans:
        duration = end - start
        out[f"{name}.s"] += duration
        out[f"{name}.self_s"] += duration - child_time[position]
        out[f"{name}.calls"] += 1
        for key, value in (info or {}).items():
            if key == "format":
                out[f"{name}.{value}.s"] += duration
            elif key == "error":
                out[f"{name}.rejected"] += 1
            else:
                out[key] += value
        if name == "orthogonality.superimpose" and _under(by_position, parent,
                                                           "orthogonality.verify_set_orthogonality"):
            out["superimpose_in_verify"] += 1
    return out


def _under(by_position: dict, parent: int, name: str) -> bool:
    while parent >= 0 and parent in by_position:
        span = by_position[parent]
        if span[0] == name:
            return True
        parent = span[3]
    return False
