"""The benchmark's trace targets name functions that molsnet still has.

perfbench/tracing.py wraps each (module, function) of its TARGETS; a target
that no longer resolves is only reported on stderr, and its metrics read 0.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_trace_target_is_a_molsnet_callable():
    targets = _targets()
    assert targets
    missing = [f"{module}.{function}" for module, function in targets
               if not callable(getattr(importlib.import_module(f"molsnet.{module}"),
                                       function, None))]
    assert missing == []
