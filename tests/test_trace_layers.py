"""The benchmark's tracer must keep finding every layer it declares.

`perfbench/trace.py` patches program functions by name and skips a group whose
functions are gone, so a renamed or moved function silently drops that group's
metrics from a traced run.  These checks fail first: every traced target must
resolve, and a trace with every group present must name every per-layer metric
that BENCHMARK.json declares (the tracer's own overhead is reported elsewhere).
"""
import json
from pathlib import Path

import pytest

from perfbench import trace

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.mark.parametrize("target", [t for targets in trace.LAYERS.values() for t in targets])
def test_every_traced_function_resolves(target):
    owner, attr = trace._resolve(target)
    assert callable(getattr(owner, attr))


def test_a_full_trace_names_every_declared_per_layer_metric():
    tracer = trace.Tracer()
    tracer.present = set(tracer.groups)
    named = set(tracer.metrics([0.0] * len(tracer.groups), attempted=1))
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert {name for name in declared if not name.startswith("trace.overhead_")} <= named
