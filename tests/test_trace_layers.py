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

from choreoqep import cli
from perfbench import trace

from conftest import make_reference_spec

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


@pytest.mark.parametrize("argv", [["validate"], ["spectrum", "--which", "del"],
                                  ["solve", "--which", "del"], ["error-surface", "--grid", "k"],
                                  ["converge"], ["choreo"]], ids=lambda argv: argv[0])
def test_each_command_runs_through_its_traced_function(tmp_path, argv):
    """`cli.main` looks its command up in the module when it runs, so the wrapper the
    tracer sets on `cli.cmd_*` counts one `cli.command` call; a table of the functions
    built at import would count none."""
    spec = make_reference_spec()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "d": spec.d, "n": spec.n,
        **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
        "time": {"t0": 0.0, "tf": 1.0, "M": 40}, "operator": {"family": "central"},
        "boundary": {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
                     "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]},
        "sweep": {"k_grid": {"ks": [0.0]}, "epsilons": [0.1, 0.05, 0.025]},
        "choreo": {"which": ["cel"]}}))
    tracer = trace.Tracer()
    with tracer.installed():
        assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert tracer.calls[tracer.groups.index("cli.command")] == 1
