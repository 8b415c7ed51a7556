"""The tracer patches by module attribute and always puts the originals back."""
import inspect

import numpy as np
import pytest

from choreoqep import celsolve, numkernel
from perfbench import trace


def _originals():
    """Every traced function the program still has, with its owner."""
    out = {}
    for targets in trace.LAYERS.values():
        for target in targets:
            try:
                owner, attr = trace._resolve(target)
            except (AttributeError, ImportError):
                continue
            out[target] = (owner, attr, inspect.getattr_static(owner, attr))
    return out


def test_installed_restores_every_patched_attribute():
    before = _originals()
    assert before
    tracer = trace.Tracer()
    with tracer.installed():
        for owner, attr, original in before.values():
            assert inspect.getattr_static(owner, attr) is not original
    for owner, attr, original in before.values():
        assert inspect.getattr_static(owner, attr) is original
    assert tracer.missing.isdisjoint(before)


def test_restores_when_the_body_raises():
    original = numkernel.solve_square
    with pytest.raises(RuntimeError):
        with trace.Tracer().installed():
            raise RuntimeError("boom")
    assert numkernel.solve_square is original


def test_missing_name_is_absent_not_fatal():
    layers = {"numkernel.gone": ["numkernel:no_such_function"],
              "numkernel.solve_square": ["numkernel:solve_square"]}
    tracer = trace.Tracer(layers)
    with tracer.installed():
        numkernel.solve_square(np.eye(2), np.ones(2))
        with pytest.raises(numkernel.Singular):
            numkernel.solve_square(np.zeros((2, 2)), np.ones(2))
    assert tracer.missing == {"numkernel:no_such_function"}
    metrics = tracer.metrics(tracer.self_times(), attempted=2)
    assert not any(name.startswith("numkernel.gone") for name in metrics)
    assert metrics["numkernel.solve_square.calls"] == (2, "count")
    assert metrics["numkernel.solve_square.failed"] == (1, "count")


def test_self_time_excludes_child_spans_and_methods_are_wrapped():
    tracer = trace.Tracer()
    exp = celsolve.ModeExpansion(np.zeros(1), [1j], [[1.0]])
    with tracer.installed():
        exp.value(np.linspace(0.0, 1.0, 5))
    g = tracer.groups.index("celsolve.expansion_eval")
    assert tracer.calls[g] == 1
    tracer.spans[:] = [(0, 0.0, 1.0, -1), (1, 0.25, 0.5, 0)]
    self_s = tracer.self_times()
    assert self_s[0] == 0.75 and self_s[1] == 0.25
