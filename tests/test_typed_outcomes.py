"""Typed outcomes of the spectrum entry points on well-formed input.

`transcendental_spectrum` and `epsilon_sweep`, on drawn specs (d 1..8, with and
without J5), real and complex weights with N = 1..2 and delays in [1e-4, 0.3],
either return finite roots or raise one of the documented exceptions, and print
nothing to the process's standard output.
"""
import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from choreoqep import convergence, numkernel, pencil
from choreoqep.model import LagrangianSpec, validate_spec
from choreoqep.scaleop import ScaleOperator

DOCUMENTED = (pencil.LeadingSingular, pencil.DegenerateRoots, numkernel.NumericalFailure)


@st.composite
def specs(draw):
    """Symmetric J1..J4 (J1 near the identity, random or singular) and a skew J5 or
    none."""
    d, n = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sym(scale):
        a = scale * rng.standard_normal((d, d))
        return (a + a.T) / 2

    j1 = draw(st.sampled_from([lambda: np.eye(d) + sym(0.1), lambda: sym(1.0),
                               lambda: np.diag(np.r_[rng.uniform(1, 2, d - 1), 0.0])]))()
    j5 = None
    if draw(st.booleans()):
        a = rng.standard_normal((d, d))
        j5 = draw(st.sampled_from([0.1, 1.0])) * (a - a.T) / 2
    spec = LagrangianSpec(d, n, j1, sym(2.0), sym(0.1), sym(0.5), j5)
    assert validate_spec(spec) == []
    return spec


@st.composite
def weight_families(draw):
    """eps -> ScaleOperator with 2N+1 weights, N = 1..2: antisymmetric, or random with
    sum zero and sum j gamma_j = 1; real or complex; sometimes gamma_-N = 0."""
    N = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = rng.standard_normal(2 * N + 1)
    if draw(st.booleans()):
        gamma = gamma + 1j * draw(st.sampled_from([0.05, 0.5])) * rng.standard_normal(2 * N + 1)
    if draw(st.booleans()):
        gamma = (gamma - gamma[::-1]) / 2
    gamma = gamma - gamma.mean()
    moment = np.arange(-N, N + 1) @ gamma
    if moment != 0:
        gamma = gamma / moment
    if draw(st.sampled_from([False] * 4 + [True])):
        gamma[0] = 0
    return lambda eps: ScaleOperator(gamma, eps)


delays = st.floats(1e-4, 0.3)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs(), weight_families(), st.lists(delays, min_size=1, max_size=4),
       st.sampled_from([0.0, 1.0, 3.0]))
def test_spectra_are_finite_or_a_documented_failure(capfd, spec, family, epsilons, nu):
    for eps in epsilons:
        try:
            sp = pencil.transcendental_spectrum(pencil.transcendental_pencil(spec, family(eps),
                                                                             nu))
        except DOCUMENTED:
            continue
        assert len(sp) == 4 * family(eps).N * spec.d
        for roots in (sp.lam, sp.zeta):
            assert np.isfinite(roots.roots).all() and np.isfinite(roots.vectors).all()
    try:
        sweep = convergence.epsilon_sweep(spec, family, nu, epsilons)
    except DOCUMENTED:
        pass
    else:
        valid = sweep.valid()
        assert np.isfinite(sweep.pencil_errors[valid]).all()
        assert all(note is not None for note, ok in zip(sweep.notes, valid) if not ok)
        assert math.isnan(sweep.estimated_order) or np.isfinite(sweep.estimated_order)
    assert capfd.readouterr().out == ""
