"""Typed outcomes of the spectrum and grid entry points on well-formed input.

`transcendental_spectrum` and `epsilon_sweep`, on drawn specs (d 1..8, with and
without J5), real and complex weights with N = 1..2 and delays in [1e-4, 0.3],
either return finite roots or raise one of the documented exceptions, and print
nothing to the process's standard output.  So do the grid entry points on grids
of 2 to 41 nodes (fewer than 4N + 1 included): `residual_del` at every node is
`residuals` over all nodes, the march and the discrete solves return finite
values or raise one of their documented exceptions.  The continuous solves
(`dirichlet_cel`, `general_solution_cel`) and both choreography builders, sampled over
their interval, give finite values or raise one of the errors the CLI documents; the
builders get amplitudes on every mode, on one mode, or on about half of them.
"""
import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from choreoqep import celsolve, cli, convergence, delsolve, numkernel, pencil, periodic
from choreoqep.model import LagrangianSpec, validate_spec
from choreoqep.scaleop import ScaleOperator

DOCUMENTED = (pencil.LeadingSingular, numkernel.NumericalFailure)
MARCH_ERRORS = (numkernel.NumericalFailure, delsolve.LeadingBlockSingular,
                delsolve.WindowExceeded)
SOLVE_ERRORS = cli.ASSUMPTION_ERRORS + cli.NUMERICAL_ERRORS


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
            sp = pencil.transcendental_spectrum(spec, family(eps), nu)
        except DOCUMENTED:
            continue
        assert len(sp.roots) == 4 * family(eps).N * spec.d
        for roots in (sp.lam, sp.roots):
            assert np.isfinite(roots.roots).all() and np.isfinite(roots.vectors).all()
    try:
        sweep = convergence.epsilon_sweep(spec, family, nu, epsilons)
    except DOCUMENTED:
        pass
    else:
        valid = np.isfinite(sweep.distances)
        assert np.isfinite(sweep.pencil_errors[valid]).all()
        assert all(note is not None for note, ok in zip(sweep.notes, valid) if not ok)
        assert math.isnan(sweep.estimated_order) or np.isfinite(sweep.estimated_order)
    assert capfd.readouterr().out == ""


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs(), weight_families(), delays, st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_grid_entry_points_are_finite_or_a_documented_failure(capfd, spec, family, eps, M,
                                                              seed):
    op, n, d, rng = family(eps), spec.n, spec.d, np.random.default_rng(seed)
    vals = complex_normal(rng, (n, M + 1, d))
    xs_vals = vals.sum(axis=0)
    grid = delsolve.TrajectoryGrid(0.0, eps, vals)
    r_xs, r_p = delsolve.residuals(spec, op, n, vals, xs_vals, np.arange(M + 1))
    assert np.isfinite(r_xs).all() and np.isfinite(r_p).all()
    scale = max(np.abs(r_xs).max(), np.abs(r_p).max())
    for m in range(M + 1):
        one = delsolve.residual_del(spec, op, n, grid, m, xs_vals)
        assert np.abs(one.xs - r_xs[m]).max() <= 1e-14 * scale
        assert np.abs(one.particles - r_p[:, m]).max() <= 1e-14 * scale
    seeds = complex_normal(rng, (1 + n, 4 * op.N, d))
    try:
        marched, xs = delsolve.recurrence_march(spec, op, n, seeds[0], seeds[1:], M)
    except MARCH_ERRORS:
        pass
    else:
        assert np.isfinite(marched.values).all() and np.isfinite(xs).all()
    K = 4 * op.N * d
    solves = (lambda: delsolve.dirichlet_del(spec, op, n, 0.0, M, seeds[1:, :2 * op.N],
                                             seeds[1:, 2 * op.N:])[0],
              lambda: delsolve.general_solution_del(spec, op, n, complex_normal(rng, K),
                                                    complex_normal(rng, (n - 1, K)), 0.0, M))
    for solve in solves:
        try:
            sampled, xs = solve().sample()
        except SOLVE_ERRORS:
            continue
        assert np.isfinite(sampled.values).all() and np.isfinite(xs).all()
    assert capfd.readouterr().out == ""


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs(), weight_families(), delays, st.floats(0.1, 20.0),
       st.sampled_from(["all", "one", "half"]), st.integers(0, 2**32 - 1))
def test_continuous_solves_and_choreographies_are_finite_or_a_documented_failure(
        capfd, spec, family, eps, span, active, seed):
    op, n, d, rng = family(eps), spec.n, spec.d, np.random.default_rng(seed)
    times, M = np.linspace(0.0, span, 33), max(1, round(span / eps))

    def amplitudes(size):
        keep = {"all": np.ones(size, dtype=bool), "one": np.arange(size) == rng.integers(size),
                "half": rng.random(size) < 0.5}[active]
        return complex_normal(rng, size) * keep

    def values(sol):
        return [e.value(times) for e in (sol.xs, *sol.particles)]

    def choreography(ch, sol):
        return [ch.u.value(times), ch.T, *values(sol)]

    K = 2 * d
    runs = (lambda: values(celsolve.dirichlet_cel(spec, n, 0.0, span, complex_normal(rng, (n, d)),
                                                  complex_normal(rng, (n, d)))[0]),
            lambda: values(celsolve.general_solution_cel(spec, n, complex_normal(rng, K),
                                                         complex_normal(rng, (n - 1, K)))),
            lambda: choreography(*periodic.build_choreography_cel(spec, n, amplitudes(K))),
            lambda: choreography(*periodic.build_choreography_del(
                spec, op, n, amplitudes(2 * op.N * K), 0.0, M)))
    for run in runs:
        try:
            out = run()
        except SOLVE_ERRORS:
            continue
        assert all(np.isfinite(v).all() for v in out)
    assert capfd.readouterr().out == ""
