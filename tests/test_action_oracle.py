"""The discrete equations as the stationarity conditions of the discrete action.

`reference.action` assembles the Hessian H and the linear term b of the action from the
weights and the spec alone (sparse Kronecker products: no window table, symbol or
equation block of the package).  `residual_del` and `delsolve.residuals` must be
-(H x + b) at every node, the boundary layers included, to 1e-13 of the size of the terms
each equation sums: each particle's equations are its block, x_s's the sum over
particles.  The draws are the typed-outcome ones (d 1..8,
with and without J5, real and complex weights with N = 1..2, grids of 2 to 41 nodes, so
fewer than 4N + 1 too), with J6 and J7 switched on.
"""
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from choreoqep import delsolve

from reference import action_gradient
from test_typed_outcomes import complex_normal, delays, specs, weight_families


@settings(derandomize=True, max_examples=100, deadline=None)
@given(specs(), weight_families(), delays, st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_residuals_are_minus_the_action_gradient(spec, family, eps, M, seed):
    op, n, d, rng = family(eps), spec.n, spec.d, np.random.default_rng(seed)
    spec = dataclasses.replace(spec, J6=rng.standard_normal(d), J7=rng.standard_normal(d))
    vals = complex_normal(rng, (n, M + 1, d))
    xs_vals = vals.sum(axis=0)
    want_p = -action_gradient(spec, op, n, vals)
    want_xs = want_p.sum(axis=0)
    r_xs, r_p = delsolve.residuals(spec, op, n, vals, xs_vals, np.arange(M + 1))
    grid = delsolve.TrajectoryGrid(0.0, eps, vals)
    ones = [delsolve.residual_del(spec, op, n, grid, m, xs_vals) for m in range(M + 1)]
    # relative to the size of the terms each equation sums, which can cancel: with
    # x_s = x_1 (n = 1) the particle equation's (J1 - 2 J3) boxbox x + 2 J3 boxbox x_s is
    # J1 boxbox x, and 0 when J1 = 0
    norm = lambda a: np.abs(np.atleast_2d(a)).sum(axis=1).max()  # max row sum
    g = np.abs(op.gamma).sum() / eps  # bounds D/eps in that norm
    terms = n * (np.abs(vals).max() * (
        g**2 * (norm(spec.J1) + 2 * n * norm(spec.J3)) + 2 * g * norm(spec.J5)
        + norm(spec.J2) + 2 * n * norm(spec.J4)) + g * norm(spec.J6) + norm(spec.J7))
    for got_xs, got_p in ((r_xs, r_p), (np.array([r.xs for r in ones]),
                                        np.stack([r.particles for r in ones], axis=1))):
        assert np.abs(got_xs - want_xs).max() <= 1e-13 * terms
        assert np.abs(got_p - want_p).max() <= 1e-13 * terms
