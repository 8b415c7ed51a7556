"""A seeded census of discrete Dirichlet solves against a sparse solve of the action.

Each draw is a system with d in {1, 2, 4}, n = 1..3 particles, J1 near the identity,
random symmetric J2..J4, a skew J5 or none and random J6, J7, under the central
difference, the 5-point operator or generic real weights (-(1 + g0)/2, g0, (1 - g0)/2),
on M in 4N+1..400 steps over an interval of length 0.5..2, with random complex head and
tail data.  `delsolve.dirichlet_del` either raises one of the errors the CLI documents, or
its samples at the interior nodes 2N..M-2N are those of an independent solve:
`scipy.sparse.linalg.splu` of `reference.action`'s H on the interior unknowns, with the
head and tail nodes fixed, i.e. the discrete equations as the stationarity of the action.

Both solves are backward stable, so they differ within the conditioning of either: the
bound is max |x - x_ref| / max |x_ref| <= 50 u kappa, u = 2^-52 and kappa the largest of
the 1-norm condition estimate of H on the interior unknowns
(`scipy.sparse.linalg.onenormest`) and the boundary systems' condition numbers that the
solve reports.  Measured: the worst of the 80 draws here is 2.3 u kappa (d = 1, n = 2,
M = 29, kappa = 99), and at most 1.1 u kappa on 1,200 more draws (seeds 1..4, 300
each).  Relative errors reach 3.8e-10 where kappa is 5.9e7.  No draw was refused.

In continuous time `celsolve.dirichlet_cel` is held to `reference.dirichlet_cel_mp`, a
50-digit solve of the stacked equations by matrix exponentials, on eight draws: each
draw's spec, t0 and interval length, its first head row as x_t0 and last tail row as x_tf,
J7 zeroed on every other draw, and the interval of a draw whose fastest growth rate
r = max Re lam is at least 1 stretched to r (tf - t0) = 12.  The bound is 50 u kappa
(1 + rho (tf - t0)), kappa the boundary systems' condition numbers that the solve reports
and rho = max |lam|: a mode's phase lam (t - a) carries a rounding error of about
u |lam (t - a)| in any double-precision evaluation, which kappa does not count.  Measured
(seeds 1..16, 128 draws): at most 2.8 u kappa (1 + rho L), and without the phase term up
to 273 u kappa, on this seed's draw 6 (d = 2, n = 2, phases +-9.53i over L = 10.2).
"""
from dataclasses import replace

import numpy as np
import scipy.sparse.linalg as spla

from choreoqep import celsolve, delsolve, numkernel, pencil
from choreoqep.model import LagrangianSpec
from choreoqep.scaleop import ScaleOperator

from reference import action, dirichlet_cel_mp, stacked_phases

DRAWS = 80
CEL_DRAWS = 8
BOUND = 50.0  # in units of u kappa


def symmetric(rng, d, scale):
    a = scale * rng.standard_normal((d, d))
    return (a + a.T) / 2


def draw(rng):
    """(spec, op, t0, M, head, tail) of one census draw."""
    d, n = int(rng.choice([1, 2, 4])), int(rng.integers(1, 4))
    j5 = None
    if rng.integers(2):
        a = rng.standard_normal((d, d))
        j5 = (a - a.T) / 2
    spec = LagrangianSpec(d, n, np.eye(d) + symmetric(rng, d, 0.2), symmetric(rng, d, 2.0),
                          symmetric(rng, d, 0.2), symmetric(rng, d, 0.5), j5,
                          rng.standard_normal(d), rng.standard_normal(d))
    kind = rng.integers(3)
    if kind == 0:
        gamma = [-0.5, 0.0, 0.5]
    elif kind == 1:
        gamma = [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]
    else:
        g0 = float(rng.uniform(-0.5, 0.5))
        gamma = [-(1.0 + g0) / 2, g0, (1.0 - g0) / 2]
    N = (len(gamma) - 1) // 2
    M = int(rng.integers(4 * N + 1, 401))
    op = ScaleOperator(np.array(gamma), float(rng.uniform(0.5, 2.0)) / M)
    head, tail = (rng.standard_normal((n, 2 * N, d)) + 1j * rng.standard_normal((n, 2 * N, d))
                  for _ in range(2))
    return spec, op, float(rng.uniform(-1.0, 1.0)), M, head, tail


def reference_solve(spec, op, M, head, tail) -> tuple:
    """(values (n, M+1, d), 1-norm condition estimate of H on the interior unknowns) of
    the grid function with the given head and tail whose action gradient H x + b vanishes
    at the interior nodes."""
    n, N, d = spec.n, op.N, spec.d
    H, b = action(spec, op, n, M)
    x = np.zeros((n, M + 1, d), dtype=complex)
    x[:, :2 * N], x[:, M - 2 * N + 1:] = head, tail
    inner = np.zeros(x.shape, dtype=bool)
    inner[:, 2 * N:M - 2 * N + 1] = True
    inner, flat = inner.ravel(), x.ravel()
    rows = H[inner].astype(complex)
    lu = spla.splu(rows[:, inner].tocsc())
    flat[inner] = lu.solve(-(b[inner] + rows[:, ~inner] @ flat[~inner]))
    inverse = spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=complex,
                                  rmatvec=lambda y: lu.solve(y, trans="H"))
    return x, spla.norm(rows[:, inner], 1) * spla.onenormest(inverse)


def test_dirichlet_solves_match_a_sparse_solve_of_the_action_or_raise_a_typed_error():
    rng, u = np.random.default_rng(24), np.finfo(float).eps
    refused, disagreeing = [], []
    for i in range(DRAWS):
        spec, op, t0, M, head, tail = draw(rng)
        try:
            sol, report = delsolve.dirichlet_del(spec, op, spec.n, t0, M, head, tail)
            values = sol.sample()[0].values
        except (pencil.AssumptionViolation, numkernel.NumericalFailure) as exc:
            refused.append((i, type(exc).__name__))
            continue
        want, cond = reference_solve(spec, op, M, head, tail)
        kappa = max(cond, report.xs_cond, *report.particle_conds)
        error = np.abs(values - want).max() / np.abs(want).max()
        if not error <= BOUND * u * kappa:
            disagreeing.append((i, error, kappa))
    assert disagreeing == []
    assert len(refused) <= DRAWS // 10, refused


def test_continuous_dirichlet_solves_match_a_50_digit_referee():
    rng, u = np.random.default_rng(6), np.finfo(float).eps
    grown, disagreeing = 0, []
    for i in range(CEL_DRAWS):
        spec, op, t0, M, head, tail = draw(rng)
        if i % 2:
            spec = replace(spec, J7=np.zeros(spec.d))
        phases, length = stacked_phases(spec, spec.n), M * op.epsilon
        if phases.real.max() >= 1.0:
            length, grown = 12.0 / phases.real.max(), grown + 1
        tf, times = t0 + length, t0 + length * np.array([0.25, 0.5, 0.75])
        sol, report = celsolve.dirichlet_cel(spec, spec.n, t0, tf, head[:, 0], tail[:, -1])
        values = np.array([p.value(times) for p in sol.particles])
        want = dirichlet_cel_mp(spec, spec.n, t0, tf, head[:, 0], tail[:, -1], times)
        kappa = max([report.xs_cond, *report.particle_conds])
        error = np.abs(values - want).max() / np.abs(want).max()
        if not error <= BOUND * u * kappa * (1.0 + np.abs(phases).max() * length):
            disagreeing.append((i, error, kappa))
    assert grown >= 2 and disagreeing == []
