"""A seeded census of d = 2 choreographies in both settings.

Each draw is a system whose nu = 0 roots `model.construct_j4` puts on two targets
base (p, q), p, q <= 6, equal in about one draw of five:
- S = J1 - 2 J3 is g g^T + 0.5 I, its negative, or an indefinite R diag(a, -b) R^T;
- J2 and J3 are random symmetric, and J5 is on or off;
- j4_free lies between the setting's two target squares (omega^2 in continuous time,
  (|h|/eps)^2 on the grid), so that equal targets take their square;
- n = 2..6 particles, and on the grid M in {64, 128, 256} steps of eps = 2 pi/(base M)
  under the central difference, the 5-point operator, `k_family` or generic real weights
  (-(1 + g0)/2, g0, (1 - g0)/2).

Each draw is built in continuous time and on its grid, the grid's choreography on the
modes that sit on the targets.  Every build either verifies with the period
2 pi/(base gcd(p, q)), or is refused by an error that names its cause.  Measured on the
400 draws (distinct targets; equal targets):

| setting | ok | NoRealSolution | DelayResonant | NotChoreographic | complex weights |
|---|---|---|---|---|---|
| continuous | 147; 46 | 77; 35 | 91; 0 | 0; 4 | - |
| grid | 119; 37 | 59; 27 | 60; 0 | 0; 4 | 77; 17 |

The eight NotChoreographic refusals are double roots with J5 != 0, split off the imaginary
axis by rounding ("spectrum is not purely imaginary").
"""
import math
from collections import Counter

import numpy as np

from choreoqep import pencil, periodic
from choreoqep.model import LagrangianSpec, NoRealSolution, SymmetryInfeasible, construct_j4
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

REFUSALS = (NoRealSolution, SymmetryInfeasible, periodic.NotChoreographic,
            periodic.DelayResonant)


def symmetric(rng):
    a = rng.standard_normal((2, 2))
    return a + a.T


def operator(rng, eps):
    kind = rng.integers(4)
    if kind == 0:
        return central_difference(eps)
    if kind == 1:
        return ScaleOperator(np.array([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]), eps)
    if kind == 2:
        return k_family(eps, float(rng.uniform(-1.0, 1.0)))
    g0 = float(rng.uniform(-0.5, 0.5))
    return ScaleOperator(np.array([-(1.0 + g0) / 2, g0, (1.0 - g0) / 2]), eps)


def draw(rng):
    """(J1, J2, J3, J5, targets, u, n, M, op, period): j4_free is at the fraction u from
    the first target square to the second."""
    g, kind, angle = rng.standard_normal((2, 2)), rng.integers(3), rng.uniform(0.0, math.pi)
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    S = (rotation * (rng.uniform(0.5, 3.0, size=2) * [1.0, -1.0])) @ rotation.T if kind == 2 \
        else (1.0 - 2.0 * kind) * (g @ g.T + 0.5 * np.eye(2))
    J2, J3 = symmetric(rng), symmetric(rng)
    j = float(rng.uniform(-1.5, 1.5))
    J5 = np.array([[0.0, j], [-j, 0.0]]) if rng.integers(2) else np.zeros((2, 2))
    base = float(rng.uniform(0.5, 2.0))
    p = int(rng.integers(1, 7))
    q = p if rng.integers(5) == 0 else int(rng.choice([k for k in range(1, 7) if k != p]))
    n, M, u = int(rng.integers(2, 7)), int(rng.choice([64, 128, 256])), rng.uniform()
    op = operator(rng, 2.0 * math.pi / (base * M))
    return (S + 2.0 * J3, J2, J3, J5, (base * p, base * q), u, n, M, op,
            2.0 * math.pi / (base * math.gcd(p, q)))


def free(omega, u, op=None):
    """j4_free at the fraction u between the target squares w^2: omega^2 in continuous
    time, (|h|/eps)^2 on op's grid, h = sum_j gamma_j e^{i j omega eps}."""
    w1, w2 = np.square(omega) if op is None else np.abs(
        np.exp(1j * op.epsilon * np.outer(omega, np.arange(-op.N, op.N + 1))) @ op.gamma
        / op.epsilon) ** 2
    return float(w1 + u * (w2 - w1))


def continuous(J1, J2, J3, J5, omega, u, n):
    spec = LagrangianSpec(2, n, J1, J2, J3, construct_j4(J1, J2, J3, *omega, free(omega, u),
                                                         J5), J5)
    return *periodic.build_choreography_cel(spec, n, np.ones(4)), spec


def grid(J1, J2, J3, J5, omega, u, n, M, op):
    spec = LagrangianSpec(2, n, J1, J2, J3, construct_j4(
        J1, J2, J3, *omega, free(omega, u, op), J5, op), J5)
    lam = pencil.transcendental_spectrum(spec, op, 0).lam.roots
    on_target = np.isclose(np.abs(lam.imag)[:, None], omega, rtol=1e-6, atol=0).any(axis=1)
    return *periodic.build_choreography_del(spec, op, n, on_target, 0.0, M), spec


def outcome(build, period) -> str:
    """"ok" for a build that verifies with the period, else the refusal's class name."""
    try:
        ch, sol, spec = build()
    except REFUSALS as exc:
        assert str(exc), type(exc).__name__  # a reason
        return type(exc).__name__
    except ValueError as exc:
        assert "real operator weights" in str(exc), exc  # k_family on the grid
        return "complex weights"
    assert periodic.verify_choreography(ch, sol, spec).all_ok
    assert abs(ch.T - period) <= 1e-9 * period, (ch.T, period)
    return "ok"


def test_every_seeded_choreography_verifies_or_names_its_refusal():
    rng = np.random.default_rng(28)
    tally = Counter()
    for _ in range(400):
        J1, J2, J3, J5, omega, u, n, M, op, period = draw(rng)
        equal = omega[0] == omega[1]
        tally["continuous", equal, outcome(
            lambda: continuous(J1, J2, J3, J5, omega, u, n), period)] += 1
        tally["grid", equal, outcome(
            lambda: grid(J1, J2, J3, J5, omega, u, n, M, op), period)] += 1
    for setting in ("continuous", "grid"):  # distinct and equal targets build in both
        assert tally[setting, False, "ok"] > 0 and tally[setting, True, "ok"] > 0
