"""Shared fixtures: the reference d=2 system and frequently used operators."""
import numpy as np
import pytest

from choreoqep import model, pencil
from choreoqep.model import LagrangianSpec

J1 = np.array([[7.0, 2.0], [2.0, 7.0]])
J2 = np.array([[5.0, -1.0], [-1.0, 5.0]])
J3 = np.array([[8.0, 1.0], [1.0, 8.0]])


def make_reference_spec(n=3, omega=(2.0, 5.0), j4_free=None):
    """d=2 benchmark system: J4 constructed so the nu=0 roots are {±i w1, ±i w2}."""
    if j4_free is None:
        j4_free = max(omega) ** 2
    j4 = model.construct_j4(J1, J2, J3, omega[0], omega[1], j4_free)
    return LagrangianSpec(2, n, J1, J2, J3, j4)


def make_gyroscopic_spec():
    """The reference system with a skew J5, so that the sigma1 term contributes."""
    spec = make_reference_spec()
    return LagrangianSpec(2, 3, spec.J1, spec.J2, spec.J3, spec.J4,
                          np.array([[0.0, 0.7], [-0.7, 0.0]]))


def make_oscillator_spec(omega=1.0, n=1):
    """d=1 harmonic oscillator: J1 = 1, J2 = -omega^2, everything else zero."""
    return LagrangianSpec(1, n, [[1.0]], [[-omega**2]], [[0.0]], [[0.0]])


def make_curve_spec(omega=(4.0, 10.0), n=3):
    """d=2 family with uncoupled kinetic blocks (J1 = I, J3 = 0, J2 = -67 I).

    For targets (4, 10) and n = 3 the summed-variable spectrum comes out as
    {±i, ±13i}, so the union of both spectra is integer-commensurable.
    """
    j1 = np.eye(2)
    j2 = -67.0 * np.eye(2)
    j3 = np.zeros((2, 2))
    j4 = model.construct_j4(j1, j2, j3, omega[0], omega[1], max(omega) ** 2)
    return LagrangianSpec(2, n, j1, j2, j3, j4)


def make_discrete_tuned_spec_d3(op, omegas=(1.0, 2.0, 3.0), n=5):
    """d=3 system whose *discrete* nu=0 spectrum contains ±i w for each target.

    K's eigenvalues are placed at the operator symbol values theta(i w); with
    the plain central difference and eps = pi/q the remaining discrete phases
    are ±i(q - w), so the whole spectrum is integer-commensurable.
    """
    from reference import symbol_theta
    kappa = [symbol_theta(op, 1j * w).real for w in omegas]
    j1 = np.eye(3)
    j2 = -np.eye(3)
    j3 = np.zeros((3, 3))
    j4 = 0.5 * j2 + 0.5 * np.diag(kappa)
    return LagrangianSpec(3, n, j1, j2, j3, j4)


def make_spread_spec(d=32, seed=2011):
    """A seeded d-dimensional system (n = 2, J5 = 0) whose nu = 0 roots are exactly +-i w
    for d frequencies w evenly spread over [0.5, 2]: with A = L L^T and
    K = L Q diag(w^2) Q^T L^T, J1 = A + 2 J3 and J2 = 2 J4 - K for small symmetric J3, J4."""
    rng = np.random.default_rng(seed)
    omega = np.linspace(0.5, 2.0, d)
    g = rng.standard_normal((d, d))
    lower = np.linalg.cholesky(g @ g.T / d + np.eye(d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    k = lower @ q @ np.diag(omega**2) @ q.T @ lower.T
    j3, j4 = (0.025 * (s + s.T) for s in rng.standard_normal((2, d, d)))
    return LagrangianSpec(d, 2, lower @ lower.T + 2.0 * j3, 2.0 * j4 - (k + k.T) / 2.0, j3, j4)


def record_eigenpair_blocks(monkeypatch):
    """Wrap pencil._eigenpairs; returns the list of block shapes it is called on."""
    shapes = []
    original = pencil._eigenpairs

    def recorded(blocks):
        shapes.append(blocks.shape)
        return original(blocks)

    monkeypatch.setattr(pencil, "_eigenpairs", recorded)
    return shapes


@pytest.fixture
def ref_spec():
    return make_reference_spec()


@pytest.fixture
def oscillator():
    return make_oscillator_spec()
