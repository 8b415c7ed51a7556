"""Quadratic n-particle Lagrangian data and derived quantities.

A system of n particles in R^d is described by coefficient matrices J1..J5
(single-particle kinetic/potential/gyroscopic blocks) and J3, J4 pair
couplings, plus linear terms J6, J7.  The solvers assume the constant-
coefficient regime with J1..J4 symmetric and J5 skew-symmetric.  Besides the spec this
holds what is derived from it alone: its structural check, the energy of given positions
and velocities, and the J4 (d = 2) that puts the nu = 0 roots on two target frequencies,
J5 counted, in continuous time or on a scale operator's grid: one construction, the
targets entering through the operator's symbols (`construct_j4`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkernel


class NoRealSolution(Exception):
    """Raised when the pair-coupling construction needs the root of a negative number."""


class SymmetryInfeasible(Exception):
    """Raised when no real coupling matrix satisfies the symmetry constraint."""


def _checked(a, shape: tuple, name: str) -> np.ndarray:
    """A read-only float copy of a in the given shape; a vector may come in any shape."""
    m = np.array(a, dtype=float)
    m = m.ravel() if len(shape) == 1 else m
    if m.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class LagrangianSpec:
    """Dimensions (n, d) plus the coefficient matrices and vectors, held as read-only
    copies: arrays derived from them can be kept for the life of the spec."""

    d: int
    n: int
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray
    J4: np.ndarray
    J5: np.ndarray = None
    J6: np.ndarray = None
    J7: np.ndarray = None

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be >= 1")
        for name in ("J1", "J2", "J3", "J4", "J5", "J6", "J7"):
            shape = (self.d,) if name in ("J6", "J7") else (self.d, self.d)
            value = getattr(self, name)
            object.__setattr__(self, name, _checked(np.zeros(shape) if value is None
                                                    else value, shape, name))
        object.__setattr__(self, "_derived", {})  # arrays solvers derive from these, by key


def validate_spec(spec: LagrangianSpec) -> list[str]:
    """The failed structural requirements, [] when all hold: J1..J4 symmetric and J5
    skew-symmetric to 1e-12, each failure as "<matrix>: asymmetry <magnitude>"."""
    out = []
    for name, sign in (("J1", -1), ("J2", -1), ("J3", -1), ("J4", -1), ("J5", 1)):
        m = getattr(spec, name)
        mag = float(np.abs(m + sign * m.T).max())
        if mag > 1e-12:
            out.append(f"{name}: asymmetry {mag:.3e}")
    return out


def energy(spec: LagrangianSpec, positions, velocities) -> float:
    """Conserved energy at the given positions and velocities, each (n, d) with one row a
    particle: the Jacobi integral sum v·dL/dv − L, in which the velocity-linear terms
    x·J5 v and J6·v cancel, so that it is conserved for any J5.

    1/2 V·J8 V − 1/2 X·J9 X − J7·sum_j x_j over the stacked positions X and velocities V,
    with the nd x nd block forms J8 (J1 on the diagonal blocks, 2 J3 off them) and J9 (J2,
    2 J4).
    """
    x, v = np.asarray(positions, dtype=float), np.asarray(velocities, dtype=float)
    for name, a in (("positions", x), ("velocities", v)):
        if a.shape != (spec.n, spec.d):
            raise ValueError(f"{name} shape {a.shape} does not match (n, d) = "
                             f"{(spec.n, spec.d)}")
    eye = np.eye(spec.n)
    j8, j9 = (np.kron(eye, own) + np.kron(np.ones((spec.n, spec.n)) - eye, 2.0 * pair)
              for own, pair in ((spec.J1, spec.J3), (spec.J2, spec.J4)))
    X, V = x.ravel(), v.ravel()
    return float(0.5 * V @ j8 @ V - 0.5 * X @ j9 @ X - spec.J7 @ x.sum(axis=0))


def construct_j4(J1, J2, J3, omega1: float, omega2: float, j4_free: float,
                 J5=None, op=None) -> np.ndarray:
    """Pair-coupling matrix making the nu = 0 roots +-i omega1, +-i omega2: in continuous
    time when op is None, else on the grid of the operator op.

    Only defined for d = 2.  Writes J4 = J2/2 + S K / 2 with S = J1 - 2 J3 and solves for
    K = [[k1, k2], [k3, j4_free]] under symmetry of S K and, with J5 = j [[0, 1], [-1, 0]]
    (zero when not given) and c = j^2 / det S, w_k^4 - (tr K + 4c) w_k^2 + det K = c r_k at
    each target: det P_0 vanishes there.  w = omega and r = 0 in continuous time; on the
    grid (real weights) w = |h|/eps and r = -4 (Re h)^2/eps^2, h = sum_j gamma_j e^{i j omega
    eps}, from the symbols |h|^2/eps^2 of -lam^2 and 2 |Im h|/eps of |2 lam|.  One target
    given twice (r != 0) takes the omega-derivative of its equation as the second, which
    makes its root double.
    """
    S = np.asarray(J1, dtype=float) - 2.0 * np.asarray(J3, dtype=float)
    J2 = np.asarray(J2, dtype=float)
    J5 = np.zeros((2, 2)) if J5 is None else np.asarray(J5, dtype=float)
    if S.shape != (2, 2) or J2.shape != (2, 2) or J5.shape != (2, 2):
        raise ValueError("construct_j4 is defined for d = 2 only")
    if numkernel.is_singular(S):
        raise ValueError("J1 - 2*J3 must be invertible")
    det_s = np.linalg.det(S)
    if omega1 <= 0 or omega2 <= 0:
        raise ValueError("target frequencies must be positive")

    c = (0.5 * (J5[0, 1] - J5[1, 0])) ** 2 / det_s
    w, r = np.array([omega1, omega2], dtype=float), np.zeros(2)
    if op is not None:  # h summed in +-j pairs: antisymmetric weights have Re h = 0 exactly
        if op.gamma.imag.any():
            raise ValueError("grid targets build J4 for real operator weights only")
        g, N, eps = op.gamma.real, op.N, op.epsilon
        j, plus, minus = np.arange(1, N + 1), g[N + 1:] + g[N - 1::-1], g[N + 1:] - g[N - 1::-1]
        x = np.outer(w * eps, j)
        even, odd = g[N] + np.cos(x) @ plus, np.sin(x) @ minus
        d_even, d_odd = -(np.sin(x) * j) @ plus, (np.cos(x) * j) @ minus  # d/d(omega eps)
        w, r = np.hypot(even, odd) / eps, -4.0 * (even / eps) ** 2
    (w1, w2), (r1, r2) = w, r
    q = 0.0  # c (r1 - r2)/(w1^2 - w2^2): 0 in continuous time and for antisymmetric weights
    if c != 0 and r1 != r2:
        if w1**2 == w2**2:
            raise NoRealSolution("two targets of one |h| but two Re h: no K fits both")
        q = c * (r1 - r2) / (w1**2 - w2**2)
    elif c != 0 and r1 != 0 and w1 == w2:  # one target twice: its limit c r'/(w^2)'
        slope = even[0] * d_even[0] + odd[0] * d_odd[0]  # (w^2)' eps / 2
        if slope == 0:
            raise NoRealSolution("a double target where |h| is stationary: no K fits it")
        q = -4.0 * c * even[0] * d_even[0] / slope
    trace = w1**2 + w2**2 - q - 4.0 * c
    det = (w1 * w2) ** 2 + c * r2 - w2**2 * q
    k1 = trace - j4_free
    k4 = j4_free
    excess = k1 * k4 - det  # required product of the off-diagonal entries
    s11, s12, s22 = S[0, 0], S[0, 1], S[1, 1]
    tiny = 1e-13 * np.abs(S).max()

    def _other_offdiagonal(known: float) -> float:
        # recover the partner entry from the determinant constraint
        if abs(known) > tiny:
            return excess / known
        if abs(excess) <= tiny * max(1.0, abs(det)):
            return 0.0
        raise SymmetryInfeasible("symmetry pins one off-diagonal entry to zero "
                                 "but the determinant constraint needs a product")

    if abs(s11) > tiny and abs(s22) > tiny:
        # s22 k3^2 + s12 (k1 - k4) k3 - s11 excess = 0
        disc = (s12 * (k1 - k4)) ** 2 + 4.0 * s22 * s11 * excess
        # excess = k1 k4 - det cancels (e.g. to 0 when j4_free is a target w^2): a
        # discriminant within rounding of the magnitudes of its terms is 0
        terms = (s12 * (k1 - k4)) ** 2 + 4.0 * abs(s22 * s11) * (abs(k1 * k4) + det)
        if disc < -1e-12 * terms:
            raise NoRealSolution(
                f"off-diagonal equation has negative discriminant {disc:.3e}"
            )
        k3 = (-s12 * (k1 - k4) + math.sqrt(max(disc, 0.0))) / (2.0 * s22)
        k2 = (s12 * (k1 - k4) + s22 * k3) / s11
    elif abs(s22) > tiny:
        # s11 = 0: the symmetry constraint pins k3 directly
        k3 = -s12 * (k1 - k4) / s22
        k2 = _other_offdiagonal(k3)
    elif abs(s11) > tiny:
        # s22 = 0: the symmetry constraint pins k2 directly
        k2 = s12 * (k1 - k4) / s11
        k3 = _other_offdiagonal(k2)
    else:
        # S is anti-diagonal: symmetry forces k1 = k4
        if abs(k1 - k4) > 1e-10 * max(1.0, abs(trace)):
            raise SymmetryInfeasible("anti-diagonal J1 - 2*J3 requires equal K diagonal")
        if excess >= 0:
            k2 = k3 = math.sqrt(excess)
        else:
            k2 = math.sqrt(-excess)
            k3 = -k2
    K = np.array([[k1, k2], [k3, k4]])
    j4 = 0.5 * J2 + 0.5 * (S @ K)
    return 0.5 * (j4 + j4.T)
