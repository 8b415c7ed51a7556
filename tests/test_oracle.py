"""A 50-digit oracle for both pencils.

mpmath builds the block companion of the classical pencil (C, B, A) and of the
unshifted zeta-polynomial zeta^{2N} P(zeta), from the same double-precision
data converted exactly, and solves it with `mp.eig` at 50 digits.  The
double-precision spectra must reproduce its roots.  Each returned (root, kernel
vector) pair must have a small normwise backward error evaluated at 50 digits;
at the convergent roots, where the kernel is the mode the paper is about, the
vector must also annihilate the pencil: ||P(z) v|| / ||P(z)||_F is small.
The reference system also appears with a skew J5, so that the gyroscopic term
enters both pencils.  Companions stay at 16x16 or smaller (up to ~0.7 s each).
"""
import mpmath as mp
import numpy as np
import pytest

from choreoqep import pencil
from choreoqep.convergence import hausdorff_distance
from choreoqep.model import LagrangianSpec
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import make_reference_spec

REF = make_reference_spec()
SPECS = {"d1": LagrangianSpec(1, 3, [[1.0]], [[-2.0]], [[0.3]], [[0.2]]),
         "d2": REF,
         "d2_skew": LagrangianSpec(2, 3, REF.J1, REF.J2, REF.J3, REF.J4,
                                   [[0.0, 0.4], [-0.4, 0.0]])}
OPERATORS = {
    "central": central_difference,
    "k_family": lambda eps: k_family(eps, 0.3),
    "five_point": lambda eps: ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0, eps),
    "gamma_cell": lambda eps: ScaleOperator(np.array([-0.3, -0.4, 0.7]), eps),
}
# antisymmetric weights (central, 5-point) take their zeta-roots as preimages of the
# classical roots, measured <= 1.8e-15; other weights (k-family, gamma cell) as preimages
# of the classical pairs under g g~/eps^2 when J5 = 0, measured <= 2.2e-15, and from the
# shifted companion otherwise (d2_skew), measured <= 5.7e-15
BACKWARD_TOL = 1e-12  # measured <= 8.4e-14
KERNEL_TOL = 1e-10  # measured <= 6.8e-13


def root_tol(name, op_name):
    return 1e-9 if name == "d2_skew" and op_name in ("k_family", "gamma_cell") else 1e-12


def mp_matrix(a):
    return mp.matrix([[mp.mpc(complex(x).real, complex(x).imag) for x in row]
                      for row in np.atleast_2d(a)])


def mp_companion_roots(coeffs):
    """Eigenvalues of the monic block companion of sum_i z^i coeffs[i]."""
    k, d = len(coeffs) - 1, coeffs[0].rows
    lead = mp.inverse(coeffs[-1])
    comp = mp.zeros(k * d, k * d)
    for r in range((k - 1) * d):
        comp[r, r + d] = 1
    for i in range(k):
        block = lead * coeffs[i]
        for r in range(d):
            for c in range(d):
                comp[(k - 1) * d + r, i * d + c] = -block[r, c]
    return np.array([complex(z) for z in mp.eig(comp, left=False, right=False)])


def classical_coeffs(spec, nu):
    p = pencil.classical_pencil(spec, nu)
    return [mp_matrix(p.C), mp_matrix(p.B), mp_matrix(p.A)]


def zeta_coeffs(spec, op, nu):
    """C_0..C_4N of zeta^{2N} P(zeta) from the weights, summed at working precision."""
    a_nu, c_nu = pencil.coefficient_matrices(spec, nu)
    A, C, J5 = mp_matrix(a_nu), mp_matrix(c_nu), mp_matrix(spec.J5)
    N, eps = op.N, mp.mpf(op.epsilon)
    g = {j: mp.mpc(op.gamma_at(j).real, op.gamma_at(j).imag) for j in range(-N, N + 1)}
    out = []
    for k in range(-2 * N, 2 * N + 1):
        theta = sum((g[k + l] * g[l] for l in range(-N, N + 1) if abs(k + l) <= N),
                    mp.mpc(0))
        sigma1 = g[k] - g[-k] if abs(k) <= N else 0
        out.append(-A * (theta / eps**2) - J5 * (sigma1 / eps) - (C if k == 0 else 0 * C))
    return out


def pencil_value(coeffs, z):
    z = mp.mpc(z.real, z.imag)
    return sum((c * z**i for i, c in enumerate(coeffs)), 0 * coeffs[0]), z


def backward_error(coeffs, z, v):
    """||Q(z) v|| / (sum_i |z|^i ||C_i||_F ||v||) at 50 digits."""
    q, z = pencil_value(coeffs, z)
    v = mp_matrix(v[:, None])
    scale = sum(mp.mnorm(c, "f") * abs(z)**i for i, c in enumerate(coeffs)) * mp.norm(v)
    return float(mp.norm(q * v) / scale)


def kernel_residual(coeffs, z, v):
    """||Q(z) v|| / ||Q(z)||_F at 50 digits (1 for every v when d = 1)."""
    q, _ = pencil_value(coeffs, z)
    return float(mp.norm(q * mp_matrix(v[:, None])) / mp.mnorm(q, "f"))


def check_pairs(coeffs, got, lam, radius, d):
    for z, v, l in zip(got.roots, got.vectors, lam):
        assert backward_error(coeffs, z, v) <= BACKWARD_TOL
        if d > 1 and abs(l) <= radius:
            assert kernel_residual(coeffs, z, v) <= KERNEL_TOL


def window_radius(spec, nu):
    """The convergence window: twice the classical spectral radius plus one."""
    roots = pencil.classical_spectrum(pencil.classical_pencil(spec, nu)).roots
    return 2.0 * float(np.abs(roots).max()) + 1.0


@pytest.mark.parametrize("nu", [0, 3])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_classical_spectrum_matches_the_oracle(name, nu):
    spec = SPECS[name]
    with mp.workdps(50):
        coeffs = classical_coeffs(spec, nu)
        want = mp_companion_roots(coeffs)
        got = pencil.classical_spectrum(pencil.classical_pencil(spec, nu))
        assert hausdorff_distance(got, want) <= 1e-9  # measured <= 1.4e-15
        check_pairs(coeffs, got, got.roots, np.inf, spec.d)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("op_name", sorted(OPERATORS))
@pytest.mark.parametrize("nu", [0, 3])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_zeta_spectrum_matches_the_oracle(name, nu, op_name, eps):
    spec, op = SPECS[name], OPERATORS[op_name](eps)
    with mp.workdps(50):
        coeffs = zeta_coeffs(spec, op, nu)
        want = mp_companion_roots(coeffs)
        sp = pencil.transcendental_spectrum(pencil.transcendental_pencil(spec, op, nu))
        assert len(sp.zeta) == len(want) == 4 * op.N * spec.d
        assert hausdorff_distance(sp.zeta, want) <= root_tol(name, op_name)
        check_pairs(coeffs, sp.zeta, sp.lam.roots, window_radius(spec, nu), spec.d)


def shifted_coeffs(coeffs, eps):
    """The same polynomial in w = (zeta - 1)/eps, at working precision."""
    e = mp.mpf(eps)
    return [sum((c * (mp.binomial(k, i) * e**i) for k, c in enumerate(coeffs) if k >= i),
                0 * coeffs[0]) for i in range(len(coeffs))]


@pytest.mark.parametrize("eps", [1e-4, 1e-3])
@pytest.mark.parametrize("nu", [0, 3])
@pytest.mark.parametrize("op_name", ["central", "five_point"])
@pytest.mark.parametrize("name", ["d2", "d2_skew"])
def test_antisymmetric_backward_errors_are_the_50_digit_ones(monkeypatch, name, op_name,
                                                             nu, eps):
    """Antisymmetric weights form their backward errors from the classical products:
    they must be the normwise errors of the shifted pencil at 50 digits (measured within
    3.6e-16).  The shifted blocks in double carry the rounding of their own assembly, and
    the error evaluated on them is off by up to 4.9e-14 here (5-point, eps = 1e-4)."""
    spec, op = SPECS[name], OPERATORS[op_name](eps)
    seen, original = [], pencil._preimages
    monkeypatch.setattr(pencil, "_preimages",
                        lambda *args: seen.append(original(*args)) or seen[-1])
    pencil._spectra([pencil.Setting(spec, op)], nu)
    (w,), (v,), (errors,), _ = seen[0]
    with mp.workdps(50):
        coeffs = shifted_coeffs(zeta_coeffs(spec, op, nu), eps)
        exact = [backward_error(coeffs, z, x) for z, x in zip(w, v)]
    assert np.abs(errors - exact).max() <= 1e-15
