import hashlib
import math

import numpy as np
import pytest

from choreoqep import celsolve, pencil
from choreoqep.model import (LagrangianSpec, NoRealSolution, SymmetryInfeasible, construct_j4,
                             energy, validate_spec)
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import (J1, J2, J3, make_gyroscopic_spec, make_oscillator_spec,
                      make_reference_spec)
from reference import SingularTransform, transform_affine


class TestValidateSpec:
    def test_reference_system_clean(self, ref_spec):
        assert validate_spec(ref_spec) == []

    def test_skew_j5_accepted(self):
        spec = LagrangianSpec(2, 2, J1, J2, J3, np.eye(2), [[0, 1], [-1, 0]])
        assert validate_spec(spec) == []

    def test_asymmetric_j1_flagged(self):
        spec = LagrangianSpec(2, 2, [[1, 2], [3, 4]], J2, J3, np.eye(2))
        assert validate_spec(spec) == ["J1: asymmetry 1.000e+00"]


class TestSpecArrays:
    """The spec holds read-only copies, so what the solvers derive from it stays valid."""

    def test_changing_the_caller_s_arrays_leaves_the_spec_unchanged(self):
        j1, j7 = J1.copy(), np.array([0.5, -0.5])
        spec = LagrangianSpec(2, 3, j1, J2, J3, np.eye(2), J7=j7)
        j1[0, 0], j7[0] = 5.0, 9.0
        assert spec.J1 is not j1 and spec.J1[0, 0] == J1[0, 0]
        assert spec.J7[0] == 0.5

    @pytest.mark.parametrize("name", ["J1", "J2", "J3", "J4", "J5", "J6", "J7"])
    def test_writing_to_a_spec_array_raises(self, name):
        spec = LagrangianSpec(2, 3, J1.copy(), J2.copy(), J3.copy(), np.eye(2))
        before = getattr(spec, name).copy()
        with pytest.raises(ValueError):
            getattr(spec, name).flat[0] = 5.0
        assert np.array_equal(getattr(spec, name), before)


class TestEnergy:
    def test_oscillator_at_rest(self):
        omega = 3.0
        spec = make_oscillator_spec(omega)
        e = energy(spec, [[1.0]], [[0.0]])
        assert e == pytest.approx(0.5 * omega**2)

    def test_oscillator_quarter_period(self):
        omega = 3.0
        spec = make_oscillator_spec(omega)
        e = energy(spec, [[0.0]], [[omega]])
        assert e == pytest.approx(0.5 * omega**2)

    def test_conserved_with_gyroscopic_and_linear_terms(self):
        """x·J5 v is linear in v, so the Jacobi integral drops it as it drops J6·v:
        along a trajectory of the gyroscopic spec with J6 and J7, the energy is the same
        at three times (measured constant to ~1e-15 relative)."""
        gyro = make_gyroscopic_spec()
        spec = LagrangianSpec(2, 3, gyro.J1, gyro.J2, gyro.J3, gyro.J4, gyro.J5,
                              [1.0, -2.0], [0.3, 0.1])
        rng = np.random.default_rng(30)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        extras = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        sol = celsolve.general_solution_cel(spec, 3, amps, extras)
        values = []
        for t in (0.3, 1.7, 5.0):
            x = np.array([p.value(t).real for p in sol.particles])
            v = np.array([p.derivative(t).real for p in sol.particles])
            values.append(energy(spec, x, v))
        assert max(values) - min(values) <= 1e-12 * abs(values[0])
        assert abs(values[0]) > 1.0  # not 0 = 0

    def test_equal_along_solved_trajectory(self, ref_spec):
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        extras = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        sol = celsolve.general_solution_cel(ref_spec, 3, amps, extras)
        values = []
        for t in (0.3, 1.7):
            x = np.array([p.value(t).real for p in sol.particles])
            v = np.array([p.derivative(t).real for p in sol.particles])
            values.append(energy(ref_spec, x, v))
        assert abs(values[0] - values[1]) <= 1e-10 * max(1.0, abs(values[0]))

    def test_the_velocity_linear_term_drops_out(self, ref_spec):
        """J6·v does not enter the equations of motion, and the Jacobi integral
        sum v·dL/dv - L cancels it: with J6 = (1, -2) the energy along a trajectory
        on the bounded modes is constant and equal to that of J6 = 0."""
        spec = LagrangianSpec(2, 3, ref_spec.J1, ref_spec.J2, ref_spec.J3, ref_spec.J4,
                              None, [1.0, -2.0])
        rng = np.random.default_rng(28)
        lam_n, lam_0 = (pencil.classical_spectrum(spec, nu).roots
                        for nu in (3, 0))
        amps = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) \
            * (np.abs(lam_n.real) < 1e-9)
        extras = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) \
            * (np.abs(lam_0.real) < 1e-9)
        sol = celsolve.general_solution_cel(spec, 3, amps, extras)
        values = []
        for t in (0.3, 1.7):
            x = np.array([p.value(t).real for p in sol.particles])
            v = np.array([p.derivative(t).real for p in sol.particles])
            values.append([energy(s, x, v) for s in (spec, ref_spec)])
        assert values[0][0] == pytest.approx(values[1][0], rel=1e-12)
        assert values[0][0] == values[0][1] and values[1][0] == values[1][1]


    @pytest.mark.parametrize("x, v", [(np.zeros((3, 2)), np.zeros((2, 2))),
                                      (np.zeros(6), np.zeros((3, 2)))],
                             ids=["velocities", "positions"])
    def test_a_state_of_another_shape_raises(self, ref_spec, x, v):
        with pytest.raises(ValueError, match="shape"):
            energy(ref_spec, x, v)


class TestTransformAffine:
    def test_identity_fixes_spec(self, ref_spec):
        out = transform_affine(ref_spec, np.eye(2), np.zeros(2))
        for name in ("J1", "J2", "J3", "J4", "J5", "J6", "J7"):
            assert np.allclose(getattr(out, name), getattr(ref_spec, name))

    def test_scaling_d1(self):
        spec = make_oscillator_spec(1.0)
        out = transform_affine(spec, [[2.0]], [0.0])
        assert out.J1[0, 0] == pytest.approx(0.25)

    def test_round_trip(self, ref_spec):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
            b = rng.standard_normal(2)
            fwd = transform_affine(ref_spec, A, b)
            back = transform_affine(fwd, np.linalg.inv(A), -np.linalg.inv(A) @ b)
            for name in ("J1", "J2", "J3", "J4", "J5", "J6", "J7"):
                assert np.abs(getattr(back, name) - getattr(ref_spec, name)).max() < 1e-10

    def test_singular_rejected(self, ref_spec):
        with pytest.raises(SingularTransform):
            transform_affine(ref_spec, np.zeros((2, 2)), np.zeros(2))

    def test_covariance_of_trajectories(self):
        spec = make_reference_spec(n=2)
        rng = np.random.default_rng(9)
        A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        b = rng.standard_normal(2)
        hat = transform_affine(spec, A, b)
        x0 = rng.standard_normal((2, 2))
        xf = rng.standard_normal((2, 2))
        sol, _ = celsolve.dirichlet_cel(spec, 2, 0.0, 1.0, x0, xf)
        hat_sol, _ = celsolve.dirichlet_cel(hat, 2, 0.0, 1.0,
                                            x0 @ A.T + b, xf @ A.T + b)
        ts = np.linspace(0.0, 1.0, 17)
        for j in range(2):
            want = sol.particles[j].value(ts) @ A.T + b
            got = hat_sol.particles[j].value(ts)
            assert np.abs(got - want).max() <= 1e-8


class TestConstructJ4:
    def test_reference_construction(self):
        j4 = construct_j4(J1, J2, J3, 2.0, 5.0, 25.0)
        assert np.allclose(j4, [[-15.5, -0.5], [-0.5, -110.0]], atol=1e-12)

    def test_degenerate_targets_allowed(self):
        # omega1 = omega2 = 1 with the free entry 1 forces K = I
        j4 = construct_j4(J1, J2, J3, 1.0, 1.0, 1.0)
        want = 0.5 * J2 + 0.5 * (J1 - 2 * J3)  # K = I
        assert np.allclose(j4, want)

    @pytest.mark.parametrize("scale", [1.0, 1e-7, 1e-14])
    def test_invertibility_does_not_depend_on_scale(self, scale):
        """J1 - 2 J3 is judged by the one rank rule, sigma_min <= 1e-12 sigma_max
        (`numkernel.is_singular`), and its branch threshold is relative to max |S|.  An
        absolute det test refused s I at s = 1e-7 and built it at 1e-6, and an absolute
        threshold sent 1e-14 I down the anti-diagonal branch."""
        zero, j2 = np.zeros((2, 2)), scale * np.diag([3.0, -2.0])
        for s in (scale * np.array([[2.0, 0.3], [0.3, 1.0]]), scale * np.eye(2)):
            spec = LagrangianSpec(2, 3, s, j2, zero, construct_j4(s, j2, zero, 1.0, 2.0, 1.0))
            roots = pencil.classical_spectrum(spec, 0).roots
            assert np.abs(roots - [-2j, -1j, 1j, 2j]).max() <= 1e-12
        with pytest.raises(ValueError, match="J1 - 2\\*J3 must be invertible"):
            construct_j4(scale * np.ones((2, 2)), j2, zero, 1.0, 2.0, 1.0)

    def test_no_real_solution(self):
        with pytest.raises(NoRealSolution):
            construct_j4(J1, J2, J3, 2.0, 5.0, 29.0)  # j4_free = w1^2 + w2^2

    @pytest.mark.parametrize("eps", [0.05, 0.025])
    def test_discriminant_negative_by_rounding_is_zero(self, eps):
        # the discrete targets sin(eps w)/eps with j4_free = max w^2 make the
        # discriminant 0 exactly; in floating point it was -4.6e-12 (eps = 0.05)
        # and -9.2e-12 (eps = 0.025), which raised NoRealSolution
        w1, w2 = math.sin(2.0 * eps) / eps, math.sin(5.0 * eps) / eps
        j4 = construct_j4(J1, J2, J3, w1, w2, w2**2)
        spec = LagrangianSpec(2, 3, J1, J2, J3, j4)
        assert validate_spec(spec) == []
        roots = pencil.classical_spectrum(spec, 0)
        want = np.array(sorted([-w2, -w1, w1, w2]))
        assert np.abs(np.sort(roots.roots.imag) - want).max() < 1e-8
        assert np.abs(roots.roots.real).max() < 1e-8

    def test_output_is_symmetric_and_hits_targets(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            w1, w2 = sorted(rng.uniform(1.0, 6.0, size=2))
            free = rng.uniform(w1**2, w2**2)
            j4 = construct_j4(J1, J2, J3, w1, w2, free)
            spec = LagrangianSpec(2, 3, J1, J2, J3, j4)
            assert validate_spec(spec) == []
            roots = pencil.classical_spectrum(spec, 0)
            want = np.array(sorted([-w2, -w1, w1, w2]))
            assert np.abs(np.sort(roots.roots.imag) - want).max() < 1e-8
            assert np.abs(roots.roots.real).max() < 1e-8

    def test_gyroscopic_targets(self):
        """J5 = j [[0, 1], [-1, 0]] shifts trace K by -4 j^2 / det(J1 - 2 J3): the nu = 0
        roots land on the targets, where a J4 built without J5 misses them by 2.9e-3."""
        j5 = np.array([[0.0, 0.7], [-0.7, 0.0]])
        spec = LagrangianSpec(2, 3, J1, J2, J3, construct_j4(J1, J2, J3, 2.0, 5.0, 20.0, j5), j5)
        assert validate_spec(spec) == []
        roots = pencil.classical_spectrum(spec, 0).roots
        assert np.abs(roots - np.array([-5j, -2j, 2j, 5j])).max() <= 1e-12
        # j4_free must lie in the shifted K's eigenvalue range [4.005, 24.97]
        with pytest.raises(NoRealSolution):
            construct_j4(J1, J2, J3, 2.0, 5.0, 25.0, j5)

    def test_a_zero_j5_keeps_every_bit(self):
        for free in (4.0, 20.0, 25.0):
            assert np.array_equal(construct_j4(J1, J2, J3, 2.0, 5.0, free, np.zeros((2, 2))),
                                  construct_j4(J1, J2, J3, 2.0, 5.0, free))

    def test_continuous_targets_keep_every_bit(self):
        """The bytes of 1,000 continuous constructions (or the class of the error each
        raises: 47 of them), recorded before the grid case joined this function: 500 seeded
        targets omega in [0.3, 6] with j4_free between their squares, each without and with
        a J5 = j [[0, 1], [-1, 0]], j in [-1.5, 1.5]."""
        rng = np.random.default_rng(45)
        digest, failed = hashlib.sha256(), 0
        for _ in range(500):
            w1, w2 = rng.uniform(0.3, 6.0, size=2)
            free = rng.uniform(min(w1, w2) ** 2, max(w1, w2) ** 2)
            j = rng.uniform(-1.5, 1.5)
            for j5 in (None, np.array([[0.0, j], [-j, 0.0]])):
                try:
                    out = construct_j4(J1, J2, J3, float(w1), float(w2), float(free), j5).tobytes()
                except (NoRealSolution, SymmetryInfeasible) as exc:
                    out, failed = type(exc).__name__.encode(), failed + 1
                digest.update(out)
        assert failed == 47
        assert digest.hexdigest() == ("6ae54bbfc12e4023b01cc35c2153043d"
                                      "27f2eca277993e19222d98e57c422e53")

    @pytest.mark.parametrize("j", [0.0, 0.7])
    def test_antisymmetric_weights_are_the_continuous_case_at_their_symbol(self, j):
        """The central difference's |h|/eps is sin(omega eps)/eps and its Re h is 0, so its
        J4 is the continuous one built at those frequencies, bit for bit."""
        j5, eps = np.array([[0.0, j], [-j, 0.0]]), 0.05
        w1, w2 = math.sin(2.0 * eps) / eps, math.sin(5.0 * eps) / eps
        assert np.array_equal(construct_j4(J1, J2, J3, 2.0, 5.0, 20.0, j5, central_difference(eps)),
                              construct_j4(J1, J2, J3, w1, w2, 20.0, j5))

    @pytest.mark.parametrize("gamma", [[-0.7, 0.4, 0.3], [0.1, -0.8, 0.2, 0.6, -0.1]],
                             ids=["N1", "N2"])
    @pytest.mark.parametrize("j", [0.0, 0.7, 3.0])
    def test_grid_targets_with_generic_real_weights(self, gamma, j):
        """Weights that are not antisymmetric have Re h != 0, so r_1 != r_2 enters tr K and
        det K: the grid's nu = 0 roots still land on +-2i and +-5i (measured within 1.4e-14)."""
        op, j5 = ScaleOperator(np.array(gamma), 0.05), np.array([[0.0, j], [-j, 0.0]])
        j4 = construct_j4(J1, J2, J3, 2.0, 5.0, 20.0, j5, op)
        spec = LagrangianSpec(2, 3, J1, J2, J3, j4, j5)
        lam = pencil.transcendental_spectrum(spec, op, 0).lam.roots
        assert max(np.abs(lam - target).min() for target in (2j, 5j, -2j, -5j)) <= 1e-13

    def test_equal_grid_targets_with_j5(self):
        """omega1 = omega2 on the grid with J5 != 0 is the continuous case at w: a double
        root at +-2i (split by about 4e-8, as a double root's rounding splits it)."""
        s_diag, j5 = np.diag([1.0, -1.0]), np.array([[0.0, 0.7], [-0.7, 0.0]])
        op, zero = central_difference(0.05), np.zeros((2, 2))
        j4 = construct_j4(s_diag, np.diag([3.0, -2.0]), zero, 2.0, 2.0, 0.0, j5, op)
        spec = LagrangianSpec(2, 3, s_diag, np.diag([3.0, -2.0]), zero, j4, j5)
        lam = pencil.transcendental_spectrum(spec, op, 0).lam.roots
        assert (np.abs(np.abs(lam) - 2.0) <= 1e-7).sum() == 4

    @pytest.mark.parametrize("gamma", [[-0.7, 0.4, 0.3], [0.1, -0.8, 0.2, 0.6, -0.1]],
                             ids=["N1", "N2"])
    def test_equal_grid_targets_with_generic_weights_give_the_double_root(self, gamma):
        """With Re h != 0 the two target equations coincide, and q = c r'/(w^2)' (the limit
        of the divided difference) makes the target's omega-derivative hold too: both root
        pairs land on +-2i, split as a double root's rounding splits it (3e-8 for N = 1).
        Before, q = 0 left one pair 4.0e-4 away (N = 1)."""
        s_diag, j5 = np.diag([1.0, -1.0]), np.array([[0.0, 0.7], [-0.7, 0.0]])
        op, zero = ScaleOperator(np.array(gamma), 0.05), np.zeros((2, 2))
        j4 = construct_j4(s_diag, np.diag([3.0, -2.0]), zero, 2.0, 2.0, 0.0, j5, op)
        spec = LagrangianSpec(2, 3, s_diag, np.diag([3.0, -2.0]), zero, j4, j5)
        lam = pencil.transcendental_spectrum(spec, op, 0).lam.roots
        assert [(np.abs(lam - target) <= 1e-6).sum() for target in (2j, -2j)] == [2, 2]

    def test_equal_targets_where_re_h_vanishes_keep_every_bit(self):
        """The double-target q needs Re h != 0: continuous targets and the central
        difference's (antisymmetric, Re h = 0) build J4 as before it.  The bytes of 800
        constructions (or the class of the error each raises: 67 of them), recorded at the
        parent of that change: 200 seeded d = 2 systems with S = diag(a, -b), omega1 =
        omega2, each continuous and central, without and with J5."""
        rng = np.random.default_rng(47)
        digest, failed = hashlib.sha256(), 0
        for _ in range(200):
            a, b = rng.uniform(0.5, 3.0, size=2)
            j1, j2 = np.diag([a, -b]), np.diag(rng.uniform(-3, 3, size=2))
            w = float(rng.uniform(0.3, 6.0))
            free, j = float(rng.uniform(-2.0, 2.0) * w * w), float(rng.uniform(-1.5, 1.5))
            for op in (None, central_difference(float(rng.uniform(0.01, 0.2)))):
                for j5 in (None, np.array([[0.0, j], [-j, 0.0]])):
                    try:
                        out = construct_j4(j1, j2, np.zeros((2, 2)), w, w, free, j5, op)
                        out = out.tobytes()
                    except (NoRealSolution, SymmetryInfeasible) as exc:
                        out, failed = type(exc).__name__.encode(), failed + 1
                    digest.update(out)
        assert failed == 67
        assert digest.hexdigest() == ("6b2b21e7f53844c2ad86182249d43f25"
                                      "e828b262560d9e2ac6d500804f7fb37c")

    def test_grid_targets_need_real_weights(self):
        with pytest.raises(ValueError, match="real operator weights"):
            construct_j4(J1, J2, J3, 2.0, 5.0, 20.0, None, k_family(0.05, 0.3))
