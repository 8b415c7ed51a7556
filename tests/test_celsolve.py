import dataclasses

import numpy as np
import pytest

from choreoqep import pencil
from choreoqep.celsolve import (AssumptionViolation, ModeExpansion,
                                SingularBoundarySystem, SystemSolution, _window_solve,
                                dirichlet_cel, general_solution_cel,
                                residual_cel)
from choreoqep.model import LagrangianSpec
from choreoqep.numkernel import NumericalFailure, kernel_vector

from conftest import J1, J2, J3, make_oscillator_spec, make_reference_spec


def fd_residual(spec, n, sol, t, h=1e-5):
    """Independent oracle: the same equations with O(h^2) central differences."""
    a_n, c_n = pencil.coefficient_matrices(spec, n)
    a_0, c_0 = pencil.coefficient_matrices(spec, 0)

    def d1(f):
        return (f(t + h) - f(t - h)) / (2 * h)

    def d2(f):
        return (f(t + h) - 2 * f(t) + f(t - h)) / h**2

    xs = sol.xs.value
    r_xs = a_n @ d2(xs) - 2 * spec.J5 @ d1(xs) - c_n @ xs(t) - n * spec.J7
    rhs = -2 * spec.J3 @ d2(xs) + 2 * spec.J4 @ xs(t) + spec.J7
    rows = [a_0 @ d2(p.value) - 2 * spec.J5 @ d1(p.value) - c_0 @ p.value(t) - rhs
            for p in sol.particles]
    return r_xs, np.array(rows)


def random_amplitudes(rng, n, count):
    xs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    ps = rng.standard_normal((n - 1, count)) + 1j * rng.standard_normal((n - 1, count))
    return xs, ps


class TestModeExpansion:
    def test_evaluation_and_derivatives(self):
        u = ModeExpansion([1.0, 0.0], [2j, -2j], [[0.5, 0.0], [0.5, 0.0]])
        ts = np.linspace(0, 1, 7)
        assert np.allclose(u.value(ts)[:, 0], 1.0 + np.cos(2 * ts))
        assert np.allclose(u.derivative(ts)[:, 0], -2 * np.sin(2 * ts))
        assert np.allclose(u.derivative(ts, 2)[:, 0], -4 * np.cos(2 * ts))

    def test_duplicate_phases_rejected(self):
        with pytest.raises(ValueError):
            ModeExpansion([0.0], [1j, 1j], [[1.0], [1.0]])

    def test_a_zero_mode_adds_zero_where_its_exponential_overflows(self):
        u = ModeExpansion([1.0], [800.0, 2j], [[0.0], [1.0]])
        assert u.value(2.0)[0] == pytest.approx(1.0 + np.exp(4j))
        assert u.derivative(2.0)[0] == pytest.approx(2j * np.exp(4j))
        assert u.derivative(2.0, 2)[0] == pytest.approx(-4 * np.exp(4j))


class TestGeneralSolution:
    def test_all_zero(self, ref_spec):
        sol = general_solution_cel(ref_spec, 3, np.zeros(4), np.zeros((2, 4)))
        ts = np.linspace(0, 5, 9)
        for p in sol.particles:
            assert np.abs(p.value(ts)).max() == 0.0

    def test_an_overflowing_solution_names_its_growth(self, recwarn):
        """Real phases +-2.04 at anchors 0 overflow e^{lam t} by t = 400: value and
        derivative raise NumericalFailure, as DelSolution.sample does, with no
        overflow warning on the way."""
        spec = LagrangianSpec(1, 2, [[1]], [[4]], [[0.1]], [[0.5]])
        particle = general_solution_cel(spec, 2, np.ones(2), np.ones((1, 2))).particles[0]
        for evaluate in (particle.value, particle.derivative):
            with pytest.raises(NumericalFailure,
                               match=r"^values are not finite: growth max Re lam \(t - a\) = "
                                     r"816\.50 against log\(max float\) = 709\.78$"):
                evaluate(400.0)
        assert not recwarn.list

    def test_single_oscillator_cosine(self):
        spec = make_oscillator_spec(2.0)
        sol = general_solution_cel(spec, 1, [0.5, 0.5])
        ts = np.linspace(0, 3, 50)
        assert np.allclose(sol.particles[0].value(ts)[:, 0], np.cos(2.0 * ts),
                           atol=1e-12)

    def test_residuals_at_random_times(self, ref_spec):
        rng = np.random.default_rng(21)
        sol = general_solution_cel(ref_spec, 3, *random_amplitudes(rng, 3, 4))
        for t in rng.uniform(0.0, 2 * np.pi, 100):
            r = residual_cel(ref_spec, 3, sol, t)
            x_norm = max(np.abs(p.value(t)).max() for p in sol.particles)
            bound = 1e-9 * (1.0 + x_norm)
            assert np.abs(r.xs).max() <= 3 * bound  # summed equation carries n terms
            assert np.abs(r.particles).max() <= bound

    def test_matches_finite_difference_oracle(self, ref_spec):
        rng = np.random.default_rng(33)
        sol = general_solution_cel(ref_spec, 3, *random_amplitudes(rng, 3, 4))
        h = 1e-3
        for t in (0.4, 2.9):
            exact = residual_cel(ref_spec, 3, sol, t)
            # Richardson-extrapolated differences: O(h^4) truncation
            c_xs, c_p = fd_residual(ref_spec, 3, sol, t, h)
            f_xs, f_p = fd_residual(ref_spec, 3, sol, t, h / 2)
            fd_xs = (4 * f_xs - c_xs) / 3
            fd_p = (4 * f_p - c_p) / 3
            assert np.abs(exact.xs - fd_xs).max() < 1e-5
            assert np.abs(exact.particles - fd_p).max() < 1e-5

    def test_sum_identity(self, ref_spec):
        rng = np.random.default_rng(8)
        sol = general_solution_cel(ref_spec, 3, *random_amplitudes(rng, 3, 4))
        assert sol.sum_mismatch() <= 1e-9

    def test_uncoupled_system_rejected(self):
        spec = LagrangianSpec(2, 3, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(AssumptionViolation):
            general_solution_cel(spec, 3, np.zeros(4), np.zeros((2, 4)))

    def test_center_of_mass_identities(self):
        spec = dataclasses.replace(make_reference_spec(), J7=np.array([0.3, -1.2]))
        n = 3
        pn = pencil.classical_pencil(spec, n)
        p0 = pencil.classical_pencil(spec, 0)
        q_n = pencil.classical_spectrum(pn)
        for alpha in q_n.roots:
            xs_a = kernel_vector(pencil.classical_eval(pn, alpha))
            xj_a = 2 * np.linalg.solve(pencil.classical_eval(p0, alpha),
                                       (spec.J4 - alpha**2 * spec.J3) @ xs_a)
            assert np.abs(xj_a - xs_a / n).max() < 1e-10
        xs_0 = -n * np.linalg.solve(spec.J2 + 2 * (n - 1) * spec.J4, spec.J7)
        xj_0 = -np.linalg.solve(spec.J2 - 2 * spec.J4,
                                2 * spec.J4 @ xs_0 + spec.J7)
        assert np.abs(xj_0 - xs_0 / n).max() < 1e-10


class TestDirichlet:
    def test_hand_solved_oscillator(self):
        spec = make_oscillator_spec(1.0)
        sol, report = dirichlet_cel(spec, 1, 0.0, np.pi / 2, [[1.0]], [[0.0]])
        ts = np.linspace(0, np.pi / 2, 20)
        assert np.allclose(sol.particles[0].value(ts)[:, 0], np.cos(ts), atol=1e-12)
        # amplitudes (1/2, 1/2) on the two modes
        assert np.allclose(np.abs(sol.xs.vectors[:, 0]), 0.5, atol=1e-12)
        assert report.xs_cond < 10

    def test_round_trip_recovers_expansion(self, ref_spec):
        rng = np.random.default_rng(14)
        sol = general_solution_cel(ref_spec, 3, *random_amplitudes(rng, 3, 4))
        t0, tf = 0.0, 1.3
        x0 = np.array([p.value(t0) for p in sol.particles])
        xf = np.array([p.value(tf) for p in sol.particles])
        back, _ = dirichlet_cel(ref_spec, 3, t0, tf, x0, xf)
        for p, q in zip(sol.particles, back.particles):
            assert np.abs(p.vectors - q.vectors).max() < 1e-8
        ts = rng.uniform(t0, tf, 16)
        for p, q in zip(sol.particles, back.particles):
            assert np.abs(p.value(ts) - q.value(ts)).max() < 1e-8

    def test_a_singular_boundary_system_reads_as_its_pivot_message(self):
        # two equal phases sampled at two times: the 2 x 2 matrix of ones
        _, (failure,) = _window_solve(np.zeros((1, 2), dtype=complex),
                                      np.ones((1, 2, 1), dtype=complex),
                                      np.array([0.0, 1.0]), np.zeros((1, 2)), np.ones((1, 2, 1)))
        assert isinstance(failure, SingularBoundarySystem)
        assert str(failure) == "pivot 0.000e+00 below 1e-14 x scale 1.000e+00"

    def test_resonant_interval_singular(self):
        spec = make_oscillator_spec(1.0)
        with pytest.raises(SingularBoundarySystem):
            dirichlet_cel(spec, 1, 0.0, 2 * np.pi, [[1.0]], [[1.0]])

    def test_real_data_real_trajectories(self, ref_spec):
        rng = np.random.default_rng(18)
        x0 = rng.standard_normal((3, 2))
        xf = rng.standard_normal((3, 2))
        sol, _ = dirichlet_cel(ref_spec, 3, 0.0, 1.0, x0, xf)
        ts = np.linspace(0.0, 1.0, 64)
        for p in sol.particles:
            vals = p.value(ts)
            scale = max(1.0, np.abs(vals).max())
            assert np.abs(vals.imag).max() <= 1e-9 * scale

    def test_boundary_values_reproduced(self, ref_spec):
        rng = np.random.default_rng(19)
        x0 = rng.standard_normal((3, 2))
        xf = rng.standard_normal((3, 2))
        sol, _ = dirichlet_cel(ref_spec, 3, 0.0, 1.0, x0, xf)
        got0 = np.array([p.value(0.0) for p in sol.particles])
        gotf = np.array([p.value(1.0) for p in sol.particles])
        assert np.abs(got0 - x0).max() < 1e-9
        assert np.abs(gotf - xf).max() < 1e-9


class TestResidual:
    def test_zero_solution_with_forcing(self):
        spec = dataclasses.replace(make_reference_spec(), J7=np.array([1.0, 2.0]))
        zero = ModeExpansion(np.zeros(2), [], np.zeros((0, 2)))
        sol = SystemSolution(zero, (zero, zero, zero))
        r = residual_cel(spec, 3, sol, 0.7)
        assert np.allclose(r.xs, -3 * spec.J7)
        assert np.allclose(r.particles, np.tile(-spec.J7, (3, 1)))

    def test_perturbation_scales_linearly(self, ref_spec):
        rng = np.random.default_rng(40)
        sol = general_solution_cel(ref_spec, 3, *random_amplitudes(rng, 3, 4))

        def perturbed(delta):
            p0 = sol.particles[0]
            vecs = p0.vectors.copy()
            vecs[0] = vecs[0] + np.array([delta, 0.0])  # leave the kernel line
            particles = (ModeExpansion(p0.u0, p0.lambdas, vecs),) + sol.particles[1:]
            return SystemSolution(sol.xs, particles)

        r1 = residual_cel(ref_spec, 3, perturbed(1e-3), 0.9)
        r2 = residual_cel(ref_spec, 3, perturbed(2e-3), 0.9)
        m1 = np.abs(r1.particles[0]).max()
        m2 = np.abs(r2.particles[0]).max()
        assert m1 > 1e-5  # clearly nonzero
        assert m2 / m1 == pytest.approx(2.0, rel=1e-6)
