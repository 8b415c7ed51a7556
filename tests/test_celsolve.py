import dataclasses

import numpy as np
import pytest

from choreoqep import convergence, delsolve, pencil
from choreoqep.celsolve import (ModeExpansion, SingularBoundarySystem, SystemSolution,
                                _window_solve, dirichlet_cel, general_solution_cel,
                                residual_cel)
from choreoqep.model import LagrangianSpec
from choreoqep.numkernel import NumericalFailure, kernel_vector
from choreoqep.scaleop import central_difference

import reference
from conftest import (J1, J2, J3, make_gyroscopic_spec, make_oscillator_spec,
                      make_reference_spec)
from test_grid_kernels import full_spec

SPECS = {"reference": make_reference_spec,
         "gyroscopic": lambda n: dataclasses.replace(make_gyroscopic_spec(), n=n),
         "J5, J6, J7": full_spec}


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

    def test_repeated_phases_are_a_plain_sum(self):
        u = ModeExpansion([0.0], [1j, 1j], [[1.0], [2.0]])
        ts = np.linspace(0, 1, 7)
        assert np.allclose(u.value(ts)[:, 0], 3 * np.exp(1j * ts), rtol=1e-15, atol=0)

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
        times = np.random.default_rng(20240913).uniform(-3.0, 3.0, size=32)
        xs = sol.xs.value(times)
        total = sum(p.value(times) for p in sol.particles)
        assert np.abs(total - xs).max() <= 1e-9 * max(1.0, np.abs(xs).max())

    def test_uncoupled_system_solves_particle_by_particle(self):
        """The nu = n and nu = 0 pencils are one, so each particle expansion holds every
        phase twice; each particle still solves its own n = 1 problem, on the line and on
        the grid (measured 4.5e-16 and 7.4e-16 relative, residual 8.5e-15)."""
        spec, lone = (LagrangianSpec(2, n, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
                      for n in (3, 1))
        x0, xf = np.random.default_rng(7).uniform(-1.0, 1.0, (2, 3, 2))
        sol, _ = dirichlet_cel(spec, 3, 0.0, 1.0, x0, xf)
        ts = np.linspace(0.0, 1.0, 101)
        op, M = central_difference(0.01), 100
        head, tail, _, _ = convergence.window_reference(sol, 0.0, M, op.epsilon, op.N)
        grid = delsolve.dirichlet_del(spec, op, 3, 0.0, M, head, tail)[0].sample()[0].values
        for j, p in enumerate(sol.particles):
            one = dirichlet_cel(lone, 1, 0.0, 1.0, x0[j:j + 1], xf[j:j + 1])[0].particles[0]
            want = one.value(ts)
            assert np.abs(p.value(ts) - want).max() <= 1e-13 * np.abs(want).max()
            one = delsolve.dirichlet_del(lone, op, 1, 0.0, M, head[j:j + 1], tail[j:j + 1])[0]
            want = one.sample()[0].values[0]
            assert np.abs(grid[j] - want).max() <= 1e-13 * np.abs(want).max()
        r = residual_cel(spec, 3, sol, ts)
        assert max(np.abs(r.xs).max(), np.abs(r.particles).max()) <= 1e-13

    def test_center_of_mass_identities(self):
        spec = dataclasses.replace(make_reference_spec(), J7=np.array([0.3, -1.2]))
        n = 3
        q_n = pencil.classical_spectrum(spec, n)
        for alpha in q_n.roots:
            xs_a = kernel_vector(pencil.classical_eval(spec, n, alpha))
            xj_a = 2 * np.linalg.solve(pencil.classical_eval(spec, 0, alpha),
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


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", SPECS)
def test_residual_cel_is_the_explicit_equations(name, n):
    """The blocks on the jets [-x'', 2 x', x] against the A_n/C_n formulas they replaced,
    within 1e-14 of the moduli of each equation's terms, summed (over 20 seeds a case the
    worst was 4.6e-15)."""
    spec = SPECS[name](n)
    rng = np.random.default_rng(n)
    sol = general_solution_cel(spec, n, *random_amplitudes(rng, n, 4))
    ts = rng.uniform(0.0, 2 * np.pi, 16)
    got = residual_cel(spec, n, sol, ts)
    assert got.xs.shape == (16, 2) and got.particles.shape == (n, 16, 2)
    for i, t in enumerate(ts):
        (want_xs, want_p), (size_xs, size_p) = reference.cel_residual(spec, n, sol, t)
        assert (np.abs(got.xs[i] - want_xs) <= 1e-14 * size_xs).all()
        assert (np.abs(got.particles[:, i] - want_p) <= 1e-14 * size_p).all()


@pytest.mark.parametrize("name", SPECS)
def test_residual_cel_on_many_times_is_its_calls_on_each(name):
    """An array of times keeps each time's row apart: bit for bit the rows of calls on
    parts of it.  A scalar time keeps the scalar shapes, (d,) and (n, d), and its values
    match within 1e-14 of the summed terms (worst 4.2e-15 over 20 seeds a case).  They
    are not bit for bit: an expansion's value at one time is a one-row product, which
    numpy hands to BLAS's matrix-vector kernel, and at several times to its matrix-matrix
    kernel."""
    spec = SPECS[name](3)
    rng = np.random.default_rng(12)
    sol = general_solution_cel(spec, 3, *random_amplitudes(rng, 3, 4))
    ts = rng.uniform(0.0, 2 * np.pi, 16)
    got = residual_cel(spec, 3, sol, ts)
    parts = [residual_cel(spec, 3, sol, part) for part in (ts[:7], ts[7:9], ts[9:])]
    assert np.array_equal(got.xs, np.concatenate([r.xs for r in parts]))
    assert np.array_equal(got.particles, np.concatenate([r.particles for r in parts], axis=1))
    for i, t in enumerate(ts):
        one = residual_cel(spec, 3, sol, t)
        assert one.xs.shape == (2,) and one.particles.shape == (3, 2)
        _, (size_xs, size_p) = reference.cel_residual(spec, 3, sol, t)
        assert (np.abs(one.xs - got.xs[i]) <= 1e-14 * size_xs).all()
        assert (np.abs(one.particles - got.particles[:, i]) <= 1e-14 * size_p).all()
