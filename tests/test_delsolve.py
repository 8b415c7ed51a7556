import dataclasses
import math

import numpy as np
import pytest

from choreoqep import numkernel, pencil, scaleop
from choreoqep.celsolve import ModeExpansion, SingularBoundarySystem
from choreoqep.delsolve import (DelSolution, LeadingBlockSingular,
                                TrajectoryGrid, WindowExceeded, dirichlet_del,
                                general_solution_del, recurrence_march,
                                residual_del)
from choreoqep.model import LagrangianSpec
from choreoqep.numkernel import kernel_vector
from choreoqep.scaleop import (ScaleOperator, central_difference, k_family,
                               symbol_theta)

from conftest import J1, J2, J3, make_oscillator_spec, make_reference_spec

TWO_PI = 2.0 * math.pi


def equation_scale(spec, op, vals):
    """Coarse magnitude of the recurrence terms, for relative residual bounds."""
    eps = op.epsilon
    opmass = np.abs(scaleop.theta_coefficients(op)).sum() / eps**2 \
        + np.abs(scaleop.sigma1_coefficients(op)).sum() / eps + 1.0
    matmass = max(np.abs(getattr(spec, k)).sum() for k in
                  ("J1", "J2", "J3", "J4", "J5")) * (1 + 2 * spec.n) \
        + np.abs(spec.J7).sum() + np.abs(spec.J6).sum() + 1.0
    return opmass * matmass * (1.0 + float(np.abs(vals).max()))


def random_amplitudes(rng, n, count):
    xs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    ps = rng.standard_normal((n - 1, count)) + 1j * rng.standard_normal((n - 1, count))
    return xs, ps


class TestGeneralSolution:
    def test_all_zero(self, ref_spec):
        op = k_family(TWO_PI / 100, 0.3)
        sol = general_solution_del(ref_spec, op, 3, np.zeros(8), np.zeros((2, 8)),
                                   0.0, 100)
        grid, xs_vals = sol.sample()
        assert np.abs(grid.values).max() == 0.0
        assert np.abs(xs_vals).max() == 0.0

    @pytest.mark.parametrize("eps", [0.05, 0.01])
    def test_overflowing_samples_are_a_numerical_failure(self, ref_spec, eps):
        # the 5-point operator's spurious phases grow by e^{709.9..711.1} over M = 344
        # nodes, past the largest float.  With zero amplitudes they add exactly 0; a unit
        # amplitude on the fastest nu = 0 one, whose kernel vector is (0, 1), is a typed
        # error instead of a bare ValueError
        op = ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0, eps)
        zero = general_solution_del(ref_spec, op, 3, np.zeros(16), np.zeros((2, 16)), 0.0, 344)
        grid, xs_vals = zero.sample()
        assert not grid.values.any() and not xs_vals.any()
        growing = np.zeros((2, 16))
        growing[0, np.argmax(zero.particles[0].lambdas[16:].real)] = 1.0  # after x_s's 16
        one = [general_solution_del(ref_spec, op, 3, np.zeros(16), growing, 0.0, M)
               for M in (343, 344)]
        grid, _ = one[0].sample()
        assert np.abs(grid.values).max() > 1e300
        with pytest.raises(numkernel.NumericalFailure,
                           match=r"max Re lam \(tf - t0\) = 7(09|11)\.\d\d against "
                                 r"log\(max float\) = 709\.78"):
            one[1].sample()

    def test_a_user_grid_with_non_finite_values_stays_a_value_error(self):
        with pytest.raises(ValueError, match="non-finite"):
            TrajectoryGrid(0.0, 0.1, np.full((1, 3, 1), np.inf))

    def test_scalar_oscillator_discrete_cosine(self):
        omega, eps, M = 1.0, 0.1, 40
        spec = make_oscillator_spec(omega)
        op = central_difference(eps)
        # amplitudes 1/2 on the two convergent phases, zero on the divergent pair
        sol = general_solution_del(spec, op, 1, [0.0, 0.5, 0.5, 0.0], None, 0.0, M)
        grid, _ = sol.sample()
        m = np.arange(M + 1)
        want = np.cos(math.asin(omega * eps) * m)
        assert np.abs(grid.values[0, :, 0] - want).max() < 1e-12

    def test_mode_counts(self, ref_spec):
        op = k_family(TWO_PI / 100, 0.3)
        rng = np.random.default_rng(3)
        sol = general_solution_del(ref_spec, op, 3, *random_amplitudes(rng, 3, 8),
                                   t0=0.0, M=100)
        assert len(sol.xs.lambdas) == 8          # 4Nd
        for p in sol.particles:
            assert len(p.lambdas) == 16          # 8Nd

    @pytest.mark.parametrize("k", [0.0, 0.3])
    def test_interior_residuals(self, ref_spec, k):
        op = k_family(TWO_PI / 100, k)
        rng = np.random.default_rng(5)
        sol = general_solution_del(ref_spec, op, 3, *random_amplitudes(rng, 3, 8),
                                   t0=0.0, M=100)
        grid, xs_vals = sol.sample()
        scale = equation_scale(ref_spec, op, grid.values)
        for m in list(sol.interior_nodes())[::7]:
            r = residual_del(ref_spec, op, 3, grid, m, xs_vals)
            assert np.abs(r.xs).max() <= 1e-10 * scale
            assert np.abs(r.particles).max() <= 1e-10 * scale

    def test_sum_identity(self, ref_spec):
        op = k_family(TWO_PI / 100, 0.3)
        rng = np.random.default_rng(6)
        sol = general_solution_del(ref_spec, op, 3, *random_amplitudes(rng, 3, 8),
                                   t0=0.0, M=100)
        assert sol.sum_mismatch() <= 1e-9

    def test_real_operator_real_data_real_solution(self, ref_spec):
        op = central_difference(TWO_PI / 100)
        rng = np.random.default_rng(7)
        head = rng.standard_normal((3, 2, 2))
        tail = rng.standard_normal((3, 2, 2))
        sol, _ = dirichlet_del(ref_spec, op, 3, 0.0, 100, head, tail)
        grid, _ = sol.sample()
        scale = max(1.0, np.abs(grid.values).max())
        assert np.abs(grid.values.imag).max() <= 1e-9 * scale

    def test_center_of_mass_identities(self):
        # includes nonzero J6/J7 and an operator with sum(gamma) != 0 so the
        # constant-term sign conventions are actually exercised
        spec = dataclasses.replace(make_reference_spec(),
                                   J6=np.array([0.2, -0.7]),
                                   J7=np.array([1.1, 0.4]))
        n = 3
        op = ScaleOperator(np.array([-0.45 + 0.1j, -0.2, 0.55 + 0.1j]), 0.05)
        p_n = pencil.transcendental_pencil(spec, op, n)
        p_0 = pencil.transcendental_pencil(spec, op, 0)
        sp_n = pencil.transcendental_spectrum(p_n)
        for zeta, lam in zip(sp_n.zeta.roots, sp_n.lam.roots):
            xs_a = kernel_vector(pencil.transcendental_eval(p_n, zeta))
            theta = symbol_theta(op, lam)
            xj_a = 2 * np.linalg.solve(
                pencil.transcendental_eval(p_0, zeta),
                (spec.J4 + theta * spec.J3) @ xs_a)
            assert np.abs(xj_a - xs_a / n).max() < 1e-10
        sbar0 = op.gamma.sum() / op.epsilon
        theta0 = symbol_theta(op, 0.0)
        xs_0 = n * np.linalg.solve(pencil.transcendental_eval(p_n, 1.0),
                                   spec.J7 + sbar0 * spec.J6)
        xj_0 = np.linalg.solve(
            pencil.transcendental_eval(p_0, 1.0),
            2 * (theta0 * spec.J3 + spec.J4) @ xs_0 + sbar0 * spec.J6 + spec.J7)
        assert np.abs(xj_0 - xs_0 / n).max() < 1e-10


class TestDirichlet:
    def test_round_trip(self, ref_spec):
        op = k_family(TWO_PI / 100, 0.3)
        rng = np.random.default_rng(11)
        sol = general_solution_del(ref_spec, op, 3, *random_amplitudes(rng, 3, 8),
                                   t0=0.0, M=100)
        head_t = op.epsilon * np.arange(2)
        tail_t = op.epsilon * np.arange(99, 101)
        head = np.array([p.value(head_t) for p in sol.particles])
        tail = np.array([p.value(tail_t) for p in sol.particles])
        back, report = dirichlet_del(ref_spec, op, 3, 0.0, 100, head, tail)
        ts = rng.uniform(0.0, TWO_PI, 16)
        for p, q in zip(sol.particles, back.particles):
            scale = max(1.0, np.abs(p.value(ts)).max())
            assert np.abs(p.value(ts) - q.value(ts)).max() <= 1e-8 * scale
        assert all(np.isfinite(c) for c in (report.xs_cond, *report.particle_conds))

    def test_scalar_cosine_data_concentrates_on_convergent_modes(self):
        omega, eps, M = 1.0, 0.1, 60
        spec = make_oscillator_spec(omega)
        op = central_difference(eps)
        slow = math.asin(omega * eps) / eps
        data = np.cos(slow * eps * np.arange(M + 1))
        head = data[:2].reshape(1, 2, 1)
        tail = data[-2:].reshape(1, 2, 1)
        sol, _ = dirichlet_del(spec, op, 1, 0.0, M, head, tail)
        amps = np.abs(sol.xs.vectors[:, 0])
        order = np.argsort(np.abs(sol.xs.lambdas.imag))
        assert np.allclose(amps[order][:2], 0.5, atol=1e-8)   # convergent pair
        assert np.abs(amps[order][2:]).max() <= 1e-8          # divergent pair

    def test_degenerate_rows_singular(self, monkeypatch):
        # arrange the discrete phases on exact tenth roots of unity so the
        # boundary rows at nodes {0, 1} repeat at nodes {10, 11}
        eps = 0.1
        a = 2.0 * math.pi / 10.0
        omega = math.sin(a) / eps
        spec = make_oscillator_spec(omega)
        op = central_difference(eps)
        M = 11
        data = np.cos(a / eps * eps * np.arange(M + 1))
        head = data[:2].reshape(1, 2, 1)
        tail = data[-2:].reshape(1, 2, 1)
        seen = []
        solve = numkernel._solve_stack
        monkeypatch.setattr(numkernel, "_solve_stack",
                            lambda a, b: seen.append(a[0]) or solve(a, b))
        with pytest.raises(SingularBoundarySystem):
            dirichlet_del(spec, op, 1, 0.0, M, head, tail)
        # the premise: the boundary matrix (one row per node, nodes 0, 1, 10, 11) repeats
        # its rows, so its smallest pivot is rounding, well below 1e-14 x scale
        mat = seen[-1]
        scale = np.abs(mat).max()
        assert np.abs(mat[:2] - mat[2:]).max() <= 1e-14 * scale
        pivots, _ = numkernel._lu_solve(mat[None], np.zeros((1, len(mat), 1)))
        ratio = pivots.min() / scale
        assert ratio <= 1e-14 / 3, f"smallest pivot ratio {ratio:.3e}: within 3x of 1e-14"


class TestRecurrenceMarch:
    def test_matches_pseudo_periodic_solution(self, ref_spec):
        for k in (0.0, 0.3):
            op = k_family(TWO_PI / 100, k)
            rng = np.random.default_rng(13)
            sol = general_solution_del(ref_spec, op, 3,
                                       *random_amplitudes(rng, 3, 8), t0=0.0, M=100)
            grid, xs_vals = sol.sample()
            marched, xs_march = recurrence_march(
                ref_spec, op, 3, xs_vals[:4], grid.values[:, :4], 100)
            scale = 1.0 + np.abs(grid.values).max()
            assert np.abs(marched.values - grid.values).max() <= 1e-8 * scale
            assert np.abs(xs_march - xs_vals).max() <= 1e-8 * scale

    def test_scalar_explicit_recurrence(self):
        # central difference: y(t+2e) = 2y(t) - y(t-2e) - 4 e^2 w^2 y(t)
        omega, eps, M = 1.0, 0.1, 30
        spec = make_oscillator_spec(omega)
        op = central_difference(eps)
        slow = math.asin(omega * eps) / eps
        closed = np.cos(slow * eps * np.arange(M + 1))
        _, xs_march = recurrence_march(spec, op, 1, closed[:4].reshape(4, 1),
                                       closed[:4].reshape(1, 4, 1), M)
        by_hand = closed.copy()
        for m in range(4, M + 1):
            by_hand[m] = 2 * by_hand[m - 2] - by_hand[m - 4] \
                - 4 * eps**2 * omega**2 * by_hand[m - 2]
        assert np.abs(xs_march[:, 0] - by_hand).max() < 1e-12
        assert np.abs(xs_march[:, 0] - closed).max() < 1e-10

    def test_zero_seeds_stay_zero(self, ref_spec):
        op = central_difference(TWO_PI / 100)
        grid, xs = recurrence_march(ref_spec, op, 3, np.zeros((4, 2)),
                                    np.zeros((3, 4, 2)), 60)
        assert np.abs(grid.values).max() == 0.0 and np.abs(xs).max() == 0.0

    def test_singular_leading_block(self):
        spec = LagrangianSpec(2, 2, 2 * J3, J2, J3, np.eye(2))  # J1 - 2 J3 = 0
        op = central_difference(0.1)
        with pytest.raises(LeadingBlockSingular):
            recurrence_march(spec, op, 2, np.zeros((4, 2)), np.zeros((2, 4, 2)), 20)

    def test_a_vanishing_edge_weight_is_a_singular_leading_block(self, ref_spec):
        """gamma_{-N} gamma_N = 0 zeroes the block on node c+2N."""
        op = ScaleOperator(np.array([0.0, -1.0, 1.0]), 0.1)
        with pytest.raises(LeadingBlockSingular):
            recurrence_march(ref_spec, op, 3, np.zeros((4, 2)), np.zeros((3, 4, 2)), 20)

    def test_the_march_and_the_residuals_share_one_map(self, ref_spec):
        op = central_difference(0.1)
        rng = np.random.default_rng(21)
        grid, xs = recurrence_march(ref_spec, op, 3, rng.standard_normal((4, 2)),
                                    rng.standard_normal((3, 4, 2)), 20)
        residual_del(ref_spec, op, 3, grid, 10, xs)
        assert [k[0] for k in ref_spec._derived].count("residual_map") == 1

    def test_window_too_small(self, ref_spec):
        op = central_difference(0.1)
        with pytest.raises(WindowExceeded):
            recurrence_march(ref_spec, op, 3, np.zeros((4, 2)),
                             np.zeros((3, 4, 2)), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_seeds_are_bad_input(self, ref_spec, value):
        """A non-finite seed is the caller's, not an overflow of the march."""
        seeds = np.zeros((3, 4, 2))
        seeds[1, 2, 0] = value
        with pytest.raises(ValueError, match="^the seeds have non-finite entries$"):
            recurrence_march(ref_spec, central_difference(0.1), 3, np.zeros((4, 2)), seeds, 20)

    def test_an_overflowing_march_names_its_growth(self, recwarn):
        """The five-point operator's spurious modes on a random d = 8, n = 8 system
        overflow a march of 2,000 nodes from 1e-3 seeds: a NumericalFailure, not the
        bare ValueError of TrajectoryGrid, and no overflow warning on the way."""
        rng = np.random.default_rng(8)
        d, n = 8, 8

        def sym(scale):
            a = scale * rng.standard_normal((d, d))
            return (a + a.T) / 2

        spec = LagrangianSpec(d, n, np.eye(d) + sym(0.1), sym(2.0), sym(0.1), sym(0.5))
        op = ScaleOperator(np.array([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]), 0.01)
        seeds = 1e-3 * (rng.standard_normal((1 + n, 8, d))
                        + 1j * rng.standard_normal((1 + n, 8, d)))
        with pytest.raises(numkernel.NumericalFailure,
                           match=r"march is not finite from node \d+: growth log max \|x\| = "
                                 r"7\d\d\.\d\d by node \d+, against log\(max float\) = 709\.78"):
            recurrence_march(spec, op, n, seeds[0], seeds[1:], 2000)
        assert not recwarn.list


class TestResidual:
    def test_boundary_layer_documented(self, ref_spec):
        op = k_family(TWO_PI / 100, 0.3)
        rng = np.random.default_rng(17)
        sol = general_solution_del(ref_spec, op, 3, *random_amplitudes(rng, 3, 8),
                                   t0=0.0, M=100)
        grid, xs_vals = sol.sample()
        scale = equation_scale(ref_spec, op, grid.values)
        interior = residual_del(ref_spec, op, 3, grid, 50, xs_vals)
        edge = residual_del(ref_spec, op, 3, grid, 1, xs_vals)
        assert np.abs(interior.xs).max() <= 1e-10 * scale
        assert np.abs(edge.xs).max() > 1e-6 * scale  # window truncation bites

    def test_zero_trajectory_with_forcing(self):
        spec = dataclasses.replace(make_reference_spec(),
                                   J7=np.array([1.0, -2.0]))
        op = central_difference(TWO_PI / 100)
        zero = TrajectoryGrid(0.0, op.epsilon, np.zeros((3, 101, 2)))
        r = residual_del(spec, op, 3, zero, 50, np.zeros((101, 2)))
        assert np.allclose(r.xs, -3 * spec.J7)
        assert np.allclose(r.particles, np.tile(-spec.J7, (3, 1)))

    def test_accepts_del_solution_directly(self, ref_spec):
        op = central_difference(TWO_PI / 100)
        rng = np.random.default_rng(23)
        sol = general_solution_del(ref_spec, op, 3, *random_amplitudes(rng, 3, 8),
                                   t0=0.0, M=100)
        grid, _ = sol.sample()
        scale = equation_scale(ref_spec, op, grid.values)
        r = residual_del(ref_spec, op, 3, sol, 50)
        assert np.abs(r.particles).max() <= 1e-10 * scale
