import math

import numpy as np
import pytest

from choreoqep import numkernel
from choreoqep.model import LagrangianSpec
from choreoqep.pencil import (ClassicalPencil, DegenerateRoots, LeadingSingular,
                              ZeroArgument, check_cel_assumptions, check_del_assumptions,
                              classical_eval, classical_pencil,
                              classical_spectrum, coefficient_matrices,
                              transcendental_eval, transcendental_pencil,
                              transcendental_spectrum)
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import J1, J2, J3, make_oscillator_spec, make_reference_spec


def sorted_imag(roots):
    return np.sort(np.asarray(roots, dtype=complex).imag)


class TestClassicalPencil:
    def test_value_at_zero_is_constant_block(self, ref_spec):
        p = classical_pencil(ref_spec, 3)
        _, c = coefficient_matrices(ref_spec, 3)
        assert np.allclose(classical_eval(p, 0.0), -c)

    def test_scalar_oscillator_any_nu(self):
        spec = make_oscillator_spec(2.0)
        for nu in (0, 1, 5.5):
            p = classical_pencil(spec, nu)
            lam = 1.3 + 0.2j
            assert classical_eval(p, lam)[0, 0] == pytest.approx(lam**2 + 4.0)

    def test_constructed_root_is_singular_point(self, ref_spec):
        p = classical_pencil(ref_spec, 0)
        s = np.linalg.svd(classical_eval(p, 2j), compute_uv=False)
        assert s[-1] < 1e-10 * s[0]


class TestClassicalSpectrum:
    def test_scalar(self):
        spec = make_oscillator_spec(3.0)
        roots = classical_spectrum(classical_pencil(spec, 1))
        assert np.allclose(sorted_imag(roots.roots), [-3, 3], atol=1e-10)
        assert np.abs(roots.roots.real).max() < 1e-10

    def test_reference_targets(self, ref_spec):
        roots = classical_spectrum(classical_pencil(ref_spec, 0))
        assert len(roots) == 4
        assert np.allclose(sorted_imag(roots.roots), [-5, -2, 2, 5], atol=1e-8)

    def test_incommensurable_pair_targets(self):
        spec = make_reference_spec(omega=(4.0, 7.0 * math.sqrt(2)))
        roots = classical_spectrum(classical_pencil(spec, 0))
        want = [-7 * math.sqrt(2), -4, 4, 7 * math.sqrt(2)]
        assert np.allclose(sorted_imag(roots.roots), want, atol=1e-8)

    def test_conjugation_closure_and_kernel_residual(self, ref_spec):
        for nu in (0, 3):
            p = classical_pencil(ref_spec, nu)
            roots = classical_spectrum(p)
            by_imag = sorted(roots.roots, key=lambda z: z.imag)
            conj = sorted(roots.roots.conj(), key=lambda z: z.imag)
            assert np.abs(np.array(by_imag) - np.array(conj)).max() < 1e-9
            for lam in roots.roots:
                m = classical_eval(p, lam)
                v = numkernel.kernel_vector(m)
                assert np.linalg.norm(m @ v) <= 1e-8 * np.linalg.norm(m)

    def test_singular_leading_block(self):
        spec = LagrangianSpec(2, 2, np.zeros((2, 2)), J2, np.zeros((2, 2)), np.eye(2))
        with pytest.raises(LeadingSingular):
            classical_spectrum(classical_pencil(spec, 1))


class TestTranscendentalEval:
    def test_at_one_reduces_to_constant_block(self, ref_spec):
        op = k_family(0.1, 0.3)
        for nu in (0, 3):
            p = transcendental_pencil(ref_spec, op, nu)
            _, c = coefficient_matrices(ref_spec, nu)
            assert np.allclose(transcendental_eval(p, 1.0), -c, atol=1e-12)

    def test_scalar_central_closed_form(self):
        spec = make_oscillator_spec(2.0)
        eps = 0.1
        p = transcendental_pencil(spec, central_difference(eps), 1)
        for zeta in (0.7 + 0.4j, 1.5, np.exp(0.3j)):
            want = ((zeta - 1 / zeta) / (2 * eps)) ** 2 + 4.0
            assert transcendental_eval(p, zeta)[0, 0] == pytest.approx(want)

    def test_zero_argument(self, ref_spec):
        p = transcendental_pencil(ref_spec, central_difference(0.1), 0)
        with pytest.raises(ZeroArgument):
            transcendental_eval(p, 0.0)

    def test_tends_to_classical_second_order_for_central(self, ref_spec):
        lam = 0.4 + 1.1j
        pc = classical_pencil(ref_spec, 0)
        errs = []
        for eps in (1e-2, 5e-3):
            pt = transcendental_pencil(ref_spec, central_difference(eps), 0)
            diff = transcendental_eval(pt, np.exp(lam * eps)) - classical_eval(pc, lam)
            errs.append(np.abs(diff).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


class TestTranscendentalSpectrum:
    def test_scalar_closed_form(self):
        spec = make_oscillator_spec(1.0)
        eps = 0.1
        sp = transcendental_spectrum(transcendental_pencil(spec, central_difference(eps), 1))
        assert len(sp.lam) == 4
        slow = math.asin(eps) / eps
        fast = (math.pi - math.asin(eps)) / eps
        assert np.allclose(sorted_imag(sp.lam.roots), [-fast, -slow, slow, fast],
                           atol=1e-10)
        assert np.abs(sp.lam.roots.real).max() < 1e-10

    def test_reference_count(self, ref_spec):
        op = k_family(2 * math.pi / 100, 0.3)
        sp = transcendental_spectrum(transcendental_pencil(ref_spec, op, 0))
        assert len(sp.lam) == 8 and len(sp.zeta) == 8  # 4Nd with N=1, d=2

    def test_vieta_product_of_zeta_roots(self, ref_spec):
        op = k_family(2 * math.pi / 100, 0.3)
        p = transcendental_pencil(ref_spec, op, 0)
        sp = transcendental_spectrum(p)
        poly = numkernel.det_as_polynomial(
            lambda z: z**2 * transcendental_eval(p, z), 8)
        want = poly.coeffs[0] / poly.coeffs[-1]  # (-1)^deg * product of roots
        got = np.prod(sp.zeta.roots)
        assert abs(got - want) <= 1e-8 * abs(want)

    def test_residual_bound_on_zeta_roots(self, ref_spec):
        op = central_difference(2 * math.pi / 100)
        sp = transcendental_spectrum(transcendental_pencil(ref_spec, op, 3))
        assert (sp.zeta.residuals <= 1e-8).all()

    def test_convergent_and_divergent_split(self):
        spec = make_oscillator_spec(1.0)
        for eps in (0.1, 0.05, 0.025):
            sp = transcendental_spectrum(
                transcendental_pencil(spec, central_difference(eps), 1))
            inside = sp.lam.roots[np.abs(sp.lam.roots) <= 10.0]
            outside = sp.lam.roots[np.abs(sp.lam.roots) > 10.0]
            assert len(inside) == 2 and len(outside) == 2
            assert np.abs(np.abs(outside)).min() >= math.pi / eps - 1.5
            assert np.allclose(sorted_imag(inside),
                               [-math.asin(eps) / eps, math.asin(eps) / eps],
                               atol=1e-10)

    def test_zero_edge_weight_rejected(self, ref_spec):
        op = ScaleOperator(np.array([0.0, -0.5, 0.5]), 0.1)
        with pytest.raises(LeadingSingular):
            transcendental_spectrum(transcendental_pencil(ref_spec, op, 0))

    def test_principal_branch(self, ref_spec):
        op = k_family(2 * math.pi / 100, 0.1)
        sp = transcendental_spectrum(transcendental_pencil(ref_spec, op, 0))
        assert (np.abs(sp.lam.roots.imag) <= math.pi / op.epsilon + 1e-9).all()
        assert np.allclose(np.exp(sp.lam.roots * op.epsilon), sp.zeta.roots,
                           atol=1e-12)


class TestAssumptionChecks:
    def test_reference_cel_all_hold(self, ref_spec):
        rep = check_cel_assumptions(ref_spec, 3)
        assert rep.all_hold

    def test_uncoupled_system_fails_disjointness(self):
        spec = LagrangianSpec(2, 3, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
        rep = check_cel_assumptions(spec, 3)
        assert not rep.disjoint and not rep.all_hold

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanishing_constant_block(self):
        j4 = 0.5 * J2  # J2 - 2 J4 = 0
        spec = LagrangianSpec(2, 3, J1, J2, J3, j4)
        rep = check_cel_assumptions(spec, 3)
        assert not rep.det_p00_nonzero
        # J5 = 0 too, so P_0(lam) = A lam^2: every backward-error term vanishes, and
        # the result is typed with no warning
        roots = classical_spectrum(classical_pencil(spec, 0))
        assert (roots.roots == 0).all() and (roots.residuals == 0).all()
        rep = check_del_assumptions(spec, central_difference(0.05), 3)
        assert not rep.det_p00_nonzero and not rep.all_hold

    def test_reference_del_all_hold(self, ref_spec):
        op = central_difference(2 * math.pi / 100)
        rep = check_del_assumptions(ref_spec, op, 3)
        assert rep.all_hold

    def test_uncoupled_del_fails_disjointness(self):
        spec = LagrangianSpec(2, 3, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
        rep = check_del_assumptions(spec, central_difference(0.05), 3)
        assert not rep.disjoint

    def test_zero_edge_weight_reported_not_raised(self, ref_spec):
        op = ScaleOperator(np.array([0.0, -0.5, 0.5]), 0.05)
        rep = check_del_assumptions(ref_spec, op, 3)
        assert not rep.precondition_ok and not rep.all_hold
        assert "gamma" in rep.note


class TestCompanionErrorPaths:
    def test_lapack_non_convergence_is_a_numerical_failure(self, monkeypatch, ref_spec):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(numkernel.NumericalFailure):
            classical_spectrum(classical_pencil(ref_spec, 0))
        p = transcendental_pencil(ref_spec, central_difference(0.05), 0)
        with pytest.raises(numkernel.NumericalFailure):
            transcendental_spectrum(p)
        rep = check_del_assumptions(ref_spec, central_difference(0.05), 3)
        assert not rep.precondition_ok and "eigen-solve" in rep.note

    def test_infinite_eigenvalues_are_a_degree_drop(self):
        # a leading block too small to invert in floating point: the companion overflows
        p = ClassicalPencil(1e-310 * np.eye(2), np.zeros((2, 2)), np.eye(2), 0.0)
        with pytest.raises(LeadingSingular):
            classical_spectrum(p)

    def test_backward_error_above_tol_is_rejected(self, ref_spec):
        p = transcendental_pencil(ref_spec, central_difference(0.05), 3)
        assert transcendental_spectrum(p).zeta.residuals.max() > 1e-30
        with pytest.raises(numkernel.NumericalFailure):
            transcendental_spectrum(p, tol=1e-30)

    def test_real_weights_give_conjugate_pairs_and_vectors(self, ref_spec):
        # real arithmetic: roots and kernel vectors come in exact conjugate pairs
        p = transcendental_pencil(ref_spec, central_difference(0.05), 0)
        sp = transcendental_spectrum(p)
        z, v = sp.zeta.roots, sp.zeta.vectors
        partner = [int(np.argmin(np.abs(z - r.conjugate()))) for r in z]
        assert np.array_equal(z[partner], z.conj())
        assert np.array_equal(v[partner], v.conj())
