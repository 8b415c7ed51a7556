import dataclasses
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from choreoqep import numkernel, pencil
from choreoqep.model import LagrangianSpec
from choreoqep.pencil import (LeadingSingular, check_cel_assumptions, check_del_assumptions,
                              classical_eval, classical_spectrum, coefficient_matrices,
                              transcendental_eval, transcendental_spectrum)
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import (J1, J2, J3, make_gyroscopic_spec, make_oscillator_spec,
                      make_reference_spec, record_eigenpair_blocks)
from perfbench.gen import _tuned_d3_system


def sorted_imag(roots):
    return np.sort(np.asarray(roots, dtype=complex).imag)


class TestClassicalPencil:
    def test_value_at_zero_is_constant_block(self, ref_spec):
        _, c = coefficient_matrices(ref_spec, 3)
        assert np.allclose(classical_eval(ref_spec, 3, 0.0), -c)

    def test_scalar_oscillator_any_nu(self):
        spec = make_oscillator_spec(2.0)
        for nu in (0, 1, 5.5):
            lam = 1.3 + 0.2j
            assert classical_eval(spec, nu, lam)[0, 0] == pytest.approx(lam**2 + 4.0)

    def test_constructed_root_is_singular_point(self, ref_spec):
        s = np.linalg.svd(classical_eval(ref_spec, 0, 2j), compute_uv=False)
        assert s[-1] < 1e-10 * s[0]


class TestClassicalSpectrum:
    def test_scalar(self):
        spec = make_oscillator_spec(3.0)
        roots = classical_spectrum(spec, 1)
        assert np.allclose(sorted_imag(roots.roots), [-3, 3], atol=1e-10)
        assert np.abs(roots.roots.real).max() < 1e-10

    def test_reference_targets(self, ref_spec):
        roots = classical_spectrum(ref_spec, 0)
        assert len(roots) == 4
        assert np.allclose(sorted_imag(roots.roots), [-5, -2, 2, 5], atol=1e-8)

    def test_incommensurable_pair_targets(self):
        spec = make_reference_spec(omega=(4.0, 7.0 * math.sqrt(2)))
        roots = classical_spectrum(spec, 0)
        want = [-7 * math.sqrt(2), -4, 4, 7 * math.sqrt(2)]
        assert np.allclose(sorted_imag(roots.roots), want, atol=1e-8)

    def test_conjugation_closure_and_kernel_residual(self, ref_spec):
        for nu in (0, 3):
            roots = classical_spectrum(ref_spec, nu)
            by_imag = sorted(roots.roots, key=lambda z: z.imag)
            conj = sorted(roots.roots.conj(), key=lambda z: z.imag)
            assert np.abs(np.array(by_imag) - np.array(conj)).max() < 1e-9
            for lam in roots.roots:
                m = classical_eval(ref_spec, nu, lam)
                v = numkernel.kernel_vector(m)
                assert np.linalg.norm(m @ v) <= 1e-8 * np.linalg.norm(m)

    def test_singular_leading_block(self):
        spec = LagrangianSpec(2, 2, np.zeros((2, 2)), J2, np.zeros((2, 2)), np.eye(2))
        with pytest.raises(LeadingSingular):
            classical_spectrum(spec, 1)


class TestTranscendentalEval:
    def test_at_one_reduces_to_constant_block(self, ref_spec):
        op = k_family(0.1, 0.3)
        for nu in (0, 3):
            _, c = coefficient_matrices(ref_spec, nu)
            assert np.allclose(transcendental_eval(ref_spec, op, nu, 1.0), -c, atol=1e-12)

    def test_scalar_central_closed_form(self):
        spec = make_oscillator_spec(2.0)
        eps = 0.1
        for zeta in (0.7 + 0.4j, 1.5, np.exp(0.3j)):
            want = ((zeta - 1 / zeta) / (2 * eps)) ** 2 + 4.0
            got = transcendental_eval(spec, central_difference(eps), 1, zeta)
            assert got[0, 0] == pytest.approx(want)

    def test_zero_argument(self, ref_spec):
        with pytest.raises(ValueError, match="^transcendental pencil is undefined at zeta = 0$"):
            transcendental_eval(ref_spec, central_difference(0.1), 0, 0.0)

    def test_tends_to_classical_second_order_for_central(self, ref_spec):
        lam = 0.4 + 1.1j
        errs = []
        for eps in (1e-2, 5e-3):
            diff = (transcendental_eval(ref_spec, central_difference(eps), 0, np.exp(lam * eps))
                    - classical_eval(ref_spec, 0, lam))
            errs.append(np.abs(diff).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


class TestTranscendentalSpectrum:
    def test_scalar_closed_form(self):
        spec = make_oscillator_spec(1.0)
        eps = 0.1
        sp = transcendental_spectrum(spec, central_difference(eps), 1)
        assert len(sp.lam) == 4
        slow = math.asin(eps) / eps
        fast = (math.pi - math.asin(eps)) / eps
        assert np.allclose(sorted_imag(sp.lam.roots), [-fast, -slow, slow, fast],
                           atol=1e-10)
        assert np.abs(sp.lam.roots.real).max() < 1e-10

    def test_reference_count(self, ref_spec):
        op = k_family(2 * math.pi / 100, 0.3)
        sp = transcendental_spectrum(ref_spec, op, 0)
        assert len(sp.lam) == 8 and len(sp.roots) == 8  # 4Nd with N=1, d=2

    def test_vieta_product_of_zeta_roots(self, ref_spec):
        op = k_family(2 * math.pi / 100, 0.3)
        sp = transcendental_spectrum(ref_spec, op, 0)
        poly = numkernel.det_as_polynomial(
            lambda z: z**2 * transcendental_eval(ref_spec, op, 0, z), 8)
        want = poly.coeffs[0] / poly.coeffs[-1]  # (-1)^deg * product of roots
        got = np.prod(sp.roots.roots)
        assert abs(got - want) <= 1e-8 * abs(want)

    def test_residual_bound_on_zeta_roots(self, ref_spec):
        op = central_difference(2 * math.pi / 100)
        sp = transcendental_spectrum(ref_spec, op, 3)
        assert (sp.roots.residuals <= 1e-8).all()

    def test_convergent_and_divergent_split(self):
        spec = make_oscillator_spec(1.0)
        for eps in (0.1, 0.05, 0.025):
            sp = transcendental_spectrum(
                spec, central_difference(eps), 1)
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
            transcendental_spectrum(ref_spec, op, 0)

    def test_principal_branch(self, ref_spec):
        op = k_family(2 * math.pi / 100, 0.1)
        sp = transcendental_spectrum(ref_spec, op, 0)
        assert (np.abs(sp.lam.roots.imag) <= math.pi / op.epsilon + 1e-9).all()
        assert np.allclose(np.exp(sp.lam.roots * op.epsilon), sp.roots.roots,
                           atol=1e-12)


class TestAssumptionChecks:
    """Each report is the whole list of the reasons that fail, in their order."""

    def test_reference_cel_all_hold(self, ref_spec):
        assert check_cel_assumptions(ref_spec, 3) == []

    def test_uncoupled_system_fails_disjointness(self):
        spec = LagrangianSpec(2, 3, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
        assert check_cel_assumptions(spec, 3) == ["a nu = n phase is a nu = 0 phase"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanishing_constant_block(self):
        j4 = 0.5 * J2  # J2 - 2 J4 = 0: P_0(lam) = A lam^2, every root at 0
        spec = LagrangianSpec(2, 3, J1, J2, J3, j4)
        reasons = ["the nu = 0 phases are not simple", "P_0 is singular at the constant mode"]
        assert check_cel_assumptions(spec, 3) == reasons
        # J5 = 0 too, so every backward-error term vanishes, and the result is typed with
        # no warning
        roots = classical_spectrum(spec, 0)
        assert (roots.roots == 0).all() and (roots.residuals == 0).all()
        assert check_del_assumptions(spec, central_difference(0.05), 3) == reasons

    def test_clustered_classical_roots_are_judged_not_raised(self):
        eye = np.eye(2)  # every block a multiple of I: each classical root is double
        spec = LagrangianSpec(2, 3, eye, -eye, 0.1 * eye, 0.2 * eye)
        assert check_cel_assumptions(spec, 3) == ["the nu = n phases are not simple",
                                                 "the nu = 0 phases are not simple"]

    def test_reference_del_all_hold(self, ref_spec):
        op = central_difference(2 * math.pi / 100)
        assert check_del_assumptions(ref_spec, op, 3) == []

    def test_uncoupled_del_fails_disjointness(self):
        spec = LagrangianSpec(2, 3, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
        assert check_del_assumptions(spec, central_difference(0.05), 3) == [
            "a nu = n phase is a nu = 0 phase"]

    def test_zero_edge_weight_reported_not_raised(self, ref_spec):
        op = ScaleOperator(np.array([0.0, -0.5, 0.5]), 0.05)
        assert check_del_assumptions(ref_spec, op, 3) == [
            "gamma_{-N} * gamma_N = 0: the zeta-polynomial degenerates"]


class TestCompanionErrorPaths:
    def test_a_delay_whose_square_overflows_is_a_numerical_failure(self, ref_spec):
        op = ScaleOperator(np.array([-0.5, 0.0, 0.5]), 1e160)
        with np.errstate(over="ignore", invalid="ignore"):  # its shift table is not finite
            with pytest.raises(numkernel.NumericalFailure, match="squared delay"):
                pencil.spectra(ref_spec, [op], 0)

    def test_lapack_non_convergence_is_a_numerical_failure(self, monkeypatch, ref_spec):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(numkernel.NumericalFailure):
            classical_spectrum(ref_spec, 0)
        with pytest.raises(numkernel.NumericalFailure):
            transcendental_spectrum(ref_spec, central_difference(0.05), 0)
        assert check_del_assumptions(ref_spec, central_difference(0.05), 3) == [
            "companion eigen-solve failed: Eigenvalues did not converge"]

    @pytest.mark.parametrize("eps", [None, (0.05, 0.1)], ids=["continuous", "preimages"])
    def test_a_failure_shared_by_a_batch_keeps_no_frames(self, monkeypatch, ref_spec, eps):
        """A classical failure shared by every item is stored without its traceback,
        whose frames would keep the batch's arrays alive until the cyclic GC runs."""
        def no_convergence(a):
            raise np.linalg.LinAlgError("planted failure")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)  # the classical (C, B, A) solve
        ops = [None, None] if eps is None else [central_difference(e) for e in eps]
        failures = pencil.spectra(ref_spec, ops, 0).failures
        assert len(failures) == 2 and failures[0] is failures[1]
        assert str(failures[0]) == "companion eigen-solve failed: planted failure"
        assert failures[0].__traceback__ is None

    def test_infinite_eigenvalues_are_a_degree_drop(self):
        # a leading block too small to invert in floating point: the companion overflows
        spec = LagrangianSpec(2, 1, 1e-310 * np.eye(2), -np.eye(2), np.zeros((2, 2)),
                              np.zeros((2, 2)))  # (C, B, A) = (I, 0, 1e-310 I) at nu = 1
        with pytest.raises(LeadingSingular):
            classical_spectrum(spec, 1)

    @pytest.mark.parametrize("block, value", [(0, np.nan), (2, np.inf)],
                             ids=["nan-lower", "inf-leading"])
    def test_non_finite_coefficients_are_a_numerical_failure(self, recwarn, block, value):
        """A NaN in a lower block used to read as LeadingSingular (infinite eigenvalues),
        and an inf in the leading block as LeadingSingular or a backward-error failure
        with worst nan.  Both are what `solve_stack` makes of non-finite entries, a
        NumericalFailure, and the batch's other items keep every bit."""
        rng = np.random.default_rng(6)
        blocks = rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
        blocks[:, -1] += 3.0 * np.eye(2)
        bad = blocks.copy()
        bad[1, block, 0, 1] = value
        *got, failures = pencil._eigenpairs(bad)
        assert failures[0] is None and failures[2] is None
        assert type(failures[1]) is numkernel.NumericalFailure
        assert str(failures[1]) == "non-finite pencil coefficients"
        for item, want in zip(got, pencil._eigenpairs(blocks[[0, 2]])):
            assert np.array_equal(item[[0, 2]], want)
        assert not recwarn.list

    def test_a_nan_coefficient_fails_the_classical_spectrum(self):
        # in the constant block, and in the leading one, whose singularity test (an SVD)
        # used to end in LinAlgError: at nu = 8e307, 2 (nu - 1) times a coupling of 1e308
        # overflows to inf in C_nu (J4) or A_nu (J3)
        big, zero = 1e308 * np.eye(2), np.zeros((2, 2))
        for j3, j4 in ((zero, big), (big, zero)):
            spec = LagrangianSpec(2, 2, np.eye(2), -np.eye(2), j3, j4)
            with np.errstate(over="ignore"), pytest.raises(
                    numkernel.NumericalFailure, match="non-finite pencil coefficients"):
                classical_spectrum(spec, 8e307)

    def test_backward_error_above_tol_is_rejected(self, monkeypatch, ref_spec):
        op = central_difference(0.05)
        assert transcendental_spectrum(ref_spec, op, 3).roots.residuals.max() > 1e-30
        monkeypatch.setattr(pencil, "BACKWARD_ERROR_TOL", 1e-30)
        with pytest.raises(numkernel.NumericalFailure):  # a spec that keeps no spectrum
            transcendental_spectrum(dataclasses.replace(ref_spec), op, 3)

    def test_real_weights_give_conjugate_pairs_and_vectors(self, ref_spec):
        # real arithmetic: roots and kernel vectors come in exact conjugate pairs
        sp = transcendental_spectrum(ref_spec, central_difference(0.05), 0)
        z, v = sp.roots.roots, sp.roots.vectors
        partner = [int(np.argmin(np.abs(z - r.conjugate()))) for r in z]
        assert np.array_equal(z[partner], z.conj())
        assert np.array_equal(v[partner], v.conj())


def preimage_calls(monkeypatch):
    """Wrap pencil._preimages; returns the list of (its arguments, its outputs)."""
    calls, original = [], pencil._preimages
    monkeypatch.setattr(pencil, "_preimages",
                        lambda *args: calls.append((args, original(*args))) or calls[-1][1])
    return calls


def random_j5_zero_weights(rng, N, count):
    """Real weights that are not antisymmetric: gamma cells (a, -(a + b), b) for N = 1,
    and for N = 2 the 5-point weights plus random sum-zero, first-moment-zero parts."""
    if N == 1:
        return [np.array([a, -(a + b), b]) for a, b in rng.uniform(-1.0, 1.0, (count, 2))]
    return [np.array([1, -8, 0, 8, -1]) / 12.0 + a * np.array([1, -4, 6, -4, 1])
            + b * np.array([1, 0, -2, 0, 1]) for a, b in rng.uniform(-0.3, 0.3, (count, 2))]


class TestHalfDegreeRoute:
    """J5 = 0 with weights that are not antisymmetric: the self-reciprocal polynomials
    h(zeta) h(1/zeta) + t eps^2 are solved in y = zeta + 1/zeta - 2, of degree 2N, and
    each y-root gives two zeta-roots."""

    @pytest.mark.parametrize("nu", [0, 3])
    @pytest.mark.parametrize("eps", [0.005, 1e-4])
    @pytest.mark.parametrize("N", [1, 2])
    def test_roots_match_the_degree_4n_companion_in_w(self, monkeypatch, ref_spec, N, eps,
                                                      nu):
        """Against the scaled companion of -g g~/eps^2 - t zeta^{2N} in w, without the
        Newton step (measured <= 2.9e-14 at N = 1 and 3.4e-12 at N = 2)."""
        ops = [ScaleOperator(g, eps)
               for g in random_j5_zero_weights(np.random.default_rng(21), N, 50)]
        calls = preimage_calls(monkeypatch)
        pencil.spectra(ref_spec, ops, nu)
        ((gamma, delays, _, _, _, targets, _), (w, _, _, failures)), = calls
        assert failures == [None] * len(ops)
        coeffs = (-pencil._symbols(gamma, delays)[1][:, None] / delays.eps2[:, None, None]
                  - targets[:, None] * delays.shift[:, None, :, 2 * N])
        want, _, _ = pencil._companion_roots(coeffs, np.ones(len(ops), dtype=bool))
        # per target: the roots of different targets agree to O(eps^2) far from zeta = 1
        for got, ref in zip(w.reshape(-1, 4 * N), want.reshape(-1, 4 * N)):
            dist = np.abs(got[:, None] - ref[None])
            assert sorted(dist.argmin(axis=1)) == list(range(len(ref)))  # one to one
            assert (dist.min(axis=0) <= 1e-11 * np.abs(ref)).all()

    def test_n1_solves_in_closed_form_and_n2_on_2n_companions(self, monkeypatch, ref_spec):
        shapes, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
        for op, want in ((gamma_cell(0.05), []), (mixed_five_point(0.05), [(1, 2, 4, 4)])):
            shapes.clear()
            transcendental_spectrum(ref_spec, op, 3)
            assert shapes == want  # d = 2 targets, one 2N x 2N companion each

    def test_the_quadratic_avoids_cancellation_and_pairs_conjugates(self):
        # x^2 - (1e8 + 1e-8) x + 1 = (x - 1e8)(x - 1e-8): the small root to full accuracy
        roots = pencil._quadratic(1.0, -(1e8 + 1e-8), 1.0)
        assert roots[0] == 1e8 and abs(roots[1] - 1e-8) <= 1e-23
        x = pencil._quadratic(np.array([2.0]), np.array([3.0]), np.array([5.0]))[0]
        assert x[1] == x[0].conjugate() and x[0].imag != 0
        assert np.abs(2 * x**2 + 3 * x + 5).max() <= 1e-14
        assert (pencil._quadratic(1.0, 0.0, 0.0) == 0).all()  # q = 0: a double root at 0

    def test_the_half_degree_polynomial_is_the_symbol_product(self):
        rng = np.random.default_rng(5)
        for N in (1, 2, 3):
            gamma = rng.standard_normal((4, 2 * N + 1)) + 1j * rng.standard_normal((4, 2 * N + 1))
            p = pencil._half_degree(gamma)
            assert np.array_equal(p[:, -1], gamma[:, 0] * gamma[:, -1])
            zeta = np.exp(0.3 + 0.7j)
            want = npoly.polyval(zeta, gamma.T) * npoly.polyval(1 / zeta, gamma.T)
            got = npoly.polyval(zeta + 1 / zeta - 2, p.T)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def summed_backward_errors(blocks, mu, v):
    """The backward errors with Q(mu) v formed as one (B, k+1, d, K) product summed over
    its block axis: the reference for the chunked form."""
    norms = np.linalg.norm(blocks, axis=(2, 3))
    powers = mu[:, None, :] ** np.arange(blocks.shape[1])[:, None]
    num = np.linalg.norm(((blocks @ v[:, None]) * powers[:, :, None]).sum(axis=1), axis=1)
    den = (np.abs(powers) * norms[:, :, None]).sum(axis=1) * np.linalg.norm(v, axis=1)
    return num / den


@pytest.mark.parametrize("B, k, d, K, shared", [
    (12, 8, 32, 256, True),  # a 5-point sweep at d = 32 (preimages: one v), one per chunk
    (12, 4, 8, 32, False),
    (64, 4, 2, 8, False),  # a gamma-surface block on the shifted companion
    (64, 2, 2, 4, True)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_backward_errors_match_the_summed_form_bit_for_bit(B, k, d, K, shared, dtype):
    rng = np.random.default_rng(B + k + d + K)
    blocks = rng.standard_normal((B, k + 1, d, d)).astype(dtype)
    if dtype is complex:
        blocks += 1j * rng.standard_normal(blocks.shape)
    mu = (rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))) * 3.0
    v = rng.standard_normal((d, K)) + 1j * rng.standard_normal((d, K))
    v = np.broadcast_to(v, (B, d, K)) if shared else \
        rng.standard_normal((B, d, K)) + 1j * rng.standard_normal((B, d, K))
    errors, _ = pencil._backward_errors(blocks, np.linalg.norm(blocks, axis=(2, 3)), mu, v)
    assert np.array_equal(errors, summed_backward_errors(blocks, mu, v))


def test_row_products_round_each_row_as_its_delay_batch_does():
    # one shared matrix (one delay): the rows of one matrix product, as a batch at one
    # delay has them; distinct matrices: each row as its lone (1, n) product
    rng = np.random.default_rng(5)
    x, m = rng.standard_normal((64, 5)), rng.standard_normal((5, 9))
    assert np.array_equal(pencil._row_products(x, np.broadcast_to(m, (64, 5, 9))), x @ m)
    ms = rng.standard_normal((64, 5, 9))
    assert np.array_equal(pencil._row_products(x, ms),
                          np.concatenate([x[b:b + 1] @ ms[b] for b in range(64)]))


def five_point(eps):
    return ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0, eps)


ANTISYMMETRIC = {
    "central": central_difference,
    "five_point": five_point,
    # gamma_{-j} = -gamma_j with complex weights, still sum zero and normalised
    "complex": lambda eps: ScaleOperator(
        np.array([1 / 12 + 0.05j, -2 / 3 - 0.1j, 0, 2 / 3 + 0.1j, -1 / 12 - 0.05j]), eps),
}


def gyroscopic_random_spec(d, seed=7):
    """A d-dimensional system with symmetric J1..J4 and a skew J5."""
    rng = np.random.default_rng(seed)

    def sym(scale):
        a = scale * rng.standard_normal((d, d))
        return a + a.T

    skew = 0.2 * rng.standard_normal((d, d))
    return LagrangianSpec(d, 2, np.eye(d) + sym(0.05),
                          -np.diag(np.linspace(1.0, 4.0, d)) + sym(0.1),
                          sym(0.02), sym(0.05), skew - skew.T)


class TestPreimagePath:
    """Antisymmetric weights give P_eps(zeta) = P(g(zeta)/eps): their zeta-roots are the
    preimages of the classical roots, checked here against the shifted companion."""

    @pytest.mark.parametrize("eps", [1e-1, 1e-2])
    @pytest.mark.parametrize("op_name", sorted(ANTISYMMETRIC))
    @pytest.mark.parametrize("d", [2, 8])
    def test_agrees_with_the_shifted_companion(self, d, op_name, eps):
        spec, op = gyroscopic_random_spec(d), ANTISYMMETRIC[op_name](eps)
        sp = transcendental_spectrum(spec, op, 0)
        blocks = pencil._shifted_blocks(spec, op.gamma[None], pencil._Delays.of([op]), 0)
        (w,), (vectors,), _, failures = pencil._eigenpairs(blocks)
        assert failures == [None]
        zeta = 1.0 + eps * w
        assert len(sp.roots) == len(zeta) == 4 * op.N * d
        dist = np.abs(sp.roots.roots[:, None] - zeta[None, :])
        match = dist.argmin(axis=1)
        assert sorted(match) == list(range(len(zeta)))  # one to one
        # measured <= 6.5e-12 relative (the companion's error), 2.2e-15 and 9.2e-16 below
        assert (dist.min(axis=1) <= 1e-9 * np.maximum(1.0, np.abs(zeta[match]))).all()
        # the same unit direction, up to a phase
        overlap = np.abs(np.sum(sp.roots.vectors.conj() * vectors[match], axis=1))
        assert np.abs(overlap - 1.0).max() <= 1e-10
        assert (sp.roots.residuals <= 1e-12).all()

    @staticmethod
    def routed_blocks(monkeypatch, make_spec, other):
        """For each kind of weights, the block shapes `_eigenpairs` solves at nu = 3:
        other for weights that are not antisymmetric, the classical (C, B, A) for the rest.
        Each case has a fresh spec: a spec keeps its classical spectrum once solved."""
        shapes = record_eigenpair_blocks(monkeypatch)
        routes = [(k_family(0.05, 0.3), other),
                  (gamma_cell(0.05), other),
                  (central_difference(0.05), (1, 3, 2, 2)),
                  (five_point(0.05), (1, 3, 2, 2)),
                  (ANTISYMMETRIC["complex"](0.05), (1, 3, 2, 2))]
        for op, blocks in routes:
            shapes.clear()
            transcendental_spectrum(make_spec(), op, 3)
            assert shapes == [blocks]

    def test_only_other_weights_reach_the_zeta_companion(self, monkeypatch):
        # J5 != 0: the shifted (4N+1, d, d) blocks
        self.routed_blocks(monkeypatch, make_gyroscopic_spec, (1, 5, 2, 2))

    def test_j5_zero_reduces_other_weights_to_the_linear_pencil(self, monkeypatch):
        # J5 = 0: the pairs of A_nu mu - C_nu, blocks (-C_nu, A_nu), and no zeta-companion
        self.routed_blocks(monkeypatch, make_reference_spec, (1, 2, 2, 2))


def gamma_cell(eps):
    """A cell of the error surface's gamma grid: real weights, neither antisymmetric nor
    symmetric."""
    return ScaleOperator(np.array([-0.3, -0.4, 0.7]), eps)


def mixed_five_point(eps):
    """N = 2 weights that are neither antisymmetric nor symmetric: the 5-point operator
    plus a fourth difference, still sum zero and normalised."""
    return ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0
                         + 0.1 * np.array([1, -4, 6, -4, 1]), eps)


def recorded_preimages(monkeypatch):
    """Wrap pencil._preimages; returns the list of (gamma, delays, its outputs)."""
    calls = []
    original = pencil._preimages

    def recorded(gamma, delays, *rest):
        out = original(gamma, delays, *rest)
        calls.append((gamma, delays, out))
        return out

    monkeypatch.setattr(pencil, "_preimages", recorded)
    return calls


class TestSymbolReductions:
    """Antisymmetric weights (g/eps) and J5 = 0 (g g~/eps^2) reduce the zeta-pencil to
    scalar polynomials over the classical pairs, with backward errors from the classical
    products."""

    @pytest.mark.parametrize("nu", [0, 3])
    @pytest.mark.parametrize("case", ["gamma_cells", "sweep_d8", "sweep_d32"])
    def test_product_errors_match_the_shifted_blocks(self, monkeypatch, case, nu):
        """Where the shifted blocks are assembled accurately: below eps = 1e-3 the
        5-point operator's blocks carry their own rounding into the block form (off by
        up to 4.9e-14 at eps = 1e-4), and test_oracle holds the product form to the
        50-digit errors there instead."""
        rng = np.random.default_rng(11)
        if case == "gamma_cells":  # J5 = 0, 50 random real cells at the surface's delay
            spec = make_reference_spec()
            ops = [ScaleOperator(np.array([a, -(a + b), b]), 0.005)
                   for a, b in rng.uniform(-1.0, 1.0, (50, 2))]
        else:  # the benchmark sweep's antisymmetric operators, with a skew J5
            spec = gyroscopic_random_spec(int(case[7:]))
            ops = [op(eps) for op in (central_difference, five_point)
                   for eps in (1e-3, 1e-2, 0.1, 0.2)]
        calls = recorded_preimages(monkeypatch)
        for N in {op.N for op in ops}:  # a batch shares N
            pencil.spectra(spec, [op for op in ops if op.N == N], nu)
        assert calls
        for gamma, delays, (w, vectors, errors, failures) in calls:
            assert failures == [None] * len(gamma)
            blocks = pencil._shifted_blocks(spec, gamma, delays, nu)
            want, _ = pencil._backward_errors(blocks, np.linalg.norm(blocks, axis=(2, 3)), w,
                                              np.ascontiguousarray(vectors.transpose(0, 2, 1)))
            assert np.abs(errors - want).max() <= 1e-14

    @pytest.mark.parametrize("nu", [0, 3])
    def test_a_real_gamma_cell_gives_exact_conjugate_pairs(self, monkeypatch, ref_spec, nu):
        self.check_exact_conjugate_pairs(monkeypatch, ref_spec, gamma_cell(0.05), nu)

    @pytest.mark.parametrize("nu", [0, 3])
    def test_real_n2_weights_give_exact_conjugate_pairs(self, monkeypatch, ref_spec, nu):
        self.check_exact_conjugate_pairs(monkeypatch, ref_spec, mixed_five_point(0.05), nu)

    @pytest.mark.parametrize("case", ["long_grid_choreography", "five_point",
                                      "five_point_gyroscopic"])
    def test_conjugate_targets_give_exact_conjugate_pairs(self, monkeypatch, case):
        """Antisymmetric real weights, where each conjugate target's roots are its
        partner's conjugated.  Solved apart, conjugate targets need not give conjugate
        roots: 2 of the 12 zeta-roots of the benchmark's choreography system (d = 3,
        n = 5, central difference at its delay (tf - t0)/M = 1500 (pi/15)/1500, nu = 0)
        had no exact conjugate from LAPACK's complex eigen-solve."""
        if case == "long_grid_choreography":
            system = _tuned_d3_system(math.pi / 15)
            spec = LagrangianSpec(3, 5, *(np.array(system[f"J{i}"]) for i in range(1, 5)))
            op = central_difference(1500 * (math.pi / 15) / 1500)
        else:
            spec = make_gyroscopic_spec() if case.endswith("gyroscopic") else make_reference_spec()
            op = five_point(0.05)
        self.check_exact_conjugate_pairs(monkeypatch, spec, op, 0)

    @pytest.mark.parametrize("op, solved", [(five_point(0.05), 2),
                                            (ANTISYMMETRIC["complex"](0.05), 4)])
    def test_each_conjugate_pair_of_targets_is_solved_once(self, monkeypatch, op, solved):
        """The gyroscopic spec's four classical roots are two conjugate pairs: real
        weights solve one companion a pair, complex weights one a root."""
        shapes, original = [], pencil._companion_roots
        monkeypatch.setattr(pencil, "_companion_roots",
                            lambda c, f: shapes.append(c.shape) or original(c, f))
        transcendental_spectrum(make_gyroscopic_spec(), op, 0)
        assert shapes == [(1, solved, 5)]  # coefficients of degree 2N = 4

    @staticmethod
    def check_exact_conjugate_pairs(monkeypatch, spec, op, nu):
        calls = recorded_preimages(monkeypatch)
        sp = transcendental_spectrum(spec, op, nu)
        assert len(calls) == 1  # a symbol reduction, in real arithmetic
        z, v = sp.roots.roots, sp.roots.vectors
        partner = [int(np.argmin(np.abs(z - r.conjugate()))) for r in z]
        assert np.array_equal(z[partner], z.conj())
        assert np.array_equal(v[partner], v.conj())

    @pytest.mark.parametrize("nu", [0, 3])
    @pytest.mark.parametrize("case", ["central", "five_point_gyroscopic", "complex",
                                      "mixed_five_point"])
    def test_each_batched_item_is_its_lone_spectrum(self, case, nu):
        """Bit for bit over a batch of delays, whether conjugate targets are mirrored
        (real weights) or each solved (complex weights); an item that fails raises alone
        what it fails with in the batch."""
        spec = make_gyroscopic_spec() if case.endswith("gyroscopic") else make_reference_spec()
        family = {"central": central_difference, "five_point_gyroscopic": five_point,
                  "complex": ANTISYMMETRIC["complex"], "mixed_five_point": mixed_five_point}
        ops = [family[case](eps) for eps in (1e-3, 0.01, 0.05, 0.2)]
        batch = pencil.spectra(spec, ops, nu)
        assert batch.failures.count(None) >= 3
        for i, op in enumerate(ops):
            if batch.failures[i] is not None:
                with pytest.raises(type(batch.failures[i])) as info:
                    transcendental_spectrum(spec, op, nu)
                assert str(info.value) == str(batch.failures[i])
                continue
            lone = transcendental_spectrum(spec, op, nu)
            for got, want in ((batch.lam[i], lone.lam.roots), (batch.roots[i], lone.roots.roots),
                              (batch.residuals[i], lone.roots.residuals),
                              (batch.vectors[i], lone.roots.vectors)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [make_reference_spec(), make_gyroscopic_spec()],
                             ids=["reduced", "companion"])
    @pytest.mark.parametrize("op", [k_family(1e-170, 0.3), gamma_cell(1e-170),
                                    mixed_five_point(1e-170)],
                             ids=["k_family", "gamma_cell", "mixed_five_point"])
    def test_an_underflowing_delay_is_a_degree_drop(self, capfd, spec, op):
        # eps^2 underflows to 0: the companion rows are not finite and never reach eig(vals),
        # and the division by it warns nothing (the suite makes RuntimeWarnings errors)
        with pytest.raises(LeadingSingular, match="the block companion has infinite eigenvalues"):
            transcendental_spectrum(spec, op, 3)
        assert capfd.readouterr().out == ""


@pytest.mark.parametrize("nu", [0, 3])
@pytest.mark.parametrize("weights, failure",
                         [((1.0, 1e-12, 3.3e-159), numkernel.NumericalFailure),
                          ((1.0, 0.0, 3.3e-159), numkernel.NumericalFailure)],
                         ids=["overflowing_newton_step", "zeta_root_at_0"])
def test_a_tiny_edge_weight_fails_typed_without_warnings(ref_spec, weights, failure, nu):
    """At eps = 1 the first weights overflow the Newton step's polynomial values, and the
    second have a zeta-root exactly 0, whose Log is -inf.  The suite turns
    RuntimeWarnings into errors, so a warning from either raised in place of the item's
    typed failure."""
    op = ScaleOperator(np.array(weights), 1.0)
    batch = pencil.spectra(ref_spec, [op], nu)
    assert type(batch.failures[0]) is failure


class TestBlockNorms:
    """The symbol reductions take ||B_i||_F of the shifted blocks from their scalar
    coefficients x_i and one QR factor R of [vec A_nu | vec J5 | vec C_nu]; only the
    companion route assembles the blocks."""

    @staticmethod
    def norms(spec, ops, nu):
        gamma, delays = np.stack([op.gamma for op in ops]), pencil._Delays.of(ops)
        blocks = pencil._shifted_blocks(spec, gamma, delays, nu)
        coefficients = pencil._block_coefficients(gamma, delays,
                                                  pencil._symbols(gamma, delays)[1])
        return (pencil._block_norms(spec, coefficients, nu),
                np.linalg.norm(blocks, axis=(2, 3)))

    @pytest.mark.parametrize("j5", ["zero", "skew"])
    @pytest.mark.parametrize("weights", ["real", "complex"])
    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_match_the_assembled_blocks(self, d, weights, j5):
        rng = np.random.default_rng(d)
        spec = gyroscopic_random_spec(d)
        if j5 == "zero":
            spec = LagrangianSpec(d, spec.n, spec.J1, spec.J2, spec.J3, spec.J4)
        for N in (1, 2, 3):
            gamma = rng.uniform(-1.0, 1.0, (6, 2 * N + 1))
            if weights == "complex":
                gamma = gamma + 1j * rng.uniform(-1.0, 1.0, gamma.shape)
            eps = 10.0 ** rng.uniform(-4.0, math.log10(0.2), 6)
            ops = [ScaleOperator(g, e) for g, e in zip(gamma, eps)]
            for nu in (0, spec.n):
                got, want = self.norms(spec, ops, nu)
                assert (np.abs(got - want) <= 1e-12 * want).all()

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_a_nearly_vanishing_block_keeps_the_scale_of_its_parts(self, N):
        """d = 1 with C_nu = c A_nu, c making x_2,0 + c x_2,2 cancel to 1e-10 of its parts:
        the norm of B_2 must be held to u times its parts, which the Gram form x^T R^T R x
        (error ~ sqrt(u) times them) is not."""
        rng = np.random.default_rng(N)
        op = ScaleOperator(rng.uniform(-1.0, 1.0, 2 * N + 1), 0.05)
        gamma, delays = op.gamma[None], pencil._Delays.of([op])
        x = pencil._block_coefficients(gamma, delays, pencil._symbols(gamma, delays)[1])
        c = -x[0][0, 2].real / x[2][0, 2] * (1.0 + 1e-10)
        spec = LagrangianSpec(1, 2, [[1.0]], [[c]], [[0.0]], [[0.0]])  # A_0 = 1, C_0 = c
        got, want = self.norms(spec, [op], 0)
        parts = np.abs(x[0]) + np.abs(c * x[2])
        assert want[0, 2] <= 1e-9 * parts[0, 2]  # the block nearly vanishes
        assert (np.abs(got - want) <= 1e-14 * parts).all()

    @pytest.mark.parametrize("spec, op, assembled", [
        (make_reference_spec(), central_difference(0.05), 0),
        (make_reference_spec(), ANTISYMMETRIC["complex"](0.05), 0),
        (make_reference_spec(), gamma_cell(0.05), 0),
        (make_reference_spec(), k_family(0.05, 0.3), 0),
        (make_gyroscopic_spec(), five_point(0.05), 0),
        (make_gyroscopic_spec(), gamma_cell(0.05), 1),
        (make_gyroscopic_spec(), k_family(0.05, 0.3), 1)],
        ids=["antisymmetric", "antisymmetric_complex", "j5_zero", "j5_zero_complex",
             "antisymmetric_gyroscopic", "companion", "companion_complex"])
    def test_only_the_companion_route_assembles_them(self, monkeypatch, spec, op, assembled):
        calls, original = [], pencil._shifted_blocks
        monkeypatch.setattr(pencil, "_shifted_blocks",
                            lambda *args: calls.append(args) or original(*args))
        for nu in (0, 3):
            pencil.spectra(spec, [op], nu)
        assert len(calls) == 2 * assembled
