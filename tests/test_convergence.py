import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from choreoqep import pencil
from choreoqep.convergence import (EmptySet, _pencil_errors, epsilon_sweep,
                                   filter_to_window, hausdorff_distance)
from choreoqep.numkernel import RootSet
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import make_gyroscopic_spec, make_oscillator_spec, make_reference_spec


class TestHausdorff:
    def test_exact_small_sets(self):
        # from {0, 1} the farthest point of {0, 3} is 3 (distance 2 to 1)
        assert hausdorff_distance([0, 1], [0, 3]) == 2.0
        assert hausdorff_distance([1j], [1j, -1j]) == 2.0
        assert hausdorff_distance([0.5 + 0.5j], [0.5 + 0.5j]) == 0.0

    def test_symmetric(self):
        a = np.array([0.0, 1.0 + 2.0j, -3.0j])
        b = np.array([0.5, 4.0j])
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)

    def test_accepts_rootsets(self):
        a = RootSet.from_roots([1.0, 2.0])
        assert hausdorff_distance(a, [1.0]) == 1.0

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            hausdorff_distance([], [1.0])
        with pytest.raises(EmptySet):
            hausdorff_distance(RootSet.from_roots([1.0]), [])


def test_filter_to_window_keeps_inner_roots_with_their_residuals():
    roots = RootSet.from_roots([1j, 5j, -0.5, 2.0], residuals=[1e-9, 2e-9, 3e-9, 4e-9],
                               tol=1e-6)
    kept = filter_to_window(roots, 2.0)
    assert list(kept.roots) == [1j, -0.5, 2.0]
    assert list(kept.residuals) == [1e-9, 3e-9, 4e-9]
    assert kept.tol == 1e-6
    assert kept.min_separation == pytest.approx(abs(1j + 0.5))


def test_non_normalised_operator_is_noted_not_raised():
    # sum zero, but (1/2) sum k (gamma_k - gamma_-k) = 2, not 1
    result = epsilon_sweep(make_oscillator_spec(), lambda eps: ScaleOperator([-1, 0, 1], eps),
                           0.0, [0.1, 0.05, 0.025])
    assert result.notes == ("operator conditions fail",) * 3
    assert not result.valid().any()
    assert math.isnan(result.estimated_order)


def test_one_repeated_delay_fits_no_order():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.polyfit's RankWarning included
        result = epsilon_sweep(make_reference_spec(), central_difference, 0.0,
                               [0.01, 0.01, 0.01])
    assert result.valid().all()
    assert math.isnan(result.estimated_order)


@pytest.mark.parametrize("spec", [make_oscillator_spec(), make_reference_spec()],
                         ids=["oscillator", "reference"])
def test_central_difference_converges_at_order_two(spec):
    result = epsilon_sweep(spec, central_difference, 0.0, np.logspace(-3, -1, 7))
    assert result.valid().all()
    assert abs(result.estimated_order - 2.0) <= 0.05


def test_central_difference_order_two_down_to_small_epsilon():
    epsilons = np.logspace(math.log10(1e-4), math.log10(0.2), 12)
    result = epsilon_sweep(make_reference_spec(), central_difference, 0.0, epsilons)
    assert abs(result.estimated_order - 2.0) <= 0.05


@pytest.mark.parametrize("op_family", [
    central_difference, lambda eps: k_family(eps, 0.3),
    lambda eps: ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0, eps)],
    ids=["central", "k_family", "five_point"])
@pytest.mark.parametrize("spec", [make_reference_spec(), make_gyroscopic_spec()],
                         ids=["reference", "gyroscopic"])
def test_pencil_error_grid_matches_the_pointwise_loop(spec, op_family):
    # eps >= 0.05 keeps the cancellation in theta_hat + lam^2 (~1e-16 / eps^2)
    # below the 1e-12 comparison in both computations
    epsilons = [0.2, 0.1, 0.05]
    nu = 3.0
    result = epsilon_sweep(spec, op_family, nu, epsilons)
    p_cls = pencil.classical_pencil(spec, nu)
    radius = 2.0 * float(np.abs(pencil.classical_spectrum(p_cls).roots).max()) + 1.0
    axis = np.linspace(-radius, radius, 21)
    for eps, got in zip(epsilons, result.pencil_errors):
        tp = pencil.transcendental_pencil(spec, op_family(eps), nu)
        want = max(np.linalg.norm(pencil.transcendental_eval(tp, np.exp(lam * eps))
                                  - pencil.classical_eval(p_cls, lam))
                   for lam in (axis[:, None] + 1j * axis[None, :]).ravel())
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("op, bound", [
    (central_difference(1e-4), 1e-8),
    (ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0, 1e-3), 1e-4)],
    ids=["central", "five_point"])
def test_pencil_error_terms_match_50_digits_at_small_epsilon(op, bound):
    # alpha = -(theta_hat + lam^2) and beta = -(sigma1_hat - 2 lam) are O(eps^order)
    # differences of O(1/eps^2) sums; measured 5.9e-10 (central) and 3.3e-6 (5-point)
    # relative, where summing the symbols directly gave 2.0e-3 and 0.12 for alpha
    lam = 3 + 4j
    with mp.workdps(50):
        z, eps = mp.mpc(lam.real, lam.imag), mp.mpf(op.epsilon)
        g = {j: mp.mpc(op.gamma_at(j).real, op.gamma_at(j).imag)
             for j in range(-op.N, op.N + 1)}
        p = sum(g[j] * mp.exp(j * z * eps) for j in g) / eps
        q = sum(g[j] * mp.exp(-j * z * eps) for j in g) / eps
        alpha, beta = abs(complex(p * q + z**2)), abs(complex(p - q - 2 * z))
    # with the Gram matrix of (A_nu, J5) set to diag(1, 0) or diag(0, 1), the pencil
    # error is |alpha| or |beta|
    got_alpha = _pencil_errors([op], np.array([lam]), np.diag([1.0, 0.0]))[0]
    got_beta = _pencil_errors([op], np.array([lam]), np.diag([0.0, 1.0]))[0]
    assert abs(got_alpha - alpha) <= bound * alpha
    assert abs(got_beta - beta) <= bound * beta


def two_expm1_pencil_errors(ops, lam, gram):
    """`_pencil_errors` with expm1(-x) computed on its own, as it was before the reuse."""
    N = ops[0].N
    eps = np.array([op.epsilon for op in ops])[:, None]
    gamma = np.stack([op.gamma for op in ops])[:, :, None]
    total = gamma.sum(axis=1)
    x = np.outer(lam, np.arange(-N, N + 1)) * eps[:, :, None]
    p_lam = ((np.expm1(x) @ gamma)[..., 0] + total) / eps - lam
    q_lam = ((np.expm1(-x) @ gamma)[..., 0] + total) / eps + lam
    coeffs = -np.stack([p_lam * (q_lam - lam) + lam * q_lam, p_lam - q_lam], axis=1)
    sq = np.einsum("big,ij,bjg->bg", coeffs.conj(), gram, coeffs).real
    return np.sqrt(np.maximum(sq, 0.0)).max(axis=1)


def test_reversed_expm1_keeps_every_bit_of_its_own_call():
    rng = np.random.default_rng(10)
    for i in range(300):
        N, B, G = rng.integers(1, 4), rng.integers(1, 13), rng.integers(1, 40)
        ops = [ScaleOperator(rng.standard_normal(2 * N + 1)
                             + 1j * (i % 2) * rng.standard_normal(2 * N + 1),
                             10 ** rng.uniform(-4, -0.5)) for _ in range(B)]
        lam = (rng.standard_normal(G) + 1j * rng.standard_normal(G)) * 10 ** rng.uniform(-1, 2)
        a = rng.standard_normal((2, 2))
        assert np.array_equal(_pencil_errors(ops, lam, a @ a.T),
                              two_expm1_pencil_errors(ops, lam, a @ a.T))
