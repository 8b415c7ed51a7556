import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from choreoqep import celsolve, convergence, pencil
from choreoqep.convergence import _pencil_errors, epsilon_sweep
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import make_gyroscopic_spec, make_oscillator_spec, make_reference_spec
from reference import EmptySet, hausdorff_distance, root_set


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
        a = root_set([1.0, 2.0])
        assert hausdorff_distance(a, [1.0]) == 1.0

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            hausdorff_distance([], [1.0])
        with pytest.raises(EmptySet):
            hausdorff_distance(root_set([1.0]), [])


def test_non_normalised_operator_is_noted_not_raised():
    # sum zero, but (1/2) sum k (gamma_k - gamma_-k) = 2, not 1
    result = epsilon_sweep(make_oscillator_spec(), lambda eps: ScaleOperator([-1, 0, 1], eps),
                           0.0, [0.1, 0.05, 0.025])
    assert result.notes == ("operator conditions fail",) * 3
    assert not np.isfinite(result.distances).any()
    assert math.isnan(result.estimated_order)


def test_one_repeated_delay_fits_no_order():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.polyfit's RankWarning included
        result = epsilon_sweep(make_reference_spec(), central_difference, 0.0,
                               [0.01, 0.01, 0.01])
    assert np.isfinite(result.distances).all()
    assert math.isnan(result.estimated_order)


@pytest.mark.parametrize("spec", [make_oscillator_spec(), make_reference_spec()],
                         ids=["oscillator", "reference"])
def test_central_difference_converges_at_order_two(spec):
    result = epsilon_sweep(spec, central_difference, 0.0, np.logspace(-3, -1, 7))
    assert np.isfinite(result.distances).all()
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
    radius = 2.0 * float(np.abs(pencil.classical_spectrum(spec, nu).roots).max()) + 1.0
    axis = np.linspace(-radius, radius, 21)
    for eps, got in zip(epsilons, result.pencil_errors):
        op = op_family(eps)
        want = max(np.linalg.norm(pencil.transcendental_eval(spec, op, nu, np.exp(lam * eps))
                                  - pencil.classical_eval(spec, nu, lam))
                   for lam in (axis[:, None] + 1j * axis[None, :]).ravel())
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("gamma", [[-0.5, 0.0, 0.5], np.array([1, -8, 0, 8, -1]) / 12.0],
                         ids=["central", "five_point"])
def test_pencil_error_terms_match_50_digits_at_small_epsilon(gamma):
    # alpha = -(theta_hat + lam^2) and beta = -(sigma1_hat - 2 lam) are O(eps^order)
    # differences of O(1/eps^2) sums; from the moment series (and from expm1 terms for the
    # 5-point operator at eps = 0.2) measured within 5e-16 and 2.4e-15 relative, where
    # expm1 terms alone gave 3.3e-6 (5-point, eps = 1e-3) and 3.8e-2 (5-point, eps = 1e-4)
    lam = 3 + 4j
    for eps in (1e-4, 1e-3, 1e-2, 0.2):
        op = ScaleOperator(np.asarray(gamma, dtype=complex), eps)
        with mp.workdps(50):
            z, e = mp.mpc(lam.real, lam.imag), mp.mpf(op.epsilon)
            g = {j: mp.mpc(op.gamma_at(j).real, op.gamma_at(j).imag)
                 for j in range(-op.N, op.N + 1)}
            p = sum(g[j] * mp.exp(j * z * e) for j in g) / e
            q = sum(g[j] * mp.exp(-j * z * e) for j in g) / e
            alpha, beta = abs(complex(p * q + z**2)), abs(complex(p - q - 2 * z))
        # with the Gram matrix of (A_nu, J5) set to diag(1, 0) or diag(0, 1), the pencil
        # error is |alpha| or |beta|
        got_alpha = _pencil_errors([op], np.array([lam]), np.diag([1.0, 0.0]))[0]
        got_beta = _pencil_errors([op], np.array([lam]), np.diag([0.0, 1.0]))[0]
        assert abs(got_alpha - alpha) <= 1e-12 * alpha, eps
        assert abs(got_beta - beta) <= 1e-12 * beta, eps


def test_each_pencil_error_of_a_batch_is_its_batch_of_one():
    """Batches that mix the moment series (N max|lam| eps <= 1) and expm1 terms give each
    operator the bits of its lone call.  At least 2 lams: one lam times a column of B
    operators runs through numpy's other complex-multiply loop, which can round apart."""
    rng = np.random.default_rng(10)
    forms = set()
    for i in range(300):
        N, B, G = rng.integers(1, 4), rng.integers(1, 13), rng.integers(2, 40)
        ops = [ScaleOperator(rng.standard_normal(2 * N + 1)
                             + 1j * (i % 2) * rng.standard_normal(2 * N + 1),
                             10 ** rng.uniform(-4, -0.5)) for _ in range(B)]
        lam = (rng.standard_normal(G) + 1j * rng.standard_normal(G)) * 10 ** rng.uniform(-1, 2)
        forms |= {N * np.abs(lam).max() * op.epsilon <= 1 for op in ops}
        a = rng.standard_normal((2, 2))
        lone = [_pencil_errors([op], lam, a @ a.T)[0] for op in ops]
        assert np.array_equal(_pencil_errors(ops, lam, a @ a.T), lone)
    assert forms == {True, False}


def window_max_errors(gamma, Ms):
    """The max window error of the discrete Dirichlet solve at each M, held to the
    continuous one on the reference spec, n = 3 on [0, 2], with random end positions."""
    spec, gamma = make_reference_spec(), np.array([gamma], dtype=complex)
    x0, xf = np.random.default_rng(7).uniform(-1.0, 1.0, (2, 3, spec.d))
    cel, _ = celsolve.dirichlet_cel(spec, 3, 0.0, 2.0, x0, xf)
    errors = []
    for M in Ms:
        reference = convergence.window_reference(cel, 0.0, M, 2.0 / M, gamma.shape[1] // 2)
        _, max_errors, status, _ = convergence.window_errors(spec, 3, 0.0, M, 2.0 / M, gamma,
                                                            reference)
        assert status == ["ok"]
        errors += max_errors
    return np.array(errors)


@pytest.mark.parametrize("gamma, Ms, order, tol", [
    ([-0.5, 0.0, 0.5], [400, 800, 1600, 3200, 6400], 2, 0.1),
    (np.array([1, -8, 0, 8, -1]) / 12.0, [400, 800, 1600, 3200], 4, 0.2)],
    ids=["central", "five_point"])
def test_window_max_error_falls_at_the_operators_order(gamma, Ms, order, tol):
    """The least-squares slope of log(max error) against log(eps = 2/M): measured 2.03
    (central, max error 1.4e-5 at M = 6,400) and 4.11 (5-point, 1.1e-10 at M = 3,200)."""
    errors = window_max_errors(gamma, Ms)
    slope = np.polyfit(np.log(2.0 / np.array(Ms)), np.log(errors), 1)[0]
    assert abs(slope - order) <= tol, slope


@pytest.mark.parametrize("nu", [0, 3])
@pytest.mark.parametrize("spec", [make_reference_spec(), make_gyroscopic_spec()],
                         ids=["reference", "gyroscopic"])
def test_central_sweep_distance_is_the_asinh_preimage_gap(spec, nu):
    """With the central difference g(zeta)/eps = sinh(mu eps)/eps, so the convergent phase
    of each classical root lam_k is asinh(eps lam_k)/eps.  Wherever the window holds
    exactly those 2d roots, the Hausdorff distance is max_k |asinh(eps lam_k)/eps - lam_k|
    (measured within 7e-9 relative over 12 delays in [1e-4, 0.2])."""
    epsilons = np.logspace(-4, math.log10(0.2), 12)
    result = epsilon_sweep(spec, central_difference, nu, epsilons)
    lam = pencil.classical_spectrum(spec, nu).roots
    radius = 2.0 * np.abs(lam).max() + 1.0
    sp = pencil.spectra(spec, [central_difference(e) for e in epsilons], nu)
    checked = 0
    for eps, distance, roots, failure in zip(epsilons, result.distances, sp.lam, sp.failures):
        if failure is not None or (np.abs(roots) <= radius).sum() != 2 * spec.d:
            continue
        predicted = np.abs(np.arcsinh(eps * lam) / eps - lam).max()
        assert abs(distance - predicted) <= 1e-7 * predicted, eps
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("points", [2, 5, 21, 41])
def test_symmetric_axis_is_linspace_mirrored_exactly(points):
    axis = convergence.symmetric_axis(2.7, points)
    assert np.array_equal(axis[::-1], -axis)
    assert axis[0] == -2.7 and axis[-1] == 2.7
    assert np.abs(axis - np.linspace(-2.7, 2.7, points)).max() <= 1e-15


def test_a_grid_off_a_mirror_symmetric_axis_is_a_value_error():
    """The quarter grid stands for the whole only on an exactly mirror-symmetric axis, as
    `symmetric_axis` builds; most linspace axes are off by an ulp somewhere."""
    ops, gram = [central_difference(0.1)], np.eye(2)
    axis = np.linspace(-2.7, 2.7, 21)
    assert not np.array_equal(axis[::-1], -axis)
    with pytest.raises(ValueError):
        _pencil_errors(ops, axis[:, None] + 1j * axis[None, :], gram)
    axis = convergence.symmetric_axis(2.7, 21)
    lam = axis[:, None] + 1j * axis[None, :]
    assert np.array_equal(_pencil_errors(ops, lam, gram), _pencil_errors(ops, lam.ravel(), gram))
    for bad in (lam[:, :20], lam.T.copy(), lam + 1e-3):  # not square, swapped, shifted
        with pytest.raises(ValueError):
            _pencil_errors(ops, bad, gram)


def test_real_weights_take_the_max_over_the_upper_half_grid():
    """With real weights and blocks the pencil error at conj(lam) is bit for bit the one at
    lam, so the upper half of a mirror-symmetric grid has the whole grid's max."""
    rng = np.random.default_rng(12)
    for _ in range(60):
        N, B = rng.integers(1, 4), rng.integers(1, 13)
        ops = [ScaleOperator(rng.standard_normal(2 * N + 1), 10 ** rng.uniform(-4, -0.5))
               for _ in range(B)]
        axis = convergence.symmetric_axis(10 ** rng.uniform(-1, 1.5), 21)
        lam = (axis[:, None] + 1j * axis[None, :]).ravel()
        a = rng.standard_normal((2, 2))
        assert np.array_equal(_pencil_errors(ops, lam[lam.imag >= 0], a @ a.T),
                              _pencil_errors(ops, lam, a @ a.T))
