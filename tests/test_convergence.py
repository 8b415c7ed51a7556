import math

import numpy as np
import pytest

from choreoqep import pencil
from choreoqep.convergence import (EmptySet, epsilon_sweep, filter_to_window,
                                   hausdorff_distance)
from choreoqep.model import LagrangianSpec
from choreoqep.numkernel import RootSet
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import make_oscillator_spec, make_reference_spec


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


def gyroscopic_spec():
    """The reference system with a skew J5, so that the sigma1 term contributes."""
    spec = make_reference_spec()
    return LagrangianSpec(2, 3, spec.J1, spec.J2, spec.J3, spec.J4,
                          np.array([[0.0, 0.7], [-0.7, 0.0]]))


@pytest.mark.parametrize("op_family", [
    central_difference, lambda eps: k_family(eps, 0.3),
    lambda eps: ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0, eps)],
    ids=["central", "k_family", "five_point"])
@pytest.mark.parametrize("spec", [make_reference_spec(), gyroscopic_spec()],
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
