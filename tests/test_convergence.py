import math

import numpy as np
import pytest

from choreoqep.convergence import (EmptySet, epsilon_sweep, filter_to_window,
                                   hausdorff_distance)
from choreoqep.numkernel import RootSet
from choreoqep.scaleop import ScaleOperator, central_difference

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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: below eps ~5e-4 the determinant "
                   "interpolation's precision floor dominates the distance")
def test_central_difference_order_two_down_to_small_epsilon():
    epsilons = np.logspace(math.log10(1e-4), math.log10(0.2), 12)
    result = epsilon_sweep(make_reference_spec(), central_difference, 0.0, epsilons)
    assert abs(result.estimated_order - 2.0) <= 0.05
