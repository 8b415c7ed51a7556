import numpy as np
import pytest

from choreoqep.scaleop import (OutOfRange, ScaleOperator,
                               adjoint_box_apply, box_apply, boxbox_apply,
                               central_difference, check_operator_conditions,
                               chi, k_family)

from reference import symbol_s, symbol_s_bar, symbol_sigma1, symbol_theta


def test_operator_validation():
    with pytest.raises(ValueError):
        ScaleOperator(np.array([1.0, 2.0]), 0.1)  # even length
    with pytest.raises(ValueError):
        ScaleOperator(np.array([1.0, 0.0, -1.0]), 0.0)  # epsilon


class TestChi:
    def test_zero_shift_inside(self):
        op = central_difference(0.1)
        assert chi(op, 0, 0.37, 0.0, 1.0) == 1

    def test_positive_shift_excludes_early_times(self):
        op = central_difference(0.1)  # eps = (tf - t0)/10
        assert chi(op, 2, 0.1, 0.0, 1.0) == 0

    def test_negative_shift_at_far_end(self):
        op = central_difference(0.1)
        assert chi(op, -1, 0.9, 0.0, 1.0) == 1
        assert chi(op, -1, 1.0, 0.0, 1.0) == 0

    @pytest.mark.parametrize("op", [central_difference(1e-3), ScaleOperator(
        np.array([1, -8, 0, 8, -1]) / 12.0, 1e-3)], ids=["central", "five_point"])
    def test_agrees_with_chi_node_far_from_zero(self, op):
        # at t0 = 1e6 the rounding of node times (ulp ~1.2e-10) exceeds 1e-9 eps
        t0, M = 1e6, 200
        tf = t0 + M * op.epsilon
        for m in range(M + 1):
            for j in range(-2 * op.N, 2 * op.N + 1):
                on_grid = int(max(0, j) <= m <= M + min(0, j))  # chi_j at node m
                assert chi(op, j, t0 + m * op.epsilon, t0, tf) == on_grid, (m, j)


class TestBoxApply:
    def test_identity_function_gives_one(self):
        op = central_difference(0.05)
        val = box_apply(op, 0.05 * np.arange(21), 10, 0.0, 1.0)
        assert val[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_gives_zero(self):
        op = central_difference(0.05)
        assert abs(box_apply(op, np.ones(21), 10, 0.0, 1.0)[0]) < 1e-13

    def test_exponential_matches_symbol(self):
        lam = 0.7 + 1.3j
        eps = 0.05
        op = central_difference(eps)
        f = [np.exp(lam * m * eps) for m in range(21)]
        t = 0.5
        want = np.exp(lam * t) * np.sinh(lam * eps) / eps
        assert abs(box_apply(op, f, 10, 0.0, 1.0)[0] - want) < 1e-12 * abs(want)

    def test_missing_node_raises(self):
        op = central_difference(0.05)
        # declared interval extends past the stored grid
        with pytest.raises(OutOfRange):
            box_apply(op, 0.05 * np.arange(11), 10, 0.0, 2.0)


class TestAdjointBoxApply:
    def test_identity_function_gives_minus_one(self):
        op = central_difference(0.05)
        f = 0.05 * np.arange(21)
        assert adjoint_box_apply(op, f, 10, 0.0, 1.0)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_gives_zero(self):
        op = central_difference(0.05)
        assert abs(adjoint_box_apply(op, np.full(21, 4.2), 10, 0.0, 1.0)[0]) < 1e-13

    def test_exponential_matches_mirrored_symbol(self):
        lam = -0.2 + 0.9j
        eps = 0.05
        op = central_difference(eps)
        f = [np.exp(lam * m * eps) for m in range(21)]
        want = -np.exp(lam * 0.5) * np.sinh(lam * eps) / eps
        assert abs(adjoint_box_apply(op, f, 10, 0.0, 1.0)[0] - want) < 1e-12 * abs(want)


class TestOperatorConditions:
    def test_central_difference(self):
        conds = check_operator_conditions(central_difference(0.1))
        assert conds.sum_zero and conds.derivative_normalized

    @pytest.mark.parametrize("k", [0.0, 0.3, -1.7, 12.0])
    def test_k_family(self, k):
        conds = check_operator_conditions(k_family(0.1, k))
        assert conds.sum_zero and conds.derivative_normalized

    def test_bad_operator(self):
        conds = check_operator_conditions(ScaleOperator(np.array([1.0, 0, 1.0]), 0.1))
        assert not conds.sum_zero and not conds.derivative_normalized


class TestSymbols:
    def test_theta_central_closed_form(self):
        eps = 0.07
        op = central_difference(eps)
        for lam in (0.4 + 1.1j, 2j, -0.3):
            want = -np.sinh(lam * eps) ** 2 / eps**2
            assert abs(symbol_theta(op, lam) - want) < 1e-11 * max(1.0, abs(want))
        omega = 1.9
        assert symbol_theta(op, 1j * omega).real == pytest.approx(
            np.sin(omega * eps) ** 2 / eps**2)

    def test_theta_tends_to_minus_lambda_squared(self):
        lam = 1.0 + 2.0j
        errs = [abs(symbol_theta(k_family(eps, 0.3), lam) + lam**2)
                for eps in (1e-2, 5e-3)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)  # second order here

    def test_theta_vanishes_at_zero(self):
        assert abs(symbol_theta(k_family(0.1, 0.5), 0.0)) < 1e-14

    def test_sigma1_central_closed_form(self):
        eps = 0.07
        op = central_difference(eps)
        lam = 0.8 - 0.6j
        want = 2.0 * np.sinh(lam * eps) / eps
        assert abs(symbol_sigma1(op, lam) - want) < 1e-12 * abs(want)

    def test_sigma1_zero_at_origin(self):
        assert abs(symbol_sigma1(k_family(0.1, 1.2), 0.0)) < 1e-14

    def test_sigma1_tends_to_two_lambda(self):
        lam = 1.0 + 1.0j
        errs = [abs(symbol_sigma1(central_difference(eps), lam) - 2 * lam)
                for eps in (1e-2, 1e-3)]
        assert errs[0] > errs[1]
        assert errs[1] < 1e-2 * abs(2 * lam)  # at least first order

    def test_theta_equals_product_of_one_sided_symbols(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            gamma = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            op = ScaleOperator(gamma, 0.3)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            via_sum = symbol_theta(op, lam)
            via_product = symbol_s(op, lam) * symbol_s_bar(op, lam)
            assert abs(via_sum - via_product) <= 1e-13 * max(1.0, abs(via_sum))


class TestComposition:
    def test_derivative_limit_is_first_order_or_better(self):
        # smooth test function sampled ever finer: sup |box f - f'| = O(eps)
        f = np.sin
        df = np.cos
        sups = []
        for eps in (0.02, 0.01, 0.005):
            M = int(round(2.0 / eps))
            grid = [f(m * eps) for m in range(M + 1)]
            op = k_family(eps, 0.4)
            errs = [abs(box_apply(op, grid, m, 0.0, 2.0)[0] - df(m * eps))
                    for m in range(2, M - 2)]
            sups.append(max(errs))
        assert sups[0] / sups[1] >= 1.8 and sups[1] / sups[2] >= 1.8

    def test_adjoint_after_forward_carries_theta_symbol(self):
        lam = 0.3 + 1.2j
        eps = 0.05
        op = k_family(eps, 0.2)
        M = 40
        f = [np.exp(lam * m * eps) for m in range(M + 1)]
        box_vals = np.array([box_apply(op, f, m, 0.0, M * eps) for m in range(M + 1)])
        m = 20
        want = symbol_theta(op, lam) * np.exp(lam * m * eps)
        got = adjoint_box_apply(op, box_vals, m, 0.0, M * eps)[0]
        assert abs(got - want) < 1e-11 * abs(want)
        # the windowed double-sum gives the same composition in one shot
        direct = boxbox_apply(op, f, m, 0.0, M * eps)[0]
        assert abs(direct - want) < 1e-11 * abs(want)


@pytest.mark.parametrize("op", [central_difference(0.1), ScaleOperator(
    np.array([1, -8, 0, 8, -1]) / 12.0, 0.01)], ids=["central", "five_point"])
def test_shift_rewrites_zeta_coefficients_in_w(op):
    """S @ c are the coefficients of sum_j c_j zeta^j in w = (zeta - 1)/eps."""
    rng = np.random.default_rng(7)
    c = rng.standard_normal(4 * op.N + 1) + 1j * rng.standard_normal(4 * op.N + 1)
    for w in (0.3 - 1.2j, 7.0, -40.0 + 2.0j):
        zeta = 1.0 + op.epsilon * w
        want = np.polynomial.polynomial.polyval(zeta, c)
        got = np.polynomial.polynomial.polyval(w, op.shift @ c)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
