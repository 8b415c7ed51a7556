import math
from fractions import Fraction

import numpy as np
import pytest

from choreoqep import pencil
from choreoqep.model import LagrangianSpec, construct_j4
from choreoqep.periodic import (Choreography, DelayResonant, NotChoreographic,
                                build_choreography_cel, build_choreography_del,
                                commensurability, verify_choreography)
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import (J1, J2, J3, make_curve_spec, make_discrete_tuned_spec_d3,
                      make_oscillator_spec, make_reference_spec)
from reference import is_periodic_cel, is_periodic_del, root_set

TWO_PI = 2.0 * math.pi


def rootset(*values):
    return root_set(values)


class TestCommensurability:
    def test_reference_pair(self):
        rep = commensurability(rootset(2j, -2j, 5j, -5j))
        assert rep.all_imaginary
        assert set(map(abs, rep.ratios)) == {Fraction(1), Fraction(5, 2)}
        # s = lcm(1,2)/gcd(1,5) = 2 reference cycles
        assert rep.reference_cycles == Fraction(2)
        assert rep.period == pytest.approx(TWO_PI)

    def test_four_ten(self):
        rep = commensurability(rootset(4j, -4j, 10j, -10j))
        assert rep.period == pytest.approx(math.pi)

    def test_incommensurable_pair_unresolved_at_defaults(self):
        rep = commensurability(rootset(4j, -4j, 7j * math.sqrt(2), -7j * math.sqrt(2)))
        assert rep.all_imaginary
        assert rep.period is None
        assert any(f is None for f in rep.ratios)

    def test_real_root_blocks_periodicity(self):
        rep = commensurability(rootset(1.0, 2j, -2j))
        assert not rep.all_imaginary and rep.period is None

    def test_minimal_period_by_exact_rationals(self):
        rep = commensurability(rootset(4j, -4j, 10j, -10j))
        # T/2 must fail lam*T in 2*pi*i*Z for at least one mode
        halves = [rep.reference_cycles * f / 2 for f in rep.ratios]
        assert any(h.denominator != 1 for h in halves)

    def test_scale_consistency(self):
        base = commensurability(rootset(2j, -2j, 5j, -5j))
        scaled = commensurability(rootset(6j, -6j, 15j, -15j))
        assert scaled.ratios == base.ratios
        assert scaled.period == pytest.approx(base.period / 3.0)

    def test_tolerance_gate(self):
        # ratio 2.5 + 1e-6 does not resolve at the 1e-9 tolerance
        tight = commensurability(rootset(1j, (2.5 + 1e-6) * 1j))
        assert tight.period is None


class TestIsPeriodic:
    def test_commensurable_curve_family(self):
        spec = make_curve_spec(omega=(4.0, 10.0), n=3)
        rep = is_periodic_cel(spec, 3)
        assert rep.all_imaginary and rep.period is not None
        # spectra: {±4i, ±10i} and {±i, ±13i}; common period 2*pi
        assert rep.period == pytest.approx(TWO_PI)

    def test_incommensurable_curve_family(self):
        spec = make_curve_spec(omega=(4.0, 7.0 * math.sqrt(2)), n=3)
        rep = is_periodic_cel(spec, 3)
        assert rep.period is None

    def test_discrete_tuned_d3_periodic_in_particle_spectrum(self):
        op = central_difference(math.pi / 15.0)
        spec = make_discrete_tuned_spec_d3(op)
        sp0 = pencil.transcendental_spectrum(spec, op, 0)
        assert np.allclose(np.sort(np.abs(sp0.lam.roots.imag)),
                           [1, 1, 2, 2, 3, 3, 12, 12, 13, 13, 14, 14], atol=1e-9)
        rep = commensurability(sp0.lam)
        assert rep.period == pytest.approx(TWO_PI)

    def test_is_periodic_del_runs_on_union(self):
        op = central_difference(math.pi / 15.0)
        spec = make_discrete_tuned_spec_d3(op)
        rep = is_periodic_del(spec, op, 5)
        # the summed-variable spectrum of this family is not purely imaginary
        assert not rep.all_imaginary and rep.period is None


class TestChoreographyCel:
    def test_reference_system(self, ref_spec):
        ch, sol = build_choreography_cel(ref_spec, 3, np.ones(4))
        assert ch.T == pytest.approx(TWO_PI)
        assert ch.delay == pytest.approx(TWO_PI / 3.0)
        rep = verify_choreography(ch, sol, ref_spec)
        assert rep.all_ok, rep

    def test_zero_forcing_centers_at_origin(self, ref_spec):
        ch, _ = build_choreography_cel(ref_spec, 3, np.ones(4))
        assert np.abs(ch.u.u0).max() == 0.0

    def test_delay_resonance_detected(self):
        spec = make_reference_spec(omega=(2.0, 4.0))  # period pi, mode 4i resonates
        with pytest.raises(DelayResonant):
            build_choreography_cel(spec, 2, np.ones(4))

    def test_zeroing_resonant_mode_recovers_choreography(self):
        spec = make_reference_spec(omega=(2.0, 4.0))
        q0 = pencil.classical_spectrum(spec, 0)
        amps = np.where(np.abs(np.abs(q0.roots.imag) - 4.0) < 1e-6, 0.0, 1.0)
        ch, sol = build_choreography_cel(spec, 2, amps)
        assert len(ch.u.lambdas) == 2  # fewer active modes is still a choreography
        assert verify_choreography(ch, sol, spec).all_ok

    def test_incommensurable_rejected(self):
        spec = make_reference_spec(omega=(4.0, 7.0 * math.sqrt(2)))
        with pytest.raises(NotChoreographic):
            build_choreography_cel(spec, 3, np.ones(4))

    def test_xs_constant(self, ref_spec):
        ch, sol = build_choreography_cel(ref_spec, 3, np.ones(4))
        ts = np.linspace(0.0, ch.T, 256)
        mass = 1.0 + np.abs(ch.u.u0).sum() + np.abs(ch.u.vectors).sum()
        assert np.abs(sol.xs.value(ts) - 3 * ch.u.u0).max() <= 1e-10 * mass

    def test_delay_structure(self, ref_spec):
        ch, sol = build_choreography_cel(ref_spec, 3, np.ones(4))
        ts = np.linspace(0.0, ch.T, 33)
        for j in range(2):
            lhs = sol.particles[j + 1].value(ts)
            rhs = sol.particles[j].value(ts + ch.T / 3.0)
            assert np.abs(lhs - rhs).max() <= 1e-9


class TestChoreographyDel:
    def test_tuned_d3_system(self):
        op = central_difference(math.pi / 15.0)
        spec = make_discrete_tuned_spec_d3(op, n=5)
        ch, sol = build_choreography_del(spec, op, 5, np.ones(12), 0.0, 30)
        assert ch.T == pytest.approx(TWO_PI)
        rep = verify_choreography(ch, sol, spec)
        assert rep.all_ok, rep

    def test_zero_amplitudes_constant_solution(self):
        op = central_difference(math.pi / 15.0)
        spec = make_discrete_tuned_spec_d3(op, n=5)
        ch, sol = build_choreography_del(spec, op, 5, np.zeros(12), 0.0, 30)
        ts = np.linspace(0.0, TWO_PI, 9)
        for p in sol.particles:
            assert np.abs(p.value(ts) - ch.u.u0).max() == 0.0

    def test_generic_operator_not_choreographic(self, ref_spec):
        # a conditions-satisfying but otherwise generic real operator pushes
        # part of the discrete spectrum off the imaginary axis
        op = ScaleOperator(np.array([-0.7, 0.4, 0.3]), TWO_PI / 100)
        with pytest.raises(NotChoreographic):
            build_choreography_del(ref_spec, op, 3, np.ones(8), 0.0, 100)

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
    def test_spurious_roots_without_amplitude_do_not_bind(self, eps):
        """J4 tuned to the discrete targets sin(eps w)/eps puts +-2i and +-5i in the grid's
        nu = 0 spectrum; its spurious roots +-(pi/eps - w)i are incommensurable with them,
        but with zero amplitudes they are not in play, and the choreography has T = 2 pi."""
        targets = [math.sin(w * eps) / eps for w in (2.0, 5.0)]
        spec = LagrangianSpec(2, 3, J1, J2, J3,
                              construct_j4(J1, J2, J3, *targets, targets[1] ** 2))
        op = central_difference(eps)
        lam = pencil.transcendental_spectrum(spec, op, 0).lam.roots
        physical = np.isclose(np.abs(lam.imag), 2.0) | np.isclose(np.abs(lam.imag), 5.0)
        assert physical.sum() == 4 and len(lam) == 8
        ch, sol = build_choreography_del(spec, op, 3, physical.astype(float), 0.0,
                                         round(TWO_PI / eps))
        assert abs(ch.T - TWO_PI) <= 1e-14
        assert verify_choreography(ch, sol, spec).all_ok

    def test_resonance_with_n3(self):
        # the ±3i mode has e^(3i * 2pi/3) = 1: the delay sums do not cancel
        op = central_difference(math.pi / 15.0)
        spec = make_discrete_tuned_spec_d3(op, n=3)
        with pytest.raises(DelayResonant):
            build_choreography_del(spec, op, 3, np.ones(12), 0.0, 30)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_isotropic_systems_build_their_choreography_in_both_settings(n):
    """Every block a multiple of I2, so each nu = 0 phase +-i w (w^2 = 4.6 / 0.8) is double:
    the choreography is a plain sum of its modes, with the period of w, continuous and on
    the grid (central difference, eps = pi/60, unit amplitudes on the 4 modes with
    |lam| < 10, whose phases are +-i asin(eps w)/eps)."""
    eye, omega, eps = np.eye(2), math.sqrt(4.6 / 0.8), math.pi / 60.0
    spec = LagrangianSpec(2, n, eye, -4.0 * eye, 0.1 * eye, 0.3 * eye)
    ch, sol = build_choreography_cel(spec, n, np.ones(4))
    assert ch.T == pytest.approx(TWO_PI / omega, rel=1e-12)
    assert verify_choreography(ch, sol, spec).all_ok
    op = central_difference(eps)
    lam = pencil.transcendental_spectrum(spec, op, 0).lam.roots
    ch, sol = build_choreography_del(spec, op, n, (np.abs(lam) < 10).astype(float), 0.0, 240)
    assert ch.T == pytest.approx(TWO_PI * eps / math.asin(eps * omega), rel=1e-12)
    assert verify_choreography(ch, sol, spec).all_ok


class TestVerifyChoreography:
    def test_wrong_period_fails(self, ref_spec):
        ch, sol = build_choreography_cel(ref_spec, 3, np.ones(4))
        halved = Choreography(ch.u, ch.n, ch.T / 2.0, ch.delay)
        rep = verify_choreography(halved, sol, ref_spec)
        assert rep.failing == ["periodicity", "delay"] and not rep.all_ok


def fitted_weights(eps, omega=(2.0, 5.0)):
    """N = 2 weights (-g2, -g1, 0, g1, g2) whose forward symbol maps i w to i w at both
    frequencies: 2 (g1 sin(w eps) + g2 sin(2 w eps)) / eps = w, a 2 x 2 solve."""
    rows = [[2.0 * math.sin(w * eps) / eps, 2.0 * math.sin(2.0 * w * eps) / eps] for w in omega]
    g1, g2 = np.linalg.solve(rows, omega)
    return np.array([-g2, -g1, 0.0, g1, g2])


@pytest.mark.parametrize("case, eps", [("reference", e) for e in (0.2, 0.1, 0.05, 0.025)]
                         + [("gyroscopic", e) for e in (0.2, 0.1, 0.05)])
def test_a_frequency_fitted_operator_reproduces_the_continuous_choreography(case, eps):
    """Exponentially fitted weights put the grid's physical nu = 0 phases on +-2i, +-5i with
    the classical kernel vectors, so with matched amplitudes a_d = (v_d^H v_c / v_d^H v_d)
    a_c (each basis has its own gauge) the discrete choreography is the continuous one
    (measured <= 2.2e-14 over [0, 2 pi], |T - 2 pi| <= 4.5e-15).  The gyroscopic system has
    J5 = 0.7 [[0, 1], [-1, 0]] and J4 from the targets with J5 counted (j4_free 20)."""
    if case == "reference":
        spec = make_reference_spec()
    else:
        j5 = np.array([[0.0, 0.7], [-0.7, 0.0]])
        j4 = construct_j4(J1, J2, J3, 2.0, 5.0, 20.0, j5)
        spec = LagrangianSpec(2, 3, J1, J2, J3, j4, j5)
    op = ScaleOperator(fitted_weights(eps), eps)
    ch_c, sol_c = build_choreography_cel(spec, 3, np.ones(4))
    modes_c, modes_d = (pencil.spectra(spec, [o], 0).modes(0) for o in (None, op))
    amplitudes = np.zeros(len(modes_d.lam), dtype=complex)
    for lam, v_c in zip(modes_c.lam.roots, modes_c.lam.vectors):
        k = int(np.argmin(np.abs(modes_d.lam.roots - lam)))
        assert abs(modes_d.lam.roots[k] - lam) <= 1e-13
        v_d = modes_d.lam.vectors[k]
        amplitudes[k] = (v_d.conj() @ v_c) / (v_d.conj() @ v_d)
    ch_d, sol_d = build_choreography_del(spec, op, 3, amplitudes, 0.0, round(TWO_PI / eps))
    assert abs(ch_d.T - TWO_PI) <= 1e-13 and abs(ch_c.T - TWO_PI) <= 1e-13
    ts = np.linspace(0.0, TWO_PI, 257)
    assert np.abs(ch_d.u.value(ts) - ch_c.u.value(ts)).max() <= 1e-13
    assert verify_choreography(ch_d, sol_d, spec).all_ok
    assert verify_choreography(ch_c, sol_c, spec).all_ok
