"""Choreographic solutions, built from the phases in play and verified.

A finite exponential sum is periodic iff every phase is purely imaginary and all pairwise
ratios are rational: `commensurability` decides both for the phases of the modes in play
and gives the minimal period from the reconstructed rationals.  A choreography is a single
T-periodic curve traversed by all n particles with delays jT/n, which forces the particle
sum to be constant through the vanishing geometric sums sum_j (e^{lam T/n})^j.
`build_choreography_cel` and `build_choreography_del` build it on the nu = 0 modes of
either setting; `verify_choreography` measures its defining properties and the residuals
of the equations of motion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import celsolve, delsolve, numkernel, pencil
from .celsolve import AssumptionViolation, ModeExpansion, SystemSolution
from .delsolve import DelSolution
from .model import LagrangianSpec
from .scaleop import ScaleOperator


class NotChoreographic(AssumptionViolation):
    """Raised when the spectrum conditions for a choreography fail."""


class DelayResonant(AssumptionViolation):
    """Raised when some e^{lam T/n} = 1, so the delay sums do not cancel."""


@dataclass(frozen=True)
class CommensurabilityReport:
    """Rationality structure of a finite set of (near-)imaginary phases."""

    all_imaginary: bool
    ratios: tuple
    period: float | None
    reference_omega: float | None = None
    reference_cycles: Fraction | None = None


def _roots_array(roots) -> np.ndarray:
    return np.asarray(getattr(roots, "roots", roots), dtype=complex).ravel()


def commensurability(roots) -> CommensurabilityReport:
    """Classify phases: imaginary? pairwise-rational? minimal common period?

    A phase is imaginary when |Re| <= 1e-9 max(1, |phase|).  Ratios are taken against
    the first root and reconstructed by continued fractions with denominator <= 64 and
    absolute error <= 1e-9; with ratios p_l/q_l in lowest terms the period is
    2*pi*s/|w_1| where s = lcm(q_l)/gcd(p_l) is the least positive rational making every
    s*p_l/q_l an integer.
    """
    tol, r = 1e-9, _roots_array(roots)
    if len(r) == 0:
        raise ValueError("commensurability requires at least one root")
    all_imag = bool(all(abs(z.real) <= tol * max(1.0, abs(z)) for z in r))
    none_ratios = tuple(None for _ in r)
    if not all_imag:
        return CommensurabilityReport(False, none_ratios, None)

    ref = float(r[0].imag)
    if abs(ref) <= tol:
        return CommensurabilityReport(True, none_ratios, None, ref)
    ratios = []
    for z in r:
        x = float(z.imag) / ref
        f = Fraction(x).limit_denominator(64)
        if f != 0 and abs(float(f) - x) <= tol:
            ratios.append(f)
        else:
            ratios.append(None)
    period = None
    cycles = None
    if all(f is not None for f in ratios):
        cycles = Fraction(math.lcm(*[f.denominator for f in ratios]),
                          math.gcd(*[abs(f.numerator) for f in ratios]))
        period = float(2.0 * math.pi * cycles / abs(ref))
    return CommensurabilityReport(all_imag, tuple(ratios), period, ref, cycles)


@dataclass(frozen=True)
class Choreography:
    """One T-periodic curve traversed by n particles with delay T/n."""

    u: ModeExpansion
    n: int
    T: float
    delay: float


def _choreography_conditions(phases: np.ndarray) -> CommensurabilityReport:
    rep = commensurability(phases)
    if not rep.all_imaginary:
        raise NotChoreographic("spectrum is not purely imaginary")
    if any(abs(z.imag) <= 1e-9 for z in phases):
        raise NotChoreographic("spectrum contains a zero phase")
    if rep.period is None:
        raise NotChoreographic("phases are incommensurable at the given tolerances")
    return rep


def _delay_phases(rep: CommensurabilityReport, active: np.ndarray, n: int) -> np.ndarray:
    """Phases e^{lam_l * j T / n} for j = 1..n via exact rational arithmetic: mode l turns
    m_l = s p_l / q_l reference periods, an integer as s = lcm(q)/gcd(p)."""
    sgn = 1 if rep.reference_omega > 0 else -1
    phases = np.empty((n, int(active.sum())), dtype=complex)
    col = 0
    for f, on in zip(rep.ratios, active):
        if not on:
            continue
        m = int(rep.reference_cycles * f)
        if (sgn * m) % n == 0 and m != 0:
            raise DelayResonant(
                f"mode with {m} reference cycles has e^(lam T/n) = 1 for n = {n}")
        for j in range(1, n + 1):
            frac = (sgn * m * j) % n
            phases[j - 1, col] = np.exp(2j * np.pi * frac / n)
        col += 1
    return phases


def _build_choreography(spec: LagrangianSpec, op: ScaleOperator | None, n: int,
                        amplitudes) -> tuple[Choreography, ModeExpansion, tuple]:
    """Choreography on the nu=0 modes, centred on the constant mode.

    Requires nonzero imaginary commensurable phases for the modes in play, those with a
    nonzero amplitude (every mode when none is), and the nu=n pencil to be regular at the
    constant mode.  A grid's spurious modes are not in play when their amplitudes are zero.
    Roots may repeat: the curve is a plain sum of its modes, each with its kernel vector.
    """
    try:
        modes_0 = pencil.spectra(spec, [op], 0).modes(0)
    except (pencil.LeadingSingular, numkernel.NumericalFailure) as exc:
        raise NotChoreographic(str(exc)) from exc
    roots = modes_0.lam
    amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
    if len(amplitudes) != len(roots):
        raise ValueError(f"expected {len(roots)} amplitudes")
    active = amplitudes != 0
    in_play = active if active.any() else np.ones_like(active)
    rep = _choreography_conditions(roots.roots[in_play])
    (u0,), (failure,) = numkernel.solve_stack(*pencil.constant_systems(spec, [op], n))
    if isinstance(failure, numkernel.Singular):
        raise NotChoreographic("nu=n pencil is singular at the constant mode") from failure
    if failure is not None:
        raise failure

    phases = _delay_phases(rep, active[in_play], n)
    lams = roots.roots[active]
    vecs = amplitudes[active, None] * modes_0.roots.vectors[active]
    u = ModeExpansion(u0, lams, vecs)
    particles = tuple(ModeExpansion(u0, lams, phases[j - 1][:, None] * vecs)
                      for j in range(1, n + 1))
    xs = ModeExpansion(n * u0, [], np.zeros((0, spec.d)))
    T = rep.period
    return Choreography(u, n, T, T / n), xs, particles


def build_choreography_cel(spec: LagrangianSpec, n: int,
                           amplitudes) -> tuple[Choreography, SystemSolution]:
    """Choreographic solution of the continuous equations from nu=0 amplitudes.

    Requires the modes with a nonzero amplitude to have nonzero imaginary commensurable
    phases, repeated or not, and the nu=n pencil to be regular at 0 (it fixes the
    center u0).
    """
    ch, xs, particles = _build_choreography(spec, None, n, amplitudes)
    return ch, SystemSolution(xs, particles)


def build_choreography_del(spec: LagrangianSpec, op: ScaleOperator, n: int, amplitudes,
                           t0: float, M: int) -> tuple[Choreography, DelSolution]:
    """Discrete choreography from amplitudes on the discrete nu=0 spectrum, as a solution
    on the M steps of eps from t0: spurious roots with a zero amplitude need not be
    imaginary or commensurable."""
    ch, xs, particles = _build_choreography(spec, op, n, amplitudes)
    return ch, DelSolution(xs, particles, op, t0, t0 + M * op.epsilon)


@dataclass(frozen=True)
class ChoreographyReport:
    """Measured errors of the defining choreography properties, and the names of the
    checks whose error exceeds its tolerance ("periodicity", "delay", "xs_constancy",
    "residual"), [] when all hold."""

    periodicity_error: float
    delay_error: float
    xs_constancy_error: float
    residual_error: float
    failing: list

    @property
    def all_ok(self) -> bool:
        return not self.failing


def verify_choreography(ch: Choreography, sol, spec: LagrangianSpec) -> ChoreographyReport:
    """Check periodicity over ch.T, the delay structure, constancy of the particle sum and
    the equation residuals of spec, at the stated tolerances.
    """
    T = ch.T
    ts = T * ((np.arange(64) + 0.5) * 0.6180339887498949 % 1.0)  # golden-ratio points
    u_scale = max(1.0, float(np.abs(ch.u.value(ts)).max()))
    per_err = float(np.abs(ch.u.value(ts + T) - ch.u.value(ts)).max()) / u_scale

    particles = sol.particles
    delay_err = 0.0
    for j in range(len(particles)):
        nxt = particles[(j + 1) % len(particles)]
        delay_err = max(delay_err, float(
            np.abs(nxt.value(ts) - particles[j].value(ts + ch.T / ch.n)).max()))
    delay_err /= u_scale

    grid = np.linspace(0.0, ch.T, 256)
    mode_mass = 1.0 + float(np.abs(ch.u.u0).sum()) \
        + float(np.abs(ch.u.vectors).sum())
    xs_err = float(np.abs(sol.xs.value(grid) - ch.n * ch.u.u0).max())

    if isinstance(sol, DelSolution):
        grid_vals, xs_vals = sol.sample()
        op, values = sol.op, grid_vals.values
        eq_scale = (_theta_mass(op) / op.epsilon**2) * _matrix_mass(spec) \
            * (1.0 + float(np.abs(values).max()))
        residuals = delsolve.residuals(spec, op, ch.n, values, xs_vals,
                                       np.array(sol.interior_nodes(), dtype=int))
        residual_error = max(float(np.abs(r).max(initial=0.0)) for r in residuals) / eq_scale
        residual_tol = 1e-10
    else:
        r = celsolve.residual_cel(spec, ch.n, sol, ts[:32])
        worst = np.maximum(np.abs(r.particles).max(axis=(0, 2)), np.abs(r.xs).max(axis=1))
        x_norm = np.abs([p.value(ts[:32]) for p in sol.particles]).max(axis=(0, 2))
        residual_error = float((worst / (_matrix_mass(spec) * (1.0 + x_norm))).max())
        residual_tol = 1e-9

    checks = {"periodicity": per_err <= 1e-9, "delay": delay_err <= 1e-9,
              "xs_constancy": xs_err <= 1e-10 * mode_mass,
              "residual": residual_error <= residual_tol}
    return ChoreographyReport(per_err, delay_err, xs_err / mode_mass, residual_error,
                              [name for name, holds in checks.items() if not holds])


def _matrix_mass(spec: LagrangianSpec) -> float:
    return float(sum(np.abs(getattr(spec, k)).sum()
                     for k in ("J1", "J2", "J3", "J4", "J5"))
                 + np.abs(spec.J6).sum() + np.abs(spec.J7).sum() + 1.0)


def _theta_mass(op: ScaleOperator) -> float:
    return float(np.abs(op.theta).sum() + 1.0)
