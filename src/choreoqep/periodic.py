"""Periodicity classification and choreographic solutions.

A finite exponential sum is periodic iff every phase is purely imaginary and
all pairwise ratios are rational; the minimal period follows from the
reconstructed rationals.  A choreography is a single T-periodic curve
traversed by all n particles with delays jT/n, which forces the particle sum
to be constant through the vanishing geometric sums sum_j (e^{lam T/n})^j.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import celsolve, delsolve, numkernel, pencil
from .celsolve import ModeExpansion, SystemSolution
from .delsolve import DelSolution
from .model import LagrangianSpec
from .numkernel import RootSet
from .scaleop import ScaleOperator


class NotChoreographic(Exception):
    """Raised when the spectrum conditions for a choreography fail."""


class DelayResonant(Exception):
    """Raised when some e^{lam T/n} = 1, so the delay sums do not cancel."""


@dataclass(frozen=True)
class CommensurabilityReport:
    """Rationality structure of a finite set of (near-)imaginary phases."""

    all_imaginary: bool
    ratios: tuple
    period: float | None
    max_denominator_used: int
    reference_omega: float | None = None
    reference_cycles: Fraction | None = None


def _roots_array(roots) -> np.ndarray:
    return np.asarray(getattr(roots, "roots", roots), dtype=complex).ravel()


def commensurability(roots, tol: float = 1e-9, max_den: int = 64) -> CommensurabilityReport:
    """Classify phases: imaginary? pairwise-rational? minimal common period?

    Ratios are taken against the first root and reconstructed by continued
    fractions with denominator <= max_den and absolute error <= tol; with
    ratios p_l/q_l in lowest terms the period is 2*pi*s/|w_1| where
    s = lcm(q_l)/gcd(p_l) is the least positive rational making every
    s*p_l/q_l an integer.
    """
    r = _roots_array(roots)
    if len(r) == 0:
        raise ValueError("commensurability requires at least one root")
    all_imag = bool(all(abs(z.real) <= tol * max(1.0, abs(z)) for z in r))
    none_ratios = tuple(None for _ in r)
    if not all_imag:
        return CommensurabilityReport(False, none_ratios, None, 0)

    ref = float(r[0].imag)
    if abs(ref) <= tol:
        return CommensurabilityReport(True, none_ratios, None, 0, ref)
    ratios = []
    for z in r:
        x = float(z.imag) / ref
        f = Fraction(x).limit_denominator(max_den)
        if f != 0 and abs(float(f) - x) <= tol:
            ratios.append(f)
        else:
            ratios.append(None)
    period = None
    cycles = None
    used = max((f.denominator for f in ratios if f is not None), default=0)
    if all(f is not None for f in ratios):
        cycles = Fraction(math.lcm(*[f.denominator for f in ratios]),
                          math.gcd(*[abs(f.numerator) for f in ratios]))
        period = float(2.0 * math.pi * cycles / abs(ref))
    return CommensurabilityReport(all_imag, tuple(ratios), period, used, ref, cycles)


def _is_periodic(setting: pencil.Setting, n: int, tol: float,
                 max_den: int) -> CommensurabilityReport:
    """Commensurability of the union of the nu=n and nu=0 phases."""
    lam_n, lam_0 = setting.modes(n).lam, setting.modes(0).lam
    return commensurability(np.concatenate([lam_n.roots, lam_0.roots]), tol, max_den)


def is_periodic_cel(spec: LagrangianSpec, n: int, tol: float = 1e-9,
                    max_den: int = 64) -> CommensurabilityReport:
    """Commensurability of the union of the nu=n and nu=0 classical spectra."""
    return _is_periodic(pencil.Setting(spec), n, tol, max_den)


def is_periodic_del(spec: LagrangianSpec, op: ScaleOperator, n: int,
                    tol: float = 1e-9, max_den: int = 64) -> CommensurabilityReport:
    """Commensurability of the union of the discrete nu=n and nu=0 spectra."""
    return _is_periodic(pencil.Setting(spec, op), n, tol, max_den)


@dataclass(frozen=True)
class Choreography:
    """One T-periodic curve traversed by n particles with delay T/n."""

    u: ModeExpansion
    n: int
    T: float
    delay: float


def _integer_cycles(rep: CommensurabilityReport) -> list[int]:
    """m_l = s * p_l / q_l, the signed number of reference periods per mode."""
    out = []
    for f in rep.ratios:
        m = rep.reference_cycles * f
        if m.denominator != 1:  # cannot happen when the period exists
            raise NotChoreographic("inconsistent rational reconstruction")
        out.append(int(m))
    return out


def _choreography_conditions(roots: RootSet, expected: int, tol: float,
                             max_den: int) -> CommensurabilityReport:
    if len(roots) != expected or not roots.is_simple():
        raise NotChoreographic(f"spectrum must hold {expected} simple roots")
    rep = commensurability(roots, tol, max_den)
    if not rep.all_imaginary:
        raise NotChoreographic("spectrum is not purely imaginary")
    if any(abs(z.imag) <= tol for z in roots.roots):
        raise NotChoreographic("spectrum contains a zero phase")
    if rep.period is None:
        raise NotChoreographic("phases are incommensurable at the given tolerances")
    return rep


def _delay_phases(rep: CommensurabilityReport, active: np.ndarray, n: int) -> np.ndarray:
    """Phases e^{lam_l * j T / n} for j = 1..n via exact rational arithmetic."""
    cycles = _integer_cycles(rep)
    sgn = 1 if rep.reference_omega > 0 else -1
    phases = np.empty((n, int(active.sum())), dtype=complex)
    col = 0
    for l, m in enumerate(cycles):
        if not active[l]:
            continue
        if (sgn * m) % n == 0 and m != 0:
            raise DelayResonant(
                f"mode with {m} reference cycles has e^(lam T/n) = 1 for n = {n}")
        for j in range(1, n + 1):
            frac = (sgn * m * j) % n
            phases[j - 1, col] = np.exp(2j * np.pi * frac / n)
        col += 1
    return phases


def _build_choreography(setting: pencil.Setting, n: int, amplitudes, tol: float,
                        max_den: int) -> tuple[Choreography, ModeExpansion, tuple]:
    """Choreography on the nu=0 modes, centred on the constant mode.

    Requires the nu=0 spectrum to be simple nonzero imaginary commensurable
    phases and the nu=n pencil to be regular at the constant mode.
    """
    try:
        modes_0 = setting.modes(0)
    except (pencil.LeadingSingular, pencil.DegenerateRoots,
            numkernel.NumericalFailure) as exc:
        raise NotChoreographic(str(exc)) from exc
    roots = modes_0.lam
    rep = _choreography_conditions(roots, setting.root_count, tol, max_den)
    try:
        u0 = numkernel.solve_square(*(a[0] for a in pencil.constant_systems([setting], n))).x
    except numkernel.Singular as exc:
        raise NotChoreographic("nu=n pencil is singular at the constant mode") from exc

    amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
    if len(amplitudes) != len(roots):
        raise ValueError(f"expected {len(roots)} amplitudes")
    active = amplitudes != 0
    phases = _delay_phases(rep, active, n)
    lams = roots.roots[active]
    vecs = amplitudes[active, None] * modes_0.roots.vectors[active]
    u = ModeExpansion(u0, lams, vecs)
    particles = tuple(ModeExpansion(u0, lams, phases[j - 1][:, None] * vecs)
                      for j in range(1, n + 1))
    xs = ModeExpansion(n * u0, [], np.zeros((0, setting.spec.d)))
    T = rep.period
    return Choreography(u, n, T, T / n), xs, particles


def build_choreography_cel(spec: LagrangianSpec, n: int, amplitudes,
                           tol: float = 1e-9, max_den: int = 64
                           ) -> tuple[Choreography, SystemSolution]:
    """Choreographic solution of the continuous equations from nu=0 amplitudes.

    Requires the nu=0 spectrum to be 2d simple nonzero imaginary commensurable
    phases and the nu=n pencil to be regular at 0 (it fixes the center u0).
    """
    ch, xs, particles = _build_choreography(pencil.Setting(spec), n, amplitudes,
                                            tol, max_den)
    return ch, SystemSolution(xs, particles)


def build_choreography_del(spec: LagrangianSpec, op: ScaleOperator, n: int,
                           amplitudes, t0: float = 0.0, M: int = None,
                           tol: float = 1e-9, max_den: int = 64
                           ) -> tuple[Choreography, DelSolution]:
    """Discrete choreography from amplitudes on the discrete nu=0 spectrum."""
    if M is None:
        raise ValueError("M (node count) is required")
    ch, xs, particles = _build_choreography(pencil.Setting(spec, op), n, amplitudes,
                                            tol, max_den)
    return ch, DelSolution(xs, particles, op, t0, t0 + M * op.epsilon)


@dataclass(frozen=True)
class ChoreographyReport:
    """Measured errors of the defining choreography properties."""

    periodicity_error: float
    delay_error: float
    xs_constancy_error: float
    residual_error: float | None
    periodic_ok: bool
    delay_ok: bool
    xs_constant_ok: bool
    residual_ok: bool | None

    @property
    def all_ok(self) -> bool:
        checks = [self.periodic_ok, self.delay_ok, self.xs_constant_ok]
        if self.residual_ok is not None:
            checks.append(self.residual_ok)
        return all(checks)


def verify_choreography(ch: Choreography, sol, spec: LagrangianSpec = None,
                        period: float = None) -> ChoreographyReport:
    """Check periodicity, the delay structure, constancy of the particle sum,
    and (when spec is given) the equation residuals, at the stated tolerances.
    """
    T = ch.T if period is None else period
    rng = np.random.default_rng(20240917)
    ts = rng.uniform(0.0, ch.T, size=64)
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

    residual_error = None
    residual_ok = None
    if spec is not None:
        if isinstance(sol, DelSolution):
            grid_vals, xs_vals = sol.sample()
            op = sol.op
            eq_scale = (_theta_mass(op) / op.epsilon**2) * _matrix_mass(spec) \
                * (1.0 + float(np.abs(grid_vals.values).max()))
            values, nodes = grid_vals.values, np.array(sol.interior_nodes(), dtype=int)
            worst = 0.0
            for part in np.split(nodes, range(256, len(nodes), 256)):  # bounded memory
                r_xs, r_p = delsolve._residuals(spec, op, ch.n, values, xs_vals, part)
                worst = max(worst, float(np.abs(r_xs).max(initial=0.0)),
                            float(np.abs(r_p).max(initial=0.0)))
            residual_error = worst / eq_scale
            residual_ok = residual_error <= 1e-10
        else:
            worst = 0.0
            for t in ts[:32]:
                r = celsolve.residual_cel(spec, ch.n, sol, float(t))
                x_norm = max(float(np.abs(p.value(float(t))).max())
                             for p in sol.particles)
                scale = _matrix_mass(spec) * (1.0 + x_norm)
                worst = max(worst, float(np.abs(r.particles).max()) / scale,
                            float(np.abs(r.xs).max()) / scale)
            residual_error = worst
            residual_ok = residual_error <= 1e-9

    return ChoreographyReport(
        periodicity_error=per_err,
        delay_error=delay_err,
        xs_constancy_error=xs_err / mode_mass,
        residual_error=residual_error,
        periodic_ok=per_err <= 1e-9,
        delay_ok=delay_err <= 1e-9,
        xs_constant_ok=xs_err <= 1e-10 * mode_mass,
        residual_ok=residual_ok,
    )


def _matrix_mass(spec: LagrangianSpec) -> float:
    return float(sum(np.abs(getattr(spec, k)).sum()
                     for k in ("J1", "J2", "J3", "J4", "J5"))
                 + np.abs(spec.J6).sum() + np.abs(spec.J7).sum() + 1.0)


def _theta_mass(op: ScaleOperator) -> float:
    return float(np.abs(op.theta).sum() + 1.0)
