"""Pseudo-periodic solutions: the mode-expansion core of both solvers, and
the continuous entry points.

Solutions are synthesized as u0 + sum_l e^{lam_l (t - a_l)} u_l: the summed variable
x_s carries the nu = n pencil phases, and each particle adds nu = 0 phases on
top of (1/n) x_s.  The homogeneous parts are constrained to sum to zero over
particles, which is resolved by eliminating the last particle's amplitudes.
The core (`Core`) runs on a batch, one spec and its operators ([None]: continuous time),
without asking which kind it is: it holds each kernel basis and x_s constant with a leading
batch axis, assembles x_s and the particles, and solves amplitudes from samples at the
ends of the interval, every item at once, under the batch contract of `numkernel`.
Boundary solves are dichotomy-scaled (Ascher, Mattheij & Russell, 1995): modes growing by
more than e are anchored at the last sample time, others at the first; columns equilibrated.
The equations of motion are `pencil.equation_blocks`, shared with the grid: `residual_cel`
applies them to the expansions' exact derivatives.
A solve fails only on what it needs (`Core`): a spectrum it uses, a constant mode or a
boundary system it cannot solve.  Phases may repeat: an expansion is a plain sum, and where
repeated phases make a boundary system's columns dependent its pivots say so.  The paper's
verdicts on simple and disjoint roots are reports, the list of the assumptions that fail
(`pencil.check_cel_assumptions`, `check_del_assumptions`), that no solve reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkernel, pencil
from .model import LagrangianSpec


class AssumptionViolation(Exception):
    """Raised when a solve's spectra or constant mode do not determine it; `periodic`'s
    NotChoreographic and DelayResonant subclass it for a choreography's conditions."""


class SingularBoundarySystem(Exception):
    """Raised when endpoint data does not determine the amplitudes."""


@dataclass(frozen=True)
class ModeExpansion:
    """Finite exponential sum u(t) = u0 + sum_l e^{lam_l (t - a_l)} u_l, phases repeating
    or not; the anchors a_l are 0 unless a boundary solve puts them at an end, where u_l is
    the mode's size."""

    u0: np.ndarray
    lambdas: np.ndarray
    vectors: np.ndarray
    anchors: np.ndarray = 0.0

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=complex).ravel()
        lam = np.asarray(self.lambdas, dtype=complex).ravel()
        vec = np.asarray(self.vectors, dtype=complex)
        if vec.size == 0:
            vec = np.zeros((0, len(u0)), dtype=complex)
        if vec.ndim == 1:
            vec = vec[None, :]
        if vec.shape != (len(lam), len(u0)):
            raise ValueError("vectors must be (K, d) matching lambdas and u0")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "anchors", np.broadcast_to(self.anchors, lam.shape) + 0.0)

    @property
    def d(self) -> int:
        return len(self.u0)

    def value(self, t):
        """Evaluate at scalar or array times; returns (..., d).  NumericalFailure when a
        value is not finite: e^{lam (t - a)} overflows past max Re lam (t - a) ~ 709.78.
        A lone time need not give the bits it gets inside an array of times: one row of
        exponentials times the vectors runs through BLAS gemv, two or more through gemm
        (measured up to 8.9e-16 apart on O(1) values with OpenBLAS)."""
        return self._evaluate(self.u0, self.vectors, t)

    __call__ = value

    def derivative(self, t, order: int = 1):
        """Exact derivative of the expansion (order >= 1 drops u0), raising as `value`."""
        return self._evaluate(0.0 * self.u0, self.lambdas[:, None]**order * self.vectors, t)

    def _evaluate(self, u0: np.ndarray, vectors: np.ndarray, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _expansion_values(u0, self.lambdas, vectors, self.anchors, t.ravel())
        if not np.isfinite(values).all():
            raise numkernel.overflow("values are not finite", "max Re lam (t - a)",
                                     self.growth(t))
        return values.reshape(t.shape + (self.d,))

    def growth(self, t) -> float:
        """max Re lam (t - a) over the modes and the times t: the log of the largest
        factor e^{lam (t - a)} that evaluating at t forms."""
        t = np.asarray(t, dtype=float).ravel()
        return float((self.lambdas.real * (t[:, None] - self.anchors)).max(initial=-np.inf))


@dataclass(frozen=True)
class SystemSolution:
    """One expansion for the particle sum x_s and one per particle; the particles sum to
    x_s by construction (the zero-sum constraint on their nu = 0 amplitudes)."""

    xs: ModeExpansion
    particles: tuple

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))


def _expansion_values(u0: np.ndarray, lams: np.ndarray, vectors: np.ndarray,
                      anchors: np.ndarray, t: np.ndarray) -> np.ndarray:
    """u0 + sum_l e^{lam_l (t - a_l)} u_l at the times t (T,), over any leading axes of
    u0 (..., d), lams and anchors (..., K) and vectors (..., K, d): (..., T, d).  A mode
    whose vector is exactly 0 adds exactly 0, also where its exponential overflows."""
    lams = np.where((vectors == 0).all(axis=-1), 0, lams)[..., None, :]
    return u0[..., None, :] + np.exp((t[:, None] - anchors[..., None, :]) * lams) @ vectors


def grid_values(u0: np.ndarray, lams: np.ndarray, vectors: np.ndarray,
                anchors: np.ndarray, start: float, step: float, T: int) -> np.ndarray:
    """`_expansion_values` at the T times start + m step from two exp tables a mode: node
    m = q L + r (L = ceil(sqrt T)), counted from the end nearer the mode's anchor a, is
    e^{lam (t_qL - a)} e^{lam r step}; no factor exceeds e at a boundary solve's anchors.
    The tables are time-major, (nodes, ..., K), so the modes counted from the last node
    are turned round in place, column by column."""
    L, last = int(np.ceil(np.sqrt(T))), start + (T - 1) * step
    from_end = np.abs(anchors - last) < np.abs(anchors - start)
    sign = np.where(from_end, -step, step)
    lams = np.where((vectors == 0).all(axis=-1), 0, lams)
    nodes = (-1,) + (1,) * lams.ndim  # the leading axis
    q = np.arange(0, T, L).reshape(nodes)
    coarse = np.exp((np.where(from_end, last, start) - anchors + sign * q) * lams)
    fine = np.exp(sign * np.arange(L).reshape(nodes) * lams)
    E = (coarse[:, None] * fine).reshape((len(q) * L,) + lams.shape)[:T]  # m from its end
    E[:, from_end] = E[::-1, from_end]
    return u0[..., None, :] + np.moveaxis(E, 0, -2) @ vectors


class Core:
    """Mode bases and x_s constants of spec under operators sharing N and eps ([None]:
    continuous time), with a leading batch axis.  failures[i] is what a solve of item i
    raises so far, None while it has not failed: an AssumptionViolation where a spectrum it
    uses fails (nu = n, and nu = 0 for n > 1) or (`xs0`) where the nu = n pencil is singular
    at the constant mode; a SingularBoundarySystem (`boundary_solve`), also where repeated
    phases leave too few independent columns."""

    def __init__(self, spec: LagrangianSpec, ops: list, n: int):
        sp_n, sp_0 = (pencil.spectra(spec, ops, nu) for nu in (n, 0))
        self.spec, self.ops, self.n = spec, ops, n
        self.lam_n, self.w_n = sp_n.lam, sp_n.vectors
        self.lam_0, self.w_0 = sp_0.lam, sp_0.vectors
        # single particle: the zero-sum constraint eliminates the nu=0 modes
        used = (sp_n,) if n == 1 else (sp_n, sp_0)
        failed, _ = numkernel.merge_failures(*(sp.failures for sp in used))
        self.failures = [f and AssumptionViolation(f"pencil precondition fails: {f}")
                         for f in failed]

    @cached_property
    def xs0(self) -> tuple:
        """(n times each item's constant mode (B, d), failures with the solves' ones: an
        AssumptionViolation where the nu = n pencil is singular at the constant mode)."""
        _, live = numkernel.merge_failures(self.failures)
        at, rhs = pencil.constant_systems(self.spec, self.ops, self.n)
        x, found = numkernel.solve_stack(at[live], rhs[live])
        xs0 = np.zeros(rhs.shape, dtype=complex)
        xs0[live] = self.n * x
        found = [AssumptionViolation(f"nu = n pencil is singular at the constant mode: {f}")
                 if isinstance(f, numkernel.Singular) else f for f in found]
        return xs0, numkernel.merge_failures(self.failures, found, live)[0]

    def expansions(self, xs_amplitudes, particle_amplitudes, anchors) -> tuple:
        """(x_s, particles) of every item from amplitudes (B, K), (B, n-1, K0) at anchors
        (B, K + K0), x_s's phases then nu = 0's, as (u0, phases, vectors, anchors): x_s (B, d),
        (B, K), (B, K, d), (B, K); particles (B, 1, d), (B, 1, K'), (B, n, K', d), (B, 1, K')."""
        n, xs0, K = self.n, self.xs0[0], self.lam_n.shape[1]
        anchors = np.broadcast_to(anchors, (len(xs0), K + self.lam_0.shape[1]))
        xs = (xs0, self.lam_n, xs_amplitudes[:, :, None] * self.w_n, anchors[:, :K])
        shared = xs[2][:, None] / n
        if n == 1:
            # the zero-sum constraint kills all nu=0 modes: x_1 = x_s exactly
            return xs, (xs0[:, None], self.lam_n[:, None], shared, xs[3][:, None])
        coeffs = np.concatenate([particle_amplitudes,
                                 -particle_amplitudes.sum(axis=1, keepdims=True)], axis=1)
        extras = coeffs[..., None] * self.w_0[:, None]  # (B, n, K0, d)
        shared = np.broadcast_to(shared, extras.shape[:2] + shared.shape[2:])
        lams = np.concatenate([self.lam_n, self.lam_0], axis=1)
        return xs, (xs0[:, None] / n, lams[:, None], np.concatenate([shared, extras], axis=2),
                    anchors[:, None])

    def assemble(self, xs_amplitudes, particle_amplitudes=None, anchors=0.0) -> tuple:
        """(x_s expansion, particle expansions) of the batch of one; amplitudes as in
        general_solution_cel, at anchors (K + K0,) as in `expansions`."""
        n, (_, failures) = self.n, self.xs0
        if failures[0] is not None:
            raise failures[0]
        xs_amplitudes = np.asarray(xs_amplitudes, dtype=complex).ravel()
        if len(xs_amplitudes) != self.lam_n.shape[1]:
            raise ValueError(f"expected {self.lam_n.shape[1]} x_s amplitudes")
        if particle_amplitudes is None:
            particle_amplitudes = np.zeros((n - 1, self.lam_0.shape[1]), dtype=complex)
        particle_amplitudes = np.asarray(particle_amplitudes, dtype=complex)
        if particle_amplitudes.shape != (n - 1, self.lam_0.shape[1]):
            raise ValueError(f"expected ({n - 1}, {self.lam_0.shape[1]}) particle amplitudes")
        xs, (u0, lams, vectors, anchors) = self.expansions(
            xs_amplitudes[None], particle_amplitudes[None], anchors)
        return (ModeExpansion(*(a[0] for a in xs)),
                tuple(ModeExpansion(u0[0, 0], lams[0, 0], v, anchors[0, 0])
                      for v in vectors[0]))

    def boundary_solve(self, ends: tuple, data: np.ndarray) -> tuple:
        """Amplitudes of every item matching data, (n, T, d) over the T sample times in
        ends = (start times, end times): (x_s (B, K), particles (B, n-1, K0), their
        anchors (B, K + K0) as `expansions` takes them, condition failures).  Each stage
        is one stacked solve of the items that have not failed yet."""
        n, times, (xs0, failures) = self.n, np.concatenate(ends), self.xs0
        K, phases = self.lam_n.shape[1], np.concatenate([self.lam_n, self.lam_0], axis=1)
        anchors = np.where(phases.real * (times[-1] - times[0]) > 1, times[-1], times[0])
        amps_xs = np.zeros(self.lam_n.shape, dtype=complex)
        amps_p = np.zeros((len(xs0), n - 1, self.lam_0.shape[1]), dtype=complex)
        _, live = numkernel.merge_failures(failures)
        amps_xs[live], found = _window_solve(self.lam_n[live], self.w_n[live], times,
                                             anchors[live, :K], data.sum(0) - xs0[live, None])
        failures, live = numkernel.merge_failures(failures, found, live)
        if n > 1:
            # one product per end: a BLAS product's rounding depends on its row count
            xs_at = np.concatenate([_expansion_values(
                xs0[live], self.lam_n[live], amps_xs[live, :, None] * self.w_n[live],
                anchors[live, :K], t) for t in ends], axis=1)
            rhs = np.moveaxis(data[:n - 1] - xs_at[:, None] / n, 1, -1)  # (B', T, d, n-1)
            amps, found = _window_solve(self.lam_0[live], self.w_0[live], times,
                                        anchors[live, K:], rhs)
            amps_p[live] = np.moveaxis(amps, -1, 1)
            failures, _ = numkernel.merge_failures(failures, found, live)
        return amps_xs, amps_p, anchors, failures

    def solve_one(self, ends: tuple, data: np.ndarray) -> tuple:
        """(x_s expansion, particle expansions, report) of the batch of one."""
        amps_xs, amps_p, anchors, failures = self.boundary_solve(ends, data)
        if failures[0] is not None:
            raise failures[0]
        times, K = np.concatenate(ends), self.lam_n.shape[1]
        bases = ((self.lam_n, self.w_n, anchors[:, :K]), (self.lam_0, self.w_0, anchors[:, K:]))
        conds = [numkernel.cond(_window_matrix(lam[:1], w[:1], times, a[:1])[0][0])
                 for lam, w, a in bases[:1 if self.n == 1 else 2]]
        report = DirichletReport(conds[0], tuple(conds[1:]) * (self.n - 1))
        return *self.assemble(amps_xs[0], amps_p[0], anchors[0]), report


@dataclass(frozen=True)
class DirichletReport:
    """Condition numbers of the uncoupled boundary systems as solved: anchored, equilibrated."""

    xs_cond: float
    particle_conds: tuple


def _window_matrix(roots: np.ndarray, basis: np.ndarray, times: np.ndarray,
                   anchors: np.ndarray) -> tuple:
    """Boundary matrices (B, K, K), row (t, i) e^{lam_l (t - a_l)} (v_l)_i / s_l, of roots
    and anchors (B, K) and basis (B, K, d) at T = K/d times; with the scales s_l (B, K),
    each column's largest modulus."""
    B, K = roots.shape
    E = np.exp((times[:, None] - anchors[:, None, :]) * roots[:, None, :])  # (B, T, K)
    a = (E[..., None] * basis[:, None]).transpose(0, 1, 3, 2).reshape(B, K, K)
    scale = np.abs(a).max(axis=1)
    return a / scale[:, None, :], scale


def _window_solve(roots: np.ndarray, basis: np.ndarray, times: np.ndarray,
                  anchors: np.ndarray, rhs: np.ndarray) -> tuple:
    """Amplitudes (B, K[, m]) at the anchors (B, K) from values at the given times, for
    each item of roots (B, K), basis (B, K, d) and rhs (B, T, d[, m]); with the failure
    of each item (SingularBoundarySystem for a singular system)."""
    a, scale = _window_matrix(roots, basis, times, anchors)
    x, failures = numkernel.solve_stack(a, rhs.reshape(roots.shape + rhs.shape[3:]))
    return (x.T / scale.T).T, [SingularBoundarySystem(f) if isinstance(f, numkernel.Singular)
                               else f for f in failures]


def general_solution_cel(spec: LagrangianSpec, n: int, xs_amplitudes,
                         particle_amplitudes=None) -> SystemSolution:
    """Assemble the solution with the given complex amplitude per mode.

    xs_amplitudes has one entry per nu=n root (sorted order);
    particle_amplitudes is (n-1, 2d) over nu=0 roots, the last particle's
    homogeneous amplitudes being fixed by the zero-sum constraint.

    The amplitudes are given at t = 0 (anchors 0), so a growing mode with a nonzero
    amplitude overflows by design once Re lam t passes log(max float) ~ 709.78; `value`
    then raises NumericalFailure naming the growth.  A boundary solve anchors such modes
    at the far end instead.
    """
    core = Core(spec, [None], n)
    return SystemSolution(*core.assemble(xs_amplitudes, particle_amplitudes))


def dirichlet_cel(spec: LagrangianSpec, n: int, t0: float, tf: float,
                  x_t0, x_tf) -> tuple[SystemSolution, DirichletReport]:
    """Solve the two-point boundary problem from positions at t0 and tf.

    x_t0 and x_tf hold one row per particle.  The solve decouples into one
    square system for the summed variable and one per particle.
    """
    core = Core(spec, [None], n)
    data = np.stack([np.asarray(x_t0, dtype=complex).reshape(n, spec.d),
                     np.asarray(x_tf, dtype=complex).reshape(n, spec.d)], axis=1)
    xs, particles, report = core.solve_one((np.array([t0]), np.array([tf])), data)
    return SystemSolution(xs, particles), report


@dataclass(frozen=True)
class Residual:
    """Left-minus-right of the x_s and particle equations: xs (..., d) and particles
    (n, ..., d), over the times or grid nodes they were evaluated at."""

    xs: np.ndarray
    particles: np.ndarray


def residual_cel(spec: LagrangianSpec, n: int, sol: SystemSolution, t) -> Residual:
    """Exact residuals of the summed and per-particle equations at the time or times t:
    `pencil.equation_blocks` on the jets [-x'', 2 x', x] of the expansions, from their
    analytic derivatives."""
    xs_block, source_block, particle_block = pencil.equation_blocks(spec, n)
    xs, *particles = (np.concatenate([-e.derivative(t, 2), 2.0 * e.derivative(t), e.value(t)],
                                     axis=-1) for e in (sol.xs, *sol.particles))
    r_xs, source = np.split(-xs @ np.hstack([xs_block, source_block]), 2, axis=-1)
    return Residual(r_xs - n * spec.J7, (source - spec.J7) - np.array(particles) @ particle_block)
