"""Pseudo-periodic solutions: the mode-expansion core of both solvers, and
the continuous entry points.

Solutions are synthesized as u0 + sum_l e^{lam_l t} u_l: the summed variable
x_s carries the nu = n pencil phases, and each particle adds nu = 0 phases on
top of (1/n) x_s.  The homogeneous parts are constrained to sum to zero over
particles, which is resolved by eliminating the last particle's amplitudes.
The core (`_Core`) runs on a `pencil.Setting` without asking which one it is:
it computes each kernel basis and the x_s constant once, assembles x_s and the
particles, and solves amplitudes from samples at the ends of the interval.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkernel, pencil
from .model import LagrangianSpec


class AssumptionViolation(Exception):
    """Raised when the standing pencil assumptions fail for a solve."""


class SingularBoundarySystem(Exception):
    """Raised when endpoint data does not determine the amplitudes."""


@dataclass(frozen=True)
class ModeExpansion:
    """Finite exponential sum u(t) = u0 + sum_l e^{lam_l t} u_l."""

    u0: np.ndarray
    lambdas: np.ndarray
    vectors: np.ndarray

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
        if len(lam) >= 2:
            diff = np.abs(lam[:, None] - lam[None, :])
            if diff[~np.eye(len(lam), dtype=bool)].min() <= 1e-10:
                raise ValueError("mode phases must be pairwise distinct")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "vectors", vec)

    @property
    def d(self) -> int:
        return len(self.u0)

    def value(self, t):
        """Evaluate at scalar or array times; returns (..., d)."""
        t = np.asarray(t, dtype=float)
        if len(self.lambdas) == 0:
            return np.broadcast_to(self.u0, t.shape + (self.d,)).copy()
        phases = np.exp(t[..., None] * self.lambdas)
        return self.u0 + phases @ self.vectors

    __call__ = value

    def derivative(self, t, order: int = 1):
        """Exact derivative of the expansion (order >= 1 drops u0)."""
        t = np.asarray(t, dtype=float)
        if len(self.lambdas) == 0:
            return np.zeros(t.shape + (self.d,), dtype=complex)
        phases = np.exp(t[..., None] * self.lambdas) * self.lambdas**order
        return phases @ self.vectors


@dataclass(frozen=True)
class SystemSolution:
    """One expansion for the particle sum and one per particle."""

    xs: ModeExpansion
    particles: tuple
    interval = (-3.0, 3.0)  # where sum_mismatch samples by default

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))

    @property
    def n(self) -> int:
        return len(self.particles)

    def sum_mismatch(self, times=None) -> float:
        """max_t |sum_j x_j(t) - x_s(t)| / scale over 32 fixed pseudo-random times."""
        if times is None:
            times = np.random.default_rng(20240913).uniform(*self.interval, size=32)
        total = sum(p.value(times) for p in self.particles)
        ref = self.xs.value(times)
        scale = max(1.0, float(np.abs(ref).max()))
        return float(np.abs(total - ref).max()) / scale


def mode_basis(modes: pencil.Modes) -> np.ndarray:
    """Unit kernel direction of the pencil at every root (rows): an end d-block of
    the root's companion eigenvector, its largest component made real positive."""
    return modes.roots.vectors


def constant_mode(setting: pencil.Setting, n: int) -> np.ndarray:
    """Constant solution of one particle; n times it is the constant of x_s."""
    p_n = setting.pencil(n)
    return numkernel.solve_square(setting.at_constant(p_n), setting.constant_rhs).x


class _Core:
    """Mode bases and the x_s constant of one system, each computed on first use.

    Raises AssumptionViolation unless the report's assumptions hold.
    """

    def __init__(self, rep: pencil.Assumptions, n: int):
        if not rep.precondition_ok:
            raise AssumptionViolation(f"pencil precondition fails: {rep.note}")
        if n == 1:
            # single particle: the nu=0 modes are eliminated by the sum constraint,
            # so only the x_s pencil conditions matter
            if not (rep.count_n_ok and rep.det_pn0_nonzero):
                raise AssumptionViolation("x_s pencil assumptions fail for n = 1")
        elif not rep.all_hold:
            raise AssumptionViolation(
                f"pencil assumptions fail: counts ({rep.count_n_ok}, {rep.count_0_ok}), "
                f"disjoint {rep.disjoint}, det at 0 ({rep.det_pn0_nonzero}, "
                f"{rep.det_p00_nonzero})")
        self.rep = rep
        self.n = n
        self.lam_n = rep.modes_n.lam.roots
        self.lam_0 = rep.modes_0.lam.roots

    @cached_property
    def w_n(self) -> np.ndarray:
        return mode_basis(self.rep.modes_n)

    @cached_property
    def w_0(self) -> np.ndarray:
        return mode_basis(self.rep.modes_0)

    @cached_property
    def xs0(self) -> np.ndarray:
        return self.n * constant_mode(self.rep.setting, self.n)

    def assemble(self, xs_amplitudes, particle_amplitudes=None) -> tuple:
        """(x_s expansion, particle expansions); amplitudes as in general_solution_cel."""
        n = self.n
        xs_amplitudes = np.asarray(xs_amplitudes, dtype=complex).ravel()
        if len(xs_amplitudes) != len(self.lam_n):
            raise ValueError(f"expected {len(self.lam_n)} x_s amplitudes")
        if particle_amplitudes is None:
            particle_amplitudes = np.zeros((n - 1, len(self.lam_0)), dtype=complex)
        particle_amplitudes = np.asarray(particle_amplitudes, dtype=complex)
        if particle_amplitudes.shape != (n - 1, len(self.lam_0)):
            raise ValueError(f"expected ({n - 1}, {len(self.lam_0)}) particle amplitudes")

        xs = ModeExpansion(self.xs0, self.lam_n, xs_amplitudes[:, None] * self.w_n)
        shared = xs_amplitudes[:, None] * self.w_n / n
        if n == 1:
            # the zero-sum constraint kills all nu=0 modes: x_1 = x_s exactly
            return xs, (ModeExpansion(self.xs0, self.lam_n, shared),)
        coeffs = np.vstack([particle_amplitudes,
                            -particle_amplitudes.sum(axis=0)[None, :]])
        lams = np.concatenate([self.lam_n, self.lam_0])
        extras = coeffs[:, :, None] * self.w_0  # (n, K0, d)
        return xs, tuple(ModeExpansion(self.xs0 / n, lams, np.vstack([shared, e]))
                         for e in extras)

    def boundary_solve(self, ends: tuple, data: np.ndarray) -> tuple:
        """(x_s expansion, particle expansions, report) matching data, which is
        (n, T, d) over the T sample times in ends = (start times, end times)."""
        n = self.n
        times = np.concatenate(ends)
        amps_xs, cond_xs = _window_solve(self.lam_n, self.w_n, times,
                                         data.sum(axis=0) - self.xs0)
        particle_amps = np.zeros((n - 1, len(self.lam_0)), dtype=complex)
        conds = []
        if n > 1:
            xs = ModeExpansion(self.xs0, self.lam_n, amps_xs[:, None] * self.w_n)
            # one product per end: a BLAS product's rounding depends on its row count
            xs_at = np.concatenate([xs.value(t) for t in ends])
            for j in range(n - 1):
                particle_amps[j], cond_j = _window_solve(self.lam_0, self.w_0, times,
                                                         data[j] - xs_at / n)
                conds.append(cond_j)
        return *self.assemble(amps_xs, particle_amps), DirichletReport(cond_xs, tuple(conds))


@dataclass(frozen=True)
class DirichletReport:
    """Condition numbers of the uncoupled boundary systems."""

    xs_cond: float
    particle_conds: tuple


def _window_solve(roots: np.ndarray, basis: np.ndarray, times: np.ndarray,
                  rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Amplitudes from values at the given times (rhs is (len(times), d))."""
    E = np.exp(np.outer(times, roots))  # (T, K)
    mat = (E[:, :, None] * basis[None, :, :]).transpose(0, 2, 1).reshape(-1, len(roots))
    try:
        res = numkernel.solve_square(mat, rhs.reshape(-1))
    except numkernel.Singular as exc:
        raise SingularBoundarySystem(str(exc)) from exc
    return res.x, res.cond


def general_solution_cel(spec: LagrangianSpec, n: int, xs_amplitudes,
                         particle_amplitudes=None) -> SystemSolution:
    """Assemble the solution with the given complex amplitude per mode.

    xs_amplitudes has one entry per nu=n root (sorted order);
    particle_amplitudes is (n-1, 2d) over nu=0 roots, the last particle's
    homogeneous amplitudes being fixed by the zero-sum constraint.
    """
    core = _Core(pencil.check_cel_assumptions(spec, n), n)
    return SystemSolution(*core.assemble(xs_amplitudes, particle_amplitudes))


def dirichlet_cel(spec: LagrangianSpec, n: int, t0: float, tf: float,
                  x_t0, x_tf) -> tuple[SystemSolution, DirichletReport]:
    """Solve the two-point boundary problem from positions at t0 and tf.

    x_t0 and x_tf hold one row per particle.  The solve decouples into one
    square system for the summed variable and one per particle.
    """
    core = _Core(pencil.check_cel_assumptions(spec, n), n)
    data = np.stack([np.asarray(x_t0, dtype=complex).reshape(n, spec.d),
                     np.asarray(x_tf, dtype=complex).reshape(n, spec.d)], axis=1)
    xs, particles, report = core.boundary_solve(([t0], [tf]), data)
    return SystemSolution(xs, particles), report


@dataclass(frozen=True)
class CelResidual:
    """Left-minus-right of the equations of motion at one time."""

    xs: np.ndarray
    particles: np.ndarray


def residual_cel(spec: LagrangianSpec, n: int, sol: SystemSolution,
                 t: float) -> CelResidual:
    """Exact residuals of the summed and per-particle equations at time t.

    Uses analytic derivatives of the expansions.  For the summed variable the
    equation is A_n x_s'' - 2 J5 x_s' - C_n x_s = n J7; for each particle
    A_0 x_j'' - 2 J5 x_j' - C_0 x_j = -2 J3 x_s'' + 2 J4 x_s + J7.
    """
    a_n, c_n = pencil.coefficient_matrices(spec, n)
    a_0, c_0 = pencil.coefficient_matrices(spec, 0)
    xs = sol.xs.value(t)
    dxs = sol.xs.derivative(t, 1)
    ddxs = sol.xs.derivative(t, 2)
    r_xs = a_n @ ddxs - 2.0 * spec.J5 @ dxs - c_n @ xs - n * spec.J7
    rhs = -2.0 * spec.J3 @ ddxs + 2.0 * spec.J4 @ xs + spec.J7
    rows = []
    for p in sol.particles:
        x = p.value(t)
        dx = p.derivative(t, 1)
        ddx = p.derivative(t, 2)
        rows.append(a_0 @ ddx - 2.0 * spec.J5 @ dx - c_0 @ x - rhs)
    return CelResidual(r_xs, np.array(rows))
