"""Pseudo-periodic solutions of the discrete equations of motion.

The solves run the `celsolve` core on the discrete `pencil.Setting`, with the
first and last 2N grid nodes as boundary data; sampling, the recurrence march
and the windowed residuals are particular to the grid and live here.
Discrete solutions live on the uniform grid t0 + m*eps and are exact there;
the same exponential expansions extend them off-grid.  The governing
recurrences only hold where every window factor equals one, i.e. for
t in [t0 + 2N eps, tf - 2N eps]; residuals outside that window are
generically nonzero and document the boundary layer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel, pencil, scaleop
from .celsolve import DirichletReport, SystemSolution, _Core
from .model import LagrangianSpec
from .scaleop import GridFunction, OutOfRange, ScaleOperator


class LeadingBlockSingular(Exception):
    """Raised when the most-advanced recurrence block cannot be inverted."""


class WindowExceeded(Exception):
    """Raised when marching would need nodes outside the valid window."""


@dataclass(frozen=True)
class TrajectoryGrid:
    """Grid samples of all particles: values[j, m] is particle j at node m."""

    t0: float
    epsilon: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 3:
            raise ValueError("values must be (n, M+1, d)")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory has non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def M(self) -> int:
        return self.values.shape[1] - 1

    @property
    def d(self) -> int:
        return self.values.shape[2]

    def times(self) -> np.ndarray:
        return self.t0 + self.epsilon * np.arange(self.M + 1)


@dataclass(frozen=True)
class DelSolution(SystemSolution):
    """Discrete solution: summed and per-particle expansions on [t0, tf] under op."""

    op: ScaleOperator
    t0: float
    tf: float

    @property
    def interval(self) -> tuple[float, float]:
        return (self.t0, self.tf)

    @property
    def M(self) -> int:
        return int(round((self.tf - self.t0) / self.op.epsilon))

    @property
    def window(self) -> tuple[float, float]:
        w = 2 * self.op.N * self.op.epsilon
        return (self.t0 + w, self.tf - w)

    def interior_nodes(self) -> range:
        return range(2 * self.op.N, self.M - 2 * self.op.N + 1)

    def sample(self) -> tuple[TrajectoryGrid, np.ndarray]:
        """Evaluate on the grid; returns (particle grid, summed values)."""
        times = self.t0 + self.op.epsilon * np.arange(self.M + 1)
        vals = np.array([p.value(times) for p in self.particles])
        return TrajectoryGrid(self.t0, self.op.epsilon, vals), self.xs.value(times)


def _discrete_core(spec: LagrangianSpec, op: ScaleOperator, n: int, M: int) -> _Core:
    core = _Core(pencil.check_del_assumptions(spec, op, n), n)
    if M < 4 * op.N:
        raise WindowExceeded(f"M = {M} leaves no interior window (need M >= 4N)")
    return core


def general_solution_del(spec: LagrangianSpec, op: ScaleOperator, n: int,
                         xs_amplitudes, particle_amplitudes=None,
                         t0: float = 0.0, M: int = None) -> DelSolution:
    """Assemble the discrete solution from per-mode amplitudes.

    Amplitude layout mirrors the continuous solver: one entry per sorted
    discrete phase, the last particle's homogeneous amplitudes resolved by
    the zero-sum constraint.
    """
    if M is None:
        raise ValueError("M (node count) is required")
    core = _discrete_core(spec, op, n, M)
    xs, particles = core.assemble(xs_amplitudes, particle_amplitudes)
    return DelSolution(xs, particles, op, t0, t0 + M * op.epsilon)


def dirichlet_del(spec: LagrangianSpec, op: ScaleOperator, n: int, t0: float,
                  M: int, head, tail) -> tuple[DelSolution, DirichletReport]:
    """Solve from positions at the first 2N and last 2N grid nodes.

    head and tail are (n, 2N, d) arrays; together they supply 4Nd scalar
    constraints per uncoupled system, matching the 4Nd amplitudes.
    """
    N = op.N
    core = _discrete_core(spec, op, n, M)
    head = np.asarray(head, dtype=complex).reshape(n, 2 * N, spec.d)
    tail = np.asarray(tail, dtype=complex).reshape(n, 2 * N, spec.d)
    ends = (t0 + op.epsilon * np.arange(2 * N),
            t0 + op.epsilon * np.arange(M - 2 * N + 1, M + 1))
    data = np.concatenate([head, tail], axis=1)  # (n, 4N, d)
    xs, particles, report = core.boundary_solve(ends, data)
    return DelSolution(xs, particles, op, t0, t0 + M * op.epsilon), report


def _stencil_matrices(spec: LagrangianSpec, op: ScaleOperator,
                      nu: float) -> list[np.ndarray]:
    """Interior-window coefficient of x(t + k eps) for k = -2N..2N."""
    a_nu, c_nu = pencil.coefficient_matrices(spec, nu)
    g = scaleop.theta_coefficients(op)
    a1 = scaleop.sigma1_coefficients(op)
    eps = op.epsilon
    N = op.N
    mats = []
    for k in range(-2 * N, 2 * N + 1):
        m = (g[k + 2 * N] / eps**2) * a_nu.astype(complex)
        if abs(k) <= N:
            m = m + (a1[k + N] / eps) * spec.J5
        if k == 0:
            m = m + c_nu
        mats.append(m)
    return mats


def recurrence_march(spec: LagrangianSpec, op: ScaleOperator, n: int,
                     xs_seed, particle_seeds, M: int,
                     t0: float = 0.0) -> tuple[TrajectoryGrid, np.ndarray]:
    """March the interior-window recurrences forward from 4N seed nodes.

    xs_seed is (4N, d) and particle_seeds (n, 4N, d), holding nodes 0..4N-1.
    The summed variable marches first, then each particle with it as source.
    Marching uses only equations centered in the interior window, so nodes
    4N..M are produced; an M < 4N grid has no such window.
    """
    N = op.N
    d = spec.d
    eps = op.epsilon
    if M < 4 * N:
        raise WindowExceeded(f"M = {M} < 4N = {4 * N}: no interior equations")
    xs_seed = np.asarray(xs_seed, dtype=complex).reshape(4 * N, d)
    particle_seeds = np.asarray(particle_seeds, dtype=complex).reshape(n, 4 * N, d)

    g = scaleop.theta_coefficients(op)
    mats_n = _stencil_matrices(spec, op, n)
    mats_0 = _stencil_matrices(spec, op, 0)
    src_const = pencil.Setting(spec, op).constant_rhs
    const_n = n * src_const

    def _factor(lead):
        try:
            return numkernel.solve_square(lead, np.eye(d, dtype=complex)).x
        except numkernel.Singular as exc:
            raise LeadingBlockSingular(str(exc)) from exc

    inv_n = _factor(mats_n[-1])
    inv_0 = _factor(mats_0[-1])

    xs = np.zeros((M + 1, d), dtype=complex)
    xs[:4 * N] = xs_seed
    for c in range(2 * N, M - 2 * N + 1):
        rhs = const_n.astype(complex).copy()
        for k in range(-2 * N, 2 * N):
            rhs += mats_n[k + 2 * N] @ xs[c + k]
        xs[c + 2 * N] = -(inv_n @ rhs)

    traj = np.zeros((n, M + 1, d), dtype=complex)
    traj[:, :4 * N] = particle_seeds
    for j in range(n):
        for c in range(2 * N, M - 2 * N + 1):
            boxbox_xs = np.zeros(d, dtype=complex)
            for k in range(-2 * N, 2 * N + 1):
                boxbox_xs += (g[k + 2 * N] / eps**2) * xs[c + k]
            rhs = (2.0 * spec.J3 @ boxbox_xs + 2.0 * spec.J4 @ xs[c] + src_const) \
                .astype(complex)
            for k in range(-2 * N, 2 * N):
                rhs += mats_0[k + 2 * N] @ traj[j, c + k]
            traj[j, c + 2 * N] = -(inv_0 @ rhs)
    return TrajectoryGrid(t0, eps, traj), xs


@dataclass(frozen=True)
class DelResidual:
    """Left-minus-right of the discrete equations at one node."""

    xs: np.ndarray
    particles: np.ndarray


def _grid_arrays(traj, xs_values) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    if isinstance(traj, DelSolution):
        grid, xs_vals = traj.sample()
        return grid.values, xs_vals, grid.t0, grid.t0 + grid.M * grid.epsilon, grid.epsilon
    if xs_values is None:
        raise ValueError("xs_values is required alongside a TrajectoryGrid")
    tf = traj.t0 + traj.M * traj.epsilon
    return traj.values, np.asarray(xs_values, dtype=complex), traj.t0, tf, traj.epsilon


def residual_del(spec: LagrangianSpec, op: ScaleOperator, n: int, traj, m: int,
                 xs_values=None) -> DelResidual:
    """Exact windowed residuals of the discrete equations at node m.

    Evaluates the governing recurrences with their true window factors, so it
    is meaningful near the interval ends, where pseudo-periodic extensions
    generically fail to solve the equations.
    """
    vals, xs_vals, t0, tf, eps = _grid_arrays(traj, xs_values)
    M = vals.shape[1] - 1
    if m < 0 or m > M:
        raise OutOfRange(f"node {m} outside 0..{M}")

    a_n, c_n = pencil.coefficient_matrices(spec, n)
    a_0, c_0 = pencil.coefficient_matrices(spec, 0)
    xs_grid = GridFunction(t0, eps, xs_vals)

    bb_xs = scaleop.boxbox_apply(op, xs_grid, m, t0, tf)
    sg_xs = scaleop.box_apply(op, xs_grid, m, t0, tf) \
        - scaleop.adjoint_box_apply(op, xs_grid, m, t0, tf)
    box1 = sum(op.gamma_at(j) / eps * scaleop.chi(op, j, t0 + m * eps, t0, tf)
               for j in range(-op.N, op.N + 1))

    r_xs = (-a_n @ bb_xs - spec.J5 @ sg_xs - c_n @ xs_vals[m]
            - n * (box1 * spec.J6 + spec.J7))
    source = 2.0 * spec.J3 @ bb_xs + 2.0 * spec.J4 @ xs_vals[m] \
        + box1 * spec.J6 + spec.J7
    rows = []
    for j in range(vals.shape[0]):
        f = GridFunction(t0, eps, vals[j])
        bb = scaleop.boxbox_apply(op, f, m, t0, tf)
        sg = scaleop.box_apply(op, f, m, t0, tf) \
            - scaleop.adjoint_box_apply(op, f, m, t0, tf)
        rows.append(-a_0 @ bb - spec.J5 @ sg - c_0 @ vals[j, m] - source)
    return DelResidual(r_xs, np.array(rows))
