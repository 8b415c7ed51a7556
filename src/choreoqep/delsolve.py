"""Pseudo-periodic solutions of the discrete equations of motion.

The solves run the `celsolve` core on the discrete `pencil.Setting`, with the
first and last 2N grid nodes as boundary data; sampling, the recurrence march
and the windowed residuals are particular to the grid and live here.
Discrete solutions live on the uniform grid t0 + m*eps and are exact there;
the same exponential expansions extend them off-grid.  The governing
recurrences only hold where every window factor equals one, i.e. for
t in [t0 + 2N eps, tf - 2N eps]; residuals outside that window are
generically nonzero and document the boundary layer.

A node's windowed equations are one linear map of its window values plus a constant,
fixed by its class [a, b] (nodes before and after, capped at 2N): `_residual_map` folds
the `WindowTables` stencil into the equation blocks once per (spec, n, operator value),
for `residual_del` at one node and `_residuals` over nodes, one product per class.  The
march's step is the same map's interior class [2N, 2N], solved for node c+2N: it moves
x_s and the particles in one loop, one 4Nd x 3d product a step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel, pencil
from .celsolve import DirichletReport, SystemSolution, _Core, _grid_values
from .model import LagrangianSpec
from .scaleop import OutOfRange, ScaleOperator


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

    def interior_nodes(self) -> range:
        return range(2 * self.op.N, self.M - 2 * self.op.N + 1)

    def sample(self) -> tuple[TrajectoryGrid, np.ndarray]:
        """Evaluate on the grid by `celsolve._grid_values`; returns (particle grid, summed
        values).  NumericalFailure when a value is not finite: unanchored, e^{lam t}
        overflows past max Re lam (tf - t0) ~ 709.78."""
        with np.errstate(over="ignore", invalid="ignore"):
            xs, *vals = [_grid_values(e.u0, e.lambdas, e.vectors, e.anchors, self.t0,
                                      self.op.epsilon, self.M + 1)
                         for e in (self.xs, *self.particles)]
        if not (np.isfinite(vals).all() and np.isfinite(xs).all()):
            growth = (self.tf - self.t0) * max(e.lambdas.real.max()
                                               for e in (self.xs, *self.particles))
            raise numkernel.NumericalFailure(
                f"samples are not finite: growth max Re lam (tf - t0) = {growth:.2f} "
                f"against log(max float) = {np.log(np.finfo(float).max):.2f}")
        return TrajectoryGrid(self.t0, self.op.epsilon, vals), xs


def _discrete_core(spec: LagrangianSpec, ops: list, n: int, M: int) -> _Core:
    """The `_Core` of operators sharing N and eps; WindowExceeded for every item that
    meets the assumptions when M < 4N."""
    core = _Core([pencil.Setting(spec, op) for op in ops], n)
    if M < 4 * ops[0].N:
        core.failures = [f or WindowExceeded(
            f"M = {M} leaves no interior window (need M >= 4N)") for f in core.failures]
    return core


def general_solution_del(spec: LagrangianSpec, op: ScaleOperator, n: int,
                         xs_amplitudes, particle_amplitudes=None,
                         t0: float = 0.0, M: int = None) -> DelSolution:
    """Assemble the discrete solution from per-mode amplitudes.

    Amplitude layout mirrors the continuous solver: one entry per sorted
    discrete phase, the last particle's homogeneous amplitudes resolved by
    the zero-sum constraint.  The amplitudes are given at t = 0 (anchors 0), so a
    growing mode with a nonzero amplitude overflows by design once Re lam t passes
    log(max float) ~ 709.78 on the grid: `sample` then raises NumericalFailure naming
    the growth.
    """
    if M is None:
        raise ValueError("M (node count) is required")
    core = _discrete_core(spec, [op], n, M)
    xs, particles = core.assemble(xs_amplitudes, particle_amplitudes)
    return DelSolution(xs, particles, op, t0, t0 + M * op.epsilon)


def _dirichlet(spec: LagrangianSpec, ops: list, n: int, t0: float, M: int,
               head, tail) -> tuple:
    """The boundary problem of `dirichlet_del` for a batch of operators sharing N and
    eps, as (core, ends, data) for `_Core.boundary_solve`."""
    N, eps = ops[0].N, ops[0].epsilon
    core = _discrete_core(spec, ops, n, M)
    head = np.asarray(head, dtype=complex).reshape(n, 2 * N, spec.d)
    tail = np.asarray(tail, dtype=complex).reshape(n, 2 * N, spec.d)
    ends = (t0 + eps * np.arange(2 * N), t0 + eps * np.arange(M - 2 * N + 1, M + 1))
    data = np.concatenate([head, tail], axis=1)  # (n, 4N, d)
    return core, ends, data


def dirichlet_del(spec: LagrangianSpec, op: ScaleOperator, n: int, t0: float,
                  M: int, head, tail) -> tuple[DelSolution, DirichletReport]:
    """Solve from positions at the first 2N and last 2N grid nodes.

    head and tail are (n, 2N, d) arrays; together they supply 4Nd scalar
    constraints per uncoupled system, matching the 4Nd amplitudes.  This is the
    batch of one of the solve the error surfaces run on blocks of operators.
    """
    core, ends, data = _dirichlet(spec, [op], n, t0, M, head, tail)
    xs, particles, report = core.solve_one(ends, data)
    return DelSolution(xs, particles, op, t0, t0 + M * op.epsilon), report


def recurrence_march(spec: LagrangianSpec, op: ScaleOperator, n: int,
                     xs_seed, particle_seeds, M: int,
                     t0: float = 0.0) -> tuple[TrajectoryGrid, np.ndarray]:
    """March the interior-window recurrences forward from 4N seed nodes.

    xs_seed is (4N, d) and particle_seeds (n, 4N, d), holding nodes 0..4N-1.  The step is
    the interior class [2N, 2N] of `_residual_map` solved for node c+2N, the window's last:
    rows [x_s; x_1..x_n] march together, one product of nodes c-2N..c+2N-1 with
    [particle step | x_s step | x_s's source] a step; real weights march real and imaginary
    parts as rows.  Marching uses only equations centered in the interior window, so
    nodes 4N..M are produced; an M < 4N grid has no such window.  Non-finite seeds are a
    ValueError; a march whose values overflow (growing modes, spurious ones included, over
    many nodes) raises NumericalFailure with the growth it reached.
    """
    R, d = 2 * op.N, spec.d
    if M < 2 * R:
        raise WindowExceeded(f"M = {M} < 4N = {2 * R}: no interior equations")
    w_xs, w_p, f = (a[R, R] for a in _residual_map(spec, op, n))
    (head_xs, last_xs), (head_p, last_p) = ((w[:2 * R * d], w[2 * R * d:]) for w in (w_xs, w_p))
    try:  # inverses of the blocks on node c+2N: x_s's equation and a particle's
        inv_xs, inv_p = (numkernel.solve_square(b.T, np.eye(d)).x.T
                         for b in (last_xs[:, :d], last_p))
    except numkernel.Singular as exc:
        raise LeadingBlockSingular(str(exc)) from exc
    step_xs, const_xs = -head_xs[:, :d] @ inv_xs, n * f @ inv_xs
    source = head_xs[:, d:] + step_xs @ last_xs[:, d:]  # x_s's source, x_s[c+2N] stepped
    step = np.hstack([-head_p @ inv_p, step_xs, -source @ inv_p])
    const = np.concatenate([0.0 * const_xs, const_xs, (f - const_xs @ last_xs[:, d:]) @ inv_p])
    seeds = np.concatenate([np.reshape(xs_seed, (1, 2 * R, d)),
                            np.reshape(particle_seeds, (n, 2 * R, d))]).astype(complex)
    if not np.isfinite(seeds).all():
        raise ValueError("the seeds have non-finite entries")
    real = not step.imag.any()  # z[row, plane, node], planes real and imaginary
    split = (lambda a, axis: np.stack([a.real, a.imag], axis)) if real else np.expand_dims
    step, const, seeds = step.real.copy() if real else step, split(const, 0), split(seeds, 1)
    z = np.pad(seeds, ((0, 0), (0, 0), (0, M + 1 - 2 * R), (0, 0)))
    windows = np.lib.stride_tricks.as_strided(  # rows x planes by nodes c-R..c+R-1
        z, (M - 2 * R + 1, (1 + n) * z.shape[1], 2 * R * d), (z.strides[2], *z.strides[1::2]),
        writeable=False)
    with np.errstate(over="ignore", invalid="ignore"):
        for w, xs, parts in zip(windows, np.moveaxis(z[0, :, 2 * R:], 1, 0),
                                np.moveaxis(z[1:, :, 2 * R:], 2, 0)):
            out = (w @ step).reshape(1 + n, -1, 3 * d)
            out[0] += const
            xs[...] = out[0, :, d:2 * d]
            np.add(out[1:, :, :d], out[0, :, 2 * d:], out=parts)
        values = z[:, 0] + 1j * z[:, 1] if real else z[:, 0]
    finite = np.isfinite(values).all(axis=(0, 2))
    if not finite.all():
        m = int(finite.argmin())
        with np.errstate(divide="ignore"):
            growth = np.log(np.abs(values[:, :m]).max(initial=0.0))
        raise numkernel.NumericalFailure(
            f"the march is not finite from node {m}: growth log max |x| = {growth:.2f} by "
            f"node {m - 1}, against log(max float) = {np.log(np.finfo(float).max):.2f}")
    return TrajectoryGrid(t0, op.epsilon, values[1:]), values[0]


@dataclass(frozen=True)
class DelResidual:
    """Left-minus-right of the discrete equations at one node."""

    xs: np.ndarray
    particles: np.ndarray


def _residuals(spec: LagrangianSpec, op: ScaleOperator, n: int, vals: np.ndarray,
               xs_vals: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Windowed residuals at grid nodes 0 <= nodes <= M: (K, d) for x_s, (n, K, d)
    for the particles, with K = len(nodes); one product per window class."""
    M, R, d, rows = vals.shape[1] - 1, 2 * op.N, spec.d, len(vals)
    if M < 1:
        raise ValueError("a grid needs at least two nodes")
    w_xs, w_p, forcing = _residual_map(spec, op, n)
    r_xs, r_p = np.empty((len(nodes), d), complex), np.empty((rows, len(nodes), d), complex)
    classes = np.minimum(nodes, R) * (R + 1) + np.minimum(M - nodes, R)
    for c in np.unique(classes):
        at, ab = np.flatnonzero(classes == c), divmod(int(c), R + 1)
        near = (nodes[at, None] + np.arange(-R, R + 1)) % (M + 1)  # off-grid nodes weigh 0
        y = xs_vals[near].reshape(len(at), -1) @ w_xs[ab]
        r_xs[at] = y[:, :d] - n * forcing[ab]
        r_p[:, at] = vals[:, near].reshape(rows, len(at), -1) @ w_p[ab] + (y[:, d:] - forcing[ab])
    return r_xs, r_p


def _equation_blocks(spec: LagrangianSpec, n: int) -> tuple:
    """Transposes of [A_n J5 C_n], [2 J3 0 2 J4] and [A_0 J5 C_0], which take
    [boxbox f, sigma f, f] to the x_s equation, the x_s source of the particle
    equations and the particle equation; built once per (spec, n)."""
    key = ("equation_blocks", n)
    if key not in spec._derived:
        (a_n, c_n), (a_0, c_0) = (pencil.coefficient_matrices(spec, nu) for nu in (n, 0))
        J3, J4, J5 = spec.J3, spec.J4, spec.J5
        spec._derived[key] = tuple(np.concatenate(row, axis=1).T for row in (
            (a_n, J5, c_n), (2.0 * J3, 0.0 * J5, 2.0 * J4), (a_0, J5, c_0)))
    return spec._derived[key]


def _residual_map(spec: LagrangianSpec, op: ScaleOperator, n: int) -> tuple:
    """(W_xs, W_p, forcing): at a node of class [a, b], the x_s window times W_xs[a, b]
    ((4N+1)d x 2d) is the x_s equation and the particles' x_s source, a particle window
    times W_p[a, b] their equation, less n forcing[a, b] and forcing[a, b].  W is the
    stencil rows over the negated `_equation_blocks`; keyed by operator value, not object."""
    key = ("residual_map", n, op.N, op.epsilon, op.gamma.tobytes())
    if key not in spec._derived:
        d, A = spec.d, 2 * op.N + 1
        xs_block, source_block, particle_block = _equation_blocks(spec, n)
        spec._derived[key] = tuple(
            np.einsum("abrj,rck->abjck", op.windows.stencil, -block.reshape(3, d, -1),
                      order="C").reshape(A, A, (2 * A - 1) * d, -1)
            for block in (np.hstack([xs_block, source_block]), particle_block)) + (
            op.windows.box1[..., None] * spec.J6 + spec.J7,)
    return spec._derived[key]


def residual_del(spec: LagrangianSpec, op: ScaleOperator, n: int, traj, m: int,
                 xs_values=None) -> DelResidual:
    """Exact windowed residuals of the discrete equations at node m.

    Evaluates the governing recurrences with their true window factors, so it
    is meaningful near the interval ends, where pseudo-periodic extensions
    generically fail to solve the equations.
    """
    if isinstance(traj, DelSolution):
        grid, xs_vals = traj.sample()
        vals = grid.values
    elif xs_values is None:
        raise ValueError("xs_values is required alongside a TrajectoryGrid")
    else:
        vals, xs_vals = traj.values, np.asarray(xs_values, dtype=complex)
    M, R, d = vals.shape[1] - 1, 2 * op.N, spec.d
    if m < 0 or m > M:
        raise OutOfRange(f"node {m} outside 0..{M}")
    if M < 1:
        raise ValueError("a grid needs at least two nodes")
    ab = min(m, R), min(M - m, R)
    near = slice(m - R, m + R + 1) if R <= m <= M - R else \
        (m + np.arange(-R, R + 1)) % (M + 1)  # off-grid nodes weigh 0
    w_xs, w_p, forcing = _residual_map(spec, op, n)
    y = xs_vals[near].reshape(-1) @ w_xs[ab]
    return DelResidual(y[:d] - n * forcing[ab],
                       vals[:, near].reshape(len(vals), -1) @ w_p[ab] + (y[d:] - forcing[ab]))
