"""Pseudo-periodic solutions of the discrete equations of motion.

The solves run the `celsolve` core on the spec and its grid operators, with the
first and last 2N grid nodes as boundary data; sampling, the recurrence march
and the windowed residuals are particular to the grid and live here.
Discrete solutions live on the uniform grid t0 + m*eps and are exact there;
the same exponential expansions extend them off-grid.  The governing
recurrences only hold where every window factor equals one, i.e. for
t in [t0 + 2N eps, tf - 2N eps]; residuals outside that window are
generically nonzero and document the boundary layer.

The equations are `pencil.equation_blocks`, shared with continuous time, on the jet
[boxbox x, sigma x, x] in place of [-x'', 2 x', x].  A node's windowed equations are one
linear map of its window values plus a constant, fixed by its class [a, b] (nodes before
and after, capped at 2N): `_residual_map` builds it from the banded operator matrix D and
those blocks once per (spec, n, operator value), for
`residual_del` at one node and `residuals` over nodes, one product per class.  The
march's step is the same map's interior class [2N, 2N], solved for node c+2N: it moves
x_s and the particles in one loop, one 4Nd x 3d product a step into one buffer.  The map
holds n times the forcing beside the forcing, as the x_s equation reads it at every node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel, pencil
from .celsolve import Core, DirichletReport, Residual, SystemSolution, grid_values
from .model import LagrangianSpec
from .scaleop import OutOfRange, ScaleOperator


class LeadingBlockSingular(numkernel.NumericalFailure):
    """Raised when the most-advanced recurrence block cannot be inverted."""


class WindowExceeded(numkernel.NumericalFailure):
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


@dataclass(frozen=True)
class DelSolution(SystemSolution):
    """Discrete solution: summed and per-particle expansions on [t0, tf] under op."""

    op: ScaleOperator
    t0: float
    tf: float

    @property
    def M(self) -> int:
        return int(round((self.tf - self.t0) / self.op.epsilon))

    def interior_nodes(self) -> range:
        return range(2 * self.op.N, self.M - 2 * self.op.N + 1)

    def sample(self) -> tuple[TrajectoryGrid, np.ndarray]:
        """Evaluate on the grid by `celsolve.grid_values`; returns (particle grid, summed
        values).  NumericalFailure when a value is not finite: e^{lam (t - a)} overflows
        past max Re lam (t - a) ~ 709.78 on [t0, tf]."""
        expansions = (self.xs, *self.particles)
        with np.errstate(over="ignore", invalid="ignore"):
            xs, *vals = [grid_values(e.u0, e.lambdas, e.vectors, e.anchors, self.t0,
                                     self.op.epsilon, self.M + 1) for e in expansions]
        if not (np.isfinite(vals).all() and np.isfinite(xs).all()):
            raise numkernel.overflow("samples are not finite", "max Re lam (t - a)",
                                     max(e.growth([self.t0, self.tf]) for e in expansions))
        return TrajectoryGrid(self.t0, self.op.epsilon, vals), xs


def _discrete_core(spec: LagrangianSpec, ops: list, n: int, M: int) -> Core:
    """The `Core` of operators sharing N and eps; WindowExceeded for every item that
    meets the assumptions when M < 4N."""
    core = Core(spec, ops, n)
    if M < 4 * ops[0].N:
        core.failures, _ = numkernel.merge_failures(core.failures, [WindowExceeded(
            f"M = {M} leaves no interior window (need M >= 4N)") for op in ops])
    return core


def general_solution_del(spec: LagrangianSpec, op: ScaleOperator, n: int, xs_amplitudes,
                         particle_amplitudes, t0: float, M: int) -> DelSolution:
    """Assemble the discrete solution on the M steps of eps from t0 from per-mode amplitudes.

    Amplitude layout mirrors the continuous solver: one entry per sorted
    discrete phase, the last particle's homogeneous amplitudes resolved by
    the zero-sum constraint (particle_amplitudes None: all zero).  The amplitudes are
    given at t = 0 (anchors 0), so a growing mode with a nonzero amplitude overflows by
    design once Re lam t passes log(max float) ~ 709.78 on the grid: `sample` then raises
    NumericalFailure naming the growth.
    """
    core = _discrete_core(spec, [op], n, M)
    xs, particles = core.assemble(xs_amplitudes, particle_amplitudes)
    return DelSolution(xs, particles, op, t0, t0 + M * op.epsilon)


def boundary_problem(spec: LagrangianSpec, ops: list, n: int, t0: float, M: int,
                     head, tail) -> tuple:
    """The boundary problem of `dirichlet_del` for a batch of operators sharing N and
    eps, as (core, ends, data) for `Core.boundary_solve`."""
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
    core, ends, data = boundary_problem(spec, [op], n, t0, M, head, tail)
    xs, particles, report = core.solve_one(ends, data)
    return DelSolution(xs, particles, op, t0, t0 + M * op.epsilon), report


def recurrence_march(spec: LagrangianSpec, op: ScaleOperator, n: int,
                     xs_seed, particle_seeds, M: int,
                     t0: float = 0.0) -> tuple[TrajectoryGrid, np.ndarray]:
    """March the interior-window recurrences forward from 4N seed nodes.

    xs_seed is (4N, d) and particle_seeds (n, 4N, d), holding nodes 0..4N-1.  The step is
    the interior class [2N, 2N] of `_residual_map` solved for node c+2N, the window's last:
    rows [x_s; x_1..x_n] march together, one product of nodes c-2N..c+2N-1 with
    [particle step | x_s step | x_s's source] a step, into one buffer whose fixed views
    take the constant, give x_s's new node and add x_s's source to the particles'; real
    weights march real and imaginary parts as rows.  Marching uses only equations centered
    in the interior window, so nodes 4N..M are produced; an M < 4N grid has no such
    window.  Non-finite seeds are a
    ValueError; a march whose values overflow (growing modes, spurious ones included, over
    many nodes) raises NumericalFailure with the growth it reached.
    """
    R, d = 2 * op.N, spec.d
    if M < 2 * R:
        raise WindowExceeded(f"M = {M} < 4N = {2 * R}: no interior equations")
    w_xs, w_p, f, nf = (a[R, R] for a in _residual_map(spec, op, n))
    (head_xs, last_xs), (head_p, last_p) = ((w[:2 * R * d], w[2 * R * d:]) for w in (w_xs, w_p))
    try:  # inverses of the blocks on node c+2N: x_s's equation and a particle's
        inv_xs, inv_p = (numkernel.solve_square(b.T, np.eye(d)).T
                         for b in (last_xs[:, :d], last_p))
    except numkernel.Singular as exc:
        raise LeadingBlockSingular(str(exc)) from exc
    step_xs, const_xs = -head_xs[:, :d] @ inv_xs, nf @ inv_xs
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
    buf = np.empty((windows.shape[1], 3 * d), dtype=step.dtype)  # one step's product
    rows = buf.reshape(1 + n, -1, 3 * d)
    xs_row, own = rows[0], rows[1:, :, :d]
    xs_next, xs_src = xs_row[:, d:2 * d], xs_row[:, 2 * d:]
    with np.errstate(over="ignore", invalid="ignore"):
        for w, xs, parts in zip(windows, np.moveaxis(z[0, :, 2 * R:], 1, 0),
                                np.moveaxis(z[1:, :, 2 * R:], 2, 0)):
            np.matmul(w, step, out=buf)
            xs_row += const
            xs[...] = xs_next
            np.add(own, xs_src, out=parts)
        values = z[:, 0] + 1j * z[:, 1] if real else z[:, 0]
    finite = np.isfinite(values).all(axis=(0, 2))
    if not finite.all():
        m = int(finite.argmin())
        with np.errstate(divide="ignore"):
            growth = np.log(np.abs(values[:, :m]).max(initial=0.0))
        raise numkernel.overflow(f"the march is not finite from node {m}",
                                 f"log max |x| by node {m - 1}", growth)
    return TrajectoryGrid(t0, op.epsilon, values[1:]), values[0]


def residuals(spec: LagrangianSpec, op: ScaleOperator, n: int, vals: np.ndarray,
              xs_vals: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Windowed residuals at grid nodes 0 <= nodes <= M: (K, d) for x_s, (n, K, d)
    for the particles, with K = len(nodes); one product per window class of each block
    of 256 nodes, so that the window gathers stay bounded on long grids."""
    M, R, d, rows = vals.shape[1] - 1, 2 * op.N, spec.d, len(vals)
    if M < 1:
        raise ValueError("a grid needs at least two nodes")
    w_xs, w_p, forcing, n_forcing = _residual_map(spec, op, n)
    r_xs, r_p = np.empty((len(nodes), d), complex), np.empty((rows, len(nodes), d), complex)
    classes = np.minimum(nodes, R) * (R + 1) + np.minimum(M - nodes, R)
    for block in np.split(np.arange(len(nodes)), range(256, len(nodes), 256)):
        for c in sorted(set(classes[block].tolist())):
            at, ab = block[classes[block] == c], divmod(c, R + 1)
            near = (nodes[at, None] + np.arange(-R, R + 1)) % (M + 1)  # off-grid nodes weigh 0
            y = xs_vals[near].reshape(len(at), -1) @ w_xs[ab]
            r_xs[at] = y[:, :d] - n_forcing[ab]
            r_p[:, at] = (vals[:, near].reshape(rows, len(at), -1) @ w_p[ab]
                          + (y[:, d:] - forcing[ab]))
    return r_xs, r_p


def _residual_map(spec: LagrangianSpec, op: ScaleOperator, n: int) -> tuple:
    """(W_xs, W_p, forcing, n forcing) by window class [a, b]: a node with a nodes before
    it and b after (each capped at 2N; [2N, 2N] is the interior) is node a of an
    (a+b+1)-node grid with the banded D[i, i+j] = gamma_j.  Rows a of D^T D/eps^2,
    (D - D^T)/eps and the unit give [boxbox f, sigma f, f] on nodes m-2N..m+2N; over the
    negated `pencil.equation_blocks` the x_s window times W_xs[a, b] ((4N+1)d x 2d) is the
    x_s equation and the particles' x_s source, a particle window times W_p[a, b] their
    equation, less n forcing[a, b] and forcing[a, b] = (D^T 1)_a/eps J6 + J7.  Keyed by
    operator value, not object."""
    key = ("residual_map", n, op.N, op.epsilon, op.gamma.tobytes())
    if key not in spec._derived:
        N, R, d, eps = op.N, 2 * op.N, spec.d, op.epsilon
        D = sum(np.diag(np.full(2 * R + 1 - abs(j), g), j)
                for j, g in zip(range(-N, N + 1), op.gamma))  # D[i, i+j] = gamma_j
        stencil = np.zeros((R + 1, R + 1, 3, 2 * R + 1), complex)
        stencil[:, :, 2, R], box1 = 1.0, np.zeros((R + 1, R + 1), complex)
        for a, b in np.ndindex(R + 1, R + 1):
            grid, at = D[:a + b + 1, :a + b + 1], slice(R - a, R + b + 1)
            stencil[a, b, :2, at] = grid[:, a] @ grid / eps**2, (grid[a] - grid[:, a]) / eps
            box1[a, b] = grid[:, a].sum() / eps
        xs_block, source_block, particle_block = pencil.equation_blocks(spec, n)
        forcing = box1[..., None] * spec.J6 + spec.J7
        spec._derived[key] = tuple(
            np.einsum("abrj,rck->abjck", stencil, -block.reshape(3, d, -1),
                      order="C").reshape(R + 1, R + 1, (2 * R + 1) * d, -1)
            for block in (np.hstack([xs_block, source_block]), particle_block)) + (
            forcing, n * forcing)
    return spec._derived[key]


def residual_del(spec: LagrangianSpec, op: ScaleOperator, n: int, traj: TrajectoryGrid,
                 m: int, xs_values) -> Residual:
    """Exact windowed residuals of the discrete equations at node m, from the particles'
    grid values and x_s's, xs_values (M+1, d).

    Evaluates the governing recurrences with their true window factors, so it
    is meaningful near the interval ends, where pseudo-periodic extensions
    generically fail to solve the equations.
    """
    vals, xs_vals = traj.values, np.asarray(xs_values, dtype=complex)
    M, R, d = vals.shape[1] - 1, 2 * op.N, spec.d
    if m < 0 or m > M:
        raise OutOfRange(f"node {m} outside 0..{M}")
    if M < 1:
        raise ValueError("a grid needs at least two nodes")
    ab = min(m, R), min(M - m, R)
    near = slice(m - R, m + R + 1) if R <= m <= M - R else \
        (m + np.arange(-R, R + 1)) % (M + 1)  # off-grid nodes weigh 0
    w_xs, w_p, forcing, n_forcing = _residual_map(spec, op, n)
    y = xs_vals[near].reshape(-1) @ w_xs[ab]
    return Residual(y[:d] - n_forcing[ab],
                    vals[:, near].reshape(len(vals), -1) @ w_p[ab] + (y[d:] - forcing[ab]))
