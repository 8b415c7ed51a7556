"""Anchored, equilibrated boundary solves against checks that use no spectrum.

Without anchors a boundary matrix holds the columns e^{lam t} v, which over a
surface cell's [0, 1] span up to e^{+-400}: such cells read as singular.  Here the solves
are held to a dense solve of the discrete interior equations on the grid, which
never forms a mode; the grid sampler to direct anchored exponentials; and the
continuous solve to its own round trip on a system whose roots are all real.
"""
import numpy as np
import pytest

from choreoqep import celsolve, cli, convergence, delsolve, pencil
from choreoqep.celsolve import ModeExpansion
from choreoqep.model import LagrangianSpec
from choreoqep.scaleop import ScaleOperator

from conftest import make_reference_spec

BOUNDARY = {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
            "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]}


def rule_anchors(phases, times):
    """The dichotomy rule: the last time for a mode growing by more than e over the
    times, the first for any other."""
    return np.where(phases.real * (times[-1] - times[0]) > 1, times[-1], times[0])


def grid_solve(spec, op, n, M, head, tail):
    """Particle values (n, M+1, d) of the discrete Dirichlet problem from one dense
    solve of the interior equations a variable: the unknowns are nodes 2N..M-2N, the
    equations the interior stencil [theta/eps^2, sigma1/eps, 1] on nodes -2N..2N
    centred there, with the blocks of `pencil.equation_blocks`; x_s first, then every
    particle with x_s as source."""
    R, d, eps = 2 * op.N, spec.d, op.epsilon
    U = M - 2 * R + 1
    stencil = np.zeros((3, 2 * R + 1), dtype=complex)
    stencil[0], stencil[1, op.N:3 * op.N + 1] = op.theta / eps**2, op.sigma1 / eps
    stencil[2, R] = 1.0
    forcing = op.gamma.sum() / eps * spec.J6 + spec.J7  # the adjoint on 1 is sum gamma/eps
    xs_block, source_block, particle_block = pencil.equation_blocks(spec, n)

    def solve(block, rhs, known):
        # G[j] acts on node c - R + j of the equation centred on node c
        G = np.einsum("rj,rab->jba", stencil, block.reshape(3, d, d))
        A = np.zeros((U, d, U, d), dtype=complex)
        b = np.array(rhs, dtype=complex)  # (U, d, m)
        rows = np.arange(U)
        for j in range(2 * R + 1):
            node = rows + j  # node of term j in equation `rows`
            inside = (node >= R) & (node <= M - R)
            A[rows[inside], :, node[inside] - R, :] = G[j]
            b[~inside] -= np.einsum("ab,kbm->kam", G[j], known[node[~inside]])
        x = np.linalg.solve(A.reshape(U * d, U * d), b.reshape(U * d, -1))
        values = known.copy()
        values[R:M - R + 1] = x.reshape(U, d, -1)
        return values

    known = np.zeros((M + 1, d, n), dtype=complex)
    known[:R], known[M - R + 1:] = np.moveaxis(head, 0, -1), np.moveaxis(tail, 0, -1)
    xs = solve(xs_block, np.broadcast_to(-n * forcing[:, None], (U, d, 1)),
               known.sum(axis=2, keepdims=True))[..., 0]
    terms = np.einsum("rj,kjd->krd", stencil,
                      np.lib.stride_tricks.sliding_window_view(xs, (2 * R + 1, d))[:, 0])
    source = terms.reshape(U, 3 * d) @ source_block + forcing
    values = solve(particle_block, np.repeat(-source[..., None], n, axis=2), known)
    return np.moveaxis(values, -1, 0)


def surface_config(M):
    spec = make_reference_spec()
    return cli.parse_config({
        "d": spec.d, "n": spec.n,
        **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
        "time": {"t0": 0.0, "tf": 1.0, "M": M}, "operator": {"family": "central"},
        "boundary": BOUNDARY})


# an 8 x 8 gamma grid off its antisymmetric diagonal: before anchoring, every one of
# these 56 cells at M = 200 was a SingularBoundarySystem, its columns spanning e^{+-30}
# or more; the diagonal's modes stay on the unit circle
CELLS = [(a, b) for a in np.linspace(-1.0, 1.0, 8) for b in np.linspace(-1.0, 1.0, 8)
         if abs(a + b) > 1e-9]


def test_grid_solve_is_the_discrete_problem():
    """The referee itself: on a cell whose modes stay bounded its values solve the
    interior equations (`delsolve.residuals`) and agree with `dirichlet_del`."""
    cfg = surface_config(100)
    op = ScaleOperator(np.array([-0.5, 0.0, 0.5], dtype=complex), cfg.epsilon)
    head, tail, _, _ = convergence.window_reference(
        cli.cel_solution(cfg, 0), cfg.t0, cfg.M, cfg.epsilon, 1)
    values = grid_solve(cfg.spec, op, cfg.n, cfg.M, head, tail)
    nodes = np.arange(2, cfg.M - 1)
    r_xs, r_p = delsolve.residuals(cfg.spec, op, cfg.n, values, values.sum(axis=0), nodes)
    mass = sum(np.abs(getattr(cfg.spec, k)).sum() for k in ("J1", "J2", "J3", "J4"))
    eq_scale = mass / cfg.epsilon**2 * np.abs(values).max()
    assert max(np.abs(r_xs).max(), np.abs(r_p).max()) <= 1e-14 * eq_scale
    sol, _ = delsolve.dirichlet_del(cfg.spec, op, cfg.n, cfg.t0, cfg.M, head, tail)
    assert np.abs(sol.sample()[0].values - values).max() <= 1e-10 * np.abs(values).max()


def test_anchored_solves_of_growing_cells_match_the_grid_solve():
    cfg = surface_config(200)
    head, tail, _, _ = convergence.window_reference(
        cli.cel_solution(cfg, 0), cfg.t0, cfg.M, cfg.epsilon, 1)
    ops = [ScaleOperator(np.array([a, -(a + b), b], dtype=complex), cfg.epsilon)
           for a, b in CELLS]
    errors = []
    for op in ops:
        sol, _ = delsolve.dirichlet_del(cfg.spec, op, cfg.n, cfg.t0, cfg.M, head, tail)
        growth = max(e.lambdas.real.max() for e in sol.particles) * (cfg.tf - cfg.t0)
        assert growth > 30  # e^{-30} pivots: below the 1e-14 singularity test
        want = grid_solve(cfg.spec, op, cfg.n, cfg.M, head, tail)[:, 2:cfg.M - 1]
        got = sol.sample()[0].values[:, 2:cfg.M - 1]
        errors.append(np.abs(got - want).max() / np.abs(want).max())
    assert len(errors) == 56 and max(errors) <= 1e-8, max(errors)


@pytest.mark.parametrize("T", [1, 2, 5, 197, 4001])
def test_grid_sampler_is_the_direct_anchored_exponential(T):
    """Modes with |zeta| = |e^{lam eps}| from 1e-20 to 1e20, anchored as a boundary solve
    anchors them: every value is finite and within 1e-13 of e^{lam (t - a)} relative to
    the mode's largest value."""
    rng = np.random.default_rng(T)
    start, step, K = 0.01, 0.005, 24
    zeta_log = np.concatenate([[-46.06, 46.06], rng.uniform(-46.06, 46.06, K - 2)])
    lams = (zeta_log + 1j * rng.uniform(-np.pi, np.pi, K)) / step
    times = start + step * np.arange(T)
    anchors = rule_anchors(lams, times)
    eye = np.eye(K, dtype=complex)
    got = celsolve.grid_values(np.zeros(K), lams, eye, anchors, start, step, T)
    want = celsolve._expansion_values(np.zeros(K), lams, eye, anchors, times)
    assert np.isfinite(got).all() and np.isfinite(want).all()
    scale = np.abs(want).max(axis=0)
    assert (np.abs(got - want).max(axis=0) <= 1e-13 * scale).all()


def test_grid_sampler_with_the_default_anchor_is_the_plain_exponential():
    rng = np.random.default_rng(5)
    lams = rng.standard_normal(6) * 3 + 1j * rng.standard_normal(6) * 20
    vectors = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    u = ModeExpansion(np.array([0.5, -1.0]), lams, vectors)
    times = 0.25 + 0.01 * np.arange(300)
    got = celsolve.grid_values(u.u0, u.lambdas, u.vectors, u.anchors, 0.25, 0.01, 300)
    want = u.value(times)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def real_root_spec():
    """The reference system with J2 and J4 negated: nu = 0 roots +-2, +-5."""
    ref = make_reference_spec()
    return LagrangianSpec(2, 3, ref.J1, -ref.J2, ref.J3, -ref.J4)


@pytest.mark.parametrize("tf", [10.0, 100.0])
def test_real_root_round_trip_recovers_the_anchored_expansion(tf):
    """Growing modes anchored at tf, the others at 0: data sampled from an anchored
    expansion solves back to its amplitudes, with a well-conditioned system, where
    unanchored columns spread e^{+-5 tf}."""
    spec, n = real_root_spec(), 3
    core = celsolve.Core(spec, [None], n)
    assert np.allclose(np.sort(core.lam_0[0].real), [-5, -2, 2, 5])
    assert not core.lam_0.imag.any()
    phases = np.concatenate([core.lam_n, core.lam_0], axis=1)
    anchors = rule_anchors(phases, np.array([0.0, tf]))[0]
    rng = np.random.default_rng(int(tf))
    xs_amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p_amps = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    xs, particles = core.assemble(xs_amps, p_amps, anchors)
    x0 = np.array([p.value(0.0) for p in particles])
    xf = np.array([p.value(tf) for p in particles])
    back, report = celsolve.dirichlet_cel(spec, n, 0.0, tf, x0, xf)
    assert max(report.xs_cond, *report.particle_conds) < 1e3
    for p, q in zip(particles, back.particles):
        assert np.array_equal(p.anchors, q.anchors)
        assert np.abs(p.vectors - q.vectors).max() < 1e-10
    ts = np.linspace(0.0, tf, 101)
    for p, q in zip(particles, back.particles):
        scale = np.abs(p.value(ts)).max()
        assert np.abs(p.value(ts) - q.value(ts)).max() <= 1e-10 * scale
    residual = celsolve.residual_cel(spec, n, back, 0.5 * tf)
    assert max(np.abs(residual.xs).max(), np.abs(residual.particles).max()) < 1e-9
