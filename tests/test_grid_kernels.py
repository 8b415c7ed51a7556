"""The grid kernels against loop references built from the public operators.

The residual kernel is one cached linear map per window class and the march
advances x_s and all particles by one product a step; here both are compared
with the node-by-node formulas they replaced, written out with `box_apply`,
`adjoint_box_apply`, `boxbox_apply` and `chi`.
"""
import dataclasses
import gc

import numpy as np
import pytest

from choreoqep import delsolve, numkernel, pencil, periodic, scaleop
from choreoqep.delsolve import TrajectoryGrid, recurrence_march, residual_del
from choreoqep.scaleop import (GridFunction, OutOfRange, ScaleOperator,
                               central_difference, k_family)

from conftest import make_discrete_tuned_spec_d3, make_reference_spec

from test_shared_core import count_calls

OPERATORS = {
    "central": lambda eps: central_difference(eps),
    "k_family": lambda eps: k_family(eps, 0.3),
    "five_point": lambda eps: ScaleOperator(
        np.array([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]), eps),
    "complex": lambda eps: ScaleOperator(  # complex march steps
        np.array([-0.5 + 0.1j, 0.05j, 0.5 - 0.05j]), eps),
}


def full_spec(n):
    """The reference system with gyroscopic and linear terms switched on."""
    return dataclasses.replace(make_reference_spec(n),
                               J5=np.array([[0.0, 0.4], [-0.4, 0.0]]),
                               J6=np.array([0.2, -0.7]), J7=np.array([1.1, 0.4]))


def random_grid(rng, n, M, d=2):
    vals = rng.standard_normal((n, M + 1, d)) + 1j * rng.standard_normal((n, M + 1, d))
    return vals, vals.sum(axis=0) + 0.1 * rng.standard_normal((M + 1, d))


def reference_residual(spec, op, n, vals, xs_vals, t0, m):
    """The windowed equations at node m from the time-based public operators."""
    eps = op.epsilon
    tf = t0 + (vals.shape[1] - 1) * eps
    a_n, c_n = pencil.coefficient_matrices(spec, n)
    a_0, c_0 = pencil.coefficient_matrices(spec, 0)

    def applied(f):
        f = GridFunction(t0, eps, f)
        return (scaleop.boxbox_apply(op, f, m, t0, tf),
                scaleop.box_apply(op, f, m, t0, tf)
                - scaleop.adjoint_box_apply(op, f, m, t0, tf))

    bb_xs, sg_xs = applied(xs_vals)
    box1 = sum(op.gamma_at(j) / eps * scaleop.chi(op, j, t0 + m * eps, t0, tf)
               for j in range(-op.N, op.N + 1))
    r_xs = (-a_n @ bb_xs - spec.J5 @ sg_xs - c_n @ xs_vals[m]
            - n * (box1 * spec.J6 + spec.J7))
    source = 2.0 * spec.J3 @ bb_xs + 2.0 * spec.J4 @ xs_vals[m] + box1 * spec.J6 + spec.J7
    rows = []
    for f in vals:
        bb, sg = applied(f)
        rows.append(-a_0 @ bb - spec.J5 @ sg - c_0 @ f[m] - source)
    return r_xs, np.array(rows)


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("size", ["4N", "4N+1", "60"])
def test_table_residual_matches_public_operators(name, n, size):
    op = OPERATORS[name](0.05)
    M = {"4N": 4 * op.N, "4N+1": 4 * op.N + 1, "60": 60}[size]
    spec = full_spec(n)
    vals, xs_vals = random_grid(np.random.default_rng(M + n), n, M)
    grid = TrajectoryGrid(0.0, op.epsilon, vals)
    for m in range(M + 1):
        got = residual_del(spec, op, n, grid, m, xs_vals)
        want_xs, want_p = reference_residual(spec, op, n, vals, xs_vals, 0.0, m)
        scale = max(np.abs(want_xs).max(), np.abs(want_p).max())
        assert np.abs(got.xs - want_xs).max() <= 1e-13 * scale
        assert np.abs(got.particles - want_p).max() <= 1e-13 * scale


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_kernel_over_all_nodes_is_the_one_node_residual(name):
    op = OPERATORS[name](0.05)
    spec = full_spec(3)
    vals, xs_vals = random_grid(np.random.default_rng(1), 3, 40)
    r_xs, r_p = delsolve._residuals(spec, op, 3, vals, xs_vals, np.arange(41))
    grid = TrajectoryGrid(0.0, op.epsilon, vals)
    scale = max(np.abs(r_xs).max(), np.abs(r_p).max())
    for m in range(41):  # a batch may round differently from one node
        one = residual_del(spec, op, 3, grid, m, xs_vals)
        assert np.abs(one.xs - r_xs[m]).max() <= 1e-14 * scale
        assert np.abs(one.particles - r_p[:, m]).max() <= 1e-14 * scale


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_residual_does_not_depend_on_t0(name):
    """The equations are autonomous: moving t0 to 1e6 changes no residual,
    in the boundary layers included."""
    op = OPERATORS[name](1e-3)
    M, n = 200, 3
    spec = full_spec(n)
    vals, xs_vals = random_grid(np.random.default_rng(2), n, M)
    early = TrajectoryGrid(0.0, op.epsilon, vals)
    late = TrajectoryGrid(1e6, op.epsilon, vals)
    for m in range(M + 1):
        a = residual_del(spec, op, n, early, m, xs_vals)
        b = residual_del(spec, op, n, late, m, xs_vals)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.particles, b.particles), m


def rebuilt_map(spec, op, n):
    """`delsolve._residual_map` rebuilt from `pencil.coefficient_matrices` on every
    call."""
    d, A = spec.d, 2 * op.N + 1
    (a_n, c_n), (a_0, c_0) = (pencil.coefficient_matrices(spec, nu) for nu in (n, 0))
    J3, J4, J5 = spec.J3, spec.J4, spec.J5
    xs_block = np.concatenate([a_n, J5, c_n], axis=1).T
    source_block = np.concatenate([2.0 * J3, 0.0 * J5, 2.0 * J4], axis=1).T
    particle_block = np.concatenate([a_0, J5, c_0], axis=1).T
    w_xs, w_p = (np.einsum("abrj,rck->abjck", op.windows.stencil, -block.reshape(3, d, -1),
                           order="C").reshape(A, A, -1, cols)
                 for block, cols in ((np.hstack([xs_block, source_block]), 2 * d),
                                     (particle_block, d)))
    return w_xs, w_p, op.windows.box1[..., None] * spec.J6 + spec.J7


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def same_map(got, want):
    return all(np.array_equal(bits(a), bits(b)) for a, b in zip(got, want))


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("n", [1, 3])
def test_cached_blocks_give_the_rebuilt_residuals_bit_for_bit(name, n):
    """Residuals are products with the cached map: after every node of every window
    class has been evaluated, that map is bit for bit the one rebuilt from scratch."""
    op = OPERATORS[name](0.05)
    spec = full_spec(n)
    for M in (4 * op.N, 4 * op.N + 1, 60):  # every node, the boundary layers included
        vals, xs_vals = random_grid(np.random.default_rng(10 * M + n), n, M)
        delsolve._residuals(spec, op, n, vals, xs_vals, np.arange(M + 1))
        grid = TrajectoryGrid(0.0, op.epsilon, vals)
        for m in range(M + 1):
            residual_del(spec, op, n, grid, m, xs_vals)
        assert same_map(delsolve._residual_map(spec, op, n), rebuilt_map(spec, op, n))


def test_equation_blocks_are_built_once_per_spec_and_particle_count(monkeypatch):
    op = OPERATORS["five_point"](0.05)
    spec = full_spec(3)
    vals, xs_vals = random_grid(np.random.default_rng(3), 3, 30)
    grid = TrajectoryGrid(0.0, op.epsilon, vals)
    want = rebuilt_map(spec, op, 2)
    calls = count_calls(monkeypatch, pencil, "coefficient_matrices")
    residual_del(spec, op, 3, grid, 0, xs_vals)
    assert calls[0] == 2  # nu = n and nu = 0
    for m in range(31):
        residual_del(spec, op, 3, grid, m, xs_vals)
    assert calls[0] == 2
    residual_del(spec, op, 2, grid, 5, xs_vals)  # another n: its own blocks
    assert same_map(delsolve._residual_map(spec, op, 2), want)
    residual_del(full_spec(3), op, 3, grid, 5, xs_vals)  # another spec: its own blocks
    assert calls[0] == 6


def test_residual_maps_are_keyed_by_operator_value():
    spec = full_spec(3)
    gamma = np.array([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12])
    shared = delsolve._residual_map(spec, ScaleOperator(gamma, 0.05), 3)
    assert delsolve._residual_map(spec, ScaleOperator(gamma.copy(), 0.05), 3) is shared
    for other in (ScaleOperator(gamma, 0.04), ScaleOperator(1.5 * gamma, 0.05)):
        got = delsolve._residual_map(spec, other, 3)
        assert got is not shared and same_map(got, rebuilt_map(spec, other, 3))
    for k in range(20):  # a new operator may take a deleted one's id, never its map
        op = ScaleOperator(gamma * (2.0 + k), 0.05)
        assert same_map(delsolve._residual_map(spec, op, 3), rebuilt_map(spec, op, 3))
        del op
        gc.collect()


def stencil_matrices(spec, op, nu):
    """Interior-window coefficient of x(t + k eps) for k = -2N..2N."""
    a_nu, c_nu = pencil.coefficient_matrices(spec, nu)
    g, a1 = scaleop.theta_coefficients(op), scaleop.sigma1_coefficients(op)
    N, eps = op.N, op.epsilon
    mats = []
    for k in range(-2 * N, 2 * N + 1):
        m = (g[k + 2 * N] / eps**2) * a_nu.astype(complex)
        if abs(k) <= N:
            m = m + (a1[k + N] / eps) * spec.J5
        if k == 0:
            m = m + c_nu
        mats.append(m)
    return mats


def reference_march(spec, op, n, xs_seed, particle_seeds, M):
    """Node by node and particle by particle, from the 4N+1 stencil blocks."""
    N, d, eps = op.N, spec.d, op.epsilon
    mats_n = stencil_matrices(spec, op, n)
    mats_0 = stencil_matrices(spec, op, 0)
    src_const = spec.J7 + op.gamma.sum() / eps * spec.J6  # J7 + s_bar(0) J6
    g = scaleop.theta_coefficients(op)
    xs = np.zeros((M + 1, d), dtype=complex)
    xs[:4 * N] = xs_seed
    for c in range(2 * N, M - 2 * N + 1):
        rhs = n * src_const.astype(complex)
        for k in range(-2 * N, 2 * N):
            rhs = rhs + mats_n[k + 2 * N] @ xs[c + k]
        xs[c + 2 * N] = -np.linalg.solve(mats_n[-1], rhs)
    traj = np.zeros((n, M + 1, d), dtype=complex)
    traj[:, :4 * N] = particle_seeds
    for j in range(n):
        for c in range(2 * N, M - 2 * N + 1):
            bb_xs = sum(g[k + 2 * N] / eps**2 * xs[c + k]
                        for k in range(-2 * N, 2 * N + 1))
            rhs = 2.0 * spec.J3 @ bb_xs + 2.0 * spec.J4 @ xs[c] + src_const
            for k in range(-2 * N, 2 * N):
                rhs = rhs + mats_0[k + 2 * N] @ traj[j, c + k]
            traj[j, c + 2 * N] = -np.linalg.solve(mats_0[-1], rhs)
    return traj, xs


@pytest.mark.parametrize("name", ["k_family", "five_point", "complex"])  # N = 1, 2, 1
def test_batched_march_matches_per_particle_loop(name):
    op = OPERATORS[name](0.05)
    n, M = 3, 40  # the five-point operator's spurious modes grow the march to ~1e32
    spec = full_spec(n)
    vals, xs_vals = random_grid(np.random.default_rng(3), n, 4 * op.N - 1)
    grid, xs = recurrence_march(spec, op, n, xs_vals, vals, M)
    want_traj, want_xs = reference_march(spec, op, n, xs_vals, vals, M)
    assert np.abs(xs - want_xs).max() <= 1e-12 * np.abs(want_xs).max()
    assert np.abs(grid.values - want_traj).max() <= 1e-12 * np.abs(want_traj).max()


def test_nodes_off_the_grid_raise(ref_spec):
    """LeadingBlockSingular and WindowExceeded of the march are pinned in
    test_delsolve.TestRecurrenceMarch."""
    op = central_difference(0.1)
    vals, xs_vals = random_grid(np.random.default_rng(4), 3, 20)
    grid = TrajectoryGrid(0.0, op.epsilon, vals)
    for m in (-1, 21):
        with pytest.raises(OutOfRange):
            residual_del(ref_spec, op, 3, grid, m, xs_vals)
    with pytest.raises(ValueError):  # one node spans no interval
        residual_del(ref_spec, op, 3, TrajectoryGrid(0.0, op.epsilon, vals[:, :1]), 0,
                     xs_vals[:1])


def discrete_choreography_run(spec, op):
    """dirichlet_del, build_choreography_del and verify_choreography on one operator."""
    rng = np.random.default_rng(5)
    # every nu = 0 mode has a period of 30 nodes: at M = 31 the tail nodes {30, 31}
    # would repeat the head nodes {0, 1}, an exactly singular boundary system
    delsolve.dirichlet_del(spec, op, 5, 0.0, 33, rng.standard_normal((5, 2, 3)),
                           rng.standard_normal((5, 2, 3)))
    ch, sol = periodic.build_choreography_del(spec, op, 5, np.ones(12), 0.0, 30)
    assert periodic.verify_choreography(ch, sol, spec).all_ok
    return sol


def test_stencil_coefficients_are_computed_once_per_operator(monkeypatch):
    spec = make_discrete_tuned_spec_d3(central_difference(np.pi / 15.0), n=5)
    theta = count_calls(monkeypatch, scaleop, "theta_coefficients")
    sigma1 = count_calls(monkeypatch, scaleop, "sigma1_coefficients")
    op = central_difference(np.pi / 15.0)
    discrete_choreography_run(spec, op)
    # the constant mode reads theta_hat(1) = (sum gamma / eps)^2 and sigma1_hat(1) = 0
    # in closed form: sigma1 is not needed on this path
    assert (theta[0], sigma1[0]) == (1, 0)
    discrete_choreography_run(spec, central_difference(np.pi / 15.0))
    assert (theta[0], sigma1[0]) == (2, 0)


def test_verify_without_interior_nodes_reports_zero_residual():
    op = central_difference(np.pi / 15.0)
    spec = make_discrete_tuned_spec_d3(op, n=5)
    ch, sol = periodic.build_choreography_del(spec, op, 5, np.ones(12), 0.0, 3)  # M < 4N
    assert periodic.verify_choreography(ch, sol, spec).residual_error == 0.0


def test_grid_path_never_calls_the_float_window(monkeypatch):
    def forbidden(*args):
        raise AssertionError("scaleop.chi called on the grid path")

    op = central_difference(np.pi / 15.0)
    spec = make_discrete_tuned_spec_d3(op, n=5)
    monkeypatch.setattr(scaleop, "chi", forbidden)
    sol = discrete_choreography_run(spec, op)
    grid, xs_vals = sol.sample()
    for m in range(31):
        residual_del(spec, op, 5, grid, m, xs_vals)
    recurrence_march(spec, op, 5, xs_vals[:4], grid.values[:, :4], 30)


def test_cached_stencil_arrays_are_read_only():
    op = OPERATORS["five_point"](0.1)
    for arr in (op.gamma, op.theta, op.sigma1, op.shift, *op.windows):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_vectorised_root_predicates_keep_the_loop_booleans():
    rng = np.random.default_rng(6)
    tol = 1e-7
    for _ in range(200):
        base = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        r1 = base * 10.0 ** rng.integers(-3, 3)
        r2 = r1 + tol * rng.standard_normal(6) * np.abs(r1).max() * rng.integers(0, 3)
        roots = np.concatenate([r1, r2[:2]])
        pairs = [abs(a - b) < tol * max(1.0, abs(a), abs(b)) for a in r1 for b in r2]
        assert numkernel.close_pairs(r1, r2, tol).ravel().tolist() == pairs
        simple = not any(abs(roots[i] - roots[j]) < tol * max(1.0, abs(roots[i]),
                                                              abs(roots[j]))
                         for i in range(len(roots)) for j in range(i + 1, len(roots)))
        assert numkernel.RootSet.from_roots(roots).is_simple(tol) == simple
