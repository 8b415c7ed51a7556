"""A solve fails only on what it needs.

`celsolve.Core` fails an item on a spectrum it uses that fails, on a nu = n pencil singular
at the constant mode, and on a singular boundary system.  Phases that repeat within one
expansion fail a solve only where the boundary system's pivots find its columns dependent:
cells whose boundary-layer zeta-roots coincide to the last bit solve, and a repeated phase
with one kernel vector is a SingularBoundarySystem.  The paper's verdicts on simple and
disjoint roots stay reports (`pencil.check_cel_assumptions`, `check_del_assumptions`),
which no solve reads: well-posed discrete problems whose zeta-roots come close (a d = 32
system's nu = n and nu = 0 roots under the 5-point operator, and mixed 5-point weights at
small eps) solve, at the operator's order.
"""
import numpy as np
import pytest

from choreoqep import celsolve, convergence, delsolve, pencil
from choreoqep.celsolve import AssumptionViolation
from choreoqep.model import LagrangianSpec
from choreoqep.scaleop import ScaleOperator

from conftest import make_reference_spec, make_spread_spec
from test_anchored_solves import grid_solve

FIVE_POINT = np.array([1, -8, 0, 8, -1]) / 12.0
MIXED = FIVE_POINT + 0.1 * np.array([1, -4, 6, -4, 1])


def window_errors(spec, n, tf, gamma, Ms):
    """Max relative error, over the window nodes 2N..M-2N, of `dirichlet_del` at each M
    against the continuous Dirichlet solution on [0, tf] from random end positions."""
    x0, xf = np.random.default_rng(7).uniform(-1.0, 1.0, (2, n, spec.d))
    cel, _ = celsolve.dirichlet_cel(spec, n, 0.0, tf, x0, xf)
    errors = []
    for M in Ms:
        op = ScaleOperator(gamma, tf / M)
        head, tail, _, want = convergence.window_reference(cel, 0.0, M, op.epsilon, op.N)
        sol, _ = delsolve.dirichlet_del(spec, op, n, 0.0, M, head, tail)
        got = sol.sample()[0].values[:, 2 * op.N:M - 2 * op.N + 1]
        errors.append(np.abs(got - want).max() / np.abs(want).max())
    return np.array(errors)


def test_a_d32_system_whose_spectra_are_not_disjoint_in_zeta_solves_at_order_four():
    """The nu = n and nu = 0 zeta-roots of the d = 32 spread system come within 1e-7
    relative (their phases do not: the report says disjoint); the solves return, with
    errors measured 4.8e-6, 9.1e-9 and 4.4e-11 and a fitted order of 4.19."""
    Ms = np.array([200, 800, 3200])
    errors = window_errors(make_spread_spec(), 2, 4.0, FIVE_POINT, Ms)
    order = np.polyfit(np.log(4.0 / Ms), np.log(errors), 1)[0]
    assert 3.9 <= order <= 4.5, (order, errors)


def test_mixed_five_point_weights_with_clustered_zeta_roots_solve():
    """The mixed weights' spurious zeta-roots cluster below 1e-7 at these delays; the
    errors were measured 2.5e-11, 6.6e-13 and 5.8e-14."""
    errors = window_errors(make_reference_spec(), 3, 0.4, MIXED, [400, 1000, 4000])
    assert errors.max() <= 1e-9, errors


def test_solves_never_read_the_assumption_reports(monkeypatch):
    """A surface's `window_errors` and a lone `dirichlet_del` make no call of the report,
    `pencil.check_del_assumptions` (`check_cel_assumptions` calls it too); on the d = 32
    case that solves above it judges the phases, whose closest nu = n and nu = 0 pair is
    1.1e-5 apart at |lam| = 103, and finds no assumption failing (one call)."""
    calls = []
    original = pencil.check_del_assumptions

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pencil, "check_del_assumptions", counted)
    spec, M = make_reference_spec(), 200
    x0, xf = np.random.default_rng(7).uniform(-1.0, 1.0, (2, 3, spec.d))
    cel, _ = celsolve.dirichlet_cel(spec, 3, 0.0, 1.0, x0, xf)
    reference = convergence.window_reference(cel, 0.0, M, 1.0 / M, 1)
    gammas = np.array([[-0.5, 0.0, 0.5], [0.0, -0.4, 0.4], [-0.3, -0.2, 0.5]], dtype=complex)
    *_, status, _ = convergence.window_errors(spec, 3, 0.0, M, 1.0 / M, gammas, reference)
    assert status == ["ok", "AssumptionViolation", "ok"]
    delsolve.dirichlet_del(spec, ScaleOperator(gammas[0], 1.0 / M), 3, 0.0, M, *reference[:2])
    assert calls == []

    big = make_spread_spec()
    assert pencil.check_del_assumptions(big, ScaleOperator(FIVE_POINT, 4.0 / 200), 2) == []
    assert len(calls) == 1


def test_a_constant_mode_singular_system_is_an_assumption_violation():
    """These weights make -A_n s_bar(0)^2 - C_n singular (the batched sweep test's
    example): the nu = n solve at the constant mode meets a Singular pivot."""
    op = ScaleOperator(np.array([-0.028329282336421846, 0.7789756686980005,
                                 0.8680870319124994]), 1.3399983658146783)
    with pytest.raises(AssumptionViolation, match="singular at the constant mode"):
        delsolve.general_solution_del(make_reference_spec(), op, 3, np.zeros(8), None, 0.0, 10)


def test_a_single_particle_does_not_need_the_nu_0_spectrum():
    """For n = 1 the zero-sum constraint eliminates the nu = 0 modes, so the degree drop of
    the nu = 0 pencil at J1 = 2 J3 is reported but does not fail the solve."""
    spec = LagrangianSpec(1, 1, [[1.0]], [[-1.0]], [[0.5]], [[0.0]])
    assert pencil.check_cel_assumptions(spec, 1) == [
        "leading coefficient is singular; root count drops below 2d"]
    sol, _ = celsolve.dirichlet_cel(spec, 1, 0.0, 1.0, [[1.0]], [[2.0]])
    assert np.abs(sol.particles[0].value([0.0, 1.0]).ravel() - [1.0, 2.0]).max() <= 1e-12


def seeded_five_point_cells(count=50):
    """5-point weights plus 0.1 r, r a standard normal draw (rng seed 11) made sum-zero and
    first-moment-zero by projecting off (1, 1, 1, 1, 1) and (-2, -1, 0, 1, 2), then scaled
    to max |r| = 1: the weights stay consistent (sum 0, first moment 1), and their
    spurious zeta-roots move."""
    rng, rows = np.random.default_rng(11), []
    for _ in range(count):
        r = rng.standard_normal(5)
        for v in (np.ones(5), np.arange(-2.0, 3.0)):  # orthogonal to each other
            r = r - (r @ v) / (v @ v) * v
        rows.append(FIVE_POINT + 0.1 * (r / np.abs(r).max()))
    return np.array(rows)


def test_cells_whose_boundary_layer_phases_coincide_solve():
    """Reference spec, n = 3, eps = 1e-4, M = 400.  In cells 3, 5 and 45 a boundary-layer
    phase of the nu = n pencil equals one of the nu = 0 pencil to the last bit (in the
    surface's batch; 5 and 45 alone), kernel vectors |<v, w>| = 0.17, so each particle
    expansion holds it twice.  The two pencils' boundary systems are separate solves, and
    the cells solve, in the batch and alone: measured within 3.4e-12 of the dense grid solve
    and 1.2e-10 of the continuous solution, boundary condition numbers at most 88."""
    spec, n, eps, M = make_reference_spec(), 3, 1e-4, 400
    x0, xf = np.random.default_rng(7).uniform(-1.0, 1.0, (2, n, spec.d))
    cel, _ = celsolve.dirichlet_cel(spec, n, 0.0, eps * M, x0, xf)
    head, tail, _, want = reference = convergence.window_reference(cel, 0.0, M, eps, 2)
    gammas = seeded_five_point_cells()
    _, max_errors, status, _ = convergence.window_errors(spec, n, 0.0, M, eps, gammas, reference)
    assert status == ["ok"] * 50
    assert max(max_errors) <= 1e-9 * np.abs(want).max()
    for cell in (3, 5, 45):
        op = ScaleOperator(gammas[cell], eps)
        sol, report = delsolve.dirichlet_del(spec, op, n, 0.0, M, head, tail)
        got = sol.sample()[0].values
        dense = grid_solve(spec, op, n, M, head, tail)
        assert np.abs(got - dense).max() <= 1e-10 * np.abs(dense).max()
        assert np.abs(got[:, 4:M - 3] - want).max() <= 1e-9 * np.abs(want).max()
        assert max(report.xs_cond, *report.particle_conds) <= 1e2


def test_the_pivots_decide_on_a_repeated_phase():
    """Phases +-0.5i, each twice, at two times: with one kernel vector a phase (the second
    a unimodular multiple of the first, as an eigen-solver may return it) the columns are
    dependent, and the pivot test reads the rounding-level pivot left (measured 1.1e-16)
    as singular; with two independent vectors a phase the same phases solve."""
    v, w = np.array([1.0, 2.0]) / np.sqrt(5), np.array([2.0, -1.0]) / np.sqrt(5)
    phases, times = np.array([[0.5j, 0.5j, -0.5j, -0.5j]]), np.array([0.0, 1.0])
    data = np.random.default_rng(3).standard_normal((1, 2, 2)) + 0j
    u = np.exp(2j)
    _, (failure,) = celsolve._window_solve(phases, np.array([[v, u * v, w, u * w]]), times,
                                          np.zeros((1, 4)), data)
    assert isinstance(failure, celsolve.SingularBoundarySystem)
    assert str(failure).endswith("below 1e-14 x scale 1.000e+00")
    basis = np.array([[v, w, v, w]], dtype=complex)
    (amplitudes,), (failure,) = celsolve._window_solve(phases, basis, times,
                                                      np.zeros((1, 4)), data)
    assert failure is None
    values = np.exp(times[:, None] * phases) @ (amplitudes[:, None] * basis[0])
    assert np.abs(values - data[0]).max() <= 1e-14
