"""The mode-expansion core shared by the continuous and discrete solvers."""
import math

import numpy as np
import pytest

from choreoqep import celsolve, delsolve, numkernel, pencil
from choreoqep.model import LagrangianSpec
from choreoqep.scaleop import central_difference, k_family

from conftest import J2, make_gyroscopic_spec, record_eigenpair_blocks


def count_calls(monkeypatch, module, name):
    """Wrap module.name, as the benchmark's tracer does; returns the call counter."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# determinant interpolation, polynomial roots and SVD kernels: test references only
REFERENCE_PATHS = ("det_as_polynomial", "polynomial_roots", "kernel_vector")


def test_dirichlet_cel_computes_each_spectrum_and_basis_once(monkeypatch, ref_spec):
    spectra = count_calls(monkeypatch, pencil, "classical_spectrum")
    solves = count_calls(monkeypatch, pencil, "_eigenpairs")
    references = [count_calls(monkeypatch, numkernel, name) for name in REFERENCE_PATHS]
    rng = np.random.default_rng(1)
    celsolve.dirichlet_cel(ref_spec, 3, 0.0, 1.0, rng.standard_normal((3, 2)),
                           rng.standard_normal((3, 2)))
    assert spectra[0] == 2  # nu = n and nu = 0
    assert solves[0] == 2  # roots and kernel vectors together
    assert [calls[0] for calls in references] == [0, 0, 0]


def del_solve_calls(monkeypatch, spec, op):
    """dirichlet_del's batched spectrum calls, _eigenpairs block shapes and reference-path
    calls."""
    spectra = count_calls(monkeypatch, pencil, "_spectra")
    shapes = record_eigenpair_blocks(monkeypatch)
    references = [count_calls(monkeypatch, numkernel, name) for name in REFERENCE_PATHS]
    rng = np.random.default_rng(2)
    delsolve.dirichlet_del(spec, op, 3, 0.0, 100,
                           rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 2, 2)))
    return spectra[0], shapes, [calls[0] for calls in references]


def test_dirichlet_del_computes_each_spectrum_and_basis_once(monkeypatch, ref_spec):
    # antisymmetric weights: one classical (C, B, A) solve per spectrum, and none of
    # the shifted (4N+1, d, d) zeta-companion; a lone solve is a batch of one
    spectra, shapes, references = del_solve_calls(monkeypatch, ref_spec,
                                                  central_difference(0.01))
    assert spectra == 2
    assert shapes == [(1, 3, 2, 2), (1, 3, 2, 2)]
    assert references == [0, 0, 0]


def test_dirichlet_del_solves_the_zeta_companion_for_other_weights(monkeypatch):
    # J5 != 0 and weights that are not antisymmetric: the shifted (4N+1, d, d) blocks
    spectra, shapes, references = del_solve_calls(monkeypatch, make_gyroscopic_spec(),
                                                  k_family(0.01, 0.3))
    assert spectra == 2
    assert shapes == [(1, 5, 2, 2), (1, 5, 2, 2)]
    assert references == [0, 0, 0]


def test_dirichlet_del_reduces_other_weights_to_the_linear_pencil_when_j5_is_zero(
        monkeypatch, ref_spec):
    # J5 = 0: one (-C_nu, A_nu) solve per spectrum, and none of the zeta-companion
    spectra, shapes, references = del_solve_calls(monkeypatch, ref_spec,
                                                  k_family(0.01, 0.3))
    assert spectra == 2
    assert shapes == [(1, 2, 2, 2), (1, 2, 2, 2)]
    assert references == [0, 0, 0]


def test_mode_basis_comes_from_the_companion_eigenvectors(ref_spec):
    op = central_difference(0.05)
    for setting in (pencil.Setting(ref_spec), pencil.Setting(ref_spec, op)):
        modes = setting.modes(3)
        basis = modes.roots.vectors
        assert basis.shape == (setting.root_count, 2)
        for z, v in zip(modes.roots.roots, basis):
            # the same unit, phase-fixed direction as the SVD reference, up to rounding
            if setting.op is None:
                m = pencil.classical_eval(modes.pencil, z)
            else:
                m = pencil.transcendental_eval(modes.pencil, z)
            ref = numkernel.kernel_vector(m, rank_tol=1e-6)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            assert np.abs(v - ref).max() <= 1e-8


def test_both_checkers_report_a_singular_leading_block():
    spec = LagrangianSpec(2, 3, np.zeros((2, 2)), J2, np.zeros((2, 2)), np.eye(2))
    for rep in (pencil.check_cel_assumptions(spec, 3),
                pencil.check_del_assumptions(spec, central_difference(0.05), 3)):
        assert not rep.precondition_ok and not rep.all_hold
        assert "singular" in rep.note


def test_the_decision_fixes_root_count_and_constant_mode(ref_spec):
    op = central_difference(0.05)
    cel, dis = pencil.Setting(ref_spec), pencil.Setting(ref_spec, op)
    assert (cel.root_count, dis.root_count) == (4, 8)
    for setting in (cel, dis):
        # both pencils equal -C_nu at their constant mode
        _, c = pencil.coefficient_matrices(ref_spec, 3)
        assert np.allclose(pencil.constant_systems([setting], 3)[0][0], -c, atol=1e-12)
    assert len(dis.modes(0).lam) == len(dis.modes(0).roots) == 8
    assert np.allclose(np.exp(dis.modes(0).lam.roots * op.epsilon), dis.modes(0).roots.roots)


def test_two_time_window_solve_is_the_endpoint_solve():
    """_window_solve at [t0, tf] gives the bits of the endpoint formula: a mode that
    grows by more than e over [t0, tf] anchored at tf, every other at t0, each column
    divided by its largest modulus, and the amplitudes divided by it too."""
    rng = np.random.default_rng(3)
    roots = rng.standard_normal(4) * 0.3 + 1j * rng.standard_normal(4) * 4
    roots[0] += 2.0  # e^{3.x} over the interval
    basis = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    t0, tf = 0.25, 1.75
    anchors = np.where(roots.real * (tf - t0) > 1, tf, t0)
    assert set(anchors) == {t0, tf}
    rhs0, rhsf = rng.standard_normal(2), rng.standard_normal(2)
    mat = np.vstack([(np.exp((t0 - anchors) * roots)[:, None] * basis).T,
                     (np.exp((tf - anchors) * roots)[:, None] * basis).T])
    scale = np.abs(mat).max(axis=0)
    want = numkernel.solve_square(mat / scale, np.concatenate([rhs0, rhsf]))
    (got,), failures = celsolve._window_solve(roots[None], basis[None], np.array([t0, tf]),
                                              anchors[None], np.stack([rhs0, rhsf])[None])
    assert failures == [None]
    assert np.array_equal(got, want.x / scale)


def test_del_solution_samples_sum_mismatch_on_its_interval(ref_spec):
    M = 100
    op = central_difference(2 * math.pi / 100)
    rng = np.random.default_rng(4)
    sol = delsolve.general_solution_del(
        ref_spec, op, 3, rng.standard_normal(8), rng.standard_normal((2, 8)), 0.5, M)
    assert sol.interval == (0.5, 0.5 + M * op.epsilon)
    times = np.random.default_rng(20240913).uniform(*sol.interval, size=32)
    assert sol.sum_mismatch() == sol.sum_mismatch(times)
