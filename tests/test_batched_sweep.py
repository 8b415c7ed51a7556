"""The batched epsilon sweep against the per-epsilon loop it replaces.

`epsilon_sweep` solves every delay of a sweep in one `pencil.spectra` call per N, which
reads the classical spectrum the spec keeps; `transcendental_spectrum` is the batch of one.
Each entry's distance, pencil error and note must be bit for bit what one spectrum
per delay gives.  The constant-mode systems of a batch with mixed delays (`Core.xs0` solves
them) must be, item by item, those of its batches of one.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from choreoqep import convergence, numkernel, pencil, scaleop
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import make_gyroscopic_spec, make_reference_spec
from reference import hausdorff_distance

EPSILONS = np.logspace(math.log10(1e-4), math.log10(0.2), 12)


def five_point(eps):
    return ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0, eps)


def complex_weights(eps):
    # antisymmetric complex weights, sum zero and normalised
    return ScaleOperator(
        np.array([1 / 12 + 0.05j, -2 / 3 - 0.1j, 0, 2 / 3 + 0.1j, -1 / 12 - 0.05j]), eps)


def patchwork(eps):
    """Both N, failing operator conditions and a degenerate zeta-polynomial in one family."""
    if eps < 1e-3:
        return five_point(eps)
    if eps < 1e-2:
        return ScaleOperator([-1, 0, 1], eps)  # sum k gamma_k = 2: conditions fail
    if eps < 5e-2:
        return ScaleOperator([0, -1, 1], eps)  # forward difference: gamma_-1 gamma_1 = 0
    return central_difference(eps)


FAMILIES = {"central": central_difference, "five_point": five_point,
            "k_family": lambda eps: k_family(eps, 0.3), "complex": complex_weights,
            "patchwork": patchwork}


def per_epsilon_loop(spec, op_family, nu, epsilons, K_radius=None):
    """The sweep as one lone spectrum per delay."""
    pair = np.stack([pencil.coefficient_matrices(spec, nu)[0], spec.J5]).reshape(2, -1)
    gram = pair.conj() @ pair.T
    q_cls = pencil.classical_spectrum(spec, nu)
    if K_radius is None:
        K_radius = 2.0 * float(np.abs(q_cls.roots).max()) + 1.0
    axis = np.linspace(-K_radius, K_radius, 21)
    lam_grid = (axis[:, None] + 1j * axis[None, :]).ravel()
    distances, errors, notes = [], [], []
    for eps in epsilons:
        op = op_family(float(eps))
        distances.append(math.nan)
        errors.append(math.nan)
        notes.append(None)
        conds = scaleop.check_operator_conditions(op)
        if not (conds.sum_zero and conds.derivative_normalized):
            notes[-1] = "operator conditions fail"
            continue
        try:
            sp = pencil.transcendental_spectrum(spec, op, nu)
        except (pencil.LeadingSingular, pencil.numkernel.NumericalFailure) as exc:
            notes[-1] = f"spectrum failure: {exc}"
            continue
        if not sp.roots.is_simple():
            notes[-1] = "spectrum failure: zeta-roots cluster below the separation tolerance"
            continue
        kept = sp.lam.roots[np.abs(sp.lam.roots) <= K_radius]
        if len(kept) == 0:
            notes[-1] = "no roots inside the compact window"
            continue
        distances[-1] = hausdorff_distance(kept, q_cls)
        errors[-1] = convergence._pencil_errors([op], lam_grid, gram)[0]
    return np.array(distances), np.array(errors), tuple(notes)


def assert_sweep_is_the_loop(spec, op_family, nu, epsilons, K_radius=None):
    result = convergence.epsilon_sweep(spec, op_family, nu, epsilons, K_radius)
    distances, errors, notes = per_epsilon_loop(spec, op_family, nu, epsilons, K_radius)
    assert result.notes == notes
    assert np.array_equal(result.distances, distances, equal_nan=True)
    assert np.array_equal(result.pencil_errors, errors, equal_nan=True)
    return result


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("spec", [make_reference_spec(), make_gyroscopic_spec()],
                         ids=["reference", "gyroscopic"])
@pytest.mark.parametrize("nu", [0.0, 3.0])
def test_sweep_is_the_per_epsilon_loop_bit_for_bit(spec, family, nu):
    result = assert_sweep_is_the_loop(spec, FAMILIES[family], nu, EPSILONS)
    if family == "patchwork":
        assert {note and note.split(":")[0] for note in result.notes} == {
            None, "operator conditions fail", "spectrum failure"}


def test_an_empty_window_is_noted_as_in_the_loop():
    # below eps = 0.2, where eps * 5 reaches the resolution limit and the roots cluster
    result = assert_sweep_is_the_loop(make_reference_spec(), central_difference, 0.0,
                                      EPSILONS[:-1], K_radius=0.5)
    assert result.notes == ("no roots inside the compact window",) * (len(EPSILONS) - 1)


def test_a_sweep_solves_one_batch_and_the_classical_pencil_once(monkeypatch):
    """One classical eigen-solve and one SVD of A_nu (the batch is given the classical
    spectrum, which has checked A_nu), and no assembled shifted blocks.  The specs are built
    before the count starts: `model.construct_j4` applies the same rank rule."""
    calls, specs = {}, [make_reference_spec(), make_reference_spec()]

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eig")
    counted(pencil, "spectra")
    counted(numkernel, "is_singular")
    counted(pencil, "_shifted_blocks")
    for spec, family in zip(specs, (central_difference, five_point)):
        calls.update(eig=0, spectra=0, is_singular=0, _shifted_blocks=0)
        result = convergence.epsilon_sweep(spec, family, 0.0, EPSILONS)
        assert np.isfinite(result.distances)[:-1].all()
        assert calls == {"eig": 1, "spectra": 1, "is_singular": 1, "_shifted_blocks": 0}


@st.composite
def mixed_batches(draw):
    """Weights uniform in (-1, 1) and 2 to 4 delays log-uniform in [1e-3, 2]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(-1.0, 1.0, 3), 10.0 ** rng.uniform(-3.0, math.log10(2.0),
                                                          draw(st.integers(2, 4)))


@settings(derandomize=True, max_examples=60, deadline=None)
@example(batch=((-0.028329282336421846, 0.7789756686980005, 0.8680870319124994),
                (0.05, 1.3399983658146783)))  # nu = n is singular at item 1's constant mode
@given(mixed_batches())
def test_each_item_of_a_mixed_delay_batch_is_its_batch_of_one(batch):
    """The constant-mode systems of a batch whose items have their own eps, item by item
    against the batch of one."""
    weights, epsilons = batch
    spec, ops = make_reference_spec(), [ScaleOperator(weights, eps) for eps in epsilons]
    systems = [pencil.constant_systems(spec, ops, nu) for nu in (3, 0)]
    for i, op in enumerate(ops):
        for batched, nu in zip(systems, (3, 0)):
            for got, want in zip(batched, pencil.constant_systems(spec, [op], nu)):
                assert np.array_equal(got[i], want[0])
