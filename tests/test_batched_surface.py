"""The batched error surface against the per-cell solve it replaces.

`convergence.window_errors` solves all its operators as one batch, in memory-bounded
chunks; `dirichlet_del` is the batch of one.  Every cell's status must be the class
of what the lone solve raises, and every ok cell's window error must match it to
rounding.  Only one operator of each class of one discrete equation is solved (weights
and their reverse when J5 = 0, their negated reverse when J6 = 0, all four forms when
both are 0); the class rule is held to the lone solves of every member.
"""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import choreoqep
from choreoqep import cli, convergence, delsolve, numkernel, pencil, scaleop
from choreoqep.celsolve import SingularBoundarySystem
from choreoqep.scaleop import ScaleOperator

from conftest import make_oscillator_spec, make_reference_spec

BOUNDARY = {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
            "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]}
RTOL = 1e-9  # measured <= 2.5e-11 against the per-cell solve on 41 x 41 grids


def raw_config():
    spec = make_reference_spec()
    return {"d": spec.d, "n": spec.n,
            **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
            "time": {"t0": 0.0, "tf": 1.0, "M": 100}, "operator": {"family": "central"},
            "boundary": BOUNDARY, "sweep": {"gamma_grid": {"points": 9}}}


def reference_config():
    return cli.parse_config(raw_config())


def resonant_config():
    """The oscillator x'' = -16 x on M = 13 nodes of eps = 1/8, where eps omega = 1/2
    exactly: the central difference's zeta-roots are 12th roots of unity, so the boundary
    rows at nodes 12 and 13 repeat those at 0 and 1 (checked at 50 digits below)."""
    return cli.parse_config({
        "d": 1, "n": 1, "J1": [[1.0]], "J2": [[-16.0]], "J3": [[0.0]], "J4": [[0.0]],
        "time": {"t0": 0.0, "tf": 1.625, "M": 13}, "operator": {"family": "central"},
        "boundary": {"x_t0": [[1.0]], "x_tf": [[0.5]]}})


def config_with(**fields):
    """The reference config with fields replaced, e.g. a J5 or J6 (flat lists)."""
    return cli.parse_config({**raw_config(), **fields})


GYROSCOPIC = {"J5": [0.0, 0.7, -0.7, 0.0]}  # conftest.make_gyroscopic_spec's J5
LINEAR = {"J6": [0.2, -0.7]}


def window_reference(cfg):
    return convergence.window_reference(cli.cel_solution(cfg, 0), cfg.t0, cfg.M,
                                        cfg.epsilon, 1)


def window_errors(cfg, ops, reference):
    return convergence.window_errors(cfg.spec, cfg.n, cfg.t0, cfg.M, cfg.epsilon, ops,
                                     reference)


def gamma_ops(cfg, points=9):
    # the axes (gamma_{-1} gamma_1 = 0), the antisymmetric diagonal a = -b and cells
    # with singular boundary systems; weights (points^2, 3), as the surface takes them
    axis = np.linspace(-1.0, 1.0, points)
    return np.array([[a, -(a + b), b] for a in axis for b in axis], dtype=complex)


def k_ops(cfg):
    # k = 0 is real and antisymmetric (preimages), the rest complex (companion)
    return np.array([scaleop.k_family(cfg.epsilon, k).gamma
                     for k in (-1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0)])


def per_cell(cfg, gamma, reference):
    """(status, Euclidean window error, max window error) from the lone dirichlet_del and
    the particles' values."""
    head, tail, times, cel_values = reference
    try:
        sol, _ = delsolve.dirichlet_del(cfg.spec, ScaleOperator(gamma, cfg.epsilon), cfg.n,
                                        cfg.t0, cfg.M, head, tail)
    except (pencil.AssumptionViolation, numkernel.NumericalFailure, ValueError) as exc:
        return type(exc).__name__, math.nan, math.nan
    diff = cel_values - np.array([p.value(times) for p in sol.particles])
    return "ok", float(np.linalg.norm(diff.ravel())), float(np.abs(diff).max())


def lone_cells(cfg, ops, reference):
    """(errors, max errors, status) of the cells from their lone solves."""
    status, errors, max_errors = zip(*(per_cell(cfg, op, reference) for op in ops))
    return errors, max_errors, status


def assert_same_cells(got, want):
    (errors, max_errors, status, *_), (want_errors, want_max, want_status, *_) = got, want
    assert list(status) == list(want_status)
    ok = [s == "ok" for s in status]
    for values, want_values in ((errors, want_errors), (max_errors, want_max)):
        np.testing.assert_allclose(np.array(values)[ok], np.array(want_values)[ok], rtol=RTOL)
        assert all(math.isnan(e) for e, good in zip(values, ok) if not good)


@pytest.mark.parametrize("grid", ["gamma", "k", "resonant"])
def test_each_cell_is_what_its_lone_solve_gives(grid):
    cfg = resonant_config() if grid == "resonant" else reference_config()
    ops = k_ops(cfg) if grid == "k" else gamma_ops(cfg)
    reference = window_reference(cfg)
    got = window_errors(cfg, ops, reference)
    assert_same_cells(got, lone_cells(cfg, ops, reference))
    status = got[2]
    if grid == "gamma":
        assert {"ok", "AssumptionViolation"} <= set(status)
    if grid == "resonant":
        assert {"ok", "AssumptionViolation", "SingularBoundarySystem"} <= set(status)
        assert status[2 * 9 + 6] == "SingularBoundarySystem"  # (-0.5, 0.5): central


def test_the_resonant_cell_is_exactly_singular():
    """At 50 digits, from the double-precision data converted exactly, every zeta-root
    of the central difference's x_s equation A (boxbox zeta^m) + C zeta^m = 0 on the
    resonant config satisfies zeta^12 = 1: the boundary matrix at nodes {0, 1, 12, 13}
    repeats its rows, singular in exact arithmetic as well as in `_lu_solve`."""
    cfg = resonant_config()
    op = scaleop.central_difference(cfg.epsilon)
    a, c = pencil.coefficient_matrices(cfg.spec, cfg.n)
    boxbox = op.theta / op.epsilon**2  # the interior weights on nodes m-2..m+2
    with mp.workdps(50):
        coeffs = [mp.mpf(float(a[0, 0])) * mp.mpf(float(w.real)) for w in boxbox[::-1]]
        coeffs[2] += mp.mpf(float(c[0, 0]))
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        assert len(roots) == 4
        assert max(abs(z**12 - 1) for z in roots) < mp.mpf(10) ** -45


CELL_ELEMENTS = 8 * 8  # a cell's K x K boundary matrix, K = 4Nd at N = 1, d = 2


@pytest.mark.parametrize("block", [1, 7])
def test_block_size_does_not_change_a_cell(monkeypatch, block):
    """Chunks of 1 and 7 cells (every kernel's chunks shrink with them) give the
    cells of the one-chunk surface."""
    cfg = reference_config()
    ops = np.concatenate([gamma_ops(cfg), k_ops(cfg)])
    reference = window_reference(cfg)
    want = window_errors(cfg, ops, reference)
    monkeypatch.setattr(numkernel, "CHUNK_ELEMENTS", block * CELL_ELEMENTS)
    assert len(numkernel.chunks(len(ops), CELL_ELEMENTS)) == math.ceil(len(ops) / block)
    assert_same_cells(window_errors(cfg, ops, reference), want)


def test_an_empty_surface_has_no_cells():
    cfg = reference_config()
    assert window_errors(cfg, [], window_reference(cfg)) == ([], [], [], 0)


def test_the_window_errors_peak_does_not_grow_with_the_surface():
    """The boundary solves and the window evaluation go in chunks of bounded size, so
    4x the cells take about the same peak memory (tracemalloc).  Both surfaces solve
    more than one chunk of representatives: 1,549 of 3,721 cells and 6,121 of 14,641
    (on this `np.linspace` axis 41 x 41 solves only 819, less than one chunk of 1,024)."""
    cfg = reference_config()
    reference = window_reference(cfg)
    window_errors(cfg, gamma_ops(cfg, 3), reference)  # lazy set-up
    peaks = []
    for points in (61, 121):
        ops = gamma_ops(cfg, points)
        tracemalloc.start()
        try:
            window_errors(cfg, ops, reference)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


ONCE_OVERFLOWING_CELLS = """
import json, sys
import numpy as np
from choreoqep import cli, convergence
cfg = cli.parse_config(json.loads(sys.argv[1]))
ops = np.array([[a, -(a + b), b] for a, b in ((-0.5, 0.0125), (-0.5, -0.0125))], dtype=complex)
args = cfg.spec, cfg.n, cfg.t0, cfg.M, cfg.epsilon
reference = convergence.window_reference(cli.cel_solution(cfg, 0), *args[2:], 1)
print(*convergence.window_errors(*args, ops, reference)[2])
"""


def test_once_overflowing_cells_solve_and_print_nothing():
    """At M = 200 these two cells' unanchored boundary columns e^{lam t} overflowed:
    they were NumericalFailures, and before that LAPACK's SVD wrote DLASCL errors to
    the process's stdout, which a fresh interpreter shows.  Anchored, they solve, and
    the process still writes nothing but the reference solve's condition numbers and
    their statuses."""
    raw = raw_config()
    raw["time"]["M"] = 200
    env = {**os.environ, "PYTHONPATH": str(Path(choreoqep.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", ONCE_OVERFLOWING_CELLS, json.dumps(raw)],
                          env=env, check=True, capture_output=True, text=True)
    printed = done.stdout.split("\n")
    assert printed[0].startswith("cel boundary systems: ") and printed[1:] == ["ok ok", ""]


def test_csv_status_column_names_each_failure(tmp_path):
    cfg = reference_config()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw_config()))
    assert cli.main(["error-surface", "--config", str(config), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "error_surface_gamma.csv").read_text().strip().split("\n")
    assert lines[0] == "gamma_m1_re,gamma_1_re,metric,max_error,status"
    reference = window_reference(cfg)
    sentinel = -math.log(3.0 * cfg.M)
    for line, op in zip(lines[1:], gamma_ops(cfg)):
        metric, max_error, status = line.split(",")[2:]
        want_status, want_error, want_max = per_cell(cfg, op, reference)
        assert status == want_status
        if status == "ok":
            assert float(metric) == pytest.approx(-math.log(want_error), rel=RTOL)
            assert float(max_error) == pytest.approx(want_max, rel=RTOL)
        else:
            assert float(metric) == sentinel and math.isnan(float(max_error))


def test_an_ok_cell_above_the_cap_writes_its_own_error(tmp_path):
    """Cell (-0.75, -0.45) solves, with a window error of about 1,517 > 3M = 300 (M = 100):
    its metric is -log of that error, not the failure sentinel -log(3M)."""
    raw = {**raw_config(), "sweep": {"gamma_grid": {"min": -0.75, "max": -0.45, "points": 2}}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli.main(["error-surface", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path)]) == 0
    line = (tmp_path / "error_surface_gamma.csv").read_text().split("\n")[2].split(",")
    cfg = cli.parse_config(raw)
    status, error, _ = per_cell(cfg, np.array([-0.75, 1.2, -0.45], dtype=complex),
                                window_reference(cfg))
    assert [float(v) for v in line[:2]] == [-0.75, -0.45] and line[4] == status == "ok"
    assert error > 3.0 * cfg.M
    assert float(line[2]) == pytest.approx(-math.log(error), rel=RTOL)


def test_the_surface_solves_spectra_per_block_not_per_cell(monkeypatch, tmp_path):
    calls = []
    original = pencil._eigenpairs
    monkeypatch.setattr(pencil, "_eigenpairs",
                        lambda *args: calls.append(1) or original(*args))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw_config()))
    assert cli.main(["error-surface", "--config", str(config), "--out", str(tmp_path)]) == 0
    cells = len(gamma_ops(reference_config()))
    assert len(calls) < cells / 4  # a per-cell solve makes two (nu = n and 0) per cell
    # per chunk, nu = n and 0, each at most one classical and one companion solve;
    # plus the continuous solution's two spectra
    assert len(calls) <= 2 + 4 * len(numkernel.chunks(cells, CELL_ELEMENTS))


def degenerate_rows_matrix(monkeypatch):
    """The boundary matrix of test_delsolve's test_degenerate_rows_singular."""
    eps, a, M = 0.1, 2.0 * math.pi / 10.0, 11
    spec = make_oscillator_spec(math.sin(a) / eps)
    data = np.cos(a * np.arange(M + 1))
    seen = []
    original = numkernel.solve_stack
    monkeypatch.setattr(numkernel, "solve_stack",
                        lambda a, b: seen.append(a) or original(a, b))
    with pytest.raises(SingularBoundarySystem):
        delsolve.dirichlet_del(spec, scaleop.central_difference(eps), 1, 0.0, M,
                               data[:2].reshape(1, 2, 1), data[-2:].reshape(1, 2, 1))
    monkeypatch.undo()
    return seen[-1][0]


def test_stacked_solve_matches_one_solve_per_matrix(monkeypatch):
    degenerate = degenerate_rows_matrix(monkeypatch)
    K = len(degenerate)
    rng = np.random.default_rng(8)
    regular = rng.standard_normal((2, K, K)) + 1j * rng.standard_normal((2, K, K))
    stack = np.stack([regular[0], degenerate, np.zeros((K, K)), regular[1]]).astype(complex)
    rhs = rng.standard_normal((4, K)) + 0j
    x, failures = numkernel.solve_stack(stack, rhs)
    for i in range(4):
        try:
            want = numkernel.solve_square(stack[i], rhs[i])
        except numkernel.Singular as exc:
            assert type(failures[i]) is numkernel.Singular and str(failures[i]) == str(exc)
            continue
        assert failures[i] is None
        assert np.array_equal(x[i], want)
    assert [f is None for f in failures] == [True, False, False, True]


def solved_operators(monkeypatch):
    """The operators that reach `delsolve.boundary_problem`, in order, as they are solved."""
    seen = []
    original = delsolve.boundary_problem
    monkeypatch.setattr(delsolve, "boundary_problem",
                        lambda spec, ops, *args: seen.extend(ops) or original(spec, ops, *args))
    return seen


def assert_each_cell_is_its_lone_solve(cfg, ops, got):
    assert_same_cells(got, lone_cells(cfg, ops, window_reference(cfg)))


@st.composite
def weights(draw):
    """Three weights: real or complex, some exactly 0 (written as 0.0 or -0.0)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = rng.standard_normal(3) + 1j * draw(st.sampled_from([0.0, 0.3])) * rng.standard_normal(3)
    for j in draw(st.sets(st.integers(0, 2), max_size=1)):
        gamma[j] = draw(st.sampled_from([0.0, -0.0]))
    return gamma


# the class of each of (gamma, reversed, negated, negated reversed, zeros' signs flipped)
# under the four (J5, J6) cases, for weights whose four forms are distinct
J5_IS_0 = [({}, [0, 0, 0, 0, 0]), (LINEAR, [0, 0, 1, 1, 0])]
J5_IS_NOT_0 = [(GYROSCOPIC, [0, 1, 1, 0, 0]), ({**GYROSCOPIC, **LINEAR}, [0, 1, 2, 3, 0])]


def assert_each_class_is_one_solve(gamma, cases):
    """gamma enters the equation through theta = g g~, sigma1 J5 and s_bar(0) J6, so
    reversal keeps it when J5 = 0 and reversal with negation when J6 = 0.  Only the first
    member of each class is solved, every member takes its row, and each matches its own
    lone solve."""
    flipped = np.where(gamma == 0, -gamma, gamma)  # 0.0 <-> -0.0 in each part
    ops = np.array([gamma, gamma[::-1], -gamma, -gamma[::-1], flipped])
    assume(len({op.tobytes() for op in ops[:4] + 0.0}) == 4)
    for fields, classes in cases:
        cfg = config_with(**fields)
        assert (cfg.spec.J5.any(), cfg.spec.J6.any()) == ("J5" in fields, "J6" in fields)
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = solved_operators(monkeypatch)
            got = window_errors(cfg, ops, window_reference(cfg))
        firsts = [classes.index(c) for c in range(max(classes) + 1)]
        assert [op.gamma.tobytes() for op in seen] == [ops[i].tobytes() for i in firsts]
        assert got[3] == len(firsts)
        for rows in got[:3]:
            assert [str(rows[i]) for i in range(5)] == [str(rows[i]) for i in
                                                       (firsts[c] for c in classes)]
        assert_each_cell_is_its_lone_solve(cfg, ops, got)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(weights())
def test_reversed_weights_share_one_solve_when_j5_is_0(gamma):
    """J5 = 0: gamma, its reverse and gamma with its zeros' signs flipped are one
    equation; -gamma joins them when J6 = 0 too, and is another class when J6 != 0."""
    assert_each_class_is_one_solve(gamma, J5_IS_0)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(weights())
def test_reversed_weights_are_solved_apart_when_j5_is_not_0(gamma):
    """J5 != 0: gamma and its reverse are two equations; -gamma reversed joins gamma when
    J6 = 0, and all four forms are apart when J6 != 0."""
    assert_each_class_is_one_solve(gamma, J5_IS_NOT_0)


@pytest.mark.parametrize("grid, points, line", [
    ("gamma", 9, "solved 25 distinct equations for 81 cells"),
    ("gamma", 41, "solved 441 distinct equations for 1681 cells"),
    ("k", 9, "solved 3 distinct equations for 5 cells")], ids=["gamma-9x9", "gamma-41x41", "k"])
def test_the_surface_says_how_many_equations_it_solved(capsys, tmp_path, grid, points, line):
    """With J5 = 0 and J6 = 0 the cells (a, b), (b, a), (-a, -b) and (-b, -a) are one
    equation, and a mirror-symmetric axis holds all four: by Burnside's count a p x p grid
    (p odd) has (p^2 + p + 1 + p)/4 classes, 25 for 9 x 9 and 441 for 41 x 41 (with
    `np.linspace`'s axis, 41 x 41 solves 819).  k_family(-k) is k_family(k) reversed and
    negated, so the default k-grid's 5 cells are 3 equations."""
    raw = {**raw_config(), "sweep": {"gamma_grid": {"min": -1.0, "max": 1.0, "points": points}}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["error-surface", "--grid", grid, "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()  # the reference solve's line first
    assert printed[0].startswith("cel boundary systems: ") and printed[1] == line


def surface_axis(tmp_path, low, high, points):
    """The gamma axis of an error surface on [low, high], read back from its CSV."""
    raw = {**raw_config(), "sweep": {"gamma_grid": {"min": low, "max": high, "points": points}}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli.main(["error-surface", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "error_surface_gamma.csv").read_text().split("\n")[1:points + 1]
    firsts, axis = zip(*(map(float, line.split(",")[:2]) for line in lines))
    assert set(firsts) == {low}  # a-major: the first row of cells runs along b
    return np.array(axis)


@pytest.mark.parametrize("points", [7, 8])
def test_a_symmetric_range_has_a_mirror_symmetric_axis(tmp_path, points):
    """On [-0.3, 0.3] `np.linspace` is not mirror-symmetric; the surface's axis is,
    bit for bit, with the exact endpoints (and 0 in the middle for an odd count)."""
    spaced = np.linspace(-0.3, 0.3, points)
    assert not np.array_equal(spaced, -spaced[::-1])
    axis = surface_axis(tmp_path, -0.3, 0.3, points)
    assert axis.tobytes() == (-axis[::-1] + 0.0).tobytes()
    assert (axis[0], axis[-1]) == (-0.3, 0.3)
    np.testing.assert_allclose(axis, spaced, rtol=0, atol=1e-16)


def test_an_asymmetric_range_keeps_linspace(tmp_path):
    axis = surface_axis(tmp_path, -0.3, 0.7, 7)
    assert axis.tobytes() == np.linspace(-0.3, 0.7, 7).tobytes()
