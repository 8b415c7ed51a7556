"""End-to-end tests through cli.main(argv) on temporary JSON configs."""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choreoqep import celsolve, cli, convergence, delsolve, pencil, periodic
from choreoqep.model import LagrangianSpec
from choreoqep.scaleop import ScaleOperator, central_difference

from conftest import (J1, J2, J3, make_discrete_tuned_spec_d3, make_gyroscopic_spec,
                      make_reference_spec, record_eigenpair_blocks)

BOUNDARY = {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
            "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]}


def write_config(tmp_path, spec, name="config.json", **blocks):
    """A config for spec and the given blocks; a block given as None is left out."""
    raw = {"d": spec.d, "n": spec.n,
           **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
           "time": {"t0": 0.0, "tf": 1.0, "M": 100},
           "operator": {"family": "central"}}
    raw.update(blocks)
    raw = {k: v for k, v in raw.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def run(tmp_path, command, config, *more):
    out = tmp_path / "out"
    return cli.main([command, *more, "--config", config, "--out", str(out)]), out


@pytest.fixture
def ref_config(tmp_path):
    return write_config(tmp_path, make_reference_spec(), boundary=BOUNDARY, sweep={
        "gamma_grid": {"min": -1.0, "max": 1.0, "points": 3},
        "k_grid": {"ks": [0.0, 0.3], "Ms": [100]},
        "epsilons": np.logspace(-3, -1, 4).tolist()})


class TestSuccess:
    @pytest.mark.parametrize("which", ["cel", "del"])
    @pytest.mark.parametrize("command", ["validate", "spectrum", "solve"])
    def test_exit_0(self, tmp_path, ref_config, command, which):
        code, _ = run(tmp_path, command, ref_config, "--which", which)
        assert code == cli.EXIT_OK

    def test_spectrum_files(self, tmp_path, ref_config):
        for which in ("cel", "del"):
            _, out = run(tmp_path, "spectrum", ref_config, "--which", which)
            for tag in ("nu0", "nun"):
                lines = (out / f"spectrum_{which}_{tag}.csv").read_text().split("\n")
                assert len(lines) == 1 + (4 if which == "cel" else 8) + 1

    def test_uncoupled_system_writes_its_trajectory(self, tmp_path):
        """Every phase repeats in each particle's expansion; the solve writes the
        trajectory, which takes the boundary positions at both ends."""
        spec = LagrangianSpec(2, 3, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
        code, out = run(tmp_path, "solve", write_config(tmp_path, spec, boundary=BOUNDARY))
        assert code == cli.EXIT_OK
        times, values = cli.read_trajectory_csv(out / "traj_cel.csv")
        assert times[0] == 0.0 and times[-1] == 1.0 and values.shape == (3, 101, 2)
        ends = np.stack([BOUNDARY["x_t0"], BOUNDARY["x_tf"]], axis=1)
        assert np.abs(values[:, [0, -1]] - ends).max() <= 1e-13

    def test_error_surface_gamma(self, tmp_path, ref_config):
        code, out = run(tmp_path, "error-surface", ref_config, "--grid", "gamma")
        assert code == cli.EXIT_OK
        rows = (out / "error_surface_gamma.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 9

    @pytest.mark.parametrize("grid", ["gamma", "k"])
    def test_error_surface_samples_the_continuous_solution_once(
            self, tmp_path, ref_config, monkeypatch, grid):
        # the boundary data and window values depend on (cfg, N) only, not on the
        # cell: once for the 3x3 gamma grid, once for the one M of the k grid
        calls = []
        original = convergence.window_reference
        monkeypatch.setattr(convergence, "window_reference",
                            lambda *args: calls.append(args) or original(*args))
        code, _ = run(tmp_path, "error-surface", ref_config, "--grid", grid)
        assert code == cli.EXIT_OK and len(calls) == 1

    @pytest.mark.parametrize("command, which", [("validate", "del"), ("spectrum", "del"),
                                                ("spectrum", "cel")])
    def test_a_command_solves_the_classical_pencil_once_a_nu(self, tmp_path, monkeypatch,
                                                            command, which):
        """One (C, B, A) companion for nu = 0 and one for nu = n, whatever reads the
        classical spectrum: the assumption reports, the antisymmetric route's targets and
        the compact window."""
        config = write_config(tmp_path, make_reference_spec())
        shapes = record_eigenpair_blocks(monkeypatch)
        code, _ = run(tmp_path, command, config, "--which", which)
        assert code == cli.EXIT_OK
        assert shapes.count((1, 3, 2, 2)) == 2

    def test_validate_solves_the_nu_0_grid_pencil_once(self, tmp_path, monkeypatch):
        """Discrete targets on the block companion (J5 != 0, weights that are not
        antisymmetric): the assumption report and the target deviation read one nu = 0
        grid spectrum, kept with the spec, beside the nu = n one."""
        spec = make_gyroscopic_spec()
        config = write_config(tmp_path, spec, J4=None, J5=spec.J5.tolist(),
                              operator={"N": 1, "gamma": [-0.7, 0.4, 0.3]},
                              targets={"omega": [2.0, 5.0], "j4_free": 20.0, "discrete": True})
        shapes = record_eigenpair_blocks(monkeypatch)
        code, _ = run(tmp_path, "validate", config)
        assert code == cli.EXIT_OK
        assert shapes.count((1, 5, 2, 2)) == 2

    def test_error_surface_k(self, tmp_path, ref_config):
        code, out = run(tmp_path, "error-surface", ref_config, "--grid", "k")
        assert code == cli.EXIT_OK
        rows = (out / "error_surface_k.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        assert all(0 < float(r.split(",")[2]) < 300 for r in rows)

    @pytest.mark.parametrize("grid, blocks, cells", [
        ("k", {"sweep": {"k_grid": {"ks": [0.0], "Ms": [2, 3, 100]}}},
         [("0", "2", "WindowExceeded"), ("0", "3", "WindowExceeded"), ("0", "100", "ok")]),
        ("gamma", {"time": {"t0": 0.0, "tf": 0.03, "M": 3},
                   "sweep": {"gamma_grid": {"points": 2}}},
         [(a, b, "WindowExceeded") for a in ("-1", "1") for b in ("-1", "1")])],
        ids=["k", "gamma"])
    def test_error_surface_cells_with_no_window_read_window_exceeded(self, tmp_path, grid,
                                                                     blocks, cells):
        # M < 4N leaves no window node: such a cell fails as the lone dirichlet_del does
        config = write_config(tmp_path, make_reference_spec(), boundary=BOUNDARY, **blocks)
        code, out = run(tmp_path, "error-surface", config, "--grid", grid)
        assert code == cli.EXIT_OK
        rows = (out / f"error_surface_{grid}.csv").read_text().strip().split("\n")[1:]
        assert [(*r.split(",")[:2], r.split(",")[-1]) for r in rows] == cells

    def test_error_surface_k_fits_each_order_over_M(self, tmp_path, capsys):
        """The central difference (k = 0) on [0, 2]: the max window error falls at order 2
        over M = 400 .. 6,400 (measured 2.02; the same fit on random ends reads 2.03 in
        test_convergence.py).  Each k prints its own line."""
        config = write_config(tmp_path, make_reference_spec(), boundary=BOUNDARY,
                              time={"t0": 0.0, "tf": 2.0, "M": 100},
                              sweep={"k_grid": {"ks": [0.0, 0.5],
                                                "Ms": [400, 800, 1600, 3200, 6400]}})
        code, _ = run(tmp_path, "error-surface", config, "--grid", "k")
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("estimated order")]
        assert code == cli.EXIT_OK and len(lines) == 2
        assert abs(float(lines[0].removeprefix("estimated order (k = 0): ")) - 2.0) <= 0.1
        assert lines[1].startswith("estimated order (k = 0.5): ")

    @pytest.mark.parametrize("operator, low, high", [
        ({"family": "central"}, 1.0, 10.0),
        ({"N": 2, "gamma_re": [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]}, 1e3, math.inf)],
        ids=["central", "five_point"])
    def test_a_dirichlet_solve_prints_its_condition_numbers(self, tmp_path, capsys, operator,
                                                           low, high):
        """Reference spec on [0, 2], eps = 2/M, M = 200: the central difference's x_s
        system stays about 4, the 5-point operator's reads 1.4e4."""
        config = write_config(tmp_path, make_reference_spec(), boundary=BOUNDARY,
                              operator=operator, time={"t0": 0.0, "tf": 2.0, "M": 200})
        code, _ = run(tmp_path, "solve", config, "--which", "del")
        printed = capsys.readouterr().out.splitlines()
        assert code == cli.EXIT_OK and [line[:24] for line in printed[:2]] == [
            "cel boundary systems: xs", "del boundary systems: xs"]
        conds = printed[1].removeprefix("del boundary systems: xs_cond = ")
        xs_cond, particles = conds.split(", particle_conds = ")
        assert low < float(xs_cond) < high
        assert len(json.loads(particles)) == 2

    def test_converge(self, tmp_path, ref_config, capsys):
        code, out = run(tmp_path, "converge", ref_config)
        assert code == cli.EXIT_OK
        order = float(capsys.readouterr().out.split("estimated order: ")[1].split()[0])
        assert abs(order - 2.0) < 0.1
        assert (out / "converge.csv").exists()

    def test_choreo_cel(self, tmp_path):
        config = write_config(tmp_path, make_reference_spec(), choreo={"which": ["cel"]})
        code, out = run(tmp_path, "choreo", config)
        assert code == cli.EXIT_OK
        assert (out / "choreo_cel.csv").exists() and (out / "choreo_cel.svg").exists()

    def test_choreo_reads_each_form_of_its_amplitudes(self, tmp_path, capsys):
        # unit amplitudes on the +-5i modes alone: T = 2 pi/5, in either form; the plain
        # form used to be ignored for all ones, T = 2 pi
        written = []
        for form in ({"amplitudes": [1, 0, 0, 1]}, {"amplitudes_re": [1, 0, 0, 1]}):
            config = write_config(tmp_path, make_reference_spec(),
                                  choreo={"which": ["cel"], **form})
            code, out = run(tmp_path, "choreo", config)
            assert code == cli.EXIT_OK
            assert capsys.readouterr().out.startswith("cel: period T = 1.25663706144,")
            written.append((out / "choreo_cel.csv").read_bytes())
        assert written[0] == written[1]

    def test_choreo_cel_of_gyroscopic_targets(self, tmp_path, capsys):
        # J4 from targets 2 and 5 with J5 != 0: the phases are commensurable, T = 2 pi
        spec = make_gyroscopic_spec()
        config = write_config(tmp_path, spec, J4=None, J5=spec.J5.tolist(),
                              targets={"omega": [2.0, 5.0], "j4_free": 20.0},
                              choreo={"which": ["cel"]})
        code, _ = run(tmp_path, "choreo", config)
        assert code == cli.EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        assert line == "cel: period T = 6.28318530718, delay T/n = 2.09439510239, checks ok = True"

    def test_choreo_prints_the_errors_it_checks_after_each_setting(self, tmp_path, capsys):
        """Each setting's line is followed by the four errors `verify_choreography`
        measures, so that `checks ok = False` can be read off by property and size."""
        eps = math.pi / 15.0
        spec = make_discrete_tuned_spec_d3(central_difference(eps), n=5)
        config = write_config(tmp_path, spec, time={"t0": 0.0, "tf": 30 * eps, "M": 30},
                              choreo={"which": "del"})
        code, _ = run(tmp_path, "choreo", config)
        lines = capsys.readouterr().out.splitlines()
        assert code == cli.EXIT_OK and lines[0].startswith("del: period T = ")
        ch, sol = periodic.build_choreography_del(spec, central_difference(eps), 5,
                                                  np.ones(12), 0.0, 30)
        rep = periodic.verify_choreography(ch, sol, spec)
        assert lines[1] == (
            f"del: errors periodicity {rep.periodicity_error:.3e}, delay "
            f"{rep.delay_error:.3e}, x_s constancy {rep.xs_constancy_error:.3e}, "
            f"residual {rep.residual_error:.3e}")

    def test_choreo_del(self, tmp_path, capsys):
        eps = math.pi / 15.0
        spec = make_discrete_tuned_spec_d3(central_difference(eps), n=5)
        config = write_config(tmp_path, spec, time={"t0": 0.0, "tf": 30 * eps, "M": 30},
                              choreo={"which": "del"})
        code, out = run(tmp_path, "choreo", config)
        assert code == cli.EXIT_OK
        assert "checks ok = True" in capsys.readouterr().out
        assert (out / "choreo_del.csv").exists()

    def test_trajectory_csv_round_trip(self, tmp_path, ref_config):
        _, out = run(tmp_path, "solve", ref_config, "--which", "del")
        path = out / "traj_del.csv"
        times, values = cli.read_trajectory_csv(path)
        assert values.shape == (3, 101, 2)
        assert np.allclose(times, np.linspace(0.0, 1.0, 101), rtol=0, atol=1e-15)
        again = tmp_path / "again.csv"
        cli.write_trajectory_csv(again, times, values)
        assert again.read_bytes() == path.read_bytes()

    def test_svg_bytes_repeat(self, tmp_path, ref_config):
        first = cli.main(["solve", "--config", ref_config, "--out", str(tmp_path / "a")])
        second = cli.main(["solve", "--config", ref_config, "--out", str(tmp_path / "b")])
        assert first == second == cli.EXIT_OK
        svg = (tmp_path / "a" / "traj_cel.svg").read_bytes()
        assert svg.startswith(b"<?xml")
        assert svg == (tmp_path / "b" / "traj_cel.svg").read_bytes()

    def test_singular_leading_block_is_reported(self, tmp_path, capsys):
        # J1 = J3 = 0: no continuous pencil has a leading block
        spec = LagrangianSpec(2, 3, np.zeros((2, 2)), J2, np.zeros((2, 2)), np.eye(2))
        code, _ = run(tmp_path, "validate", write_config(tmp_path, spec))
        assert code == cli.EXIT_OK
        assert "continuous assumptions hold: False" in capsys.readouterr().out


TIMES = 0.0 + 0.01 * np.arange(101)  # the default grid: t in [0, 1], M = 100


def solved_values(tmp_path, config, which, *more):
    """The trajectory that `solve --which which` writes for config, read back."""
    code, out = run(tmp_path, "solve", config, "--which", which, *more)
    assert code == cli.EXIT_OK
    times, values = cli.read_trajectory_csv(out / f"traj_{which}.csv")
    assert np.array_equal(times, TIMES)
    return values


def library_values(spec, which, xs, ps):
    """The trajectory of the amplitudes (xs, ps) on the default grid, straight from the
    library."""
    if which == "cel":
        sol = celsolve.general_solution_cel(spec, spec.n, xs, ps)
        return np.array([p.value(TIMES) for p in sol.particles])
    return delsolve.general_solution_del(spec, central_difference(0.01), spec.n, xs, ps,
                                         0.0, 100).sample()[0].values


class TestInputForms:
    """`solve` from an amplitudes block and from a discrete head/tail boundary writes what
    the library computes for the same inputs, bit for bit."""

    @pytest.mark.parametrize("which, size", [("cel", 4), ("del", 8)])
    def test_explicit_amplitudes(self, tmp_path, which, size):
        rng = np.random.default_rng(41)
        xs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        ps = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
        spec = make_reference_spec()
        config = write_config(tmp_path, spec, amplitudes={
            "xs_re": xs.real.tolist(), "xs_im": xs.imag.tolist(),
            "particles_re": ps.real.tolist(), "particles_im": ps.imag.tolist()})
        assert np.array_equal(solved_values(tmp_path, config, which),
                              library_values(spec, which, xs, ps))

    @pytest.mark.parametrize("which, size", [("cel", 4), ("del", 8)])
    def test_random_amplitudes_follow_the_seed(self, tmp_path, which, size):
        spec = make_reference_spec()
        config = write_config(tmp_path, spec, amplitudes={"random": True, "scale": 0.5})
        got = {seed: solved_values(tmp_path, config, which, "--seed", str(seed))
               for seed in (7, 8)}
        rng = np.random.default_rng(7)
        xs = 0.5 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        ps = 0.5 * (rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size)))
        assert np.array_equal(got[7], library_values(spec, which, xs, ps))
        assert np.array_equal(solved_values(tmp_path, config, which, "--seed", "7"), got[7])
        assert not np.array_equal(got[7], got[8])

    def test_discrete_head_and_tail(self, tmp_path):
        rng = np.random.default_rng(42)
        head, tail = rng.standard_normal((2, 3, 2, 2))
        spec = make_reference_spec()
        config = write_config(tmp_path, spec, boundary={"head": head.tolist(),
                                                        "tail": tail.tolist()})
        sol, _ = delsolve.dirichlet_del(spec, central_difference(0.01), 3, 0.0, 100,
                                        head, tail)
        values = solved_values(tmp_path, config, "del")
        assert np.array_equal(values, sol.sample()[0].values)
        assert np.abs(values[:, [0, 1, -2, -1]] - np.concatenate([head, tail], axis=1)
                      ).max() <= 1e-12

    def test_a_continuous_solve_names_the_fields_a_boundary_block_lacks(self, tmp_path,
                                                                         capsys):
        config = write_config(tmp_path, make_reference_spec(),
                              boundary={"head": np.zeros((3, 2, 2)).tolist(),
                                        "tail": np.zeros((3, 2, 2)).tolist()})
        code, _ = run(tmp_path, "solve", config, "--which", "cel")
        assert code == cli.EXIT_CONFIG
        assert "boundary.x_t0 and boundary.x_tf" in capsys.readouterr().err


CONDITIONS = "operator conditions: sum_zero=True derivative_normalized=True"
LEADING = "leading coefficient is singular; root count drops below 2d"
FIVE_POINT = {"N": 2, "gamma_re": [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]}


def validate(tmp_path, capsys, spec, **blocks):
    """validate's exit code, printed lines and error text on a config for spec."""
    code, _ = run(tmp_path, "validate", write_config(tmp_path, spec, **blocks))
    printed = capsys.readouterr()
    return code, printed.out.splitlines(), printed.err


class TestValidate:
    """validate's printed lines and exit codes, pinned."""

    @pytest.mark.parametrize("M", [100, 20])
    def test_reference_targets(self, tmp_path, capsys, M):
        # rho = max |lam|^2 = 25 over the nu = 0 roots, so the bound is 10 * 1 * 25 / 0.25
        code, lines, _ = validate(tmp_path, capsys, make_reference_spec(),
                                  time={"t0": 0.0, "tf": 1.0, "M": M},
                                  targets={"omega": [2.0, 5.0]})
        warning = ["warning: grid too coarse, M^2 = 400 < 1000 (raise M for a meaningful "
                   "discrete approximation)"] if M == 20 else []
        assert code == cli.EXIT_OK
        assert lines == [CONDITIONS, "continuous assumptions hold: True",
                         "discrete assumptions hold: True", *warning,
                         "target spectrum deviation: 8.882e-16 (ok=True)"]

    def test_discrete_targets_of_the_tuned_d3_system(self, tmp_path, capsys):
        eps = math.pi / 15.0
        code, lines, _ = validate(tmp_path, capsys,
                                  make_discrete_tuned_spec_d3(central_difference(eps), n=5),
                                  time={"t0": 0.0, "tf": 30 * eps, "M": 30},
                                  targets={"omega": [1.0, 2.0, 3.0], "discrete": True})
        assert code == cli.EXIT_OK
        assert lines == [CONDITIONS, "continuous assumptions hold: True",
                         "discrete assumptions hold: True",
                         "warning: grid too coarse, M^2 = 900 < 12437.7 (raise M for a "
                         "meaningful discrete approximation)",
                         "target spectrum deviation: 8.882e-16 (ok=True)"]

    def test_a_singular_leading_block_with_targets_exits_assumption(self, tmp_path, capsys):
        spec = LagrangianSpec(2, 3, np.zeros((2, 2)), J2, np.zeros((2, 2)), np.eye(2))
        code, lines, err = validate(tmp_path, capsys, spec, targets={"omega": [2.0, 5.0]})
        assert code == cli.EXIT_ASSUMPTION and lines == []
        assert err == ("assumption violation: leading coefficient is singular; root count "
                       "drops below 2d\n")

    def test_a_gyroscopic_bound_reads_the_nu_0_roots(self, tmp_path, capsys):
        # J5 != 0: rho = max |lam|^2 = 5.0028792^2 over the nu = 0 roots, not the 25 of
        # (J1 - 2 J3)^-1 (J2 - 2 J4), which leaves J5 out; the bound is 10 * 10^2 * rho / 0.25
        spec = make_gyroscopic_spec()
        code, lines, _ = validate(tmp_path, capsys, spec, J5=spec.J5.tolist(),
                                  time={"t0": 0.0, "tf": 10.0, "M": 100})
        assert code == cli.EXIT_OK
        assert lines == [CONDITIONS, "continuous assumptions hold: True",
                         "discrete assumptions hold: True",
                         "warning: grid too coarse, M^2 = 10000 < 100115 (raise M for a "
                         "meaningful discrete approximation)"]

    def test_gyroscopic_targets(self, tmp_path, capsys):
        # J4 built from the targets with J5 counted: a J4 that leaves J5 out reads
        # 2.879e-03 (ok=False)
        spec = make_gyroscopic_spec()
        code, lines, _ = validate(tmp_path, capsys, spec, J4=None, J5=spec.J5.tolist(),
                                  targets={"omega": [2.0, 5.0], "j4_free": 20.0})
        assert code == cli.EXIT_OK
        assert lines[:-1] == [CONDITIONS, "continuous assumptions hold: True",
                              "discrete assumptions hold: True"]
        deviation = lines[-1].removeprefix("target spectrum deviation: ")
        assert float(deviation.split()[0]) <= 1e-12 and deviation.endswith("(ok=True)")

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("j", [0.0, 0.7], ids=["no_J5", "gyroscopic"])
    def test_discrete_targets_build_j4_from_the_grid_symbols(self, tmp_path, capsys, j, eps):
        """targets.discrete builds J4 from the central difference's symbols at the config's
        eps, J5 counted: the grid's nu = 0 roots land on +-2i and +-5i (measured within
        1.8e-15), and the choreography on those 4 modes verifies with T = 2 pi."""
        spec = make_reference_spec()
        blocks = {"J4": None, "J5": [[0.0, j], [-j, 0.0]],
                  "time": {"t0": 0.0, "tf": 64 * eps, "M": 64},
                  "targets": {"omega": [2.0, 5.0], "j4_free": 20.0, "discrete": True}}
        code, lines, _ = validate(tmp_path, capsys, spec, **blocks)
        deviation = lines[-1].removeprefix("target spectrum deviation: ")
        assert code == cli.EXIT_OK and deviation.endswith("(ok=True)")
        assert float(deviation.split()[0]) <= 1e-14
        cfg = cli.load_config(write_config(tmp_path, spec, **blocks))
        lam = pencil.transcendental_spectrum(cfg.spec, cfg.operator(), 0).lam.roots
        physical = np.isclose(np.abs(lam.imag), 2.0) | np.isclose(np.abs(lam.imag), 5.0)
        assert physical.sum() == 4 and len(lam) == 8
        ch, sol = periodic.build_choreography_del(cfg.spec, cfg.operator(), 3, physical,
                                                  cfg.t0, cfg.M)
        assert abs(ch.T - 2 * math.pi) <= 1e-13
        assert periodic.verify_choreography(ch, sol, cfg.spec).all_ok
        config = write_config(tmp_path, spec, **blocks,
                              choreo={"which": "del",
                                      "amplitudes_re": physical.astype(float).tolist()})
        code, _ = run(tmp_path, "choreo", config)
        assert code == cli.EXIT_OK and "checks ok = True" in capsys.readouterr().out

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("j", [0.0, 0.7], ids=["no_J5", "gyroscopic"])
    @pytest.mark.parametrize("operator", [{"family": "central"}, FIVE_POINT],
                             ids=["central", "five_point"])
    def test_grid_targets_stay_on_the_grid_roots_as_eps_shrinks(self, tmp_path, capsys,
                                                                 operator, j, eps):
        """Built from each target's |h| and Re h, not from sqrt(kappa) of K's eigenvalues
        (which missed by up to 2.9e-14 for the central difference and 8.1e-14 for the
        5-point operator at eps = 0.0125): measured within 4.4e-15."""
        code, lines, _ = validate(tmp_path, capsys, make_reference_spec(), J4=None,
                                  J5=[[0.0, j], [-j, 0.0]], operator=operator,
                                  time={"t0": 0.0, "tf": 64 * eps, "M": 64},
                                  targets={"omega": [2.0, 5.0], "j4_free": 20.0,
                                           "discrete": True})
        deviation = lines[-1].removeprefix("target spectrum deviation: ")
        assert code == cli.EXIT_OK and float(deviation.split()[0]) <= 1e-14

    def test_grid_targets_with_a_strong_j5_need_no_positive_definite_k(self, tmp_path, capsys):
        """J5 = 40 [[0, 1], [-1, 0]] makes K's eigenvalues negative (-48.2 and -2.06 on this
        grid, -47.9 and -2.09 in continuous time) and K's eigenvalues are not the targets, so
        the grid's J4 exists as the continuous one does (this exited 4 when the grid
        targets went through sqrt(kappa))."""
        code, lines, _ = validate(tmp_path, capsys, make_reference_spec(), J4=None,
                                  J5=[[0.0, 40.0], [-40.0, 0.0]],
                                  time={"t0": 0.0, "tf": 2 * math.pi, "M": 200},
                                  targets={"omega": [2.0, 5.0], "j4_free": -20.0,
                                           "discrete": True})
        deviation = lines[-1].removeprefix("target spectrum deviation: ")
        assert code == cli.EXIT_OK and deviation.endswith("(ok=True)")
        assert float(deviation.split()[0]) <= 1e-14

    def test_equal_grid_targets_with_generic_weights_and_j5_meet_their_double_root(
            self, tmp_path, capsys):
        """Both targets 2 on the grid of weights (-0.7, 0.4, 0.3) with J5 != 0: one target
        equation twice, and its omega-derivative as the second.  This read 3.957e-04
        (ok=False), one root pair left off +-2i; now 2.984e-08, a double root split by
        rounding (the central difference reads 3.8e-10)."""
        zero = np.zeros((2, 2))
        spec = LagrangianSpec(2, 3, np.diag([1.0, -1.0]), np.diag([3.0, -2.0]), zero, zero)
        code, lines, _ = validate(tmp_path, capsys, spec, J4=None,
                                  J5=[[0.0, 0.7], [-0.7, 0.0]],
                                  time={"t0": 0.0, "tf": 5.0, "M": 100},
                                  operator={"N": 1, "gamma": [-0.7, 0.4, 0.3]},
                                  targets={"omega": [2.0, 2.0], "j4_free": 0.0,
                                           "discrete": True})
        deviation = lines[-1].removeprefix("target spectrum deviation: ")
        assert code == cli.EXIT_OK and deviation.endswith("(ok=True)")
        assert float(deviation.split()[0]) <= 1e-6

    @pytest.mark.parametrize("discrete, deviation", [(False, "0.000e+00 (ok=True)"),
                                                     (True, "1.334e-04 (ok=False)")])
    def test_targets_read_the_nu_0_roots_when_the_nu_n_spectrum_fails(
            self, tmp_path, capsys, discrete, deviation):
        # J1 + 2(n - 1) J3 = 0 for n = 3, while nu = 0 has A = 1.5 I, C = -6 I: lam = +-2i,
        # each double; the central difference at eps = 0.01 moves them by 1.3e-4
        eye = np.eye(2)
        spec = LagrangianSpec(2, 3, eye, -5.0 * eye, -0.25 * eye, 0.5 * eye)
        code, lines, _ = validate(tmp_path, capsys, spec,
                                  targets={"omega": [2.0, 2.0], "discrete": discrete})
        assert code == cli.EXIT_OK
        assert lines == [CONDITIONS, "continuous assumptions hold: False",
                         f"continuous assumption fails: {LEADING}",
                         "discrete assumptions hold: False",
                         "discrete assumption fails: leading block J1 + 2(nu-1) J3 is singular",
                         f"target spectrum deviation: {deviation}"]

    def test_each_failing_assumption_is_named_in_order(self, tmp_path, capsys):
        # J2 - 2 J4 = 0: P_0(lam) = A_0 lam^2 has every root at 0, in both settings
        spec = LagrangianSpec(2, 3, J1, J2, J3, 0.5 * J2)
        code, lines, _ = validate(tmp_path, capsys, spec)
        assert code == cli.EXIT_OK
        assert lines == [CONDITIONS, *(line for kind in ("continuous", "discrete") for line in (
            f"{kind} assumptions hold: False",
            f"{kind} assumption fails: the nu = 0 phases are not simple",
            f"{kind} assumption fails: P_0 is singular at the constant mode"))]

    def test_an_uncoupled_system_names_the_shared_phases(self, tmp_path, capsys):
        spec = LagrangianSpec(2, 3, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
        code, lines, _ = validate(tmp_path, capsys, spec)
        assert code == cli.EXIT_OK
        assert lines == [CONDITIONS, *(line for kind in ("continuous", "discrete") for line in (
            f"{kind} assumptions hold: False",
            f"{kind} assumption fails: a nu = n phase is a nu = 0 phase"))]

    def test_a_failed_nu_0_classical_spectrum_warns_of_no_coarse_grid(self, tmp_path, capsys):
        """J1 = 2 J3 (d = 1): the nu = 0 pencil drops its degree, so rho and the grid bound
        are infinite, which no M meets: the reason lines say what failed, and no
        'grid too coarse' warning is printed against inf."""
        spec = LagrangianSpec(1, 3, [[1.0]], [[-1.0]], [[0.5]], [[0.0]])
        code, lines, _ = validate(tmp_path, capsys, spec)
        assert code == cli.EXIT_OK
        assert lines == [CONDITIONS, "continuous assumptions hold: False",
                         f"continuous assumption fails: {LEADING}",
                         "discrete assumptions hold: False",
                         "discrete assumption fails: leading block J1 + 2(nu-1) J3 is singular"]

    def test_a_zero_edge_weight_warns_of_no_coarse_grid(self, tmp_path, capsys):
        """The forward difference: gamma_-1 gamma_1 = 0 makes the grid bound infinite."""
        code, lines, _ = validate(tmp_path, capsys, make_reference_spec(),
                                  operator={"N": 1, "gamma_re": [0.0, -1.0, 1.0]})
        assert code == cli.EXIT_OK
        assert lines == [CONDITIONS, "continuous assumptions hold: True",
                         "discrete assumptions hold: False",
                         "discrete assumption fails: gamma_{-N} * gamma_N = 0: the "
                         "zeta-polynomial degenerates"]


def reference_csv(header, rows) -> bytes:
    """The table written cell by cell: '.17g' of float(v) for numbers, str(v) otherwise."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g")
                              if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in row))
    return ("\n".join(lines) + "\n").encode()


def trajectory_header(d):
    return ["t", "particle", *(f"c{c}_{part}" for c in range(d) for part in ("re", "im"))]


def reference_trajectory_rows(times, values):
    """Row by row: t, particle, then the real and imaginary part of each coordinate."""
    n, count, d = values.shape
    for m in range(count):
        for j in range(n):
            yield [times[m], j, *(part for c in range(d)
                                  for part in (values[j, m, c].real, values[j, m, c].imag))]


def complex_block(real, imag):
    """values with these exact parts: real + 1j * imag would lose signed zeros."""
    values = np.empty(np.shape(real), dtype=complex)
    values.real, values.imag = real, imag
    return values


EDGE = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e308, -1e308,
        0.1, 1 / 3, 123456789.0, 2.0**60]


class TestArtifactWriters:
    """Every table kind against the per-cell reference writer, nan and inf included."""

    def trajectory(self):
        rng = np.random.default_rng(4)
        real = rng.standard_normal((3, 5, 2)) * 10.0 ** rng.integers(-300, 300, (3, 5, 2))
        imag = rng.choice(EDGE, (3, 5, 2))
        return np.linspace(0.0, 0.4, 5), complex_block(real, imag)

    def test_trajectory_block(self, tmp_path):
        times, values = self.trajectory()
        cli.write_trajectory_csv(tmp_path / "t.csv", times, values)
        want = reference_csv(trajectory_header(2), reference_trajectory_rows(times, values))
        assert (tmp_path / "t.csv").read_bytes() == want

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("edge", [-1, 1])
    def test_trajectory_rows_are_the_per_cell_rendering(self, tmp_path, n, d, edge):
        """A node's rows share one formatted time and take their particle indices as
        text: the file is still format(v, ".17g") of every cell, the round trip the
        trajectory checks read, on node counts one below and one above a block edge."""
        count = cli.CSV_BLOCK // n + edge  # whole nodes of at most CSV_BLOCK rows a block
        rng = np.random.default_rng(100 * n + 10 * d + edge)
        cells = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
                 3.0, -7.0, 2.0**60, 1e16 + 2.0]  # signed zeros, subnormals, integral floats
        parts = np.where(rng.random((2, n, count, d)) < 0.5, rng.choice(cells, (2, n, count, d)),
                         rng.standard_normal((2, n, count, d)) * 10.0 ** rng.integers(-20, 20))
        times = np.where(rng.random(count) < 0.5, rng.choice(cells, count), 0.5 * np.arange(count))
        values = complex_block(*parts)
        cli.write_trajectory_csv(tmp_path / "t.csv", times, values)
        want = reference_csv(trajectory_header(d), reference_trajectory_rows(times, values))
        assert (tmp_path / "t.csv").read_bytes() == want

    @pytest.mark.parametrize("kind", ["gamma", "converge", "spectrum", "k"])
    def test_table_rows(self, tmp_path, kind):
        rng = np.random.default_rng(5)
        floats = [*EDGE, *rng.standard_normal(4)]
        header, rows = {
            "gamma": (["gamma_m1_re", "gamma_1_re", "metric", "status"],
                      [[np.float64(a), np.float64(b), m, s] for a, b, m, s in zip(
                          floats, floats[::-1], floats[3:] + floats[:3],
                          ["ok", "AssumptionViolation", "ok", "SingularBoundarySystem"] * 5)]),
            "converge": (["epsilon", "hausdorff", "pencil_error", "note"],
                         [[e, np.float64(h), p, note] for e, h, p, note in zip(
                             floats, floats[1:], floats[2:],
                             ["", "operator conditions fail", "spectrum failure: x, y"] * 6)]),
            "spectrum": (["re", "im", "residual", "convergent_flag"],
                         [[z, -z, abs(z), int(k % 2)] for k, z in enumerate(floats)]),
            "k": (["k", "M", "error", "status"],
                  [[k, 100 * (i + 1), err, "ok"] for i, (k, err) in enumerate(
                      zip(floats, floats[::-1]))]),
        }[kind]
        cli.write_csv(tmp_path / "table.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() == reference_csv(header, rows)

    @pytest.mark.parametrize("count", [cli.CSV_BLOCK - 1, cli.CSV_BLOCK, 2 * cli.CSV_BLOCK + 3])
    def test_tables_written_in_blocks_keep_their_bytes(self, tmp_path, count):
        rng = np.random.default_rng(6)
        rows = [[0.1 * m, int(m % 3), *rng.standard_normal(2)] for m in range(count)]
        cli.write_csv(tmp_path / "t.csv", ["t", "particle", "re", "im"], rows)
        want = reference_csv(["t", "particle", "re", "im"], rows)
        assert (tmp_path / "t.csv").read_bytes() == want
        listed = [[row[0], "ok"] for row in rows]
        cli.write_csv(tmp_path / "l.csv", ["t", "status"], listed)
        assert (tmp_path / "l.csv").read_bytes() == reference_csv(["t", "status"], listed)

    def test_header_only_table(self, tmp_path):
        cli.write_csv(tmp_path / "empty.csv", ["re", "im"], [])
        assert (tmp_path / "empty.csv").read_bytes() == b"re,im\n"

    def test_svg_points_match_the_per_point_format(self, tmp_path):
        times, values = self.trajectory()
        values = np.where(np.isfinite(values), values, 0.0)  # a viewBox needs finite data
        cli.write_svg(tmp_path / "t.svg", values, times)
        lines = (tmp_path / "t.svg").read_text().split("\n")
        for j, line in enumerate(lines[2:5]):
            pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in zip(values[j, :, 0].real,
                                                                -values[j, :, 1].real))
            assert line.endswith(f'points="{pts}"/>')

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6), st.data())
    def test_write_read_write_keeps_every_bit(self, n, d, count, data):
        cell = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                                          -1e-310, 1e308, -1e308, math.inf, -math.inf]),
                         st.floats(allow_nan=False))
        parts = np.array(data.draw(st.lists(cell, min_size=2 * n * count * d,
                                            max_size=2 * n * count * d)))
        times = np.array(data.draw(st.lists(cell, min_size=count, max_size=count)))
        values = complex_block(*parts.reshape(2, n, count, d))
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp) / "first.csv", Path(tmp) / "again.csv"
            cli.write_trajectory_csv(first, times, values)
            read_times, read_values = cli.read_trajectory_csv(first)
            cli.write_trajectory_csv(again, read_times, read_values)
            assert again.read_bytes() == first.read_bytes()
        assert np.array_equal(read_times.view(np.uint64), times.view(np.uint64))
        assert np.array_equal(read_values.view(np.uint64), values.view(np.uint64))

    def test_signed_zeros_survive_the_reader(self, tmp_path):
        values = complex_block([[[-0.0, 3.0]]], [[[1.0, -0.0]]])
        cli.write_trajectory_csv(tmp_path / "z.csv", np.array([0.0]), values)
        _, read = cli.read_trajectory_csv(tmp_path / "z.csv")
        assert np.signbit(read.real).tolist() == [[[True, False]]]
        assert np.signbit(read.imag).tolist() == [[[False, True]]]

    @pytest.mark.parametrize("body", ["0,0,1,x", "0,0,1\n0,1,1,2,3"])
    def test_a_malformed_body_is_a_value_error(self, tmp_path, body):
        # the second body has 8 cells for two rows of 4, split 3 + 5
        (tmp_path / "bad.csv").write_text(f"t,particle,c0_re,c0_im\n{body}\n")
        with pytest.raises(ValueError):
            cli.read_trajectory_csv(tmp_path / "bad.csv")

    @staticmethod
    def written_rows(tmp_path):
        """The body rows of a 3-particle, 4-node trajectory as the writer writes them."""
        values = complex_block(*np.arange(24.0).reshape(2, 3, 4, 1))
        cli.write_trajectory_csv(tmp_path / "good.csv", 0.5 * np.arange(4), values)
        header, *rows = (tmp_path / "good.csv").read_text().splitlines()
        return header, rows

    @pytest.mark.parametrize("case", ["missing_row", "repeated_particle", "mixed_t"])
    def test_a_malformed_node_is_a_value_error(self, tmp_path, case):
        """A missing row once raised IndexError, a particle row given twice left the
        missing particle at 0, and a node whose rows disagree on t read as the first t."""
        header, rows = self.written_rows(tmp_path)
        if case == "missing_row":
            del rows[4]  # node 1, particle 1
        elif case == "repeated_particle":
            rows[5] = rows[4]  # node 1: particles 0, 1, 1
        else:
            rows[5] = "0.75" + rows[5][rows[5].index(","):]  # node 1: t = 0.5, 0.5, 0.75
        (tmp_path / "bad.csv").write_text("\n".join([header, *rows]) + "\n")
        cli.read_trajectory_csv(tmp_path / "good.csv")  # the file it was cut from reads
        with pytest.raises(ValueError):
            cli.read_trajectory_csv(tmp_path / "bad.csv")


class TestFailure:
    @pytest.mark.parametrize("operator", [{"N": 0, "gamma_re": [0.0]},
                                          {"family": "k_family", "k": "abc"}])
    def test_malformed_operator_is_a_config_error(self, tmp_path, operator):
        config = write_config(tmp_path, make_reference_spec(), operator=operator)
        code, _ = run(tmp_path, "validate", config)
        assert code == cli.EXIT_CONFIG

    def test_operator_weights_take_every_complex_form(self, tmp_path, capsys):
        """Plain gamma reads as gamma_re does; gamma_im alone gives no weights."""
        written = []
        for key in ("gamma", "gamma_re"):
            config = write_config(tmp_path, make_reference_spec(), name=f"{key}.json",
                                  operator={"N": 2, key: FIVE_POINT["gamma_re"]},
                                  sweep={"epsilons": [0.1, 0.05, 0.025]})
            code, out = run(tmp_path / key, "converge", config)
            assert code == cli.EXIT_OK
            written.append((out / "converge.csv").read_bytes())
        assert written[0] == written[1]
        capsys.readouterr()
        config = write_config(tmp_path, make_reference_spec(),
                              operator={"N": 2, "gamma_im": [0.0] * 5})
        code, _ = run(tmp_path, "validate", config)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: missing field operator.gamma\n"

    @pytest.mark.parametrize("blocks, reason", [
        ({"targets": {"omega": [-2.0, 5.0], "j4_free": 20.0}},
         "target frequencies must be positive"),
        ({"targets": {"omega": [0.0, 5.0], "j4_free": 20.0}},
         "target frequencies must be positive"),
        ({"J1": (2.0 * np.eye(2)).tolist(), "J3": np.eye(2).tolist(),
          "targets": {"omega": [2.0, 5.0], "j4_free": 20.0}}, "J1 - 2*J3 must be invertible"),
        ({"targets": {"omega": ["a", 5.0], "j4_free": 20.0}},
         "could not convert string to float: 'a'"),
        ({"targets": {"j4_free": 20.0}}, "missing field targets.omega"),
    ], ids=["negative", "zero", "singular", "not-a-number", "no-omega"])
    def test_a_bad_targets_block_is_a_config_error(self, tmp_path, capsys, blocks, reason):
        config = write_config(tmp_path, make_reference_spec(), J4=None, **blocks)
        code, _ = run(tmp_path, "validate", config)
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG and err.startswith("config error: ") and reason in err

    @pytest.mark.parametrize("argv, blocks, field", [
        (["validate"], {"targets": {"omega": ["a", 5]}}, "targets.omega"),
        (["validate"], {"targets": {"omega": [2.0, 5.0], "tol": "x"}}, "targets.tol"),
        (["converge"], {"sweep": {"epsilons": ["a"]}}, "sweep.epsilons"),
        (["converge"], {"sweep": {"epsilons": [0.1, 0.05], "nu": "x"}}, "sweep.nu"),
        (["error-surface", "--grid", "gamma"], {"sweep": {"gamma_grid": {"points": "x"}}},
         "sweep.gamma_grid.points"),
        (["error-surface", "--grid", "k"], {"sweep": {"k_grid": {"Ms": ["x"]}}},
         "sweep.k_grid.Ms"),
        (["error-surface", "--grid", "k"], {"sweep": {"k_grid": {"ks": ["x"]}}},
         "sweep.k_grid.ks"),
        (["choreo"], {"choreo": {"which": "cel", "amplitudes_re": [1, "a", 1, 1]}},
         "choreo.amplitudes_re"),
        (["choreo"], {"choreo": [1]}, "malformed choreo: expected an object"),
        (["solve"], {"boundary": {**BOUNDARY, "x_t0": [["a", 0], [0, 0], [0, 0]]}},
         "boundary.x_t0"),
        (["solve"], {"amplitudes": {"random": True, "scale": "x"}}, "amplitudes.scale"),
        (["error-surface", "--grid", "gamma"], {"sweep": {"gamma_grid": {"points": -1}}},
         "sweep.gamma_grid.points: must be at least 1"),
        (["error-surface", "--grid", "k"], {"sweep": {"k_grid": {"Ms": [0]}}},
         "sweep.k_grid.Ms: must be at least 1"),
        (["error-surface", "--grid", "k"], {"sweep": {"k_grid": {"Ms": [100, -5]}}},
         "sweep.k_grid.Ms: must be at least 1"),
        (["converge"], {"sweep": {"epsilons": [0.1, 0.05], "nu": "nan"}},
         "sweep.nu: must be finite"),
        (["choreo"], {"choreo": {"which": []}}, "choreo.which"),
        (["choreo"], {"choreo": {"which": "cel", "amplitudes_im": [1, 0, 0, 1]}},
         "missing field choreo.amplitudes"),
        (["solve"], {"amplitudes": {"xs": [1, 0, 0, 1], "particles_im": np.eye(2, 4).tolist()}},
         "missing field amplitudes.particles"),
        (["solve"], {"boundary": {**BOUNDARY, "x_t0": [[math.nan, 0], [0, 0], [0, 0]]}},
         "boundary.x_t0: entries must be finite"),
        (["spectrum", "--which", "del"], {"operator": {"N": 1, "gamma": [-0.5, 0, math.nan]}},
         "operator.gamma: entries must be finite"),
        (["solve"], {"time": {"t0": 0.0, "tf": math.inf, "M": 100}, "boundary": BOUNDARY},
         "time.tf: must be finite"),
        (["solve"], {"amplitudes": {"random": True, "scale": math.nan}},
         "amplitudes.scale: must be finite"),
        (["converge"], {"sweep": {"epsilons": [0.1, -0.05]}}, "sweep.epsilons: must be positive"),
        (["converge"], {"sweep": {"epsilons": [0.1, math.nan]}}, "sweep.epsilons: must be finite"),
        (["validate"], {"targets": {"omega": [2.0, 5.0], "discrete": "no"}},
         "malformed targets.discrete: must be one of true, false"),
        (["solve"], {"amplitudes": {"random": "no", "xs": [1, 0, 0, 1]}},
         "malformed amplitudes.random: must be one of true, false"),
        (["error-surface", "--grid", "k"],
         {"boundary": BOUNDARY, "sweep": {"k_grid": {"ks": [math.nan], "Ms": [100]}}},
         "malformed sweep.k_grid.ks: must be finite"),
        (["error-surface", "--grid", "k"], {"boundary": BOUNDARY, "sweep": {"k_grid": {"Ms": []}}},
         "malformed sweep.k_grid.Ms: must be a non-empty list"),
        (["error-surface", "--grid", "k"], {"boundary": BOUNDARY, "sweep": {"k_grid": {"ks": []}}},
         "malformed sweep.k_grid.ks: must be a non-empty list"),
        (["converge"], {"sweep": {"epsilons": []}},
         "malformed sweep.epsilons: must be a non-empty"),
        (["validate"], {"targets": {"omega": []}}, "malformed targets.omega: must be a non-empty"),
        (["validate"], {"targets": {"omega": [math.nan, 5.0]}},
         "malformed targets.omega: must be finite"),
        (["validate"], {"targets": {"omega": [2.0, 5.0], "tol": math.nan}},
         "malformed targets.tol: must be finite"),
        (["error-surface", "--grid", "gamma"],
         {"boundary": BOUNDARY, "sweep": {"gamma_grid": {"min": math.nan}}},
         "malformed sweep.gamma_grid.min: must be finite"),
        (["error-surface", "--grid", "gamma"],
         {"boundary": BOUNDARY, "sweep": {"gamma_grid": {"min": 1.0, "max": -1.0}}},
         "sweep.gamma_grid needs min <= max"),
        (["spectrum", "--which", "del"], {"operator": {"family": "k_family", "k": math.nan}},
         "malformed operator.k: must be finite"),
        (["validate"], {"targets": {"omega": 5}}, "malformed targets.omega: must be a non-empty"),
        (["error-surface", "--grid", "gamma"],
         {"boundary": BOUNDARY, "sweep": {"gamma_grid": {"points": 1e308}}},
         "malformed sweep.gamma_grid.points: must be at least 1 and an integer"),
        (["solve", "--which", "del"], {"boundary": BOUNDARY, "time": {"t0": 0.0, "tf": 1.0,
                                                                     "M": 1e308}},
         "malformed time.M: must be at least 1 and an integer"),
        (["spectrum", "--which", "del"], {"d": math.inf}, "malformed d: must be at least 1"),
        (["solve", "--which", "del"], {"n": math.inf, "boundary": BOUNDARY},
         "malformed n: must be at least 1"),
        (["validate"], {"d": 2.5}, "malformed d: must be at least 1 and an integer, got 2.5"),
        (["validate"], {"n": True}, "malformed n: must be at least 1 and an integer, got True"),
        (["validate"], {"time": {"t0": 0.0, "tf": 1.0, "M": 100.7}},
         "malformed time.M: must be at least 1 and an integer, got 100.7"),
        (["validate"], {"operator": {"N": 1.5, "gamma": [-0.5, 0.0, 0.5]}},
         "malformed operator.N: must be at least 1 and an integer, got 1.5"),
        (["validate"], {"J8": np.eye(2).tolist()}, "unknown field J8"),
        (["validate"], {"time": {"t0": 0.0, "tf": 1.0, "M": 100, "dt": 0.01}},
         "unknown field time.dt"),
        (["validate"], {"operator": {"N": 1, "gamma": [-0.5, 0, 0.5], "gamma_re": [-0.5, 0, 0.5]}},
         "malformed operator.gamma: give the real part once"),
        (["choreo"], {"choreo": {"which": "cel", "amplitudes": [1, True, 0, 1]}},
         "malformed choreo.amplitudes: entries must be finite numbers (true and false are not)"),
        (["validate"], {"time": {"t0": 0, "tf": 10**400, "M": 100}},
         "malformed time.tf: int too large to convert to float"),
        (["solve"], {"boundary": {**BOUNDARY, "x_tf": [[10**400, 0], [0, 0], [0, 0]]}},
         "malformed boundary.x_tf: int too large to convert to float"),
    ], ids=["targets-omega", "targets-tol", "epsilons", "nu", "points", "Ms", "ks",
            "amplitudes", "choreo-block", "x_t0", "scale", "no-points", "zero-M", "negative-M",
            "nan-nu", "no-kind", "amplitudes-im-alone", "particles-im-alone", "nan-x_t0",
            "nan-gamma", "infinite-tf", "nan-scale", "negative-epsilon", "nan-epsilon",
            "string-discrete", "string-random", "nan-ks", "empty-Ms", "empty-ks",
            "empty-epsilons", "empty-omega", "nan-omega", "nan-tol", "nan-gamma-min",
            "reversed-gamma-grid", "nan-k", "scalar-omega", "huge-points", "huge-M",
            "infinite-d", "infinite-n", "fractional-d", "boolean-n", "fractional-M",
            "fractional-N", "unknown-top-level-key", "unknown-time-key", "gamma-and-gamma_re",
            "boolean-amplitudes", "huge-integer-tf", "huge-integer-x_tf"])
    def test_a_malformed_value_is_a_config_error_naming_its_field(self, tmp_path, capsys,
                                                                 argv, blocks, field):
        config = write_config(tmp_path, make_reference_spec(), **blocks)
        code, _ = run(tmp_path, argv[0], config, *argv[1:])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG and err.startswith("config error: ") and field in err

    def test_discrete_targets_need_real_weights(self, tmp_path, capsys):
        config = write_config(tmp_path, make_reference_spec(), J4=None,
                              operator={"family": "k_family", "k": 0.3},
                              targets={"omega": [2.0, 5.0], "j4_free": 20.0, "discrete": True})
        code, _ = run(tmp_path, "validate", config)
        assert code == cli.EXIT_CONFIG and "real operator weights" in capsys.readouterr().err

    def test_targets_with_no_real_j4_exit_numerical(self, tmp_path, capsys):
        # j4_free = w1^2 + w2^2 leaves the off-diagonal equation no real root
        config = write_config(tmp_path, make_reference_spec(), J4=None,
                              targets={"omega": [2.0, 5.0], "j4_free": 29.0})
        code, _ = run(tmp_path, "validate", config)
        assert code == cli.EXIT_NUMERICAL
        assert "negative discriminant" in capsys.readouterr().err

    def test_choreo_reads_every_settings_amplitudes_before_building(self, tmp_path, capsys):
        """Four amplitudes fit the continuous root count 2d = 4 but not the grid's 4Nd = 8:
        nothing is built, printed or written (the continuous choreography once was)."""
        config = write_config(tmp_path, make_reference_spec(),
                              choreo={"amplitudes": [1, 0, 0, 1]})
        code, out = run(tmp_path, "choreo", config)
        printed = capsys.readouterr()
        assert code == cli.EXIT_CONFIG and printed.out == ""
        assert printed.err == ("config error: choreo.amplitudes must have shape (8,), got (4,) "
                               "for the del setting\n")
        assert not list(out.glob("choreo_*"))

    def test_unknown_choreography_kind_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path, make_reference_spec(), choreo={"which": ["bogus"]})
        code, out = run(tmp_path, "choreo", config)
        assert code == cli.EXIT_CONFIG
        assert not list(out.glob("choreo_*"))

    def test_a_spectrum_that_is_not_choreographic_exits_assumption(self, tmp_path, capfd):
        # a generic real operator pushes part of the discrete spectrum off the imaginary axis
        config = write_config(tmp_path, make_reference_spec(),
                              time={"t0": 0.0, "tf": 2 * math.pi, "M": 100},
                              operator={"N": 1, "gamma_re": [-0.7, 0.4, 0.3]},
                              choreo={"which": "del"})
        code, out = run(tmp_path, "choreo", config)
        assert code == cli.EXIT_ASSUMPTION
        assert "spectrum is not purely imaginary" in capfd.readouterr().err
        assert not list(out.glob("choreo_*"))

    def test_a_delay_resonance_exits_assumption(self, tmp_path, capfd):
        # the +-3i mode has e^(3i * 2pi/3) = 1: the delay sums of n = 3 do not cancel
        eps = math.pi / 15.0
        spec = make_discrete_tuned_spec_d3(central_difference(eps), n=3)
        config = write_config(tmp_path, spec, time={"t0": 0.0, "tf": 30 * eps, "M": 30},
                              choreo={"which": "del"})
        code, out = run(tmp_path, "choreo", config)
        assert code == cli.EXIT_ASSUMPTION
        assert "e^(lam T/n) = 1 for n = 3" in capfd.readouterr().err
        assert not list(out.glob("choreo_*"))

    def test_overflowing_discrete_samples_exit_numerical(self, tmp_path, capfd):
        # 5-point weights, a unit amplitude on the fastest-growing spurious nu = 0 mode
        # of particle 1: e^{lam t} overflows on M = 344 nodes
        spec, gamma = make_reference_spec(), [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]
        lams = delsolve.general_solution_del(spec, ScaleOperator(np.array(gamma), 0.01), 3,
                                             np.zeros(16), None, 0.0, 344).particles[0].lambdas
        particles = np.zeros((2, 16))
        particles[0, lams[16:].real.argmax()] = 1.0  # nu = 0 phases follow x_s's 16
        config = write_config(tmp_path, spec, operator={"N": 2, "gamma_re": gamma},
                              amplitudes={"xs": [0.0] * 16, "particles": particles.tolist()},
                              time={"t0": 0.0, "tf": 3.44, "M": 344})
        code, out = run(tmp_path, "solve", config, "--which", "del")
        assert code == cli.EXIT_NUMERICAL
        assert not list(out.glob("traj_del.*"))
        assert "Traceback" not in capfd.readouterr().err

    def test_grid_without_interior_window(self, tmp_path):
        # M = 3 < 4N: the discrete solve has no interior equations
        config = write_config(tmp_path, make_reference_spec(), boundary=BOUNDARY,
                              time={"t0": 0.0, "tf": 0.03, "M": 3})
        code, _ = run(tmp_path, "solve", config, "--which", "del")
        assert code == cli.EXIT_NUMERICAL

    @pytest.mark.parametrize("argv, blocks", [
        (["validate"], {"time": {"t0": 0.0, "tf": 1e308, "M": 20}}),
        (["spectrum", "--which", "del"], {"time": {"t0": 0.0, "tf": 1e308, "M": 20}}),
        (["solve", "--which", "del"], {"time": {"t0": 0.0, "tf": 1e308, "M": 20},
                                       "amplitudes": {"random": True}}),
        (["converge"], {"sweep": {"epsilons": [1e308]}}),
    ], ids=["validate", "spectrum", "solve", "converge"])
    def test_a_step_whose_square_overflows_exits_numerical(self, tmp_path, capfd, argv,
                                                           blocks):
        """eps^2 of a step near 1e154 and up overflows as a float: a typed failure, once
        a traceback."""
        config = write_config(tmp_path, make_reference_spec(), **blocks)
        with np.errstate(all="ignore"):  # the operator's tables overflow first
            code, _ = run(tmp_path, argv[0], config, *argv[1:])
        assert code == cli.EXIT_NUMERICAL
        assert "numerical failure: a squared delay is not finite" in capfd.readouterr().err
