"""End-to-end tests through cli.main(argv) on temporary JSON configs."""
import json
import math

import numpy as np
import pytest

from choreoqep import cli
from choreoqep.model import LagrangianSpec
from choreoqep.scaleop import central_difference

from conftest import J1, J2, make_discrete_tuned_spec_d3, make_reference_spec

BOUNDARY = {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
            "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]}


def write_config(tmp_path, spec, name="config.json", **blocks):
    raw = {"d": spec.d, "n": spec.n,
           **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
           "time": {"t0": 0.0, "tf": 1.0, "M": 100},
           "operator": {"family": "central"}}
    raw.update(blocks)
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
        original = cli._matched_del_data
        monkeypatch.setattr(cli, "_matched_del_data",
                            lambda *args: calls.append(args) or original(*args))
        code, _ = run(tmp_path, "error-surface", ref_config, "--grid", grid)
        assert code == cli.EXIT_OK and len(calls) == 1

    def test_error_surface_k(self, tmp_path, ref_config):
        code, out = run(tmp_path, "error-surface", ref_config, "--grid", "k")
        assert code == cli.EXIT_OK
        rows = (out / "error_surface_k.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        assert all(0 < float(r.split(",")[2]) < 300 for r in rows)

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
        cli.write_csv(again, cli._traj_header(2), cli._trajectory_rows(times, values))
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


class TestFailure:
    @pytest.mark.parametrize("operator", [{"N": 0, "gamma_re": [0.0]},
                                          {"family": "k_family", "k": "abc"}])
    def test_malformed_operator_is_a_config_error(self, tmp_path, operator):
        config = write_config(tmp_path, make_reference_spec(), operator=operator)
        code, _ = run(tmp_path, "validate", config)
        assert code == cli.EXIT_CONFIG

    def test_unknown_choreography_kind_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path, make_reference_spec(), choreo={"which": ["bogus"]})
        code, out = run(tmp_path, "choreo", config)
        assert code == cli.EXIT_CONFIG
        assert not list(out.glob("choreo_*"))

    def test_uncoupled_system_violates_assumptions(self, tmp_path):
        spec = LagrangianSpec(2, 3, J1, J2, np.zeros((2, 2)), np.zeros((2, 2)))
        code, _ = run(tmp_path, "solve", write_config(tmp_path, spec, boundary=BOUNDARY))
        assert code == cli.EXIT_ASSUMPTION

    def test_grid_without_interior_window(self, tmp_path):
        # M = 3 < 4N: the discrete solve has no interior equations
        config = write_config(tmp_path, make_reference_spec(), boundary=BOUNDARY,
                              time={"t0": 0.0, "tf": 0.03, "M": 3})
        code, _ = run(tmp_path, "solve", config, "--which", "del")
        assert code == cli.EXIT_NUMERICAL
