"""A command-line run loads only what its command computes with.

The program runs on numpy alone: scipy is only a test oracle.  Start-up is most of a
short run, so a run also loads no module its command does not use.  A fresh interpreter
imports the CLI, runs a small discrete solve, a 2x2 gamma error surface and an eps-sweep,
and reports the modules it loaded: none is scipy's, `numpy.ma` (which the first
`np.unique` call of a plain array imports) or `choreoqep.periodic`.  A `choreo` run, in
its own fresh interpreter, loads no `numpy.random`.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import choreoqep
from choreoqep.scaleop import central_difference

from conftest import make_discrete_tuned_spec_d3, make_reference_spec
from test_cli import BOUNDARY, write_config

RUN = """
import json, sys
from choreoqep import cli
out, runs = sys.argv[1], json.loads(sys.argv[2])
for config, argv in runs:
    assert cli.main([*argv, "--config", config, "--out", out]) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(out: Path, runs: list) -> set:
    """The modules a fresh interpreter holds after `cli.main` on each (config, argv)."""
    env = {**os.environ, "PYTHONPATH": str(Path(choreoqep.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", RUN, str(out), json.dumps(runs)],
                          env=env, check=True, capture_output=True, text=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_cli_runs_without_scipy(tmp_path):
    """A solve, a surface and a sweep load neither scipy nor numpy.ma nor periodic."""
    config = write_config(tmp_path, make_reference_spec(), boundary=BOUNDARY,
                          sweep={"gamma_grid": {"min": -1.0, "max": 1.0, "points": 2},
                                 "epsilons": [0.1, 0.05, 0.025, 0.0125]})
    modules = loaded_modules(tmp_path / "out", [
        (config, ["solve", "--which", "del"]), (config, ["error-surface", "--grid", "gamma"]),
        (config, ["converge"])])
    assert sorted(m for m in modules if m == "scipy" or m.startswith("scipy.")) == []
    assert "numpy.ma" not in modules
    assert "choreoqep.periodic" not in modules
    for name in ("traj_del.csv", "error_surface_gamma.csv", "converge.csv"):
        assert (tmp_path / "out" / name).exists()


def test_a_choreography_loads_no_random_generator(tmp_path):
    eps = math.pi / 15.0
    cel = write_config(tmp_path, make_reference_spec(), "cel.json", choreo={"which": "cel"})
    dis = write_config(tmp_path, make_discrete_tuned_spec_d3(central_difference(eps), n=5),
                       "del.json", time={"t0": 0.0, "tf": 30 * eps, "M": 30},
                       choreo={"which": "del"})
    modules = loaded_modules(tmp_path / "out", [(cel, ["choreo"]), (dis, ["choreo"])])
    assert "choreoqep.periodic" in modules
    assert "numpy.random" not in modules
    assert {"choreo_cel.csv", "choreo_del.csv"} <= {p.name for p in (tmp_path / "out").iterdir()}

