"""The program runs on numpy alone: scipy is only a test oracle.

A fresh interpreter imports the CLI, runs a small discrete solve and a 2x2 gamma
error surface, and reports the scipy modules it loaded; there must be none.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import choreoqep

from conftest import make_reference_spec

RUN = """
import sys
from choreoqep import cli
config, out = sys.argv[1:]
for argv in (["solve", "--which", "del"], ["error-surface", "--grid", "gamma"]):
    assert cli.main([*argv, "--config", config, "--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_without_scipy(tmp_path):
    spec = make_reference_spec()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "d": spec.d, "n": spec.n,
        **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
        "time": {"t0": 0.0, "tf": 1.0, "M": 100}, "operator": {"family": "central"},
        "boundary": {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
                     "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]},
        "sweep": {"gamma_grid": {"min": -1.0, "max": 1.0, "points": 2}}}))
    env = {**os.environ, "PYTHONPATH": str(Path(choreoqep.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", RUN, str(config), str(tmp_path / "out")],
                          env=env, check=True, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "error_surface_gamma.csv").exists()
