"""Golden-output guard: three small CLI runs must keep writing the same bytes.

The digests were recorded before the grid layer gained its cached stencil
tables and array residuals.  A cache or vectorisation that moves one bit of a
written number fails here, instead of silently changing a benchmark cell.
Each run is a fresh `python -m choreoqep.cli` with BLAS pinned to one thread,
as the benchmark runs it: threaded BLAS rounds differently with the core count.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import choreoqep

from conftest import make_reference_spec

BOUNDARY = {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
            "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]}

RUNS = {  # name -> (argv, file written, (tf, M), sha256 of the file)
    "gamma": (["error-surface", "--grid", "gamma"], "error_surface_gamma.csv", (1.0, 100),
              "9a1cc55dd47fa4232bc9dc2e52855be8ca5e1b01980302b06a5bf97492b04f9a"),
    "converge": (["converge"], "converge.csv", (1.0, 100),
                 "a308b8162799c48448d1746c6c5a3a8e7d2faf2628387092ffcd61393b9ed466"),
    "solve_del": (["solve", "--which", "del"], "traj_del.csv", (4.0, 400),
                  "52ac40e1a4454d5acbc902b094bb7f0ed9e4acb65c04e0cb26b3137dbd348973"),
}


def write_config(tmp_path, time):
    tf, M = time
    spec = make_reference_spec()
    raw = {"d": spec.d, "n": spec.n,
           **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
           "time": {"t0": 0.0, "tf": tf, "M": M},
           "operator": {"family": "central"},
           "boundary": BOUNDARY,
           "sweep": {"gamma_grid": {"min": -1.0, "max": 1.0, "points": 5},
                     "epsilons": [0.1, 0.05, 0.025]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_are_pinned(tmp_path, name):
    argv, filename, time, digest = RUNS[name]
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": str(Path(choreoqep.__file__).parents[1])}
    subprocess.run([sys.executable, "-m", "choreoqep.cli", *argv,
                    "--config", write_config(tmp_path, time), "--out", str(out)],
                   env=env, check=True, capture_output=True)
    assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == digest
