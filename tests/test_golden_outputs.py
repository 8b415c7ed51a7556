"""Golden-output guard: three small CLI runs must keep writing the same bytes.

The digests were re-recorded when antisymmetric weights moved to preimages of
the classical roots (and the pencil error to expm1 sums), after `test_oracle.py`
confirmed the new roots against 50-digit ones.  The gamma digest was re-recorded
again when the surface gained its status column, after `test_batched_surface.py`
matched every cell against its lone solve; no metric moved.  The five-point
sweep at small eps guards the summation order of the batched sweep: a stacked
product summed in another order moves its distances at eps = 1e-4 by orders of
magnitude, which the central-difference sweep at large eps cannot see.  A cache
or vectorisation that moves one bit of a written number fails here, instead of
silently changing a benchmark cell.
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

FIVE_POINT = {"operator": {"N": 2, "gamma_re": [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]},
              "sweep": {"epsilons": [1e-4, 1e-3, 1e-2, 0.1]}}

RUNS = {  # name -> (argv, file written, (tf, M), config overrides, sha256 of the file)
    "gamma": (["error-surface", "--grid", "gamma"], "error_surface_gamma.csv", (1.0, 100), {},
              "5b2362cfe15000fd43e305c83291df778ea3cc93dc5c846269c354a96259b558"),
    "converge": (["converge"], "converge.csv", (1.0, 100), {},
                 "4de3ea3ebd91e219d71ab8729f0d6d61e37b485a16f1becdefc9497b51af1d26"),
    "converge_five_point": (["converge"], "converge.csv", (1.0, 100), FIVE_POINT,
                            "406d6fca8f0ba57aec47643d253ce9aec8bc4eef1e6474c19eba262ff9bbcce6"),
    "solve_del": (["solve", "--which", "del"], "traj_del.csv", (4.0, 400), {},
                  "83ae278f6115c365a8f17af229d025eb5b62a7529b91bea524c25b820a76467a"),
}


def write_config(tmp_path, time, overrides):
    tf, M = time
    spec = make_reference_spec()
    raw = {"d": spec.d, "n": spec.n,
           **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
           "time": {"t0": 0.0, "tf": tf, "M": M},
           "operator": {"family": "central"},
           "boundary": BOUNDARY,
           "sweep": {"gamma_grid": {"min": -1.0, "max": 1.0, "points": 5},
                     "epsilons": [0.1, 0.05, 0.025]},
           **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_are_pinned(tmp_path, name):
    argv, filename, time, overrides, digest = RUNS[name]
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": str(Path(choreoqep.__file__).parents[1])}
    subprocess.run([sys.executable, "-m", "choreoqep.cli", *argv,
                    "--config", write_config(tmp_path, time, overrides), "--out", str(out)],
                   env=env, check=True, capture_output=True)
    assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == digest
