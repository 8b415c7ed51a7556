"""Golden-output guard: five small CLI runs must keep writing the same bytes.

The digests were re-recorded when antisymmetric weights moved to preimages of
the classical roots (and the pencil error to expm1 sums), after `test_oracle.py`
confirmed the new roots against 50-digit ones.  The gamma digest was re-recorded
again when the surface gained its status column, after `test_batched_surface.py`
matched every cell against its lone solve; no metric moved.  It was re-recorded
once more when weights that are not antisymmetric, with J5 = 0, moved to preimages
under g g~/eps^2: every cell kept its status, on this surface and on eight benchmark
surfaces, and ok metrics moved by at most 5.3e-14 here (3.4e-11 there).  The five-point
sweep at small eps guards the summation order of the batched sweep: a stacked
product summed in another order moves its distances at eps = 1e-4 by orders of
magnitude, which the central-difference sweep at large eps cannot see.  A cache
or vectorisation that moves one bit of a written number fails here, instead of
silently changing a benchmark cell.  The discrete solve and the discrete
choreography also pin their SVGs and the choreography its CSV, so that the array
writers of both formats are held to the bytes the per-cell writers produced.
Each run is a fresh `python -m choreoqep.cli` with BLAS pinned to one thread,
as the benchmark runs it: threaded BLAS rounds differently with the core count.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import choreoqep
from choreoqep.scaleop import central_difference

from conftest import make_discrete_tuned_spec_d3, make_reference_spec

BOUNDARY = {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
            "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]}

FIVE_POINT = {"operator": {"N": 2, "gamma_re": [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]},
              "sweep": {"epsilons": [1e-4, 1e-3, 1e-2, 0.1]}}

CHOREO_EPS = math.pi / 15.0
_TUNED = make_discrete_tuned_spec_d3(central_difference(CHOREO_EPS))
CHOREO = {"d": 3, "n": 5, **{k: getattr(_TUNED, k).tolist() for k in ("J1", "J2", "J3", "J4")},
          "choreo": {"which": ["del"], "amplitudes_re": [0.5 + 0.1 * k for k in range(12)],
                     "amplitudes_im": [0.3 - 0.05 * k for k in range(12)]}}

RUNS = {  # name -> (argv, (tf, M), config overrides, {file written: sha256 of its bytes})
    "gamma": (["error-surface", "--grid", "gamma"], (1.0, 100), {}, {
        "error_surface_gamma.csv":
            "c4202624664f9f65bd75bfccf5bca699fdee0e024e65631cfee4ffe50de9f506"}),
    "converge": (["converge"], (1.0, 100), {}, {
        "converge.csv": "4de3ea3ebd91e219d71ab8729f0d6d61e37b485a16f1becdefc9497b51af1d26"}),
    "converge_five_point": (["converge"], (1.0, 100), FIVE_POINT, {
        "converge.csv": "406d6fca8f0ba57aec47643d253ce9aec8bc4eef1e6474c19eba262ff9bbcce6"}),
    "solve_del": (["solve", "--which", "del"], (4.0, 400), {}, {
        "traj_del.csv": "83ae278f6115c365a8f17af229d025eb5b62a7529b91bea524c25b820a76467a",
        "traj_del.svg": "32eb773e2612217b777e8821edb5b6786a84ab095bcf3dc310068916efcf95f3"}),
    "choreo_del": (["choreo"], (60 * CHOREO_EPS, 60), CHOREO, {
        "choreo_del.csv": "b5045c1289c81463d1e9ef46c2b11101a8a77d25de4c4b0b9c6d771f4919e0ec",
        "choreo_del.svg": "274d4c213f49fdf2a4bfa808ce278ae7cd4d584ba06193011d9eb6d23a51c5a2"}),
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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> the output directory of that run, each run made once per module."""
    done = {}

    def run(name):
        if name not in done:
            argv, time, overrides, _ = RUNS[name]
            tmp = tmp_path_factory.mktemp(name)
            env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1",
                   "PYTHONPATH": str(Path(choreoqep.__file__).parents[1])}
            subprocess.run([sys.executable, "-m", "choreoqep.cli", *argv, "--config",
                            write_config(tmp, time, overrides), "--out", str(tmp / "out")],
                           env=env, check=True, capture_output=True)
            done[name] = tmp / "out"
        return done[name]
    return run


def _check(run_dir, name, suffix):
    pinned = {f: digest for f, digest in RUNS[name][3].items() if f.endswith(suffix)}
    assert {f: hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
            for f in pinned} == pinned


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_are_pinned(outputs, name):
    _check(outputs(name), name, ".csv")


@pytest.mark.parametrize("name", sorted(n for n in RUNS if any(
    f.endswith(".svg") for f in RUNS[n][3])))
def test_svg_bytes_are_pinned(outputs, name):
    _check(outputs(name), name, ".svg")
