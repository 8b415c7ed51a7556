"""Golden-output guard: small CLI runs must keep writing the same bytes.

The digests were re-recorded when antisymmetric weights moved to preimages of
the classical roots (and the pencil error to expm1 sums), after `test_oracle.py`
confirmed the new roots against 50-digit ones.  The gamma digest was re-recorded
again when the surface gained its status column, after `test_batched_surface.py`
matched every cell against its lone solve; no metric moved.  It was re-recorded
once more when weights that are not antisymmetric, with J5 = 0, moved to preimages
under g g~/eps^2: every cell kept its status, on this surface and on eight benchmark
surfaces, and ok metrics moved by at most 5.3e-14 here (3.4e-11 there).

The gamma digest was re-recorded a fourth time when those J5 = 0 polynomials, being
self-reciprocal, moved from their degree-4N companions in w to half-degree polynomials
in y = zeta + 1/zeta - 2 (a quadratic in closed form for N = 1), with two zeta-roots from
each y-root.  The roots differ from the companion's at rounding level, so written metrics
move in their last digits: every cell kept its status here and on eight benchmark
surfaces, ok metrics moved by at most 4.9e-15 here (1.6e-12 there), and `test_pencil.py`
holds the roots to the companion's and `test_oracle.py` to 50-digit ones.

The gamma and discrete-solve digests were re-recorded when boundary solves were
anchored and equilibrated and grids came to be sampled from two exp tables a mode.
On this surface the 12 cells that read SingularBoundarySystem, their columns spanning
e^{+-30} and more, now solve; the 6 ok cells moved their metrics by at most 4.6e-14
and the 7 axis cells kept theirs.  On eight benchmark surfaces the 120 ok cells a
surface moved by at most 6.7e-13 relative and the other 1,480 non-axis cells solve,
matching a dense grid solve (`test_anchored_solves.py`).  The discrete solve's values
moved by at most 3.3e-15 (entries up to 4); its SVG kept its bytes.

Both digests were re-recorded again when stacked solves came to take x from the
elimination that decides Singular, by back-substitution on its U, in place of a second
LU inside `np.linalg.solve`.  Every cell kept its status, here and on four benchmark
surfaces (seeds 1-4).  Ok window errors moved by at most 4.1e-14 relative here and
2.7e-12 there, where 720 to 1,201 of a surface's 1,600 ok cells kept every bit.  The
discrete solve's values moved by at most 4.4e-16 (entries up to 4); its SVG, both sweeps
and the discrete choreography kept their bytes.

The gamma digest was re-recorded when error surfaces came to solve each distinct
discrete equation once: with J5 = 0, reversed weights share theta and s_bar(0), so a
cell takes the row of the first cell of its class in grid order (15 of these 25 cells
are solved).  Only cell (0.5, -0.5) moved, from 3.2564239231630356 to
3.2564239231630316 (1.2e-15 relative), because it now takes the solve of (-0.5, 0.5),
its reverse.  On eight benchmark surfaces (seeds 1-8) every cell kept its
status and 1 to 3 ok metrics a surface moved, the window errors by at most 7.8e-13
relative; `test_batched_surface.py` holds every member of a class to its own lone solve.
The discrete solve and choreography kept their bytes when `celsolve.grid_values` came
to turn its end-anchored modes round in place.

The gamma digest was re-recorded when the surfaces gained a max_error column (the max
norm of continuous - discrete over the window nodes, nan for a failed cell); its other
columns kept their bytes.  Both sweep digests were re-recorded when the pencil errors came
to be summed from a series over the weights' moments at small eps: only the pencil_error
column moved, the hausdorff column kept its bytes.  On the five-point sweep every value is
now within 6.9e-16 of a 50-digit evaluation over its whole 21 x 21 grid, where the old
values were 8.3e-4 (eps = 1e-4), 1.0e-7 (1e-3) and 1.5e-12 (1e-2) off; the central sweep's
values moved by at most 2.9e-15 relative.

The five-point sweep at small eps guards the summation order of the batched sweep: a
stacked product summed in another order moves its distances at eps = 1e-4 by orders of
magnitude, which the central-difference sweep at large eps cannot see.  Two d = 32 sweeps
(`make_spread_spec`: roots +-i w, w spread over [0.5, 2]; both operators, 12 delays
log-spaced on [1e-4, 0.2]) pin the kind of system whose fitted orders an eps-sweep reports:
the 5-point distances at the two smallest delays (4.4e-16 and 1.6e-15) are a few units of
the roots' rounding, and moving either by one unit, 2^-52, moves the fitted order 3.924 to
between 3.901 and 3.962.  A cache or
vectorisation that moves one bit of a written number fails here, instead of silently
changing a benchmark cell.  The discrete solve and the discrete choreography also pin
their SVGs and the choreography its CSV, so that the array writers of both formats are
held to the bytes the per-cell writers produced.  Five `spectrum` runs pin both settings'
roots and residuals and the compact-window flag, on each route to a grid spectrum: the
reference spec under the central difference and the gyroscopic spec (J5 != 0) under the
5-point operator (both preimages of the classical roots), and the gyroscopic spec under
real weights that are not antisymmetric (the block companion).  Each run is a fresh
`python -m choreoqep.cli` with BLAS pinned to one thread, as the benchmark runs it, and
each is run again at two BLAS threads, which must write the same bytes.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import choreoqep
from choreoqep.scaleop import central_difference

from conftest import make_discrete_tuned_spec_d3, make_reference_spec, make_spread_spec

BOUNDARY = {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
            "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]]}

FIVE_POINT = {"operator": {"N": 2, "gamma_re": [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]},
              "sweep": {"epsilons": [1e-4, 1e-3, 1e-2, 0.1]}}

SPREAD = make_spread_spec()
SPREAD_SWEEP = {"d": SPREAD.d, "n": SPREAD.n,
                **{k: getattr(SPREAD, k).tolist() for k in ("J1", "J2", "J3", "J4")},
                "sweep": {"epsilons": np.logspace(-4, math.log10(0.2), 12).tolist(), "nu": 0.0}}

CHOREO_EPS = math.pi / 15.0
_TUNED = make_discrete_tuned_spec_d3(central_difference(CHOREO_EPS))
CHOREO = {"d": 3, "n": 5, **{k: getattr(_TUNED, k).tolist() for k in ("J1", "J2", "J3", "J4")},
          "choreo": {"which": ["del"], "amplitudes_re": [0.5 + 0.1 * k for k in range(12)],
                     "amplitudes_im": [0.3 - 0.05 * k for k in range(12)]}}

J5 = [[0.0, 0.7], [-0.7, 0.0]]  # `make_gyroscopic_spec`'s
GYROSCOPIC = {"J5": J5, "operator": FIVE_POINT["operator"]}
COMPANION = {"J5": J5, "operator": {"N": 1, "gamma_re": [-0.7, 0.4, 0.3]}}

RUNS = {  # name -> (argv, (tf, M), config overrides, {file written: sha256 of its bytes})
    "gamma": (["error-surface", "--grid", "gamma"], (1.0, 100), {}, {
        "error_surface_gamma.csv":
            "2dd6604e532ad01751ea9854ab9bfc445d6a302d691ad2b28cfa739a0f0c7d91"}),
    "converge": (["converge"], (1.0, 100), {}, {
        "converge.csv": "fb18593e2438457d9e474304ff686b0c1a22002a03891950f547cf5d60d2af94"}),
    "converge_five_point": (["converge"], (1.0, 100), FIVE_POINT, {
        "converge.csv": "b0779f359f05bb0e8f4c33bf9170c0a15d821ec461ce36c0734e02c25f6b1483"}),
    "converge_d32": (["converge"], (1.0, 100), SPREAD_SWEEP, {
        "converge.csv": "a256324b51c07be746f13ef98a10f63318b0f558f63acdf0c8cbba798baa3ca0"}),
    "converge_d32_five_point": (["converge"], (1.0, 100),
                                {**SPREAD_SWEEP, "operator": FIVE_POINT["operator"]}, {
        "converge.csv": "c680adc48b142039f11904ce71436edd00f85589b776791cb89c22253f029c49"}),
    "solve_del": (["solve", "--which", "del"], (4.0, 400), {}, {
        "traj_del.csv": "af55afe62740569af193921e738ef7c1375c5c2c4700222dd927237b441c4cfe",
        "traj_del.svg": "32eb773e2612217b777e8821edb5b6786a84ab095bcf3dc310068916efcf95f3"}),
    "spectrum_cel": (["spectrum", "--which", "cel"], (1.0, 100), {}, {
        "spectrum_cel_nu0.csv": "14623095f2ac242ca77db8b454ae66383f3a70c403040956250491289d12d8e6",
        "spectrum_cel_nun.csv": "7f7653a6f1b13016a3a5e5d06479fa5f2dd7d9c913cba72fd65b802cbba39bd8"}),
    "spectrum_del": (["spectrum", "--which", "del"], (1.0, 100), {}, {
        "spectrum_del_nu0.csv": "bbb1976ec1326a5a2ae181d42e1c326b620e97dca652251db2fb1dcf45fdb7da",
        "spectrum_del_nun.csv": "d54e22a0d6fe42d80f247f1d62b76bc70c0a6aa9953e03e0e8e99cf1e5db15a6"}),
    "spectrum_cel_gyroscopic": (["spectrum", "--which", "cel"], (1.0, 100), GYROSCOPIC, {
        "spectrum_cel_nu0.csv": "d7369a8c5401c2748be4a731d086e76d487a1c176abf6a94b67c324b3a7d46be",
        "spectrum_cel_nun.csv": "5fd041381a2e92b9638ae256bd92b85102b6cc14c85d144109593e6449210fba"}),
    "spectrum_del_gyroscopic": (["spectrum", "--which", "del"], (1.0, 100), GYROSCOPIC, {
        "spectrum_del_nu0.csv": "efb7789e426bb9b2cdb0e8d009452f36b43ee4807bb2c13fbc4588287ce483e6",
        "spectrum_del_nun.csv": "f80109ddb679efd7f4ffa812263fd372a1bb67347f286d9b8f215bb52c07ef6e"}),
    "spectrum_del_companion": (["spectrum", "--which", "del"], (1.0, 100), COMPANION, {
        "spectrum_del_nu0.csv": "ead9b03359ea959f5872854950600be00c16a66bed126fd21cf25b811e6c0add",
        "spectrum_del_nun.csv": "fc59fadb5800d7fdf21576b82eeb72ebdae7e865bc3df254659602455d408fff"}),
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
    """(name, BLAS threads) -> the output directory of that run, each run made once per
    module."""
    done = {}

    def run(name, threads=1):
        if (name, threads) not in done:
            argv, time, overrides, _ = RUNS[name]
            tmp = tmp_path_factory.mktemp(name)
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "OMP_NUM_THREADS": str(threads), "MKL_NUM_THREADS": str(threads),
                   "PYTHONPATH": str(Path(choreoqep.__file__).parents[1])}
            subprocess.run([sys.executable, "-m", "choreoqep.cli", *argv, "--config",
                            write_config(tmp, time, overrides), "--out", str(tmp / "out")],
                           env=env, check=True, capture_output=True)
            done[name, threads] = tmp / "out"
        return done[name, threads]
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_bytes_are_pinned_at_two_blas_threads(outputs, name):
    for suffix in (".csv", ".svg"):
        _check(outputs(name, threads=2), name, suffix)
