"""Seeded input generator: JSON configs and a job manifest per workload.

The program never sees the seed, only the configs written here.  Random
systems are checked for well-posedness with numpy/scipy alone (no choreoqep
code), so a defect in the program cannot hide behind a generator that
relies on it.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

# Why each workload exists; copied into every manifest and BENCHMARK.json.
WHY = {
    "gamma_surface": "many small d=2 spectra, kernel bases and window solves; "
                     "almost no grid work",
    "spectra_sweep": "spectra of random systems up to d=32 and the 5-point "
                     "operator, each pencil evaluated on the error grid",
    "long_grid": "long discrete trajectories: stencils, marching, residuals "
                 "and CSV/SVG writing; only ~13 spectra",
}

# Reference d=2 system (the test suite's fixture): J4 is built by the program
# from the target frequencies, so the config carries them instead of J4.
REF_J1 = [[7.0, 2.0], [2.0, 7.0]]
REF_J2 = [[5.0, -1.0], [-1.0, 5.0]]
REF_J3 = [[8.0, 1.0], [1.0, 8.0]]
REF_TARGETS = {"omega": [2.0, 5.0], "j4_free": 25.0}

CENTRAL = {"family": "central"}
FIVE_POINT = {"N": 2, "gamma_re": [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]}
SWEEP_OPERATORS = (("central", CENTRAL, 2), ("five_point", FIVE_POINT, 4))
SWEEP_DIMS = (2, 8, 32)
SWEEP_SYSTEMS = 3
SWEEP_EPSILONS = [float(e) for e in np.logspace(math.log10(1e-4),
                                                  math.log10(0.2), 12)]


class IllPosed(Exception):
    """Raised when a generated system fails the independent spectrum check."""


def _reference_system(n: int) -> dict:
    return {"d": 2, "n": n, "J1": REF_J1, "J2": REF_J2, "J3": REF_J3,
            "targets": REF_TARGETS}


def _real_boundary(rng: np.random.Generator, n: int, d: int) -> dict:
    return {"x_t0": rng.uniform(-1.0, 1.0, (n, d)).tolist(),
            "x_tf": rng.uniform(-1.0, 1.0, (n, d)).tolist()}


def _spd(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return g @ g.T / d + np.eye(d)


def _symmetric(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return scale * (g + g.T) / 2.0


def random_system(rng: np.random.Generator, d: int) -> dict:
    """J1..J4 of a random system whose nu=0 pencil A lam^2 + K has SPD A, K.

    With A = L L^T and K = L Q diag(w^2) Q^T L^T, the roots are exactly
    +-i w for d frequencies w evenly spread over [0.5, 2].  The seed draws
    L, Q and the split of A and K into J1..J4; the roots stay put, so the
    count of cells a sweep gets right does not swing from seed to seed.
    """
    omega = np.linspace(0.5, 2.0, d)
    lower = np.linalg.cholesky(_spd(rng, d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = lower @ lower.T
    k = lower @ q @ np.diag(omega**2) @ q.T @ lower.T
    k = (k + k.T) / 2.0
    j3 = _symmetric(rng, d, 0.05)
    j4 = _symmetric(rng, d, 0.05)
    # nu = 0 blocks: A = J1 - 2 J3 and C = J2 - 2 J4 = -K
    return {"d": d, "n": 2, "J1": (a + 2.0 * j3).tolist(), "J2": (2.0 * j4 - k).tolist(),
            "J3": j3.tolist(), "J4": j4.tolist()}


def check_well_posed(system: dict, nu: float = 0.0, sep_tol: float = 1e-6,
                     rank_tol: float = 1e-8) -> np.ndarray:
    """Classical nu-pencil roots from scipy's eig of the block companion form.

    Raises IllPosed unless the leading block is nonsingular and the 2d roots
    are finite and pairwise separated by sep_tol * max(1, |root|).
    """
    d = system["d"]
    w = 2.0 * (nu - 1.0)
    a = np.asarray(system["J1"]) + w * np.asarray(system["J3"])
    c = -(np.asarray(system["J2"]) + w * np.asarray(system["J4"]))
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= rank_tol * s[0]:
        raise IllPosed(f"leading block singular: sigma_min {s[-1]:.2e}, "
                       f"sigma_max {s[0]:.2e}")
    eye, zero = np.eye(d), np.zeros((d, d))
    # A lam^2 + C = 0 (J5 = 0) as [[0, I], [-C, 0]] v = lam [[I, 0], [0, A]] v
    roots = scipy.linalg.eigvals(np.block([[zero, eye], [-c, zero]]),
                                 np.block([[eye, zero], [zero, a]]))
    if not np.all(np.isfinite(roots)):
        raise IllPosed("infinite eigenvalue in the companion pencil")
    gap = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gap, np.inf)
    scale = np.maximum(1.0, np.maximum(np.abs(roots)[:, None], np.abs(roots)[None, :]))
    if np.any(gap < sep_tol * scale):
        raise IllPosed("companion pencil has a multiple root")
    return roots


def _central_theta(omega: float, eps: float) -> float:
    """Interior symbol of the central difference's adjoint∘forward at i*omega."""
    return math.sin(omega * eps) ** 2 / eps**2


def _tuned_d3_system(eps: float, omegas=(1.0, 2.0, 3.0), n: int = 5) -> dict:
    """d=3 system whose discrete nu=0 spectrum holds +-i w (central difference)."""
    j2 = -np.eye(3)
    j4 = 0.5 * j2 + 0.5 * np.diag([_central_theta(w, eps) for w in omegas])
    return {"d": 3, "n": n, "J1": np.eye(3).tolist(), "J2": j2.tolist(),
            "J3": np.zeros((3, 3)).tolist(), "J4": j4.tolist()}


def _job(name: str, kind: str, argv: list, **extra) -> dict:
    return {"name": name, "kind": kind, "argv": argv, **extra}


def _cli_args(command: str, config: str, out: str, *more: str) -> list:
    return [command, *more, "--config", config, "--out", out]


def _gamma_surface(rng: np.random.Generator) -> tuple[dict, list, list]:
    cfg = {**_reference_system(3), "operator": CENTRAL,
           "time": {"t0": 0.0, "tf": 1.0, "M": 200},
           "boundary": _real_boundary(rng, 3, 2),
           "sweep": {"gamma_grid": {"min": -1.0, "max": 1.0, "points": 41}}}
    warm = {**cfg, "sweep": {"gamma_grid": {"min": -1.0, "max": 1.0, "points": 2}}}
    configs = {"gamma.json": cfg, "warmup.json": warm}
    jobs = [_job("gamma", "gamma", _cli_args("error-surface", "gamma.json",
                                             "out/gamma", "--grid", "gamma"))]
    return configs, jobs, _cli_args("error-surface", "warmup.json", "out/warmup",
                                    "--grid", "gamma")


def _spectra_sweep(rng: np.random.Generator) -> tuple[dict, list, list]:
    configs, jobs = {}, []
    for d in SWEEP_DIMS:
        for i in range(SWEEP_SYSTEMS):
            system = random_system(rng, d)
            check_well_posed(system)
            for tag, operator, order in SWEEP_OPERATORS:
                name = f"d{d}_s{i}_{tag}"
                configs[f"{name}.json"] = {
                    **system, "operator": operator,
                    "time": {"t0": 0.0, "tf": 1.0, "M": 10},
                    "sweep": {"epsilons": SWEEP_EPSILONS, "nu": 0.0}}
                jobs.append(_job(name, "sweep", _cli_args(
                    "converge", f"{name}.json", f"out/{name}"), order=order))
    first = jobs[0]["name"]
    configs["warmup.json"] = {**configs[f"{first}.json"],
                              "sweep": {"epsilons": SWEEP_EPSILONS[-2:], "nu": 0.0}}
    return configs, jobs, _cli_args("converge", "warmup.json", "out/warmup")


def _long_grid(rng: np.random.Generator) -> tuple[dict, list, list]:
    solve = {**_reference_system(3), "operator": CENTRAL,
             "time": {"t0": 0.0, "tf": 40.0, "M": 4000},
             "boundary": _real_boundary(rng, 3, 2)}
    eps = math.pi / 15
    amps = rng.uniform(0.5, 1.5, 12) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 12))
    choreo = {**_tuned_d3_system(eps), "operator": CENTRAL,
              "time": {"t0": 0.0, "tf": 1500 * eps, "M": 1500},
              "choreo": {"which": ["del"], "amplitudes_re": amps.real.tolist(),
                         "amplitudes_im": amps.imag.tolist()}}
    warm = {**solve, "time": {"t0": 0.0, "tf": 4.0, "M": 400}}
    configs = {"solve.json": solve, "choreo.json": choreo, "warmup.json": warm}
    # The choreography's nu=n pencil has real modes growing ~2.5x per step, so
    # marching it from rounded seeds overflows whatever the program does:
    # its nodes get the residual and round-trip checks only.
    jobs = [_job("solve", "grid", _cli_args("solve", "solve.json", "out/solve",
                                            "--which", "del"),
                 csv="out/solve/traj_del.csv", march=True),
            _job("choreo", "grid", _cli_args("choreo", "choreo.json", "out/choreo"),
                 csv="out/choreo/choreo_del.csv", march=False)]
    return configs, jobs, _cli_args("solve", "warmup.json", "out/warmup",
                                    "--which", "del")


_GENERATORS = {"gamma_surface": _gamma_surface, "spectra_sweep": _spectra_sweep,
             "long_grid": _long_grid}
WORKLOADS = tuple(_GENERATORS)


def _dumps(obj) -> str:
    """Canonical JSON text: the same object always gives the same bytes."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_inputs(workload: str, seed: int, out_dir) -> Path:
    """Write the workload's configs and manifest.json; return the manifest path."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    configs, jobs, warmup = _GENERATORS[workload](rng)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in configs.items():
        (out_dir / name).write_text(_dumps(cfg))
    manifest = {"workload": workload, "seed": seed, "why": WHY[workload],
                "configs": sorted(c for c in configs if c != "warmup.json"),
                "jobs": jobs, "warmup_argv": warmup}
    path = out_dir / "manifest.json"
    path.write_text(_dumps(manifest))
    return path
