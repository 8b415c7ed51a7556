"""Command-line front end: JSON configs in, CSV/SVG artifacts out.

Subcommands: validate, spectrum, solve, error-surface, converge, choreo.  Exit codes: 0
success, 2 config error, 3 assumption violation, 4 numerical failure.  README.md documents
the commands and the config format, `FIELDS`.  The CLI only parses a config, dispatches to
the library and writes what it returns; the experiments (the eps-sweep and the error-surface
engine) live in `convergence`.  An error surface's `metric` (as -log) or `error` is the
Euclidean norm of continuous - discrete over the window nodes and `max_error` its max norm;
each cell's status is "ok" or the class name of the error its lone solve raises.  A run
imports only what its command computes with: `periodic` is loaded by `choreo` alone.
"""
from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import celsolve, convergence, delsolve, model, numkernel, pencil, scaleop
from .model import LagrangianSpec
from .scaleop import ScaleOperator


class ConfigParse(Exception):
    """Raised when the configuration file cannot be interpreted or its fields disagree."""


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERICAL = 4

# periodic's NotChoreographic and DelayResonant are AssumptionViolations
ASSUMPTION_ERRORS = (celsolve.AssumptionViolation, pencil.LeadingSingular)
NUMERICAL_ERRORS = (numkernel.NumericalFailure, numkernel.Singular,
                    celsolve.SingularBoundarySystem, delsolve.LeadingBlockSingular,
                    delsolve.WindowExceeded, scaleop.OutOfRange, model.NoRealSolution,
                    model.SymmetryInfeasible)


def _count(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"must be at least 1 and an integer, got {value!r}")
    return int(value)


def _finite(value, positive: bool = False) -> float:
    number = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(number) or positive and not number > 0:
        raise ValueError(f"must be {'positive' if math.isfinite(number) else 'finite'}, "
                         f"got {value!r}")
    return number


def _one_of(value, names: tuple):
    if not isinstance(value, type(names[0])) or value not in names:
        raise ValueError(f"must be one of {', '.join(map(json.dumps, names))}, got {value!r}")
    return value


def _listed(values, convert) -> list:
    if not isinstance(values, list) or not values:
        raise ValueError(f"must be a non-empty list, got {values!r}")
    return [convert(v) for v in values]


def _array(value, shape=None) -> np.ndarray:
    """A finite array of numbers of shape (any for None): a vector in any shape, a matrix flat."""
    cells = np.asarray(value, dtype=object)
    types = set(map(type, cells.flat))
    array = cells.astype(complex if complex in types else float)
    if bool in types or not np.isfinite(array).all():
        raise ValueError("entries must be finite numbers (true and false are not)")
    if shape and array.size == math.prod(shape) and (array.ndim == 1 or len(shape) == 1):
        array = array.reshape(shape)
    if shape and array.shape != shape:
        raise ValueError(f"must have shape {shape}, got {array.shape}")
    return array


def _complex(parts: dict, shape) -> np.ndarray:
    """The array of shape with real part parts[""] or parts["_re"], imaginary parts["_im"]."""
    if {"", "_re"} <= parts.keys():
        raise ValueError("give the real part once, plain or as _re")
    value = parts.get("_re", parts.get("")).astype(complex)
    return _array(value + 1j * parts["_im"] if "_im" in parts else value, shape)


CONVERTERS = {  # every kind but an object's and an array's
    "count": _count, "finite": _finite, "positive": partial(_finite, positive=True),
    "bool": partial(_one_of, names=(True, False)),
    "counts": partial(_listed, convert=_count), "finites": partial(_listed, convert=_finite),
    "positives": partial(_listed, convert=partial(_finite, positive=True)),
    "family": partial(_one_of, names=("central", "k_family")),
    "settings": lambda v: _listed([v] if isinstance(v, str) else v,  # one, or a list
                                  partial(_one_of, names=("cel", "del")))}
REQUIRED = "required"

# path: (kind, default), read in this order (d before the matrices and vectors it shapes,
# operator.N before operator.gamma): the config format.  A REQUIRED field must be given; a
# None default leaves an absent field or block out of its mapping; a block's {} default fills
# in its fields' defaults.  A complex field may also come as path_re and path_im (README.md).
FIELDS = {
    "d": ("count", REQUIRED), "n": ("count", REQUIRED), "J1": ("matrix", REQUIRED),
    "J2": ("matrix", REQUIRED), "J3": ("matrix", None), "J4": ("matrix", None),
    "J5": ("matrix", None), "J6": ("vector", None), "J7": ("vector", None),
    "time": ("object", REQUIRED), "time.t0": ("finite", REQUIRED),
    "time.tf": ("finite", REQUIRED), "time.M": ("count", REQUIRED),
    "operator": ("object", REQUIRED), "operator.family": ("family", None),
    "operator.k": ("finite", 0.0), "operator.N": ("count", None),
    "operator.gamma": ("complex (2N + 1)", None),
    "targets": ("object", None), "targets.omega": ("finites", None),
    "targets.tol": ("positive", 1e-6), "targets.j4_free": ("finite", None),
    "targets.discrete": ("bool", False),
    "boundary": ("object", None), "boundary.x_t0": ("complex", None),
    "boundary.x_tf": ("complex", None), "boundary.head": ("complex", None),
    "boundary.tail": ("complex", None),
    "amplitudes": ("object", None), "amplitudes.xs": ("complex", None),
    "amplitudes.particles": ("complex", None), "amplitudes.random": ("bool", False),
    "amplitudes.scale": ("finite", 1.0),
    "choreo": ("object", {}), "choreo.which": ("settings", ["cel", "del"]),
    "choreo.amplitudes": ("complex", None),
    "sweep": ("object", {}), "sweep.epsilons": ("positives", None), "sweep.nu": ("finite", 0.0),
    "sweep.gamma_grid": ("object", {}), "sweep.gamma_grid.min": ("finite", -1.0),
    "sweep.gamma_grid.max": ("finite", 1.0), "sweep.gamma_grid.points": ("count", 41),
    "sweep.k_grid": ("object", {}), "sweep.k_grid.ks": ("finites", [-1.0, -0.5, 0.0, 0.5, 1.0]),
    "sweep.k_grid.Ms": ("counts", None),  # [time.M] when left out
}


@cache  # one table a block
def _rows(prefix: str) -> tuple[dict, set]:
    """The rows by key of the block at prefix ("" or "<path>."), and the keys it may hold."""
    rows = {path[len(prefix):]: row for path, row in FIELDS.items()
            if path.startswith(prefix) and "." not in path[len(prefix):]}
    return rows, rows.keys() | {key + part for key, (kind, _) in rows.items()
                                if kind.startswith("complex") for part in ("_re", "_im")}


def _read(path: str, convert, *args):
    """convert(*args) for the field path: a TypeError, ValueError or OverflowError names it."""
    try:
        return convert(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigParse(f"malformed {path}: {exc}") from exc


def _walk(block, prefix: str, out: dict, top: dict) -> None:
    """Fill out with the typed fields of the block at prefix ("" or "<path>."), by FIELDS;
    top holds the top level read so far: d shapes a matrix, operator.N (1 for a family) gamma."""
    if not isinstance(block, dict):
        raise ConfigParse(f"malformed {prefix[:-1] or 'config'}: expected an object, got "
                          f"{type(block).__name__}")
    rows, keys = _rows(prefix)
    if unknown := sorted(block.keys() - keys):
        raise ConfigParse(f"unknown field {prefix}{unknown[0]}")
    for key, (kind, default) in rows.items():
        d, N, path = top.get("d"), top.get("operator", {}).get("N", 1), prefix + key
        shape = {"matrix": (d, d), "vector": (d,), "complex (2N + 1)": (2 * N + 1,)}.get(kind)
        if kind.startswith("complex"):
            parts = {part: _read(path + part, _array, block[key + part])
                     for part in ("", "_re", "_im") if key + part in block}
            if parts.keys() == {"_im"}:
                raise ConfigParse(f"missing field {path}")
            if parts:
                out[key] = _read(path, _complex, parts, shape)
        elif key not in block and default is REQUIRED:
            raise ConfigParse(f"missing field {path}")
        elif kind == "object" and (key in block or default is not None):
            _walk(block.get(key, default), path + ".", out.setdefault(key, {}), top)
        elif key in block or default is not None:  # a default too: each config owns its lists
            out[key] = _read(path, CONVERTERS.get(kind) or partial(_array, shape=shape),
                             block.get(key, default))


def _shaped(value: np.ndarray, shape: tuple, path: str, context: str = "") -> np.ndarray:
    """A boundary value or amplitudes, once its shape is checked against its command's."""
    if value.shape != shape:
        raise ConfigParse(f"{path} must have shape {shape}, got {value.shape}{context}")
    return value


@dataclass
class ExperimentConfig:
    """A parsed config: system, grid, operator weights, typed blocks (None: left out)."""

    spec: LagrangianSpec
    t0: float
    tf: float
    M: int
    gamma: np.ndarray
    targets: dict | None
    boundary: dict | None
    amplitudes: dict | None
    choreo: dict
    sweep: dict

    @property
    def epsilon(self) -> float:
        return (self.tf - self.t0) / self.M

    @property
    def n(self) -> int:
        return self.spec.n

    def operator(self, epsilon: float | None = None) -> ScaleOperator:
        """The config's operator on the grid of step epsilon, the config's own by default."""
        return ScaleOperator(self.gamma, self.epsilon if epsilon is None else epsilon)


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    """raw read by FIELDS, then checked between its fields."""
    top = {}
    _walk(raw, "", top, top)
    d, n, time, op, targets = top["d"], top["n"], top["time"], top["operator"], top.get("targets")
    t0, tf, M = time["t0"], time["tf"], time["M"]
    epsilon = (tf - t0) / M
    if not 0 < epsilon < math.inf:
        raise ConfigParse("time block needs tf > t0, by a finite step (tf - t0)/M > 0")
    if ("family" in op) == ("N" in op) or ("N" in op) != ("gamma" in op):
        raise ConfigParse("operator needs a family, or N with gamma")
    gamma = op["gamma"] if "N" in op else scaleop.k_family(epsilon, op["k"]).gamma \
        if op["family"] == "k_family" else scaleop.central_difference(epsilon).gamma
    boundary, amplitudes, sweep = top.get("boundary", {}), top.get("amplitudes"), top["sweep"]
    for first, second in (("x_t0", "x_tf"), ("head", "tail")):
        if (first in boundary) != (second in boundary):
            raise ConfigParse(f"missing field boundary.{second if first in boundary else first}")
    if amplitudes is not None and not amplitudes["random"] and "xs" not in amplitudes:
        raise ConfigParse("missing field amplitudes.xs")
    if sweep["gamma_grid"]["min"] > sweep["gamma_grid"]["max"]:
        raise ConfigParse("sweep.gamma_grid needs min <= max")
    sweep["k_grid"].setdefault("Ms", [M])
    try:
        spec = LagrangianSpec(d, n, *(top.get(f"J{i}") for i in range(1, 8)))
        if "J4" not in top:
            if targets is None or "j4_free" not in targets or d != 2:
                raise ConfigParse("J4 must be given directly, or via targets with j4_free "
                                  "for d = 2")
            if len(targets.get("omega", [])) != 2:
                raise ConfigParse("missing field targets.omega" if "omega" not in targets
                                  else "targets.omega must list 2 frequencies for d = 2")
            spec = replace(spec, J4=model.construct_j4(
                spec.J1, spec.J2, spec.J3, *targets["omega"], targets["j4_free"], spec.J5,
                ScaleOperator(gamma, epsilon) if targets["discrete"] else None))
    except ValueError as exc:
        raise ConfigParse(str(exc)) from exc
    return ExperimentConfig(spec, t0, tf, M, gamma, targets, top.get("boundary"), amplitudes,
                            top["choreo"], sweep)


# ---------------------------------------------------------------------------
# artifact writers


CSV_BLOCK = 1024  # rows formatted and written at a time


def write_csv(path, header: list[str], rows) -> None:
    """The header line, then one line per row: numeric cells (int, float, numpy float)
    as '%.17g', which reads back to the same double, and other cells as str.  The cell
    types of the first row make one %-template for the whole table, so every row must
    share them.  Rows are formatted and written CSV_BLOCK at a time, so a long table is
    never held as text at once.  Trajectories have their own writer,
    `write_trajectory_csv`."""
    rows = list(rows)
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_BLOCK):
            block = rows[start:start + CSV_BLOCK]
            if start == 0:
                line = ",".join("%.17g" if isinstance(v, (int, float, np.floating)) else "%s"
                                for v in block[0]) + "\n"
            f.write((line * len(block)) % tuple(chain.from_iterable(block)))


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#e377c2"]


def write_svg(path, traj: np.ndarray, times: np.ndarray) -> None:
    """One polyline per particle over the first two coordinates (real parts) of traj
    (n, T, d) at the T times.

    For d = 1 the abscissa is time.  The viewBox is autoscaled to the data
    with a 1% margin; output bytes are deterministic for fixed input.
    """
    traj = np.asarray(traj)
    n, count, d = traj.shape
    if d >= 2:
        xs = traj[:, :, 0].real
        ys = -traj[:, :, 1].real  # svg y grows downward
    else:
        xs = np.broadcast_to(times, (n, count))
        ys = -traj[:, :, 0].real
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    w = (x1 - x0) or 1.0
    h = (y1 - y0) or 1.0
    mx, my = 0.01 * w, 0.01 * h
    stroke = 0.004 * max(w, h)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0 - mx:.6g} {y0 - my:.6g} {w + 2 * mx:.6g} {h + 2 * my:.6g}">',
    ]
    points = " ".join(["%.6g,%.6g"] * count)
    for j in range(n):
        pts = points % tuple(np.stack([xs[j], ys[j]], axis=1).ravel().tolist())
        color = _PALETTE[j % len(_PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="{stroke:.6g}" points="{pts}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", newline="\n")


def write_trajectory_csv(path, times: np.ndarray, values: np.ndarray) -> None:
    """values (n, T, d) at the T times: the header, then one row a node and particle,
    (t, particle, c0_re, c0_im, ..., c{d-1}_re, c{d-1}_im), node by node, every number
    '%.17g' as in `write_csv`.  A node is one %-template whose particle indices are
    literal text, and its time is formatted once for its n rows.  Whole nodes of at most
    CSV_BLOCK rows are formatted and written at a time."""
    n, count, d = values.shape
    node = "".join(f"%s,{j}" + ",%.17g" * (2 * d) + "\n" for j in range(n))
    per = max(CSV_BLOCK // n, 1)  # nodes a block
    times = np.asarray(times).tolist()
    with open(path, "w", newline="\n") as f:
        f.write(",".join(["t", "particle", *(f"c{c}_{part}" for c in range(d)
                                             for part in ("re", "im"))]) + "\n")
        for start in range(0, count, per):
            block = values[:, start:start + per].transpose(1, 0, 2)
            cells = np.empty((len(block), n, 1 + 2 * d), dtype=object)
            cells[:, :, 0] = np.array(["%.17g" % t for t in times[start:start + per]],
                                      dtype=object)[:, None]
            cells[:, :, 1::2], cells[:, :, 2::2] = block.real, block.imag
            f.write((node * len(block)) % tuple(cells.ravel().tolist()))


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `write_trajectory_csv`; returns (times, values (n, M+1, d)).

    The body is parsed in one pass of `np.loadtxt` and copied into values, real and
    imaginary parts apart, so signed zeros and every other double come back bit
    for bit.  A cell that is not a number, rows of unequal length, and nodes that are not
    particles 0..n-1 in turn at one t each (a missing or repeated row) raise ValueError.
    The file records n nowhere, so n is 1 + the largest particle index: a file that lacks
    the last particle at every node reads as n - 1 particles, and one whose rows all carry
    particle 0 is, byte for byte, the file of one particle with each time repeated."""
    with open(path) as f:
        header, cells = f.readline(), np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
    n = int(np.clip(cells[:, 1].max(), 0, len(cells))) + 1  # else the checks below fail
    nodes = cells[:len(cells) // n * n].reshape(-1, n, cells.shape[1]).transpose(1, 0, 2)
    t = nodes[:, :, 0].view(np.uint64)  # bit for bit, nan and -0.0 too
    if len(cells) % n or (nodes[:, :, 1] != np.arange(n)[:, None]).any() or (t != t[0]).any():
        raise ValueError("rows must make whole nodes: particles 0..n-1 in turn, at one t")
    values = np.zeros(nodes.shape[:2] + ((len(header.split(",")) - 2) // 2,), dtype=complex)
    values.real, values.imag = nodes[:, :, 2::2], nodes[:, :, 3::2]
    return nodes[0, :, 0], values


# ---------------------------------------------------------------------------
# solution assembly helpers


def _amplitudes(cfg: ExperimentConfig, op: ScaleOperator | None, seed: int):
    """(x_s amplitudes (size,), particle amplitudes (n - 1, size)), size the root count on
    op's grid (None: continuous time): seeded random ones, or the amplitudes block's xs and
    particles (zeros when left out)."""
    block, size, n = cfg.amplitudes, pencil.root_count(cfg.spec, op), cfg.n
    if block["random"]:  # the parts of xs, then of the particles', in turn
        rng = np.random.default_rng(seed)
        return [block["scale"] * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for shape in ((size,), (n - 1, size))]
    particles = block.get("particles", np.zeros((n - 1, size), dtype=complex))
    return (_shaped(block["xs"], (size,), "amplitudes.xs"),
            _shaped(particles, (n - 1, size), "amplitudes.particles"))


def _reported(kind: str, solution, report: celsolve.DirichletReport):
    """solution, once the condition numbers of its Dirichlet solve's boundary systems are
    printed."""
    print(f"{kind} boundary systems: xs_cond = {report.xs_cond:.3e}, particle_conds = "
          f"[{', '.join(f'{c:.3e}' for c in report.particle_conds)}]")
    return solution


def cel_solution(cfg: ExperimentConfig, seed: int) -> celsolve.SystemSolution:
    spec, n, boundary = cfg.spec, cfg.n, cfg.boundary or {}
    if "x_t0" in boundary:
        ends = (_shaped(boundary[key], (n, spec.d), f"boundary.{key}") for key in ("x_t0", "x_tf"))
        return _reported("cel", *celsolve.dirichlet_cel(spec, n, cfg.t0, cfg.tf, *ends))
    if cfg.amplitudes:
        return celsolve.general_solution_cel(spec, n, *_amplitudes(cfg, None, seed))
    raise ConfigParse("a continuous solve needs boundary.x_t0 and boundary.x_tf, or amplitudes")


def _del_solution(cfg: ExperimentConfig, seed: int) -> delsolve.DelSolution:
    spec, n, op = cfg.spec, cfg.n, cfg.operator()
    if "head" in (cfg.boundary or {}):
        head, tail = (_shaped(cfg.boundary[key], (n, 2 * op.N, spec.d), f"boundary.{key}")
                      for key in ("head", "tail"))
    elif cfg.amplitudes and not cfg.boundary:
        return delsolve.general_solution_del(spec, op, n, *_amplitudes(cfg, op, seed), cfg.t0,
                                             cfg.M)
    else:  # two-point boundary: match the continuous solution (which names a missing block)
        cel = cel_solution(cfg, seed)
        head, tail = (convergence.node_values(cel, cfg.t0, cfg.epsilon, nodes) for nodes in
                      (np.arange(2 * op.N), np.arange(cfg.M - 2 * op.N + 1, cfg.M + 1)))
    return _reported("del", *delsolve.dirichlet_del(spec, op, n, cfg.t0, cfg.M, head, tail))


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    spec, n, op = cfg.spec, cfg.n, cfg.operator()
    violations = model.validate_spec(spec)
    conds = scaleop.check_operator_conditions(op)
    reports = {"continuous": pencil.check_cel_assumptions(spec, n),
               "discrete": pencil.check_del_assumptions(spec, op, n)}

    # rho = max |lam|^2 over the nu = 0 classical roots (the spec keeps them)
    classical = pencil.spectra(spec, [None], 0)
    rho = math.inf if classical.failures[0] else float(np.abs(classical.lam).max()) ** 2
    edge = abs(op.gamma_at(-op.N) * op.gamma_at(op.N))
    bound = math.inf if edge == 0 else 10.0 * (cfg.tf - cfg.t0) ** 2 * rho / edge

    deviation = None
    if cfg.targets and "omega" in cfg.targets:
        omega = np.sort(np.abs(cfg.targets["omega"]))
        tol, discrete = cfg.targets["tol"], cfg.targets["discrete"]
        roots = (pencil.spectra(spec, [op], 0) if discrete else classical).modes(0).lam.roots
        if discrete:  # the compact window drops the divergent roots
            roots = roots[np.abs(roots) <= 2 * omega.max() + 1.0]
        measured = np.sort(roots.imag[roots.imag > 0])
        deviation = (float(np.abs(measured - omega).max()) if len(measured) == len(omega)
                     else math.inf)

    for v in violations:
        print(f"violation: {v}")
    print(f"operator conditions: sum_zero={conds.sum_zero} "
          f"derivative_normalized={conds.derivative_normalized}")
    for kind, reasons in reports.items():
        print(f"{kind} assumptions hold: {not reasons}")
        for reason in reasons:
            print(f"{kind} assumption fails: {reason}")
    if math.isfinite(bound) and cfg.M**2 < bound:  # no M meets an infinite bound
        print(f"warning: grid too coarse, M^2 = {cfg.M**2} < {bound:.6g} "
              "(raise M for a meaningful discrete approximation)")
    if deviation is not None:
        print(f"target spectrum deviation: {deviation:.3e} (ok={deviation <= tol})")


def cmd_spectrum(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    """Roots of the nu=0 and nu=n pencils, with eigenpair backward errors as residual;
    convergent_flag marks roots in the compact window (`convergence.compact_radius`)."""
    spec, op = cfg.spec, cfg.operator() if args.which == "del" else None
    paths = []
    for nu, tag in ((0, "nu0"), (cfg.n, "nun")):
        classical = pencil.classical_spectrum(spec, nu)  # first: a failure reads as its own
        lam = pencil.spectra(spec, [op], nu).modes(0).lam
        kept = np.abs(lam.roots) <= convergence.compact_radius(classical)
        rows = [[z.real, z.imag, r, int(k)]
                for z, r, k in zip(lam.roots, lam.residuals, kept)]
        path = out_dir / f"spectrum_{args.which}_{tag}.csv"
        write_csv(path, ["re", "im", "residual", "convergent_flag"], rows)
        paths.append(path)
    for p in paths:
        print(f"wrote {p}")


def _write_trajectory(stem: Path, times: np.ndarray, values: np.ndarray) -> list[Path]:
    """Write values (n, T, d) at the T times to stem.csv (`write_trajectory_csv`) and
    stem.svg (`write_svg`); returns the paths."""
    paths = [stem.with_suffix(".csv"), stem.with_suffix(".svg")]
    write_trajectory_csv(paths[0], times, values)
    write_svg(paths[1], values, times)
    return paths


def cmd_solve(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    times = cfg.t0 + cfg.epsilon * np.arange(cfg.M + 1)
    if args.which == "cel":
        sol = cel_solution(cfg, args.seed)
        values = np.array([p.value(times) for p in sol.particles])
    else:
        values = _del_solution(cfg, args.seed).sample()[0].values
    for p in _write_trajectory(out_dir / f"traj_{args.which}", times, values):
        print(f"wrote {p}")


def cmd_error_surface(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    """Window errors of the discrete solve over a grid of operators, a block of them for
    each M, all held to one continuous solve; a failed cell's Euclidean error is the cap 3M
    and its max_error nan.  The k grid prints each k's order over M, fitted to its ok
    cells' max_error (the Euclidean error sums over the M - 4N + 1 window nodes, so its
    slope reads about half an order low).  One equation is solved per
    `convergence.equation_classes` class (reversal when J5 = 0, reversal and negation when
    J6 = 0).  A gamma range with min = -max has a mirror-symmetric axis with exact
    endpoints, so (a, b) and (-a, -b) can share a class; other ranges are `np.linspace`'s.
    k_family(-k) is k_family(k) reversed and negated."""
    gamma = args.grid == "gamma"
    if gamma:
        lo, hi, points = (cfg.sweep["gamma_grid"][key] for key in ("min", "max", "points"))
        axis = convergence.symmetric_axis(hi, points) if lo == -hi else \
            np.linspace(lo, hi, points)
        first, last = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))  # a-major
        blocks = [(cfg.M, zip(first.tolist(), last.tolist()),
                   np.stack([first, -(first + last), last], axis=1).astype(complex))]
    else:
        ks, Ms = cfg.sweep["k_grid"]["ks"], cfg.sweep["k_grid"]["Ms"]
        blocks = [(M, [(k, M) for k in ks],
                   np.array([scaleop.k_family((cfg.tf - cfg.t0) / M, k).gamma for k in ks]))
                  for M in Ms]
    cel, rows, solved = cel_solution(cfg, args.seed), [], 0
    for M, labels, gammas in blocks:
        problem = cfg.spec, cfg.n, cfg.t0, M, (cfg.tf - cfg.t0) / M
        reference = convergence.window_reference(cel, *problem[2:], 1)
        errors, max_errors, status, count = convergence.window_errors(*problem, gammas, reference)
        solved += count
        for label, err, max_err, s in zip(labels, errors, max_errors, status):
            err = err if s == "ok" else 3.0 * M
            rows.append([*label, -math.log(max(err, 1e-300)) if gamma else err, max_err, s])
    path = out_dir / f"error_surface_{args.grid}.csv"
    write_csv(path, [*(["gamma_m1_re", "gamma_1_re", "metric"] if gamma
                       else ["k", "M", "error"]), "max_error", "status"], rows)
    print(f"solved {solved} distinct equations for {len(rows)} cells")
    for k in [] if gamma else ks:  # over M; a failed cell's nan max_error enters no fit
        cells = np.array([(m, max_err) for kk, m, _, max_err, _ in rows if kk == k])
        order = convergence.fit_order((cfg.tf - cfg.t0) / cells[:, 0], cells[:, 1])
        print(f"estimated order (k = {k:g}): {order:.4f}")
    print(f"wrote {path}")


def cmd_converge(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    if "epsilons" not in cfg.sweep:
        raise ConfigParse("converge needs sweep.epsilons")
    epsilons = cfg.sweep["epsilons"]
    result = convergence.epsilon_sweep(cfg.spec, cfg.operator, cfg.sweep["nu"], epsilons)
    rows = [[eps, dist, perr, note or ""] for eps, dist, perr, note in zip(
        epsilons, result.distances, result.pencil_errors, result.notes)]
    path = out_dir / "converge.csv"
    write_csv(path, ["epsilon", "hausdorff", "pencil_error", "note"], rows)
    print(f"estimated order: {result.estimated_order:.4f}")
    print(f"wrote {path}")


def cmd_choreo(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    from . import periodic  # only this command builds choreographies

    spec, n, which, given = cfg.spec, cfg.n, cfg.choreo["which"], cfg.choreo.get("amplitudes")
    times = cfg.t0 + cfg.epsilon * np.arange(cfg.M + 1)
    amplitudes = []  # every setting's, checked before any choreography is built
    for kind in which:
        size = pencil.root_count(spec, cfg.operator() if kind == "del" else None)
        amplitudes.append(np.ones(size, dtype=complex) if given is None else _shaped(
            given, (size,), "choreo.amplitudes", f" for the {kind} setting"))
    written = []
    for kind, amps in zip(which, amplitudes):
        if kind == "cel":
            ch, sol = periodic.build_choreography_cel(spec, n, amps)
        else:
            ch, sol = periodic.build_choreography_del(spec, cfg.operator(), n,
                                                      amps, cfg.t0, cfg.M)
        rep = periodic.verify_choreography(ch, sol, spec)
        print(f"{kind}: period T = {ch.T:.12g}, delay T/n = {ch.delay:.12g}, "
              f"checks ok = {rep.all_ok}")
        print(f"{kind}: errors periodicity {rep.periodicity_error:.3e}, delay "
              f"{rep.delay_error:.3e}, x_s constancy {rep.xs_constancy_error:.3e}, "
              f"residual {rep.residual_error:.3e}")
        values = np.array([p.value(times) for p in sol.particles])
        written.extend(_write_trajectory(out_dir / f"choreo_{kind}", times, values))
    for p in written:
        print(f"wrote {p}")


COMMANDS = ("validate", "spectrum", "solve", "error-surface", "converge", "choreo")


@cache  # one parser a process, built on first use: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choreoqep",
        description="Quadratic n-particle systems: solve, classify, export.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--which", choices=["cel", "del"], default="cel")
    parser.add_argument("--grid", choices=["gamma", "k"], default="gamma")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    """Run one command: `cmd_<command>(cfg, args, out_dir)`, looked up in the module at
    call time, so that a wrapper set on that attribute (a tracer's) is the one called."""
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        globals()["cmd_" + args.command.replace("-", "_")](cfg, args, out_dir)
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ASSUMPTION_ERRORS as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
