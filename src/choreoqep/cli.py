"""Command-line front end: JSON configs in, CSV/SVG artifacts out.

Subcommands: validate, spectrum, solve, error-surface, converge, choreo.  Exit codes: 0
success, 2 config error, 3 assumption violation, 4 numerical failure.  README.md documents
the commands, the config blocks with their defaults and the forms of a complex value.  The
CLI only parses a config, dispatches to the library and writes what it returns; the
experiments (the eps-sweep and the error-surface engine) live in `convergence`.  An error
surface's `metric` (as -log) or `error` is the Euclidean norm of continuous - discrete over
the window nodes and `max_error` its max norm; each cell's status is "ok" or the class name
of the error its lone solve raises.  A run imports only what its command computes with:
`periodic` is loaded by `choreo` alone.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
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


def _matrix(raw, d: int, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape == (d * d,):
        arr = arr.reshape(d, d)  # row-major flat form
    if arr.shape != (d, d):
        raise ConfigParse(f"{name} must be {d}x{d} (or flat length {d * d})")
    return arr


def _vector(raw, d: int, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float).ravel()
    if arr.shape != (d,):
        raise ConfigParse(f"{name} must have length {d}")
    return arr


def _field(block: dict, key: str, convert, default, where: str):
    """convert(block[key]), or convert(default) when key is absent, for the config field
    where.key: a value that convert rejects (TypeError, ValueError) is a ConfigParse naming
    the field.  Only the reading is guarded, so that no library error is relabelled."""
    try:
        return convert(block.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"malformed {where}.{key}: {exc}") from exc


def _each(convert):
    """convert applied to each value of a list."""
    return lambda values: [convert(v) for v in values]


def _at_least_one(value) -> int:
    count = int(value)
    if count < 1:
        raise ValueError(f"must be at least 1, got {count}")
    return count


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


def _positive(value) -> float:
    number = _finite(value)
    if not number > 0:
        raise ValueError(f"must be positive, got {number}")
    return number


def _finite_array(value) -> np.ndarray:
    array = np.asarray(value, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError("entries must be finite")
    return array


def _kinds(value) -> list:
    """'cel', 'del' or a non-empty list of them, as a list."""
    kinds = [value] if isinstance(value, str) else value
    if not isinstance(kinds, list) or not kinds or any(k not in ("cel", "del") for k in kinds):
        raise ValueError(f"must list 'cel' and/or 'del', got {value!r}")
    return kinds


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _given(block: dict | None, name: str) -> bool:
    """Whether block gives the complex value name: it has name, name_re or name_im."""
    return any(key in (block or {}) for key in (name, f"{name}_re", f"{name}_im"))


def _complex_block(block: dict, name: str, shape: tuple, where: str) -> np.ndarray:
    """Read the name / name_re / name_im fields of the config block `where` into a complex
    array of shape, with finite entries."""
    key = f"{name}_re" if f"{name}_re" in block else name
    if block.get(key) is None:
        raise ConfigParse(f"missing field {where}.{name}")
    out = _field(block, key, _finite_array, None, where).astype(complex)
    if block.get(f"{name}_im") is not None:
        out = out + 1j * _field(block, f"{name}_im", _finite_array, None, where)
    if out.shape != shape:
        raise ConfigParse(f"{where}.{name} must have shape {shape}, got {out.shape}")
    return out


@dataclass
class ExperimentConfig:
    """Parsed configuration: system, operator, grid, and optional data blocks."""

    spec: LagrangianSpec
    t0: float
    tf: float
    M: int
    operator_raw: dict
    targets: dict | None = None
    boundary: dict | None = None
    amplitudes: dict | None = None
    choreo: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    @property
    def epsilon(self) -> float:
        return (self.tf - self.t0) / self.M

    @property
    def n(self) -> int:
        return self.spec.n

    def operator(self) -> ScaleOperator:
        return _build_operator(self.operator_raw, self.epsilon)


def _build_operator(raw: dict, epsilon: float) -> ScaleOperator:
    try:
        family = raw.get("family")
        if family == "k_family":
            return scaleop.k_family(epsilon, float(raw.get("k", 0.0)))
        if family == "central":
            return scaleop.central_difference(epsilon)
        if family is not None:
            raise ConfigParse(f"unknown operator family {family!r}")
        if "N" not in raw:
            raise ConfigParse("operator needs a family or N with gamma")
        N = int(raw["N"])
        return ScaleOperator(_complex_block(raw, "gamma", (2 * N + 1,), "operator"), epsilon)
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"malformed operator block: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    try:
        d = int(raw["d"])
        n = int(raw["n"])
        time = raw["time"]
        t0, tf, M = time["t0"], time["tf"], int(time["M"])
        op_raw = dict(raw["operator"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"missing or malformed required field: {exc}") from exc
    t0, tf = (_field(time, key, _finite, None, "time") for key in ("t0", "tf"))
    if not tf > t0:
        raise ConfigParse("time block needs tf > t0")
    if M < 1:
        raise ConfigParse("time block needs M >= 1")
    op = _build_operator(op_raw, (tf - t0) / M)  # fails fast on a malformed operator block
    blocks = {name: raw.get(name) for name in ("targets", "boundary", "amplitudes", "choreo",
                                               "sweep")}
    for name, block in blocks.items():
        if block is not None and not isinstance(block, dict):
            raise ConfigParse(f"{name} must be an object, got {type(block).__name__}")

    targets = blocks["targets"]
    try:
        j1 = _matrix(raw["J1"], d, "J1")
        j2 = _matrix(raw["J2"], d, "J2")
        j3 = _matrix(raw.get("J3", np.zeros(d * d)), d, "J3")
        j5 = _matrix(raw.get("J5", np.zeros(d * d)), d, "J5")
        j6 = _vector(raw.get("J6", np.zeros(d)), d, "J6")
        j7 = _vector(raw.get("J7", np.zeros(d)), d, "J7")
        if "J4" in raw:
            j4 = _matrix(raw["J4"], d, "J4")
        elif targets is not None and d == 2 and "j4_free" in targets:
            omega = [float(w) for w in targets["omega"]]
            if len(omega) != 2:
                raise ConfigParse("targets.omega must list 2 frequencies for d = 2")
            j4 = model.construct_j4(j1, j2, j3, omega[0], omega[1], float(targets["j4_free"]),
                                    j5, op if targets.get("discrete") else None)
        else:
            raise ConfigParse("J4 must be given directly, or via targets with "
                              "j4_free for d = 2")
    except KeyError as exc:
        raise ConfigParse(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"malformed matrix or targets block: {exc}") from exc
    try:
        spec = LagrangianSpec(d, n, j1, j2, j3, j4, j5, j6, j7)
    except ValueError as exc:
        raise ConfigParse(str(exc)) from exc

    return ExperimentConfig(spec, t0, tf, M, op_raw, targets, blocks["boundary"],
                            blocks["amplitudes"], blocks["choreo"] or {}, blocks["sweep"] or {})


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


def _parse_amplitudes(block: dict, size: int, n: int, seed: int):
    """(x_s amplitudes (size,), particle amplitudes (n - 1, size)) of an amplitudes block:
    seeded random ones, or xs and particles given (no particles given reads zeros)."""
    if block.get("random"):
        rng = np.random.default_rng(seed)
        scale = _field(block, "scale", _finite, 1.0, "amplitudes")
        xs = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        ps = scale * (rng.standard_normal((max(n - 1, 0), size))
                      + 1j * rng.standard_normal((max(n - 1, 0), size)))
        return xs, ps
    xs = _complex_block(block, "xs", (size,), "amplitudes")
    if _given(block, "particles"):
        return xs, _complex_block(block, "particles", (n - 1, size), "amplitudes")
    return xs, np.zeros((max(n - 1, 0), size), dtype=complex)


def _reported(kind: str, solution, report: celsolve.DirichletReport):
    """solution, once the condition numbers of its Dirichlet solve's boundary systems are
    printed."""
    print(f"{kind} boundary systems: xs_cond = {report.xs_cond:.3e}, particle_conds = "
          f"[{', '.join(f'{c:.3e}' for c in report.particle_conds)}]")
    return solution


def cel_solution(cfg: ExperimentConfig, seed: int) -> celsolve.SystemSolution:
    spec, n = cfg.spec, cfg.n
    if _given(cfg.boundary, "x_t0"):
        x0 = _complex_block(cfg.boundary, "x_t0", (n, spec.d), "boundary")
        xf = _complex_block(cfg.boundary, "x_tf", (n, spec.d), "boundary")
        return _reported("cel", *celsolve.dirichlet_cel(spec, n, cfg.t0, cfg.tf, x0, xf))
    if cfg.amplitudes:
        size = pencil.root_count(spec, None)
        xs, ps = _parse_amplitudes(cfg.amplitudes, size, n, seed)
        return celsolve.general_solution_cel(spec, n, xs, ps)
    raise ConfigParse("a continuous solve needs boundary.x_t0 and boundary.x_tf, or amplitudes"
                      if cfg.boundary else "solve needs a boundary or amplitudes block")


def _del_solution(cfg: ExperimentConfig, seed: int) -> delsolve.DelSolution:
    spec, n, op = cfg.spec, cfg.n, cfg.operator()
    N = op.N
    if _given(cfg.boundary, "head"):
        head = _complex_block(cfg.boundary, "head", (n, 2 * N, spec.d), "boundary")
        tail = _complex_block(cfg.boundary, "tail", (n, 2 * N, spec.d), "boundary")
    elif cfg.boundary:  # two-point boundary: match the continuous solution
        cel = cel_solution(cfg, seed)
        head, tail = (convergence.node_values(cel, cfg.t0, cfg.epsilon, nodes) for nodes in
                      (np.arange(2 * N), np.arange(cfg.M - 2 * N + 1, cfg.M + 1)))
    elif cfg.amplitudes:
        size = pencil.root_count(spec, op)
        xs, ps = _parse_amplitudes(cfg.amplitudes, size, n, seed)
        return delsolve.general_solution_del(spec, op, n, xs, ps, cfg.t0, cfg.M)
    else:
        raise ConfigParse("solve needs a boundary or amplitudes block")
    return _reported("del", *delsolve.dirichlet_del(spec, op, n, cfg.t0, cfg.M, head, tail))


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    spec, n = cfg.spec, cfg.n
    op = cfg.operator()
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
        omega = np.sort(np.abs(_field(cfg.targets, "omega", partial(np.asarray, dtype=float),
                                      None, "targets")))
        tol = _field(cfg.targets, "tol", float, 1e-6, "targets")
        discrete = bool(cfg.targets.get("discrete"))
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
        block, where = _field(cfg.sweep, "gamma_grid", _object, {}, "sweep"), "sweep.gamma_grid"
        lo, hi, points = (_field(block, "min", float, -1.0, where),
                          _field(block, "max", float, 1.0, where),
                          _field(block, "points", _at_least_one, 41, where))
        axis = convergence.symmetric_axis(hi, points) if lo == -hi else \
            np.linspace(lo, hi, points)
        first, last = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))  # a-major
        blocks = [(cfg.M, zip(first.tolist(), last.tolist()),
                   np.stack([first, -(first + last), last], axis=1).astype(complex))]
    else:
        block, where = _field(cfg.sweep, "k_grid", _object, {}, "sweep"), "sweep.k_grid"
        ks = _field(block, "ks", _each(float), [-1.0, -0.5, 0.0, 0.5, 1.0], where)
        Ms = _field(block, "Ms", _each(_at_least_one), [cfg.M], where)
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
    block = cfg.sweep
    if "epsilons" not in block:
        raise ConfigParse("converge needs sweep.epsilons")
    epsilons = _field(block, "epsilons", _each(_positive), None, "sweep")
    nu = _field(block, "nu", _finite, 0.0, "sweep")
    result = convergence.epsilon_sweep(cfg.spec, partial(_build_operator, cfg.operator_raw),
                                      nu, epsilons)
    rows = [[eps, dist, perr, note or ""] for eps, dist, perr, note in zip(
        epsilons, result.distances, result.pencil_errors, result.notes)]
    path = out_dir / "converge.csv"
    write_csv(path, ["epsilon", "hausdorff", "pencil_error", "note"], rows)
    print(f"estimated order: {result.estimated_order:.4f}")
    print(f"wrote {path}")


def cmd_choreo(cfg: ExperimentConfig, args, out_dir: Path) -> None:
    from . import periodic  # only this command builds choreographies

    spec, n = cfg.spec, cfg.n
    which = _field(cfg.choreo, "which", _kinds, ["cel", "del"], "choreo")
    times = cfg.t0 + cfg.epsilon * np.arange(cfg.M + 1)
    amplitudes = []  # every setting's, read before any choreography is built
    for kind in which:
        size = pencil.root_count(spec, cfg.operator() if kind == "del" else None)
        try:
            amplitudes.append(_complex_block(cfg.choreo, "amplitudes", (size,), "choreo")
                              if _given(cfg.choreo, "amplitudes") else np.ones(size, dtype=complex))
        except ConfigParse as exc:
            raise ConfigParse(f"{exc} for the {kind} setting") from exc
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
