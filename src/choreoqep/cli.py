"""Command-line front end: JSON configs in, CSV/SVG artifacts out.

Subcommands: validate, spectrum, solve, error-surface, converge, choreo.
Exit codes: 0 success, 2 config error, 3 assumption violation, 4 numerical
failure.  error-surface solves all its cells as one stacked batch, taken in
`numkernel.chunks` that bound each kernel's largest temporary, and writes each
cell's status: "ok" or the class name of the error its lone solve raises.

It solves each distinct discrete equation once.  With J5 = 0 the weights enter the
equations only through the adjoint-forward symbol theta(zeta) = g(zeta) g(1/zeta)/eps^2
and, in the constant mode, through s_bar(0) J6 = (sum gamma/eps) J6, and reversed weights
leave both unchanged.  A gamma surface spans one range on both axes, so cell (b, a) is
cell (a, b) reversed: the two share their spectra, kernel vectors and Dirichlet solve, and
a cell's row is that of its class's first cell in grid order.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import celsolve, convergence, delsolve, model, numkernel, pencil, \
    periodic, scaleop
from .model import LagrangianSpec
from .scaleop import ScaleOperator


class ConfigParse(Exception):
    """Raised when the configuration file cannot be interpreted."""


class DimensionMismatch(Exception):
    """Raised when config fields disagree about dimensions."""


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERICAL = 4

_ASSUMPTION_ERRORS = (celsolve.AssumptionViolation, periodic.NotChoreographic,
                      periodic.DelayResonant, pencil.LeadingSingular,
                      pencil.DegenerateRoots)
_NUMERICAL_ERRORS = (numkernel.NumericalFailure, numkernel.Singular,
                     celsolve.SingularBoundarySystem,
                     delsolve.LeadingBlockSingular, delsolve.WindowExceeded,
                     scaleop.OutOfRange, model.NoRealSolution,
                     model.SymmetryInfeasible, model.SingularTransform,
                     convergence.EmptySet)


def _matrix(raw, d: int, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape == (d * d,):
        arr = arr.reshape(d, d)  # row-major flat form
    if arr.shape != (d, d):
        raise DimensionMismatch(f"{name} must be {d}x{d} (or flat length {d * d})")
    return arr


def _vector(raw, d: int, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float).ravel()
    if arr.shape != (d,):
        raise DimensionMismatch(f"{name} must have length {d}")
    return arr


def _complex_block(block: dict, name: str, shape: tuple) -> np.ndarray:
    """Read name / name_re / name_im fields into a complex array of shape."""
    re = block.get(f"{name}_re", block.get(name))
    if re is None:
        raise ConfigParse(f"missing field {name}")
    out = np.asarray(re, dtype=float).astype(complex)
    im = block.get(f"{name}_im")
    if im is not None:
        out = out + 1j * np.asarray(im, dtype=float)
    if out.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {out.shape}")
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

    @property
    def d(self) -> int:
        return self.spec.d

    def operator(self, epsilon: float = None) -> ScaleOperator:
        return _build_operator(self.operator_raw, self.epsilon if epsilon is None
                               else epsilon)

    def operator_family(self):
        return lambda eps: _build_operator(self.operator_raw, eps)


def _build_operator(raw: dict, epsilon: float) -> ScaleOperator:
    try:
        family = raw.get("family")
        if family == "k_family":
            return scaleop.k_family(epsilon, float(raw.get("k", 0.0)))
        if family == "central":
            return scaleop.central_difference(epsilon)
        if family is not None:
            raise ConfigParse(f"unknown operator family {family!r}")
        if "N" not in raw or "gamma_re" not in raw:
            raise ConfigParse("operator needs a family or N with gamma_re/gamma_im")
        N = int(raw["N"])
        gamma = np.asarray(raw["gamma_re"], dtype=float).astype(complex)
        if "gamma_im" in raw:
            gamma = gamma + 1j * np.asarray(raw["gamma_im"], dtype=float)
        if gamma.shape != (2 * N + 1,):
            raise DimensionMismatch(f"gamma must have length 2N+1 = {2 * N + 1}")
        return ScaleOperator(gamma, epsilon)
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
        t0 = float(time["t0"])
        tf = float(time["tf"])
        M = int(time["M"])
        op_raw = dict(raw["operator"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"missing or malformed required field: {exc}") from exc
    if not tf > t0:
        raise ConfigParse("time block needs tf > t0")
    if M < 1:
        raise ConfigParse("time block needs M >= 1")

    try:
        j1 = _matrix(raw["J1"], d, "J1")
        j2 = _matrix(raw["J2"], d, "J2")
        j3 = _matrix(raw.get("J3", np.zeros(d * d)), d, "J3")
    except KeyError as exc:
        raise ConfigParse(f"missing matrix {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"malformed matrix: {exc}") from exc

    targets = raw.get("targets")
    if "J4" in raw:
        j4 = _matrix(raw["J4"], d, "J4")
    elif targets is not None and d == 2 and "j4_free" in targets:
        omega = [float(w) for w in targets["omega"]]
        if len(omega) != 2:
            raise DimensionMismatch("targets.omega must list 2 frequencies for d = 2")
        j4 = model.construct_j4(j1, j2, j3, omega[0], omega[1],
                                float(targets["j4_free"]))
    else:
        raise ConfigParse("J4 must be given directly, or via targets with "
                          "j4_free for d = 2")
    j5 = _matrix(raw.get("J5", np.zeros(d * d)), d, "J5")
    j6 = _vector(raw.get("J6", np.zeros(d)), d, "J6")
    j7 = _vector(raw.get("J7", np.zeros(d)), d, "J7")
    try:
        spec = LagrangianSpec(d, n, j1, j2, j3, j4, j5, j6, j7)
    except ValueError as exc:
        raise ConfigParse(str(exc)) from exc

    cfg = ExperimentConfig(spec, t0, tf, M, op_raw, targets,
                           raw.get("boundary"), raw.get("amplitudes"),
                           raw.get("choreo", {}), raw.get("sweep", {}))
    cfg.operator()  # fail fast on malformed operator blocks
    return cfg


# ---------------------------------------------------------------------------
# artifact writers


def write_csv(path, header: list[str], rows) -> None:
    """The header line, then one line per row: numeric cells (int, float, numpy float)
    as '%.17g', which reads back to the same double, and other cells as str.  The cell
    types of the first row make one %-template for the whole table, so every row must
    share them; rows may be a list of lists or a 2-D float array."""
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    lines = [",".join(header)]
    if rows:
        line = ",".join("%.17g" if isinstance(v, (int, float, np.floating)) else "%s"
                        for v in rows[0])
        lines.append("\n".join([line] * len(rows)) % tuple(chain.from_iterable(rows)))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#e377c2"]


def write_svg(path, traj: np.ndarray, times: np.ndarray = None) -> None:
    """One polyline per particle over the first two coordinates (real parts).

    For d = 1 the abscissa is time.  The viewBox is autoscaled to the data
    with a 1% margin; output bytes are deterministic for fixed input.
    """
    traj = np.asarray(traj)
    n, count, d = traj.shape
    if d >= 2:
        xs = traj[:, :, 0].real
        ys = -traj[:, :, 1].real  # svg y grows downward
    else:
        if times is None:
            times = np.arange(count, dtype=float)
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


def _trajectory_rows(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (count n, 2 + 2d) rows (t, particle, c0_re, c0_im, ..., c{d-1}_re,
    c{d-1}_im) of values (n, count, d), node by node and particle by particle."""
    n, count, d = values.shape
    rows = np.empty((count, n, 2 + 2 * d))
    rows[:, :, 0] = np.asarray(times)[:, None]
    rows[:, :, 1] = np.arange(n)
    rows[:, :, 2::2] = values.real.transpose(1, 0, 2)
    rows[:, :, 3::2] = values.imag.transpose(1, 0, 2)
    return rows.reshape(count * n, 2 + 2 * d)


def _traj_header(d: int) -> list[str]:
    return ["t", "particle", *(f"c{c}_{part}" for c in range(d) for part in ("re", "im"))]


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the trajectory CSV writer; returns (times, values (n, M+1, d)).

    The body is parsed in one pass of `np.loadtxt` and scattered into values, real and
    imaginary parts apart, so signed zeros and every other double come back bit
    for bit.  A cell that is not a number, or rows of unequal length, raise ValueError."""
    with open(path) as f:
        header, cells = f.readline(), np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
    n = int(cells[:, 1].max()) + 1
    times = cells[::n, 0]
    values = np.zeros((n, len(cells) // n, (len(header.split(",")) - 2) // 2), dtype=complex)
    nodes, particles = np.arange(len(cells)) // n, cells[:, 1].astype(int)
    values.real[particles, nodes] = cells[:, 2::2]
    values.imag[particles, nodes] = cells[:, 3::2]
    return times, values


# ---------------------------------------------------------------------------
# solution assembly helpers


def _sample_times(cfg: ExperimentConfig) -> np.ndarray:
    return cfg.t0 + cfg.epsilon * np.arange(cfg.M + 1)


def _parse_amplitudes(block: dict, size_xs: int, n: int, size_p: int, seed: int):
    if block.get("random"):
        rng = np.random.default_rng(seed)
        scale = float(block.get("scale", 1.0))
        xs = scale * (rng.standard_normal(size_xs) + 1j * rng.standard_normal(size_xs))
        ps = scale * (rng.standard_normal((max(n - 1, 0), size_p))
                      + 1j * rng.standard_normal((max(n - 1, 0), size_p)))
        return xs, ps
    xs = _complex_block(block, "xs", (size_xs,))
    if "particles_re" in block or "particles" in block:
        ps = _complex_block(block, "particles", (n - 1, size_p))
    else:
        ps = np.zeros((max(n - 1, 0), size_p), dtype=complex)
    return xs, ps


def _cel_solution(cfg: ExperimentConfig, seed: int) -> celsolve.SystemSolution:
    spec, n = cfg.spec, cfg.n
    if cfg.boundary and "x_t0" in cfg.boundary or cfg.boundary and "x_t0_re" in cfg.boundary:
        x0 = _complex_block(cfg.boundary, "x_t0", (n, spec.d))
        xf = _complex_block(cfg.boundary, "x_tf", (n, spec.d))
        sol, _ = celsolve.dirichlet_cel(spec, n, cfg.t0, cfg.tf, x0, xf)
        return sol
    if cfg.amplitudes:
        xs, ps = _parse_amplitudes(cfg.amplitudes, 2 * spec.d, n, 2 * spec.d, seed)
        return celsolve.general_solution_cel(spec, n, xs, ps)
    raise ConfigParse("solve needs a boundary or amplitudes block")


def _matched_del_data(cfg: ExperimentConfig, N: int, cel: celsolve.SystemSolution):
    """DEL end-window data sampled from the continuous solution."""
    head_t = cfg.t0 + cfg.epsilon * np.arange(2 * N)
    tail_t = cfg.t0 + cfg.epsilon * np.arange(cfg.M - 2 * N + 1, cfg.M + 1)
    head = np.array([p.value(head_t) for p in cel.particles])
    tail = np.array([p.value(tail_t) for p in cel.particles])
    return head, tail


def _del_solution(cfg: ExperimentConfig, seed: int) -> delsolve.DelSolution:
    spec, n, op = cfg.spec, cfg.n, cfg.operator()
    N = op.N
    if cfg.boundary and "head" in cfg.boundary or cfg.boundary and "head_re" in cfg.boundary:
        head = _complex_block(cfg.boundary, "head", (n, 2 * N, spec.d))
        tail = _complex_block(cfg.boundary, "tail", (n, 2 * N, spec.d))
        sol, _ = delsolve.dirichlet_del(spec, op, n, cfg.t0, cfg.M, head, tail)
        return sol
    if cfg.boundary:  # two-point boundary: match the continuous solution
        cel = _cel_solution(cfg, seed)
        head, tail = _matched_del_data(cfg, N, cel)
        sol, _ = delsolve.dirichlet_del(spec, op, n, cfg.t0, cfg.M, head, tail)
        return sol
    if cfg.amplitudes:
        size = 4 * N * spec.d
        xs, ps = _parse_amplitudes(cfg.amplitudes, size, n, size, seed)
        return delsolve.general_solution_del(spec, op, n, xs, ps, cfg.t0, cfg.M)
    raise ConfigParse("solve needs a boundary or amplitudes block")


def _window_reference(cfg: ExperimentConfig, N: int, cel: celsolve.SystemSolution):
    """(head, tail, window times, continuous values there): what every cell of an
    error surface compares against, computed once since it depends on (cfg, N)."""
    times = cfg.t0 + cfg.epsilon * np.arange(2 * N, cfg.M - 2 * N + 1)
    window = np.array([p.value(times) for p in cel.particles])
    return *_matched_del_data(cfg, N, cel), times, window


def _equation_classes(spec: LagrangianSpec, ops: list) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, inverse): the first operator of each class in grid order, and
    each operator's class, for ops sharing N.  A class is one discrete equation, keyed by
    eps and the weights, -0.0 read as 0.0; when J5 = 0, by the lexicographically lesser of
    the weights and their reverse, which share theta and s_bar(0).  With J5 != 0 (its
    sigma1 term changes sign under reversal) only equal operators share a class."""
    B = len(ops)
    if B == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    weights = np.concatenate([op.gamma for op in ops]).view(float).reshape(B, -1) + 0.0
    if not spec.J5.any():  # rows of re, im pairs; the reverse turns the pairs round
        reverse = weights.reshape(B, -1, 2)[:, ::-1].reshape(B, -1)
        at = np.arange(B), (weights != reverse).argmax(axis=1)  # first place they differ
        weights = np.where((reverse[at] < weights[at])[:, None], reverse, weights)
    keys = np.column_stack([[op.epsilon for op in ops], weights])
    first = {}  # key bytes -> the first operator with that key
    owner = [first.setdefault(key, i) for i, key in enumerate(
        keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist())]
    representatives = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return representatives, np.searchsorted(representatives, owner)


def _window_errors(cfg: ExperimentConfig, ops: list, reference) -> tuple[list, list, int]:
    """Per operator: the Euclidean norm of (continuous - discrete) at the
    `_window_reference` nodes, and its status, "ok" or the class name of what
    `dirichlet_del` raises for it; and the number of operators solved.  Operators share N
    and eps.  Only the first operator of each `_equation_classes` class is solved, and
    every operator takes the row of its class.  The representatives are solved as one
    batch, in `numkernel.chunks` of K x K boundary matrices (K = 4Nd); only the ones
    whose solves succeed are sampled, in chunks of their (T, K') window exponentials,
    all particles as one (T, K') @ (K', n d) product a cell (`celsolve._grid_values`)."""
    representatives, inverse = _equation_classes(cfg.spec, ops)
    ops = [ops[i] for i in representatives]
    head, tail, times, cel_values = reference
    want = cel_values.transpose(1, 0, 2).reshape(len(times), -1)  # (T, n d)
    errors, status = np.full(len(ops), math.nan), []
    K = 2 * head[0].size  # 4Nd: head holds 2N nodes of d values a particle
    for c in numkernel.chunks(len(ops), K * K):
        core, ends, data = delsolve._dirichlet(cfg.spec, ops[c], cfg.n, cfg.t0, cfg.M, head, tail)
        *amplitudes, failures = core.boundary_solve(ends, data)
        _, (u0, lams, vectors, anchors) = core.expansions(*amplitudes)
        ok = celsolve._live(failures)
        for w in numkernel.chunks(len(ok), len(times) * lams.shape[-1]):
            w = ok[w]
            stacked = vectors[w].transpose(0, 2, 1, 3).reshape(len(w), -1, want.shape[1])
            diff = celsolve._grid_values(np.tile(u0[w, 0], cfg.n), lams[w, 0], stacked,
                                         anchors[w, 0], times[0], cfg.epsilon, len(times))
            errors[c][w] = np.linalg.norm(diff - want, axis=(1, 2))
        status += ["ok" if f is None else type(f).__name__ for f in failures]
    return errors[inverse].tolist(), [status[i] for i in inverse], len(ops)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg: ExperimentConfig, out_dir: Path) -> dict:
    spec, n = cfg.spec, cfg.n
    op = cfg.operator()
    report: dict = {}
    report["violations"] = [str(v) for v in model.validate_spec(spec)]
    conds = scaleop.check_operator_conditions(op)
    report["operator_conditions"] = {"sum_zero": conds.sum_zero,
                                     "derivative_normalized": conds.derivative_normalized}
    cel = pencil.check_cel_assumptions(spec, n)
    report["cel_assumptions"] = cel.all_hold
    del_rep = pencil.check_del_assumptions(spec, op, n)
    report["del_assumptions"] = del_rep.all_hold

    s = spec.J1 - 2.0 * spec.J3
    c = spec.J2 - 2.0 * spec.J4
    try:
        rho = float(np.abs(np.linalg.eigvals(np.linalg.solve(s, c))).max())
    except np.linalg.LinAlgError:
        rho = math.inf
    edge = abs(op.gamma_at(-op.N) * op.gamma_at(op.N))
    bound = math.inf if edge == 0 else \
        10.0 * (cfg.tf - cfg.t0) ** 2 * rho / edge
    report["resolution_warning"] = bool(cfg.M**2 < bound)

    if cfg.targets and "omega" in cfg.targets:
        omega = np.sort(np.abs(np.asarray(cfg.targets["omega"], dtype=float)))
        if cfg.targets.get("discrete"):
            sp = pencil.transcendental_spectrum(
                pencil.transcendental_pencil(spec, op, 0))
            kept = convergence.filter_to_window(sp.lam, 2 * omega.max() + 1.0)
            measured = np.sort(kept.roots.imag[kept.roots.imag > 0])
        else:
            q0 = pencil.classical_spectrum(pencil.classical_pencil(spec, 0))
            measured = np.sort(q0.roots.imag[q0.roots.imag > 0])
        if len(measured) == len(omega):
            dev = float(np.abs(measured - omega).max())
        else:
            dev = math.inf
        tol = float(cfg.targets.get("tol", 1e-6))
        report["targets_deviation"] = dev
        report["targets_ok"] = dev <= tol

    for v in report["violations"]:
        print(f"violation: {v}")
    print(f"operator conditions: sum_zero={conds.sum_zero} "
          f"derivative_normalized={conds.derivative_normalized}")
    print(f"continuous assumptions hold: {report['cel_assumptions']}")
    print(f"discrete assumptions hold: {report['del_assumptions']}")
    if report["resolution_warning"]:
        print(f"warning: grid too coarse, M^2 = {cfg.M**2} < {bound:.6g} "
              "(raise M for a meaningful discrete approximation)")
    if "targets_ok" in report:
        print(f"target spectrum deviation: {report['targets_deviation']:.3e} "
              f"(ok={report['targets_ok']})")
    return report


def cmd_spectrum(cfg: ExperimentConfig, which: str, out_dir: Path) -> list[Path]:
    """Roots of the nu=0 and nu=n pencils, with eigenpair backward errors as residual;
    convergent_flag marks roots within twice the classical spectral radius plus one."""
    setting = pencil.Setting(cfg.spec, cfg.operator() if which == "del" else None)
    paths = []
    for nu, tag in ((0, "nu0"), (cfg.n, "nun")):
        q_cls = pencil.classical_spectrum(pencil.classical_pencil(cfg.spec, nu))
        lam = q_cls if setting.op is None else setting.modes(nu).lam
        radius = 2.0 * float(np.abs(q_cls.roots).max()) + 1.0
        kept = np.abs(lam.roots) <= radius
        rows = [[z.real, z.imag, r, int(k)]
                for z, r, k in zip(lam.roots, lam.residuals, kept)]
        path = out_dir / f"spectrum_{which}_{tag}.csv"
        write_csv(path, ["re", "im", "residual", "convergent_flag"], rows)
        paths.append(path)
    for p in paths:
        print(f"wrote {p}")
    return paths


def _write_trajectory(stem: Path, times: np.ndarray, values: np.ndarray) -> list[Path]:
    """Write values (n, T, d) at the T times to stem.csv and stem.svg; returns the paths."""
    paths = [stem.with_suffix(".csv"), stem.with_suffix(".svg")]
    write_csv(paths[0], _traj_header(values.shape[2]), _trajectory_rows(times, values))
    write_svg(paths[1], values, times)
    return paths


def cmd_solve(cfg: ExperimentConfig, which: str, out_dir: Path, seed: int) -> list[Path]:
    times = _sample_times(cfg)
    if which == "cel":
        sol = _cel_solution(cfg, seed)
        values = np.array([p.value(times) for p in sol.particles])
    else:
        sol = _del_solution(cfg, seed)
        grid, _ = sol.sample()
        values = grid.values
    paths = _write_trajectory(out_dir / f"traj_{which}", times, values)
    for p in paths:
        print(f"wrote {p}")
    return paths


def cmd_error_surface(cfg: ExperimentConfig, grid: str, out_dir: Path,
                      seed: int) -> Path:
    """Window errors of the discrete solve over a grid of operators, with each cell's
    status: "ok" or the class name of its error, whose metric or error is the cap."""
    if grid == "gamma":
        block = cfg.sweep.get("gamma_grid", {})
        lo = float(block.get("min", -1.0))
        hi = float(block.get("max", 1.0))
        points = int(block.get("points", 41))
        cells = [(a, b) for a in np.linspace(lo, hi, points) for b in np.linspace(lo, hi, points)]
        ops = [ScaleOperator(np.array([a, -(a + b), b], dtype=complex), cfg.epsilon)
               for a, b in cells]
        reference = _window_reference(cfg, 1, _cel_solution(cfg, seed))
        cap = 3.0 * cfg.M
        errors, status, solved = _window_errors(cfg, ops, reference)
        rows = [[a, b, -math.log(cap if s != "ok" else min(max(err, 1e-300), cap)), s]
                for (a, b), err, s in zip(cells, errors, status)]
        path = out_dir / "error_surface_gamma.csv"
        write_csv(path, ["gamma_m1_re", "gamma_1_re", "metric", "status"], rows)
    else:
        block = cfg.sweep.get("k_grid", {})
        ks = [float(k) for k in block.get("ks", [-1.0, -0.5, 0.0, 0.5, 1.0])]
        Ms = [int(m) for m in block.get("Ms", [cfg.M])]
        rows, solved = [], 0
        for M in Ms:
            sub = replace(cfg, M=M)
            reference = _window_reference(sub, 1, _cel_solution(sub, seed))
            errors, status, count = _window_errors(
                sub, [scaleop.k_family(sub.epsilon, k) for k in ks], reference)
            solved += count
            rows += [[k, M, err if s == "ok" else 3.0 * M, s]
                     for k, err, s in zip(ks, errors, status)]
        path = out_dir / "error_surface_k.csv"
        write_csv(path, ["k", "M", "error", "status"], rows)
    print(f"solved {solved} distinct equations for {len(rows)} cells")
    print(f"wrote {path}")
    return path


def cmd_converge(cfg: ExperimentConfig, out_dir: Path) -> Path:
    block = cfg.sweep
    if "epsilons" not in block:
        raise ConfigParse("converge needs sweep.epsilons")
    epsilons = [float(e) for e in block["epsilons"]]
    nu = float(block.get("nu", 0.0))
    result = convergence.epsilon_sweep(cfg.spec, cfg.operator_family(), nu, epsilons)
    rows = []
    for eps, dist, perr, note in zip(result.epsilons, result.distances,
                                     result.pencil_errors, result.notes):
        rows.append([eps, dist, perr, note or ""])
    path = out_dir / "converge.csv"
    write_csv(path, ["epsilon", "hausdorff", "pencil_error", "note"], rows)
    print(f"estimated order: {result.estimated_order:.4f}")
    print(f"wrote {path}")
    return path


def cmd_choreo(cfg: ExperimentConfig, out_dir: Path, seed: int) -> list[Path]:
    spec, n = cfg.spec, cfg.n
    which = cfg.choreo.get("which", ["cel", "del"])
    if isinstance(which, str):
        which = [which]
    if not isinstance(which, list) or any(kind not in ("cel", "del") for kind in which):
        raise ConfigParse(f"choreo.which must list 'cel' and/or 'del', got {which!r}")
    times = _sample_times(cfg)
    written = []
    for kind in which:
        size = pencil.Setting(spec, cfg.operator() if kind == "del" else None).root_count
        if "amplitudes_re" in cfg.choreo:
            amps = _complex_block(cfg.choreo, "amplitudes", (size,))
        else:
            amps = np.ones(size, dtype=complex)
        if kind == "cel":
            ch, sol = periodic.build_choreography_cel(spec, n, amps)
        else:
            ch, sol = periodic.build_choreography_del(spec, cfg.operator(), n,
                                                      amps, cfg.t0, cfg.M)
        rep = periodic.verify_choreography(ch, sol, spec)
        print(f"{kind}: period T = {ch.T:.12g}, delay T/n = {ch.delay:.12g}, "
              f"checks ok = {rep.all_ok}")
        values = np.array([p.value(times) for p in sol.particles])
        written.extend(_write_trajectory(out_dir / f"choreo_{kind}", times, values))
    for p in written:
        print(f"wrote {p}")
    return written


@cache  # one parser a process, built on first use: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choreoqep",
        description="Quadratic n-particle systems: solve, classify, export.")
    parser.add_argument("command",
                        choices=["validate", "spectrum", "solve",
                                 "error-surface", "converge", "choreo"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--which", choices=["cel", "del"], default="cel")
    parser.add_argument("--grid", choices=["gamma", "k"], default="gamma")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "validate":
            cmd_validate(cfg, out_dir)
        elif args.command == "spectrum":
            cmd_spectrum(cfg, args.which, out_dir)
        elif args.command == "solve":
            cmd_solve(cfg, args.which, out_dir, args.seed)
        elif args.command == "error-surface":
            cmd_error_surface(cfg, args.grid, out_dir, args.seed)
        elif args.command == "converge":
            cmd_converge(cfg, out_dir)
        elif args.command == "choreo":
            cmd_choreo(cfg, out_dir, args.seed)
    except (ConfigParse, DimensionMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _ASSUMPTION_ERRORS as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
