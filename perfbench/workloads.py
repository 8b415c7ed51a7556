"""One pass of a workload: every job of the manifest, run and checked.

Jobs call only the program's public entry points: cli.main,
cli.read_trajectory_csv, delsolve.TrajectoryGrid, delsolve.recurrence_march
and delsolve.residual_del.  Configs come from cli.load_config at set-up.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from choreoqep import cli, delsolve

from . import classify

EXIT_RAISED = 1  # recorded for a job whose cli.main call raised


class BenchmarkError(Exception):
    """An exception the rules do not expect: the run stops without a result."""


def _expected(exc: BaseException) -> bool:
    """The program's own typed errors, rejected data and missing outputs."""
    return (type(exc).__module__.startswith("choreoqep")
            or isinstance(exc, (ValueError, OSError)))


def run_cli(argv: list) -> tuple[int, str]:
    """cli.main(argv) with its output captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        if not _expected(exc):
            raise BenchmarkError(f"cli.main({argv}) raised {exc!r}") from exc
        return EXIT_RAISED, out.getvalue()
    except SystemExit as exc:  # argparse rejects the argv: a benchmark bug
        raise BenchmarkError(f"cli.main({argv}) exited: {err.getvalue()}") from exc
    return code, out.getvalue()


@dataclass
class PassResult:
    """Per-op outcomes of one pass, in job order, and what they rest on."""

    outcomes: list = field(default_factory=list)
    order_gaps: list = field(default_factory=list)
    digests: list = field(default_factory=list)

    @property
    def ok(self) -> int:
        return sum(self.outcomes)

    def same_as(self, other: "PassResult") -> bool:
        return (self.outcomes == other.outcomes and self.digests == other.digests
                and self.order_gaps == other.order_gaps)


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def op_count(job: dict, cfg) -> int:
    """Ops a job attempts, fixed by its config whatever the program does."""
    if job["kind"] == "gamma":
        return int(cfg.sweep.get("gamma_grid", {}).get("points", 41)) ** 2
    if job["kind"] == "sweep":
        return len(cfg.sweep["epsilons"])
    N = cfg.operator().N
    return cfg.M - 4 * N + 1  # interior nodes 2N..M-2N


def _equation_scale(cfg, values: np.ndarray) -> float:
    """The residual scale verify_choreography uses, computed from the inputs."""
    op, spec = cfg.operator(), cfg.spec
    theta_mass = float(np.abs(np.convolve(op.gamma, op.gamma[::-1])).sum() + 1.0)
    matrix_mass = float(sum(np.abs(getattr(spec, k)).sum()
                            for k in ("J1", "J2", "J3", "J4", "J5"))
                        + np.abs(spec.J6).sum() + np.abs(spec.J7).sum() + 1.0)
    return theta_mass / op.epsilon**2 * matrix_mass * (1.0 + float(np.abs(values).max()))


def _roundtrip(lines: list, times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per node: re-rendering the parsed values gives the file's lines exactly."""
    n, count, d = values.shape
    ok = np.zeros(count, dtype=bool)
    for m in range(count):
        rows = lines[1 + m * n: 1 + (m + 1) * n]
        rendered = []
        for j in range(n):
            cells = [times[m], j]
            for c in range(d):
                cells.extend([values[j, m, c].real, values[j, m, c].imag])
            rendered.append(",".join(format(float(v), ".17g") for v in cells))
        ok[m] = rows == rendered
    return ok


def check_grid(cfg, csv_path: Path, march: bool) -> list[bool]:
    """March (when asked), residual and round-trip checks at nodes 2N..M-2N."""
    text = csv_path.read_text()
    times, values = cli.read_trajectory_csv(csv_path)
    op, spec, n, M = cfg.operator(), cfg.spec, cfg.n, cfg.M
    N = op.N
    nodes = np.arange(2 * N, M - 2 * N + 1)
    if values.shape[1] != M + 1 or not np.all(np.isfinite(values)):
        return [False] * len(nodes)
    roundtrip = _roundtrip(text.strip().split("\n"), times, values)
    xs_values = values.sum(axis=0)
    march_err = np.zeros(M + 1)
    if march:
        marched, _ = delsolve.recurrence_march(spec, op, n, xs_values[:4 * N],
                                               values[:, :4 * N], M, cfg.t0)
        scale = max(float(np.abs(values).max()), 1e-300)
        march_err = np.abs(marched.values - values).max(axis=(0, 2)) / scale
    grid = delsolve.TrajectoryGrid(cfg.t0, op.epsilon, values)
    eq_scale = _equation_scale(cfg, values)
    residual_err = []
    for m in nodes:
        r = delsolve.residual_del(spec, op, n, grid, int(m), xs_values)
        residual_err.append(max(float(np.abs(r.xs).max()),
                                float(np.abs(r.particles).max())) / eq_scale)
    return classify.grid_nodes(march_err[nodes], residual_err, roundtrip[nodes])


def _run_job(job: dict, cfg, result: PassResult) -> None:
    code, stdout = run_cli(job["argv"])
    count = op_count(job, cfg)
    out_dir = Path(job["argv"][job["argv"].index("--out") + 1])
    if job["kind"] == "sweep":
        fitted = classify.fitted_order(stdout) if code == 0 else None
        result.order_gaps.append(classify.order_gap(fitted, job["order"]))
    if code != 0:
        result.outcomes.extend([False] * count)
        result.digests.append(f"exit {code}")
        return
    try:
        if job["kind"] == "gamma":
            cells = classify.gamma_cells(
                (out_dir / "error_surface_gamma.csv").read_text(), cfg.M)
        elif job["kind"] == "sweep":
            cells = classify.sweep_cells((out_dir / "converge.csv").read_text())
        else:
            cells = check_grid(cfg, Path(job["csv"]), job["march"])
    except Exception as exc:
        if not _expected(exc):
            raise BenchmarkError(f"checking {job['name']}: {exc!r}") from exc
        cells = [False] * count
    if len(cells) != count:  # an output of the wrong size is wrong throughout
        cells = [False] * count
    result.outcomes.extend(cells)
    result.digests.append(_digest(out_dir))


def run_pass(manifest: dict, configs: dict) -> PassResult:
    """Run and check every job once; configs maps config file -> ExperimentConfig."""
    result = PassResult()
    for job in manifest["jobs"]:
        cfg = configs[job["argv"][job["argv"].index("--config") + 1]]
        _run_job(job, cfg, result)
    return result
