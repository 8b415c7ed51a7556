"""Benchmark entry point; run from the root of a choreoqep checkout.

    python3 perfbench/run.py --workload gamma_surface --seed 1 --seconds 24 --trace 0

Writes seeded inputs under .perfbench_runs/, measures a fixed number of
passes of the workload (set by --seconds, see pass_count()) in fresh worker
processes, and prints an environment record, then as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--workload all, each workload in turn prints its two lines.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones from a traced run.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env, gen  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
# Wall seconds of one pass on the reference 2-vCPU VM.  A run makes
# seconds / NOMINAL_PASS_S passes, a number fixed before it starts, so that
# the same seed and --seconds always attempt the same ops.
NOMINAL_PASS_S = {"gamma_surface": 5.0, "spectra_sweep": 2.2, "long_grid": 4.5}
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
NOT_APPLICABLE = 1.0  # order_gap where no order is fitted (see README)


class WorkerFailed(Exception):
    """A worker process exited nonzero or printed no result."""


def pass_count(workload: str, seconds: float) -> int:
    """Timed passes of a run: as many as fill `seconds` on the reference VM."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def _worker(root: Path, manifest: Path, mode: str, count: int,
            spans: Path | None = None) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--manifest", str(manifest),
           "--mode", mode, "--passes", str(count)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    child_env = {**os.environ, **env.PINNED_THREADS,
                 "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    proc = subprocess.run(cmd, cwd=root, env=child_env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(root: Path, manifest: Path, count: int) -> tuple[dict, dict]:
    samples = [_worker(root, manifest, "setup", count) for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(root, manifest, "timed", count)
    samples.append(res)
    setups = [r["setup_s"] for r in samples]
    attempted, ok, passes = res["attempted"], res["ok"], len(res["walls"])
    gap = res["order_gap"] if res["order_gap"] is not None else NOT_APPLICABLE
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # median pass in reference seconds: host speed drift is taken out
        "ok_ops_per_s": (ok / statistics.median(res["reference_s"]), "ops/s"),
        # add-one keeps the ratio above 0 when nothing fails (README)
        "fail_ratio": ((attempted - ok + 1) / (attempted + 1), "1"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "order_gap": (gap, "1"),
    }
    detail = {"passes": passes, "pass_wall_s": res["walls"],
              "pass_reference_s": res["reference_s"], "setup_samples_s": setups,
              "setup_wall_s": [r["setup_wall_s"] for r in samples],
              "attempted_per_pass": attempted, "ok_per_pass": ok}
    result = {"correct": res["consistent"], "attempted": attempted * passes,
              "failed": (attempted - ok) * passes, "metrics": metrics}
    return result, detail


def _per_layer(root: Path, manifest: Path, count: int,
               spans: Path) -> tuple[dict, dict]:
    res = _worker(root, manifest, "traced", max(2, count // 2), spans)
    attempted, ok, passes = res["attempted"], res["ok"], res["passes"]
    detail = {"traced_passes": passes, "attempted_per_pass": attempted,
              "ok_per_pass": ok, "missing": res["missing"], "spans": str(spans),
              **{k: res[k] for k in ("self_time_share", "traced_reference_s",
                                     "untraced_reference_s")}}
    result = {"correct": res["consistent"], "attempted": attempted * passes,
              "failed": (attempted - ok) * passes, "metrics": res["layers"]}
    return result, detail


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload and print its environment record and result."""
    runs = root / ".perfbench_runs"
    work = runs / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        manifest = gen.write_inputs(workload, seed, work)
        if trace:
            spans = runs / f"spans-{workload}-seed{seed}.csv.gz"
            result, detail = _per_layer(root, manifest, pass_count(workload, seconds), spans)
        else:
            result, detail = _end_to_end(root, manifest, pass_count(workload, seconds))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"environment": env.record(root, workload, seed),
                      "detail": detail}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "choreoqep" / "cli.py").is_file():
        print("perfbench: no src/choreoqep here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else [args.workload]
    codes = [_run(root, w, args.seed, args.seconds, args.trace) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
