"""The measured process: set-up, then timed or traced passes of one workload.

Run by run.py as `python -m perfbench.worker` with the program's `src` on
PYTHONPATH and BLAS pinned to one thread.  Host speed is sampled from the
first line on (speed.py); times are reported in wall and reference seconds.
Prints one JSON object.
"""
import time

_START = time.perf_counter()  # set-up is timed from a fresh interpreter

from . import speed  # noqa: E402

_SAMPLER = speed.Sampler().start()  # host speed, sampled from here to exit

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(manifest_path: Path):
    """Import the CLI, parse every config, make one warm-up call."""
    from choreoqep import cli

    from . import workloads

    manifest = json.loads(manifest_path.read_text())
    os.chdir(manifest_path.parent)
    configs = {name: cli.load_config(name) for name in manifest["configs"]}
    workloads.run_cli(manifest["warmup_argv"])
    return manifest, configs, time.perf_counter()


def _timed(manifest: dict, configs: dict, passes: int) -> dict:
    """Closed loop of `passes` passes, one client, with host speed sampled."""
    from . import workloads

    walls, refs, results = [], [], []
    for _ in range(passes):
        t = time.perf_counter()
        results.append(workloads.run_pass(manifest, configs))
        end = time.perf_counter()
        walls.append(end - t)
        refs.append(_SAMPLER.reference_s(t, end))
    first = results[0]
    return {"walls": walls, "reference_s": refs,
            "attempted": len(first.outcomes), "ok": first.ok,
            "order_gap": statistics.fmean(first.order_gaps) if first.order_gaps else None,
            "consistent": all(r.same_as(first) for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _traced(manifest: dict, configs: dict, pairs: int, spans_path) -> dict:
    """`pairs` times an untraced then a traced pass; per-layer numbers from the traced."""
    from . import trace, workloads

    tracer = trace.Tracer()
    plain, traced, traced_walls, self_times, results, counts = [], [], [], [], [], []
    for _ in range(pairs):
        t = time.perf_counter()
        results.append(workloads.run_pass(manifest, configs))
        end = time.perf_counter()
        plain.append(_SAMPLER.reference_s(t, end))
        tracer.reset()
        with tracer.installed():
            t = time.perf_counter()
            results.append(workloads.run_pass(manifest, configs))
            end = time.perf_counter()
        traced.append(_SAMPLER.reference_s(t, end))
        traced_walls.append(end - t)
        self_times.append(tracer.self_times())
        counts.append((list(tracer.calls), list(tracer.failed), list(tracer.bytes)))
    tracer.write_spans(spans_path)
    first = results[0]
    self_s = [statistics.median(col) for col in zip(*self_times)]
    # medians in reference seconds, as for ok_ops_per_s
    wall, base = statistics.median(traced), statistics.median(plain)
    layers = tracer.metrics(self_s, len(first.outcomes))
    share = {name: sum(self_s[tracer.groups.index(g)] for g in family)
             / statistics.median(traced_walls)
             for name, family in (("spectrum", trace.SPECTRUM_LAYERS),
                                  ("grid", trace.GRID_LAYERS))}
    layers.update({
        "trace.overhead_s": (wall - base, "s"),
        "trace.overhead_ratio": ((wall - base) / base, "1"),
    })
    return {"attempted": len(first.outcomes), "ok": first.ok,
            "passes": len(traced),
            "consistent": (all(r.same_as(first) for r in results)
                           and all(c == counts[0] for c in counts)),
            "layers": layers, "missing": sorted(tracer.missing), "self_time_share": share,
            "traced_reference_s": wall, "untraced_reference_s": base}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--passes", type=int, required=True,
                        help="timed passes, or untraced/traced pairs when traced")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()
    manifest, configs, ready = setup(args.manifest.resolve())
    out = {"setup_s": _SAMPLER.reference_s(_START, ready), "setup_wall_s": ready - _START}
    try:
        if args.mode == "timed":
            out.update(_timed(manifest, configs, args.passes))
        elif args.mode == "traced":
            out.update(_traced(manifest, configs, args.passes, args.spans))
    finally:
        _SAMPLER.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
