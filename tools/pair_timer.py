"""Time two checkouts against each other on one benchmark workload.

    python3 tools/pair_timer.py OLD NEW --workload spectra_sweep --seed 2 --rounds 3 --passes 60

OLD and NEW are the roots of two checkouts.  The workload's inputs are written once, by
this repository's `perfbench.gen`, and every process reads the same ones.  Each round
starts one fresh process of each checkout, OLD first in odd rounds and NEW first in
even ones, with `src/` of that checkout on the path and BLAS pinned to one thread.  A
process imports the CLI, parses the configs, makes the workload's warm-up call, then
times PASSES in-process passes of `perfbench.workloads.run_pass`.  Its set-up is the wall
time from its first line to the end of the warm-up call, what the benchmark's `setup_s`
counts.

Prints one line a process (its set-up, its min and median pass time, its peak RSS from
`ru_maxrss` as the benchmark's `peak_rss_mb` reads it, beside its own peak `VmHWM` from
/proc/self/status, and ok ops a pass), then the
NEW/OLD ratio of the min and of the median over all passes of each side, of the median
set-up and of the median own peak RSS (`VmHWM`) over each side's processes.  A child's
`ru_maxrss` is at least its parent's peak RSS, which Linux carries across vfork+exec, so it
creeps upward from one process to the next, whichever checkout runs; `VmHWM` is the
child's own.  A closing `claim:` line gives what a speed claim is judged by: the rounds in
which NEW's median pass beat OLD's (k of R), the relative gap 1 - NEW/OLD of the median
passes, and OLD's spread, the interquartile range over the median of its per-process
median passes (0 for one round).  Exits 1 if any job's output digest, any op's outcome or
any fitted order differs between two passes of the run, on either side.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env, gen  # noqa: E402

# Run in the workload's input directory, with the checkout's src/ and root on the path.
_CHILD = """
import time; start = time.perf_counter()
import json, resource, sys
from choreoqep import cli
from perfbench import workloads
manifest = json.load(open("manifest.json"))
configs = {name: cli.load_config(name) for name in manifest["configs"]}
workloads.run_cli(manifest["warmup_argv"])
setup = time.perf_counter() - start
walls, results = [], []
for _ in range(int(sys.argv[1])):
    t = time.perf_counter()
    results.append(workloads.run_pass(manifest, configs))
    walls.append(time.perf_counter() - t)
print(json.dumps({"setup": setup, "walls": walls, "ok": results[0].ok,
                  "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "own_mb": next(int(line.split()[1]) for line in open("/proc/self/status")
                                 if line.startswith("VmHWM:")) / 1024.0,
                  "passes": [[r.digests, r.outcomes, r.order_gaps] for r in results]}))
"""


def run_side(root: Path, inputs: Path, passes: int) -> dict:
    """One fresh process of the checkout at root: its pass times and what each pass wrote."""
    child_env = {**os.environ, **env.PINNED_THREADS,
                 "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(passes)], cwd=inputs,
                          env=child_env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"pair_timer: {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_outputs(runs: list) -> bool:
    """True when every pass of every process wrote and classified the same."""
    first = runs[0]["passes"][0]
    return all(p == first for run in runs for p in run["passes"])


def claim(old: list, new: list) -> str:
    """The `claim:` line of round-paired runs of OLD and NEW."""
    medians = {name: [statistics.median(run["walls"]) for run in runs]
               for name, runs in (("old", old), ("new", new))}
    wins = sum(n < o for o, n in zip(medians["old"], medians["new"]))
    gap = 1 - (statistics.median(w for run in new for w in run["walls"])
               / statistics.median(w for run in old for w in run["walls"]))
    quartiles = statistics.quantiles(medians["old"], n=4, method="inclusive") \
        if len(old) > 1 else [0.0, 0.0, 0.0]
    spread = (quartiles[2] - quartiles[0]) / statistics.median(medians["old"])
    return (f"claim: new beat old in {wins} of {len(old)} rounds, median gap {gap:.2%}, "
            f"old spread {spread:.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--passes", type=int, default=40)
    args = parser.parse_args(argv)

    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    runs = {"old": [], "new": []}
    with tempfile.TemporaryDirectory() as inputs:
        gen.write_inputs(args.workload, args.seed, inputs)
        for r in range(args.rounds):
            for name in ("old", "new") if r % 2 == 0 else ("new", "old"):
                run = run_side(sides[name], Path(inputs), args.passes)
                runs[name].append(run)
                print(f"round {r + 1} {name}: set-up {1e3 * run['setup']:.1f} ms, "
                      f"min {1e3 * min(run['walls']):.1f} ms, "
                      f"median {1e3 * statistics.median(run['walls']):.1f} ms, "
                      f"peak rss {run['rss_mb']:.1f} MiB (own {run['own_mb']:.1f} MiB), "
                      f"{run['ok']} ok ops a pass",
                      flush=True)
    walls = {name: [w for run in rs for w in run["walls"]] for name, rs in runs.items()}
    setup = {name: statistics.median(run["setup"] for run in rs) for name, rs in runs.items()}
    own = {name: statistics.median(run["own_mb"] for run in rs) for name, rs in runs.items()}
    print(f"new/old: min {min(walls['new']) / min(walls['old']):.3f}, median "
          f"{statistics.median(walls['new']) / statistics.median(walls['old']):.3f}, "
          f"set-up {setup['new'] / setup['old']:.3f}, peak rss {own['new'] / own['old']:.3f}")
    print(claim(runs["old"], runs["new"]))
    if not same_outputs(runs["old"] + runs["new"]):
        print("pair_timer: the outputs differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
