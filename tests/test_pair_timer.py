"""tools/pair_timer.py: fresh processes of two checkouts on one workload, outputs compared."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tools import pair_timer

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_of_one_pass_with_the_repo_on_both_sides():
    proc = subprocess.run([sys.executable, "tools/pair_timer.py", ".", ".", "--workload",
                           "spectra_sweep", "--seed", "1", "--rounds", "1", "--passes", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["round 1 old", "round 1 new", "new/old",
                                                      "claim"]
    assert all(line.endswith("216 ok ops a pass") for line in lines[:2])
    rss = [float(re.search(r"peak rss ([0-9.]+) MiB", line)[1]) for line in lines[:2]]
    assert all(20 < mb < 2000 for mb in rss)  # a process with numpy loaded, in MiB
    # the child's own VmHWM, which ru_maxrss (the parent's peak at least) bounds
    own = [float(re.search(r"\(own ([0-9.]+) MiB\)", line)[1]) for line in lines[:2]]
    assert all(20 < mb <= total + 0.1 for mb, total in zip(own, rss))
    ratio = float(re.search(r"peak rss ([0-9.]+)$", lines[2])[1])
    assert ratio == pytest.approx(own[1] / own[0], abs=5e-3)  # own printed to 0.1 MiB
    setup = [float(re.search(r": set-up ([0-9.]+) ms, min", line)[1]) for line in lines[:2]]
    assert all(10 < ms < 60_000 for ms in setup)  # at least numpy's import
    ratio = float(re.search(r", set-up ([0-9.]+), peak rss", lines[2])[1])
    assert ratio == pytest.approx(setup[1] / setup[0], rel=5e-3, abs=5e-3)
    # one round: k of 1 from the two medians, the gap 1 - the median ratio, no spread
    wins, rounds, gap = re.fullmatch(r"claim: new beat old in (\d) of (\d) rounds, median "
                                     r"gap (-?[0-9.]+)%, old spread 0\.00%", lines[3]).groups()
    medians = [float(re.search(r", median ([0-9.]+) ms", line)[1]) for line in lines[:2]]
    assert rounds == "1" and wins in "01" and (wins == "1") <= (medians[1] <= medians[0])
    median = float(re.search(r", median ([0-9.]+), set-up", lines[2])[1])
    assert float(gap) / 100 == pytest.approx(1 - median, abs=6e-4)


def test_the_claim_line_counts_paired_rounds_and_the_old_side_s_spread():
    old = [{"walls": [w]} for w in (1.0, 1.2, 1.1, 1.4, 1.0)]
    new = [{"walls": [w]} for w in (0.9, 1.0, 1.2, 1.0, 0.8)]
    # old medians 1.0, 1.0, 1.1, 1.2, 1.4: quartiles 1.0 and 1.2 about the median 1.1
    assert pair_timer.claim(old, new) == ("claim: new beat old in 4 of 5 rounds, median gap "
                                          "9.09%, old spread 18.18%")


def test_a_differing_digest_fails_the_run():
    run = {"walls": [0.1], "ok": 1, "passes": [[["a", "b"], [True], [0.5]]]}
    other = {**run, "passes": [[["a", "c"], [True], [0.5]]]}
    assert pair_timer.same_outputs([run, run])
    assert not pair_timer.same_outputs([run, other])
