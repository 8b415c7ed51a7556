"""The environment record printed with every result."""
from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy

# Set in the measured process so that BLAS-backed numpy runs on one thread.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _git_commit(root: Path) -> str:
    """HEAD read from .git of the checkout itself; never searches upward."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def src_lines(root: Path) -> int:
    """Lines of Python under src/: tracked for information, never gated."""
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def record(root: Path, workload: str, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": PINNED_THREADS,
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_lines": src_lines(root),
    }
