"""Per-layer tracing from outside the program.

Each layer metric is a group of public functions.  While a Tracer is
installed, every function of a group is replaced by a wrapper that counts
its calls and the exceptions leaving it and records a span (group, start,
end, parent span).  Spans stay in memory; self time is a span's duration
minus the time of its child spans.  Hot leaves are counted without spans.
The program is single-threaded and has no queues, so no layer waits and no
waiting time is reported.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import os
from time import perf_counter

# group -> functions ("module:attribute" or "module:Class.attribute")
LAYERS = {
    "numkernel.det_interp": ["numkernel:det_as_polynomial"],
    "numkernel.roots": ["numkernel:polynomial_roots"],
    "numkernel.kernel_vector": ["numkernel:kernel_vector"],
    "numkernel.solve_square": ["numkernel:solve_square"],
    "pencil.spectrum": ["pencil:classical_spectrum", "pencil:transcendental_spectrum"],
    "pencil.eval": ["pencil:classical_eval", "pencil:transcendental_eval"],
    "pencil.assumptions": ["pencil:check_cel_assumptions", "pencil:check_del_assumptions"],
    "scaleop.coefficients": ["scaleop:theta_coefficients", "scaleop:sigma1_coefficients"],
    "scaleop.apply": ["scaleop:box_apply", "scaleop:adjoint_box_apply",
                      "scaleop:boxbox_apply"],
    "scaleop.chi": ["scaleop:chi"],
    "delsolve.dirichlet": ["delsolve:dirichlet_del"],
    "delsolve.march": ["delsolve:recurrence_march"],
    "delsolve.residual": ["delsolve:residual_del"],
    "delsolve.sample": ["delsolve:DelSolution.sample"],
    "celsolve.expansion_eval": ["celsolve:ModeExpansion.value"],
    "celsolve.dirichlet": ["celsolve:dirichlet_cel"],
    "periodic.build": ["periodic:build_choreography_cel", "periodic:build_choreography_del"],
    "periodic.verify": ["periodic:verify_choreography"],
    "convergence.sweep": ["convergence:epsilon_sweep"],
    "cli.parse": ["cli:load_config"],
    "cli.write": ["cli:write_csv", "cli:write_svg"],
    "cli.command": ["cli:cmd_validate", "cli:cmd_spectrum", "cli:cmd_solve",
                    "cli:cmd_error_surface", "cli:cmd_converge", "cli:cmd_choreo"],
}
COUNT_ONLY = {"scaleop.chi"}  # ~100 calls per grid node: no spans
WITH_FAILED = {"numkernel.roots", "numkernel.kernel_vector", "numkernel.solve_square",
               "pencil.spectrum", "delsolve.dirichlet", "celsolve.dirichlet"}
WITH_OK_RATIO = {"numkernel.kernel_vector", "delsolve.dirichlet"}
WITH_PER_OP = {"pencil.spectrum", "pencil.eval", "scaleop.coefficients", "scaleop.chi"}
WITH_BYTES = {"cli.write"}  # first argument is the path written

# The two families the workloads are built to separate.
SPECTRUM_LAYERS = ("numkernel.det_interp", "numkernel.roots", "numkernel.kernel_vector",
                   "numkernel.solve_square", "pencil.spectrum", "pencil.eval",
                   "pencil.assumptions", "scaleop.coefficients")
GRID_LAYERS = ("scaleop.apply", "scaleop.chi", "delsolve.march", "delsolve.residual",
               "cli.write")

PACKAGE = "choreoqep"


def _resolve(target: str):
    """(owner object, attribute name) for "module:attr" or "module:Class.attr"."""
    module, path = target.split(":")
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(target)
    return owner, attr


class Tracer:
    """Counts, failures and spans per layer group; patch with `installed()`."""

    def __init__(self, layers: dict = LAYERS):
        self.layers = layers
        self.groups = list(layers)
        self.calls = [0] * len(self.groups)
        self.failed = [0] * len(self.groups)
        self.bytes = [0] * len(self.groups)
        self.spans: list = []
        self._stack: list = []
        self.missing: set = set()
        self.present: set = set()

    def reset(self) -> None:
        """Forget what earlier passes recorded."""
        for counter in (self.calls, self.failed, self.bytes):
            counter[:] = [0] * len(self.groups)
        self.spans.clear()
        self._stack.clear()

    def _count_wrapper(self, g: int, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[g] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, g: int, fn, count_bytes: bool):
        calls, failed, nbytes = self.calls, self.failed, self.bytes
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[g] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                failed[g] += 1
                raise
            finally:
                spans[idx] = (g, start, perf_counter(), parent)
                stack.pop()
            if count_bytes:
                nbytes[g] += os.path.getsize(args[0])
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every present function for the duration; always restore."""
        patches = []
        try:
            for g, group in enumerate(self.groups):
                for target in self.layers[group]:
                    try:
                        owner, attr = _resolve(target)
                    except (AttributeError, ImportError):
                        self.missing.add(target)
                        continue
                    self.present.add(group)
                    original = inspect.getattr_static(owner, attr)
                    if group in COUNT_ONLY:
                        wrapper = self._count_wrapper(g, original)
                    else:
                        wrapper = self._span_wrapper(g, original, group in WITH_BYTES)
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def self_times(self) -> list:
        """Self time per group over the recorded spans."""
        child = [0.0] * len(self.spans)
        for g, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = [0.0] * len(self.groups)
        for i, (g, start, end, parent) in enumerate(self.spans):
            out[g] += (end - start) - child[i]
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped CSV: name, start, end, parent (row index or -1)."""
        lines = ["name,start,end,parent"]
        lines += [f"{self.groups[g]},{start!r},{end!r},{parent}"
                  for g, start, end, parent in self.spans]
        with gzip.open(path, "wt") as out:
            out.write("\n".join(lines) + "\n")

    def metrics(self, self_s: list, attempted: int) -> dict:
        """Per-layer metrics of present groups; missing groups are absent."""
        out = {}
        for g, group in enumerate(self.groups):
            if group not in self.present:
                continue
            calls = self.calls[g]
            out[f"{group}.calls"] = (calls, "count")
            if group not in COUNT_ONLY:
                out[f"{group}.self_s"] = (self_s[g], "s")
            if group in WITH_FAILED:
                out[f"{group}.failed"] = (self.failed[g], "count")
            if group in WITH_OK_RATIO:
                ratio = 1.0 - self.failed[g] / calls if calls else 1.0
                out[f"{group}.ok_ratio"] = (ratio, "1")
            if group in WITH_PER_OP:
                out[f"{group}.per_op"] = (calls / attempted, "calls/op")
            if group in WITH_BYTES:
                out[f"{group}.bytes"] = (self.bytes[g], "B")
        return out
