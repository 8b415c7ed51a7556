"""Per-op correctness rules, as pure functions of the program's outputs.

Each function returns one bool per op (True = ok).  A failed op is counted,
never raised: the only exceptions here are for output the rules cannot read.
"""
from __future__ import annotations

import math
import re

ORDER_FLOOR = 0.01  # least-squares slopes over 12 points do not resolve finer
MARCH_RTOL = 1e-6
RESIDUAL_TOL = 1e-10


def gamma_cells(csv_text: str, M: int) -> list[bool]:
    """Cells of `error-surface --grid gamma`.

    A `status` column, when present, decides alone ("ok" passes).  Without
    one, a cell fails when its metric is the sentinel -log(3M) that the
    program writes for every caught failure.
    """
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if "status" in header:
        col = header.index("status")
        return [row[col] == "ok" for row in rows]
    col = header.index("metric")
    sentinel = -math.log(3.0 * M)
    return [math.isfinite(float(row[col])) and float(row[col]) != sentinel
            for row in rows]


def sweep_cells(csv_text: str) -> list[bool]:
    """Cells of `converge`, in file order.

    A cell is ok when its note is empty, its distance is finite, and it is
    not past the precision floor: its distance is not larger than the one at
    the next larger epsilon (when that one is finite).
    """
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    eps_col, dist_col = header.index("epsilon"), header.index("hausdorff")
    rows = [line.split(",", len(header) - 1) for line in lines[1:]]
    eps = [float(r[eps_col]) for r in rows]
    dist = [float(r[dist_col]) for r in rows]
    notes = [r[header.index("note")].strip() for r in rows]
    ok = []
    for i, e in enumerate(eps):
        larger = [j for j in range(len(eps)) if eps[j] > e]
        floored = False
        if larger:
            j = min(larger, key=lambda k: eps[k])
            floored = math.isfinite(dist[j]) and dist[i] > dist[j]
        ok.append(notes[i] == "" and math.isfinite(dist[i]) and not floored)
    return ok


_ORDER = re.compile(r"^estimated order:\s*(\S+)", re.MULTILINE)


def fitted_order(stdout: str) -> float | None:
    """The order `converge` printed, or None when it fitted none."""
    match = _ORDER.search(stdout)
    if match is None:
        return None
    value = float(match.group(1))
    return value if math.isfinite(value) else None


def order_gap(fitted: float | None, order: int) -> float:
    """|fitted - order|, floored at ORDER_FLOOR; no fit scores the full order."""
    if fitted is None:
        return float(order)
    return max(abs(fitted - order), ORDER_FLOOR)


def grid_nodes(march_err, residual_err, roundtrip_ok) -> list[bool]:
    """Nodes of a discrete trajectory: march, residual and CSV round trip.

    march_err is |marched - CSV| relative to the trajectory's largest entry,
    residual_err the residual relative to the equation scale; all three
    sequences cover the same nodes.
    """
    return [m <= MARCH_RTOL and r <= RESIDUAL_TOL and bool(t)
            for m, r, t in zip(march_err, residual_err, roundtrip_ok, strict=True)]
