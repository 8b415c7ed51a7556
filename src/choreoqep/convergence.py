"""Quantifying how the discrete spectra approach the classical ones.

As the delay shrinks, the discrete pencil tends to the quadratic one locally
uniformly and the discrete spectrum, intersected with a compact window that
discards the divergent roots, tends to the classical spectrum in the
Hausdorff metric.  This module measures both; the pencil errors over a square
grid of the window are one array expression in the two operator symbols.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkernel, pencil, scaleop
from .model import LagrangianSpec
from .numkernel import RootSet


class EmptySet(Exception):
    """Raised when a Hausdorff distance is requested from an empty set."""


def hausdorff_distance(f1, f2) -> float:
    """Exact max-min distance between two finite nonempty complex sets."""
    a = np.asarray(getattr(f1, "roots", f1), dtype=complex).ravel()
    b = np.asarray(getattr(f2, "roots", f2), dtype=complex).ravel()
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("hausdorff_distance requires nonempty sets")
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def filter_to_window(roots: RootSet, K_radius: float) -> RootSet:
    """Keep the roots with |lam| <= K_radius (drops the divergent ones)."""
    keep = np.abs(roots.roots) <= K_radius
    return RootSet.from_roots(roots.roots[keep], roots.residuals[keep], roots.tol)


@dataclass(frozen=True)
class SweepResult:
    """Per-epsilon spectral distances and pencil errors, with a fitted order."""

    epsilons: np.ndarray
    distances: np.ndarray
    pencil_errors: np.ndarray
    estimated_order: float
    notes: tuple

    def valid(self) -> np.ndarray:
        return np.isfinite(self.distances)


def _fit_order(epsilons: np.ndarray, distances: np.ndarray) -> float:
    ok = np.isfinite(distances) & (distances > 0)
    if ok.sum() < 3:
        return math.nan
    slope = np.polyfit(np.log(epsilons[ok]), np.log(distances[ok]), 1)[0]
    return float(slope)


def _pencil_error(op: scaleop.ScaleOperator, lam: np.ndarray, gram: np.ndarray) -> float:
    """max over lam of ||P_eps(e^{lam eps}) - P(lam)||_F.  The difference is
    alpha A_nu + beta J5, alpha = -(theta_hat + lam^2) and beta = -(sigma1_hat - 2 lam),
    so its norm comes from the Gram matrix of (A_nu, J5)."""
    N, eps = op.N, op.epsilon
    powers = np.exp(np.outer(lam, np.arange(-2 * N, 2 * N + 1)) * eps)
    coeffs = -np.stack([powers @ op.theta / eps**2 + lam**2,
                        powers[:, N:3 * N + 1] @ op.sigma1 / eps - 2.0 * lam])
    sq = np.einsum("ig,ij,jg->g", coeffs.conj(), gram, coeffs).real
    return float(np.sqrt(np.maximum(sq, 0.0)).max())


def epsilon_sweep(spec: LagrangianSpec, op_family, nu: float, epsilons,
                  K_radius: float = None, grid_points: int = 21) -> SweepResult:
    """Hausdorff distances and pencil errors over a family of delays.

    op_family maps epsilon to a ScaleOperator.  Failures at one delay (bad
    operator conditions, degenerate spectra, empty windows) annotate that
    entry and the sweep continues.  The order is the least-squares slope of
    log(distance) against log(epsilon) over the valid entries.
    """
    epsilons = np.asarray(epsilons, dtype=float).ravel()
    p_cls = pencil.classical_pencil(spec, nu)
    pair = np.stack([p_cls.A, spec.J5]).reshape(2, -1)
    gram = pair.conj() @ pair.T  # Frobenius inner products of A_nu and J5
    q_cls = pencil.classical_spectrum(p_cls)
    if K_radius is None:
        K_radius = 2.0 * float(np.abs(q_cls.roots).max()) + 1.0
    axis = np.linspace(-K_radius, K_radius, grid_points)
    lam_grid = (axis[:, None] + 1j * axis[None, :]).ravel()

    distances = np.full(len(epsilons), np.nan)
    pencil_errors = np.full(len(epsilons), np.nan)
    notes: list[str | None] = [None] * len(epsilons)
    for i, eps in enumerate(epsilons):
        op = op_family(float(eps))
        conds = scaleop.check_operator_conditions(op)
        if not (conds.sum_zero and conds.derivative_normalized):
            notes[i] = "operator conditions fail"
            continue
        tp = pencil.transcendental_pencil(spec, op, nu)
        try:
            sp = pencil.transcendental_spectrum(tp)
        except (pencil.LeadingSingular, pencil.DegenerateRoots,
                numkernel.NumericalFailure) as exc:
            notes[i] = f"spectrum failure: {exc}"
            continue
        kept = filter_to_window(sp.lam, K_radius)
        if len(kept) == 0:
            notes[i] = "no roots inside the compact window"
            continue
        distances[i] = hausdorff_distance(kept, q_cls)
        pencil_errors[i] = _pencil_error(op, lam_grid, gram)
    order = _fit_order(epsilons, distances)
    return SweepResult(epsilons, distances, pencil_errors, order, tuple(notes))
