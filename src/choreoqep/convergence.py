"""Quantifying how the discrete spectra approach the classical ones.

As the delay shrinks, the discrete pencil tends to the quadratic one locally
uniformly and the discrete spectrum, intersected with a compact window that
discards the divergent roots, tends to the classical spectrum in the
Hausdorff metric.  This module measures both.  A sweep is one batch: the spectra
at every delay are solved together, as one `pencil._spectra` call per distinct N,
and the classical pencil is solved once for the whole sweep (antisymmetric weights
take their roots as preimages of it).  The pencil errors over a square grid of the
window are one array expression per batch in the forward and adjoint symbols, summed
from expm1 terms so that they stay accurate at small eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pencil, scaleop
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
    if ok.sum() < 3 or len(np.unique(epsilons[ok])) < 2:  # one delay fixes no slope
        return math.nan
    slope = np.polyfit(np.log(epsilons[ok]), np.log(distances[ok]), 1)[0]
    return float(slope)


def _pencil_errors(ops: list, lam: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Per operator (all of one N), max over lam of ||P_eps(e^{lam eps}) - P(lam)||_F =
    ||alpha A_nu + beta J5||_F, from the Gram matrix of (A_nu, J5): one (B, G, 2N+1)
    expression over the operators.  With the symbols p = s(lam), q = s_bar(lam),
    theta_hat = p q and sigma1_hat = p - q give alpha = -((p - lam) q + lam (q + lam))
    and beta = -((p - lam) - (q + lam)); p - lam and q + lam are summed from expm1 terms."""
    N = ops[0].N
    eps = np.array([op.epsilon for op in ops])[:, None]
    gamma = np.stack([op.gamma for op in ops])[:, :, None]
    total = gamma.sum(axis=1)
    x = np.outer(lam, np.arange(-N, N + 1)) * eps[:, :, None]
    e = np.expm1(x)
    p_lam = ((e @ gamma)[..., 0] + total) / eps - lam  # p - lam
    # expm1(-x) is expm1(x) with its k columns reversed; a view would change the sums' bits
    q_lam = ((np.ascontiguousarray(e[..., ::-1]) @ gamma)[..., 0] + total) / eps + lam
    coeffs = -np.stack([p_lam * (q_lam - lam) + lam * q_lam, p_lam - q_lam], axis=1)
    sq = np.einsum("big,ij,bjg->bg", coeffs.conj(), gram, coeffs).real
    return np.sqrt(np.maximum(sq, 0.0)).max(axis=1)


def epsilon_sweep(spec: LagrangianSpec, op_family, nu: float, epsilons,
                  K_radius: float = None, grid_points: int = 21) -> SweepResult:
    """Hausdorff distances and pencil errors over a family of delays.

    op_family maps epsilon to a ScaleOperator.  The sweep is one batch: the delays
    whose operators pass the operator conditions are solved together, one `_spectra`
    call per distinct N, with the classical spectrum solved once and shared.
    Failures at one delay (bad operator conditions, degenerate spectra, empty
    windows) annotate that entry and the others are kept.  The order is the
    least-squares slope of log(distance) against log(epsilon) over the valid entries.
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

    ops = [op_family(float(eps)) for eps in epsilons]
    notes: list[str | None] = [
        None if conds.sum_zero and conds.derivative_normalized else "operator conditions fail"
        for conds in map(scaleop.check_operator_conditions, ops)]
    distances = np.full(len(epsilons), np.nan)
    pencil_errors = np.full(len(epsilons), np.nan)
    by_n: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        if notes[i] is None:
            by_n.setdefault(op.N, []).append(i)
    for idx in by_n.values():
        sp = pencil._spectra([pencil.Setting(spec, ops[i]) for i in idx], nu,
                             classical=q_cls)
        done = []
        for i, lam, failure in zip(idx, sp.lam, sp.failures):
            if failure is not None:
                notes[i] = f"spectrum failure: {failure}"
                continue
            kept = lam[np.abs(lam) <= K_radius]  # the compact window
            if len(kept) == 0:
                notes[i] = "no roots inside the compact window"
                continue
            distances[i] = hausdorff_distance(kept, q_cls)
            done.append(i)
        if done:
            pencil_errors[done] = _pencil_errors([ops[i] for i in done], lam_grid, gram)
    order = _fit_order(epsilons, distances)
    return SweepResult(epsilons, distances, pencil_errors, order, tuple(notes))
