"""Quantifying how the discrete spectra and solutions approach the classical ones.

As the delay shrinks, the discrete pencil tends to the quadratic one locally
uniformly and the discrete spectrum, intersected with a compact window that
discards the divergent roots, tends to the classical spectrum in the
Hausdorff metric.  This module measures both.  A sweep is one batch: the spectra
at every delay are solved together, as one `pencil.spectra` call per distinct N,
and the classical pencil is solved once for the whole sweep (antisymmetric weights take
their roots as preimages of it, backward errors from the R of each pair's products).  It
computes only what it reports: `Spectra` never gathers its kernel vectors, and its
Hausdorff distances are one masked expression.  The pencil errors over a square grid of
the window are one array expression per batch in the forward and adjoint symbols: a
series in lam over the weights' moments at small eps, expm1 terms elsewhere.  With real
weights and blocks, on the grid's mirror-symmetric axis, the symbols at -conj(lam) are
those at lam conjugated and swapped, bit for bit, and the error at conj(lam) is lam's:
only the quarter Re lam, Im lam >= 0 is evaluated.

The error surfaces hold the discrete Dirichlet solves under many operators to the
continuous solution on one grid (`window_reference`, `window_errors`): one stacked batch,
in `numkernel.chunks` that bound each kernel's largest temporary, with one solve per
distinct discrete equation (`equation_classes`: weights and their reverse when J5 = 0,
their negated reverse when J6 = 0, all four forms when both are 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import celsolve, delsolve, numkernel, pencil, scaleop
from .model import LagrangianSpec
from .numkernel import RootSet
from .scaleop import ScaleOperator


def _hausdorff_rows(a: np.ndarray, keep: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact max-min distances (B,) between the entries of each row of a (B, K) that keep
    (B, K) marks and the set b (m,), one masked expression over the kept entries moved to
    the front of their rows: nan where a row keeps none."""
    first = np.argsort(~keep, axis=1, kind="stable")[:, :keep.sum(axis=1).max(initial=0)]
    a, keep = np.take_along_axis(a, first, axis=1), np.take_along_axis(keep, first, axis=1)
    d = np.abs(a[:, :, None] - b)
    to_b = np.where(keep, d.min(axis=2), -np.inf).max(axis=1, initial=-np.inf)
    to_a = np.where(keep[:, :, None], d, np.inf).min(axis=1, initial=np.inf).max(axis=1)
    return np.where(keep.any(axis=1), np.maximum(to_b, to_a), np.nan)


@dataclass(frozen=True)
class SweepResult:
    """Per-epsilon spectral distances and pencil errors, with a fitted order."""

    distances: np.ndarray
    pencil_errors: np.ndarray
    estimated_order: float
    notes: tuple


def symmetric_axis(radius: float, points: int) -> np.ndarray:
    """np.linspace(-radius, radius, points) made exactly mirror-symmetric: axis[points-1-k]
    = -axis[k], with exact endpoints and 0 in the middle of an odd count."""
    half = np.linspace(-radius, radius, points)[:points // 2]
    return np.concatenate([half, np.zeros(points % 2), -half[::-1]])


def fit_order(epsilons: np.ndarray, distances: np.ndarray) -> float:
    """The least-squares slope of log(distance) against log(eps) over the finite, positive
    distances; nan with fewer than 3 of them or a single eps."""
    ok = np.isfinite(distances) & (distances > 0)
    if ok.sum() < 3 or len(set(epsilons[ok].tolist())) < 2:  # one delay fixes no slope
        return math.nan
    return float(np.polyfit(np.log(epsilons[ok]), np.log(distances[ok]), 1)[0])


def _pencil_errors(ops: list, lam: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Per operator (all of one N), max over lam of ||P_eps(e^{lam eps}) - P(lam)||_F =
    ||alpha A_nu + beta J5||_F from the Gram matrix of (A_nu, J5), one (B, G) expression.
    With p = s(lam), q = s_bar(lam): alpha = -((p - lam) q + lam (q + lam)) and
    beta = -((p - lam) - (q + lam)), where p - lam = S(x)/eps, q + lam = S(-x)/eps at
    x = lam eps and S(x) = sum_j gamma_j e^{jx} - x.  Where N max|x| <= 1, S is 20 terms of
    its series in the moments M_m = sum_j gamma_j j^m (each a correctly rounded sum, M_1 - 1
    one sum), as E(x^2) +- x O(x^2); elsewhere sum_j gamma_j expm1(jx) + M_0 - x.  No entry
    depends on another operator: with two or more lams a batch keeps each one's bits.
    lam is (G,), or the grid axis[k] + i axis[l] (R, R) of a `symmetric_axis`: with real
    weights and blocks (a spec's are) conj(lam) has lam's error, so the half l >= R//2 holds
    the max, and -conj(lam) has lam's S values conjugated and swapped, so only the quarter
    k, l >= R//2 is evaluated and row k < R//2 of the half takes row R-1-k's, mirrored.
    Any other 2-D lam is a ValueError."""
    N, m, R, h = ops[0].N, np.arange(20), len(lam), len(lam) // 2
    if lam.ndim == 2:
        axis = lam[:, 0].real
        if not (np.array_equal(lam, axis[:, None] + 1j * axis) and
                np.array_equal(axis[::-1], -axis)):
            raise ValueError("a 2-D lam must be the grid axis[k] + i axis[l] of one "
                             "mirror-symmetric axis (see symmetric_axis)")
    mirror = lam.ndim == 2 and not any(op.gamma.imag.any() for op in ops)
    lam, half = (lam[h:, h:].ravel(), lam[:, h:].ravel()) if mirror else (lam.ravel(),) * 2
    eps = np.array([op.epsilon for op in ops])[:, None]
    gamma = np.stack([op.gamma for op in ops])
    first = {}  # weight bytes -> the first operator with them
    owner = [first.setdefault(g.tobytes(), i) for i, g in enumerate(gamma)]
    classes = list(first.values())
    weights, inverse = gamma[classes], np.searchsorted(classes, owner)
    rows = weights[:, None, :] * np.arange(-N, N + 1.0) ** m[:, None]  # gamma_j j^m
    rows[:, 1, N] = -1.0  # gamma_0 0^1 = 0: its place holds the -1 of M_1 - 1
    parts = np.moveaxis(rows.view(float).reshape(*rows.shape, 2), -1, -2)  # re, im apart
    moments = np.array([math.fsum(r) for r in parts.reshape(-1, 2 * N + 1).tolist()])
    series = (moments.view(complex).reshape(len(weights), -1)
              / np.cumprod(np.maximum(m, 1.0)))[inverse]  # M_m/m!
    small = N * np.abs(lam).max() * eps[:, 0] <= 1
    x = lam * eps[small]
    y, c = (x * x)[:, None], series[small, :, None]
    even_odd = c[:, -2:]  # (b, 2, G)
    for k in range(len(m) - 4, -1, -2):  # Horner's rule in x^2
        even_odd = even_odd * y + c[:, k:k + 2]
    even, odd = even_odd[:, 0], even_odd[:, 1]
    gaps = np.empty((2, len(ops), len(lam)), dtype=complex)  # S(x), S(-x)
    gaps[:, small] = even + x * odd, even - x * odd
    x, terms, m_0 = lam * eps[~small], gamma[~small, None], series[~small, :1]
    e = np.expm1(x[..., None] * np.arange(-N, N + 1))  # e^{jx} - 1 at j = -N..N
    gaps[0, ~small] = (e * terms).sum(axis=2) + m_0 - x
    e = np.ascontiguousarray(e[..., ::-1])  # e^{-jx} - 1, laid out as its own expm1's
    gaps[1, ~small] = (e * terms).sum(axis=2) + m_0 + x
    p_lam, q_lam = gaps / eps
    if mirror:
        p, q = (a.reshape(len(ops), R - h, R - h) for a in (p_lam, q_lam))
        p_lam, q_lam = (np.concatenate([y[:, ::-1][:, :h].conj(), x], axis=1).reshape(
            len(ops), -1) for x, y in ((p, q), (q, p)))
    coeffs = -np.stack([p_lam * (q_lam - half) + half * q_lam, p_lam - q_lam], axis=1)
    sq = np.einsum("big,ij,bjg->bg", coeffs.conj(), gram, coeffs).real
    return np.sqrt(np.maximum(sq, 0.0)).max(axis=1)


def compact_radius(classical: RootSet) -> float:
    """The compact window's radius: twice the classical spectral radius plus one."""
    return 2.0 * float(np.abs(classical.roots).max()) + 1.0


def epsilon_sweep(spec: LagrangianSpec, op_family, nu: float, epsilons,
                  K_radius: float = None) -> SweepResult:
    """Hausdorff distances and pencil errors over a family of delays.

    op_family maps epsilon to a ScaleOperator.  The sweep is one batch: the delays
    whose operators pass the operator conditions (checked once per weight vector) are
    solved together, one `pencil.spectra` call per distinct N, on the classical spectrum
    the spec keeps.  The pencil error is the max over a 21 x 21 grid of the square
    |Re lam|, |Im lam| <= K_radius (`compact_radius` by default), on a `symmetric_axis`
    (axis[20 - k] = -axis[k], 0 in the middle), from its quarter Re lam, Im lam >= 0 when
    the weights are real.
    Failures at one delay (bad operator conditions, failed spectra, zeta-roots clustered
    below numkernel.SEPARATION_TOL, empty windows) annotate that entry and the others are
    kept.  The order is the least-squares slope of log(distance) against log(epsilon) over
    the valid entries.
    """
    epsilons = np.asarray(epsilons, dtype=float).ravel()
    gram, q_cls = pencil.error_gram(spec, nu), pencil.classical_spectrum(spec, nu)
    if K_radius is None:
        K_radius = compact_radius(q_cls)
    axis = symmetric_axis(K_radius, 21)
    lam_grid = axis[:, None] + 1j * axis[None, :]  # 21 x 21 pencil errors
    ops = [op_family(float(eps)) for eps in epsilons]
    distinct = {op.gamma.tobytes(): op for op in ops}  # conditions once per weight vector
    holds = {key: all(scaleop.check_operator_conditions(op)) for key, op in distinct.items()}
    notes: list[str | None] = [None if holds[op.gamma.tobytes()] else "operator conditions fail"
                               for op in ops]
    distances = np.full(len(epsilons), np.nan)
    pencil_errors = np.full(len(epsilons), np.nan)
    by_n: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        if notes[i] is None:
            by_n.setdefault(op.N, []).append(i)
    for idx in by_n.values():
        sp = pencil.spectra(spec, [ops[i] for i in idx], nu)
        done, simple = [], numkernel.simple_rows(sp.roots, numkernel.SEPARATION_TOL)
        hausdorff = _hausdorff_rows(sp.lam, np.abs(sp.lam) <= K_radius, q_cls.roots)  # window
        for i, failure, ok, h in zip(idx, sp.failures, simple, hausdorff):
            if failure is None and not ok:
                failure = "zeta-roots cluster below the separation tolerance"
            if failure is not None:
                notes[i] = f"spectrum failure: {failure}"
            elif np.isnan(h):
                notes[i] = "no roots inside the compact window"
            else:
                distances[i] = h
                done.append(i)
        if done:
            pencil_errors[done] = _pencil_errors([ops[i] for i in done], lam_grid, gram)
    order = fit_order(epsilons, distances)
    return SweepResult(distances, pencil_errors, order, tuple(notes))


def node_values(cel: celsolve.SystemSolution, t0: float, epsilon: float, nodes) -> np.ndarray:
    """(n, len(nodes), d): the continuous solution's particles at the grid nodes k, the
    times t0 + eps k."""
    times = t0 + epsilon * np.asarray(nodes)
    return np.array([p.value(times) for p in cel.particles])


def window_reference(cel: celsolve.SystemSolution, t0: float, M: int, epsilon: float, N: int):
    """(head, tail, window times, continuous values there): what every discrete solve on
    the grid of M steps of eps from t0 under operators of half-width N is held to.  The
    head and tail, nodes 0..2N-1 and M-2N+1..M, are its Dirichlet data; the window is
    nodes 2N..M-2N."""
    window = np.arange(2 * N, M - 2 * N + 1)
    return (node_values(cel, t0, epsilon, np.arange(2 * N)),
            node_values(cel, t0, epsilon, np.arange(M - 2 * N + 1, M + 1)),
            t0 + epsilon * window, node_values(cel, t0, epsilon, window))


def equation_classes(spec: LagrangianSpec, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, inverse): the first row of each class in grid order, and each
    row's class, for weights gammas (B, 2N+1) at one eps.  A class is one discrete
    equation: gamma enters it only through theta = g g~ (g~ of the reversed weights),
    sigma1 = gamma - gamma~ times J5 and s_bar(0) = sum(gamma)/eps, squared and times J6.
    So a class is gamma's orbit under reversal when J5 = 0 and under reversal with
    negation when J6 = 0 (all four forms when both are 0, J5 and J6 tested exactly), keyed
    by the lexicographic least of the forms, each from the weights, -0.0 read as 0.0."""
    B = len(gammas)
    if B == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    weights = np.asarray(gammas, dtype=complex).view(float).reshape(B, -1)
    reverse = weights.reshape(B, -1, 2)[:, ::-1].reshape(B, -1)  # re, im pairs turned round
    j5, j6, key = spec.J5.any(), spec.J6.any(), weights + 0.0
    for form in np.stack([reverse, -weights, -reverse])[[not j5, not (j5 or j6), not j6]] + 0.0:
        at = np.arange(B), (key != form).argmax(axis=1)  # first place they differ
        key = np.where((form[at] < key[at])[:, None], form, key)
    first = {}  # key bytes -> the first row with that key
    owner = [first.setdefault(k, i) for i, k in enumerate(
        key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel().tolist())]
    representatives = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return representatives, np.searchsorted(representatives, owner)


def window_errors(spec: LagrangianSpec, n: int, t0: float, M: int, epsilon: float,
                  gammas: np.ndarray, reference) -> tuple[list, list, list, int]:
    """Per row of operator weights gammas (B, 2N+1) at eps: the Euclidean and the max norm
    of (continuous - discrete) at the `window_reference` nodes, over every particle and
    coordinate (nan for a failed cell), and its status, "ok" or the class name of what
    `dirichlet_del` raises for it; and the number of operators solved.
    Only the first row of each `equation_classes` class (reversal when J5 = 0, reversal
    and negation when J6 = 0) becomes an operator and is solved, and every row takes the
    result of its class.  The representatives are solved as one batch, in `numkernel.chunks`
    of K x K boundary matrices (K = 4Nd), each chunk's operators built and its arrays
    dropped before the next; only the ones whose solves succeed are sampled, in chunks of
    their (T, K') window exponentials, all particles as one (T, K') @ (K', n d) product a
    cell (`celsolve.grid_values`)."""
    representatives, inverse = equation_classes(spec, gammas)
    head, tail, times, cel_values = reference
    want = cel_values.transpose(1, 0, 2).reshape(len(times), n * spec.d)  # T may be 0
    errors, status = np.full((len(representatives), 2), math.nan), []
    K = 2 * head[0].size  # 4Nd: head holds 2N nodes of d values a particle
    for c in numkernel.chunks(len(representatives), K * K):
        ops = [ScaleOperator(gammas[i], epsilon) for i in representatives[c]]
        core, ends, data = delsolve.boundary_problem(spec, ops, n, t0, M, head, tail)
        *amplitudes, failures = core.boundary_solve(ends, data)
        _, (u0, lams, vectors, anchors) = core.expansions(*amplitudes)
        _, ok = numkernel.merge_failures(failures)
        for w in numkernel.chunks(len(ok), len(times) * lams.shape[-1]):
            w = ok[w]
            stacked = vectors[w].transpose(0, 2, 1, 3).reshape(len(w), -1, want.shape[1])
            diff = celsolve.grid_values(np.tile(u0[w, 0], n), lams[w, 0], stacked,
                                        anchors[w, 0], times[0], epsilon, len(times)) - want
            errors[c][w] = np.stack([np.linalg.norm(diff, axis=(1, 2)),
                                     np.abs(diff).max(axis=(1, 2))], axis=1)
        status += ["ok" if f is None else type(f).__name__ for f in failures]
        del ops, core, ends, data, amplitudes, u0, lams, vectors, anchors  # freed before the next chunk
    return *errors[inverse].T.tolist(), [status[i] for i in inverse], len(representatives)
