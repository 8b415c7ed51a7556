"""Dense complex linear-algebra and polynomial primitives.

`pencil` takes its spectra from block-companion eigen-solves and stores them
as `RootSet`s (residual = eigenpair backward error, plus kernel vectors);
determinant interpolation, polynomial roots and SVD kernel vectors here are
independent references for its tests.  Everything here is a pure function of
its inputs: no caching, no shared state, safe for concurrent use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly
import scipy.linalg


class DegreeZero(Exception):
    """Raised when roots are requested from a constant polynomial."""


class NumericalFailure(Exception):
    """Raised when an eigenvalue/refinement iteration fails to converge."""


class InterpolationInconsistent(Exception):
    """Raised when determinant interpolation disagrees with a held-out sample.

    Usually means the supplied degree bound is too small.
    """


class NotRankDeficient(Exception):
    """Raised when a kernel vector is requested from a numerically regular matrix."""


class KernelNotOneDimensional(Exception):
    """Raised when a matrix kernel has numerical dimension greater than one."""


class Singular(Exception):
    """Raised when a linear solve meets an exactly or nearly singular matrix."""


@dataclass(frozen=True)
class Polynomial:
    """Scalar polynomial with coefficients in ascending degree order.

    The zero polynomial is represented by an empty coefficient array; any
    other polynomial stores a nonzero leading (last) coefficient.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).ravel()
        k = c.size
        while k > 0 and c[k - 1] == 0:
            k -= 1
        object.__setattr__(self, "coeffs", c[:k].copy())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        if len(self.coeffs) == 0:
            return np.zeros_like(np.asarray(z, dtype=complex))
        return npoly.polyval(z, self.coeffs)

    @classmethod
    def from_roots(cls, roots, leading: complex = 1.0) -> "Polynomial":
        """Expand leading * prod (z - r) into coefficients."""
        return cls(leading * npoly.polyfromroots(np.asarray(roots, dtype=complex)))


def _min_separation(roots: np.ndarray) -> float:
    if len(roots) < 2:
        return math.inf
    diff = np.abs(roots[:, None] - roots[None, :])
    return float(diff[~np.eye(len(roots), dtype=bool)].min())


@dataclass(frozen=True)
class RootSet:
    """Finite multiset of complex roots with residual and separation metadata.

    A pencil spectrum also carries its unit kernel vectors, one row per root.
    """

    roots: np.ndarray
    residuals: np.ndarray
    min_separation: float
    tol: float = 1e-8
    vectors: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.roots)

    @classmethod
    def from_roots(cls, roots, residuals=None, tol: float = 1e-8) -> "RootSet":
        roots = np.asarray(roots, dtype=complex).ravel()
        if residuals is None:
            residuals = np.zeros(len(roots))
        residuals = np.asarray(residuals, dtype=float).ravel()
        return cls(roots, residuals, _min_separation(roots), tol)

    def is_simple(self, rel_tol: float = 1e-7) -> bool:
        """True when no two roots fall within rel_tol * max(1, |root|) of each other,
        i.e. close_pairs of the roots with themselves is set on the diagonal only."""
        return close_pairs(self.roots, self.roots, rel_tol).sum() == len(self.roots)


def close_pairs(a: np.ndarray, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """[i, j] is |a_i - b_j| < rel_tol * max(1, |a_i|, |b_j|)."""
    a, b = np.asarray(a)[:, None], np.asarray(b)[None, :]
    return np.abs(a - b) < rel_tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def _sorted_rootset(roots, residuals, tol) -> RootSet:
    order = np.lexsort((roots.real, roots.imag))
    roots = roots[order]
    residuals = residuals[order]
    return RootSet(roots, residuals, _min_separation(roots), tol)


def polynomial_roots(p: Polynomial, tol: float = 1e-8) -> RootSet:
    """All roots of p (with multiplicity) via companion-matrix eigenvalues.

    Each eigenvalue gets one Newton correction (kept only if it does not
    worsen the residual); residuals are |p(root)| / max|coeff|.
    """
    if p.degree < 1:
        raise DegreeZero("polynomial_roots requires degree >= 1")
    c = p.coeffs
    try:
        roots = npoly.polyroots(c)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericalFailure(f"companion eigenvalue iteration failed: {exc}") from exc
    dc = npoly.polyder(c)
    val = npoly.polyval(roots, c)
    der = npoly.polyval(roots, dc)
    safe = np.abs(der) > 0
    refined = roots.copy()
    refined[safe] = roots[safe] - val[safe] / der[safe]
    better = np.abs(npoly.polyval(refined, c)) <= np.abs(val)
    roots = np.where(better, refined, roots)

    scale = np.abs(c).max()
    residuals = np.abs(npoly.polyval(roots, c)) / scale
    worst = residuals.max()
    if worst > tol:
        raise NumericalFailure(
            f"root residual {worst:.3e} exceeds acceptance tolerance {tol:.1e}"
        )
    return _sorted_rootset(roots, residuals, tol)


def det_as_polynomial(eval_fn, degree_bound: int, radius: float = 1.0) -> Polynomial:
    """Recover det(eval_fn(z)) as a polynomial by sampling on a circle.

    Samples at degree_bound+1 scaled roots of unity, inverts the DFT, then
    truncates high-order coefficients below 1e-12 of the largest.  A held-out
    point between two sample nodes guards against an undersized degree bound.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be nonnegative")
    if radius <= 0:
        raise ValueError("radius must be positive")
    m = degree_bound + 1
    nodes = radius * np.exp(2j * np.pi * np.arange(m) / m)
    vals = np.array([np.linalg.det(np.asarray(eval_fn(z), dtype=complex)) for z in nodes])
    coeffs = np.fft.fft(vals) / m
    coeffs /= radius ** np.arange(m)

    cap = 1e-12 * np.abs(coeffs).max() if len(coeffs) else 0.0
    k = len(coeffs)
    while k > 0 and abs(coeffs[k - 1]) <= cap:
        k -= 1
    coeffs = coeffs[:k]

    z_held = radius * np.exp(1j * np.pi / m)
    v_held = np.linalg.det(np.asarray(eval_fn(z_held), dtype=complex))
    p_held = npoly.polyval(z_held, coeffs) if k else 0.0
    scale = max(abs(v_held), np.abs(coeffs).max() if k else 0.0, 1e-300)
    if abs(p_held - v_held) > 1e-8 * scale:
        raise InterpolationInconsistent(
            f"held-out determinant sample off by {abs(p_held - v_held) / scale:.3e} "
            f"relative; degree_bound={degree_bound} is likely too small"
        )
    return Polynomial(coeffs)


def kernel_vector(m, rank_tol: float = 1e-8) -> np.ndarray:
    """Unit-norm right null vector of a square matrix via SVD.

    The returned vector is deterministic: its largest-magnitude component is
    made real positive.  Guarantees ||m @ v|| <= rank_tol * ||m||.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("kernel_vector expects a square matrix")
    _, s, vh = np.linalg.svd(m)
    # 1x1 matrices have s_min = s_max, so fall back to an absolute-ish scale
    threshold = rank_tol * s[0] if len(s) >= 2 else rank_tol * max(1.0, s[0])
    if s[-1] > threshold:
        raise NotRankDeficient(
            f"smallest singular value {s[-1]:.3e} exceeds {rank_tol:.1e} x {s[0]:.3e}"
        )
    if len(s) >= 2 and s[-2] <= rank_tol * s[0]:
        raise KernelNotOneDimensional(
            "two smallest singular values are below tolerance; kernel is not simple"
        )
    v = vh[-1].conj()
    i = int(np.argmax(np.abs(v)))
    v = v * (v[i].conjugate() / abs(v[i]))
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class LinearSolve:
    """Solution of a square system together with a condition estimate."""

    x: np.ndarray
    cond: float

    @property
    def ill_conditioned(self) -> bool:
        return self.cond > 1e12


def solve_square(a, b) -> LinearSolve:
    """Solve a @ x = b by LU with pivot-based singularity detection."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("solve_square expects a square matrix")
    scale = np.abs(a).max()
    if scale == 0:
        raise Singular("zero matrix")
    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= 1e-14 * scale:
        raise Singular(f"pivot {pivots.min():.3e} below 1e-14 x scale {scale:.3e}")
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    cond = float(np.linalg.cond(a))
    return LinearSolve(x, cond)
