"""Dense complex linear-algebra and polynomial primitives.

`pencil` takes its spectra from block-companion eigen-solves and stores them
as `RootSet`s (residual = eigenpair backward error, plus kernel vectors);
determinant interpolation, polynomial roots and SVD kernel vectors here are
independent references for its tests.  `solve_square` is the batch of one of
`_solve_stack`, which solves a stack of systems and returns, per item, the error
the single solve would raise: its singularity test reads the LU pivots of one
numpy elimination of the whole stack, and its solutions come from
`np.linalg.solve`.  Everything here is a pure function of its inputs: no caching,
no shared state, safe for concurrent use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly


class DegreeZero(Exception):
    """Raised when roots are requested from a constant polynomial."""


class NumericalFailure(Exception):
    """Raised when an eigenvalue/refinement iteration fails to converge, or a solve
    meets non-finite entries or a LAPACK failure."""


class InterpolationInconsistent(Exception):
    """Raised when determinant interpolation disagrees with a held-out sample.

    Usually means the supplied degree bound is too small.
    """


class NotRankDeficient(Exception):
    """Raised when a kernel vector is requested from a numerically regular matrix."""


class KernelNotOneDimensional(Exception):
    """Raised when a matrix kernel has numerical dimension greater than one."""


class Singular(Exception):
    """Raised when a linear solve meets an exactly or nearly singular matrix.  Made
    from (pivot, scale), it formats its text only when read."""

    def __str__(self) -> str:
        return "pivot {:.3e} below 1e-14 x scale {:.3e}".format(*self.args) \
            if len(self.args) == 2 else super().__str__()


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
        """True when no two roots fall within rel_tol * max(1, |root|) of each other."""
        return bool(simple_rows(self.roots[None], rel_tol)[0])


def close_pairs(a: np.ndarray, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """[..., i, j] is |a_i - b_j| < rel_tol * max(1, |a_i|, |b_j|), over any leading axes."""
    a, b = np.asarray(a)[..., :, None], np.asarray(b)[..., None, :]
    return np.abs(a - b) < rel_tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


# elements of the largest temporary that one chunk of a batched kernel forms: one row of
# 256 x 256 root pairs, or the 8 x 8 boundary matrices of 1,024 surface cells
CHUNK_ELEMENTS = 2**16


def chunks(items: int, per_item: int) -> list:
    """Slices of a batch of items that each form at most CHUNK_ELEMENTS temporary
    elements, at per_item elements an item (at least one item a slice)."""
    step = max(1, CHUNK_ELEMENTS // max(1, per_item))
    return [slice(i, i + step) for i in range(0, items, step)]


def simple_rows(roots: np.ndarray, rel_tol: float) -> np.ndarray:
    """Per row of roots (B, K): no two roots within rel_tol * max(1, |root|) of each other,
    i.e. close_pairs of the row with itself is set on the diagonal only.  Rows are tested
    in chunks of at most CHUNK_ELEMENTS pairs, which bounds the memory."""
    B, K = roots.shape
    simple = np.empty(B, dtype=bool)
    for c in chunks(B, K * K):
        simple[c] = close_pairs(roots[c], roots[c], rel_tol).sum(axis=(1, 2)) == K
    return simple


def _sorted_rootset(roots, residuals, tol) -> RootSet:
    order = np.lexsort((roots.real, roots.imag))
    roots = roots[order]
    residuals = residuals[order]
    return RootSet(roots, residuals, _min_separation(roots), tol)


def polynomial_roots(p: Polynomial, tol: float = 1e-8) -> RootSet:
    """All roots of p (with multiplicity) via companion-matrix eigenvalues.

    Each eigenvalue gets one Newton correction (kept only if it does not
    worsen the residual); residuals are the normwise backward errors
    |p(root)| / sum_i |c_i| |root|^i.
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

    residuals = np.abs(npoly.polyval(roots, c)) / npoly.polyval(np.abs(roots), np.abs(c))
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


def _stacked(fn, fill, *stacks) -> tuple:
    """(fn(*stacks), per-item LinAlgError or None) over the leading axis.  When LAPACK
    fails on the stack, fn runs item by item, so that only the failing items fail;
    their result is fill."""
    try:
        return fn(*stacks), [None] * len(stacks[0])
    except np.linalg.LinAlgError:
        pass
    results, failures = [], []
    for item in zip(*stacks):
        try:
            results.append(fn(*item))
            failures.append(None)
        except np.linalg.LinAlgError as exc:
            results.append(fill)
            failures.append(exc.with_traceback(None))  # its frames hold the stacks
    if isinstance(fill, tuple):
        return tuple(np.stack(r) for r in zip(*results)), failures
    return np.stack(results), failures


# columns an elimination step factors before one matmul updates the trailing block
PANEL = 16


def _pivots(a: np.ndarray) -> np.ndarray:
    """|U[j, j]| of each item's LU factors (B, K), from one partial-pivot elimination of
    the whole stack a (B, K, K).  Each step takes the row with the largest |Re| + |Im|
    in its column, as LAPACK's getrf does, and a zero column is skipped as getrf skips
    it.  Columns are eliminated PANEL at a time: a pivot row takes the panel's updates
    to its columns right of the panel as it is chosen, and the rows below them one
    matmul per panel."""
    a = a.copy()
    B, K, _ = a.shape
    parts = a.view(float).reshape(B, K, K, 2)  # (Re, Im) of every entry
    items, swap = np.arange(B)[:, None], np.zeros((B, 2), dtype=np.intp)
    for j0 in range(0, K, PANEL):
        j1 = min(j0 + PANEL, K)
        for j in range(j0, j1):
            swap[:] = j
            swap[:, 1] += np.abs(parts[:, j:, j]).sum(axis=2).argmax(axis=1)
            a[items, swap] = a[items, swap[:, ::-1]]
            a[:, j, j1:] -= (a[:, None, j, j0:j] @ a[:, j0:j, j1:])[:, 0]
            pivot = a[:, j, j]
            a[:, j + 1:, j] /= np.where(pivot == 0, 1, pivot)[:, None]
            a[:, j + 1:, j + 1:j1] -= a[:, j + 1:, j, None] * a[:, None, j, j + 1:j1]
        a[:, j1:, j1:] -= a[:, j1:, j0:j1] @ a[:, j0:j1, j1:]
    return np.abs(np.diagonal(a, axis1=1, axis2=2))


def _solve_stack(a: np.ndarray, b: np.ndarray) -> tuple:
    """Solve each a[i] @ x[i] = b[i] of a stack a (B, K, K), b (B, K) or (B, K, m).

    Returns (x, cond, failures): failures[i] is what solve_square raises for item i,
    or None.  An item with a non-finite entry in a[i] or b[i] is a NumericalFailure,
    and the others are Singular when the smallest pivot of their LU factors, from
    `_pivots`' one elimination of the stack, is at most 1e-14 max|a[i]|.  The rest
    take x from `np.linalg.solve` and cond from `np.linalg.cond`; a LAPACK failure in
    either fails its own item only, as a NumericalFailure caused by it.  x is zero and
    cond inf where an item failed.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    x, cond = np.zeros(b.shape, dtype=complex), np.full(len(a), np.inf)
    if len(a) == 0:
        return x, cond, []
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b.reshape(len(b), -1)).all(axis=1)
    scale, pivots = np.abs(a).max(axis=(1, 2)), np.zeros(len(a))
    pivots[finite] = _pivots(a[finite]).min(axis=1)
    failures = [NumericalFailure("non-finite entries") if not f else
                Singular("zero matrix") if s == 0 else
                Singular(p, s) if p <= 1e-14 * s
                else None for f, s, p in zip(finite, scale, pivots)]
    ok = np.flatnonzero([f is None for f in failures])
    if len(ok):
        rhs = b[ok] if b.ndim == 3 else b[ok, :, None]
        solved, failed = _stacked(np.linalg.solve, np.zeros(rhs.shape[1:], dtype=complex),
                                  a[ok], rhs)
        x[ok] = solved.reshape(x[ok].shape)
        cond[ok], failed_cond = _stacked(np.linalg.cond, np.inf, a[ok])
        for i, exc in zip(ok, (e or f for e, f in zip(failed, failed_cond))):
            if exc is not None:
                failures[i] = NumericalFailure(f"LAPACK failed: {exc}")
                failures[i].__cause__ = exc
    return x, cond, failures


def solve_square(a, b) -> LinearSolve:
    """Solve a @ x = b with pivot-based singularity detection: the batch of one of
    `_solve_stack` (LU pivots from its elimination, x from `np.linalg.solve`), raising
    its error."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("solve_square expects a square matrix")
    x, cond, failures = _solve_stack(a[None], b[None])
    if failures[0] is not None:
        raise failures[0]
    return LinearSolve(x[0], float(cond[0]))
