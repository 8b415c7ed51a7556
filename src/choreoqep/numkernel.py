"""Dense complex linear-algebra and polynomial primitives, and the batch contract.

The contract of every batched stage (`solve_stack` here, `pencil.spectra`,
`celsolve.Core`): a batch is a leading item axis, and a stage
gives its arrays for every item and a list `failures`, failures[i] None or the typed error
that item's lone call raises.  `merge_failures` merges a later stage into that list, so
that an item keeps the first failure it meets.  A public lone function is the batch of
one, raising failures[0].  `pencil` takes its spectra from block-companion eigen-solves;
determinant interpolation, polynomial roots and SVD kernel vectors here are independent
references for its tests.  `is_singular` is the one rank rule of `pencil` and `model`.
Every numerical failure of the package is a `NumericalFailure`, `Singular` among them; an
argument outside a function's domain, such as a constant polynomial, is a ValueError.
`solve_stack` takes each item's LU factors from one numpy elimination of the stack: their
pivots decide singularity and give x, and no solve computes a condition number: `cond` is
the one, read for the boundary systems of a lone Dirichlet solve.  Everything here is a
pure function of its inputs: no caching, no shared state, safe for concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly


class NumericalFailure(Exception):
    """Raised when the numerics fail: an eigenvalue/refinement iteration does not converge,
    a solve meets non-finite entries or gives a non-finite or underflowing x, LAPACK fails,
    or a reference's held-out sample or rank test does not hold."""


def overflow(what: str, growth: str, figure: float) -> NumericalFailure:
    """The one verdict on values that are not finite: what is not finite, and the growth
    it reached (its measure and figure), set against log(max float) ~ 709.78."""
    return NumericalFailure(f"{what}: growth {growth} = {figure:.2f} against "
                            f"log(max float) = {np.log(np.finfo(float).max):.2f}")


class Singular(NumericalFailure):
    """Raised when a linear solve meets an exactly or nearly singular matrix.  Made
    from (pivot, threshold, scale), it formats its text only when read."""

    def __str__(self) -> str:
        return "pivot {:.3e} below {:.3g} x scale {:.3e}".format(*self.args) \
            if len(self.args) == 3 else super().__str__()


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


# two roots closer than this, relative to max(1, |root|), are one repeated root to every
# verdict on simple or disjoint roots: `RootSet.is_simple`, the assumption reports and the
# eps-sweep's cluster note
SEPARATION_TOL = 1e-7


@dataclass(frozen=True)
class RootSet:
    """Finite multiset of complex roots with their residuals; a pencil spectrum also
    carries its unit kernel vectors, one row per root."""

    roots: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.roots)

    def is_simple(self) -> bool:
        """True when no two roots fall within SEPARATION_TOL * max(1, |root|) of each other."""
        return bool(simple_rows(self.roots[None], SEPARATION_TOL)[0])


def close_pairs(a: np.ndarray, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """[..., i, j] is |a_i - b_j| < rel_tol * max(1, |a_i|, |b_j|), over any leading axes."""
    a, b = np.asarray(a)[..., :, None], np.asarray(b)[..., None, :]
    return np.abs(a - b) < rel_tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def is_singular(m: np.ndarray) -> np.ndarray:
    """The one rank rule, per matrix of a (..., d, d) stack: zero, or sigma_min <= 1e-12
    sigma_max.  It judges a pencil's leading block, its value at the constant mode and
    the J1 - 2 J3 that `model.construct_j4` inverts."""
    s = np.linalg.svd(m, compute_uv=False)
    return (s[..., 0] == 0) | (s[..., -1] <= 1e-12 * s[..., 0])


# elements of the largest temporary that one chunk of a batched kernel forms: the 8 x 8
# boundary matrices of 1,024 surface cells, or the products B_i v of a spectrum's roots
CHUNK_ELEMENTS = 2**16


def chunks(items: int, per_item: int) -> list:
    """Slices of a batch of items that each form at most CHUNK_ELEMENTS temporary
    elements, at per_item elements an item (at least one item a slice)."""
    step = max(1, CHUNK_ELEMENTS // max(1, per_item))
    return [slice(i, i + step) for i in range(0, items, step)]


def simple_rows(roots: np.ndarray, rel_tol: float) -> np.ndarray:
    """Per row of roots (B, K): no two roots within rel_tol * max(1, |root|) of each other,
    i.e. close_pairs of the row with itself is set on the diagonal only (a root not finite
    fails its own entry).  Rows are sorted by p = 0.8 Re + 0.6 Im (oblique, so that axes
    and conjugate pairs keep distinct p); a close pair is within 2 (rel_tol + 4 eps)
    max(1, |root|) / (1 - 2 rel_tol) of its lower root in p, rounding included, so roots
    s = 1, 2, .. places apart are compared while some are that near.  Temporaries: (B, K)."""
    K = roots.shape[1]
    with np.errstate(all="ignore"):
        simple = close_pairs(roots[..., None], roots[..., None], rel_tol).all(axis=(1, 2, 3))
        p = 0.8 * roots.real + 0.6 * roots.imag
        order = np.argsort(p, axis=1)
        roots, p = np.take_along_axis(roots, order, 1), np.take_along_axis(p, order, 1)
        scale = np.maximum(1.0, np.abs(roots))
        window = 2 * (rel_tol + 4 * np.finfo(float).eps) * scale / max(1 - 2 * rel_tol, 0)
    for s in range(1, K):
        near = simple[:, None] & (p[:, s:] - p[:, :-s] < window[:, :-s])
        if not near.any():
            break
        b, i = np.nonzero(near)
        close = close_pairs(roots[b, i, None], roots[b, i + s, None], rel_tol)[:, 0, 0]
        simple[b[close]] = False
    return simple


def polynomial_roots(p: Polynomial, tol: float = 1e-8) -> RootSet:
    """All roots of p (with multiplicity) via companion-matrix eigenvalues.

    Each eigenvalue gets one Newton correction (kept only if it does not
    worsen the residual); residuals are the normwise backward errors
    |p(root)| / sum_i |c_i| |root|^i.
    """
    if p.degree < 1:
        raise ValueError("polynomial_roots requires degree >= 1")
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
    order = np.lexsort((roots.real, roots.imag))
    return RootSet(roots[order], residuals[order])


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
        raise NumericalFailure(
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
        raise NumericalFailure(
            f"smallest singular value {s[-1]:.3e} exceeds {rank_tol:.1e} x {s[0]:.3e}"
        )
    if len(s) >= 2 and s[-2] <= rank_tol * s[0]:
        raise NumericalFailure(
            "two smallest singular values are below tolerance; kernel is not simple"
        )
    v = vh[-1].conj()
    i = int(np.argmax(np.abs(v)))
    v = v * (v[i].conjugate() / abs(v[i]))
    return v / np.linalg.norm(v)


def merge_failures(failures: list, found=(), items=None) -> tuple:
    """Merge a stage's failures into a batch's list: found[j] goes to item items[j] (item j
    when items is None) unless that item has failed already, so that each item keeps its
    first failure.  Returns (the merged list, the indices of the items still live)."""
    merged = list(failures)
    for i, f in zip(range(len(merged)) if items is None else items, found):
        if merged[i] is None:
            merged[i] = f
    return merged, np.flatnonzero([f is None for f in merged])


def per_item(fn, fill, *stacks) -> tuple:
    """(fn(*stacks), per-item LinAlgError or None) over the leading axis (eig, eigvals, cond
    and `pencil`'s monic solve).  When LAPACK fails on the stack, fn runs item by item, so
    that only the failing items fail; their result is fill."""
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


def _lu_solve(a: np.ndarray, b: np.ndarray) -> tuple:
    """(|U[j, j]| (B, K), x (B, K, m)) of each item of a stack a (B, K, K), b (B, K, m),
    from one partial-pivot elimination of the whole stack [a | b], whose row swaps and
    updates carry b, and back-substitution on U, one step a row of x (not finite where
    a pivot is 0).  Each step takes the row with the largest |Re| + |Im| in its column,
    as LAPACK's getrf does, and a zero column is skipped as getrf skips it.  Columns are
    eliminated PANEL at a time: a pivot row takes the panel's updates to its columns
    right of the panel as it is chosen, and the rows below them one matmul per panel."""
    B, K, _ = a.shape
    a = np.ascontiguousarray(np.concatenate([a, b], axis=2))
    parts = a.view(float).reshape(a.shape + (2,))  # (Re, Im) of every entry
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
    u, x = np.diagonal(a, axis1=1, axis2=2), a[:, :, K:]
    with np.errstate(all="ignore"):
        for j in range(K - 1, -1, -1):
            x[:, j] = (x[:, j] - (a[:, None, j, j + 1:K] @ x[:, j + 1:])[:, 0]) / u[:, j, None]
    return np.abs(u), x


def solve_stack(a: np.ndarray, b: np.ndarray) -> tuple:
    """Solve each a[i] @ x[i] = b[i] of a stack a (B, K, K), b (B, K) or (B, K, m).

    Returns (x, failures): failures[i] is what solve_square raises for item i, or None:
    a NumericalFailure for a non-finite entry in a[i] or b[i]; else, from the LU factors
    of `_lu_solve`'s one elimination of the stack, Singular for a smallest pivot at most
    1e-14 max(1, K/8)^1.5 max|a[i]| (~2 K^1.5 machine epsilon: rounding keeps an exactly
    singular system's pivot under it as K grows), or a NumericalFailure for an x that is
    not finite or, with b[i] not zero, zero or subnormal in every entry (it underflows,
    with backward error 1).  x comes from the same factors, and is zero where an item
    failed.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    rhs = b if b.ndim == 3 else b[..., None]
    x, pivots = np.zeros(rhs.shape, dtype=complex), np.zeros(len(a))
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    u, x[finite] = _lu_solve(a[finite], rhs[finite])
    pivots[finite], scale = u.min(axis=1), np.abs(a).max(axis=(1, 2))
    tol = 1e-14 * max(1.0, a.shape[1] / 8) ** 1.5
    solved = np.isfinite(x).all(axis=(1, 2))
    tiny = np.maximum(np.abs(x.real), np.abs(x.imag)) < np.finfo(float).tiny
    underflows = tiny.all(axis=(1, 2)) & rhs.any(axis=(1, 2))
    failures = [NumericalFailure("non-finite entries") if not f else
                Singular("zero matrix") if s == 0 else
                Singular(p, tol, s) if p <= tol * s else
                NumericalFailure("non-finite solution") if not ok else
                NumericalFailure("solution underflows") if under else None
                for f, s, p, ok, under in zip(finite, scale, pivots, solved, underflows)]
    x[[f is not None for f in failures]] = 0
    return x.reshape(b.shape), failures


def cond(a: np.ndarray) -> float:
    """2-norm condition number (`np.linalg.cond`, from an SVD); a LAPACK failure is a
    NumericalFailure.  A 1-norm estimate from LU factors (Hager, SIAM J. Sci. Stat.
    Comput. 5, 1984) would be cheaper; it is not done."""
    (value,), (exc,) = per_item(np.linalg.cond, np.inf, a[None])
    if exc is not None:
        raise NumericalFailure(f"LAPACK failed: {exc}") from exc
    return float(value)


def solve_square(a, b) -> np.ndarray:
    """x solving a @ x = b, with pivot-based singularity detection: the batch of one of
    `solve_stack` (pivots and x from the same LU factors), raising its error."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("solve_square expects a square matrix")
    x, failures = solve_stack(a[None], b[None])
    if failures[0] is not None:
        raise failures[0]
    return x[0]
