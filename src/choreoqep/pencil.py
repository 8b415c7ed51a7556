"""Quadratic and transcendental matrix pencils, their spectra and assumptions.

For a system spec and a real weight nu, the quadratic pencil is

    P_nu(lam) = (J1 + 2(nu-1) J3) lam^2 - 2 J5 lam - (J2 + 2(nu-1) J4)

whose 2d roots drive the continuous-time solver.  The discrete analogue
replaces -lam^2 and 2 lam by the scale-operator symbols; with zeta = e^{lam eps},
zeta^{2N} times it is a degree-4N matrix polynomial whose 4Nd roots give the
discrete phases (principal branch in lam).

Each spectrum is one LAPACK eigen-solve of a monic block companion (Tisseur &
Meerbergen, SIAM Rev. 2001), real when the weights are real.  The zeta-polynomial is
shifted to w = (zeta - 1)/eps first, where its coefficients B_i are O(1) near the
convergent roots.  The larger end d-block of an eigenvector (v, w v, ...) is the root's
kernel vector v.  Two symbol reductions skip the zeta-companion, each root keeping a
classical kernel vector (g = sum_j gamma_j zeta^{j+N}, g~ its reverse): antisymmetric
weights (gamma_{-j} = -gamma_j) make the pencil P(g/(eps zeta^N)), whose roots are the
2N preimages of each classical root; when J5 = 0 it is -A_nu theta_hat - C_nu, zeta^{2N}
theta_hat = g g~/eps^2, whose roots are those of g g~/eps^2 + mu_k zeta^{2N} for each
eigenpair of A_nu mu - C_nu.  Those are self-reciprocal: of half the degree in
y = (zeta - 1)^2/zeta, a quadratic for N = 1, with two zeta-roots a y-root.  Other systems
take the companion.  A pair is accepted when its normwise backward error ||Q(w) v|| /
(sum_i |w|^i ||B_i||_F ||v||), Q(w) v from the classical products on a reduction, is at
most tol, and that error is the root's residual.  `Setting` is the one place where the
two settings differ; the assumption checker, the solvers' shared core and the
periodicity code run on it.  Spectra and assumption checks run on a batch of settings
that share spec and N; each item has its own eps.  The batch is a leading axis, every
eigen-solve stacked: each item gets its arrays or the typed error its lone call raises,
and the public functions are the batch of one.  A batch holds the cells of an error
surface (one eps) or the delays of an eps-sweep, and solves each reduction's classical
pencil once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import numkernel
from .model import LagrangianSpec
from .numkernel import RootSet
from .scaleop import ScaleOperator


class LeadingSingular(Exception):
    """Raised when a pencil's leading coefficient is singular (degree drop)."""


class ZeroArgument(Exception):
    """Raised when the transcendental pencil is evaluated at zeta = 0."""


class DegenerateRoots(Exception):
    """Raised when pencil roots cluster below the separation tolerance."""


def coefficient_matrices(spec: LagrangianSpec, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted blocks (J1 + 2(nu-1) J3, J2 + 2(nu-1) J4)."""
    w = 2.0 * (nu - 1.0)
    return spec.J1 + w * spec.J3, spec.J2 + w * spec.J4


@dataclass(frozen=True)
class ClassicalPencil:
    """Quadratic pencil A lam^2 + B lam + C."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    nu: float


def classical_pencil(spec: LagrangianSpec, nu: float) -> ClassicalPencil:
    a, c = coefficient_matrices(spec, nu)
    return ClassicalPencil(a, -2.0 * spec.J5, -c, float(nu))


def classical_eval(p: ClassicalPencil, lam: complex) -> np.ndarray:
    return p.A * lam**2 + p.B * lam + p.C


def _is_singular(m: np.ndarray) -> np.ndarray:
    """Per matrix of a (..., d, d) stack: zero, or sigma_min <= 1e-12 sigma_max."""
    s = np.linalg.svd(m, compute_uv=False)
    return (s[..., 0] == 0) | (s[..., -1] <= 1e-12 * s[..., 0])


def _verdicts(num: np.ndarray, den: np.ndarray, nonzero: np.ndarray, tol: float) -> tuple:
    """Errors num / den (B, K); per item, a NumericalFailure unless all are <= tol and nonzero."""
    with np.errstate(all="ignore"):
        # den = 0: every term mu^i B_i v vanishes, an exact pair unless num says otherwise
        errors = np.divide(num, den, out=np.where(num == 0, 0.0, np.inf), where=den > 0)
    worst = errors.max(axis=1)
    return errors, [None if ok else numkernel.NumericalFailure(
        f"eigenpairs fail the backward-error test (worst {w:.3e}, tol {tol:.1e}) "
        "or have a vanishing kernel block") for w, ok in zip(worst, (worst <= tol) & nonzero)]


def _backward_errors(blocks: np.ndarray, norms: np.ndarray, mu: np.ndarray,
                     v: np.ndarray, tol: float) -> tuple:
    """||Q(mu) v|| / (sum_i |mu|^i ||B_i||_F ||v||) for each item's roots mu (B, K) and
    columns v (B, d, K), and `_verdicts` on them.  Items go in chunks of at most
    numkernel.CHUNK_ELEMENTS elements of the products B_i v, (k+1, d, K) an item, which
    bounds the memory."""
    num, den = np.empty(mu.shape), np.empty(mu.shape)
    with np.errstate(all="ignore"):
        for c in numkernel.chunks(len(mu), blocks.shape[1] * v.shape[1] * v.shape[2]):
            powers = mu[c, None, :] ** np.arange(blocks.shape[1])[:, None]
            num[c] = np.linalg.norm(((blocks[c] @ v[c, None]) * powers[:, :, None]).sum(axis=1),
                                    axis=1)
            den[c] = (np.abs(powers) * norms[c, :, None]).sum(axis=1) * np.linalg.norm(v[c], axis=1)
    return _verdicts(num, den, np.abs(v).max(axis=1).min(axis=1) > 0, tol)


def _eigenpairs(blocks: np.ndarray, tol: float) -> tuple:
    """Per item of a (B, k+1, d, d) stack: roots w, unit kernel vectors (rows) and
    backward errors of sum_i w^i blocks[i], from its monic block companion in
    mu = w / s, s equalising ||B_0|| and ||B_k||; and what the item raises, or None.  An
    item with a coefficient that is not finite is a NumericalFailure, solved as identity
    blocks so that no LAPACK call sees it."""
    B, k, d = blocks.shape[0], blocks.shape[1] - 1, blocks.shape[2]
    coefficients = np.isfinite(blocks).all(axis=(1, 2, 3))
    if not coefficients.all():
        blocks = np.where(coefficients[:, None, None, None], blocks, np.eye(d))
    norms = np.linalg.norm(blocks, axis=(2, 3))
    with np.errstate(all="ignore"):
        s = (norms[:, 0] / norms[:, -1]) ** (1.0 / k)
        s = np.where((0 < s) & (s < np.inf), s, 1.0)  # no scaling when B_0 = 0
        s_powers = s[:, None] ** np.arange(k + 1)
        blocks, norms = blocks * s_powers[:, :, None, None], norms * s_powers
        lower = blocks[:, :-1].transpose(0, 2, 1, 3).reshape(B, d, k * d)  # B_0 .. B_k-1
        monic, failed = numkernel._stacked(np.linalg.solve, np.zeros((d, k * d)),
                                           blocks[:, -1], lower)
    finite = np.isfinite(monic).all(axis=(1, 2))
    failures = [numkernel.NumericalFailure("non-finite pencil coefficients") if not given
                else LeadingSingular(f"leading block is singular: {exc}") if exc else None
                if ok else LeadingSingular("the block companion has infinite eigenvalues")
                for given, exc, ok in zip(coefficients, failed, finite)]
    companion = np.zeros((B, k * d, k * d), dtype=monic.dtype)
    companion[:, :-d, d:] = np.eye((k - 1) * d)
    companion[:, -d:] = np.where(finite[:, None, None], -monic, 0)
    (mu, vecs), failed = numkernel._stacked(np.linalg.eig, (np.zeros(k * d), np.eye(k * d)),
                                            companion)
    # the eigenvector is (v, mu v, .., mu^{k-1} v): read v from its larger end block
    mu = mu.astype(complex)
    v = np.where(np.abs(mu)[:, None] <= 1.0, vecs[:, :d], vecs[:, -d:]).astype(complex)
    errors, rejected = _backward_errors(blocks, norms, mu, v, tol)
    top = v[np.arange(B)[:, None], np.abs(v).argmax(axis=1), np.arange(k * d)][:, None]
    with np.errstate(all="ignore"):  # only a failed item has a vanishing block
        v = v * (top.conj() / np.abs(top))  # largest component real positive
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return s[:, None] * mu, v.transpose(0, 2, 1), errors, [
        f or exc and numkernel.NumericalFailure(f"companion eigen-solve failed: {exc}") or r
        for f, exc, r in zip(failures, failed, rejected)]


def classical_spectrum(p: ClassicalPencil, tol: float = 1e-8) -> RootSet:
    """All 2d pencil roots and their kernel vectors, from the companion of (C, B, A)."""
    if _is_singular(p.A):
        raise LeadingSingular("leading coefficient is singular; root count drops below 2d")
    (lam,), (vectors,), (errors,), (failure,) = _eigenpairs(np.stack([p.C, p.B, p.A])[None], tol)
    if failure is not None:
        raise failure
    order = np.lexsort((lam.real, lam.imag))
    return RootSet(lam[order], errors[order], numkernel._min_separation(lam), tol, vectors[order])


@dataclass(frozen=True)
class TranscendentalPencil:
    """Discrete pencil attached to a system spec and a scale operator."""

    spec: LagrangianSpec
    op: ScaleOperator
    nu: float


def transcendental_pencil(spec: LagrangianSpec, op: ScaleOperator,
                          nu: float) -> TranscendentalPencil:
    return TranscendentalPencil(spec, op, float(nu))


def transcendental_eval(p: TranscendentalPencil, zeta: complex) -> np.ndarray:
    """Pencil value at zeta = e^{lam eps}; Laurent powers range over -2N..2N.

    Equals -A_nu * theta_hat(zeta) - J5 * sigma1_hat(zeta) - C_nu with
    theta_hat, sigma1_hat the operator symbols written in zeta.
    """
    if zeta == 0:
        raise ZeroArgument("transcendental pencil is undefined at zeta = 0")
    op = p.op
    a_nu, c_nu = coefficient_matrices(p.spec, p.nu)
    ks = np.arange(-2 * op.N, 2 * op.N + 1)
    theta_hat = np.sum(op.theta * np.asarray(zeta, dtype=complex) ** ks) / op.epsilon**2
    ks1 = np.arange(-op.N, op.N + 1)
    sigma1_hat = np.sum(op.sigma1 * np.asarray(zeta, dtype=complex) ** ks1) / op.epsilon
    return -a_nu * theta_hat - p.spec.J5 * sigma1_hat - c_nu


@dataclass(frozen=True)
class TranscendentalSpectrum:
    """Discrete phases (principal-branch lam) and the zeta-roots behind them."""

    lam: RootSet
    zeta: RootSet

    def __len__(self) -> int:
        return len(self.lam)


class _Delays(NamedTuple):
    """The delays of a batch of operators sharing N: eps (B,), eps**2 (B,) rounded as a
    lone call rounds it (libm pow, which numpy's square does not always match) and the
    binomial shifts op.shift stacked to (B, 4N+1, 4N+1), built once per distinct eps (a
    read-only broadcast when the batch shares one eps, as a surface block does)."""

    eps: np.ndarray
    eps2: np.ndarray
    shift: np.ndarray

    @classmethod
    def of(cls, ops: list) -> "_Delays":
        by_eps = {op.epsilon: op for op in ops}  # one operator, one shift, per distinct eps
        eps = [op.epsilon for op in ops]
        shift = np.broadcast_to(ops[0].shift, (len(ops),) + ops[0].shift.shape) \
            if len(by_eps) == 1 else np.stack([by_eps[e].shift for e in eps])
        return cls(np.array(eps), np.array([e**2 for e in eps]), shift)

    def take(self, idx: np.ndarray) -> "_Delays":
        return _Delays(*(a[idx] for a in self))


def _row_products(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x[b] @ m[b] for x (B, n) and m (B, n, p).  Items that share one m (one delay) take
    one matrix product, and items that do not a stacked vector-matrix product (einsum would
    sum in another order).  Rows round alike only within one batch: a row of a (6, 3)
    product may round one ulp away from the same row multiplied alone."""
    if (m == m[0]).all():
        return x @ m[0]
    return np.matmul(x[:, None], m)[:, 0]


def _polymul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row products (B, m + n - 1) of polynomials p (B, m), q (B, n), one p_i at a time."""
    out = np.zeros((len(p), p.shape[1] + q.shape[1] - 1), dtype=np.result_type(p, q))
    for i in range(p.shape[1]):
        out[:, i:i + q.shape[1]] += p[:, i:i + 1] * q
    return out


def _symbols(gamma: np.ndarray, delays: _Delays) -> tuple:
    """g = sum_j gamma_j zeta^{j+N} (B, 2N+1) and theta = g g~ (B, 4N+1) in w, for weights
    gamma (B, 2N+1) each at its own delay, real when the weights are; shifting each factor
    first keeps the near-cancelling low coefficients accurate."""
    N = (gamma.shape[1] - 1) // 2
    gamma = gamma if gamma.imag.any() else gamma.real
    head_t = delays.shift[:, :2 * N + 1, :2 * N + 1].transpose(0, 2, 1)
    g, g_rev = _row_products(gamma, head_t), _row_products(gamma[:, ::-1], head_t)
    return g, _polymul(g, g_rev)


def _shifted_blocks(spec: LagrangianSpec, gamma: np.ndarray, delays: _Delays,
                    nu: float) -> np.ndarray:
    """Coefficients B_0..B_4N of zeta^{2N} P(zeta) in w = (zeta - 1)/eps, (B, 4N+1, d, d),
    for the weights gamma (B, 2N+1) of operators sharing N, each at its own delay."""
    N = (gamma.shape[1] - 1) // 2
    gamma = gamma if gamma.imag.any() else gamma.real
    a_nu, c_nu = coefficient_matrices(spec, nu)
    sigma1 = _row_products(gamma - gamma[:, ::-1],
                           delays.shift[:, :, N:3 * N + 1].transpose(0, 2, 1)) \
        / delays.eps[:, None]
    return -(_symbols(gamma, delays)[1][:, :, None, None] / delays.eps2[:, None, None, None]
             * a_nu + sigma1[:, :, None, None] * spec.J5
             + delays.shift[:, :, 2 * N, None, None] * c_nu)


def _half_degree(gamma: np.ndarray) -> np.ndarray:
    """h(zeta) h(1/zeta) = S^2 - y (y + 4) A^2 in y = zeta + 1/zeta - 2 (B, 2N+1) for h =
    sum_j gamma_j zeta^j: S, A sum the weights' symmetric and antisymmetric parts times
    zeta^j + zeta^-j = u_{j+1} - u_{j-1} and u_j = (zeta^j - zeta^-j)/(zeta - 1/zeta), halved."""
    N, gamma = (gamma.shape[1] - 1) // 2, gamma if gamma.imag.any() else gamma.real
    u = np.zeros((N + 2, N + 1))  # u_0 .. u_{N+1}, u_{j+1} = (y + 2) u_j - u_{j-1}
    u[1, 0] = 1.0
    for j in range(1, N + 1):
        u[j + 1] = 2.0 * u[j] - u[j - 1] + np.r_[0.0, u[j, :-1]]
    up, down = gamma[:, N + 1:], gamma[:, N - 1::-1]  # gamma_j, gamma_-j for j = 1..N
    S, A = (up + down) @ ((u[2:] - u[:-2]) / 2), (up - down) @ (u[1:-1, :N] / 2)
    S[:, 0] += gamma[:, N]
    p = _polymul(S, S) - _polymul(_polymul(A, A), np.array([[0.0, 4.0, 1.0]]))
    p[:, -1] = gamma[:, 0] * gamma[:, -1]
    return p


def _quadratic(a, b, c) -> np.ndarray:
    """Roots (..., 2) of a x^2 + b x + c, a != 0: q/a and c/q for q = -(b + r)/2, r the root
    of b^2 - 4ac making |q| largest; a real quadratic's complex roots as exact conjugates."""
    with np.errstate(all="ignore"):
        disc = b * b - 4 * a * c
        r = np.sqrt(disc + 0j)
        q = -0.5 * (b + np.where((np.conj(b) * r).real < 0, -r, r))
        x = q / a
        pair = (np.imag(a) == 0) & (np.imag(b) == 0) & (np.imag(disc) == 0) & (np.real(disc) < 0)
        return np.stack([x, np.where(pair, x.conj(), np.where(q == 0, 0, c / q))], axis=-1)


def _companion_roots(coeffs: np.ndarray, finite: np.ndarray) -> tuple:
    """(roots (B, T, deg), finite, failures) of coeffs (B, T, deg+1) from one eigvals of their
    monic companions in x / s, s equalising the end coefficients; rows of items not finite
    (`finite`, and the rows themselves) are zero."""
    deg = coeffs.shape[-1] - 1
    with np.errstate(all="ignore"):
        s = (np.abs(coeffs[..., :1]) / np.abs(coeffs[..., -1:])) ** (1.0 / deg)
        s = np.where((s > 0) & (s < np.inf), s, 1.0)
        scaled = coeffs * s ** np.arange(deg + 1)
        row = -scaled[..., :-1] / scaled[..., -1:]
    finite = finite & np.isfinite(row).all(axis=(1, 2))
    companion = np.zeros(row.shape + (deg,), dtype=row.dtype)
    companion[..., :-1, 1:] = np.eye(deg - 1)
    companion[..., -1, :] = np.where(finite[:, None, None], row, 0)
    mu, failed = numkernel._stacked(np.linalg.eigvals, np.zeros(row.shape[1:]), companion)
    return s * mu, finite, failed


def _preimages(gamma: np.ndarray, delays: _Delays, norms: np.ndarray, pencil: np.ndarray,
               targets: np.ndarray, vectors: np.ndarray, tol: float) -> tuple:
    """`_eigenpairs` of zeta^{2N} P(zeta) = sum_i base^i unit^{k-i} pencil[i] for weights
    gamma (B, 2N+1) at their delays, with shifted-block norms (B, 4N+1), from the pairs
    (t_k, v_k) of sum_i t^i pencil[i]: (C, B, A) with base = g/eps, unit = zeta^N
    (antisymmetric weights), or (-C_nu, A_nu) with base = -g g~/eps^2, unit = zeta^{2N}
    (J5 = 0).  v_k's roots are those of base - t_k unit in w, from scaled companions, or
    for J5 = 0 from the self-reciprocal h(zeta) h(1/zeta) + t_k eps^2 of `_half_degree` in
    y = (zeta - 1)^2 / zeta: the quadratic formula (N = 1) or 2N x 2N companions give y,
    and each y the two roots eps w of x^2 - y x - y.  A Newton step in w is kept unless it
    raises the modulus.  Items with w-coefficients not finite (or, for J5 = 0, a vanishing
    leading one) are not solved.  With real weights, a target whose exact conjugate is a
    target with Im > 0 is not solved either: its coefficients are the conjugates of that
    target's, so its roots, Newton step and error terms are that target's, conjugated."""
    k, B, N, T = len(pencil) - 1, len(gamma), (gamma.shape[1] - 1) // 2, len(targets)
    partner = (targets[:, None] == targets.conj()).argmax(axis=1)
    mirror = (targets.imag < 0) & (targets[partner] == targets.conj()) & ~gamma.imag.any()
    own = np.flatnonzero(~mirror)  # the targets solved; src: each target's solve
    src = np.searchsorted(own, np.where(mirror, partner, np.arange(T)))
    g, theta = _symbols(gamma, delays)
    with np.errstate(all="ignore"):
        base, unit = (g / delays.eps[:, None], delays.shift[:, :2 * N + 1, N]) if k == 2 else \
            (-theta / delays.eps2[:, None], delays.shift[:, :, 2 * N])
        coeffs = base[:, None] - targets[own, None] * unit[:, None]  # (B, own, ascending in w)
        coeffs, deg = coeffs if coeffs.imag.any() else coeffs.real, coeffs.shape[-1] - 1
    if k == 2:
        w, finite, failed = _companion_roots(coeffs, np.ones(B, dtype=bool))
    else:
        finite = np.isfinite(coeffs).all(axis=(1, 2)) & coeffs[..., -1].all(axis=1)
        p_y = np.repeat(_half_degree(gamma)[:, None], len(own), axis=1) + 0j
        p_y[..., 0] += delays.eps2[:, None] * targets[own]  # (B, own, ascending in y)
        p_y, failed = p_y if p_y.imag.any() else p_y.real, [None] * B
        if N == 1:
            y = _quadratic(p_y[..., 2], p_y[..., 1], p_y[..., 0])
        else:
            y, finite, failed = _companion_roots(p_y, finite)
        w = _quadratic(1.0, -y, -y).reshape(coeffs.shape[:2] + (deg,)) / delays.eps[:, None, None]
    c = np.moveaxis(coeffs, -1, 0)[..., None]  # polyval evaluates w[b, k] with coeffs[b, k]
    h = npoly.polyval(w, c, tensor=False)
    with np.errstate(all="ignore"):
        newton = w - h / npoly.polyval(w, npoly.polyder(c), tensor=False)
        w = np.where(np.abs(npoly.polyval(newton, c, tensor=False)) <= np.abs(h), newton, w)
        rows, flat = np.repeat(vectors[own], deg, axis=0), w.reshape(B, -1)  # one row a root
        at = [npoly.polyval(flat, p.T[:, :, None], tensor=False) for p in (base, unit)]
        q = sum((at[0]**i * at[1]**(k - i))[..., None] * (pencil[i] @ rows.T).T
                for i in range(k + 1))  # Q(w) v, (B, own * deg, d)
        den = (np.abs(flat[:, None]) ** np.arange(norms.shape[1])[:, None]
               * norms[:, :, None]).sum(axis=1) * np.linalg.norm(rows, axis=1)
    num, den = (e.reshape(w.shape)[:, src].reshape(B, -1)
                for e in (np.linalg.norm(q, axis=-1), den))
    w = np.where(mirror[:, None], w[:, src].conj(), w[:, src]).reshape(B, -1)
    errors, rejected = _verdicts(num, den, True, tol)  # v_k unit
    vectors = np.repeat(vectors, deg, axis=0)
    return w, np.broadcast_to(vectors, w.shape + vectors.shape[1:]), errors, [
        LeadingSingular("the block companion has infinite eigenvalues") if not ok else exc
        and numkernel.NumericalFailure(f"companion eigen-solve failed: {exc}") or r
        for ok, exc, r in zip(finite, failed, rejected)]


class _Spectra(NamedTuple):
    """Spectra of a batch of pencils, rows sorted by phase: phases and roots (in the
    pencil's variable), backward errors, unit kernel vectors (B, K, d), failures[i],
    what item i's spectrum raises (None when it has one), and simple[i], whether item
    i's roots are separated at the separation tolerance."""

    lam: np.ndarray
    roots: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray
    failures: list
    simple: np.ndarray

    def rootsets(self, i: int, tol: float) -> tuple:
        """Item i as RootSets of (lam, roots); raises the item's failure."""
        if self.failures[i] is not None:
            raise self.failures[i]
        return tuple(RootSet(r[i], self.residuals[i], numkernel._min_separation(r[i]), tol,
                             self.vectors[i]) for r in (self.lam, self.roots))


def _spectra(settings: list, nu: float, tol: float = 1e-8, separation_tol: float = 1e-7,
             classical: RootSet | None = None) -> _Spectra:
    """Spectra of the nu-pencils of a batch of settings that share spec and N; each item
    has its own eps.

    Continuous settings share the classical spectrum.  Discrete weights are routed in
    batches, real apart from complex so that each item gets the roots of its lone
    spectrum: antisymmetric ones to preimages under g/eps of the classical pairs
    (classical, when the caller has solved it), others when J5 = 0 to preimages under
    g g~/eps^2 of the pairs of A_nu mu - C_nu, each pencil solved once a batch, and the
    rest to the shifted block companion.
    """
    spec, op, B, K = settings[0].spec, settings[0].op, len(settings), settings[0].root_count
    w, residuals = np.full((B, K), np.nan, dtype=complex), np.full((B, K), np.inf)
    vectors = np.zeros((B, K, spec.d), dtype=complex)  # zero where no route solves
    if op is None:
        try:
            q = classical_spectrum(classical_pencil(spec, nu), tol)
        except (LeadingSingular, numkernel.NumericalFailure) as exc:
            return _Spectra(w, w, residuals, vectors, [exc.with_traceback(None)] * B,
                            np.zeros(B, dtype=bool))
        w[:], residuals[:], vectors[:] = q.roots, q.residuals, q.vectors
        simple = numkernel.simple_rows(q.roots[None], separation_tol)  # judged, not raised
        return _Spectra(w, w, residuals, vectors, [None] * B, np.repeat(simple, B))

    gamma = np.stack([s.op.gamma for s in settings])
    delays = _Delays.of([s.op for s in settings])
    a_nu, c_nu = coefficient_matrices(spec, nu)
    singular = _is_singular(a_nu)
    failures = [LeadingSingular("gamma_{-N} * gamma_N = 0: the zeta-polynomial degenerates")
                if e == 0 else LeadingSingular("leading block J1 + 2(nu-1) J3 is singular")
                if singular else None for e in gamma[:, 0] * gamma[:, -1]]
    live = np.array([f is None for f in failures])
    # route 2 * (2: gamma_{-j} = -gamma_j, 1: J5 = 0, 0: companion) + (real weights)
    reduction = np.where(~(gamma + gamma[:, ::-1]).any(axis=1), 2, int(not spec.J5.any()))
    routes = 2 * reduction + ~gamma.imag.any(axis=1)
    for route in np.unique(routes[live]):
        idx = np.flatnonzero(live & (routes == route))
        blocks = _shifted_blocks(spec, gamma[idx], delays.take(idx), nu)
        if route < 2:
            w[idx], vectors[idx], residuals[idx], failed = _eigenpairs(blocks, tol)
            # finite weights and eps leave a block infinite only through an under- or
            # overflowing delay (theta/eps^2): the degree drop the reductions report
            failed = [LeadingSingular("the block companion has infinite eigenvalues")
                      if not ok else f for f, ok in zip(failed, np.isfinite(blocks).all(
                          axis=(1, 2, 3)))]
        else:  # the pairs of the classical pencil (C, B, A), or of A_nu mu - C_nu
            pencil = np.stack([-c_nu, -2.0 * spec.J5, a_nu] if route >= 4 else [-c_nu, a_nu])
            if route < 4 or classical is None:
                (targets,), (pairs,), _, (failure,) = _eigenpairs(pencil[None], tol)
            else:  # solved by the caller, as an eps-sweep does
                targets, pairs, failure = classical.roots, classical.vectors, None
            failed = [failure] * len(idx)
            if failure is None:
                w[idx], vectors[idx], residuals[idx], failed = _preimages(
                    gamma[idx], delays.take(idx), np.linalg.norm(blocks, axis=(2, 3)), pencil,
                    targets, pairs, tol)
        for i, f in zip(idx, failed):
            failures[i] = f
    z = delays.eps[:, None] * w  # zeta - 1
    # Log(1 + z), with log|1 + z| from log1p so that it stays accurate near zeta = 1
    lam = (0.5 * np.log1p(2.0 * z.real + z.real**2 + z.imag**2)
           + 1j * np.arctan2(z.imag, 1.0 + z.real)) / delays.eps[:, None]
    order = np.arange(B)[:, None], np.lexsort((lam.real, lam.imag), axis=-1)
    zeta = 1.0 + z[order]
    simple = numkernel.simple_rows(zeta, separation_tol)
    failures = [f if f or ok else DegenerateRoots("zeta-roots cluster below the separation "
                                                  "tolerance") for f, ok in zip(failures, simple)]
    return _Spectra(lam[order], zeta, residuals[order], vectors[order], failures, simple)


def transcendental_spectrum(p: TranscendentalPencil, tol: float = 1e-8,
                            separation_tol: float = 1e-7) -> TranscendentalSpectrum:
    """All 4Nd discrete phases and their kernel vectors, as preimages of the classical
    pairs (antisymmetric weights, or J5 = 0) or from the companion of zeta^{2N} P(zeta)
    in w = (zeta - 1)/eps: the batch of one of `_spectra`, raising its failure.

    lam = Log(zeta)/eps uses the principal branch, Im(lam) in (-pi/eps, pi/eps];
    any other representative differs by an integer multiple of 2 pi i / eps.
    """
    spectra = _spectra([Setting(p.spec, p.op)], p.nu, tol, separation_tol)
    return TranscendentalSpectrum(*spectra.rootsets(0, tol))


@dataclass(frozen=True)
class Modes:
    """One pencil's roots: phases lam and the same roots in the pencil's variable."""

    pencil: ClassicalPencil | TranscendentalPencil
    lam: RootSet
    roots: RootSet


@dataclass(frozen=True)
class Setting:
    """The continuous/discrete decision (op is None: continuous).

    It fixes which pencil is evaluated, the root variable used for kernel
    vectors and separation tests (lam, or zeta = e^{lam eps}), where the
    constant mode sits (lam = 0 with right-hand side J7, or zeta = 1 with
    J7 + s_bar(0) J6) and how many roots to expect (2d or 4Nd).  A batch is a
    list of settings that share spec and N; each item has its own eps.  The methods
    here are its batch of one.
    """

    spec: LagrangianSpec
    op: ScaleOperator | None = None

    @property
    def root_count(self) -> int:
        if self.op is None:
            return 2 * self.spec.d
        return 4 * self.op.N * self.spec.d

    def pencil(self, nu: float) -> ClassicalPencil | TranscendentalPencil:
        if self.op is None:
            return classical_pencil(self.spec, nu)
        return transcendental_pencil(self.spec, self.op, nu)

    def modes(self, nu: float, separation_tol: float = 1e-7) -> Modes:
        spectra = _spectra([self], nu, separation_tol=separation_tol)
        return Modes(self.pencil(nu), *spectra.rootsets(0, 1e-8))


def constant_systems(settings: list, nu: float) -> tuple:
    """Per setting of a batch: the pencil value at the constant mode (lam = 0, zeta = 1)
    and the right-hand side fixing the constant mode of one particle, J7 + s_bar(0) J6.
    s_bar(0) = sum(gamma)/eps (0 when continuous) is the interior value of the adjoint
    on 1; the pencil there is -A_nu s_bar(0)^2 - C_nu, as sigma1_hat(1) = 0."""
    spec, op = settings[0].spec, settings[0].op
    a_nu, c_nu = coefficient_matrices(spec, nu)
    sbar0 = np.zeros(len(settings)) if op is None else \
        np.stack([s.op.gamma for s in settings]).sum(axis=1) / op.epsilon
    return -(sbar0**2)[:, None, None] * a_nu - c_nu, spec.J7 + sbar0[:, None] * spec.J6


@dataclass(frozen=True)
class Assumptions:
    """Report on the solvers' standing assumptions, measured in the root variable.

    Precondition failures (singular leading block, vanishing edge weights,
    failed or clustered roots) are reported with a note, not raised.
    """

    setting: Setting
    modes_n: Modes | None
    modes_0: Modes | None
    precondition_ok: bool
    count_n_ok: bool
    count_0_ok: bool
    disjoint: bool
    det_pn0_nonzero: bool
    det_p00_nonzero: bool
    note: str = ""

    @property
    def all_hold(self) -> bool:
        return (self.precondition_ok and self.count_n_ok and self.count_0_ok
                and self.disjoint and self.det_pn0_nonzero and self.det_p00_nonzero)


def _check_assumptions(settings: list, n: int, tol: float) -> tuple:
    """|roots| = root_count and simple for nu = n and 0, disjointness, and
    nonsingularity at the constant mode, for each setting of a batch: (spectra at
    nu = n and 0, failures, checks).  failures[i] is what item i's spectra raise (None
    when both exist); the checks are a (5, B) bool array in the order of Assumptions."""
    sp_n, sp_0 = (_spectra(settings, nu, separation_tol=tol) for nu in (n, 0))
    failures = [f or g for f, g in zip(sp_n.failures, sp_0.failures)]
    count = settings[0].root_count
    checks = np.array([*((sp.roots.shape[1] == count) & sp.simple for sp in (sp_n, sp_0)),
                       ~numkernel.close_pairs(sp_n.roots, sp_0.roots, tol).any(axis=(1, 2)),
                       ~_is_singular(constant_systems(settings, n)[0]),
                       ~_is_singular(constant_systems(settings, 0)[0])])
    return sp_n, sp_0, failures, checks & [f is None for f in failures]


def _report(setting: Setting, n: int, tol: float) -> Assumptions:
    """The Assumptions of one setting: the batch of one of `_check_assumptions`."""
    sp_n, sp_0, failures, checks = _check_assumptions([setting], n, tol)
    if failures[0] is not None:
        return Assumptions(setting, None, None, False, False, False, False, False, False,
                           note=str(failures[0]))
    modes = (Modes(setting.pencil(nu), *sp.rootsets(0, 1e-8)) for nu, sp in ((n, sp_n), (0, sp_0)))
    return Assumptions(setting, *modes, True, *(bool(c) for c in checks[:, 0]))


def check_cel_assumptions(spec: LagrangianSpec, n: int, tol: float = 1e-7) -> Assumptions:
    """Assumptions of the continuous solver, on the lam-roots."""
    return _report(Setting(spec), n, tol)


def check_del_assumptions(spec: LagrangianSpec, op: ScaleOperator, n: int,
                          tol: float = 1e-7) -> Assumptions:
    """Assumptions of the discrete solver, on the zeta-roots."""
    return _report(Setting(spec, op), n, tol)
