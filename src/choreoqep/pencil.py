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
(sum_i |w|^i ||B_i||_F ||v||) (Tisseur 2000) is at most BACKWARD_ERROR_TOL, and that
error is the root's residual.  On a reduction ||Q(w) v|| = ||R a(w)|| for the R of a
classical pair's products [P_i v], and ||B_i||_F = ||R x_i|| from the scalar coefficients
x_i = (theta_i/eps^2, sigma1_i, shift_i) of B_i and the R of [vec A_nu | vec J5 | vec C_nu]:
only the companion assembles the shifted blocks.
A batch is one spec and operators sharing N, each with its own eps ([None]: continuous
time), as `spectra`, `constant_systems` and `celsolve.Core` take it, under the batch
contract of `numkernel`: the cells of an error surface or the delays of an eps-sweep.
`classical_spectrum` solves the classical pencil of (spec, nu) once and keeps its roots with
the spec, beside the verdict on A_nu: continuous time's spectrum and the antisymmetric
route's targets; `spectra` keeps a lone operator's grid spectrum there too.  A lone
spectrum in either setting is one record, `Modes` (its phases lam and its roots in the
pencil's variable), built only by `Spectra.modes`: the batch of one, which
`transcendental_spectrum` returns.  The assumption reports
(`check_cel_assumptions`, `check_del_assumptions`) are the list of what fails.
The equations of motion are stated once, for both settings, by `equation_blocks`:
`celsolve.residual_cel` applies them to exact derivatives, and `delsolve`'s residual map
and march to the scale operator's windows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import numkernel, scaleop
from .model import LagrangianSpec
from .numkernel import RootSet
from .scaleop import ScaleOperator


class LeadingSingular(Exception):
    """Raised when a pencil's leading coefficient is singular (degree drop)."""


class ZeroArgument(Exception):
    """Raised when the transcendental pencil is evaluated at zeta = 0."""


# the largest normwise backward error of an accepted eigenpair, in either setting
BACKWARD_ERROR_TOL = 1e-8


def coefficient_matrices(spec: LagrangianSpec, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted blocks (J1 + 2(nu-1) J3, J2 + 2(nu-1) J4)."""
    w = 2.0 * (nu - 1.0)
    return spec.J1 + w * spec.J3, spec.J2 + w * spec.J4


def equation_blocks(spec: LagrangianSpec, n: int) -> tuple:
    """The equations of motion of both settings, once per (spec, n):

        A_n x_s'' - 2 J5 x_s' - C_n x_s = n f,
        A_0 x_j'' - 2 J5 x_j' - C_0 x_j + 2 J3 x_s'' - 2 J4 x_s = f,

    f = J7 in continuous time and J7 + (D^T 1)_m/eps J6 at grid node m.  Returned as the
    transposes of [A_n J5 C_n], [2 J3 0 2 J4] and [A_0 J5 C_0], to multiply the jet
    [-x'', 2 x', x] of x_s or a particle ([boxbox x, sigma x, x] on a grid): the first
    gives minus the x_s equation's left-hand side, the second minus the x_s terms of a
    particle's, the third minus its x_j terms."""
    key = ("equation_blocks", n)
    if key not in spec._derived:
        (a_n, c_n), (a_0, c_0) = (coefficient_matrices(spec, nu) for nu in (n, 0))
        J3, J4, J5 = spec.J3, spec.J4, spec.J5
        spec._derived[key] = tuple(np.concatenate(row, axis=1).T for row in (
            (a_n, J5, c_n), (2.0 * J3, 0.0 * J5, 2.0 * J4), (a_0, J5, c_0)))
    return spec._derived[key]


def classical_eval(spec: LagrangianSpec, nu: float, lam: complex) -> np.ndarray:
    """The nu-pencil of spec at lam: A_nu lam^2 - 2 J5 lam - C_nu."""
    a_nu, c_nu = coefficient_matrices(spec, nu)
    return a_nu * lam**2 - 2.0 * spec.J5 * lam - c_nu


def error_gram(spec: LagrangianSpec, nu: float) -> np.ndarray:
    """Frobenius inner products (2, 2) of A_nu and J5 (`convergence._pencil_errors`)."""
    pair = np.stack([coefficient_matrices(spec, nu)[0], spec.J5]).reshape(2, -1)
    return pair.conj() @ pair.T


def _verdicts(num: np.ndarray, den: np.ndarray, nonzero: np.ndarray) -> tuple:
    """Errors num / den (B, K); per item, a NumericalFailure unless all are at most
    BACKWARD_ERROR_TOL and nonzero."""
    with np.errstate(all="ignore"):
        # den = 0: every term mu^i B_i v vanishes, an exact pair unless num says otherwise
        errors = np.divide(num, den, out=np.where(num == 0, 0.0, np.inf), where=den > 0)
    worst, tol = errors.max(axis=1), BACKWARD_ERROR_TOL
    return errors, [None if ok else numkernel.NumericalFailure(
        f"eigenpairs fail the backward-error test (worst {w:.3e}, tol {tol:.1e}) "
        "or have a vanishing kernel block") for w, ok in zip(worst, (worst <= tol) & nonzero)]


def _backward_errors(blocks: np.ndarray, norms: np.ndarray, mu: np.ndarray,
                     v: np.ndarray) -> tuple:
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
    return _verdicts(num, den, np.abs(v).max(axis=1).min(axis=1) > 0)


def _eigenpairs(blocks: np.ndarray) -> tuple:
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
        monic, failed = numkernel.per_item(np.linalg.solve, np.zeros((d, k * d)),
                                           blocks[:, -1], lower)
    finite = np.isfinite(monic).all(axis=(1, 2))
    failures = [numkernel.NumericalFailure("non-finite pencil coefficients") if not given
                else LeadingSingular(f"leading block is singular: {exc}") if exc else None
                if ok else LeadingSingular("the block companion has infinite eigenvalues")
                for given, exc, ok in zip(coefficients, failed, finite)]
    companion = np.zeros((B, k * d, k * d), dtype=monic.dtype)
    companion[:, :-d, d:] = np.eye((k - 1) * d)
    companion[:, -d:] = np.where(finite[:, None, None], -monic, 0)
    (mu, vecs), failed = numkernel.per_item(np.linalg.eig, (np.zeros(k * d), np.eye(k * d)),
                                            companion)
    # the eigenvector is (v, mu v, .., mu^{k-1} v): read v from its larger end block
    mu = mu.astype(complex)
    v = np.where(np.abs(mu)[:, None] <= 1.0, vecs[:, :d], vecs[:, -d:]).astype(complex)
    errors, rejected = _backward_errors(blocks, norms, mu, v)
    top = v[np.arange(B)[:, None], np.abs(v).argmax(axis=1), np.arange(k * d)][:, None]
    with np.errstate(all="ignore"):  # only a failed item has a vanishing block
        v = v * (top.conj() / np.abs(top))  # largest component real positive
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return s[:, None] * mu, v.transpose(0, 2, 1), errors, [
        f or exc and numkernel.NumericalFailure(f"companion eigen-solve failed: {exc}") or r
        for f, exc, r in zip(failures, failed, rejected)]


def _leading_singular(spec: LagrangianSpec, nu: float) -> bool:
    """Whether A_nu = J1 + 2(nu-1) J3 is singular (`numkernel.is_singular`), kept with the
    spec."""
    key = ("leading_singular", nu)
    if key not in spec._derived:
        spec._derived[key] = bool(numkernel.is_singular(coefficient_matrices(spec, nu)[0]))
    return spec._derived[key]


def classical_spectrum(spec: LagrangianSpec, nu: float) -> RootSet:
    """All 2d roots of the nu-pencil of spec and their kernel vectors, from the companion of
    (C, B, A) = (-C_nu, -2 J5, A_nu), sorted by phase: solved once per (spec, nu) and kept
    with the spec.  A failed solve is not kept: it raises again."""
    key = ("classical_spectrum", nu)
    if key not in spec._derived:
        a_nu, c_nu = coefficient_matrices(spec, nu)
        blocks = np.stack([-c_nu, -2.0 * spec.J5, a_nu])
        if not np.isfinite(blocks).all():  # the SVD below would not converge
            raise numkernel.NumericalFailure("non-finite pencil coefficients")
        if _leading_singular(spec, nu):
            raise LeadingSingular("leading coefficient is singular; root count drops below 2d")
        (lam,), (vectors,), (errors,), (failure,) = _eigenpairs(blocks[None])
        if failure is not None:
            raise failure
        order = np.lexsort((lam.real, lam.imag))
        spec._derived[key] = RootSet(lam[order], errors[order], vectors[order])
    return spec._derived[key]


def _classical(spec: LagrangianSpec, nu: float) -> tuple:
    """(classical_spectrum, None), or (None, what it raises, without the frames that would
    keep a batch's arrays alive)."""
    try:
        return classical_spectrum(spec, nu), None
    except (LeadingSingular, numkernel.NumericalFailure) as exc:
        return None, exc.with_traceback(None)


def transcendental_eval(spec: LagrangianSpec, op: ScaleOperator, nu: float,
                        zeta: complex) -> np.ndarray:
    """The nu-pencil of spec on op's grid at zeta = e^{lam eps}; Laurent powers range over
    -2N..2N.

    Equals -A_nu * theta_hat(zeta) - J5 * sigma1_hat(zeta) - C_nu with
    theta_hat, sigma1_hat the operator symbols written in zeta.
    """
    if zeta == 0:
        raise ZeroArgument("transcendental pencil is undefined at zeta = 0")
    a_nu, c_nu = coefficient_matrices(spec, nu)
    ks = np.arange(-2 * op.N, 2 * op.N + 1)
    theta_hat = np.sum(op.theta * np.asarray(zeta, dtype=complex) ** ks) / op.epsilon**2
    ks1 = np.arange(-op.N, op.N + 1)
    sigma1_hat = np.sum(op.sigma1 * np.asarray(zeta, dtype=complex) ** ks1) / op.epsilon
    return -a_nu * theta_hat - spec.J5 * sigma1_hat - c_nu


class _Delays(NamedTuple):
    """The delays of a batch of operators sharing N: eps (B,), eps**2 (B,) rounded as a
    lone call rounds it (libm pow, which numpy's square does not always match) and each
    one's binomial shift op.shift, (B, 4N+1, 4N+1) in one expression with op.shift's bits
    (a read-only broadcast of one when the batch shares one eps, as a surface block does)."""

    eps: np.ndarray
    eps2: np.ndarray
    shift: np.ndarray

    @classmethod
    def of(cls, ops: list) -> "_Delays":
        eps, binom = np.array([op.epsilon for op in ops]), scaleop.binomials(4 * ops[0].N + 1)
        shift = np.broadcast_to(ops[0].shift, (len(ops),) + binom.shape) if (eps == eps[0]).all() \
            else binom * eps[:, None, None] ** np.arange(len(binom))[:, None]
        try:
            return cls(eps, np.array([op.epsilon**2 for op in ops]), shift)
        except OverflowError as exc:  # a float's ** raises where numpy's gives inf
            raise numkernel.overflow("a squared delay is not finite", "2 log eps",
                                     2 * float(np.log(eps.max()))) from exc

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


def _block_coefficients(gamma: np.ndarray, delays: _Delays, theta: np.ndarray) -> tuple:
    """(theta/eps^2, sigma1, zeta^{2N}), each (B, 4N+1) in w: the scalar coefficients x_i of
    the shifted blocks B_i = -(x_i0 A_nu + x_i1 J5 + x_i2 C_nu), for weights gamma (B, 2N+1)
    at their delays, with theta from their `_symbols`."""
    N = (gamma.shape[1] - 1) // 2
    gamma = gamma if gamma.imag.any() else gamma.real
    sigma1 = _row_products(gamma - gamma[:, ::-1],
                           delays.shift[:, :, N:3 * N + 1].transpose(0, 2, 1)) \
        / delays.eps[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return theta / delays.eps2[:, None], sigma1, delays.shift[:, :, 2 * N]


def _shifted_blocks(spec: LagrangianSpec, gamma: np.ndarray, delays: _Delays,
                    nu: float) -> np.ndarray:
    """Coefficients B_0..B_4N of zeta^{2N} P(zeta) in w = (zeta - 1)/eps, (B, 4N+1, d, d),
    for the weights gamma (B, 2N+1) of operators sharing N, each at its own delay; not
    finite where eps^2 underflows to 0, which `spectra` reads as a degree drop."""
    a_nu, c_nu = coefficient_matrices(spec, nu)
    theta, sigma1, unit = (c[:, :, None, None] for c in _block_coefficients(
        gamma, delays, _symbols(gamma, delays)[1]))
    with np.errstate(invalid="ignore"):
        return -(theta * a_nu + sigma1 * spec.J5 + unit * c_nu)


def _block_norms(spec: LagrangianSpec, coefficients: tuple, nu: float) -> np.ndarray:
    """||B_i||_F (B, 4N+1) of the `_shifted_blocks`, never assembled: ||R x_i||_2 for the
    x_i of `_block_coefficients` and the triangular R of [vec A_nu | vec J5 | vec C_nu] =
    Q R.  A nearly vanishing block (C_nu close to a multiple of A_nu) keeps the rounding of
    its parts, as its assembly does; the Gram form x^T R^T R x would keep sqrt(u) of them."""
    a_nu, c_nu = coefficient_matrices(spec, nu)
    factor = np.linalg.qr(np.stack([a_nu, spec.J5, c_nu], axis=-1).reshape(-1, 3), mode="r")
    with np.errstate(all="ignore"):  # not finite where eps^2 underflows, as the blocks
        return np.linalg.norm(np.stack(coefficients, axis=-1) @ factor.T, axis=-1)


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
    mu, failed = numkernel.per_item(np.linalg.eigvals, np.zeros(row.shape[1:]), companion)
    return s * mu, finite, failed


def _preimages(gamma: np.ndarray, delays: _Delays, symbols: tuple, norms: np.ndarray,
               pencil: np.ndarray, targets: np.ndarray, vectors: np.ndarray) -> tuple:
    """`_eigenpairs` of zeta^{2N} P(zeta) = sum_i base^i unit^{k-i} pencil[i] for weights
    gamma (B, 2N+1) at their delays, with their `_symbols` (g, theta) and shifted-block
    norms (B, 4N+1), from the pairs (t_k, v_k) of sum_i t^i pencil[i]: (C, B, A) with
    base = g/eps, unit = zeta^N (antisymmetric weights), or (-C_nu, A_nu) with
    base = -g g~/eps^2, unit = zeta^{2N} (J5 = 0).  v_k's roots are those of
    base - t_k unit in w, from scaled companions, or for J5 = 0 from the self-reciprocal
    h(zeta) h(1/zeta) + t_k eps^2 of `_half_degree` in y = (zeta - 1)^2 / zeta: the
    quadratic formula (N = 1) or 2N x 2N companions give y, and each y the two roots eps w
    of x^2 - y x - y.  A Newton step in w is kept unless it raises the modulus.
    ||Q(w) v_k|| is ||R a(w)|| for a_i(w) = base^i unit^{k-i} and the R of one QR of
    target k's products [pencil[i] v_k], which skip a zero block (J5 = 0).  Items with
    w-coefficients not finite (or, for J5 = 0, a vanishing leading one) are not solved.
    With real weights, a target whose exact conjugate is a target with Im > 0 is not solved
    either: its coefficients are the conjugates of that target's, so its roots, Newton step
    and error terms are that target's, conjugated."""
    k, B, N, T = len(pencil) - 1, len(gamma), (gamma.shape[1] - 1) // 2, len(targets)
    partner = (targets[:, None] == targets.conj()).argmax(axis=1)
    mirror = (targets.imag < 0) & (targets[partner] == targets.conj()) & ~gamma.imag.any()
    own = np.flatnonzero(~mirror)  # the targets solved; src: each target's solve
    src = np.searchsorted(own, np.where(mirror, partner, np.arange(T)))
    g, theta = symbols
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
    with np.errstate(all="ignore"):
        h = npoly.polyval(w, c, tensor=False)
        newton = w - h / npoly.polyval(w, npoly.polyder(c), tensor=False)
        w = np.where(np.abs(npoly.polyval(newton, c, tensor=False)) <= np.abs(h), newton, w)
        flat, used = w.reshape(B, -1), [i for i in range(k + 1) if pencil[i].any()]
        at = [npoly.polyval(flat, p.T[:, :, None], tensor=False) for p in (base, unit)]
        r = np.linalg.qr(np.stack([vectors[own] @ pencil[i].T for i in used], -1), mode="r")
        ra = sum((at[0]**i * at[1]**(k - i)).reshape(w.shape)[..., None] * r[:, None, :, j]
                 for j, i in enumerate(used))  # R a(w), (B, own, deg, rank)
        den = (np.abs(flat[:, None]) ** np.arange(norms.shape[1])[:, None] * norms[:, :, None]
               ).sum(axis=1).reshape(w.shape) * np.linalg.norm(vectors[own], axis=1)[:, None]
    num, den = (e[:, src].reshape(B, -1) for e in (np.linalg.norm(ra, axis=-1), den))
    w = np.where(mirror[:, None], w[:, src].conj(), w[:, src]).reshape(B, -1)
    errors, rejected = _verdicts(num, den, True)  # v_k unit
    vectors = np.repeat(vectors, deg, axis=0)
    return w, np.broadcast_to(vectors, w.shape + vectors.shape[1:]), errors, [
        LeadingSingular("the block companion has infinite eigenvalues") if not ok else exc
        and numkernel.NumericalFailure(f"companion eigen-solve failed: {exc}") or rej
        for ok, exc, rej in zip(finite, failed, rejected)]


@dataclass(frozen=True)
class Modes:
    """One pencil's spectrum, built by `Spectra.modes`: the phases lam and the same roots in
    the pencil's variable (lam, or zeta = e^{lam eps}), sharing residuals and kernel
    vectors."""

    lam: RootSet
    roots: RootSet


@dataclass(frozen=True)
class Spectra:
    """Spectra of a batch of pencils, rows sorted by phase: phases and roots (in the
    pencil's variable), backward errors (a reduction's in the R form), failures[i], what
    item i's spectrum raises (None when it has one), and unit kernel vectors (B, K, d),
    gathered on first read from the routes' (items, vectors) parts, zeros first, and sorted
    by `order`: an eps-sweep never builds them.  `modes(i)` is item i as the one record of
    a lone spectrum.  Roots are not judged for separation here: a reader that needs simple
    roots applies `numkernel.simple_rows`."""

    lam: np.ndarray
    roots: np.ndarray
    residuals: np.ndarray
    failures: list
    parts: list
    order: tuple = ()

    @cached_property
    def vectors(self) -> np.ndarray:
        vectors = np.empty(self.roots.shape + self.parts[0][1].shape, dtype=complex)
        for idx, v in self.parts:
            vectors[idx] = v
        return vectors[self.order]

    def modes(self, i: int) -> Modes:
        """Item i's spectrum; raises the item's failure."""
        if self.failures[i] is not None:
            raise self.failures[i]
        return Modes(*(RootSet(r[i], self.residuals[i], self.vectors[i])
                       for r in (self.lam, self.roots)))


def root_count(spec: LagrangianSpec, op: ScaleOperator | None) -> int:
    """The root count of spec's pencils: 2d in continuous time (op None), 4Nd on op's grid."""
    return 2 * spec.d if op is None else 4 * op.N * spec.d


def spectra(spec: LagrangianSpec, ops: list, nu: float) -> Spectra:
    """Spectra of the nu-pencils of spec under a batch of operators that share N, each
    with its own eps; ops = [None] is continuous time.

    Continuous items share the classical spectrum.  Discrete weights are routed in
    batches, real apart from complex so that each item gets the roots of its lone
    spectrum: antisymmetric ones to preimages under g/eps of the classical pairs (from
    `classical_spectrum`, solved once per (spec, nu)), others when J5 = 0 to preimages under
    g g~/eps^2 of the pairs of A_nu mu - C_nu, each pencil solved once a batch, and the
    rest to the shifted block companion.  Only that companion assembles the shifted blocks.
    A zeta-root at 0 has no finite phase: its item is a NumericalFailure.  A lone
    operator's spectrum that does not fail is kept with the spec, by (nu, eps, weights).
    """
    op, B, K = ops[0], len(ops), root_count(spec, ops[0])
    key = None if op is None or B > 1 else ("spectra", nu, op.epsilon, op.gamma.tobytes())
    if key in spec._derived:
        return spec._derived[key]
    w, residuals = np.full((B, K), np.nan, dtype=complex), np.full((B, K), np.inf)
    parts = [(slice(None), np.zeros(spec.d, dtype=complex))]  # zero where no route solves
    if op is None:
        q, failure = _classical(spec, nu)
        if q is not None:
            w[:], residuals[:] = q.roots, q.residuals
            parts.append((slice(None), q.vectors))
        return Spectra(w, w, residuals, [failure] * B, parts)

    gamma = np.stack([op.gamma for op in ops])
    delays = _Delays.of(ops)
    a_nu, c_nu = coefficient_matrices(spec, nu)
    singular = _leading_singular(spec, nu)
    failures, live = numkernel.merge_failures([None] * B, [
        LeadingSingular("gamma_{-N} * gamma_N = 0: the zeta-polynomial degenerates")
        if e == 0 else LeadingSingular("leading block J1 + 2(nu-1) J3 is singular")
        if singular else None for e in gamma[:, 0] * gamma[:, -1]])
    # route 2 * (2: gamma_{-j} = -gamma_j, 1: J5 = 0, 0: companion) + (real weights)
    reduction = np.where(~(gamma + gamma[:, ::-1]).any(axis=1), 2, int(not spec.J5.any()))
    routes = 2 * reduction + ~gamma.imag.any(axis=1)
    for route in sorted(set(routes[live].tolist())):
        idx = live[routes[live] == route]
        if route < 2:
            blocks = _shifted_blocks(spec, gamma[idx], delays.take(idx), nu)
            w[idx], v, residuals[idx], failed = _eigenpairs(blocks)
            parts.append((idx, v))
            # finite weights and eps leave a block infinite only through an under- or
            # overflowing delay (theta/eps^2): the degree drop the reductions report
            failed = [LeadingSingular("the block companion has infinite eigenvalues")
                      if not ok else f for f, ok in zip(failed, np.isfinite(blocks).all(
                          axis=(1, 2, 3)))]
        else:  # the pairs of the classical pencil (C, B, A), or of A_nu mu - C_nu
            pencil = np.stack([-c_nu, -2.0 * spec.J5, a_nu] if route >= 4 else [-c_nu, a_nu])
            if route < 4:
                (targets,), (pairs,), _, (failure,) = _eigenpairs(pencil[None])
            else:
                q, failure = _classical(spec, nu)
                targets, pairs = (None, None) if q is None else (q.roots, q.vectors)
            failed = [failure] * len(idx)
            if failure is None:
                items = gamma[idx], delays.take(idx)
                g_theta = _symbols(*items)  # once for the norms and the preimages
                norms = _block_norms(spec, _block_coefficients(*items, g_theta[1]), nu)
                w[idx], v, residuals[idx], failed = _preimages(
                    *items, g_theta, norms, pencil, targets, pairs)
                parts.append((idx, v))
        failures, _ = numkernel.merge_failures(failures, failed, idx)
    z = delays.eps[:, None] * w  # zeta - 1
    # Log(1 + z), with log|1 + z| from log1p so that it stays accurate near zeta = 1; a
    # root zeta = 0 has Re lam = -inf
    with np.errstate(all="ignore"):
        lam = (0.5 * np.log1p(2.0 * z.real + z.real**2 + z.imag**2)
               + 1j * np.arctan2(z.imag, 1.0 + z.real)) / delays.eps[:, None]
    order = np.arange(B)[:, None], np.lexsort((lam.real, lam.imag), axis=-1)
    failures, _ = numkernel.merge_failures(failures, [
        None if ok else numkernel.NumericalFailure("a zeta-root at 0 has no finite phase")
        for ok in np.isfinite(lam.real).all(axis=1)])
    result = Spectra(lam[order], 1.0 + z[order], residuals[order], failures, parts, order)
    if key is not None and failures[0] is None:
        spec._derived[key] = result
    return result


def transcendental_spectrum(spec: LagrangianSpec, op: ScaleOperator, nu: float) -> Modes:
    """All 4Nd discrete phases lam and zeta-roots, with their kernel vectors, of the
    nu-pencil of spec on op's grid, as preimages of the classical pairs (antisymmetric
    weights, or J5 = 0) or from the companion of zeta^{2N} P(zeta) in w = (zeta - 1)/eps:
    the batch of one of `spectra`, raising its failure.

    lam = Log(zeta)/eps uses the principal branch, Im(lam) in (-pi/eps, pi/eps];
    any other representative differs by an integer multiple of 2 pi i / eps.
    """
    return spectra(spec, [op], nu).modes(0)


def constant_systems(spec: LagrangianSpec, ops: list, nu: float) -> tuple:
    """Per operator of a batch: the pencil value at the constant mode (lam = 0, zeta = 1)
    and the right-hand side fixing the constant mode of one particle, J7 + s_bar(0) J6.
    s_bar(0) = sum(gamma)/eps, each item's own (0 when continuous), is the interior adjoint
    on 1; the pencil there is -A_nu s_bar(0)^2 - C_nu, as sigma1_hat(1) = 0."""
    a_nu, c_nu = coefficient_matrices(spec, nu)
    sbar0 = np.zeros(len(ops)) if ops[0] is None else np.stack(
        [op.gamma for op in ops]).sum(axis=1) / [op.epsilon for op in ops]
    return -(sbar0**2)[:, None, None] * a_nu - c_nu, spec.J7 + sbar0[:, None] * spec.J6


def check_del_assumptions(spec: LagrangianSpec, op: ScaleOperator | None, n: int) -> list:
    """The paper's standing assumptions on op's grid (op None: continuous time), reported,
    not enforced (no solve reads them, `celsolve.Core`): the reasons that fail, [] when all
    hold.  A spectrum that fails (a degree drop, a failed eigen-solve) is the one reason,
    what it raised, nu = 0's first.  Otherwise the phases lam are judged at
    numkernel.SEPARATION_TOL relative (`numkernel.close_pairs`): each spectrum's must be
    simple, and no nu = n phase a nu = 0 phase, which the paper's unique x_s/particle split
    needs and solves do not enforce.  On a grid, two zeta-roots that straddle the negative
    real axis have phases near Im lam = +pi/eps and -pi/eps: close in zeta, they are judged
    apart.  Last, both pencils must be regular at the constant mode
    (`numkernel.is_singular` on `constant_systems`)."""
    sp_n, sp_0 = (spectra(spec, [op], nu) for nu in (n, 0))
    failure = sp_0.failures[0] or sp_n.failures[0]
    if failure is not None:
        return [str(failure)]
    lam_n, lam_0 = sp_n.modes(0).lam, sp_0.modes(0).lam
    singular_n, singular_0 = numkernel.is_singular(np.concatenate(
        [constant_systems(spec, [op], nu)[0] for nu in (n, 0)]))
    checks = {"the nu = n phases are not simple": lam_n.is_simple(),
              "the nu = 0 phases are not simple": lam_0.is_simple(),
              "a nu = n phase is a nu = 0 phase": not numkernel.close_pairs(
                  lam_n.roots, lam_0.roots, numkernel.SEPARATION_TOL).any(),
              "P_n is singular at the constant mode": not singular_n,
              "P_0 is singular at the constant mode": not singular_0}
    return [reason for reason, holds in checks.items() if not holds]


def check_cel_assumptions(spec: LagrangianSpec, n: int) -> list:
    """The paper's assumptions in continuous time (`check_del_assumptions`)."""
    return check_del_assumptions(spec, None, n)
