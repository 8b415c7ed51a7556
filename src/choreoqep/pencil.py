"""Quadratic and transcendental matrix pencils, their spectra and assumptions.

For a system spec and a real weight nu, the quadratic pencil is

    P_nu(lam) = (J1 + 2(nu-1) J3) lam^2 - 2 J5 lam - (J2 + 2(nu-1) J4)

whose 2d roots drive the continuous-time solver.  The discrete analogue
replaces -lam^2 and 2 lam by the scale-operator symbols; with zeta = e^{lam eps},
zeta^{2N} times it is a degree-4N matrix polynomial whose 4Nd roots give the
discrete phases (principal branch in lam).

Each spectrum is one LAPACK eigen-solve of a monic block companion (Tisseur &
Meerbergen, SIAM Rev. 2001), real when the weights are real.  The zeta-polynomial
is shifted to w = (zeta - 1)/eps first, where its coefficients B_i are O(1) near
the convergent roots.  The larger end d-block of an eigenvector (v, w v, ...) is
the root's kernel vector v; the pair is accepted when its normwise backward error
||Q(w) v|| / (sum_i |w|^i ||B_i||_F ||v||) is at most tol, and that error is the
root's residual.  `Setting` is the one place where the two settings differ; the
assumption checker, the solvers' shared core and the periodicity code run on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _is_singular(m: np.ndarray) -> bool:
    s = np.linalg.svd(m, compute_uv=False)
    return s[0] == 0 or s[-1] <= 1e-12 * s[0]


def _eigenpairs(blocks: np.ndarray, tol: float) -> tuple:
    """Roots w, unit kernel vectors (rows) and backward errors of sum_i w^i blocks[i],
    from its monic block companion in mu = w / s, s equalising ||B_0|| and ||B_k||."""
    k, d = len(blocks) - 1, blocks.shape[1]
    norms = np.linalg.norm(blocks, axis=(1, 2))
    try:
        with np.errstate(all="ignore"):
            s = (norms[0] / norms[-1]) ** (1.0 / k)
            s = s if 0 < s < np.inf else 1.0  # no scaling when B_0 = 0
            s_powers = s ** np.arange(k + 1)
            blocks, norms = blocks * s_powers[:, None, None], norms * s_powers
            monic = np.linalg.solve(blocks[-1], np.hstack(blocks[:-1]))
    except np.linalg.LinAlgError as exc:
        raise LeadingSingular(f"leading block is singular: {exc}") from exc
    if not np.isfinite(monic).all():
        raise LeadingSingular("the block companion has infinite eigenvalues")
    companion = np.eye(k * d, k=d, dtype=monic.dtype)
    companion[-d:] = -monic
    try:
        mu, vecs = np.linalg.eig(companion)
    except np.linalg.LinAlgError as exc:
        raise numkernel.NumericalFailure(f"companion eigen-solve failed: {exc}") from exc
    # the eigenvector is (v, mu v, .., mu^{k-1} v): read v from its larger end block
    mu = mu.astype(complex)
    v = np.where(np.abs(mu) <= 1.0, vecs[:d], vecs[-d:]).astype(complex)
    with np.errstate(all="ignore"):
        powers = mu ** np.arange(k + 1)[:, None]
        num = np.linalg.norm(((blocks @ v) * powers[:, None]).sum(axis=0), axis=0)
        den = np.abs(powers).T @ norms * np.linalg.norm(v, axis=0)
        # den = 0: every term mu^i B_i v vanishes, an exact pair unless num says otherwise
        errors = np.divide(num, den, out=np.where(num == 0, 0.0, np.inf), where=den > 0)
    if not (errors.max() <= tol and np.abs(v).max(axis=0).min() > 0):
        raise numkernel.NumericalFailure(
            f"eigenpairs fail the backward-error test (worst {errors.max():.3e}, "
            f"tol {tol:.1e}) or have a vanishing kernel block")
    top = v[np.argmax(np.abs(v), axis=0), np.arange(len(mu))]
    v = v * (top.conj() / np.abs(top))  # largest component real positive
    return s * mu, (v / np.linalg.norm(v, axis=0)).T, errors


def _rootset(roots: np.ndarray, errors: np.ndarray, vectors: np.ndarray,
             order: np.ndarray, tol: float) -> RootSet:
    return RootSet(roots[order], errors[order], numkernel._min_separation(roots), tol,
                   vectors[order])


def classical_spectrum(p: ClassicalPencil, tol: float = 1e-8) -> RootSet:
    """All 2d pencil roots and their kernel vectors, from the companion of (C, B, A)."""
    if _is_singular(p.A):
        raise LeadingSingular("leading coefficient is singular; root count drops below 2d")
    lam, vectors, errors = _eigenpairs(np.stack([p.C, p.B, p.A]), tol)
    return _rootset(lam, errors, vectors, np.lexsort((lam.real, lam.imag)), tol)


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


def _shifted_blocks(p: TranscendentalPencil) -> np.ndarray:
    """Coefficients B_0..B_4N of zeta^{2N} P(zeta) in w = (zeta - 1)/eps.

    zeta^{2N} theta_hat = g g~ / eps^2 with g = sum_j gamma_j zeta^{j+N}, g~ its
    reverse; shifting each factor first keeps the near-cancelling B_0, B_1 accurate.
    """
    op, N, eps = p.op, p.op.N, p.op.epsilon
    gamma = op.gamma if op.gamma.imag.any() else op.gamma.real
    a_nu, c_nu = coefficient_matrices(p.spec, p.nu)
    head = op.shift[:2 * N + 1, :2 * N + 1]
    theta = np.convolve(head @ gamma, head @ gamma[::-1]) / eps**2
    sigma1 = op.shift[:, N:3 * N + 1] @ (gamma - gamma[::-1]) / eps
    return -(np.multiply.outer(theta, a_nu) + np.multiply.outer(sigma1, p.spec.J5)
             + np.multiply.outer(op.shift[:, 2 * N], c_nu))


def transcendental_spectrum(p: TranscendentalPencil, tol: float = 1e-8,
                            separation_tol: float = 1e-7) -> TranscendentalSpectrum:
    """All 4Nd discrete phases and their kernel vectors, from the companion of
    zeta^{2N} P(zeta) in w = (zeta - 1)/eps.

    lam = Log(zeta)/eps uses the principal branch, Im(lam) in (-pi/eps, pi/eps];
    any other representative differs by an integer multiple of 2 pi i / eps.
    """
    op = p.op
    N = op.N
    if op.gamma_at(-N) * op.gamma_at(N) == 0:
        raise LeadingSingular("gamma_{-N} * gamma_N = 0: the zeta-polynomial degenerates")
    a_nu, _ = coefficient_matrices(p.spec, p.nu)
    if _is_singular(a_nu):
        raise LeadingSingular("leading block J1 + 2(nu-1) J3 is singular")

    w, vectors, errors = _eigenpairs(_shifted_blocks(p), tol)
    z = op.epsilon * w  # zeta - 1
    # Log(1 + z), with log|1 + z| from log1p so that it stays accurate near zeta = 1
    lam = (0.5 * np.log1p(2.0 * z.real + z.real**2 + z.imag**2)
           + 1j * np.arctan2(z.imag, 1.0 + z.real)) / op.epsilon
    order = np.lexsort((lam.real, lam.imag))
    zeta = _rootset(1.0 + z, errors, vectors, order, tol)
    if not zeta.is_simple(separation_tol):
        raise DegenerateRoots("zeta-roots cluster below the separation tolerance")
    return TranscendentalSpectrum(_rootset(lam, errors, vectors, order, tol), zeta)


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
    J7 + s_bar(0) J6) and how many roots to expect (2d or 4Nd).
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

    def at_constant(self, p) -> np.ndarray:
        """Pencil value at the constant mode (lam = 0, i.e. zeta = 1)."""
        if self.op is None:
            return classical_eval(p, 0.0)
        return transcendental_eval(p, 1.0)

    @property
    def constant_rhs(self) -> np.ndarray:
        """Right-hand side that fixes the constant mode of one particle.

        s_bar(0) = sum(gamma) / eps is the interior value of the adjoint on 1.
        """
        if self.op is None:
            return self.spec.J7
        sbar0 = complex(self.op.gamma.sum()) / self.op.epsilon
        return self.spec.J7 + sbar0 * self.spec.J6

    def modes(self, nu: float, separation_tol: float = 1e-7) -> Modes:
        p = self.pencil(nu)
        if self.op is None:
            lam = classical_spectrum(p)
            return Modes(p, lam, lam)
        sp = transcendental_spectrum(p, separation_tol=separation_tol)
        return Modes(p, sp.lam, sp.zeta)


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


def _check_assumptions(setting: Setting, n: int, tol: float) -> Assumptions:
    """|roots| = root_count and simple for nu = n and 0, disjointness, and
    nonsingularity at the constant mode."""
    try:
        modes_n = setting.modes(n, tol)
        modes_0 = setting.modes(0, tol)
    except (LeadingSingular, DegenerateRoots, numkernel.NumericalFailure) as exc:
        return Assumptions(setting, None, None, False, False, False, False, False, False,
                           note=str(exc))
    count = setting.root_count
    r_n, r_0 = modes_n.roots, modes_0.roots
    return Assumptions(
        setting=setting,
        modes_n=modes_n,
        modes_0=modes_0,
        precondition_ok=True,
        count_n_ok=len(r_n) == count and r_n.is_simple(tol),
        count_0_ok=len(r_0) == count and r_0.is_simple(tol),
        disjoint=not numkernel.close_pairs(r_n.roots, r_0.roots, tol).any(),
        det_pn0_nonzero=not _is_singular(setting.at_constant(modes_n.pencil)),
        det_p00_nonzero=not _is_singular(setting.at_constant(modes_0.pencil)),
    )


def check_cel_assumptions(spec: LagrangianSpec, n: int, tol: float = 1e-7) -> Assumptions:
    """Assumptions of the continuous solver, on the lam-roots."""
    return _check_assumptions(Setting(spec), n, tol)


def check_del_assumptions(spec: LagrangianSpec, op: ScaleOperator, n: int,
                          tol: float = 1e-7) -> Assumptions:
    """Assumptions of the discrete solver, on the zeta-roots."""
    return _check_assumptions(Setting(spec, op), n, tol)
