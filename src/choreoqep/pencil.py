"""Quadratic and transcendental matrix pencils, their spectra and assumptions.

For a system spec and a real weight nu, the quadratic pencil is

    P_nu(lam) = (J1 + 2(nu-1) J3) lam^2 - 2 J5 lam - (J2 + 2(nu-1) J4)

whose 2d roots drive the continuous-time solver.  The discrete analogue
replaces -lam^2 and 2 lam by the scale-operator symbols; substituting
zeta = e^{lam eps} turns zeta^{2Nd} det into a degree-4Nd polynomial whose
roots give the discrete phases (principal branch in lam).  `Setting` is the
one place where the two settings differ; the assumption checker, the
solvers' shared core and the periodicity code all run on it.
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

    @classmethod
    def from_spec(cls, spec: LagrangianSpec, nu: float) -> "ClassicalPencil":
        a, c = coefficient_matrices(spec, nu)
        return cls(a, -2.0 * spec.J5, -c, float(nu))


def classical_pencil(spec: LagrangianSpec, nu: float) -> ClassicalPencil:
    return ClassicalPencil.from_spec(spec, nu)


def classical_eval(p: ClassicalPencil, lam: complex) -> np.ndarray:
    return p.A * lam**2 + p.B * lam + p.C


def _is_singular(m: np.ndarray) -> bool:
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    return s[0] == 0 or s[-1] <= 1e-12 * s[0]


def classical_spectrum(p: ClassicalPencil, tol: float = 1e-8,
                       radius: float = 1.0) -> RootSet:
    """All 2d pencil roots, counted with multiplicity."""
    d = p.A.shape[0]
    if _is_singular(p.A):
        raise LeadingSingular("leading coefficient is singular; root count drops below 2d")
    poly = numkernel.det_as_polynomial(lambda z: classical_eval(p, z), 2 * d, radius)
    if poly.degree != 2 * d:
        raise LeadingSingular(
            f"determinant degree {poly.degree} != 2d = {2 * d}")
    return numkernel.polynomial_roots(poly, tol)


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


def transcendental_spectrum(p: TranscendentalPencil, tol: float = 1e-8,
                            radius: float = 1.0,
                            separation_tol: float = 1e-7) -> TranscendentalSpectrum:
    """All 4Nd discrete phases from the degree-4Nd polynomial in zeta.

    lam = Log(zeta)/eps uses the principal branch, Im(lam) in (-pi/eps, pi/eps];
    any other representative differs by an integer multiple of 2 pi i / eps.
    """
    op = p.op
    N, d = op.N, p.spec.d
    if op.gamma_at(-N) * op.gamma_at(N) == 0:
        raise LeadingSingular("gamma_{-N} * gamma_N = 0: the zeta-polynomial degenerates")
    a_nu, _ = coefficient_matrices(p.spec, p.nu)
    if _is_singular(a_nu):
        raise LeadingSingular("leading block J1 + 2(nu-1) J3 is singular")

    poly = numkernel.det_as_polynomial(
        lambda z: z ** (2 * N) * transcendental_eval(p, z), 4 * N * d, radius)
    if poly.degree != 4 * N * d:
        raise LeadingSingular(
            f"zeta-polynomial degree {poly.degree} != 4Nd = {4 * N * d}")
    zeta = numkernel.polynomial_roots(poly, tol)
    if not zeta.is_simple(separation_tol):
        raise DegenerateRoots("zeta-roots cluster below the separation tolerance")

    lam_roots = np.log(zeta.roots) / op.epsilon
    order = np.lexsort((lam_roots.real, lam_roots.imag))
    lam = RootSet(lam_roots[order], zeta.residuals[order],
                  numkernel._min_separation(lam_roots), tol)
    zeta_sorted = RootSet(zeta.roots[order], zeta.residuals[order],
                          zeta.min_separation, tol)
    return TranscendentalSpectrum(lam, zeta_sorted)


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

    def evaluate(self, p, z: complex) -> np.ndarray:
        """Pencil value at z in the root variable."""
        if self.op is None:
            return classical_eval(p, z)
        return transcendental_eval(p, z)

    def at_constant(self, p) -> np.ndarray:
        """Pencil value at the constant mode (lam = 0, i.e. zeta = 1)."""
        return self.evaluate(p, 0.0 if self.op is None else 1.0)

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
    except (LeadingSingular, DegenerateRoots, numkernel.NumericalFailure,
            numkernel.InterpolationInconsistent) as exc:
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
