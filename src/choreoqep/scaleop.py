"""Windowed scale-derivative operators on uniform grids and their symbols.

The forward operator acting on a function sampled with step ``epsilon`` is

    (box f)(t) = sum_j gamma_j / epsilon * f(t + j*epsilon) * chi_{-j}(t)

with ``chi_j`` the indicator of [t0, tf] ∩ [t0 + j eps, tf + j eps].  The
adjoint (mirrored-shift) operator uses f(t − j eps) with chi_j weights and
converges to −d/dt; their composition carries the discrete second-derivative
symbol, whose coefficients `theta_coefficients` gives.

On nodes 0..M the forward operator is D/eps, with the banded D[i, i+j] = gamma_j
(0 <= i+j <= M), and the adjoint D^T/eps; each operator caches read-only theta/sigma1
coefficients and the binomial `shift` to (zeta - 1)/eps.  The time-based `chi` and
`*box_apply` functions apply the same operators node by node, to samples (M+1, d) at
the nodes t0 + m eps of the operator's own delay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np


class OutOfRange(Exception):
    """Raised when an operator application needs a grid node that is missing."""


@dataclass(frozen=True)
class ScaleOperator:
    """2N+1 complex weights gamma_{-N}..gamma_N (read-only) and a positive time delay."""

    gamma: np.ndarray
    epsilon: float

    def __post_init__(self):
        g = _read_only(np.atleast_1d(np.array(self.gamma, dtype=complex)).ravel())
        if len(g) < 3 or len(g) % 2 == 0:
            raise ValueError("gamma must have odd length 2N+1 with N >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "gamma", g)

    @property
    def N(self) -> int:
        return (len(self.gamma) - 1) // 2

    def gamma_at(self, j: int) -> complex:
        """Weight gamma_j for |j| <= N."""
        return complex(self.gamma[j + self.N])

    @cached_property
    def theta(self) -> np.ndarray:
        """theta_coefficients, computed once per operator (read-only)."""
        return _read_only(theta_coefficients(self))

    @cached_property
    def sigma1(self) -> np.ndarray:
        """sigma1_coefficients, computed once per operator (read-only)."""
        return _read_only(sigma1_coefficients(self))

    @cached_property
    def shift(self) -> np.ndarray:
        """Binomial shift S[i, j] = eps^i C(j, i), i, j = 0..4N (read-only): coefficients
        c of a polynomial in zeta become S @ c in w = (zeta - 1)/eps."""
        binom = binomials(4 * self.N + 1)
        return _read_only(binom * self.epsilon ** np.arange(len(binom))[:, None])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def binomials(size: int) -> np.ndarray:
    """C(j, i) at [i, j], i, j < size: one read-only table per N, shared by its operators."""
    return _read_only(np.array([[math.comb(j, i) for j in range(size)]
                                for i in range(size)], dtype=float))


def central_difference(epsilon: float) -> ScaleOperator:
    """The N=1 operator (-1/2, 0, 1/2): the symmetric difference quotient."""
    return ScaleOperator(np.array([-0.5, 0.0, 0.5]), epsilon)


def k_family(epsilon: float, k: float) -> ScaleOperator:
    """The one-parameter N=1 family (-1/2 + ik, -2ik, 1/2 + ik)."""
    return ScaleOperator(np.array([-0.5 + 1j * k, -2j * k, 0.5 + 1j * k]), epsilon)


def chi(op: ScaleOperator, j: int, t: float, t0: float, tf: float) -> int:
    """Indicator of [t0, tf] ∩ [t0 + j eps, tf + j eps], closed at ties."""
    if not t0 < tf:
        raise ValueError("chi requires t0 < tf")
    eps = op.epsilon
    slack = 1e-9 * eps + 8 * math.ulp(max(abs(t0), abs(tf), abs(t)))  # rounding of t
    lo = max(t0, t0 + j * eps)
    hi = min(tf, tf + j * eps)
    return int(lo - slack <= t <= hi + slack)


def _gather(op: ScaleOperator, f: np.ndarray, m: int, t0: float, tf: float,
            shift_sign: int) -> np.ndarray:
    """Windowed sum gamma_j/eps * f[m + s*j] * chi_{-s*j}, s = shift_sign, for the samples
    f (M+1, d) at t0 + m eps (a 1-D f has d = 1)."""
    eps, f = op.epsilon, np.asarray(f, dtype=complex).reshape(len(f), -1)
    t = t0 + m * eps
    out = np.zeros(f.shape[1], dtype=complex)
    for j in range(-op.N, op.N + 1):
        w = chi(op, -shift_sign * j, t, t0, tf)
        if not w:
            continue
        node = m + shift_sign * j
        if node < 0 or node >= len(f):
            raise OutOfRange(f"node {node} needed by nonzero window weight is missing")
        out += op.gamma_at(j) / eps * f[node]
    return out


def box_apply(op: ScaleOperator, f: np.ndarray, m: int, t0: float, tf: float) -> np.ndarray:
    """Forward scale derivative at node m of the samples f (M+1, d) at t0 + m eps."""
    return _gather(op, f, m, t0, tf, +1)


def adjoint_box_apply(op: ScaleOperator, f: np.ndarray, m: int, t0: float,
                      tf: float) -> np.ndarray:
    """Mirrored-shift scale derivative at node m (tends to −f' as eps → 0)."""
    return _gather(op, f, m, t0, tf, -1)


def boxbox_apply(op: ScaleOperator, f: np.ndarray, m: int, t0: float,
                 tf: float) -> np.ndarray:
    """Composition adjoint∘forward at node m with exact window factors.

    Equals sum over |l|<=N, |k+l|<=N of gamma_{k+l} gamma_l / eps^2
    * chi_l(t) chi_{-k}(t) * f[m+k].
    """
    eps, N, f = op.epsilon, op.N, np.asarray(f, dtype=complex).reshape(len(f), -1)
    t = t0 + m * eps
    out = np.zeros(f.shape[1], dtype=complex)
    for k in range(-2 * N, 2 * N + 1):
        wk = chi(op, -k, t, t0, tf)
        if not wk:
            continue
        acc = 0.0 + 0.0j
        for l in range(max(-N, -N - k), min(N, N - k) + 1):
            if chi(op, l, t, t0, tf):
                acc += op.gamma_at(k + l) * op.gamma_at(l)
        if acc == 0:
            continue
        node = m + k
        if node < 0 or node >= len(f):
            raise OutOfRange(f"node {node} needed by nonzero window weight is missing")
        out += acc / eps**2 * f[node]
    return out


class OperatorConditions(NamedTuple):
    sum_zero: bool
    derivative_normalized: bool


def check_operator_conditions(op: ScaleOperator) -> OperatorConditions:
    """Check sum(gamma) = 0 and (1/2) sum_k k (gamma_k - gamma_{-k}) = 1 to 1e-12.

    Together these make the forward operator reproduce constants (as 0) and
    the identity function (as 1) away from the interval ends.
    """
    total = op.gamma.sum()
    ks = np.arange(-op.N, op.N + 1)
    normal = 0.5 * np.sum(ks * (op.gamma - op.gamma[::-1]))
    return OperatorConditions(abs(total) <= 1e-12, abs(normal - 1.0) <= 1e-12)


def theta_coefficients(op: ScaleOperator) -> np.ndarray:
    """Coefficients g_k = sum_l gamma_{k+l} gamma_l for k = -2N..2N.

    (1/eps^2) sum_k g_k e^{k lam eps} is the interior symbol of adjoint∘forward; g is
    the interior row of D^T D for the banded D[i, i+j] = gamma_j.
    """
    return np.convolve(op.gamma, op.gamma[::-1])


def sigma1_coefficients(op: ScaleOperator) -> np.ndarray:
    """Antisymmetrized weights gamma_k - gamma_{-k} for k = -N..N."""
    return op.gamma - op.gamma[::-1]
