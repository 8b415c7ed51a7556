"""Windowed scale-derivative operators on uniform grids and their symbols.

The forward operator acting on a function sampled with step ``epsilon`` is

    (box f)(t) = sum_j gamma_j / epsilon * f(t + j*epsilon) * chi_{-j}(t)

with ``chi_j`` the indicator of [t0, tf] ∩ [t0 + j eps, tf + j eps].  The
adjoint (mirrored-shift) operator uses f(t − j eps) with chi_j weights and
converges to −d/dt; their composition carries the discrete second-derivative
symbol exposed below.

On a grid the windows are integers (`chi_node`); each operator caches read-only
theta/sigma1 coefficients, `WindowTables` and the binomial `shift` to (zeta - 1)/eps.
The time-based `chi` and `*box_apply` functions apply the same operators node by node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

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
    def windows(self) -> "WindowTables":
        """Window weights at every node position, computed once per operator."""
        return _window_tables(self)

    @cached_property
    def shift(self) -> np.ndarray:
        """Binomial shift S[i, j] = eps^i C(j, i), i, j = 0..4N (read-only): coefficients
        c of a polynomial in zeta become S @ c in w = (zeta - 1)/eps."""
        ks = range(4 * self.N + 1)
        binom = np.array([[math.comb(j, i) for j in ks] for i in ks], dtype=float)
        return _read_only(binom * self.epsilon ** np.arange(len(ks))[:, None])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def central_difference(epsilon: float) -> ScaleOperator:
    """The N=1 operator (-1/2, 0, 1/2): the symmetric difference quotient."""
    return ScaleOperator(np.array([-0.5, 0.0, 0.5]), epsilon)


def k_family(epsilon: float, k: float) -> ScaleOperator:
    """The one-parameter N=1 family (-1/2 + ik, -2ik, 1/2 + ik)."""
    return ScaleOperator(np.array([-0.5 + 1j * k, -2j * k, 0.5 + 1j * k]), epsilon)


@dataclass(frozen=True)
class GridFunction:
    """Complex d-vector samples on the uniform grid t0 + m*epsilon, m = 0..M."""

    t0: float
    epsilon: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("values must be an (M+1, d) array")
        object.__setattr__(self, "values", v)

    @property
    def M(self) -> int:
        return len(self.values) - 1

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def node_time(self, m: int) -> float:
        return self.t0 + m * self.epsilon

    @classmethod
    def from_callable(cls, fn: Callable, t0: float, epsilon: float, M: int) -> "GridFunction":
        vals = np.array([np.atleast_1d(fn(t0 + m * epsilon)) for m in range(M + 1)])
        return cls(t0, epsilon, vals)


def chi(op: ScaleOperator, j: int, t: float, t0: float, tf: float) -> int:
    """Indicator of [t0, tf] ∩ [t0 + j eps, tf + j eps], closed at ties."""
    if not t0 < tf:
        raise ValueError("chi requires t0 < tf")
    eps = op.epsilon
    slack = 1e-9 * eps + 8 * math.ulp(max(abs(t0), abs(tf), abs(t)))  # rounding of t
    lo = max(t0, t0 + j * eps)
    hi = min(tf, tf + j * eps)
    return int(lo - slack <= t <= hi + slack)


def chi_node(j: int, m: int, M: int) -> int:
    """chi_j at grid node m of a grid whose last node is M (integer-exact)."""
    return int(max(0, j) <= m <= M + min(0, j))


class WindowTables(NamedTuple):
    """Window weights indexed [a, b] by the nodes before (a) and after (b) a
    node m, each capped at 2N; [2N, 2N] is the interior.  `stencil[a, b]` is
    (3, 4N+1): applied to f at nodes m-2N..m+2N its rows give
    (adjoint∘forward f)(m), ((forward − adjoint) f)(m) and f(m)."""

    stencil: np.ndarray
    box1: np.ndarray  # the adjoint applied to the constant 1


def _window_tables(op: ScaleOperator) -> WindowTables:
    N, R, eps = op.N, 2 * op.N, op.epsilon
    span, ks = range(R + 1), np.arange(-R, R + 1)
    # win[a, b, j + R] = chi_j at node a of a grid with last node a + b
    win = np.array([[[chi_node(j, a, a + b) for j in ks] for b in span] for a in span],
                   dtype=float)
    wide = np.zeros(4 * R + 1, dtype=complex)  # gamma_j at j + 2R, zero for |j| > N
    wide[3 * N:5 * N + 1] = op.gamma
    gam = wide[R:3 * R + 1]
    pair = wide[ks[:, None] + ks + 2 * R] * gam  # [k + R, l + R]: gamma_{k+l} gamma_l
    mirrored = win[..., ::-1]  # chi_{-k}: node m + k lies on the grid
    stencil = np.zeros((R + 1, R + 1, 3, 2 * R + 1), dtype=complex)
    stencil[:, :, 0] = mirrored * (win @ pair.T) / eps**2
    stencil[:, :, 1] = mirrored * (gam - gam[::-1]) / eps
    stencil[:, :, 2, R] = 1.0
    return WindowTables(_read_only(stencil), _read_only(win @ gam / eps))


def _gather(op: ScaleOperator, f: GridFunction, m: int, t0: float, tf: float,
            shift_sign: int) -> np.ndarray:
    """Windowed sum gamma_j/eps * f(m + s*j) * chi_{-s*j}, s = shift_sign."""
    eps = op.epsilon
    t = f.node_time(m)
    out = np.zeros(f.d, dtype=complex)
    for j in range(-op.N, op.N + 1):
        w = chi(op, -shift_sign * j, t, t0, tf)
        if not w:
            continue
        node = m + shift_sign * j
        if node < 0 or node > f.M:
            raise OutOfRange(f"node {node} needed by nonzero window weight is missing")
        out += op.gamma_at(j) / eps * f.values[node]
    return out


def box_apply(op: ScaleOperator, f: GridFunction, m: int, t0: float, tf: float) -> np.ndarray:
    """Forward scale derivative at node m."""
    return _gather(op, f, m, t0, tf, +1)


def adjoint_box_apply(op: ScaleOperator, f: GridFunction, m: int, t0: float,
                      tf: float) -> np.ndarray:
    """Mirrored-shift scale derivative at node m (tends to −f' as eps → 0)."""
    return _gather(op, f, m, t0, tf, -1)


def boxbox_apply(op: ScaleOperator, f: GridFunction, m: int, t0: float,
                 tf: float) -> np.ndarray:
    """Composition adjoint∘forward at node m with exact window factors.

    Equals sum over |l|<=N, |k+l|<=N of gamma_{k+l} gamma_l / eps^2
    * chi_l(t) chi_{-k}(t) * f(m+k).
    """
    eps = op.epsilon
    N = op.N
    t = f.node_time(m)
    out = np.zeros(f.d, dtype=complex)
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
        if node < 0 or node > f.M:
            raise OutOfRange(f"node {node} needed by nonzero window weight is missing")
        out += acc / eps**2 * f.values[node]
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


def symbol_s(op: ScaleOperator, lam: complex) -> complex:
    """Interior symbol of the forward operator: (1/eps) sum gamma_j e^{j lam eps}."""
    js = np.arange(-op.N, op.N + 1)
    return complex(np.sum(op.gamma * np.exp(js * lam * op.epsilon)) / op.epsilon)


def symbol_s_bar(op: ScaleOperator, lam: complex) -> complex:
    """Interior symbol of the adjoint operator: (1/eps) sum gamma_j e^{-j lam eps}."""
    return symbol_s(op, -lam)


def theta_coefficients(op: ScaleOperator) -> np.ndarray:
    """Coefficients g_k = sum_l gamma_{k+l} gamma_l for k = -2N..2N.

    (1/eps^2) sum_k g_k e^{k lam eps} is the interior symbol of adjoint∘forward.
    """
    N = op.N
    g = np.zeros(4 * N + 1, dtype=complex)
    for k in range(-2 * N, 2 * N + 1):
        for l in range(max(-N, -N - k), min(N, N - k) + 1):
            g[k + 2 * N] += op.gamma_at(k + l) * op.gamma_at(l)
    return g


def sigma1_coefficients(op: ScaleOperator) -> np.ndarray:
    """Antisymmetrized weights gamma_k - gamma_{-k} for k = -N..N."""
    return op.gamma - op.gamma[::-1]


def symbol_theta(op: ScaleOperator, lam: complex) -> complex:
    """Interior symbol of adjoint∘forward, as the explicit double sum.

    Identically equal to symbol_s(lam) * symbol_s_bar(lam); tends to -lam^2
    as eps → 0 for operators passing check_operator_conditions.
    """
    ks = np.arange(-2 * op.N, 2 * op.N + 1)
    return complex(np.sum(op.theta * np.exp(ks * lam * op.epsilon)) / op.epsilon**2)


def symbol_sigma1(op: ScaleOperator, lam: complex) -> complex:
    """Interior symbol of (forward − adjoint); tends to 2 lam as eps → 0."""
    ks = np.arange(-op.N, op.N + 1)
    return complex(np.sum(op.sigma1 * np.exp(ks * lam * op.epsilon)) / op.epsilon)
