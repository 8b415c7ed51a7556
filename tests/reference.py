"""Test-only referees for the grid layer, built without the package's residual map.

`action_gradient` is the spectrum-free oracle: the discrete equations are the
stationarity conditions of the discrete action

    S(x) = sum_m L(x_m, (D x)_m / eps),
    L = sum_j [v_j J1 v_j / 2 + x_j J2 x_j / 2 + x_j J5 v_j + J6 v_j + J7 x_j]
        + sum_{j != k} [v_j J3 v_k + x_j J4 x_k],

with D the (M+1) x (M+1) banded matrix D[i, i+j] = gamma_j wherever 0 <= i+j <= M (the
window's truncation at the ends).  Its Hessian H and linear term b are assembled here as
sparse Kronecker products from the weights and the spec alone, so that the residuals are
-(H x + b) with no window table, symbol or equation block of the package.

`cel_residual` is the continuous residual as it was written before it came from the
equation blocks: A_n/C_n formulas for one time, with their terms, to bound rounding.

`window_map` is the residual map as it was built from integer window tables (chi_j at
node m of a grid with last node M is 1 when max(0, j) <= m <= M + min(0, j)), to hold
the map built from D to those outputs.

`symbol_s`, `symbol_s_bar`, `symbol_theta` and `symbol_sigma1` are an operator's interior
symbols at one lam, each as its explicit sum over the weights.

`root_set` is the RootSet of given roots with zero residuals, and `polynomial` the
Polynomial with given roots.
`hausdorff_distance` is the max-min distance between two finite sets as a double loop,
independent of the sweep's masked expression.  `is_periodic_cel` and `is_periodic_del`
classify the union of a system's nu = n and nu = 0 phases with `periodic.commensurability`.
`transform_affine` rewrites a spec in the variables A x + b, a change of variables that
its trajectories must follow.
"""
import numpy as np
import numpy.polynomial.polynomial as npoly
import scipy.sparse as sp

from choreoqep import pencil, periodic
from choreoqep.model import LagrangianSpec
from choreoqep.numkernel import Polynomial, RootSet


def banded(op, M) -> sp.csr_matrix:
    """D on nodes 0..M: D[i, i+j] = gamma_j where 0 <= i+j <= M."""
    js = [j for j in range(-op.N, op.N + 1) if abs(j) <= M]
    return sp.diags([np.full(M + 1 - abs(j), op.gamma[j + op.N]) for j in js], js,
                    shape=(M + 1, M + 1), format="csr")


def action(spec, op, n, M) -> tuple:
    """(H, b) of the discrete action on n particles over nodes 0..M, unknowns ordered
    (particle, node, component): grad S(x) = H x + b."""
    nodes, parts, dim = sp.identity(M + 1), sp.identity(n), sp.identity(spec.d)
    others = sp.csr_matrix(np.ones((n, n))) - parts  # the ordered pairs j != k
    P = sp.kron(parts, sp.kron(banded(op, M) / op.epsilon, dim))  # x -> v
    def pairs(own, other):  # own on each particle's block, 2 other on each pair j != k
        return sp.kron(parts, sp.kron(nodes, own)) + sp.kron(others, sp.kron(nodes, 2.0 * other))

    kinetic, potential = pairs(spec.J1, spec.J3), pairs(spec.J2, spec.J4)
    gyro = sp.kron(parts, sp.kron(nodes, spec.J5)) @ P  # x J5 v, a bilinear form
    H = P.T @ kinetic @ P + potential + gyro + gyro.T
    ones = np.ones(n * (M + 1))
    b = P.T @ np.kron(ones, spec.J6) + np.kron(ones, spec.J7)
    return H.tocsr(), b


def action_gradient(spec, op, n, vals) -> np.ndarray:
    """H x + b at the particle values vals (n, M+1, d), shaped like vals."""
    H, b = action(spec, op, n, vals.shape[1] - 1)
    return (H @ vals.ravel() + b).reshape(vals.shape)


def window_map(spec, op, n) -> tuple:
    """(W_xs, W_p, forcing, n forcing) of `delsolve._residual_map` from chi-weighted
    window tables."""
    N, R, eps, d = op.N, 2 * op.N, op.epsilon, spec.d
    span, ks = range(R + 1), np.arange(-R, R + 1)
    # win[a, b, j + R] = chi_j at node a of a grid with last node a + b
    win = np.array([[[int(max(0, j) <= a <= a + b + min(0, j)) for j in ks] for b in span]
                    for a in span], dtype=float)
    wide = np.zeros(4 * R + 1, dtype=complex)  # gamma_j at j + 2R, zero for |j| > N
    wide[3 * N:5 * N + 1] = op.gamma
    gam = wide[R:3 * R + 1]
    pair = wide[ks[:, None] + ks + 2 * R] * gam  # [k + R, l + R]: gamma_{k+l} gamma_l
    mirrored = win[..., ::-1]  # chi_{-k}: node m + k lies on the grid
    stencil = np.zeros((R + 1, R + 1, 3, 2 * R + 1), dtype=complex)
    stencil[:, :, 0] = mirrored * (win @ pair.T) / eps**2
    stencil[:, :, 1] = mirrored * (gam - gam[::-1]) / eps
    stencil[:, :, 2, R] = 1.0
    box1 = win @ gam / eps  # the adjoint on 1
    xs_block, source_block, particle_block = pencil.equation_blocks(spec, n)
    forcing = box1[..., None] * spec.J6 + spec.J7
    return tuple(np.einsum("abrj,rck->abjck", stencil, -block.reshape(3, d, -1),
                           order="C").reshape(R + 1, R + 1, (2 * R + 1) * d, -1)
                 for block in (np.hstack([xs_block, source_block]), particle_block)) + (
        forcing, n * forcing)


def cel_residual(spec, n, sol, t) -> tuple:
    """((r_xs, r_particles), (size_xs, size_particles)) at one time t from the explicit
    equations A_n x_s'' - 2 J5 x_s' - C_n x_s = n J7 and A_0 x_j'' - 2 J5 x_j' - C_0 x_j =
    -2 J3 x_s'' + 2 J4 x_s + J7; the sizes sum the moduli of each equation's terms."""
    a_n, c_n = pencil.coefficient_matrices(spec, n)
    a_0, c_0 = pencil.coefficient_matrices(spec, 0)

    def jet(e):
        return e.derivative(t, 2), e.derivative(t, 1), e.value(t)

    def terms(a, c, x):  # the terms of A x'' - 2 J5 x' - C x
        return [a @ x[0], -2.0 * spec.J5 @ x[1], -c @ x[2]]

    xs = jet(sol.xs)
    own = terms(a_n, c_n, xs) + [-n * spec.J7]
    source = [2.0 * spec.J3 @ xs[0], -2.0 * spec.J4 @ xs[2], -spec.J7]
    particles = [terms(a_0, c_0, jet(p)) + source for p in sol.particles]
    return ((sum(own), np.array([sum(r) for r in particles])),
            (sum(map(np.abs, own)), np.array([sum(map(np.abs, r)) for r in particles])))


def symbol_s(op, lam: complex) -> complex:
    """Interior symbol of the forward operator: (1/eps) sum gamma_j e^{j lam eps}."""
    js = np.arange(-op.N, op.N + 1)
    return complex(np.sum(op.gamma * np.exp(js * lam * op.epsilon)) / op.epsilon)


def symbol_s_bar(op, lam: complex) -> complex:
    """Interior symbol of the adjoint operator: (1/eps) sum gamma_j e^{-j lam eps}."""
    return symbol_s(op, -lam)


def symbol_theta(op, lam: complex) -> complex:
    """Interior symbol of adjoint∘forward, as the explicit double sum.

    Identically equal to symbol_s(lam) * symbol_s_bar(lam); tends to -lam^2
    as eps → 0 for operators passing check_operator_conditions.
    """
    ks = np.arange(-2 * op.N, 2 * op.N + 1)
    return complex(np.sum(op.theta * np.exp(ks * lam * op.epsilon)) / op.epsilon**2)


def symbol_sigma1(op, lam: complex) -> complex:
    """Interior symbol of (forward − adjoint); tends to 2 lam as eps → 0."""
    ks = np.arange(-op.N, op.N + 1)
    return complex(np.sum(op.sigma1 * np.exp(ks * lam * op.epsilon)) / op.epsilon)


class EmptySet(Exception):
    """Raised when a Hausdorff distance is requested from an empty set."""


def root_set(roots) -> RootSet:
    """The roots (any shape) as a complex RootSet with zero residuals."""
    roots = np.asarray(roots, dtype=complex).ravel()
    return RootSet(roots, np.zeros(len(roots)))


def polynomial(roots, leading: complex = 1.0) -> Polynomial:
    """leading * prod (z - r) over the roots, expanded into coefficients."""
    return Polynomial(leading * npoly.polyfromroots(np.asarray(roots, dtype=complex)))


def hausdorff_distance(f1, f2) -> float:
    """max(max_a min_b |a - b|, max_b min_a |a - b|) over two finite nonempty complex sets
    (arrays or RootSets), from the table of |a - b| filled one element of a at a time; nan
    when an entry is nan.  The moduli are numpy's, as the sweep's are: Python's complex
    abs rounds some of them differently."""
    a, b = (np.asarray(getattr(f, "roots", f), dtype=complex).ravel() for f in (f1, f2))
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("hausdorff_distance requires nonempty sets")
    table = np.abs([x - b for x in a])
    return float(max(table.min(axis=1).max(), table.min(axis=0).max()))


def _is_periodic(spec, op, n: int):
    lam_n, lam_0 = (pencil.spectra(spec, [op], nu).modes(0).lam for nu in (n, 0))
    return periodic.commensurability(np.concatenate([lam_n.roots, lam_0.roots]))


def is_periodic_cel(spec, n):
    """Commensurability of the union of the nu=n and nu=0 classical spectra."""
    return _is_periodic(spec, None, n)


def is_periodic_del(spec, op, n):
    """Commensurability of the union of the discrete nu=n and nu=0 spectra."""
    return _is_periodic(spec, op, n)


class SingularTransform(Exception):
    """Raised when an affine change of variables is numerically singular."""


def transform_affine(spec, A, b) -> LagrangianSpec:
    """Coefficients of the system expressed in hatted variables x_hat = A x + b.

    Quadratic blocks transform by congruence with A^{-1}; the linear terms pick up the
    contributions of the shift b (additive constants dropped).  Trajectories of the result
    are A x(t) + b for trajectories x(t) of spec.
    """
    A = np.array(A, dtype=float).reshape(spec.d, spec.d)
    b = np.array(b, dtype=float).reshape(spec.d)
    if np.linalg.cond(A) >= 1e12:
        raise SingularTransform("transform matrix condition number >= 1e12")
    ainv = np.linalg.inv(A)
    j1, j2, j3, j4, j5 = (ainv.T @ getattr(spec, k) @ ainv for k in ("J1", "J2", "J3", "J4", "J5"))
    j6 = ainv.T @ spec.J6 - j5.T @ b
    j7 = ainv.T @ spec.J7 - j2 @ b - 2.0 * (spec.n - 1) * (j4 @ b)
    return LagrangianSpec(spec.d, spec.n, j1, j2, j3, j4, j5, j6, j7)
