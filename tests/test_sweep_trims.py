"""The eps-sweep computes only what it writes, and keeps every bit of it.

Each shortcut of the sweep path is held here to the code it replaced, bit for bit:
the masked Hausdorff expression of a spectra batch to one distance a delay,
the quarter pencil-error grid to the half it mirrors, `_Delays.of`'s one expression to
each operator's own `shift`, and a sweep reads no kernel vectors at all.  The
preimage routes take ||Q(w) v|| as ||R a(w)|| from the R of each target's products; that
form is held to the products of every root's vector, the form it replaced, within
rounding, with the same verdicts and the same written roots.
"""
import json
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from choreoqep import cli, convergence, pencil
from choreoqep.convergence import _hausdorff_rows, _pencil_errors
from choreoqep.scaleop import ScaleOperator, central_difference, k_family

from conftest import make_gyroscopic_spec, make_reference_spec, make_spread_spec
from reference import hausdorff_distance

EPSILONS = np.logspace(-4, math.log10(0.2), 12)


def five_point(eps):
    return ScaleOperator(np.array([1, -8, 0, 8, -1]) / 12.0, eps)


def loop_hausdorff(a, keep, b):
    """One distance a row, as the sweep took them before: nan where a row keeps none."""
    out = []
    for row, k in zip(a, keep):
        if not k.any():
            out.append(math.nan)
            continue
        d = np.abs(row[k][:, None] - b[None, :])
        out.append(max(d.min(axis=1).max(), d.min(axis=0).max()))
    return np.array(out)


def test_batched_hausdorff_is_the_loop_of_lone_distances():
    """Rows of up to 256 roots against sets of up to 64, with empty windows, rows of nan
    (a failed spectrum: outside every window) and rows that keep a nan."""
    rng = np.random.default_rng(37)
    shapes = set()
    for trial in range(400):
        B, K, m = rng.integers(1, 13), rng.choice([1, 3, 17, 64, 256]), rng.integers(1, 65)
        a = (rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))) * 3
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        a[rng.random(B) < 0.2] = np.nan + 0j
        keep = np.abs(a) <= rng.uniform(0.5, 6.0)
        keep[rng.random(B) < 0.15] = False  # an empty window
        if trial % 10 == 0:
            keep[0], a[0, 0] = True, np.nan  # a kept nan reads nan
        got = _hausdorff_rows(a, keep, b)
        assert np.array_equal(got, loop_hausdorff(a, keep, b), equal_nan=True)
        for row, k, h in zip(a, keep, got):
            if k.any():
                assert np.array_equal(h, hausdorff_distance(row[k], b), equal_nan=True)
        shapes.add(K)
    assert 256 in shapes


@pytest.mark.parametrize("points", [5, 20, 21])
def test_the_quarter_grid_is_the_half_grid_bit_for_bit(points):
    """Real weights: S at -conj(lam) is S at lam conjugated and swapped, so evaluating the
    quarter Re lam, Im lam >= 0 and mirroring it gives every bit of the half Im lam >= 0,
    on 800 random batches (N = 1..3, up to 12 delays in [1e-4, 1], moment series and expm1
    terms both).  Complex weights take the whole grid."""
    rng = np.random.default_rng(points)
    forms = set()
    for trial in range(800 if points == 21 else 100):
        N, B = rng.integers(1, 4), rng.integers(1, 13)
        imag = 1j * (trial % 8 == 7)
        ops = [ScaleOperator(rng.standard_normal(2 * N + 1)
                             + imag * rng.standard_normal(2 * N + 1), 10 ** rng.uniform(-4, 0))
               for _ in range(B)]
        axis = convergence.symmetric_axis(10 ** rng.uniform(-1, 1.5), points)
        lam = axis[:, None] + 1j * axis[None, :]
        a = rng.standard_normal((2, 2))
        want = _pencil_errors(ops, (lam[:, points // 2:] if not imag else lam).ravel(), a @ a.T)
        assert np.array_equal(_pencil_errors(ops, lam, a @ a.T), want)
        forms |= {N * np.abs(axis).max() * math.sqrt(2) * op.epsilon <= 1 for op in ops}
    assert forms == {True, False}


def two_expm1_errors(ops, lam, gram):
    """The pencil errors over a 1-D lam as they were taken when every operator has
    N max|lam| eps > 1: S(x) and S(-x) each from its own expm1 call."""
    N, eps = ops[0].N, np.array([op.epsilon for op in ops])[:, None]
    gamma = np.stack([op.gamma for op in ops])[:, None]
    m_0 = np.array([[complex(math.fsum(op.gamma.real), math.fsum(op.gamma.imag))]
                    for op in ops])
    p, q = [((np.expm1((sign * lam * eps)[..., None] * np.arange(-N, N + 1)) * gamma).sum(
        axis=2) + m_0 - sign * lam * eps) / eps for sign in (1, -1)]
    coeffs = -np.stack([p * (q - lam) + lam * q, p - q], axis=1)
    sq = np.einsum("big,ij,bjg->bg", coeffs.conj(), gram, coeffs).real
    return np.sqrt(np.maximum(sq, 0.0)).max(axis=1)


def test_large_eps_terms_at_minus_x_are_the_reversed_columns_bit_for_bit():
    """expm1(-jx) taken as a contiguous copy of expm1(jx) with its columns reversed keeps
    the bits of its own expm1 call, on 1,600 random sweeps whose every delay takes expm1
    terms (N = 1..3, up to 12 delays, real weights and one in five complex), over the
    21 x 21 grid of a `symmetric_axis` and over random lams."""
    rng = np.random.default_rng(38)
    for trial in range(1600):
        N, B, radius = rng.integers(1, 4), rng.integers(1, 13), 10 ** rng.uniform(-0.5, 1.5)
        imag = 1j * (trial % 5 == 4)
        ops = [ScaleOperator(rng.standard_normal(2 * N + 1)
                             + imag * rng.standard_normal(2 * N + 1),
                             10 ** rng.uniform(0.01, 1) / (N * radius)) for _ in range(B)]
        a = rng.standard_normal((2, 2))
        if trial % 2:
            axis = convergence.symmetric_axis(radius, 21)
            lam = axis[:, None] + 1j * axis[None, :]
            got, lam = _pencil_errors(ops, lam, a @ a.T), (lam if imag else lam[:, 10:]).ravel()
        else:
            lam = radius * np.exp(2j * np.pi * rng.random(rng.integers(1, 40)))
            lam[0] = radius  # N max|lam| eps > 1 for every delay
            got = _pencil_errors(ops, lam, a @ a.T)
        assert np.array_equal(got, two_expm1_errors(ops, lam, a @ a.T)), trial


def test_one_expression_delays_are_each_operators_shift():
    """6,000 random delays in batches of up to 12 (N = 1..3): the stacked expression has
    the bits of each operator's own shift; a batch of one delay broadcasts its operator's."""
    rng = np.random.default_rng(65)
    count = 0
    while count < 6000:
        N, B = rng.integers(1, 4), rng.integers(2, 13)
        ops = [ScaleOperator(np.ones(2 * N + 1), e) for e in 10 ** rng.uniform(-4, 0.5, B)]
        delays = pencil._Delays.of(ops)
        assert np.array_equal(delays.shift, np.stack([op.shift for op in ops]))
        assert np.array_equal(delays.eps2, [op.epsilon ** 2 for op in ops])
        count += B
    shared = [ScaleOperator(np.ones(3), 0.01) for _ in range(4)]
    assert np.array_equal(pencil._Delays.of(shared).shift, np.stack([shared[0].shift] * 4))


@pytest.fixture
def vector_reads(monkeypatch):
    """Count every read of Spectra.vectors."""
    reads, gather = [], pencil.Spectra.vectors.func
    monkeypatch.setattr(pencil.Spectra, "vectors",
                        property(lambda self: reads.append(1) or gather(self)))
    return reads


@pytest.mark.parametrize("family", [central_difference, five_point, lambda e: k_family(e, 0.3),
                                    lambda e: ScaleOperator([-1, 0, 1], e)],
                         ids=["central", "five_point", "k_family", "conditions_fail"])
@pytest.mark.parametrize("spec", [make_reference_spec(), make_gyroscopic_spec()],
                         ids=["reference", "gyroscopic"])
def test_a_sweep_never_gathers_kernel_vectors(vector_reads, spec, family):
    """Every route (preimages under g/eps and g g~/eps^2, the companion) and a family whose
    operators fail their conditions; a lone spectrum reads them, so the count is live."""
    result = convergence.epsilon_sweep(spec, family, 0.0, EPSILONS)
    assert vector_reads == []
    if not np.isfinite(result.distances).any():
        return
    pencil.transcendental_spectrum(spec, family(0.01), 0.0)
    assert vector_reads == [1, 1]  # the lam and the zeta RootSet


def recorded_preimages(monkeypatch):
    """Wrap pencil._preimages; returns the list of (its arguments, its outputs)."""
    calls, original = [], pencil._preimages
    monkeypatch.setattr(pencil, "_preimages",
                        lambda *args: calls.append((args, original(*args))) or calls[-1][1])
    return calls


def product_errors(args, out):
    """The backward errors of `_preimages`' roots in the form the R form replaced:
    ||sum_i base^i unit^{k-i} pencil[i] v|| from the products of every root's vector."""
    gamma, delays, (g, theta), norms, pen, _, _ = args
    w, v, _, _ = out
    k, N = len(pen) - 1, (gamma.shape[1] - 1) // 2
    base, unit = (g / delays.eps[:, None], delays.shift[:, :2 * N + 1, N]) if k == 2 else \
        (-theta / delays.eps2[:, None], delays.shift[:, :, 2 * N])
    with np.errstate(all="ignore"):
        at = [npoly.polyval(w, c.T[:, :, None], tensor=False) for c in (base, unit)]
        q = sum((at[0]**i * at[1]**(k - i))[..., None] * (v @ pen[i].T) for i in range(k + 1))
        den = (np.abs(w[:, None]) ** np.arange(norms.shape[1])[:, None]
               * norms[:, :, None]).sum(axis=1) * np.linalg.norm(v, axis=-1)
    return np.linalg.norm(q, axis=-1) / den


@pytest.mark.parametrize("operator", [central_difference, five_point])
@pytest.mark.parametrize("spec", [make_reference_spec(), make_gyroscopic_spec(),
                                  make_spread_spec(32)],
                         ids=["reference", "gyroscopic", "spread_d32"])
def test_r_form_errors_are_the_product_form(monkeypatch, spec, operator):
    """Both nu = 0 and n, the sweep's 12 delays, and the J5 = 0 route's gamma cells:
    the errors agree to 1e-15 absolute and every item keeps its verdict."""
    cells = [ScaleOperator(np.array([a, -(a + b), b]), 0.005)
             for a, b in np.random.default_rng(3).uniform(-1, 1, (20, 2))]
    calls = recorded_preimages(monkeypatch)
    for nu in (0, spec.n):
        for ops in ([operator(e) for e in EPSILONS], cells):
            pencil.spectra(spec, ops, nu)
    assert len(calls) == (2 if spec.J5.any() else 4)  # J5 != 0: the cells take the companion
    for args, out in calls:
        errors, tol, want = out[2], pencil.BACKWARD_ERROR_TOL, product_errors(args, out)
        assert np.abs(errors - want).max() <= 1e-15
        assert np.array_equal((errors <= tol).all(axis=1), (want <= tol).all(axis=1))


def test_spectrum_del_writes_the_roots_of_the_product_form(monkeypatch, tmp_path):
    """`spectrum --which del` with the errors replaced by the product form's: the same
    root bytes and flags, and residuals that differ by rounding only."""
    spec = make_gyroscopic_spec()
    raw = {"d": spec.d, "n": spec.n,
           **{k: getattr(spec, k).ravel().tolist() for k in ("J1", "J2", "J3", "J4", "J5")},
           "time": {"t0": 0.0, "tf": 1.0, "M": 100},
           "operator": {"N": 2, "gamma_re": (np.array([1, -8, 0, 8, -1]) / 12.0).tolist()}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    tables = []
    for form in ("r", "product"):
        if form == "product":
            original = pencil._preimages

            def product(*args):
                w, v, errors, failures = original(*args)
                return w, v, product_errors(args, (w, v, errors, failures)), failures

            monkeypatch.setattr(pencil, "_preimages", product)
        out = tmp_path / form
        assert cli.main(["spectrum", "--which", "del", "--config",
                         str(tmp_path / "config.json"), "--out", str(out)]) == cli.EXIT_OK
        tables.append([np.array([line.split(",") for line in
                                 (out / f"spectrum_del_{tag}.csv").read_text().split()[1:]])
                       for tag in ("nu0", "nun")])
    for r, product in zip(*tables):
        assert np.array_equal(r[:, [0, 1, 3]], product[:, [0, 1, 3]])
        assert np.abs(r[:, 2].astype(float) - product[:, 2].astype(float)).max() <= 1e-16
