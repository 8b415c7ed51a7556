import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from choreoqep import model, numkernel
from choreoqep.numkernel import (Polynomial, Singular, det_as_polynomial,
                                 kernel_vector, polynomial_roots, solve_square)

import reference
from conftest import J1, J2, J3


def cofactor_det(m):
    """Independent determinant oracle: direct cofactor expansion."""
    m = np.asarray(m, dtype=complex)
    if m.shape == (1, 1):
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(m.shape[1]):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


class TestPolynomial:
    def test_normalization_trims_leading_zeros(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert np.allclose(p.coeffs, [1.0, 2.0])

    def test_zero_polynomial_is_empty(self):
        assert Polynomial([0.0, 0.0]).degree == -1

    def test_from_roots_round_trip(self):
        roots = np.array([1.0, -2.0, 3j])
        p = reference.polynomial(roots, leading=2.0)
        assert np.allclose(p(roots), 0.0, atol=1e-12)


class TestPolynomialRoots:
    def test_factored_quadratic(self):
        # lam^2 + omega^2 with omega = 3
        rs = polynomial_roots(Polynomial([9.0, 0.0, 1.0]))
        assert np.allclose(sorted(rs.roots, key=lambda z: z.imag), [-3j, 3j])

    def test_biquadratic_target_roots(self):
        # (lam^2+16)(lam^2+100) = lam^4 + 116 lam^2 + 1600
        rs = polynomial_roots(Polynomial([1600.0, 0.0, 116.0, 0.0, 1.0]))
        expected = np.array([-10j, -4j, 4j, 10j])
        assert np.allclose(rs.roots, expected, atol=1e-9)

    def test_random_degree_six_factored(self):
        rng = np.random.default_rng(7)
        roots = rng.uniform(0.3, 3.0, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
        p = reference.polynomial(roots, leading=1.7 - 0.4j)
        rs = polynomial_roots(p)
        found = np.array(sorted(rs.roots, key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(roots, key=lambda z: (z.real, z.imag)))
        assert np.abs(found - want).max() <= 1e-9 * np.abs(want).max()

    def test_constant_raises(self):
        with pytest.raises(ValueError, match="^polynomial_roots requires degree >= 1$"):
            polynomial_roots(Polynomial([3.0]))

    def test_residuals_below_tolerance_and_sorted(self):
        rs = polynomial_roots(Polynomial([1600.0, 0.0, 116.0, 0.0, 1.0]))
        assert (rs.residuals <= 1e-8).all()
        # (z^2 + 16)(z^2 + 100), sorted by imaginary part: nearest roots 6 apart
        assert np.allclose(rs.roots, [-10j, -4j, 4j, 10j], rtol=0, atol=1e-8 * 6.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 6.283)),
                    min_size=1, max_size=12))
    def test_round_trip_reexpansion(self, polar):
        # roots in the annulus 0.1 <= |z| <= 10: re-expanding the computed
        # roots must reproduce the input coefficients to 1e-8 relative
        # (simple-root regime: clustered draws are skipped)
        from hypothesis import assume
        roots = np.array([r * np.exp(1j * a) for r, a in polar])
        sep = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(sep, np.inf)
        assume(sep.min() > 0.05)
        p = reference.polynomial(roots)
        rs = polynomial_roots(p)
        q = reference.polynomial(rs.roots)
        scale = np.abs(p.coeffs).max()
        assert np.abs(q.coeffs - p.coeffs).max() <= 1e-8 * scale


class TestDetAsPolynomial:
    def test_scaled_identity(self):
        p = det_as_polynomial(lambda z: z * np.eye(2), 2)
        assert np.allclose(p.coeffs, [0.0, 0.0, 1.0], atol=1e-13)

    def test_scalar_oscillator_pencil(self):
        omega = 3.0
        p = det_as_polynomial(lambda z: np.array([[z**2 + omega**2]]), 2)
        assert np.allclose(p.coeffs, [9.0, 0.0, 1.0], atol=1e-12)

    def test_constructed_system_roots(self):
        j4 = model.construct_j4(J1, J2, J3, 2.0, 5.0, 25.0)
        S = J1 - 2 * J3
        C = J2 - 2 * j4

        def eval_pencil(z):
            return S * z**2 - C

        p = det_as_polynomial(eval_pencil, 4)
        rs = polynomial_roots(p)
        # oracle: the pencil factors through K, so roots are ±i sqrt(eig K)
        K = np.linalg.solve(S, -C)
        eig = np.linalg.eigvals(K)
        want = np.concatenate([1j * np.emath.sqrt(eig), -1j * np.emath.sqrt(eig)])
        found = sorted(rs.roots, key=lambda z: z.imag)
        assert np.abs(found - np.array(sorted(want, key=lambda z: z.imag))).max() < 1e-8

    def test_matches_cofactor_expansion(self):
        rng = np.random.default_rng(11)
        c0, c1, c2 = rng.standard_normal((3, 3, 3))

        def eval_fn(z):
            return c0 + c1 * z + c2 * z**2

        p = det_as_polynomial(eval_fn, 6)
        for z in rng.standard_normal(20) + 1j * rng.standard_normal(20):
            want = cofactor_det(eval_fn(z))
            assert abs(p(z) - want) <= 1e-10 * max(1.0, abs(want))

    def test_degree_bound_too_small(self):
        with pytest.raises(numkernel.NumericalFailure,
                           match="^held-out determinant sample off by "):
            det_as_polynomial(lambda z: np.array([[z**4 + 1.0]]), 2)


class TestKernelVector:
    def test_diagonal(self):
        v = kernel_vector(np.diag([0.0, 5.0]))
        assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12
        assert v[0].real > 0 and abs(v[0].imag) < 1e-12  # deterministic phase

    def test_constructed_pencil_kernel(self):
        j4 = model.construct_j4(J1, J2, J3, 2.0, 5.0, 25.0)
        S = J1 - 2 * J3
        m = S * (2j) ** 2 - (J2 - 2 * j4)
        v = kernel_vector(m)
        assert np.linalg.norm(m @ v) <= 1e-10 * np.linalg.norm(m)
        # oracle: eigenvector of K for eigenvalue 4
        K = np.linalg.solve(S, -(J2 - 2 * j4))
        w, vecs = np.linalg.eig(K)
        ref = vecs[:, np.argmin(np.abs(w - 4.0))]
        align = ref * (v[np.argmax(np.abs(v))] / ref[np.argmax(np.abs(v))])
        assert np.abs(np.abs(align) - np.abs(v)).max() < 1e-8

    def test_identity_not_rank_deficient(self):
        with pytest.raises(numkernel.NumericalFailure,
                           match="^smallest singular value .* exceeds "):
            kernel_vector(np.eye(3))

    def test_two_dimensional_kernel_rejected(self):
        with pytest.raises(numkernel.NumericalFailure, match="kernel is not simple$"):
            kernel_vector(np.zeros((2, 2)))

    def test_unit_norm_and_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            m = a - np.outer(a @ u, u.conj()) / (u.conj() @ u)  # force u in kernel
            v = kernel_vector(m, rank_tol=1e-8)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.linalg.norm(m @ v) <= 1e-8 * np.linalg.norm(m, 2)


class TestSolveSquare:
    def test_identity(self):
        assert np.allclose(solve_square(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])
        assert numkernel.cond(np.eye(3)) == pytest.approx(1.0)

    def test_cosine_boundary_system(self):
        # x(t) = c+ e^{it} + c- e^{-it} with x(0) = 1, x(pi/2) = 0:
        # hand-solving the 2x2 system gives (1/2, 1/2)
        mat = np.array([[1.0, 1.0],
                        [np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)]])
        assert np.allclose(solve_square(mat, [1.0, 0.0]), [0.5, 0.5], atol=1e-14)

    def test_zero_matrix_singular(self):
        with pytest.raises(Singular, match="^zero matrix$"):
            solve_square(np.zeros((2, 2)), [1.0, 0.0])

    def test_the_pivot_message_reads_as_formatted(self):
        # made from (pivot, threshold, scale), the text is formatted when read
        with pytest.raises(Singular) as info:
            solve_square([[1.0, 2.0], [0.5, 1.0]], [1.0, 0.0])
        assert str(info.value) == "pivot 0.000e+00 below 1e-14 x scale 2.000e+00"


def backward_error(a, x, b):
    """Normwise backward error ||a x - b|| / (||a|| ||x|| + ||b||) of one item, in
    infinity norms, with a and b first divided by max|a| so that nothing overflows."""
    s = np.abs(a).max()
    a, b = a / s, b / s
    r, a_, x_, b_ = (np.linalg.norm(m, np.inf) for m in (a @ x - b, a, x, b))
    return r / (a_ * x_ + b_)


class TestStackedElimination:
    """`solve_stack`'s pivots and Singular test against scipy's LAPACK LU, item by item."""

    @staticmethod
    def stack(rng, K):
        """Two random complex items, a zero matrix, one whose first column ties every
        |Re| + |Im| (rows 1 and 2 tie, with moduli sqrt(2) and 2) and, for K >= 2,
        rank-deficient ones: a zero row, a zero column and a product of rank K - 1.
        Their smallest pivots are exactly 0, or rounding of ~1e-16 x scale at K <= 8
        that grows to ~1e-13 x scale at K = 64..256, under the threshold that grows
        with K."""
        def random():
            return rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        tied = random()
        tied[:, 0] = rng.choice([1 + 1j, -1 + 1j, 2, -2, 2j, -2j], K)
        tied[:3, 0] = [0.5, 1 + 1j, 2][:K]
        items = [random(), random(), np.zeros((K, K), dtype=complex), tied]
        if K >= 2:
            zero_row, zero_column = random(), random()
            zero_row[K // 2] = 0
            zero_column[:, K // 2] = 0
            items += [zero_row, zero_column,
                      rng.standard_normal((K, K - 1)) @ random()[:K - 1]]
        return np.stack(items)

    @pytest.mark.parametrize("K", [1, 2, 8, 64, 256])
    def test_pivots_and_singular_items_match_lapack(self, K):
        """The regular items (0, 1, 3) have LAPACK's pivots to 1e-12 relative.  The
        rank-deficient ones are judged by what floating point determines: they are
        Singular, and their pivots before the trailing 2 x 2 block, where the elimination
        meets the rank deficiency, match LAPACK's where those are above 1e-12 x scale.
        Inside that block both are rounding noise: at K = 256 with one BLAS thread the
        rank-(K-1) product's last LAPACK pivot is 1.4e-12 x scale and differs from ours
        by 85%, the one before by 3.8e-12 relative."""
        rng = np.random.default_rng(K)
        stack = self.stack(rng, K)
        rhs = rng.standard_normal((len(stack), K, 2)) + 0j
        scale = np.abs(stack).max(axis=(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lu_factor warns on an exactly singular item
            factors = [scipy.linalg.lu_factor(a) for a in stack]
        lapack = np.array([np.abs(np.diag(lu)) for lu, _ in factors])
        got, _ = numkernel._lu_solve(stack, rhs)
        regular = [0, 1, 3]
        assert np.all(np.abs(got - lapack)[regular] <= 1e-12 * lapack[regular])
        lead, want = got[4:, :K - 2], lapack[4:, :K - 2]
        big = want > 1e-12 * scale[4:, None]
        assert np.all(np.abs(lead - want)[big] <= 1e-12 * want[big])
        x, failures = numkernel.solve_stack(stack, rhs)
        singular = [False, False, True, False] + [True] * (len(stack) - 4)
        assert [isinstance(f, Singular) for f in failures] == singular
        for i in regular:
            want = scipy.linalg.lu_solve(factors[i], rhs[i])
            assert np.linalg.norm(x[i] - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("K", [2, 8, 64, 128, 256])
    def test_rank_deficient_products_are_singular(self, K):
        """20 exactly rank-deficient complex products, K x (K-1) times (K-1) x K: their
        smallest pivots round to up to ~2e-13 x scale at K = 64..256, which a fixed
        1e-14 x scale threshold would pass as regular."""
        rng = np.random.default_rng(K)

        def random(*shape):
            return rng.standard_normal((20, *shape)) + 1j * rng.standard_normal((20, *shape))

        stack = random(K, K - 1) @ random(K - 1, K)
        x, failures = numkernel.solve_stack(stack, random(K, 1))
        assert all(isinstance(f, Singular) for f in failures) and not x.any()

    def test_no_solve_computes_a_condition_number(self, monkeypatch):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        rhs = rng.standard_normal((3, 4)) + 0j
        cond, seen = np.linalg.cond, []
        monkeypatch.setattr(np.linalg, "cond", lambda a: seen.append(a.shape) or cond(a))
        x, failures = numkernel.solve_stack(stack, rhs)
        assert failures == [None] * 3 and seen == []
        assert np.array_equal(solve_square(stack[1], rhs[1]), x[1]) and seen == []

    def test_x_comes_from_the_elimination_alone(self, monkeypatch):
        """With LAPACK's solve patched to raise, stacked and lone solves still solve: x
        comes from the factors that decided Singular, not from a second factorization."""
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        rhs = rng.standard_normal((3, 4, 2)) + 0j

        def failing(a, b):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", failing)
        x, failures = numkernel.solve_stack(stack, rhs)
        assert failures == [None] * 3
        for i in range(3):
            assert backward_error(stack[i], x[i], rhs[i]) <= 1e-15
            assert np.array_equal(solve_square(stack[i], rhs[i]), x[i])

    def test_a_non_finite_solution_is_a_numerical_failure(self):
        stack = np.array([[[1e-200]], [[2.0]], [[1e-200]]], dtype=complex)
        x, failures = numkernel.solve_stack(stack, np.array([[1e200], [1.0], [1.0]]))
        assert type(failures[0]) is numkernel.NumericalFailure
        assert str(failures[0]) == "non-finite solution"
        assert failures[1:] == [None, None]
        assert x.tolist() == [[0], [0.5], [1e200]]
        with pytest.raises(numkernel.NumericalFailure, match="^non-finite solution$"):
            solve_square([[1e-200]], [1e200])

    def test_an_underflowing_solution_is_a_numerical_failure(self):
        """x zero or subnormal in every entry, with b not zero, has backward error 1;
        b = 0 still gives x = 0, and one normal entry keeps the item ok."""
        big = np.diag([1e300, 1e300]).astype(complex)
        stack = np.stack([big, big, big, np.eye(2, dtype=complex)])
        rhs = np.array([[1e-300, 1e-10], [0, 0], [1e-300, 1e-7], [1e-300, 0]])
        x, failures = numkernel.solve_stack(stack, rhs)
        assert type(failures[0]) is numkernel.NumericalFailure
        assert str(failures[0]) == "solution underflows" and not x[0].any()
        assert failures[1:] == [None] * 3
        assert x[1:].tolist() == [[0, 0], [0, 1e-7 / 1e300], [1e-300, 0]]
        for b in ([1e-300], [-1e-300j]):
            with pytest.raises(numkernel.NumericalFailure, match="^solution underflows$"):
                solve_square([[1e300]], b)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_a_non_finite_item_fails_before_the_elimination(self, monkeypatch, entry, where):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        rhs = rng.standard_normal((3, 4)) + 0j
        (stack if where == "matrix" else rhs)[1, 2] = entry
        seen = []
        lu_solve = numkernel._lu_solve
        monkeypatch.setattr(numkernel, "_lu_solve", lambda a, b: seen.append(a) or lu_solve(a, b))
        x, failures = numkernel.solve_stack(stack, rhs)
        assert [len(a) for a in seen] == [2] and np.isfinite(seen[0]).all()
        assert str(failures[1]) == "non-finite entries"
        assert type(failures[1]) is numkernel.NumericalFailure
        assert failures[0] is None and failures[2] is None
        assert not x[1].any()
        with pytest.raises(numkernel.NumericalFailure, match="non-finite entries"):
            solve_square(stack[1], rhs[1])


@st.composite
def planted_stacks(draw):
    """A stack (B, K, K) with right-hand sides (B, K, m), K in 1..16 and m in 1..3, whose
    items are random, zero, rank-deficient products, carry a non-finite entry, or are
    random items with the matrix scaled by 1e+-150 or 1e+-300 and the right-hand side by
    1e-300, 1 or 1e300, so that the elimination or x may overflow, or x underflow (the
    right-hand side over 1e150 times smaller than the matrix), which is a
    NumericalFailure: rounded to 0, x has backward error 1."""
    K, m, B = draw(st.integers(1, 16)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def random(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    items, rhs = [], random(B * K, m).reshape(B, K, m)
    for i, kind in enumerate(draw(st.lists(st.sampled_from(
            ["random", "zero", "product", "non-finite", "scaled"]), min_size=B, max_size=B))):
        a = random(K, K)
        if kind == "zero":
            a[:] = 0
        elif kind == "product" and K >= 2:
            a = random(K, K - 1) @ random(K - 1, K)
        elif kind == "non-finite":
            (a if i % 2 else rhs[i])[rng.integers(K), 0] = [np.nan, np.inf][i % 3 == 0]
        elif kind == "scaled":
            scale = draw(st.sampled_from([-300, -150, 150, 300]))
            a *= 10.0 ** scale
            rhs[i] *= 10.0 ** draw(st.sampled_from([-300, 0, 300]))
        items.append(a)
    return np.stack(items), rhs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(planted_stacks())
def test_each_stacked_item_solves_or_fails_as_its_lone_solve(planted):
    """Every item either has a finite x of backward error <= 1e-12 or a Singular /
    NumericalFailure, and each is bitwise what its batch-of-one `solve_square` gives."""
    stack, rhs = planted
    x, failures = numkernel.solve_stack(stack, rhs)
    for i, failure in enumerate(failures):
        try:
            want = solve_square(stack[i], rhs[i])
        except (Singular, numkernel.NumericalFailure) as exc:
            assert type(failure) is type(exc) and str(failure) == str(exc)
            assert not x[i].any()
            continue
        assert failure is None and np.isfinite(x[i]).all()
        assert backward_error(stack[i], x[i], rhs[i]) <= 1e-12
        assert x[i].tobytes() == want.tobytes()


def pair_table_simple(roots, rel_tol):
    """The brute-force oracle of `numkernel.simple_rows`: per row, the K x K table of
    close_pairs of the row with itself is set on the diagonal only."""
    eye = np.eye(roots.shape[1], dtype=bool)
    with np.errstate(invalid="ignore"):  # a non-finite root fails its own entry
        return (numkernel.close_pairs(roots, roots, rel_tol) == eye).all(axis=(1, 2))


class TestSimpleRows:
    """The sort-and-sweep separation predicate against the brute-force pair table."""

    @staticmethod
    def planted(rng, B, K):
        """Random roots with a near-duplicate (1e-9 * max(1, |root|) apart) planted in a
        third of the rows and a pair just outside the tolerance (1e-6 * max(1, |root|))
        in another third."""
        roots = rng.standard_normal((B, K)) + 1j * rng.standard_normal((B, K))
        roots *= 10.0 ** rng.uniform(-1, 2, (B, 1))
        for b in range(B):
            i, j = rng.choice(K, 2, replace=False)
            if b % 3 < 2:
                roots[b, i] = roots[b, j] + (1e-9, 1e-6)[b % 3] * max(1.0, abs(roots[b, j]))
        return roots

    @pytest.mark.parametrize("B, K", [(3, 256), (2000, 8), (50, 100), (4, 300), (1, 2)])
    def test_matches_the_unchunked_count(self, B, K):
        roots = self.planted(np.random.default_rng(B * K), B, K)
        want = pair_table_simple(roots, 1e-7)
        got = numkernel.simple_rows(roots, 1e-7)
        assert got.dtype == bool and np.array_equal(got, want)
        assert not want[::3].any() and want[1::3].all()

    @staticmethod
    def edge_rows(rng, kind, B, K):
        """Rows on the unit circle, on the imaginary axis (where a projection on the real
        axis would see every root at once) or spread as in `planted`; row b holds, by
        b % 5, an exact duplicate, a pair 1e-7 (1 - 1e-9) or 1e-7 (1 + 1e-9) x max(1,
        |root|) apart in a random direction, a NaN or inf root, or nothing planted."""
        if kind == "circle":
            roots = np.exp(2j * np.pi * rng.uniform(size=(B, K)))
        elif kind == "axis":
            roots = 1j * rng.standard_normal((B, K)) * 10.0 ** rng.uniform(-1, 2, (B, 1))
        else:
            roots = TestSimpleRows.planted(rng, B, K)
        for b in range(B):
            i, j = rng.choice(K, 2, replace=False)
            # the larger modulus of the pair scales the tolerance: one step makes the gap
            # 1e-7 x that to O(1e-14) relative
            gap = 1e-7 * max(1.0, abs(roots[b, j])) * np.exp(2j * np.pi * rng.uniform())
            gap *= max(1.0, abs(roots[b, j]), abs(roots[b, j] + gap)) / max(1.0, abs(roots[b, j]))
            if b % 5 == 0:
                roots[b, i] = roots[b, j]
            elif b % 5 < 3:
                roots[b, i] = roots[b, j] + gap * (1 - 1e-9, 1 + 1e-9)[b % 5 - 1]
            elif b % 5 == 3:
                roots[b, i] = rng.choice([np.nan, np.inf, complex(-np.inf, 1.0),
                                          complex(0.0, np.nan)])
        return roots

    @pytest.mark.parametrize("kind", ["circle", "axis", "spread"])
    @pytest.mark.parametrize("B, K", [(1681, 8), (12, 256), (3, 512)])
    def test_matches_the_pair_table_on_edge_rows(self, kind, B, K):
        roots = self.edge_rows(np.random.default_rng(K), kind, B, K)
        want = pair_table_simple(roots, 1e-7)
        assert np.array_equal(numkernel.simple_rows(roots, 1e-7), want)
        assert not want[::5].any() and not want[3::5].any()
        if kind != "spread":  # no pairs but the planted ones
            assert not want[1::5].any() and want[2::5].all() and want[4::5].all()
        for tol in (1e-300, 0.3, 0.0):  # the window at a vanishing and a wide tolerance
            assert np.array_equal(numkernel.simple_rows(roots, tol),
                                  pair_table_simple(roots, tol))

    def test_rounding_of_the_projection_stays_inside_the_window(self):
        """Below machine epsilon the tolerance can be narrower than the projection's
        rounding: pairs 5e-17 apart in Im beside Re in [1, 2) are close at 5e-17, and
        in about one row of seven their projections round a unit in the last place
        (2.2e-16) apart, outside 2 x 5e-17 x max(1, |root|)."""
        rng = np.random.default_rng(9)
        roots = rng.uniform(1, 2, (400, 2)) + 1j * rng.uniform(-1e-5, 1e-5, (400, 2))
        roots[:, 1] = roots[:, 0] + 5e-17j
        p = 0.8 * roots.real + 0.6 * roots.imag
        assert (p[:, 0] != p[:, 1]).sum() >= 20
        want = pair_table_simple(roots, 5e-17)
        assert not want.any() and np.array_equal(numkernel.simple_rows(roots, 5e-17), want)

    def test_no_temporary_exceeds_the_rows(self):
        """The sweep forms (B, K) temporaries, never a (B, K, K) pair table: its traced
        peak is ~74 bytes a root (the table's is 6,144 at K = 256)."""
        rng = np.random.default_rng(3)
        for B, K in [(1681, 8), (12, 256), (3, 512)]:
            roots = self.planted(rng, B, K)
            tracemalloc.start()
            try:
                numkernel.simple_rows(roots, 1e-7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 128 * B * K + 2**14
