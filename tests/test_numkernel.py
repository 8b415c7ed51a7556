import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from choreoqep import model, numkernel
from choreoqep.numkernel import (DegreeZero, InterpolationInconsistent,
                                 KernelNotOneDimensional, NotRankDeficient,
                                 Polynomial, Singular, det_as_polynomial,
                                 kernel_vector, polynomial_roots, solve_square)

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
        p = Polynomial.from_roots(roots, leading=2.0)
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
        p = Polynomial.from_roots(roots, leading=1.7 - 0.4j)
        rs = polynomial_roots(p)
        found = np.array(sorted(rs.roots, key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(roots, key=lambda z: (z.real, z.imag)))
        assert np.abs(found - want).max() <= 1e-9 * np.abs(want).max()

    def test_constant_raises(self):
        with pytest.raises(DegreeZero):
            polynomial_roots(Polynomial([3.0]))

    def test_residuals_below_tolerance_and_sorted(self):
        rs = polynomial_roots(Polynomial([1600.0, 0.0, 116.0, 0.0, 1.0]))
        assert (rs.residuals <= rs.tol).all()
        assert rs.min_separation == pytest.approx(6.0, rel=1e-8)

    def test_single_root_min_separation_infinite(self):
        rs = polynomial_roots(Polynomial([-2.0, 1.0]))
        assert rs.min_separation == np.inf

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
        p = Polynomial.from_roots(roots)
        rs = polynomial_roots(p)
        q = Polynomial.from_roots(rs.roots)
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
        with pytest.raises(InterpolationInconsistent):
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
        with pytest.raises(NotRankDeficient):
            kernel_vector(np.eye(3))

    def test_two_dimensional_kernel_rejected(self):
        with pytest.raises(KernelNotOneDimensional):
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
        res = solve_square(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(res.x, [1, 2, 3])
        assert res.cond == pytest.approx(1.0)
        assert not res.ill_conditioned

    def test_cosine_boundary_system(self):
        # x(t) = c+ e^{it} + c- e^{-it} with x(0) = 1, x(pi/2) = 0:
        # hand-solving the 2x2 system gives (1/2, 1/2)
        mat = np.array([[1.0, 1.0],
                        [np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)]])
        res = solve_square(mat, [1.0, 0.0])
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-14)

    def test_zero_matrix_singular(self):
        with pytest.raises(Singular, match="^zero matrix$"):
            solve_square(np.zeros((2, 2)), [1.0, 0.0])

    def test_the_pivot_message_reads_as_formatted(self):
        # made from (pivot, scale), the text is formatted when read
        with pytest.raises(Singular) as info:
            solve_square([[1.0, 2.0], [0.5, 1.0]], [1.0, 0.0])
        assert str(info.value) == "pivot 0.000e+00 below 1e-14 x scale 2.000e+00"


class TestStackedElimination:
    """`_solve_stack`'s pivots and Singular test against scipy's LAPACK LU, item by item."""

    @staticmethod
    def stack(rng, K):
        """Two random complex items, a zero matrix, one whose first column ties every
        |Re| + |Im| (rows 1 and 2 tie, with moduli sqrt(2) and 2) and, for K >= 2,
        rank-deficient ones: a zero row, a zero column and, for K <= 8, a product of
        rank K - 1.  Their smallest pivots are exactly 0, or rounding of ~1e-16 x
        scale; a rank-deficient product at K = 64 already rounds to ~3e-14 x scale,
        on either side of the 1e-14 threshold."""
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
            items += [zero_row, zero_column]
        if 2 <= K <= 8:
            items.append(rng.standard_normal((K, K - 1)) @ random()[:K - 1])
        return np.stack(items)

    @pytest.mark.parametrize("K", [1, 2, 8, 64, 256])
    def test_pivots_and_singular_items_match_lapack(self, K):
        rng = np.random.default_rng(K)
        stack = self.stack(rng, K)
        rhs = rng.standard_normal((len(stack), K, 2)) + 0j
        scale = np.abs(stack).max(axis=(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lu_factor warns on an exactly singular item
            factors = [scipy.linalg.lu_factor(a) for a in stack]
        lapack = np.array([np.abs(np.diag(lu)) for lu, _ in factors])
        got = numkernel._pivots(stack)
        big = lapack > 1e-12 * scale[:, None]
        assert np.all(np.abs(got - lapack)[big] <= 1e-12 * lapack[big])
        singular = lapack.min(axis=1) <= 1e-14 * scale
        assert singular.tolist() == [False, False, True, False] + [True] * (len(stack) - 4)
        x, cond, failures = numkernel._solve_stack(stack, rhs)
        assert [isinstance(f, Singular) for f in failures] == singular.tolist()
        for i in np.flatnonzero(~singular):
            want = scipy.linalg.lu_solve(factors[i], rhs[i])
            assert np.linalg.norm(x[i] - want) <= 1e-10 * np.linalg.norm(want)
            assert cond[i] == np.linalg.cond(stack[i])

    def test_a_lapack_failure_in_the_solve_stays_with_its_item(self, monkeypatch):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack[1, 0, 0] = 7.0
        rhs = rng.standard_normal((3, 4)) + 0j
        solve = np.linalg.solve

        def failing(a, b):
            if (a[..., 0, 0] == 7.0).any():
                raise np.linalg.LinAlgError("planted failure")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing)
        x, _, failures = numkernel._solve_stack(stack, rhs)
        assert failures[0] is None and failures[2] is None
        assert isinstance(failures[1], numkernel.NumericalFailure)
        assert isinstance(failures[1].__cause__, np.linalg.LinAlgError)
        assert not x[1].any()
        for i in (0, 2):
            assert np.array_equal(x[i], solve(stack[i], rhs[i, :, None])[:, 0])
        with pytest.raises(numkernel.NumericalFailure, match="planted failure") as info:
            solve_square(stack[1], rhs[1])
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert info.value.__cause__.__traceback__ is None

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_a_non_finite_item_fails_before_the_elimination(self, monkeypatch, entry, where):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        rhs = rng.standard_normal((3, 4)) + 0j
        (stack if where == "matrix" else rhs)[1, 2] = entry
        seen = []
        pivots = numkernel._pivots
        monkeypatch.setattr(numkernel, "_pivots", lambda a: seen.append(a) or pivots(a))
        x, cond, failures = numkernel._solve_stack(stack, rhs)
        assert [len(a) for a in seen] == [2] and np.isfinite(seen[0]).all()
        assert str(failures[1]) == "non-finite entries"
        assert type(failures[1]) is numkernel.NumericalFailure
        assert failures[0] is None and failures[2] is None
        assert not x[1].any() and cond[1] == np.inf
        with pytest.raises(numkernel.NumericalFailure, match="non-finite entries"):
            solve_square(stack[1], rhs[1])


class TestSimpleRows:
    """The chunked separation predicate against the unchunked close_pairs count."""

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
        want = numkernel.close_pairs(roots, roots, 1e-7).sum(axis=(1, 2)) == K
        got = numkernel.simple_rows(roots, 1e-7)
        assert got.dtype == bool and np.array_equal(got, want)
        assert not want[::3].any() and want[1::3].all()

    def test_each_call_keeps_to_the_chunk_budget(self, monkeypatch):
        shapes = []
        original = numkernel.close_pairs

        def recorded(a, b, rel_tol):
            shapes.append(a.shape)
            return original(a, b, rel_tol)

        monkeypatch.setattr(numkernel, "close_pairs", recorded)
        rng = np.random.default_rng(3)
        for B, K in [(64, 8), (12, 256), (12, 128), (3, 512)]:
            shapes.clear()
            numkernel.simple_rows(self.planted(rng, B, K), 1e-7)
            assert sum(s[0] for s in shapes) == B
            # a row is never split, so one row may exceed the budget alone
            assert all(s[0] * K * K <= numkernel.CHUNK_ELEMENTS or s[0] == 1 for s in shapes)
        assert len(shapes) == 3  # three rows of 512 roots, one at a time
        shapes.clear()
        numkernel.simple_rows(self.planted(rng, 64, 8), 1e-7)
        assert shapes == [(64, 8)]  # a gamma-surface block stays one call
