"""Dense kernel drivers: LU, real Schur, eigenvalues, eigenvectors and
the complex eigensolver built on realification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoeig import (
    ConvergenceError,
    Octonion,
    OperatorMatrix,
    SingularMatrixError,
    complex_eigen,
    eigenvalues,
    eigenvector,
    lu_solve,
    real_schur,
)
from octoeig.kernels import lu_factor, lu_solve_factored
from octoeig.linalg import matrix_rank, schur_eigensystem

E = Octonion.basis


def random_matrix(rng, n, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, (n, n))


class TestLuSolve:
    def test_identity(self, rng):
        B = rng.uniform(-1, 1, (6, 3))
        assert np.array_equal(lu_solve(np.eye(6), B), B)

    def test_diagonal(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        B = np.array([[2.0], [8.0]])
        assert np.array_equal(lu_solve(A, B), [[1.0], [2.0]])

    def test_vector_rhs(self):
        x = lu_solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 4.0]))
        assert x.shape == (2,)
        assert np.abs(x - [1.0, 1.0]).max() <= 1e-14

    def test_residual_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 20))
            A = random_matrix(rng, n) + n * np.eye(n)
            X = rng.uniform(-1, 1, (n, 4))
            got = lu_solve(A, A @ X)
            fro = np.sqrt((A * A).sum()) * np.sqrt((got * got).sum())
            assert np.sqrt(((A @ got - A @ X) ** 2).sum()) <= 1e-10 * max(1.0, fro)

    def test_singular_raises_with_pivot_index(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as err:
            lu_solve(A, np.eye(3))
        assert 0 <= err.value.pivot_index < 3

    def test_complex_system(self, rng):
        A = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
        A += 5 * np.eye(5)
        x = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        got = lu_solve(A, A @ x)
        assert np.abs(got - x).max() <= 1e-10


class TestRealSchur:
    def _assert_schur(self, A, Q, T, tol_fact=1e-9):
        n = A.shape[0]
        froA = np.sqrt((A * A).sum())
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-10
        resid = Q @ T @ Q.T - A
        assert np.sqrt((resid * resid).sum()) <= tol_fact * max(1.0, froA)
        # quasi-triangular: nothing below the first subdiagonal, and 2x2
        # blocks only for complex pairs
        for i in range(n):
            for j in range(n):
                if i > j + 1:
                    assert T[i, j] == 0.0
        k = 0
        while k < n - 1:
            if T[k + 1, k] != 0.0:
                block = T[k : k + 2, k : k + 2]
                disc = (block[0, 0] - block[1, 1]) ** 2 + 4 * block[0, 1] * block[1, 0]
                assert disc < 0.0
                k += 2
            else:
                k += 1

    def test_diagonal(self):
        A = np.diag([3.0, 1.0])
        Q, T = real_schur(A)
        self._assert_schur(A, Q, T)
        assert sorted(np.diag(T)) == [1.0, 3.0]

    def test_rotation_gives_complex_pair(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        Q, T = real_schur(A)
        self._assert_schur(A, Q, T)
        vals = eigenvalues(A)
        assert np.array_equal(np.sort_complex(vals), [-1j, 1j])

    def test_e4_translation(self):
        A = OperatorMatrix([[E(4)]]).to_real_matrix()
        Q, T = real_schur(A)
        self._assert_schur(A, Q, T)
        vals = np.sort_complex(eigenvalues(A))
        assert np.abs(vals - np.sort_complex([1j] * 4 + [-1j] * 4)).max() <= 1e-9

    def test_random_matrices(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 33))
            A = random_matrix(rng, n)
            Q, T = real_schur(A)
            self._assert_schur(A, Q, T)

    def test_symmetric(self, rng):
        A = random_matrix(rng, 12)
        A = A + A.T
        Q, T = real_schur(A)
        self._assert_schur(A, Q, T)
        assert np.abs(eigenvalues(A).imag).max() == 0.0

    def test_rejects_complex(self):
        with pytest.raises(ValueError):
            real_schur(np.eye(2, dtype=complex))


class TestEigenvalues:
    def test_identity(self):
        vals = eigenvalues(np.eye(8))
        assert np.array_equal(vals, np.ones(8, dtype=complex))

    def test_paper_16x16_multiplicities(self):
        A = OperatorMatrix([[1, E(4)], [0, E(5)]]).to_real_matrix()
        vals = np.sort_complex(eigenvalues(A))
        want = np.sort_complex(np.array([1j] * 4 + [-1j] * 4 + [1.0 + 0j] * 8))
        assert np.abs(vals - want).max() <= 1e-9

    def test_companion_roots(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        C = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        vals = np.sort_complex(eigenvalues(C))
        assert np.abs(vals - np.array([1.0, 2.0, 3.0])).max() <= 1e-9

    def test_conjugate_pairs_are_bitwise_mirrors(self, rng):
        for _ in range(10):
            A = random_matrix(rng, 9)
            vals = eigenvalues(A)
            complex_vals = [z for z in vals if z.imag != 0.0]
            by_re = {}
            for z in complex_vals:
                by_re.setdefault((z.real, abs(z.imag)), []).append(z.imag)
            for ims in by_re.values():
                assert sorted(ims) == sorted(-x for x in ims)

    def test_transpose_has_same_spectrum(self, rng):
        for _ in range(10):
            A = random_matrix(rng, 11)
            va = np.sort_complex(eigenvalues(A))
            vt = np.sort_complex(eigenvalues(A.T))
            assert np.abs(va - vt).max() <= 1e-9

    def test_sorted_by_real_then_imag_descending(self, rng):
        vals = eigenvalues(random_matrix(rng, 14))
        keys = [(z.real, -z.imag) for z in vals]
        assert keys == sorted(keys)

    def test_translated_left_only_matrix_spectrum_conjugation_closed(self, rng):
        # sanity: translations are real matrices, so the spectrum mirrors
        entries = [
            [Octonion(rng.integers(-2, 3, 8).astype(float)) for _ in range(2)]
            for _ in range(2)
        ]
        A = OperatorMatrix(entries).to_real_matrix()
        vals = eigenvalues(A)
        mirrored = np.sort_complex(np.conj(vals))
        assert np.abs(np.sort_complex(vals) - mirrored).max() <= 1e-9

    @pytest.mark.parametrize("A", [[[1j, 0], [0, 2]], [[1j]], np.eye(3, dtype=complex)])
    def test_rejects_complex_input(self, A):
        # the imaginary part used to be dropped with only a ComplexWarning,
        # e.g. [[1j, 0], [0, 2]] came back as {0, 2}
        with pytest.raises(ValueError, match="complex_eigen"):
            eigenvalues(A)
        with pytest.raises(ValueError, match="complex_eigen"):
            schur_eigensystem(A)

    def test_rejects_overflowing_norm(self):
        # finite entries whose Frobenius norm overflows float64 would turn
        # every tolerance built on the norm into inf
        A = np.diag([1e300, 1.0])
        for solve in (eigenvalues, schur_eigensystem, complex_eigen):
            with pytest.raises(ValueError, match="norm overflows"):
                solve(A)
        with pytest.raises(ValueError, match="norm overflows"):
            complex_eigen(1j * A)

    def test_large_finite_norm_still_solved(self):
        vals = eigenvalues(np.diag([1e150, 1.0]))
        assert np.array_equal(vals, np.array([1.0, 1e150], dtype=complex))

    @pytest.mark.parametrize("A", [
        [[0.0, 1e-170], [1e-170, 0.0]],
        [[0.0, 1e-165], [-1e-165, 0.0]],
        [[0.0, 1e150], [-1e150, 0.0]],
        [[1.0, 1e-170], [1e-170, 1.0]],  # left whole by split_real_2x2_blocks
    ])
    def test_tiny_and_huge_2x2_blocks(self, A):
        # the squares of entries below about 1e-162 used to underflow, and
        # the first two blocks came back as {0, 0}
        got = np.sort_complex(eigenvalues(A))
        want = np.sort_complex(np.linalg.eigvals(np.array(A)))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestEigenvector:
    def test_diagonal(self):
        v = eigenvector(np.diag([2.0, 5.0]), 5.0)
        assert np.abs(np.abs(v) - [0.0, 1.0]).max() <= 1e-12

    def test_e4_eigenvector_lies_in_span(self):
        A = OperatorMatrix([[E(4)]]).to_real_matrix()
        v = eigenvector(A, -1j)
        froA = np.sqrt((A * A).sum())
        assert np.sqrt((np.abs(A @ v - (-1j) * v) ** 2).sum()) <= 1e-10 * froA
        # span of the four displayed eigenvectors for z = -i
        basis = np.zeros((4, 8), dtype=complex)
        basis[0, 3], basis[0, 7] = 1j, 1.0
        basis[1, 2], basis[1, 6] = 1j, 1.0
        basis[2, 1], basis[2, 5] = 1j, 1.0
        basis[3, 0], basis[3, 4] = -1j, 1.0
        basis /= np.sqrt(2.0)
        proj = basis.conj() @ v
        assert np.abs(basis.T @ proj - v).max() <= 1e-9

    def test_random_symmetric_residual(self, rng):
        A = random_matrix(rng, 10)
        A = A + A.T
        froA = np.sqrt((A * A).sum())
        for z in eigenvalues(A)[:4]:
            v = eigenvector(A, z)
            assert np.sqrt((np.abs(A @ v - z * v) ** 2).sum()) <= 1e-8 * max(1.0, froA)

    def test_far_shift_fails(self):
        with pytest.raises(ConvergenceError):
            eigenvector(np.diag([1.0, 2.0]), 100.0)


class TestSchurEigensystem:
    def test_multiplicity_yields_independent_vectors(self):
        A = OperatorMatrix([[E(4)]]).to_real_matrix()
        vals, records = schur_eigensystem(A)
        assert len(records) == 4
        vecs = np.array([v for (_, v, _) in records])
        gram = vecs.conj() @ vecs.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-8

    def test_residuals_within_tolerance(self, rng):
        for _ in range(5):
            A = random_matrix(rng, 16)
            _, records = schur_eigensystem(A)
            assert records, "no eigenvectors returned"
            assert max(r for (_, _, r) in records) <= 1e-8


def loop_lu_factor(a, piv, tiny):
    """The elementwise LU loops that the row-slice kernel replaced."""
    n = a.shape[0]
    for k in range(n):
        p = k
        big = abs(a[k, k])
        for i in range(k + 1, n):
            mag = abs(a[i, k])
            if mag > big:
                big = mag
                p = i
        piv[k] = p
        if p != k:
            for j in range(n):
                tmp = a[k, j]
                a[k, j] = a[p, j]
                a[p, j] = tmp
        if tiny > 0.0:
            if abs(a[k, k]) < tiny:
                if a[k, k] == 0.0:
                    a[k, k] = a[k, k] + tiny
                else:
                    a[k, k] = a[k, k] / abs(a[k, k]) * tiny
        elif a[k, k] == 0.0:
            return k + 1
        akk = a[k, k]
        for i in range(k + 1, n):
            lik = a[i, k] / akk
            a[i, k] = lik
            if lik != 0.0:
                for j in range(k + 1, n):
                    a[i, j] = a[i, j] - lik * a[k, j]
    return 0


def loop_lu_solve_factored(a, piv, b):
    n = a.shape[0]
    m = b.shape[1]
    for k in range(n):
        p = piv[k]
        if p != k:
            for j in range(m):
                tmp = b[k, j]
                b[k, j] = b[p, j]
                b[p, j] = tmp
    for k in range(n):
        for i in range(k + 1, n):
            lik = a[i, k]
            if lik != 0.0:
                for j in range(m):
                    b[i, j] = b[i, j] - lik * b[k, j]
    for k in range(n - 1, -1, -1):
        akk = a[k, k]
        for j in range(m):
            b[k, j] = b[k, j] / akk
        for i in range(k):
            uik = a[i, k]
            if uik != 0.0:
                for j in range(m):
                    b[i, j] = b[i, j] - uik * b[k, j]


# exact zeros of both signs and values with equal magnitudes (ties, also
# between complex entries such as 1, -1j and -1, or 1.3 and -0.5 + 1.2j),
# mixed with general floats
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1.2, 1.3]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def lu_cases(draw):
    """(matrix, right-hand sides, tiny): float64 or complex128, with a
    column of exact zeros in some, so tiny = 0 meets an exactly zero
    pivot and tiny > 0 replaces it."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    cplx = draw(st.booleans())

    def grid(rows, cols):
        def parts():
            return np.reshape(draw(st.lists(PARTS, min_size=rows * cols,
                                            max_size=rows * cols)), (rows, cols))

        g = np.zeros((rows, cols), np.complex128 if cplx else np.float64)
        g.real = parts()
        if cplx:
            g.imag = parts()
        return g

    a = grid(n, n)
    zero_col = draw(st.none() | st.integers(0, n - 1))
    if zero_col is not None:
        a[:, zero_col] = draw(st.sampled_from([0.0, -0.0]))
    tiny = draw(st.sampled_from([0.0, 0.0, 1e-12, 0.75, 3.0]))
    return a, grid(n, m), tiny


class TestLuKernelsAgainstLoops:
    @settings(max_examples=300, deadline=None)
    @given(lu_cases())
    def test_bitwise_equal_to_the_loops(self, case):
        A, B, tiny = case
        n = A.shape[0]
        got_a, want_a = A.copy(), A.copy()
        got_piv, want_piv = np.zeros(n, np.int64), np.zeros(n, np.int64)
        with np.errstate(all="ignore"):
            got_code = lu_factor(got_a, got_piv, tiny)
            want_code = loop_lu_factor(want_a, want_piv, tiny)
        assert got_code == want_code
        assert got_a.tobytes() == want_a.tobytes()
        assert got_piv.tobytes() == want_piv.tobytes()
        if got_code == 0:
            got_b, want_b = B.copy(), B.copy()
            with np.errstate(all="ignore"):
                lu_solve_factored(got_a, got_piv, got_b)
                loop_lu_solve_factored(want_a, want_piv, want_b)
            assert got_b.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("column", [[1.3, 0.5 + 1.2j, 1.0], [0.5 + 1.2j, 1.3, 1.0]])
    def test_complex_pivot_tie(self, column):
        # |0.5 + 1.2j| is 1.3 by the scalar abs of the loops, but not by
        # numpy's array abs, which would break the tie the other way
        A = np.eye(3, dtype=np.complex128)
        A[:, 0] = column
        got, want = A.copy(), A.copy()
        got_piv, want_piv = np.zeros(3, np.int64), np.zeros(3, np.int64)
        lu_factor(got, got_piv, 0.0)
        loop_lu_factor(want, want_piv, 0.0)
        assert got_piv.tobytes() == want_piv.tobytes()
        assert got.tobytes() == want.tobytes()


class TestComplexEigen:
    def test_1x1(self):
        pairs = complex_eigen(np.array([[1j]]))
        assert len(pairs) == 1
        assert pairs[0].value == 1j
        assert pairs[0].residual <= 1e-12

    def test_scalar_multiple_of_identity(self):
        pairs = complex_eigen(1j * np.eye(4))
        assert [p.value for p in pairs] == [1j] * 4
        vecs = np.array([p.vector for p in pairs])
        gram = vecs.conj() @ vecs.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-8

    def test_hermitian_spectrum_is_real(self, rng):
        for _ in range(5):
            B = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
            A = B + B.conj().T
            pairs = complex_eigen(A)
            assert len(pairs) == 6
            assert max(abs(p.value.imag) for p in pairs) <= 1e-9
            froA = np.sqrt((np.abs(A) ** 2).sum())
            for p in pairs:
                res = np.sqrt((np.abs(A @ p.vector - p.value * p.vector) ** 2).sum())
                assert res <= 1e-8 * max(1.0, froA)

    def test_spectrum_matches_realification_doubling(self, rng):
        A = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
        pairs = complex_eigen(A)
        mine = [p.value for p in pairs]
        doubled = np.sort_complex(
            np.array(mine + [z.conjugate() for z in mine])
        )
        R = np.block([[A.real, -A.imag], [A.imag, A.real]])
        vals = np.sort_complex(eigenvalues(R))
        assert np.abs(vals - doubled).max() <= 1e-8

    def test_nonreal_unpaired_spectrum(self):
        # spectrum {i, 2i} is NOT closed under conjugation: recovery must
        # keep both, not fold them onto +-i pairs
        A = np.diag([1j, 2j])
        pairs = complex_eigen(A)
        got = sorted((round(p.value.real, 9), round(p.value.imag, 9)) for p in pairs)
        assert got == [(0.0, 1.0), (0.0, 2.0)]


class TestMatrixRank:
    def test_basics(self):
        assert matrix_rank(np.eye(5)) == 5
        assert matrix_rank(np.zeros((4, 7))) == 0
        assert matrix_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_rectangular(self, rng):
        A = rng.uniform(-1, 1, (6, 3))
        assert matrix_rank(A) == 3
        assert matrix_rank(A @ A.T) == 3
