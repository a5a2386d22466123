"""Dense kernel drivers: LU, real Schur, eigenvalues, eigenvectors and
the complex eigensolver built on realification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoeig import (
    ConvergenceError,
    GeneralizedOperator,
    Octonion,
    OperatorMatrix,
    SingularMatrixError,
    complex_eigen,
    eigenvalues,
    eigenvector,
    lu_solve,
    real_schur,
)
from octoeig.eigen import coupled_clusters, solve_complexified
from octoeig.kernels import (
    balance_in_place,
    francis_qr,
    hessenberg_in_place,
    lu_factor,
    lu_solve_factored,
    scaled_2x2_block,
    split_real_2x2_blocks,
)
from octoeig import kernels, linalg
from octoeig.linalg import (
    _EPS,
    _MAX_SWEEPS_PER_N,
    SOLVER_TOL,
    _hessenberg_stage,
    cluster_gap,
    cluster_values,
    matrix_rank,
    schur_eigensystem,
)
from conftest import HUGE_QR_MATRICES, assert_same_spectrum

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

    def test_rejects_complex(self):
        # the LU kernels are float64-only: complex systems are realified first
        with pytest.raises(ValueError, match="real system"):
            lu_solve(np.eye(2, dtype=complex), np.ones(2))
        with pytest.raises(ValueError, match="real system"):
            lu_solve(np.eye(2), np.ones(2, dtype=complex))


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

    def test_tiny_column_is_scaled(self):
        # the squares of column 0 below the diagonal used to underflow, so
        # beta = 2 / vnorm2 overflowed and Francis QR ran on NaN
        A = np.array([[1.0, 2.0, 3.0], [1e-160, 2.0, 1.0], [1e-160, 1.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            Q, T = real_schur(A)
            vals = eigenvalues(A)
        self._assert_schur(A, Q, T)
        want = np.sort(np.linalg.eigvals(A).real)
        assert np.abs(np.sort(np.diag(T)) - want).max() <= 1e-14 * want.max()
        assert np.abs(vals - want).max() <= 1e-14 * want.max()


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

    def test_rejects_balancing_overflow(self):
        # balancing divides the whole first row, diagonal included, by
        # 2**-515; the overflow used to come back as [nan, nan] from
        # eigenvalues and as no records at all from schur_eigensystem
        A = np.array([[1e154, 1e-160], [1e150, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for solve in (eigenvalues, schur_eigensystem):
                with pytest.raises(ValueError, match="balancing overflowed"):
                    solve(A)

    def test_large_finite_norm_still_solved(self):
        vals = eigenvalues(np.diag([1e150, 1.0]))
        assert np.array_equal(vals, np.array([1.0, 1e150], dtype=complex))

    @pytest.mark.parametrize("A", [
        [[0.0, 1e-170], [1e-170, 0.0]],
        [[0.0, 1e-165], [-1e-165, 0.0]],
        [[0.0, 1e150], [-1e150, 0.0]],
        [[1.0, 1e-170], [1e-170, 1.0]],  # split by dropping its subdiagonal
    ])
    def test_tiny_and_huge_2x2_blocks(self, A):
        # the squares of entries below about 1e-162 used to underflow, and
        # the first two blocks came back as {0, 0}
        got = np.sort_complex(eigenvalues(A))
        want = np.sort_complex(np.linalg.eigvals(np.array(A)))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(HUGE_QR_MATRICES))
    def test_huge_reflector_entries(self, name):
        # the squares of the shift column and of the bulge entries used to
        # overflow, and QR gave up after printing RuntimeWarnings
        A = OperatorMatrix.from_json(HUGE_QR_MATRICES[name]).to_real_matrix()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = eigenvalues(A)
        assert_same_spectrum(got, np.linalg.eigvals(A), 1e-14)


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

    @pytest.mark.parametrize(
        "z", [math.nan, complex(math.inf, 0.0), complex(1.0, math.nan), complex(2.0, -math.inf)],
        ids=["nan", "inf", "nan-imag", "inf-imag"])
    def test_non_finite_z_refused(self, z):
        # a NaN residual compared False against the tolerance, so nan
        # returned [1, 0] and inf did too, after a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="z must be finite"):
                eigenvector(np.diag([1.0, 2.0]), z)

    def test_tiny_norm_vectors(self):
        # the residual is relative to max(1, ||A||_F), so at this norm any
        # unit vector passes the check; the vectors must still be right
        A = np.array([[0.0, 1e-170], [1e-170, 0.0]])
        for z, want in ((1e-170, [1.0, 1.0]), (-1e-170, [1.0, -1.0])):
            v = eigenvector(A, z)
            assert np.abs(v - np.array(want) / np.sqrt(2.0)).max() <= 1e-12
        _, records = schur_eigensystem(A)
        assert len(records) == 2
        for z, v, _ in records:
            want = np.array([1.0, np.sign(z.real)]) / np.sqrt(2.0)
            assert abs(abs(z) - 1e-170) <= 1e-14 * 1e-170
            assert np.abs(v - want).max() <= 1e-12


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from(["uniform", "integer"]))
    def test_against_numpy(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            A = rng.uniform(-1.0, 1.0, (n, n))
        else:  # repeated and defective eigenvalues
            A = rng.integers(-2, 3, (n, n)).astype(float)
        scale = max(1.0, float(np.linalg.norm(A)))
        ref = np.linalg.eigvals(A)
        _, records = schur_eigensystem(A)
        for z, v, res in records:
            assert res <= SOLVER_TOL
            assert np.linalg.norm(A @ v - z * v) <= SOLVER_TOL * scale
            assert np.abs(ref - z).min() <= 1e-6 * scale
        if kind == "uniform":  # simple spectrum: one vector per block
            assert len(records) == int((ref.imag >= 0.0).sum())
        for _, idxs in cluster_values([z for (z, _, _) in records], cluster_gap(A)):
            V = np.array([records[i][1] for i in idxs])
            assert np.abs(V.conj() @ V.T - np.eye(len(idxs))).max() <= 1e-10

    def test_structural_multiplicities_give_full_eigenspaces(self):
        # translations whose eigenvalues are multiple by structure: every
        # cluster finds as many vectors as A - zI has null directions
        rng = np.random.default_rng(2012)
        mats = [OperatorMatrix([[s * E(k)]]) for k in range(8) for s in (1.0, -1.0)]
        for n in (2, 2, 2, 2, 2, 2, 3, 3, 3):
            mats.append(OperatorMatrix(
                [[Octonion(np.round(rng.uniform(-1.0, 1.0, 8), 3)) for _ in range(n)]
                 for _ in range(n)]))
        for M in mats:
            A = M.to_real_matrix()
            tol = 1e-8 * max(1.0, float(np.linalg.norm(A)))
            _, records = schur_eigensystem(A)
            for z, idxs in cluster_values([z for (z, _, _) in records], cluster_gap(A)):
                shifted = A - z * np.eye(A.shape[0])
                nullity = A.shape[0] - np.linalg.matrix_rank(shifted, tol=tol)
                assert len(idxs) == nullity

    def test_defective_cluster_reports_the_vectors_found(self):
        # [[1, 1], [0, 1]]: algebraic multiplicity 16, eigenvectors 8
        clusters = coupled_clusters(OperatorMatrix([[1, 1], [0, 1]]))
        assert [(c.a, c.b, c.multiplicity) for c in clusters] == [(1.0, 0.0, 8)]

    def test_degenerate_i_free_input_by_complexified(self):
        # defective eigenvalues +-i, split by about 1e-8 in floating point:
        # a residual of 5.3e-8 above 1e-8 max(1, ||A||_F) = 4.9e-8 was
        # reported; vectors above the tolerance are now dropped
        M = OperatorMatrix.from_json({"n": 2, "entries": ["-e4", "0", "e7", "e2"]})
        scale = max(1.0, float(np.linalg.norm(M.to_complex_matrix())))
        sols = solve_complexified(M)
        assert sols
        assert max(s.residual for s in sols) <= SOLVER_TOL * scale
        assert max(abs(abs(s.z.imag) - 1.0) + abs(s.z.real) for s in sols) <= 1e-7


def loop_lu_factor(a, piv):
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
        if a[k, k] == 0.0:
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


# exact zeros of both signs and values with equal magnitudes (ties such
# as 1 and -1), mixed with general floats
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1.2, 1.3]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def lu_cases(draw):
    """(matrix, right-hand sides) in float64, with a column of exact
    zeros in some, so the factorization meets an exactly zero pivot."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))

    def grid(rows, cols):
        entries = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
        return np.reshape(np.array(entries, dtype=np.float64), (rows, cols))

    a = grid(n, n)
    zero_col = draw(st.none() | st.integers(0, n - 1))
    if zero_col is not None:
        a[:, zero_col] = draw(st.sampled_from([0.0, -0.0]))
    return a, grid(n, m)


class TestLuKernelsAgainstLoops:
    @settings(max_examples=300, deadline=None)
    @given(lu_cases())
    def test_bitwise_equal_to_the_loops(self, case):
        A, B = case
        n = A.shape[0]
        got_a, want_a = A.copy(), A.copy()
        got_piv, want_piv = np.zeros(n, np.int64), np.zeros(n, np.int64)
        with np.errstate(all="ignore"):
            got_code = lu_factor(got_a, got_piv)
            want_code = loop_lu_factor(want_a, want_piv)
        assert got_code == want_code
        assert got_a.tobytes() == want_a.tobytes()
        assert got_piv.tobytes() == want_piv.tobytes()
        if got_code == 0:
            got_b, want_b = B.copy(), B.copy()
            with np.errstate(all="ignore"):
                lu_solve_factored(got_a, got_piv, got_b)
                loop_lu_solve_factored(want_a, want_piv, want_b)
            assert got_b.tobytes() == want_b.tobytes()


def loop_balance_in_place(a, scale):
    """The elementwise balancing loops that the slice kernel replaced."""
    n = a.shape[0]
    for i in range(n):
        scale[i] = 1.0
    changed = True
    while changed:
        changed = False
        for i in range(n):
            c = 0.0
            r = 0.0
            for j in range(n):
                if j != i:
                    c += abs(a[j, i])
                    r += abs(a[i, j])
            if c == 0.0 or r == 0.0:
                continue
            f = 1.0
            s = c + r
            while c < 0.5 * r:
                c *= 2.0
                r *= 0.5
                f *= 2.0
            while c >= 2.0 * r:
                c *= 0.5
                r *= 2.0
                f *= 0.5
            if c + r < 0.95 * s and f != 1.0:
                changed = True
                scale[i] *= f
                for j in range(n):
                    a[i, j] /= f
                for j in range(n):
                    a[j, i] *= f


def loop_hessenberg_in_place(h, q):
    """The elementwise Householder loops that the slice kernel replaced,
    with its power-of-two scaling of a column whose largest entry lies
    outside [2**-500, 2**500]."""
    n = h.shape[0]
    v = np.zeros(n)
    for k in range(n - 2):
        big = 0.0
        for i in range(k + 1, n):
            big = max(big, abs(h[i, k]))
        e = 0 if 2.0**-500 <= big <= 2.0**500 else math.frexp(big)[1]
        alpha = 0.0
        for i in range(k + 1, n):
            x = math.ldexp(h[i, k], -e)
            alpha += x * x
        alpha = np.sqrt(alpha)
        if alpha == 0.0:
            continue
        if h[k + 1, k] > 0.0:
            alpha = -alpha
        vnorm2 = 0.0
        for i in range(k + 1, n):
            v[i] = math.ldexp(h[i, k], -e)
        v[k + 1] -= alpha
        for i in range(k + 1, n):
            vnorm2 += v[i] * v[i]
        if vnorm2 == 0.0:
            continue
        beta = 2.0 / vnorm2
        for j in range(k, n):
            s = 0.0
            for i in range(k + 1, n):
                s += v[i] * h[i, j]
            s *= beta
            for i in range(k + 1, n):
                h[i, j] -= s * v[i]
        for i in range(n):
            s = 0.0
            for j in range(k + 1, n):
                s += h[i, j] * v[j]
            s *= beta
            for j in range(k + 1, n):
                h[i, j] -= s * v[j]
        for i in range(n):
            s = 0.0
            for j in range(k + 1, n):
                s += q[i, j] * v[j]
            s *= beta
            for j in range(k + 1, n):
                q[i, j] -= s * v[j]
        h[k + 1, k] = np.ldexp(alpha, e)
        for i in range(k + 2, n):
            h[i, k] = 0.0


@st.composite
def reduction_cases(draw):
    """(matrix, starting Q) in float64.  Some matrices have a column of
    exact zeros, so a reflector is skipped, and some have rows scaled by
    2**e with |e| up to 40, so balancing rescales.  Q starts as the
    identity or as a seeded random orthogonal matrix."""
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))
    a = np.reshape(np.array(entries, dtype=np.float64), (n, n))
    zero_col = draw(st.none() | st.integers(0, n - 1))
    if zero_col is not None:
        a[:, zero_col] = draw(st.sampled_from([0.0, -0.0]))
    exps = draw(st.none() | st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    if exps is not None:
        a = np.ldexp(a, np.array(exps)[:, None])
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    if seed is None:
        q = np.eye(n)
    else:
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return a, q


class TestReductionKernelsAgainstLoops:
    @settings(max_examples=300, deadline=None)
    @given(reduction_cases())
    def test_bitwise_equal_to_the_loops(self, case):
        A, Q = case
        n = A.shape[0]
        got_a, want_a = A.copy(), A.copy()
        got_scale, want_scale = np.zeros(n), np.zeros(n)
        got_h, want_h = A.copy(), A.copy()
        got_q, want_q = Q.copy(), Q.copy()
        with np.errstate(all="ignore"):
            balance_in_place(got_a, got_scale)
            loop_balance_in_place(want_a, want_scale)
            hessenberg_in_place(got_h, got_q)
            loop_hessenberg_in_place(want_h, want_q)
        assert got_a.tobytes() == want_a.tobytes()
        assert got_scale.tobytes() == want_scale.tobytes()
        assert got_h.tobytes() == want_h.tobytes()
        assert got_q.tobytes() == want_q.tobytes()

    def test_balance_norms_summed_in_the_loops_order(self):
        # column 0's off-diagonal 1-norm is 8 - 2**-50 summed in row
        # order, giving scale 0.5, and 8 summed in reverse, giving 0.25
        A = np.eye(4)
        A[0, 1] = 1.0
        A[1:, 0] = (8.0 - 2.0**-50, 2.0**-52, 2.0**-52)
        got, want = A.copy(), A.copy()
        got_scale, want_scale = np.zeros(4), np.zeros(4)
        balance_in_place(got, got_scale)
        loop_balance_in_place(want, want_scale)
        assert want_scale[0] == 0.5
        assert got.tobytes() == want.tobytes()
        assert got_scale.tobytes() == want_scale.tobytes()

    @pytest.mark.parametrize("x", [1e-160, 1.75e-306, 5e-324, 1e300])
    def test_tiny_or_huge_column_scaled_as_the_loop(self, x):
        # column 0 below the diagonal lies outside [2**-500, 2**500]
        A = np.array([[1.0, 2.0, 3.0], [x, 2.0, 1.0], [x, 1.0, 3.0]])
        got, want = A.copy(), A.copy()
        Q, Q_loop = np.eye(3), np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hessenberg_in_place(got, Q)
            loop_hessenberg_in_place(want, Q_loop)
        assert got.tobytes() == want.tobytes()
        assert Q.tobytes() == Q_loop.tobytes()
        assert got[1, 0] != 0.0 and got[2, 0] == 0.0

    def test_negative_zero_products_sum_to_plus_zero(self):
        # row 0 right of the diagonal is -0.0 and the reflector's v is
        # positive, so each product of that row's sum is -0.0: summed from
        # +0.0 the sum is +0.0 and the row keeps its -0.0 entries, where a
        # sum begun at the first product is -0.0 and turns them to +0.0
        A = np.array([[1.0, -0.0, -0.0], [1.0, 2.0, 3.0], [1.0, 4.0, 5.0]])
        got, want = A.copy(), A.copy()
        Q, Q_loop = np.eye(3), np.eye(3)
        hessenberg_in_place(got, Q)
        loop_hessenberg_in_place(want, Q_loop)
        assert got.tobytes() == want.tobytes()
        assert Q.tobytes() == Q_loop.tobytes()
        assert np.signbit(got[0, 1:]).all()

    def test_zero_column_skips_its_reflector(self):
        # column 0 below the diagonal is zero, so step k = 0 reflects nothing
        A = np.array([[1.0, 2.0, 3.0], [-0.0, 4.0, 5.0], [0.0, 6.0, 7.0]])
        got, want = A.copy(), A.copy()
        Q, Q_loop = np.eye(3), np.eye(3)
        hessenberg_in_place(got, Q)
        loop_hessenberg_in_place(want, Q_loop)
        assert got.tobytes() == A.tobytes() == want.tobytes()
        assert Q.tobytes() == np.eye(3).tobytes() == Q_loop.tobytes()


# The elementwise Francis QR and 2x2 split that the helper-based kernels
# replaced, kept as their oracle; the Francis loop has the kernel's
# power-of-two scaling of out-of-range reflector and rotation entries.
def _apply_house3_left(h, k, lo, n, v0, v1, v2, beta):
    for j in range(lo, n):
        s = beta * (v0 * h[k, j] + v1 * h[k + 1, j] + v2 * h[k + 2, j])
        h[k, j] -= s * v0
        h[k + 1, j] -= s * v1
        h[k + 2, j] -= s * v2


def _apply_house3_right(h, k, hi, v0, v1, v2, beta):
    for i in range(hi + 1):
        s = beta * (v0 * h[i, k] + v1 * h[i, k + 1] + v2 * h[i, k + 2])
        h[i, k] -= s * v0
        h[i, k + 1] -= s * v1
        h[i, k + 2] -= s * v2


def loop_francis_qr(h, q, eps, fro_norm, max_sweeps_per_n):
    """Implicit double-shift QR on an upper Hessenberg matrix, in place.

    Deflates subdiagonal entries with |h[k+1,k]| <= eps*(|h[k,k]| +
    |h[k+1,k+1]|), falling back to eps*fro_norm when both neighbours
    vanish.  Every 10 stalled sweeps on the same block an exceptional
    ad-hoc shift is used.  Returns (0, 0, 0) on success, or
    (1, lo, hi) naming the block that failed to converge within
    max_sweeps_per_n * n sweeps.  A reflector's (x, y, z) and the
    closing rotation's (x, y) are scaled by 2**-e when their largest
    magnitude lies outside [2**-500, 2**500], and alpha by 2**e back.
    """
    n = h.shape[0]
    if n <= 2:
        return (0, 0, 0)
    ihi = n - 1
    total = 0
    stall = 0
    limit = max_sweeps_per_n * n
    while ihi > 0:
        for k in range(1, ihi + 1):
            tst = abs(h[k - 1, k - 1]) + abs(h[k, k])
            if tst == 0.0:
                tst = fro_norm
            if abs(h[k, k - 1]) <= eps * tst:
                h[k, k - 1] = 0.0
        if h[ihi, ihi - 1] == 0.0:
            ihi -= 1
            stall = 0
            continue
        if ihi == 1:
            break  # converged 2x2 block at the top
        if h[ihi - 1, ihi - 2] == 0.0:
            ihi -= 2
            stall = 0
            continue
        l = ihi - 1
        while l > 0 and h[l, l - 1] != 0.0:
            l -= 1
        # active block h[l:ihi+1, l:ihi+1] has size >= 3 here
        total += 1
        stall += 1
        if total > limit:
            return (1, l, ihi)
        m = ihi
        if stall > 0 and stall % 10 == 0:
            # exceptional ad-hoc shift built from subdiagonal magnitudes
            x = abs(h[m, m - 1]) + abs(h[m - 1, m - 2])
            trace = 1.5 * x
            det = x * x
        else:
            trace = h[m - 1, m - 1] + h[m, m]
            det = h[m - 1, m - 1] * h[m, m] - h[m - 1, m] * h[m, m - 1]
        # first column of (H - aI)(H - bI) with a + b = trace, ab = det
        x = h[l, l] * h[l, l] + h[l, l + 1] * h[l + 1, l] - trace * h[l, l] + det
        y = h[l + 1, l] * (h[l, l] + h[l + 1, l + 1] - trace)
        z = h[l + 2, l + 1] * h[l + 1, l]
        for k in range(l, m - 1):
            if k > l:
                x = h[k, k - 1]
                y = h[k + 1, k - 1]
                z = h[k + 2, k - 1] if k + 2 <= m else 0.0
            # Householder mapping (x, y, z) to (+-r, 0, 0)
            big = max(abs(x), abs(y), abs(z))
            e = 0 if 2.0**-500 <= big <= 2.0**500 else math.frexp(big)[1]
            x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
            alpha = np.sqrt(x * x + y * y + z * z)
            if alpha == 0.0:
                continue
            if x > 0.0:
                alpha = -alpha
            v0 = x - alpha
            v1 = y
            v2 = z
            vnorm2 = v0 * v0 + v1 * v1 + v2 * v2
            if vnorm2 == 0.0:
                continue
            beta = 2.0 / vnorm2
            lo = k - 1 if k > l else l
            _apply_house3_left(h, k, lo, n, v0, v1, v2, beta)
            hi = k + 3 if k + 3 < m else m
            _apply_house3_right(h, k, hi, v0, v1, v2, beta)
            for i in range(n):
                s = beta * (v0 * q[i, k] + v1 * q[i, k + 1] + v2 * q[i, k + 2])
                q[i, k] -= s * v0
                q[i, k + 1] -= s * v1
                q[i, k + 2] -= s * v2
            if k > l:
                h[k, k - 1] = np.ldexp(alpha, e)
                h[k + 1, k - 1] = 0.0
                h[k + 2, k - 1] = 0.0
        # final 2-rotation clearing the leftover bulge entry h[m, m-2]
        x = h[m - 1, m - 2]
        y = h[m, m - 2]
        if y != 0.0:
            big = max(abs(x), abs(y))
            e = 0 if 2.0**-500 <= big <= 2.0**500 else math.frexp(big)[1]
            x, y = math.ldexp(x, -e), math.ldexp(y, -e)
            r = np.sqrt(x * x + y * y)
            c = x / r
            s = y / r
            for j in range(m - 2, n):
                t1 = h[m - 1, j]
                t2 = h[m, j]
                h[m - 1, j] = c * t1 + s * t2
                h[m, j] = -s * t1 + c * t2
            for i in range(m + 1):
                t1 = h[i, m - 1]
                t2 = h[i, m]
                h[i, m - 1] = c * t1 + s * t2
                h[i, m] = -s * t1 + c * t2
            for i in range(n):
                t1 = q[i, m - 1]
                t2 = q[i, m]
                q[i, m - 1] = c * t1 + s * t2
                q[i, m] = -s * t1 + c * t2
            h[m, m - 2] = 0.0
    return (0, 0, 0)


def loop_split_real_2x2_blocks(t, q):
    """Rotate 2x2 diagonal blocks with real eigenvalues into two 1x1
    blocks, so 2x2 blocks remain only for complex conjugate pairs.

    Each block is classified and rotated from its scaled_2x2_block form,
    so tiny and huge blocks split as well as moderate ones.  A real block
    whose eigenvector squares underflow even there has off-diagonal
    entries below about 1e-162 of its largest one; its subdiagonal entry
    is dropped instead.
    """
    n = t.shape[0]
    k = 0
    while k < n - 1:
        if t[k + 1, k] == 0.0:
            k += 1
            continue
        _, p, qq, r, s, disc = scaled_2x2_block(t, k)
        if disc < 0.0:
            k += 2
            continue
        sq = np.sqrt(disc)
        lam = 0.5 * ((p + s) + sq) if p + s >= 0.0 else 0.5 * ((p + s) - sq)
        # eigenvector of the block for lam; pick the better-scaled form
        v0 = qq
        v1 = lam - p
        w0 = lam - s
        w1 = r
        if v0 * v0 + v1 * v1 < w0 * w0 + w1 * w1:
            v0 = w0
            v1 = w1
        nrm = np.sqrt(v0 * v0 + v1 * v1)
        if nrm == 0.0:
            t[k + 1, k] = 0.0
            k += 2
            continue
        c = v0 / nrm
        sn = v1 / nrm
        for j in range(n):
            t1 = t[k, j]
            t2 = t[k + 1, j]
            t[k, j] = c * t1 + sn * t2
            t[k + 1, j] = -sn * t1 + c * t2
        for i in range(n):
            t1 = t[i, k]
            t2 = t[i, k + 1]
            t[i, k] = c * t1 + sn * t2
            t[i, k + 1] = -sn * t1 + c * t2
        for i in range(q.shape[0]):
            t1 = q[i, k]
            t2 = q[i, k + 1]
            q[i, k] = c * t1 + sn * t2
            q[i, k + 1] = -sn * t1 + c * t2
        t[k + 1, k] = 0.0
        k += 2



@st.composite
def qr_cases(draw):
    """(Hessenberg matrix, starting Q, Frobenius norm, max_sweeps_per_n)
    in float64.  Some matrices are D A D^-1, row i scaled by 2**e_i and
    column i by 2**-e_i with |e_i| up to 40, balanced as _schur balances
    (a similarity keeps the spectrum that the blocks are checked on).
    The matrix is reduced by hessenberg_in_place, and its norm is taken
    before that, as _schur does.  Q starts as the identity or as a
    seeded random orthogonal matrix.  One sweep per row often runs out,
    so the early (1, lo, hi) return is reached."""
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))
    h = np.reshape(np.array(entries, dtype=np.float64), (n, n))
    exps = draw(st.none() | st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    if exps is not None:
        e = np.array(exps)
        h = np.ldexp(h, e[:, None] - e)
        balance_in_place(h, np.ones(n))
    fro = float(np.sqrt((h * h).sum()))
    hessenberg_in_place(h, np.eye(n))
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    if seed is None:
        q = np.eye(n)
    else:
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return h, q, fro, draw(st.sampled_from([1, 2, 40]))


def assert_blocks_read_off(T, blocks):
    """The blocks split_real_2x2_blocks returns for a converged T tile
    0..n-1 as T's subdiagonal does, hold T's diagonal as their 1x1 values
    and pair their complex values as exact mirrors.  Each pair is a root
    of its own block: twice its real part is the block's trace and its
    squared modulus the block's determinant, to a few eps of the block's
    scale (the backward error).  Values that numpy.linalg.eigvals(T)
    finds well separated match numpy's to 1e-12 of its largest; a
    defective eigenvalue moves by about sqrt(eps) under rounding, so a
    cluster is left to the backward-error check."""
    n = T.shape[0]
    starts = [start for start, _, _ in blocks]
    assert starts == [0] + [start + size for start, size, _ in blocks[:-1]]
    assert sum(size for _, size, _ in blocks) == n
    for start, size, vals in blocks:
        end = start + size
        assert len(vals) == size
        assert end == n or T[end, end - 1] == 0.0
        if size == 1:
            assert vals[0].imag == 0.0 and vals[0].real == T[start, start]
        else:
            assert T[start + 1, start] != 0.0
            a, b = vals
            assert b == a.conjugate() and a.imag > 0.0
            # in units of the block's largest entry, by an exact power of two
            e = math.frexp(np.abs(T[start:end, start:end]).max())[1]
            (p, q), (r, s) = np.ldexp(T[start:end, start:end], -e).tolist()
            x, y = math.ldexp(a.real, -e), math.ldexp(a.imag, -e)
            assert abs(2.0 * x - (p + s)) <= 4.0 * _EPS
            assert abs((x * x + y * y) - (p * s - q * r)) <= 16.0 * _EPS
    want = np.linalg.eigvals(T) if n else np.zeros(0)
    scale = max([1.0] + [abs(w) for w in want])
    gaps = np.abs(want[:, None] - want) + np.diag(np.full(n, np.inf))
    got = [z for _, _, vals in blocks for z in vals]
    for w, gap in zip(want, gaps):
        if gap.min() > 1e-2 * scale:
            assert min(abs(w - z) for z in got) <= 1e-12 * scale


def assert_qr_stage_matches_the_loops(H, Q, fro, sweeps):
    """francis_qr then split_real_2x2_blocks against the loops: the
    return tuple, T and Q are equal to the bit, and on convergence the
    returned blocks are T's."""
    got_h, want_h = H.copy(), H.copy()
    got_q, want_q = Q.copy(), Q.copy()
    with np.errstate(all="ignore"):
        got = francis_qr(got_h, got_q, _EPS, fro, sweeps)
        want = loop_francis_qr(want_h, want_q, _EPS, fro, sweeps)
    assert got == want
    assert got_h.tobytes() == want_h.tobytes()
    assert got_q.tobytes() == want_q.tobytes()
    with np.errstate(all="ignore"):
        blocks = split_real_2x2_blocks(got_h, got_q)
        loop_split_real_2x2_blocks(want_h, want_q)
    assert got_h.tobytes() == want_h.tobytes()
    assert got_q.tobytes() == want_q.tobytes()
    if want == (0, 0, 0):
        assert_blocks_read_off(got_h, blocks)
    return want


def served_translation(family, seed):
    """The 64 x 64 translation of a seeded n = 8 operator matrix from one
    of eig-coupled's entry families: "dense generalized" (a dense o_0 and
    two dense R-parts) or "signed-unit" (0 or a signed unit on the left,
    0 a quarter of the time)."""
    rng = np.random.default_rng(seed)

    def entry():
        parts = np.zeros((8, 8))
        if family == "dense generalized":
            parts[0] = rng.uniform(-1.0, 1.0, 8)
            for m in rng.choice(np.arange(1, 8), size=2, replace=False):
                parts[m] = rng.uniform(-1.0, 1.0, 8)
        elif rng.random() >= 0.25:
            parts[0, rng.integers(0, 8)] = rng.choice((-1.0, 1.0))
        return GeneralizedOperator(map(Octonion, parts))

    return OperatorMatrix([[entry() for _ in range(8)] for _ in range(8)]).to_real_matrix()


class TestQrKernelsAgainstLoops:
    @settings(max_examples=300, deadline=None)
    @given(qr_cases())
    def test_bitwise_equal_to_the_loops(self, case):
        assert_qr_stage_matches_the_loops(*case)

    @pytest.mark.parametrize(
        "H",
        [
            [[0, 0, 0], [1, 0, 0], [0, -0.5, 2]],
            [[0, 0, 0, 0], [0, 1.2, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0]],
        ],
        ids=["3x3", "4x4"],
    )
    def test_defective_eigenvalue(self, H):
        # the double eigenvalue 0 comes out as a pair about 1e-8 i, which
        # differs from numpy's pair by more than 1e-12 but is an exact
        # root of a block within rounding of T
        H = np.array(H, dtype=np.float64)
        fro = float(np.sqrt((H * H).sum()))
        hessenberg_in_place(H, np.eye(len(H)))
        assert assert_qr_stage_matches_the_loops(H, np.eye(len(H)), fro, 1) == (0, 0, 0)

    @pytest.mark.parametrize("family", ["signed-unit", "dense generalized"])
    def test_served_size(self, family):
        # the 64 x 64 translations eig-coupled serves, balanced and
        # reduced as _schur does, from the identity and from a random
        # orthogonal Q
        H, _, _, fro = _hessenberg_stage(served_translation(family, 8), balance=True)
        Q = np.linalg.qr(np.random.default_rng(64).standard_normal((64, 64)))[0]
        for q in (np.eye(64), Q):
            assert_qr_stage_matches_the_loops(H, q, fro, _MAX_SWEEPS_PER_N)

    @pytest.mark.parametrize("family", ["signed-unit", "3-decimal left"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_lab_mix_size(self, family, n):
        # the 8 x 8 and 16 x 16 translations lab-mix's eig requests serve,
        # balanced and reduced as _schur does, from the identity and from a
        # random orthogonal Q
        Q = np.linalg.qr(np.random.default_rng(8 * n).standard_normal((8 * n, 8 * n)))[0]
        for seed in range(4):
            H, _, _, fro = _hessenberg_stage(small_translation(family, n, seed), balance=True)
            for q in (np.eye(8 * n), Q):
                assert_qr_stage_matches_the_loops(H, q, fro, _MAX_SWEEPS_PER_N)

    @pytest.mark.parametrize("c, s, n", [
        (4.67456942e-237, 1.0, 3), (-1e-300, 1.0, 3), (1.0, 1e-120, 3), (1.0, 1e120, 3),
        (-1.0, 1e150, 3), (1.0, 1e-200, 5), (1.0, 1e152, 5),
    ])
    def test_out_of_range_entries_scaled_as_the_loop(self, c, s, n, monkeypatch):
        # s times the n x n companion matrix of x**n - c, whose shift column
        # or bulge entries leave [2**-500, 2**500]: unscaled, the squares of
        # tiny ones underflowed (the first case, found by hypothesis,
        # skipped a reflector) and those of huge ones overflowed.  At n = 5
        # the bulge entries are scaled too, and alpha goes back into h.
        H = s * (np.eye(n, k=-1) + c * np.eye(n, k=n - 1))
        scaled = []
        spied = kernels._range_exponent
        monkeypatch.setattr(kernels, "_range_exponent", lambda big: scaled.append(spied(big)) or scaled[-1])
        assert_qr_stage_matches_the_loops(H, np.eye(n), float(np.sqrt((H * H).sum())), 40)
        assert any(scaled)

    def test_stalled_translation(self):
        # [[e7, 0], [-e4, 1]] by the coupled method: QR stalls through
        # repeated exceptional shifts and gives up on rows 10..12
        A = OperatorMatrix.from_json({"n": 2, "entries": ["e7", "0", "-e4", "1"]})
        H = A.to_real_matrix()
        balance_in_place(H, np.ones(16))
        fro = float(np.sqrt((H * H).sum()))
        hessenberg_in_place(H, np.eye(16))
        Q = np.linalg.qr(np.random.default_rng(16).standard_normal((16, 16)))[0]
        for q in (np.eye(16), Q):
            assert assert_qr_stage_matches_the_loops(H, q, fro, 40) == (1, 10, 12)


def loop_solve_2x2(c, rhs, smin):
    """linalg._solve_2x2 as it was before its pivot search moved to
    Python floats, kept as the oracle."""
    i, j = divmod(int(np.argmax(np.abs(c))), 2)
    piv = linalg._raise_pivot(c[i, j], smin)
    l = c[1 - i, j] / piv
    u = linalg._raise_pivot(c[1 - i, 1 - j] - l * c[i, 1 - j], smin)
    x = np.empty(2, dtype=np.result_type(c, rhs))
    x[1 - j] = (rhs[1 - i] - l * rhs[i]) / u
    x[j] = (rhs[i] - c[i, 1 - j] * x[1 - j]) / piv
    return x


def loop_schur_vector(T, Q, scale, blocks, b, z, rescales=None):
    """linalg._schur_vector as it was before max |T| was read once per T
    and its per-block scalar work moved to Python floats: the oracle.
    Each rescale of y appends its block start to rescales, if given."""
    smin = max(_EPS * max(abs(z), float(np.abs(T).max())), float(np.finfo(np.float64).tiny))
    if z.imag == 0.0:
        z = z.real
    start, size, _ = blocks[b]
    end = start + size
    y = np.zeros(end, dtype=np.result_type(z))
    if size == 1:
        y[start] = 1.0
    else:
        (p, q), (r, s) = T[start:end, start:end].tolist()
        y[start:end] = max((q, z - p), (z - s, r), key=lambda x: math.hypot(abs(x[0]), abs(x[1])))
        y /= np.abs(y).max()
    for j, jsize, _ in reversed(blocks[:b]):
        jend = j + jsize
        rhs = -(T[j:jend, jend:end] @ y[jend:end])
        if jsize == 1:
            y[j] = rhs[0] / linalg._raise_pivot(T[j, j] - z, smin)
        else:
            c = T[j:jend, j:jend] - z * np.eye(2)
            y[j:jend] = loop_solve_2x2(c, rhs, smin)
        big = np.abs(y[j:jend]).max()
        if big > 1e100:
            y /= big
            if rescales is not None:
                rescales.append(j)
    return linalg._unit(scale * (Q[:, :end] @ y))


def small_translation(family, n, seed):
    """The 8n x 8n translation of a seeded operator matrix of lab-mix's
    eig families: signed units, or dense left multiplications with float
    or 3-decimal coefficients."""
    rng = np.random.default_rng(seed)

    def entry():
        if family == "signed-unit":
            return float(rng.choice((-1.0, 1.0))) * E(int(rng.integers(8)))
        if family == "3-decimal left":
            return Octonion(np.round(rng.uniform(-1.0, 1.0, 8), 3))
        return Octonion(rng.uniform(-1.0, 1.0, 8))

    return OperatorMatrix([[entry() for _ in range(n)] for _ in range(n)]).to_real_matrix()


def growing_quasi_triangular(complex_blocks):
    """A quasi-triangular T whose back-substitution raises every pivot to
    smin, so y passes 1e100 and is rescaled: ten 1 x 1 blocks 1, or ten
    2 x 2 blocks [[0, 1], [-1, 0]] with eigenvalues +-i, all coupled by
    seeded entries in [0.5, 1.5] above the blocks."""
    size = 2 if complex_blocks else 1
    T = np.triu(np.random.default_rng(100).uniform(0.5, 1.5, (10 * size, 10 * size)))
    np.fill_diagonal(T, 1.0)
    if complex_blocks:
        for k in range(0, 20, 2):
            T[k:k + 2, k:k + 2] = [[0.0, 1.0], [-1.0, 0.0]]
        return T, [(k, 2, [1j, -1j]) for k in range(0, 20, 2)]
    return T, [(k, 1, [1.0 + 0j]) for k in range(10)]


class TestSchurVectorAgainstLoop:
    """_schur_vector with max |T| passed in and Python-float pivot and
    rescale tests, against its previous form, bit for bit."""

    @staticmethod
    def assert_every_block_matches(T, Q, scale, blocks):
        tmax = float(np.abs(T).max())
        for b, (_, _, values) in enumerate(blocks):
            got = linalg._schur_vector(T, Q, scale, blocks, b, values[0], tmax)
            want = loop_schur_vector(T, Q, scale, blocks, b, values[0])
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["random", "symmetric", "integer"])
    def test_seeded_matrices(self, kind):
        rng = np.random.default_rng(77)
        for n in range(2, 13):
            A = random_matrix(rng, n)
            if kind == "symmetric":
                A = A + A.T
            elif kind == "integer":
                A = np.round(4 * A)
            self.assert_every_block_matches(*linalg._schur(A, balance=True))

    @pytest.mark.parametrize("family", ["signed-unit", "dense-left"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_lab_mix_translations(self, family, n):
        for seed in range(6):
            A = small_translation(family, n, seed)
            self.assert_every_block_matches(*linalg._schur(A, balance=True))

    def test_served_size(self):
        A = served_translation("dense generalized", 8)
        self.assert_every_block_matches(*linalg._schur(A, balance=True))

    @pytest.mark.parametrize("complex_blocks", [False, True], ids=["real", "complex"])
    def test_rescaled_back_substitution(self, complex_blocks):
        T, blocks = growing_quasi_triangular(complex_blocks)
        m = len(T)
        Q = np.linalg.qr(np.random.default_rng(10).standard_normal((m, m)))[0]
        for q in (np.eye(m), Q):
            self.assert_every_block_matches(T, q, np.ones(m), blocks)
        # the last block's back-substitution does pass 1e100
        rescales = []
        loop_schur_vector(T, Q, np.ones(m), blocks, len(blocks) - 1, blocks[-1][2][0], rescales)
        assert rescales

    def test_schur_eigensystem_reads_max_abs_t_once(self, monkeypatch):
        seen = []
        original = linalg._schur_vector

        def spy(T, Q, scale, blocks, b, z, tmax):
            seen.append(tmax)
            return original(T, Q, scale, blocks, b, z, tmax)

        monkeypatch.setattr(linalg, "_schur_vector", spy)
        A = small_translation("dense-left", 2, 3)
        _, T, _, _ = linalg._schur(A, balance=True)
        schur_eigensystem(A)
        assert len(seen) > 1 and set(seen) == {float(np.abs(T).max())}


class TestComplexEigen:
    def test_1x1(self):
        pairs = complex_eigen(np.array([[1j]]))
        assert len(pairs) == 1
        assert pairs[0].value == 1j
        assert pairs[0].residual <= 1e-12

    def test_scalar_multiple_of_identity(self):
        # at -i the whole cluster at +i of R comes from the conjugate basis
        for z in (1j, -1j):
            pairs = complex_eigen(z * np.eye(4))
            assert [p.value for p in pairs] == [z] * 4
            assert [p.residual for p in pairs] == [0.0] * 4
            vecs = np.array([p.vector for p in pairs])
            gram = vecs.conj() @ vecs.T
            assert np.abs(gram - np.eye(4)).max() <= 1e-8

    def test_conjugate_branch_fills_the_cluster(self):
        # R = [[X, -Y], [Y, X]] has one cluster at +i of size 3: one vector
        # from the +z basis and two from the conjugate basis
        pairs = complex_eigen(np.diag([1j, -1j, -1j, 2.0]))
        assert [p.value for p in pairs] == [1j, -1j, -1j, 2.0]
        assert [p.residual for p in pairs] == [0.0] * 4
        vecs = np.array([p.vector for p in pairs])
        assert np.abs(vecs.conj() @ vecs.T - np.eye(4)).max() <= 1e-12
        assert np.abs(vecs[1:3, [0, 3]]).max() == 0.0

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
