"""Operator words, generalized operators, the matrix translation and
the operator-matrix JSON format."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoeig import (
    ComplexOctonion,
    Factor,
    GeneralizedOperator,
    L,
    Octonion,
    OperatorMatrix,
    OperatorMatrixFormatError,
    OperatorWord,
    R,
    basis_rank,
    eigenvalues,
    matrix_to_generalized,
    operator_identity_check,
    parse_word,
)
from octoeig.eigen import (
    RightEigenClaim,
    verify_complexified,
    verify_coupled,
    verify_right_eigen,
)
from octoeig import operators
from octoeig.octonion import LEFT_UNITS, RIGHT_UNITS, left_mul_matrix, right_mul_matrix
from octoeig.operators import operator_basis

from conftest import rand_int_octonion, rand_octonion

E = Octonion.basis
PSI = Octonion([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])

# the displayed 8x8 matrix of psi -> e2 psi
L2_MATRIX = np.array(
    [
        [0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ],
    dtype=float,
)

E4_MATRIX = np.array(
    [
        [0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0],
    ],
    dtype=float,
)


class TestActions:
    def test_right_mult_by_e1(self):
        c = PSI.coeffs
        got = Factor("R", E(1)).apply(PSI)
        want = [-c[1], c[0], c[3], -c[2], c[5], -c[4], -c[7], c[6]]
        assert np.array_equal(got.coeffs, want)

    def test_left_mult_by_e2(self):
        c = PSI.coeffs
        got = Factor("L", E(2)).apply(PSI)
        want = [-c[2], c[3], c[0], -c[1], -c[6], -c[7], c[4], c[5]]
        assert np.array_equal(got.coeffs, want)

    def test_empty_word_is_identity(self):
        assert OperatorWord().apply(PSI) == PSI
        assert np.array_equal(OperatorWord().to_matrix(), np.eye(8))

    def test_word_ordering_rule(self):
        # leftmost factor applied last: L4 R5 R1 L6 psi = e4{[(e6 psi)e1]e5}
        word = parse_word("L4 R5 R1 L6")
        direct = E(4) * (((E(6) * PSI) * E(1)) * E(5))
        assert word.apply(PSI) == direct

    def test_r1l3_vs_l3r1(self):
        c = PSI.coeffs
        r1l3 = OperatorWord([R(1), L(3)])  # R1(L3 psi) = (e3 psi) e1
        got = r1l3.to_matrix() @ c
        assert np.array_equal(got, [c[2], -c[3], c[0], -c[1], c[6], c[7], -c[4], -c[5]])
        l3r1 = OperatorWord([L(3), R(1)])  # L3(R1 psi) = e3 (psi e1)
        got = l3r1.to_matrix() @ c
        assert np.array_equal(got, [c[2], -c[3], c[0], -c[1], -c[6], -c[7], c[4], c[5]])

    def test_faithfulness_words_up_to_length_3(self):
        gens = [L(k) for k in range(1, 8)] + [R(k) for k in range(1, 8)]
        basis = [E(k) for k in range(8)]
        for length in (1, 2, 3):
            for combo in itertools.product(gens, repeat=length):
                word = OperatorWord(combo)
                m = word.to_matrix()
                for psi in basis:
                    assert np.array_equal(m @ psi.coeffs, word.apply(psi).coeffs)

    def test_parse_word_errors(self):
        from octoeig import OctonionParseError

        with pytest.raises(OctonionParseError):
            parse_word("L4 X2")
        with pytest.raises(OctonionParseError):
            parse_word("L8")

    @pytest.mark.parametrize("text, position", [
        ("L1 L", 3), ("L1 1", 3), ("L4 X2", 3), ("  L8", 2), ("R2\tL1  R9", 7),
        ("L1 L1 L", 6),
    ])
    def test_parse_word_error_position(self, text, position):
        # positions index the failing token itself, not an earlier factor
        # whose text contains it ("L" lies inside "L1")
        from octoeig import OctonionParseError

        with pytest.raises(OctonionParseError) as info:
            parse_word(text)
        assert info.value.position == position


class TestGeneralizedOperator:
    def test_left_e2_matches_displayed_matrix(self):
        g = GeneralizedOperator.left(E(2))
        assert np.array_equal(g.to_matrix(), L2_MATRIX)

    def test_zero(self):
        assert np.array_equal(GeneralizedOperator.zero().to_matrix(), np.zeros((8, 8)))

    def test_matrix_matches_direct_application(self, rng):
        for _ in range(100):
            g = GeneralizedOperator([rand_int_octonion(rng) for _ in range(8)])
            m = g.to_matrix()
            psi = rand_int_octonion(rng)
            assert np.array_equal(m @ psi.coeffs, g.apply(psi).coeffs)

    def test_application_order_right_after_left(self):
        # R_m L_{o_m}: psi -> (o_m psi) e_m
        g = GeneralizedOperator(
            [Octonion.zero(), E(3)] + [Octonion.zero()] * 6
        )  # R_1 L_{e3}
        assert g.apply(PSI) == (E(3) * PSI) * E(1)


class TestDecomposition:
    def test_basis_elements(self):
        g = matrix_to_generalized(left_mul_matrix(E(1).coeffs))
        assert g.parts[0] == E(1)
        assert all(g.parts[m].is_zero() for m in range(1, 8))
        g = matrix_to_generalized(np.eye(8))
        assert g.parts[0] == Octonion.one()
        assert all(g.parts[m].is_zero() for m in range(1, 8))
        g = matrix_to_generalized(right_mul_matrix(E(5).coeffs))
        assert g.parts[5] == Octonion.one()
        assert g.parts[0].is_zero()

    def test_roundtrip_integer(self, rng):
        # exact rational solution is integers/12; the scaled operator
        # reconstructs 12A exactly, the unscaled one to ~1e-13
        for _ in range(25):
            A = rng.integers(-5, 6, (8, 8)).astype(float)
            g = matrix_to_generalized(A)
            scaled = GeneralizedOperator(
                [Octonion(np.round(p.coeffs * 12.0)) for p in g.parts]
            )
            assert all(
                np.array_equal(p.coeffs * 12.0, np.round(p.coeffs * 12.0))
                for p in g.parts
            )
            assert np.array_equal(scaled.to_matrix(), 12.0 * A)
            assert np.abs(g.to_matrix() - A).max() <= 1e-12

    def test_roundtrip_float(self, rng):
        for _ in range(25):
            A = rng.uniform(-3, 3, (8, 8))
            g = matrix_to_generalized(A)
            assert np.abs(g.to_matrix() - A).max() <= 1e-10

    def test_generalized_then_decomposed(self, rng):
        # 100 random operators round-trip through the matrix translation;
        # integer coefficients are recovered exactly
        for _ in range(50):
            g = GeneralizedOperator([rand_octonion(rng) for _ in range(8)])
            g2 = matrix_to_generalized(g.to_matrix())
            assert g2.allclose(g, 1e-10)
        for _ in range(50):
            g = GeneralizedOperator([rand_int_octonion(rng) for _ in range(8)])
            g2 = matrix_to_generalized(g.to_matrix())
            assert g2 == g

    def test_translation_is_linear(self, rng):
        for _ in range(10):
            g1 = GeneralizedOperator([rand_octonion(rng) for _ in range(8)])
            g2 = GeneralizedOperator([rand_octonion(rng) for _ in range(8)])
            g_sum = GeneralizedOperator(
                [a + b for a, b in zip(g1.parts, g2.parts)]
            )
            assert np.abs(
                g_sum.to_matrix() - (g1.to_matrix() + g2.to_matrix())
            ).max() <= 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            matrix_to_generalized(np.eye(4))


class TestBasisRank:
    def test_full_basis_is_64(self):
        assert basis_rank() == 64

    def test_left_family_is_8(self):
        mats = [np.eye(8)] + [left_mul_matrix(E(m).coeffs) for m in range(1, 8)]
        assert basis_rank(mats) == 8

    def test_coinciding_sums_have_rank_1(self):
        l1 = left_mul_matrix(E(1).coeffs)
        l2 = left_mul_matrix(E(2).coeffs)
        r1 = right_mul_matrix(E(1).coeffs)
        r2 = right_mul_matrix(E(2).coeffs)
        # L1 R2 + L2 R1 = R2 L1 + R1 L2 as operators
        assert basis_rank([l1 @ r2 + l2 @ r1, r2 @ l1 + r1 @ l2]) == 1


class TestOperatorBasis:
    def test_equals_the_unit_matrix_loop(self):
        # oracle: the 64 matrices built one unit at a time
        def unit(k):
            return np.eye(8)[k].copy()

        mats = [np.eye(8)]
        mats += [left_mul_matrix(unit(m)) for m in range(1, 8)]
        mats += [right_mul_matrix(unit(n)) for n in range(1, 8)]
        mats += [
            right_mul_matrix(unit(n)) @ left_mul_matrix(unit(m))
            for n in range(1, 8)
            for m in range(1, 8)
        ]
        assert operator_basis().tobytes() == np.array(mats).tobytes()
        assert operator_basis() is operator_basis()


class TestOperatorIdentities:
    def test_report(self):
        rep = operator_identity_check()
        assert rep["L1L2_differs_from_L3"]
        assert rep["L1L2_equals_L3_plus_R2L1_minus_L1R2"]
        assert rep["LmRn_plus_LnRm_symmetric"]
        assert rep["all_passed"]

    def test_symmetry_fails_on_a_wrong_table(self, monkeypatch):
        # negative control: L5 in place of R5 breaks the identity
        table = RIGHT_UNITS.copy()
        table[5] = LEFT_UNITS[5]
        monkeypatch.setattr(operators, "RIGHT_UNITS", table)
        rep = operator_identity_check()
        assert rep["LmRn_plus_LnRm_symmetric"] is False
        assert not rep["all_passed"]

    def test_lm_rm_commute(self):
        for m in range(1, 8):
            lm = left_mul_matrix(E(m).coeffs)
            rm = right_mul_matrix(E(m).coeffs)
            assert np.array_equal(lm @ rm, rm @ lm)


class TestOperatorMatrix:
    def test_e4_block(self):
        M = OperatorMatrix([[E(4)]])
        assert np.array_equal(M.to_real_matrix(), E4_MATRIX)

    def test_identity_block(self):
        M = OperatorMatrix([[1]])
        assert np.array_equal(M.to_real_matrix(), np.eye(8))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_translation_is_c_ordered(self, n):
        # the solvers' products depend on the memory order of A; at n = 1
        # the transposed stage output reshapes to an F-ordered view
        rows = [[E(1 + (i + j) % 7) for j in range(n)] for i in range(n)]
        for M in (OperatorMatrix(rows), OperatorMatrix(rows, entries_im=rows)):
            for A in M._translation():
                assert A.flags.c_contiguous and A.shape == (8 * n, 8 * n)

    def test_2x2_spectrum(self):
        M = OperatorMatrix([[1, E(4)], [0, E(5)]])
        A = M.to_real_matrix()
        assert A.shape == (16, 16)
        vals = np.sort_complex(eigenvalues(A))
        want = np.sort_complex(np.array([1j] * 4 + [-1j] * 4 + [1.0 + 0j] * 8))
        assert np.abs(vals - want).max() <= 1e-9

    def test_real_only_complex_translation(self):
        M = OperatorMatrix([[1, E(4)], [0, E(5)]])
        C = M.to_complex_matrix()
        assert np.array_equal(C.imag, np.zeros((16, 16)))
        assert np.array_equal(C.real, M.to_real_matrix())

    def test_scalar_i_factor(self):
        M = OperatorMatrix([[Octonion.zero()]], entries_im=[[E(4)]])
        assert np.array_equal(M.to_complex_matrix(), 1j * E4_MATRIX)

    def test_complexified_action_oracle(self, rng):
        entries = [[rand_int_octonion(rng) for _ in range(2)] for _ in range(2)]
        entries_im = [[rand_int_octonion(rng) for _ in range(2)] for _ in range(2)]
        M = OperatorMatrix(entries, entries_im)
        C = M.to_complex_matrix()
        for _ in range(20):
            vec = [
                ComplexOctonion(rand_octonion(rng), rand_octonion(rng))
                for _ in range(2)
            ]
            flat = np.concatenate(
                [v.re.coeffs + 1j * v.im.coeffs for v in vec]
            )
            got = C @ flat
            want = M.apply_complex(vec)
            want_flat = np.concatenate(
                [w.re.coeffs + 1j * w.im.coeffs for w in want]
            )
            assert np.abs(got - want_flat).max() <= 1e-12

    def test_apply_matches_real_translation(self, rng):
        entries = [[rand_int_octonion(rng) for _ in range(3)] for _ in range(3)]
        M = OperatorMatrix(entries)
        A = M.to_real_matrix()
        vec = [rand_int_octonion(rng) for _ in range(3)]
        flat = np.concatenate([v.coeffs for v in vec])
        want = np.concatenate([w.coeffs for w in M.apply(vec)])
        assert np.array_equal(A @ flat, want)

    def test_must_be_square(self):
        with pytest.raises(ValueError):
            OperatorMatrix([[E(1), E(2)]])

    @pytest.mark.parametrize("entry", [True, False, "e4"])
    def test_booleans_are_bad_entries(self, entry):
        # bool is an int subclass, but not a JSON number; a literal is
        # parsed by from_json, not by the constructor
        message = f"bad operator-matrix entry {type(entry).__name__}"
        with pytest.raises(TypeError, match=message):
            OperatorMatrix([[entry]])
        with pytest.raises(TypeError, match=message):
            OperatorMatrix([[1]], [[entry]])

    @pytest.mark.parametrize("grid, where, value, want", [
        ("entries_im", (0, 1, 0, 2), 0.5, False),  # a fraction only in an i-part
        ("entries", (1, 0, 7, 3), 0.25, False),  # only in part 7 of one entry
        ("entries", (1, 0, 7, 3), 1e300, True),
        ("entries", (1, 0, 7, 3), -0.0, True),
        ("entries_im", (1, 1, 7, 7), -0.0, True),
    ])
    def test_is_integer_valued(self, grid, where, value, want):
        # a generalized 2x2 matrix, integer but for the one coefficient
        coeffs = {
            "entries": np.arange(256.0).reshape(2, 2, 8, 8) - 100.0,
            "entries_im": np.ones((2, 2, 8, 8)),
        }
        coeffs[grid][where] = value
        M = OperatorMatrix(*(
            [[GeneralizedOperator([Octonion(p) for p in c[i, j]]) for j in range(2)]
             for i in range(2)]
            for c in coeffs.values()
        ))
        assert M.is_integer_valued() is want
        # and the i-free matrix ignores what the i-parts hold
        assert OperatorMatrix(M.entries).is_integer_valued() is (want or grid == "entries_im")


# -- the entry-by-entry octonion path, kept as the evaluator's oracle --------


def object_apply(M, vec):
    out = []
    for i in range(M.n):
        acc = Octonion.zero()
        for j in range(M.n):
            acc = acc + M.entries[i][j].apply(vec[j])
        out.append(acc)
    return out


def object_apply_complex(M, vec):
    def act(g, phi):
        return ComplexOctonion(g.apply(phi.re), g.apply(phi.im))

    i_unit = ComplexOctonion.i_unit()
    out = []
    for i in range(M.n):
        acc = ComplexOctonion.zero()
        for j in range(M.n):
            acc = acc + act(M.entries[i][j], vec[j])
            if M.entries_im is not None:
                acc = acc + i_unit * act(M.entries_im[i][j], vec[j])
        out.append(acc)
    return out


def object_verify_coupled(M, a, b, xi, eta):
    m_xi, m_eta = object_apply(M, xi), object_apply(M, eta)
    res = 0.0
    for i in range(M.n):
        r1 = m_xi[i] - (a * xi[i] - b * eta[i])
        r2 = m_eta[i] - (a * eta[i] + b * xi[i])
        res = max(res, r1.norm(), r2.norm())
    return res


def object_verify_complexified(M, z, phi):
    lhs = object_apply_complex(M, phi)
    zc = ComplexOctonion(Octonion.from_scalar(z.real), Octonion.from_scalar(z.imag))
    return max([0.0] + [(lhs[i] - phi[i] * zc).norm() for i in range(M.n)])


def object_verify_right(M, psi, lam):
    lhs = object_apply(M, psi)
    return max([0.0] + [(lhs[i] - psi[i] * lam).norm() for i in range(M.n)])


@st.composite
def evaluator_cases(draw):
    """A seeded operator matrix (n = 1..4; integer or 3-decimal entries;
    left-only or with R-parts, some parts and entries zero; optionally
    complexified) and a batch of vector pairs with matching values.
    About half of the zero coefficients, in parts and in vectors, are
    -0.0."""
    n = draw(st.integers(1, 4))
    decimals = draw(st.booleans())
    generalized = draw(st.booleans())
    complexified = draw(st.booleans())
    keep = draw(st.sampled_from([0.3, 0.7, 1.0]))
    batch = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def signed(v):
        return np.where((v == 0.0) & (rng.random(v.shape) < 0.5), -0.0, v)

    def values(shape):
        if decimals:
            return signed(np.round(rng.uniform(-5.0, 5.0, shape), 3))
        return signed(rng.integers(-4, 5, shape).astype(float))

    def grid():
        mask = rng.random((n, n, 8)) < keep
        if not generalized:
            mask[:, :, 1:] = False
        parts = signed(np.where(mask[..., None], values((n, n, 8, 8)), 0.0))
        return [
            [GeneralizedOperator([Octonion(p) for p in parts[i, j]]) for j in range(n)]
            for i in range(n)
        ]

    M = OperatorMatrix(grid(), grid() if complexified else None)
    return M, values((batch, 2, n, 8)), values(3), values(8)


def assert_translation_is_the_blocks(M):
    """The translation is M on the coefficient basis: to the bit, signed
    zeros included, the blocks of the entries' 8x8 matrices."""
    blocks = np.block([[g.to_matrix() for g in row] for row in M.entries])
    if M.complexified:
        blocks = blocks + 1j * np.block([[g.to_matrix() for g in row] for row in M.entries_im])
    else:
        assert M.to_real_matrix().tobytes() == blocks.tobytes()
    assert M.to_complex_matrix().tobytes() == blocks.astype(np.complex128).tobytes()


def octs(rows):
    return [Octonion(r) for r in rows]


def coeffs(vec):
    return np.array([o.coeffs for o in vec])


class TestEvaluator:
    """OperatorMatrix's array evaluator against the object path, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(evaluator_cases())
    def test_matches_object_path(self, case):
        M, vecs, (a, b, _), lam = case
        phis = [
            [ComplexOctonion(Octonion(x), Octonion(y)) for x, y in zip(*pair)]
            for pair in vecs
        ]
        assert_translation_is_the_blocks(M)
        A = None if M.complexified else M.to_real_matrix()
        C = M.to_complex_matrix()
        exact = M.is_integer_valued() and np.array_equal(vecs, np.round(vecs))
        re, im = M._evaluate(vecs[:, 0], vecs[:, 1])
        for k, phi in enumerate(phis):
            want = object_apply_complex(M, phi)
            assert re[k].tobytes() == coeffs(w.re for w in want).tobytes()
            assert im[k].tobytes() == coeffs(w.im for w in want).tobytes()
            if exact:
                # and it acts on vec(Psi) as M does on Psi, exactly
                z = C @ (vecs[k, 0] + 1j * vecs[k, 1]).ravel()
                assert np.array_equal(z.real, re[k].ravel())
                assert np.array_equal(z.imag, im[k].ravel())
            got = M.apply_complex(phi)
            assert np.array_equal(coeffs(g.re for g in got), re[k])
            assert np.array_equal(coeffs(g.im for g in got), im[k])
            z = complex(a, b)
            assert verify_complexified(M, z, phi) == object_verify_complexified(M, z, phi)
        if M.complexified:
            return
        out = M._evaluate(vecs)
        for k, (x, y) in enumerate(vecs):
            xi, eta = octs(x), octs(y)
            assert out[k, 0].tobytes() == coeffs(object_apply(M, xi)).tobytes()
            if exact:
                assert np.array_equal(A @ x.ravel(), coeffs(object_apply(M, xi)).ravel())
                assert np.array_equal(A @ y.ravel(), coeffs(object_apply(M, eta)).ravel())
            assert out[k, 1].tobytes() == coeffs(object_apply(M, eta)).tobytes()
            assert np.array_equal(coeffs(M.apply(xi)), out[k, 0])
            assert verify_coupled(M, a, b, xi, eta) == object_verify_coupled(M, a, b, xi, eta)
            claim = RightEigenClaim(tuple(xi), Octonion(lam))
            want = object_verify_right(M, xi, Octonion(lam))
            assert verify_right_eigen(M, claim).residual == want

    @pytest.mark.parametrize("complexified", [False, True])
    @pytest.mark.parametrize("kind", ["dense", "signed-unit"])
    def test_translation_at_n8(self, kind, complexified):
        # the size eig-coupled serves: dense generalized entries, or each
        # entry one signed unit acting from the left or through some R_m
        rng = np.random.default_rng(8)

        def entry():
            if kind == "dense":
                return GeneralizedOperator([Octonion(rng.standard_normal(8)) for _ in range(8)])
            unit = np.zeros(8)
            unit[rng.integers(8)] = rng.choice([-1.0, 1.0])
            parts = [Octonion.zero()] * 8
            parts[rng.integers(8)] = Octonion(unit)
            return GeneralizedOperator(parts)

        def grid():
            return [[entry() for _ in range(8)] for _ in range(8)]

        M = OperatorMatrix(grid(), grid() if complexified else None)
        assert_translation_is_the_blocks(M)
        # and the verifiers equal the object path at this size
        xi, eta = octs(rng.standard_normal((8, 8))), octs(rng.standard_normal((8, 8)))
        a, b = map(float, rng.standard_normal(2))
        phi = [ComplexOctonion(x, y) for x, y in zip(xi, eta)]
        z = complex(a, b)
        assert verify_complexified(M, z, phi) == object_verify_complexified(M, z, phi)
        if complexified:
            return
        assert verify_coupled(M, a, b, xi, eta) == object_verify_coupled(M, a, b, xi, eta)
        lam = Octonion(rng.standard_normal(8))
        want = object_verify_right(M, xi, lam)
        assert verify_right_eigen(M, RightEigenClaim(tuple(xi), lam)).residual == want

    def test_integer_worked_examples_verify_exactly(self):
        e4 = OperatorMatrix([[E(4)]])
        assert verify_coupled(e4, 0.0, -1.0, (E(7),), (E(3),)) == 0.0
        M = OperatorMatrix([[Octonion.one(), E(4)], [Octonion.zero(), E(5)]])
        assert verify_coupled(M, 0.0, -1.0, (E(6) - E(3), 2 * E(7)), (E(3) + E(6), 2 * E(2))) == 0.0
        phi = (
            ComplexOctonion(-(E(1) + E(4)), E(4) - E(1)),
            ComplexOctonion(2 * Octonion.one(), 2 * E(5)),
        )
        assert verify_complexified(M, -1j, phi) == 0.0
        herm = OperatorMatrix([[1, E(4)], [-E(4), 1]])
        claim = RightEigenClaim((E(5), E(7)), Octonion.one() - E(6))
        assert verify_right_eigen(herm, claim).residual == 0.0

    def test_overflow_is_refused(self):
        big = Octonion.from_scalar(1e200)
        M = OperatorMatrix([[big]])
        with pytest.raises(ValueError, match="must be finite"):
            M.apply([big])
        with pytest.raises(ValueError, match="must be finite"):
            verify_coupled(M, 0.0, 1.0, (big,), (Octonion.zero(),))
        with pytest.raises(ValueError, match="must be finite"):
            verify_right_eigen(OperatorMatrix([[1]]), RightEigenClaim((big,), big))


class TestJsonFormat:
    def test_parse_simple(self):
        M = OperatorMatrix.from_json({"n": 1, "entries": ["e4"]})
        assert np.array_equal(M.to_real_matrix(), E4_MATRIX)

    def test_parse_2x2(self):
        obj = {"n": 2, "entries": ["1", "e4", "0", "e5"]}
        M = OperatorMatrix.from_json(obj)
        assert M.n == 2 and not M.complexified
        assert M.entries[0][1].parts[0] == E(4)

    def test_roundtrip(self):
        obj = {"n": 2, "entries": ["1 - 2e3 + e7", "e4", "0", "e5"]}
        M = OperatorMatrix.from_json(obj)
        again = OperatorMatrix.from_json(M.to_json())
        assert M.to_json() == again.to_json()
        assert json.dumps(M.to_json()) == json.dumps(again.to_json())

    @pytest.mark.parametrize("obj, echo", [
        # a -0.0 part is zero, so the entry is left-only
        ({"n": 1, "entries": [["e2", [0, 0, 0, -0.0, 0, 0, 0, 0]] + ["0"] * 6]},
         {"n": 1, "entries": ["e2"]}),
        # the only non-zero part is part 7
        ({"n": 1, "entries": [["0"] * 7 + ["-2e3"]]},
         {"n": 1, "entries": [["0"] * 7 + ["-2e3"]]}),
        # a generalized real grid with a left-only i-part grid
        ({"n": 2, "entries": [["e1", "0", "e5"] + ["0"] * 5, "1", "0", "-e4"],
          "entries_im": ["e6", "0", "2 - e7", "0"]},
         {"n": 2, "entries": [["e1", "0", "e5"] + ["0"] * 5, "1", "0", "-e4"],
          "complexified": True, "entries_im": ["e6", "0", "2 - e7", "0"]}),
    ], ids=["negative-zero-part", "part-7-only", "left-only-i-part"])
    def test_roundtrip_echo(self, obj, echo):
        # an entry echoes as one literal exactly when its parts 1..7 are zero
        M = OperatorMatrix.from_json(obj)
        assert M.to_json() == echo
        assert OperatorMatrix.from_json(echo).to_json() == echo

    def test_complexified_roundtrip(self):
        obj = {
            "n": 1,
            "entries": ["e4"],
            "complexified": True,
            "entries_im": ["1"],
        }
        M = OperatorMatrix.from_json(obj)
        assert M.complexified
        assert OperatorMatrix.from_json(M.to_json()).to_json() == M.to_json()

    def test_generalized_entry(self):
        obj = {"n": 1, "entries": [["e2", "0", "0", "0", "0", "0", "0", "0"]]}
        M = OperatorMatrix.from_json(obj)
        assert np.array_equal(M.to_real_matrix(), L2_MATRIX)

    @pytest.mark.parametrize(
        "obj,path",
        [
            ({"entries": ["e4"]}, "$.n"),
            ({"n": 0, "entries": []}, "$.n"),
            ({"n": 1, "entries": ["e9"]}, "$.entries[0]"),
            ({"n": 2, "entries": ["1", "e4", "0"]}, "$.entries"),
            ({"n": 1, "entries": ["1"], "complexified": True}, "$.entries_im"),
            ({"n": 1, "entries": [["e2", "0"]]}, "$.entries[0]"),
            ({"n": 1, "entries": ["1"], "banana": 1}, "$.banana"),
        ],
    )
    def test_schema_errors_carry_path(self, obj, path):
        with pytest.raises(OperatorMatrixFormatError) as err:
            OperatorMatrix.from_json(obj)
        assert err.value.path == path
