"""Inner products, the complex-projected product and hermiticity
classification."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoeig import (
    COMPLEX_PROJECTED,
    FULL,
    GeneralizedOperator,
    Octonion,
    OperatorMatrix,
    classify,
    complex_project,
    format_octonion,
    hermitian_spectrum_theorem_check,
    inner,
    survey_imaginary_units,
)
from octoeig import hermiticity
from octoeig.hermiticity import product_values
from octoeig.octonion import LEFT_UNITS, RIGHT_UNITS
from octoeig.operators import matrix_to_generalized

from conftest import loop_gather, loop_unit_products, rand_octonion

E = Octonion.basis
ONE = Octonion.one()
ZERO = Octonion.zero()


def m_herm_e4():
    return OperatorMatrix([[1, E(4)], [-E(4), 1]])


class TestInner:
    def test_two_sided_values_of_the_hermitian_matrix(self):
        M = m_herm_e4()
        psi = (E(5), E(7))
        mpsi = M.apply(list(psi))
        assert inner(psi, mpsi) == 2 * ONE - 2 * E(6)
        assert inner(mpsi, psi) == 2 * ONE + 2 * E(6)

    def test_self_inner_is_squared_norm(self, rng):
        for _ in range(20):
            psi = (rand_octonion(rng), rand_octonion(rng), rand_octonion(rng))
            val = inner(psi, psi)
            want = sum(o.norm_sq() for o in psi)
            assert abs(val.real - want) <= 1e-10 * max(1.0, want)
            assert np.abs(val.coeffs[1:]).max() <= 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner((E(1),), (E(1), E(2)))


class TestComplexProject:
    def test_paper_values(self):
        assert complex_project(2 * ONE - 2 * E(6)) == 2 * ONE
        assert complex_project(2 * ONE + 2 * E(6)) == 2 * ONE

    def test_fixes_complex_plane(self):
        assert complex_project(ONE + E(1)) == ONE + E(1)

    def test_kills_anticommuting_units(self):
        assert complex_project(E(2) + E(4) + E(6)) == ZERO

    def test_support_only_on_complex_plane(self, rng):
        for _ in range(50):
            o = rand_octonion(rng)
            p = complex_project(o)
            assert np.abs(p.coeffs[2:]).max() <= 1e-12

    def test_idempotent_on_basis(self):
        for k in range(8):
            once = complex_project(E(k))
            assert complex_project(once) == once

    def test_projection_values_on_basis(self):
        for k in range(8):
            want = E(k) if k in (0, 1) else ZERO
            assert complex_project(E(k)) == want


def paper_projection(o):
    """The paper's formula [o]_C = (o - e1 (o e1)) / 2 by octonion arithmetic."""
    return (o - E(1) * (o * E(1))) / 2


def assert_is_the_paper_projection(o):
    got = complex_project(o).coeffs
    want = paper_projection(o).coeffs
    assert got[:2].tobytes() == want[:2].tobytes()
    # o_k - (+0.0) keeps a -0.0 input outside (1, e1) as -0.0 in the
    # formula; the value is zero either way, and the restriction gives +0.0
    assert got[2:].tobytes() == (want[2:] + 0.0).tobytes() == bytes(48)


class TestProjectionIsTheRestriction:
    def test_units(self):
        for k in range(8):
            assert_is_the_paper_projection(E(k))
            assert_is_the_paper_projection(-E(k))

    def test_signed_zeros(self):
        for signs in range(256):
            coeffs = [-0.0 if signs >> k & 1 else 0.0 for k in range(8)]
            assert_is_the_paper_projection(Octonion(coeffs))
            coeffs[signs % 8] = -3.5
            assert_is_the_paper_projection(Octonion(coeffs))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-2.0 ** 1022, 2.0 ** 1022), min_size=8, max_size=8))
    def test_in_range(self, coeffs):
        assert_is_the_paper_projection(Octonion(coeffs))

    def test_beyond_the_formula_range(self):
        # 2 * o_0 overflows in the formula; the restriction has no sum
        o = Octonion([1.7e308, -1.7e308, 1.7e308, 0, 0, 0, 0, 0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            paper_projection(o)
        assert complex_project(o).coeffs.tobytes() == np.array(
            [1.7e308, -1.7e308, 0, 0, 0, 0, 0, 0]).tobytes()

    def test_pair_gathers_match_the_loop_tables(self):
        # row a: q -> conj(e_a) q, and row b: r -> conj(r) e_b, where
        # conj(e_c) = s_c e_c; oracle built by loops from TRIPLES
        index, sign = loop_unit_products()
        s = [1 if c == 0 else -1 for c in range(8)]
        left = loop_gather(lambda a, c: (index[a][c], s[a] * sign[a][c]))
        right = loop_gather(lambda b, c: (index[c][b], s[c] * sign[c][b]))
        for got, want in ((hermiticity._LEFT_GATHER, left),
                          (hermiticity._RIGHT_GATHER, right)):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()


SECTOR_PREFIX = [ONE, E(2), E(4), E(6)]
COMPLEX_UNITS = [ONE, E(1)]


class TestSectorStructure:
    def test_cross_sector_terms_are_annulled(self):
        # psi = prefix_a * (complex), phi = prefix_b * (complex), a != b:
        # the cross terms of <psi, e1 phi> and <e1 psi, phi> project to 0
        for ia, pa in enumerate(SECTOR_PREFIX):
            for ib, pb in enumerate(SECTOR_PREFIX):
                if ia == ib:
                    continue
                for u in COMPLEX_UNITS:
                    for v in COMPLEX_UNITS:
                        psi_term = pa * u
                        phi_term = pb * v
                        t1 = psi_term.conj() * (E(1) * phi_term)
                        t2 = (E(1) * psi_term).conj() * phi_term
                        assert complex_project(t1) == ZERO, (ia, ib, u, v)
                        assert complex_project(t2) == ZERO, (ia, ib, u, v)

    def test_diagonal_terms_stay_in_quaternion_planes(self):
        # diagonal term k lives in the quaternionic subalgebra spanned by
        # (1, e1) and the sector prefix: 123 / 145 / 176
        subalgebras = {
            0: {0, 1},
            1: {0, 1, 2, 3},
            2: {0, 1, 4, 5},
            3: {0, 1, 6, 7},
        }
        for k, prefix in enumerate(SECTOR_PREFIX):
            allowed = subalgebras[k]
            for u in COMPLEX_UNITS:
                for v in COMPLEX_UNITS:
                    psi_term = prefix * u
                    phi_term = prefix * v
                    t = (psi_term.conj()) * (E(1) * phi_term)
                    support = set(t.support())
                    assert support <= allowed, (k, u, v, t)


class TestClassify:
    def test_e1_projected_is_antihermitian(self):
        rep = classify(OperatorMatrix([[E(1)]]), COMPLEX_PROJECTED)
        assert rep.classification == "anti-hermitian"
        assert rep.witness is None

    def test_e1_projected_dimension_2(self):
        op = OperatorMatrix([[E(1), 0], [0, E(1)]])
        rep = classify(op, COMPLEX_PROJECTED)
        assert rep.classification == "anti-hermitian"

    def test_e1_full_is_neither(self):
        rep = classify(OperatorMatrix([[E(1)]]), FULL)
        assert rep.classification == "neither"
        psi, phi, left, right = rep.witness
        got_left, got_right = product_values(
            OperatorMatrix([[E(1)]]), psi, phi, FULL
        )
        assert (left, right) == (got_left, got_right)
        assert left != right

    def test_hermitian_matrix_is_not_hermitian_operator(self):
        rep = classify(m_herm_e4(), FULL)
        assert rep.classification == "neither"
        assert rep.witness is not None
        # the paper-style witness pair reproduces the two-sided values
        psi = (E(5), E(7))
        left, right = product_values(m_herm_e4(), psi, psi, FULL)
        assert left == 2 * ONE - 2 * E(6)
        assert right == 2 * ONE + 2 * E(6)

    def test_projected_antihermiticity_identity_exhaustive(self):
        # [<psi, e1 phi>]_C + [<e1 psi, phi>]_C = 0 over all basis pairs
        # in dimensions 1 and 2
        for n in (1, 2):
            entries = [
                [E(1) if i == j else 0 for j in range(n)] for i in range(n)
            ]
            op = OperatorMatrix(entries)
            zero_vec = [ZERO] * n
            for slot_a in range(n):
                for ka in range(8):
                    psi = list(zero_vec)
                    psi[slot_a] = E(ka)
                    for slot_b in range(n):
                        for kb in range(8):
                            phi = list(zero_vec)
                            phi[slot_b] = E(kb)
                            left, right = product_values(
                                op, psi, phi, COMPLEX_PROJECTED
                            )
                            assert (left + right).is_zero()

    def test_scalar_is_hermitian(self):
        rep = classify(OperatorMatrix([[2]]), FULL)
        assert rep.classification == "hermitian"

    def test_extreme_scalar(self):
        # the two sides are compared, not subtracted: L + R overflowing
        # must not stop a hermitian verdict; the projection of 1e308 is
        # 1e308, not the overflowing 2 * 1e308 / 2
        op = OperatorMatrix([[1e308]])
        assert classify(op, FULL).classification == "hermitian"
        assert classify(op, COMPLEX_PROJECTED).classification == "hermitian"

    def test_unknown_kind(self):
        # the CLI spells the projected product "projected"; the library
        # knows only COMPLEX_PROJECTED
        op = OperatorMatrix([[1]])
        for kind in ("sesquilinear", "projected"):
            with pytest.raises(ValueError, match="unknown product kind"):
                classify(op, kind)
            with pytest.raises(ValueError, match="unknown product kind"):
                product_values(op, (ONE,), (ONE,), kind)


def loop_classify(op, kind):
    """Reference classification: both sides of every basis pair from
    product_values, scanned in (psi, phi) order; the witness is the
    first pair where the sides differ."""
    vectors = []
    for slot in range(op.n):
        for k in range(8):
            vec = [ZERO] * op.n
            vec[slot] = E(k)
            vectors.append(tuple(vec))
    hermitian = anti = True
    witness = None
    for psi in vectors:
        for phi in vectors:
            left, right = product_values(op, psi, phi, kind)
            if hermitian and not (left - right).is_zero():
                hermitian = False
                witness = (psi, phi, left, right)
            if anti and not (left + right).is_zero():
                anti = False
            if not (hermitian or anti):
                return "neither", witness
    return ("hermitian" if hermitian else "anti-hermitian"), None


def formatted(witness):
    if witness is None:
        return None
    psi, phi, left, right = witness
    return ([format_octonion(p) for p in psi], [format_octonion(p) for p in phi],
            format_octonion(left), format_octonion(right))


INTEGERS = st.integers(-3, 3).map(float)
FLOATS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def octonions(draw, coeffs, units=tuple(range(8))):
    c = np.zeros(8)
    c[list(units)] = draw(st.lists(coeffs, min_size=len(units), max_size=len(units)))
    return Octonion(c)


@st.composite
def operator_matrices(draw):
    """Left-only integer or float entries, generalized operators with
    R-parts, and (anti)symmetric matrices M_ji = +-conj(M_ij)."""
    n = draw(st.integers(1, 3))
    family = draw(st.sampled_from(
        ["integer", "float", "generalized", "symmetric", "antisymmetric"]))
    if family in ("integer", "float"):
        coeffs = INTEGERS if family == "integer" else FLOATS
        return OperatorMatrix([[draw(octonions(coeffs)) for _ in range(n)]
                               for _ in range(n)])
    if family == "generalized":
        part = st.one_of(st.just(ZERO), octonions(FLOATS))
        return OperatorMatrix([
            [GeneralizedOperator(draw(st.lists(part, min_size=8, max_size=8)))
             for _ in range(n)]
            for _ in range(n)
        ])
    sign = 1.0 if family == "symmetric" else -1.0
    coeffs = draw(st.sampled_from([INTEGERS, FLOATS]))
    units = draw(st.sampled_from([(0,), (0, 1), tuple(range(8))]))
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            o = draw(octonions(coeffs, units))
            if i == j:  # real diagonal if symmetric, imaginary if not
                o = (o + sign * o.conj()) / 2
            rows[i][j] = o
            rows[j][i] = sign * o.conj()
    return OperatorMatrix(rows)


class TestClassifyAgainstLoop:
    @settings(max_examples=80, deadline=None)
    @given(operator_matrices(), st.sampled_from([FULL, COMPLEX_PROJECTED]))
    def test_label_and_witness_match_the_pair_loop(self, op, kind):
        rep = classify(op, kind)
        label, witness = loop_classify(op, kind)
        assert rep.classification == label
        assert formatted(rep.witness) == formatted(witness)
        if witness is not None:
            # to the byte, so a -0.0 read off the pair arrays fails here
            for got, want in zip(rep.witness[2:], witness[2:]):
                assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("entries, kind", [
        ([[1, E(4)], [-E(4), 1]], FULL),  # a -0.0 on the left side
        ([[E(1)]], FULL),  # on the right side
        ([[E(6)]], COMPLEX_PROJECTED),  # on the right side, projected
    ], ids=["herm-e4-full", "e1-full", "e6-projected"])
    def test_witness_is_product_values_to_the_byte(self, entries, kind):
        # the pair arrays hold -0.0 where product_values' sums give +0.0
        op = OperatorMatrix(entries)
        psi, phi, left, right = classify(op, kind).witness
        want_left, want_right = product_values(op, psi, phi, kind)
        assert left.coeffs.tobytes() == want_left.coeffs.tobytes()
        assert right.coeffs.tobytes() == want_right.coeffs.tobytes()

    def test_zero_operator_is_hermitian(self):
        op = OperatorMatrix([[0, 0], [0, 0]])
        for kind in (FULL, COMPLEX_PROJECTED):
            assert classify(op, kind).classification == "hermitian"

    def test_n8_real_symmetric_is_hermitian(self):
        n = 8
        op = OperatorMatrix([[float(i * j - i - j) for j in range(n)] for i in range(n)])
        for kind in (FULL, COMPLEX_PROJECTED):
            rep = classify(op, kind)
            assert rep.classification == "hermitian"
            assert rep.witness is None


def twisted(n, unit_table):
    """J = I_n (x) U_{e1}: the unit's multiplication in every slot."""
    return np.kron(np.eye(n), unit_table[1])


def claimed(A, J):
    """The projected classification the module docstring derives."""
    if np.array_equal(A @ J, J @ A):
        if np.array_equal(A, A.T):
            return "hermitian"
        if np.array_equal(A, -A.T):
            return "anti-hermitian"
    return "neither"


def from_translation(A):
    """The operator matrix whose translation is A, block by block; exact
    when every decomposition coefficient is an integer."""
    n = A.shape[0] // 8
    op = OperatorMatrix([[matrix_to_generalized(A[8 * s:8 * s + 8, 8 * t:8 * t + 8])
                          for t in range(n)] for s in range(n)])
    assert np.array_equal(op.to_real_matrix(), A)
    return op


class TestProjectedHermiticityClaim:
    """Projected-hermitian iff the translation is symmetric and commutes
    with J = I_n (x) R_{e1}; anti-hermitian iff antisymmetric and
    commuting.  24 (E + J E J^T) keeps every part an integer."""

    @pytest.mark.parametrize("sign, label", [(1, "hermitian"), (-1, "anti-hermitian")])
    def test_spanning_set_at_n1(self, sign, label):
        J = twisted(1, RIGHT_UNITS)
        images = []
        for i in range(8):
            for j in range(i, 8):
                E_ij = np.zeros((8, 8))
                E_ij[i, j] = 1.0
                A = 24 * (E_ij + sign * E_ij.T)
                A = A + J @ A @ J.T
                if not A.any():  # E_ij +- E_ji anticommutes with J
                    continue
                images.append(A.ravel())
                assert claimed(A, J) == label
                assert classify(from_translation(A), COMPLEX_PROJECTED).classification == label
        # the images span the 16-dimensional space of 4x4 complex
        # (anti-)hermitian matrices
        assert np.linalg.matrix_rank(np.array(images)) == 16

    @pytest.mark.parametrize("family", ["R+", "R-", "L+", "L-", "S"])
    def test_seeded_draws_at_n2(self, family):
        rng = np.random.default_rng(sum(map(ord, family)))
        J = twisted(2, RIGHT_UNITS)
        U = twisted(2, LEFT_UNITS if family[0] == "L" else RIGHT_UNITS)
        for _ in range(8):
            T = rng.integers(-3, 4, (16, 16)).astype(float)
            S = T + rng.choice([1, -1]) * T.T  # symmetric or antisymmetric
            if family == "S":
                A = 24 * S
            else:
                A = 24 * (S + (1 if family[1] == "+" else -1) * U @ S @ U.T)
            label = classify(from_translation(A), COMPLEX_PROJECTED).classification
            assert label == claimed(A, J)
            if family == "R+":
                assert label != "neither"


# the extreme-input family: 1-3 non-zero coefficients an entry, n = 1-2
FUZZ_VALUES = (0.0, 1.0, -1.0, 2.0, 3.0, 0.5, 1e-300, -1e-300, 1e-160, 1e-100,
               1e100, 1e154, 1e170, 1e300, 5e-324, 1.7e308)


def fuzz_matrices(seed, draws):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        n = int(rng.integers(1, 3))
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                c = np.zeros(8)
                k = int(rng.integers(1, 4))
                c[rng.choice(8, k, replace=False)] = (
                    rng.choice(FUZZ_VALUES, k) * rng.choice([-1.0, 1.0], k))
                row.append(Octonion(c))
            rows.append(row)
        yield OperatorMatrix(rows)


class TestFuzzGate:
    def test_projected_refuses_only_where_full_refuses(self):
        refused = {FULL: [], COMPLEX_PROJECTED: []}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, op in enumerate(fuzz_matrices(seed=1, draws=150)):
                for kind, where in refused.items():
                    try:
                        label = classify(op, kind).classification
                    except ValueError:
                        where.append(d)
                        continue
                    if kind == COMPLEX_PROJECTED:
                        A = op.to_real_matrix()
                        assert label == claimed(A, twisted(op.n, RIGHT_UNITS)), d
        assert refused[COMPLEX_PROJECTED] == refused[FULL]


class TestSpectrumTheorem:
    def test_scalar(self):
        rep = hermitian_spectrum_theorem_check(OperatorMatrix([[2]]))
        assert rep["applicable"] and rep["ok"]
        assert rep["clusters"] == [(2.0, 0.0, 8)]

    def test_real_symmetric_scalars(self):
        op = OperatorMatrix([[1, 2], [2, -1]])
        rep = hermitian_spectrum_theorem_check(op)
        assert rep["applicable"] and rep["ok"]
        assert rep["max_abs_b"] <= 1e-9

    def test_hermitian_matrix_not_applicable(self):
        rep = hermitian_spectrum_theorem_check(m_herm_e4())
        assert rep["classification"] == "neither"
        assert not rep["applicable"]
        assert rep["ok"]


class TestUnitSurvey:
    def test_projected_survey(self):
        # recorded as computed: only e1 is anti-hermitian under the
        # (1, e1)-projected product; every other unit hits an associator
        # with a surviving e1 component
        survey = survey_imaginary_units(COMPLEX_PROJECTED)
        assert survey[1] == "anti-hermitian"
        assert {survey[m] for m in range(2, 8)} == {"neither"}

    def test_default_survey_pinned(self):
        want = {1: "anti-hermitian"}
        want.update({m: "neither" for m in range(2, 8)})
        assert survey_imaginary_units() == want

    def test_full_survey_no_unit_is_antihermitian(self):
        survey = survey_imaginary_units(FULL)
        assert all(cls == "neither" for cls in survey.values())
