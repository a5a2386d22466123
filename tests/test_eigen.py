"""Coupled / complexified eigenproblems, right-eigenvalue verification
and enumeration, and the quaternionic limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoeig import (
    COMPLEX_PROJECTED,
    FULL,
    ComplexOctonion,
    GeneralizedOperator,
    Octonion,
    OperatorMatrix,
    RightEigenClaim,
    classify,
    coupled_clusters,
    enumerate_basis_right_eigs,
    quaternionic_limit_check,
    solve_complexified,
    solve_coupled,
    verify_complexified,
    verify_coupled,
    verify_right_eigen,
)
from octoeig import eigen
from octoeig.eigen import eig_report
from octoeig.octonion import format_octonion
from octoeig.linalg import (
    ConvergenceError,
    EigenPair,
    cluster_gap,
    complex_eigen,
    schur_eigensystem,
)

from conftest import rand_int_octonion

E = Octonion.basis
ONE = Octonion.one()
ZERO = Octonion.zero()


def m_e4():
    return OperatorMatrix([[E(4)]])


def m_2x2():
    return OperatorMatrix([[1, E(4)], [0, E(5)]])


def m_herm_e1():
    return OperatorMatrix([[1, E(1)], [-E(1), 1]])


def m_herm_e4():
    return OperatorMatrix([[1, E(4)], [-E(4), 1]])


class TestVerifyCoupled:
    def test_e4_pair_exact(self):
        # e4 e7 = e3 and e4 e3 = -e7: (xi, eta) = (e7, e3) solves the
        # pair with (a, b) = (0, -1), exactly
        assert verify_coupled(m_e4(), 0.0, -1.0, (E(7),), (E(3),)) == 0.0

    def test_e4_pair_canonical_orientation(self):
        # the b >= 0 orientation flips eta: (a, b, xi, eta) -> (a, -b, xi, -eta)
        assert verify_coupled(m_e4(), 0.0, 1.0, (E(7),), (-E(3),)) == 0.0

    def test_2x2_printed_pair_exact(self):
        xi = (-E(3) + E(6), 2 * E(7))
        eta = (E(3) + E(6), 2 * E(2))
        assert verify_coupled(m_2x2(), 0.0, -1.0, xi, eta) == 0.0

    def test_trivial_real(self):
        M = OperatorMatrix([[1]])
        assert verify_coupled(M, 1.0, 0.0, (E(2),), (ZERO,)) == 0.0

    def test_norm_per_octonion_not_per_pair(self):
        # on the zero operator with z = 1 the residual rows are -xi and
        # -eta: verify_coupled takes the larger octonion norm (4), while
        # verify_complexified takes the norm of the pair xi + i eta (5)
        M = OperatorMatrix([[0]])
        assert verify_coupled(M, 1.0, 0.0, (3 * ONE,), (4 * E(1),)) == 4.0
        assert verify_complexified(M, 1.0, (ComplexOctonion(3 * ONE, 4 * E(1)),)) == 5.0

    def test_perturbation_gives_nonzero_residual(self):
        xi = (E(7) + Octonion([0.001] + [0.0] * 7),)
        res = verify_coupled(m_e4(), 0.0, -1.0, xi, (E(3),))
        assert 1e-4 < res < 1e-2

    def test_conjugation_symmetry(self, rng):
        # (a, b, xi, eta) solves iff (a, -b, xi, -eta) does
        M = m_2x2()
        for s in solve_coupled(M)[:3]:
            flipped = verify_coupled(
                M, s.a, -s.b, s.xi, tuple(-o for o in s.eta)
            )
            assert abs(flipped - s.residual) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_coupled(m_e4(), 0.0, 0.0, (E(1), E(2)), (ZERO, ZERO))


class TestSolveCoupled:
    def test_e4_clusters(self):
        clusters = coupled_clusters(m_e4())
        assert len(clusters) == 1
        c = clusters[0]
        assert abs(c.a) <= 1e-9 and abs(c.b - 1.0) <= 1e-9
        assert c.multiplicity == 4
        assert all(s.residual <= 1e-8 for s in c.solutions)
        for s in c.solutions:
            assert s.b >= 0.0

    def test_2x2_clusters(self):
        clusters = coupled_clusters(m_2x2())
        key = sorted((round(c.a, 9), round(c.b, 9), c.multiplicity) for c in clusters)
        assert key == [(0.0, 1.0, 4), (1.0, 0.0, 8)]
        for c in clusters:
            for s in c.solutions:
                assert verify_coupled(m_2x2(), s.a, s.b, s.xi, s.eta) <= 1e-8

    def test_trivial_scalar(self):
        sols = solve_coupled(OperatorMatrix([[1]]))
        assert len(sols) == 8
        for s in sols:
            assert abs(s.a - 1.0) <= 1e-12 and s.b == 0.0
            assert all(o.is_zero() for o in s.eta)

    def test_real_eigenvalues_have_zero_eta(self):
        for s in solve_coupled(m_2x2()):
            if s.b == 0.0:
                assert all(o.is_zero() for o in s.eta)

    def test_symmetric_translation_has_real_clusters(self):
        # the real translation of [[1, e4], [-e4, 1]] is symmetric, so
        # every coupled cluster is real: {0, 2} with multiplicity 8
        A = m_herm_e4().to_real_matrix()
        assert np.array_equal(A, A.T)
        clusters = coupled_clusters(m_herm_e4())
        key = sorted((round(c.a, 9), round(c.b, 9), c.multiplicity) for c in clusters)
        assert key == [(0.0, 0.0, 8), (2.0, 0.0, 8)]

    def test_rejects_complexified(self):
        M = OperatorMatrix([[ZERO]], entries_im=[[E(4)]])
        with pytest.raises(ValueError):
            solve_coupled(M)


class TestSolveComplexified:
    def test_e4_solutions(self):
        sols = solve_complexified(m_e4())
        assert len(sols) == 4
        for s in sols:
            assert abs(s.z - 1j) <= 1e-9
            assert s.residual <= 1e-8

    def test_four_printed_2x2_solutions_exact(self):
        M = m_2x2()
        printed = [
            ((-(E(1) + E(4)), 2 * ONE), (E(4) - E(1), 2 * E(5))),
            ((ONE + E(5), 2 * E(1)), (ONE - E(5), 2 * E(4))),
            ((E(2) - E(7), -2 * E(3)), (E(2) + E(7), -2 * E(6))),
            ((E(6) - E(3), 2 * E(7)), (E(3) + E(6), 2 * E(2))),
        ]
        for re_parts, im_parts in printed:
            phi = tuple(ComplexOctonion(r, i) for r, i in zip(re_parts, im_parts))
            assert verify_complexified(M, -1j, phi) == 0.0

    def test_lambda_one_family(self, rng):
        # (phi1 + i psi1, 0) solves with z = 1 for every phi1, psi1
        M = m_2x2()
        for _ in range(10):
            phi1 = ComplexOctonion(rand_int_octonion(rng), rand_int_octonion(rng))
            assert verify_complexified(M, 1.0 + 0j, (phi1, ComplexOctonion.zero())) == 0.0

    def test_solver_equivalence_with_coupled(self):
        # the oracle is complex_eigen on the complex translation: for i-free
        # input solve_complexified is the coupled route itself
        M = m_2x2()
        coupled = solve_coupled(M)
        pairs = folded_complex_eigen(M)
        a = sorted((round(s.a, 9), round(s.b, 9)) for s in coupled)
        b = sorted((round(p.value.real, 9), round(abs(p.value.imag), 9)) for p in pairs)
        assert a == b
        for p in pairs:
            xi = tuple(Octonion(c) for c in p.vector.real.reshape(-1, 8))
            eta = tuple(Octonion(c) for c in p.vector.imag.reshape(-1, 8))
            assert verify_coupled(M, p.value.real, p.value.imag, xi, eta) <= 1e-8

    def test_complexified_input(self):
        # [i e4]: i L4 squares to +1, so the spectrum is {-1 x4, +1 x4};
        # complexified inputs are returned in full, no pair folding
        M = OperatorMatrix([[ZERO]], entries_im=[[E(4)]])
        sols = solve_complexified(M)
        got = sorted((round(s.z.real, 9), round(s.z.imag, 9)) for s in sols)
        assert got == [(-1.0, 0.0)] * 4 + [(1.0, 0.0)] * 4
        assert max(s.residual for s in sols) <= 1e-8


def folded_complex_eigen(M):
    """complex_eigen on the complex translation of an i-free M, one pair
    per conjugate pair (Im z >= -gap): the old complexified route."""
    A = M.to_complex_matrix()
    return [p for p in complex_eigen(A) if p.value.imag >= -cluster_gap(A)]


def conjugate_symmetric(rng, n, support):
    """M_ji = conj(M_ij) with a real diagonal and coefficients -2..2 on
    the first `support` units: quaternionic (4) or octonionic (8)
    entries.  The real translation is exactly symmetric."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Octonion.from_scalar(float(rng.integers(-2, 3)))
        for j in range(i + 1, n):
            c = np.zeros(8)
            c[:support] = rng.integers(-2, 3, support)
            rows[i][j], rows[j][i] = Octonion(c), Octonion(c).conj()
    return OperatorMatrix(rows)


def report_or_none(M, method):
    try:
        return eig_report(M, method)
    except ConvergenceError:
        return None


def solution_key(rep):
    """Everything of an eig report but the residuals."""
    return [(c["a"], c["b"], c["multiplicity"], [(s["xi"], s["eta"]) for s in c["solutions"]])
            for c in rep["clusters"]]


class TestComplexifiedByTheCoupledRoute:
    def test_conjugate_symmetric_family_against_complex_eigen(self):
        # wherever complex_eigen converges, the i-free complexified report
        # converges too, with at least as many solutions and the same
        # cluster values within the gap
        rng = np.random.default_rng(5)
        compared = 0
        for t in range(16):
            M = conjugate_symmetric(rng, (2, 3)[t % 2], (4, 8)[t // 2 % 2])
            A = M.to_real_matrix()
            assert np.array_equal(A, A.T)
            try:
                pairs = folded_complex_eigen(M)
            except ConvergenceError:
                continue
            rep = eig_report(M, "complexified")
            gap = cluster_gap(M.to_complex_matrix())
            values = [complex(c["a"], c["b"]) for c in rep["clusters"]]
            assert sum(c["multiplicity"] for c in rep["clusters"]) >= len(pairs)
            for z in values:
                assert min(abs(z - p.value) for p in pairs) <= gap
            for p in pairs:
                assert min(abs(z - p.value) for z in values) <= gap
            compared += 1
        assert compared >= 12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.0, 1.0, 1.5, 2.0]),
                          min_size=8, max_size=8), min_size=n * n, max_size=n * n))))
    def test_report_equals_coupled_bit_for_bit(self, case):
        n, coeffs = case
        M = OperatorMatrix([[Octonion(coeffs[n * i + j]) for j in range(n)] for i in range(n)])
        coupled = report_or_none(M, "coupled")
        complexified = report_or_none(M, "complexified")
        if coupled is None:
            assert complexified is None
            return
        assert solution_key(complexified) == solution_key(coupled)
        tol = 1e-8 * max(1.0, float(np.linalg.norm(M.to_real_matrix())))
        for c in complexified["clusters"]:
            assert all(s["residual"] <= tol for s in c["solutions"])

    def test_real_eigenvalue_keeps_eta_zero(self):
        # draw 27 of the family above: its real records include vectors
        # with an imaginary part up to 0.22 (orthogonalized against a
        # spurious complex pair of their cluster), which both methods drop
        M = OperatorMatrix.from_json({"n": 3, "entries": [
            "0", "-2 - 2e2 - 2e4 - e5", "-2 + 2e1 - e3 - 2e4 + e5 - e7",
            "-2 + 2e2 + 2e4 + e5", "0", "-2 - 2e1 - e2 + 2e3 - 2e4 + 2e6",
            "-2 - 2e1 + e3 + 2e4 - e5 + e7", "-2 + 2e1 + e2 - 2e3 + 2e4 - 2e6", "-1",
        ]})
        records = schur_eigensystem(M.to_real_matrix())[1]
        assert any(z.imag == 0.0 and np.imag(v).any() for z, v, _ in records)
        etas = [s.eta for s in solve_coupled(M) if s.b == 0.0]
        etas += [tuple(p.im for p in s.phi) for s in solve_complexified(M) if s.z.imag == 0.0]
        assert len(etas) == 2 * sum(z.imag == 0.0 for z, _, _ in records)
        assert all(not o.coeffs.any() for eta in etas for o in eta)


class TestRightEigen:
    def test_paper_claim_e1_matrix(self):
        claim = RightEigenClaim((E(2), E(4)), ONE - E(7))
        check = verify_right_eigen(m_herm_e1(), claim)
        assert check.ok and check.residual == 0.0 and not check.zero_vector

    def test_paper_claim_e4_matrix(self):
        claim = RightEigenClaim((E(5), E(7)), ONE - E(6))
        check = verify_right_eigen(m_herm_e4(), claim)
        assert check.ok and check.residual == 0.0

    def test_zero_vector_flagged(self):
        claim = RightEigenClaim((ZERO, ZERO), ONE)
        check = verify_right_eigen(m_herm_e1(), claim)
        assert check.ok and check.zero_vector

    def test_wrong_claim_fails(self):
        claim = RightEigenClaim((E(2), E(4)), ONE + E(7))
        check = verify_right_eigen(m_herm_e1(), claim)
        assert not check.ok and check.residual > 0


TEN_EXPECTED = {
    # (psi_b sign, psi_b index) -> lambda coefficients
    (1, 3): (0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 3): (2, 0, 0, 0, 0, 0, 0, 0),
    (1, 4): (1, 0, 0, 0, 0, 0, 0, -1),
    (-1, 4): (1, 0, 0, 0, 0, 0, 0, 1),
    (1, 5): (1, 0, 0, 0, 0, 0, 1, 0),
    (-1, 5): (1, 0, 0, 0, 0, 0, -1, 0),
    (1, 6): (1, 0, 0, 0, 0, -1, 0, 0),
    (-1, 6): (1, 0, 0, 0, 0, 1, 0, 0),
    (1, 7): (1, 0, 0, 0, 1, 0, 0, 0),
    (-1, 7): (1, 0, 0, 0, -1, 0, 0, 0),
}


def signed_scan(M, psi_a=None):
    """Oracle for the basis enumerator: scan all 16 signed first
    components (or the pinned one) by verify_right_eigen, with lambda =
    psi_b^-1 (M Psi)_1 and psi_b^-1 = conj(psi_b), and drop a claim
    whose sign-flipped twin -Psi (same lambda) is already listed."""
    firsts = [s * E(j) for j in range(8) for s in (1.0, -1.0)]
    claims, seen = [], set()
    for pa in firsts if psi_a is None else [psi_a]:
        for k in range(8):
            for s in (1.0, -1.0):
                psi = (pa, s * E(k))
                lam = psi[1].conj() * M.apply(list(psi))[1]
                if not verify_right_eigen(M, RightEigenClaim(psi, lam)).ok:
                    continue
                lead = next(p.coeffs[p.support()[0]] for p in psi if p.support())
                canon = psi if lead > 0 else tuple(-p for p in psi)
                key = tuple(p.coeffs.tobytes() for p in canon + (lam,))
                if key not in seen:
                    seen.add(key)
                    claims.append(RightEigenClaim(psi, lam))
    return claims


def claim_bytes(claims):
    return [tuple(p.coeffs.tobytes() for p in c.psi + (c.lam,)) for c in claims]


def generalized_operator(left, m, part):
    """o_0 x + (o_m x) e_m with o_0 = left and o_m = part."""
    parts = [left] + [ZERO] * 7
    parts[m] = part
    return GeneralizedOperator(parts)


def solution_matrix(psi, lam, right):
    """The 2x2 integer matrix with second column right for which Psi =
    (e_j, psi_b) solves M Psi = Psi lambda: its first column is
    (Psi_i lambda - M_i2(psi_b)) e_j^dagger, exact by alternativity."""
    left = [(psi[i] * lam - right[i].apply(psi[1])) * psi[0].conj() for i in range(2)]
    M = OperatorMatrix([[left[0], right[0]], [left[1], right[1]]])
    assert M.is_integer_valued()
    return M


# pins whose inverse is not a signed unit: one whose inverse rounds, and
# one whose inverse is scaled
LAMBDA_GEMV_PINS = [
    -0.2857142857142857 * E(4) + 0.2857142857142857 * E(5),
    2.0**-600 * ONE,
]


class TestEnumeration:
    def test_ten_solutions_for_psi_a_e2(self):
        claims = enumerate_basis_right_eigs(m_herm_e1(), psi_a=E(2))
        assert len(claims) == 10
        got = {}
        for c in claims:
            assert c.psi[0] == E(2)
            sup = c.psi[1].support()
            assert len(sup) == 1
            k = sup[0]
            got[(int(np.sign(c.psi[1].coeffs[k])), k)] = tuple(c.lam.coeffs)
        want = {k: tuple(float(x) for x in v) for k, v in TEN_EXPECTED.items()}
        assert got == want

    def test_sign_flip_closure(self):
        # claims pair up as (psi_b, lambda) <-> (-psi_b, lambda') with
        # the imaginary part of lambda conjugated
        claims = enumerate_basis_right_eigs(m_herm_e1(), psi_a=E(2))
        index = {}
        for c in claims:
            k = c.psi[1].support()[0]
            index[(int(np.sign(c.psi[1].coeffs[k])), k)] = c.lam
        for (s, k), lam in index.items():
            partner = index[(-s, k)]
            assert np.array_equal(partner.coeffs[1:], -lam.coeffs[1:])

    def test_default_scan_contains_quaternionic_lines(self):
        claims = enumerate_basis_right_eigs(m_herm_e1())
        zero = tuple(ZERO.coeffs)
        two = tuple((2 * ONE).coeffs)
        found = set()
        for c in claims:
            ka = c.psi[0].support()
            kb = c.psi[1].support()
            if len(ka) == 1 and len(kb) == 1:
                lam_key = tuple(c.lam.coeffs)
                if lam_key in (zero, two):
                    found.add((ka[0], kb[0], lam_key))
        # the three quaternionic sub-lines through e1 with both partners
        for (a, b) in [(2, 3), (4, 5), (7, 6)]:
            assert any(f[:2] == (a, b) and f[2] == zero for f in found)
            assert any(f[:2] == (a, b) and f[2] == two for f in found)

    def test_identity_matrix(self):
        claims = enumerate_basis_right_eigs(OperatorMatrix([[1, 0], [0, 1]]))
        assert len(claims) == 8 * 16
        assert all(c.lam == ONE for c in claims)

    def test_requires_2x2(self):
        with pytest.raises(ValueError):
            enumerate_basis_right_eigs(m_e4())

    def test_zero_psi_a_rejected(self):
        with pytest.raises(ValueError, match="psi_a must be non-zero"):
            enumerate_basis_right_eigs(m_herm_e1(), psi_a=ZERO)

    @pytest.mark.parametrize("psi_a", [None, E(2)], ids=["unpinned", "e2"])
    def test_one_evaluation_per_call(self, monkeypatch, psi_a):
        # every candidate's M Psi comes from one _evaluate call
        calls = []
        evaluate = OperatorMatrix._evaluate

        def counted(self, *args, **kwargs):
            calls.append(args)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(OperatorMatrix, "_evaluate", counted)
        claims = enumerate_basis_right_eigs(m_herm_e1(), psi_a=psi_a)
        assert claims
        assert len(calls) == 1

    def test_matches_signed_scan_with_sign_dedup(self):
        def unit_or_zero(rng):
            if rng.random() < 0.25:
                return ZERO
            return float(rng.choice([-1, 1])) * E(int(rng.integers(0, 8)))

        def generalized(rng):
            # a unit-or-zero left part and one non-zero integer R-part
            left = unit_or_zero(rng)
            part = float(rng.choice([-2, -1, 1, 2])) * E(int(rng.integers(0, 8)))
            return generalized_operator(left, int(rng.integers(1, 8)), part)

        rng = np.random.default_rng(20261018)
        pins = [E(2), -E(5), -ONE, ONE + E(2), 2 * E(1), 0.5 * E(4)] + LAMBDA_GEMV_PINS
        nonempty = {False: 0, True: 0}
        for t in range(16):
            # the second column holds left multiplications in the first 8
            # trials and operators with R-parts in the last 8
            j, k, m = (int(x) for x in rng.integers(0, 8, 3))
            sign = float(rng.choice([-1, 1]))
            lam = float(rng.integers(-1, 3)) * ONE + float(rng.choice([-1, 1])) * E(m)
            gen = t >= 8
            right = [(generalized if gen else unit_or_zero)(rng) for _ in range(2)]
            if gen:
                assert not any(g.is_left_only() for g in right)
            else:
                right = [GeneralizedOperator.left(o) for o in right]
            M = solution_matrix((E(j), sign * E(k)), lam, right)
            for pin in [None, E(j), -E(j)] + pins[t % 3 :: 3]:
                got = claim_bytes(enumerate_basis_right_eigs(M, psi_a=pin))
                assert got == claim_bytes(signed_scan(M, psi_a=pin))
                nonempty[gen] += bool(got)
        assert nonempty[False] >= 16 and nonempty[True] >= 16
        # lambda = -e7 solves Psi = (psi_a, +-1) and (psi_a, +-e7) exactly
        # although psi_a^-1 rounds: lambda is read off the signed unit psi_b
        M = OperatorMatrix([[E(7), 0], [0, -E(7)]])
        claims = enumerate_basis_right_eigs(M, psi_a=LAMBDA_GEMV_PINS[0])
        assert [(c.psi[1], c.lam) for c in claims] == [
            (ONE, -E(7)), (-ONE, -E(7)), (E(7), -E(7)), (-E(7), -E(7))
        ]
        for pin in LAMBDA_GEMV_PINS:
            got = claim_bytes(enumerate_basis_right_eigs(M, psi_a=pin))
            assert got
            assert got == claim_bytes(signed_scan(M, psi_a=pin))

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(*[st.integers(0, 7)] * 3),
        st.tuples(*[st.sampled_from([-1.0, 1.0])] * 2),
        st.integers(-1, 2),
        st.data(),
    )
    def test_matches_signed_scan_property(self, jkm, signs, lam0, data):
        j, k, m = jkm
        unit_or_zero = st.one_of(
            st.just(ZERO),
            st.builds(lambda s, u: s * E(u), st.sampled_from([-1.0, 1.0]), st.integers(0, 7)),
        )
        left_only = unit_or_zero.map(GeneralizedOperator.left)
        generalized = st.builds(
            generalized_operator,
            unit_or_zero,
            st.integers(1, 7),
            st.builds(lambda c, u: c * E(u), st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
                      st.integers(0, 7)),
        )
        right = data.draw(st.lists(st.one_of(left_only, generalized), min_size=2, max_size=2))
        M = solution_matrix((E(j), signs[0] * E(k)), lam0 * ONE + signs[1] * E(m), right)
        pin = data.draw(st.sampled_from(
            [None, E(j), -E(j), ONE + E(2), 2 * E(1), 0.5 * E(4)] + LAMBDA_GEMV_PINS
        ))
        got = claim_bytes(enumerate_basis_right_eigs(M, psi_a=pin))
        assert got == claim_bytes(signed_scan(M, psi_a=pin))
        if pin is None or pin in (E(j), -E(j)):
            # the construction's own solution, or its twin -Psi, is listed
            assert got


class TestQuaternionicLimit:
    def test_hermitian_e1_matrix(self):
        rep = quaternionic_limit_check(m_herm_e1())
        assert rep["quaternionic"] and rep["ok"]
        evs = sorted((round(a, 9), round(b, 9)) for a, b in rep["eigenvalues"])
        assert evs == [(0.0, 0.0), (2.0, 0.0)]

    def test_left_e1(self):
        rep = quaternionic_limit_check(OperatorMatrix([[E(1)]]))
        assert rep["ok"]
        evs = sorted((round(a, 9), round(b, 9)) for a, b in rep["eigenvalues"])
        assert evs == [(0.0, 1.0)]
        for c in rep["clusters"]:
            assert c["witness_quaternionic"]
            assert c["mu_unit_imaginary"]
            assert c["qrep_residual"] <= 1e-8

    def test_trivial_scalar(self):
        rep = quaternionic_limit_check(OperatorMatrix([[1]]))
        assert rep["ok"]
        assert rep["eigenvalues"] == [(1.0, 0.0)]

    def test_clusters_are_coupled_clusters(self):
        # want_ok was recorded with a Schur solve and clustering of the
        # check's own; ok is False wherever a cluster's eigenvectors have
        # no quaternionic projection (they lie in the e4..e7 complement)
        want_ok = [True] * 7 + [False] * 4 + [True] + [False] * 6
        rng = np.random.default_rng(3)
        got_ok = []
        for n in (1, 2, 3):
            for _ in range(6):
                M = OperatorMatrix([
                    [Octonion(np.concatenate([rng.integers(-1, 2, 4), np.zeros(4)]))
                     for _ in range(n)]
                    for _ in range(n)
                ])
                rep = quaternionic_limit_check(M)
                assert rep["eigenvalues"] == [(c.a, c.b) for c in coupled_clusters(M)]
                got_ok.append(rep["ok"])
        assert got_ok == want_ok

    def test_generalized_entry_not_quaternionic(self):
        # part 0 is quaternionic, but an R-part leaves the subalgebra
        entry = GeneralizedOperator([E(1), ZERO, E(2)] + [ZERO] * 5)
        rep = quaternionic_limit_check(OperatorMatrix([[entry]]))
        assert rep["reason"] == "not quaternionic: entry outside span(1, e1, e2, e3)"
        assert not rep["ok"]

    def test_non_quaternionic_reported(self):
        rep = quaternionic_limit_check(m_e4())
        assert not rep["quaternionic"]
        assert "not quaternionic" in rep["reason"]
        assert not rep["ok"]


def seeded_matrix(kind, n, seed):
    """A seeded n x n operator matrix: integer left multiplications
    ("left"), generalized integer operators ("generalized"), signed
    units or zeros ("signed"), or a genuinely complexified matrix of
    integer left multiplications ("complexified")."""
    rng = np.random.default_rng(seed)

    def left():
        return Octonion(rng.integers(-2, 3, 8) * (rng.random(8) < 0.4))

    def entry():
        if kind == "signed":
            if rng.random() < 0.3:
                return ZERO
            return float(rng.choice([-1, 1])) * E(int(rng.integers(8)))
        if kind == "generalized":
            parts = [left()] + [ZERO] * 7
            parts[int(rng.integers(1, 8))] = float(rng.choice([-1, 1])) * E(int(rng.integers(8)))
            return GeneralizedOperator(parts)
        return left()

    def grid():
        return [[entry() for _ in range(n)] for _ in range(n)]

    return OperatorMatrix(grid(), grid() if kind == "complexified" else None)


SOURCE_CASES = [(kind, n) for kind in ("left", "generalized", "signed") for n in (1, 2, 3)] + [
    ("complexified", 1), ("complexified", 2), ("complexified", 3)]


def source_methods(kind):
    return ("complexified",) if kind == "complexified" else ("coupled", "complexified")


class TestOneSolutionSource:
    """Both eig methods build their solutions from one translation, with
    one M(xi + i eta) evaluation per solution, stacked."""

    @pytest.mark.parametrize("kind, n", SOURCE_CASES, ids=[f"{k}-{n}" for k, n in SOURCE_CASES])
    def test_residuals_are_the_verifiers(self, kind, n):
        # each reported residual is the public verifier's value on that
        # solution's own (xi, eta), bit for bit
        M = seeded_matrix(kind, n, 100 * n + len(kind))
        for method in source_methods(kind):
            if method == "coupled":
                sols = [(s.xi, s.eta, s.residual, verify_coupled(M, s.a, s.b, s.xi, s.eta))
                        for s in solve_coupled(M)]
            else:
                sols = [(tuple(p.re for p in s.phi), tuple(p.im for p in s.phi), s.residual,
                         verify_complexified(M, s.z, s.phi)) for s in solve_complexified(M)]
            assert sols
            assert all(got == want for _, _, got, want in sols)
            rows = sorted((tuple(map(format_octonion, xi)), tuple(map(format_octonion, eta)), res)
                          for xi, eta, _, res in sols)
            rep = eig_report(M, method)
            reported = sorted((tuple(s["xi"]), tuple(s["eta"]), s["residual"])
                              for c in rep["clusters"] for s in c["solutions"])
            assert reported == rows

    @pytest.mark.parametrize("kind, n", SOURCE_CASES, ids=[f"{k}-{n}" for k, n in SOURCE_CASES])
    def test_one_translation_one_evaluation_per_solution(self, monkeypatch, kind, n):
        # every solution's rows are evaluated once, in stacks of at most
        # _STACK_SLOTS entry-value slots: 2 (xi, eta) x grids x 64 n^2 each
        calls = {"_translation": 0, "_evaluate": 0, "apply": 0, "apply_complex": 0}
        stacks = []
        for name in calls:
            original = getattr(OperatorMatrix, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                if _name == "_evaluate":
                    stacks.append(len(args[0]))
                return _original(self, *args)

            monkeypatch.setattr(OperatorMatrix, name, counted)
        grids = 2 if kind == "complexified" else 1
        step = eigen._STACK_SLOTS // (2 * grids * 64 * n * n)
        for method in source_methods(kind):
            M = seeded_matrix(kind, n, 100 * n + len(kind))
            calls.update(dict.fromkeys(calls, 0))
            stacks.clear()
            rep = eig_report(M, method)
            solutions = sum(len(c["solutions"]) for c in rep["clusters"])
            assert solutions
            assert calls == {"_translation": 1, "_evaluate": -(-solutions // step), "apply": 0,
                             "apply_complex": 0}
            assert sum(stacks) == solutions and max(stacks) <= step

    @pytest.mark.parametrize("complexified", [False, True], ids=["real", "complex"])
    def test_sorted_stably_by_re_then_im(self, monkeypatch, complexified):
        # solver order in, (Re z, Im z) order out; equal z keep solver order
        zs = [complex(1, 1), complex(1, 0), complex(0, 2), complex(1, 0)]
        vs = [np.eye(8)[k] + 0j for k in range(4)]
        if complexified:
            M = OperatorMatrix([[ONE]], entries_im=[[ZERO]])
            pairs = [EigenPair(z, v, 0.0) for z, v in zip(zs, vs)]
            monkeypatch.setattr(eigen, "complex_eigen", lambda A: pairs)
            sols = [(s.z.real, s.z.imag, s.phi[0].re) for s in solve_complexified(M)]
        else:
            M = OperatorMatrix([[ONE]])
            records = [(z, v, 0.0) for z, v in zip(zs, vs)]
            monkeypatch.setattr(eigen, "schur_eigensystem", lambda A: (None, records))
            sols = [(s.a, s.b, s.xi[0]) for s in solve_coupled(M)]
        assert sols == [(0.0, 2.0, E(2)), (1.0, 0.0, E(1)), (1.0, 0.0, E(3)), (1.0, 1.0, E(0))]

    def test_coupled_refuses_complexified_before_translating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(OperatorMatrix, "_translation", lambda self: calls.append(self))
        M = seeded_matrix("complexified", 1, 7)
        for solve in (solve_coupled, coupled_clusters, lambda M: eig_report(M, "coupled")):
            with pytest.raises(ValueError, match="solve_coupled needs a real-coefficient"):
                solve(M)
        assert calls == []

    def test_verifiers_refuse_complexified(self):
        M = OperatorMatrix([[ZERO]], entries_im=[[E(4)]])
        message = "complexified operator matrix acts on complexified vectors"
        with pytest.raises(ValueError, match=message):
            verify_coupled(M, 0.0, 1.0, (E(7),), (E(3),))
        with pytest.raises(ValueError, match=message):
            verify_right_eigen(M, RightEigenClaim((E(5),), ONE))
        # a length mismatch is still reported first
        with pytest.raises(ValueError, match="vector length"):
            verify_coupled(M, 0.0, 1.0, (E(7),), (E(3), E(3)))
        with pytest.raises(ValueError, match="vector length"):
            verify_right_eigen(M, RightEigenClaim((E(5), E(5)), ONE))
        # complexified M acts on complexified vectors
        assert verify_complexified(M, 1.0, (ONE + E(4),)) > 0.0


def float_matrix(n, seed, complexified=False):
    """A seeded dense n x n operator matrix of generalized operators with
    float parts (and float left-multiplication i-parts)."""
    rng = np.random.default_rng(seed)

    def grid(entry):
        return [[entry() for _ in range(n)] for _ in range(n)]

    re = grid(lambda: GeneralizedOperator([Octonion(c) for c in rng.uniform(-1, 1, (8, 8))]))
    im = grid(lambda: Octonion(rng.uniform(-1, 1, 8))) if complexified else None
    return OperatorMatrix(re, im)


def negative_zero_matrix(n, seed):
    """A seeded n x n integer matrix whose parts carry -0.0 coefficients
    beside their non-zero ones."""
    rng = np.random.default_rng(seed)

    def entry():
        parts = np.where(rng.random((8, 8)) < 0.2, rng.integers(-2, 3, (8, 8)), -0.0)
        return GeneralizedOperator([Octonion(c) for c in parts])

    return OperatorMatrix([[entry() for _ in range(n)] for _ in range(n)])


def bits(x):
    return np.float64(x).tobytes()


def loop_max_norm(re, im=None):
    """The residual norm as eigen computed it for one solution before the
    residuals ran on stacks, kept as the oracle."""
    if not (np.isfinite(re).all() and (im is None or np.isfinite(im).all())):
        raise ValueError("octonion coefficients must be finite")
    parts = (re,) if im is None else (re, im)
    big = np.max([np.abs(r).max(axis=-1) for r in parts], axis=0)
    e = np.where((big > 2.0**500) | (big < 2.0**-500), np.frexp(big)[1], 0)
    sq = 0.0
    for r in parts:
        r = np.ldexp(r, -e[..., None])
        sq = sq + (r[..., None, :] @ r[..., :, None])[..., 0, 0]
    return float(np.ldexp(np.sqrt(sq), e).max())


def loop_residual(M, z, x, y, method):
    """One solution's residual from its (n, 8) rows x, y, as eigen
    computed it before the residuals ran on stacks: the oracle."""
    m_re, m_im = M._evaluate(x, y)
    zr, zi = float(z.real), float(z.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = m_re - (x * zr - y * zi), m_im - (x * zi + y * zr)
    return loop_max_norm(np.stack(rows)) if method == "coupled" else loop_max_norm(*rows)


STACK_CASES = [
    *[(f"integer-{kind}-{n}", kind, n) for kind in ("generalized", "complexified") for n in (1, 2, 3)],
    *[(f"float-{n}", "float", n) for n in (1, 2, 3, 8)],
    *[(f"float-complexified-{n}", "float-complexified", n) for n in (1, 2)],
    *[(f"negative-zero-{n}", "negative-zero", n) for n in (1, 2)],
]


class TestStackedResiduals:
    """_solutions computes its residuals in stacks of solutions; each must
    be the public verifier's, run on that one solution, bit for bit."""

    @staticmethod
    def matrix(kind, n):
        if kind.startswith("float"):
            return float_matrix(n, 40 + n, complexified=kind.endswith("complexified"))
        if kind == "negative-zero":
            return negative_zero_matrix(n, 50 + n)
        return seeded_matrix(kind, n, 60 + n)

    @pytest.mark.parametrize("name, kind, n", STACK_CASES, ids=[c[0] for c in STACK_CASES])
    def test_stacked_residuals_are_the_verifiers(self, name, kind, n):
        M = self.matrix(kind, n)
        for method in ("complexified",) if M.complexified else ("coupled", "complexified"):
            _, zs, xy, res = eigen._solutions(M, method)
            assert res and len(res) == len(zs) == len(xy)
            loops = [loop_residual(M, z, x, y, method) for z, (x, y) in zip(zs, xy)]
            assert [bits(r) for r in res] == [bits(w) for w in loops]
            want = []
            for z, (x, y) in zip(zs, xy):
                xi, eta = [Octonion(c) for c in x], [Octonion(c) for c in y]
                if method == "coupled":
                    want.append(verify_coupled(M, z.real, z.imag, xi, eta))
                else:
                    phi = [ComplexOctonion(a, b) for a, b in zip(xi, eta)]
                    want.append(verify_complexified(M, z, phi))
            assert [bits(r) for r in res] == [bits(w) for w in want]
            # one stack of every solution, past the cap, gives them too
            whole = eigen._residuals(M, np.array(zs), xy[:, 0], xy[:, 1], method)
            assert [bits(r) for r in whole] == [bits(w) for w in want]

    def test_negative_zero_rows_in_one_stack(self):
        # stacked rows with -0.0 coefficients and integer values, through
        # one _residuals call, against verify_coupled one at a time
        rng = np.random.default_rng(8)
        M = negative_zero_matrix(2, 9)
        k = 12
        x = np.where(rng.random((k, 2, 8)) < 0.5, rng.integers(-2, 3, (k, 2, 8)), -0.0)
        y = np.where(rng.random((k, 2, 8)) < 0.5, rng.integers(-2, 3, (k, 2, 8)), -0.0)
        z = rng.integers(-2, 3, k) + 1j * rng.integers(-2, 3, k) * (rng.random(k) < 0.5)
        for method in ("coupled", "complexified"):
            got = eigen._residuals(M, z, x, y, method)
            for i in range(k):
                assert bits(got[i]) == bits(loop_residual(M, z[i], x[i], y[i], method))
                xi, eta = [Octonion(c) for c in x[i]], [Octonion(c) for c in y[i]]
                if method == "coupled":
                    want = verify_coupled(M, z[i].real, z[i].imag, xi, eta)
                else:
                    want = verify_complexified(M, z[i], list(map(ComplexOctonion, xi, eta)))
                assert bits(got[i]) == bits(want)

    @pytest.mark.parametrize("method", ["coupled", "complexified"])
    @pytest.mark.parametrize("where", ["product", "evaluation"])
    def test_non_finite_residual_raises(self, method, where):
        # one solution of the stack leaves the finite range: in x z, or in
        # M x itself; the stack is refused as that verifier refuses it
        M = OperatorMatrix([[1e200 * E(1) if where == "evaluation" else E(1)]])
        x = np.ones((3, 1, 8))
        x[1] *= 1e200
        z = np.array([1.0, 1e200 + 1j, 2j])
        with pytest.raises(ValueError, match="must be finite"):
            eigen._residuals(M, z, x, x, method)
        with pytest.raises(ValueError, match="must be finite"):
            loop_residual(M, z[1], x[1], x[1], method)
        xi = [Octonion(x[1, 0])]
        with pytest.raises(ValueError, match="must be finite"):
            if method == "coupled":
                verify_coupled(M, z[1].real, z[1].imag, xi, xi)
            else:
                verify_complexified(M, z[1], [ComplexOctonion(xi[0], xi[0])])

    def test_n8_stacks_hold_one_solution(self, monkeypatch):
        # the cap keeps an n = 8 real matrix at one solution a stack
        sizes = []
        original = eigen._residuals

        def spy(M, z, x, y, method):
            sizes.append(len(z))
            return original(M, z, x, y, method)

        monkeypatch.setattr(eigen, "_residuals", spy)
        _, zs, _, _ = eigen._solutions(float_matrix(8, 48), "coupled")
        assert sizes == [1] * len(zs)


class TestArraysInside:
    """The report paths work on coefficient arrays: octonion objects are
    built only to be returned or formatted, never multiplied, added or
    conjugated on the way."""

    def test_report_paths_do_no_object_arithmetic(self, monkeypatch):
        i_free = seeded_matrix("generalized", 2, 7)
        complexified = seeded_matrix("complexified", 2, 7)

        def forbidden(*args, **kwargs):
            raise AssertionError("octonion object arithmetic in a report path")

        for cls, name in [(Octonion, "__mul__"), (Octonion, "__add__"), (Octonion, "__sub__"),
                          (Octonion, "conj"), (ComplexOctonion, "__init__"),
                          (GeneralizedOperator, "is_left_only")]:
            monkeypatch.setattr(cls, name, forbidden)
        for M, methods in [(i_free, ("coupled", "complexified")),
                           (complexified, ("complexified",))]:
            for method in methods:
                rep = eig_report(M, method)
                assert rep["clusters"] and rep["matrix"] == M.to_json()
        for kind in (FULL, COMPLEX_PROJECTED):
            rep = classify(m_herm_e4(), kind)
            assert rep.classification == "neither"
            left, right = rep.witness[2:]
            assert left != right
        assert complexified.to_json()["complexified"] is True
