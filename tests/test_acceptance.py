"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one PASS line (run with -s or see captured output);
a failing criterion fails its test.  Timed criteria measure algorithm
time only.
"""

import time

import numpy as np

from octoeig import (
    ComplexOctonion,
    Octonion,
    OperatorMatrix,
    classify,
    complex_project,
    coupled_clusters,
    dirac_algebra_check,
    dirac_representation,
    dispersion_check,
    enumerate_basis_right_eigs,
    inner,
    quaternionic_limit_check,
    real_schur,
    solve_complexified,
    solve_coupled,
    structure_constant,
    verify_complexified,
    verify_coupled,
)
from octoeig.hermiticity import COMPLEX_PROJECTED, FULL, product_values
from octoeig.linalg import eigenvalues, schur_eigensystem
from octoeig.octonion import left_mul_matrix, right_mul_matrix

E = Octonion.basis
ONE = Octonion.one()
ZERO = Octonion.zero()

TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _expected_table():
    table = {}
    for m in range(1, 8):
        table[(m, m)] = (-1, 0)
    for (a, b, c) in TRIPLES:
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = (1, z)
            table[(y, x)] = (-1, z)
    return table


def test_criterion_1_structure_table_fidelity():
    table = _expected_table()
    assert len(table) == 49
    for pair, want in table.items():  # warm the call path before timing
        assert structure_constant(*pair) == want
    t0 = time.perf_counter()
    ok = all(structure_constant(*pair) == want for pair, want in table.items())
    elapsed = time.perf_counter() - t0
    assert ok
    assert elapsed < 1e-3
    print(f"\nACCEPTANCE 1 PASS: all 49 basis products match the seven triples "
          f"({elapsed * 1e6:.0f} us)")


def test_criterion_2_translation_goldens():
    psi = Octonion(np.arange(1.0, 9.0))
    c = psi.coeffs
    # R1 action (the printed matrix's two bad rows are overruled by this)
    assert np.array_equal(
        (psi * E(1)).coeffs, [-c[1], c[0], c[3], -c[2], c[5], -c[4], -c[7], c[6]]
    )
    r1 = right_mul_matrix(E(1).coeffs)
    assert np.array_equal(r1 @ c, (psi * E(1)).coeffs)
    # L2 action and its displayed matrix
    assert np.array_equal(
        (E(2) * psi).coeffs, [-c[2], c[3], c[0], -c[1], -c[6], -c[7], c[4], c[5]]
    )
    l2 = left_mul_matrix(E(2).coeffs)
    want_l2 = np.array(
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
    assert np.array_equal(l2, want_l2)
    # R1 L3 and L3 R1 actions
    assert np.array_equal(
        ((E(3) * psi) * E(1)).coeffs,
        [c[2], -c[3], c[0], -c[1], c[6], c[7], -c[4], -c[5]],
    )
    assert np.array_equal(
        (E(3) * (psi * E(1))).coeffs,
        [c[2], -c[3], c[0], -c[1], -c[6], -c[7], c[4], c[5]],
    )
    print("ACCEPTANCE 2 PASS: R1, L2, R1L3, L3R1 actions and matrices exact")


def test_criterion_3_operator_identities_and_rank():
    from octoeig import basis_rank, operator_identity_check

    t0 = time.perf_counter()
    rep = operator_identity_check()
    rank = basis_rank()
    elapsed = time.perf_counter() - t0
    assert rep["L1L2_differs_from_L3"]
    assert rep["L1L2_equals_L3_plus_R2L1_minus_L1R2"]
    assert rep["LmRn_plus_LnRm_symmetric"]
    assert rank == 64
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS: exact operator identities, basis rank 64 "
          f"({elapsed * 1e3:.0f} ms)")


def test_criterion_4_e4_eigenproblem():
    M = OperatorMatrix([[E(4)]])
    vals = np.sort_complex(eigenvalues(M.to_real_matrix()))
    want = np.sort_complex(np.array([1j] * 4 + [-1j] * 4))
    assert np.abs(vals - want).max() <= 1e-9
    clusters = coupled_clusters(M)
    assert [(round(c.a, 9), round(c.b, 9), c.multiplicity) for c in clusters] == [
        (0.0, 1.0, 4)
    ]
    assert verify_coupled(M, 0.0, -1.0, (E(7),), (E(3),)) == 0.0
    assert verify_coupled(M, 0.0, 1.0, (E(7),), (-E(3),)) == 0.0
    print("ACCEPTANCE 4 PASS: [e4] spectrum {i,-i} x4, coupled pair (e7, e3) exact")


def test_criterion_5_2x2_eigenproblem():
    M = OperatorMatrix([[1, E(4)], [0, E(5)]])
    t0 = time.perf_counter()
    vals = np.sort_complex(eigenvalues(M.to_real_matrix()))
    want = np.sort_complex(np.array([1j] * 4 + [-1j] * 4 + [1.0 + 0j] * 8))
    assert np.abs(vals - want).max() <= 1e-9
    # printed coupled pair, exact
    xi = (-E(3) + E(6), 2 * E(7))
    eta = (E(3) + E(6), 2 * E(2))
    assert verify_coupled(M, 0.0, -1.0, xi, eta) == 0.0
    # all four complexified solutions, exact
    printed = [
        ((-(E(1) + E(4)), 2 * ONE), (E(4) - E(1), 2 * E(5))),
        ((ONE + E(5), 2 * E(1)), (ONE - E(5), 2 * E(4))),
        ((E(2) - E(7), -2 * E(3)), (E(2) + E(7), -2 * E(6))),
        ((E(6) - E(3), 2 * E(7)), (E(3) + E(6), 2 * E(2))),
    ]
    for re_parts, im_parts in printed:
        phi = tuple(ComplexOctonion(r, i) for r, i in zip(re_parts, im_parts))
        assert verify_complexified(M, -1j, phi) == 0.0
    # solver equivalence at 1e-9
    coupled = solve_coupled(M)
    complexified = solve_complexified(M)
    got_a = sorted((s.a, s.b) for s in coupled)
    got_b = sorted((s.z.real, abs(s.z.imag)) for s in complexified)
    assert len(got_a) == len(got_b) == 12
    assert max(
        abs(x - u) + abs(y - v) for (x, y), (u, v) in zip(got_a, got_b)
    ) <= 1e-9
    for s in complexified:
        assert verify_coupled(
            M, s.z.real, s.z.imag,
            tuple(p.re for p in s.phi), tuple(p.im for p in s.phi),
        ) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 5 PASS: 2x2 spectra, printed pairs and solver "
          f"equivalence ({elapsed * 1e3:.0f} ms)")


def test_criterion_6_orep_enumeration():
    M = OperatorMatrix([[1, E(1)], [-E(1), 1]])
    claims = enumerate_basis_right_eigs(M, psi_a=E(2))
    assert len(claims) == 10
    lam_by_b = {}
    for c in claims:
        k = c.psi[1].support()[0]
        lam_by_b[(k, float(np.sign(c.psi[1].coeffs[k])))] = c.lam
    expect = {
        (3, 1.0): ZERO, (3, -1.0): 2 * ONE,
        (4, 1.0): ONE - E(7), (4, -1.0): ONE + E(7),
        (5, 1.0): ONE + E(6), (5, -1.0): ONE - E(6),
        (6, 1.0): ONE - E(5), (6, -1.0): ONE + E(5),
        (7, 1.0): ONE + E(4), (7, -1.0): ONE - E(4),
    }
    assert lam_by_b == expect
    print("ACCEPTANCE 6 PASS: exactly the ten basis right-eigensolutions")


def test_criterion_7_hermiticity_lab():
    M = OperatorMatrix([[1, E(4)], [-E(4), 1]])
    psi = (E(5), E(7))
    mpsi = M.apply(list(psi))
    v1 = inner(psi, mpsi)
    v2 = inner(mpsi, psi)
    assert v1 == 2 * ONE - 2 * E(6)
    assert v2 == 2 * ONE + 2 * E(6)
    assert complex_project(v1) == 2 * ONE
    assert complex_project(v2) == 2 * ONE
    rep_e1 = classify(OperatorMatrix([[E(1)]]), COMPLEX_PROJECTED)
    assert rep_e1.classification == "anti-hermitian"
    rep_m = classify(M, FULL)
    assert rep_m.classification == "neither"
    left, right = product_values(M, psi, psi, FULL)
    assert (left, right) == (v1, v2)
    print("ACCEPTANCE 7 PASS: 2 -/+ 2e6 values, projections 2, classifications")


def test_criterion_8_dirac_demo(rng):
    assert dirac_algebra_check()["all_passed"]
    rep = dirac_representation()
    for _ in range(100):
        p = rng.uniform(-3, 3, 3)
        m = float(rng.uniform(0, 3))
        assert dispersion_check(rep, p=p, m=m, tol=1e-12)["ok"]
    print("ACCEPTANCE 8 PASS: Dirac algebra exact, dispersion on 100 random (p, m)")


def test_criterion_9_eigensolver_soundness(rng):
    t0 = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(1, 33))
        A = rng.uniform(-1.0, 1.0, (n, n))
        froA = float(np.sqrt((A * A).sum()))
        Q, T = real_schur(A)
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-10
        resid = Q @ T @ Q.T - A
        assert float(np.sqrt((resid * resid).sum())) <= 1e-9 * max(1.0, froA)
        _, records = schur_eigensystem(A)
        assert records
        assert max(res for (_, _, res) in records) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 9 PASS: 50 random Schur factorizations and eigenpairs "
          f"({elapsed:.2f} s)")


def test_criterion_10_quaternionic_limit():
    M = OperatorMatrix([[1, E(1)], [-E(1), 1]])
    rep = quaternionic_limit_check(M)
    assert rep["quaternionic"] and rep["ok"]
    evs = sorted((round(a, 9), round(b, 9)) for a, b in rep["eigenvalues"])
    assert evs == [(0.0, 0.0), (2.0, 0.0)]
    print("ACCEPTANCE 10 PASS: quaternionic limit clusters {(0,0), (2,0)}")
