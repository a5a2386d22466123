"""Acceptance criteria, one test per criterion at its stated tolerance.

The worked examples live once, in ``octoeig.suite``: each criterion
asserts its suite checks and adds only what the suite lacks (the
structure table, the L2/R1 matrix goldens, the timing bounds and the
random Schur factorizations).  Each test prints one PASS line (run with
-s or see captured output); a failing criterion fails its test.  Timed
criteria measure algorithm time only.
"""

import time

import numpy as np

from octoeig import Octonion, real_schur, structure_constant, suite
from octoeig.linalg import schur_eigensystem
from octoeig.octonion import left_mul_matrix, right_mul_matrix

E = Octonion.basis

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


def _assert_checks(*checks):
    for check in checks:
        ok, detail = check()
        assert ok, f"{check.__name__}: {detail}"


def test_criterion_1_structure_table_fidelity():
    _assert_checks(suite.check_basis_products)
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
    _assert_checks(suite.check_right_mult_action, suite.check_left_mult_action,
                   suite.check_mixed_order_actions, suite.check_word_ordering)
    psi = Octonion(np.arange(1.0, 9.0))
    # R1 matrix (the printed matrix's two bad rows are overruled by the action)
    assert np.array_equal(right_mul_matrix(E(1).coeffs) @ psi.coeffs, (psi * E(1)).coeffs)
    # L2 and its displayed matrix
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
    assert np.array_equal(left_mul_matrix(E(2).coeffs), want_l2)
    print("ACCEPTANCE 2 PASS: R1, L2, R1L3, L3R1 actions and matrices exact")


def test_criterion_3_operator_identities_and_rank():
    t0 = time.perf_counter()
    _assert_checks(suite.check_operator_identities)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS: exact operator identities, basis rank 64 "
          f"({elapsed * 1e3:.0f} ms)")


def test_criterion_4_e4_eigenproblem():
    _assert_checks(suite.check_e4_translation, suite.check_e4_spectrum,
                   suite.check_e4_coupled, suite.check_complexified_unit_solutions)
    print("ACCEPTANCE 4 PASS: [e4] spectrum {i,-i} x4, coupled pair (e7, e3) exact")


def test_criterion_5_2x2_eigenproblem():
    t0 = time.perf_counter()
    _assert_checks(suite.check_2x2_spectrum, suite.check_2x2_coupled_pair,
                   suite.check_2x2_complexified_solutions, suite.check_solver_equivalence)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 5 PASS: 2x2 spectra, printed pairs and solver "
          f"equivalence ({elapsed * 1e3:.0f} ms)")


def test_criterion_6_orep_enumeration():
    _assert_checks(suite.check_enumeration, suite.check_right_eigen_claims)
    print("ACCEPTANCE 6 PASS: exactly the ten basis right-eigensolutions")


def test_criterion_7_hermiticity_lab():
    _assert_checks(suite.check_inner_product_values, suite.check_hermiticity_classification)
    print("ACCEPTANCE 7 PASS: 2 -/+ 2e6 values, projections 2, classifications")


def test_criterion_8_dirac_demo():
    _assert_checks(suite.check_dirac)
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
    _assert_checks(suite.check_quaternionic_limit)
    print("ACCEPTANCE 10 PASS: quaternionic limit clusters {(0,0), (2,0)}")
