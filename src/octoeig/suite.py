"""Regression suite of worked examples with exactly known outcomes.

Every check reproduces a small, hand-verifiable computation (basis
products, operator actions, translated matrices, eigensolutions,
hermiticity values) and returns (ok, detail).  The CLI's ``paper-suite``
command prints one pass/fail line per check and fails if any check
fails; the pytest acceptance module asserts these checks and adds its
timing bounds.
"""

from __future__ import annotations

import numpy as np

from . import dirac, hermiticity
from .eigen import (
    RightEigenClaim,
    coupled_clusters,
    enumerate_basis_right_eigs,
    quaternionic_limit_check,
    solve_coupled,
    verify_complexified,
    verify_coupled,
    verify_right_eigen,
)
from .linalg import cluster_gap, complex_eigen, eigenvalues
from .octonion import ComplexOctonion, Octonion, structure_constant
from .operators import (
    OperatorMatrix,
    basis_rank,
    operator_identity_check,
    parse_word,
)

__all__ = ["run_suite", "CHECKS"]

# the seed of every random draw: two checks here and the CLI's dirac
DEFAULT_SEED = 1729


def _e(k: int) -> Octonion:
    return Octonion.basis(k)


# -- octonion algebra ---------------------------------------------------------


def check_basis_products():
    cases = [
        (_e(1) * _e(2), _e(3), "e1*e2 = e3"),
        (_e(4) * _e(7), _e(3), "e4*e7 = e3"),
        (_e(4) * _e(3), -_e(7), "e4*e3 = -e7"),
    ]
    ok = all(got == want for got, want, _ in cases)
    ok = ok and structure_constant(2, 5) == (1, 7)
    ok = ok and structure_constant(7, 2) == (1, 5)
    ok = ok and structure_constant(3, 3) == (-1, 0)
    return ok, "basis products and structure constants"


def check_complexified_unit_solutions():
    e4 = ComplexOctonion(_e(4))
    minus_i = ComplexOctonion(Octonion.zero(), -Octonion.one())
    pairs = [(_e(4), -Octonion.one()), (_e(5), _e(1)), (_e(6), _e(2)), (_e(7), _e(3))]
    ok = True
    for p1, p2 in pairs:
        phi = ComplexOctonion(p1, p2)
        ok = ok and (e4 * phi) == (phi * minus_i)
    return ok, "e4 Phi = Phi(-i) for the four unit eigenvectors"


# -- operator actions and translation ----------------------------------------


_PSI = Octonion(np.arange(1.0, 9.0))  # generic coefficients 1..8


def check_right_mult_action():
    got = (_PSI * _e(1)).coeffs
    c = _PSI.coeffs
    want = np.array([-c[1], c[0], c[3], -c[2], c[5], -c[4], -c[7], c[6]])
    return bool(np.array_equal(got, want)), "psi e1 coefficient action"


def check_left_mult_action():
    got = (_e(2) * _PSI).coeffs
    c = _PSI.coeffs
    want = np.array([-c[2], c[3], c[0], -c[1], -c[6], -c[7], c[4], c[5]])
    return bool(np.array_equal(got, want)), "e2 psi coefficient action"


def check_word_ordering():
    word = parse_word("L4 R5 R1 L6")
    direct = _e(4) * (((_e(6) * _PSI) * _e(1)) * _e(5))
    ok = word.apply(_PSI) == direct
    m = word.to_matrix()
    ok = ok and bool(np.array_equal(m @ _PSI.coeffs, direct.coeffs))
    return ok, "L4 R5 R1 L6 psi = e4{[(e6 psi)e1]e5}"


def check_mixed_order_actions():
    c = _PSI.coeffs
    r1l3 = (_e(3) * _PSI) * _e(1)
    want1 = np.array([c[2], -c[3], c[0], -c[1], c[6], c[7], -c[4], -c[5]])
    l3r1 = _e(3) * (_PSI * _e(1))
    want2 = np.array([c[2], -c[3], c[0], -c[1], -c[6], -c[7], c[4], c[5]])
    ok = bool(np.array_equal(r1l3.coeffs, want1)) and bool(
        np.array_equal(l3r1.coeffs, want2)
    )
    return ok, "(e3 psi)e1 vs e3(psi e1) differ in the 4..7 block"


def check_operator_identities():
    rep = operator_identity_check()
    ok = rep["all_passed"] and basis_rank() == 64
    return ok, "operator identities and 64-element basis rank"


_E4_MATRIX = np.array(
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
    dtype=np.float64,
)


def check_e4_translation():
    M = OperatorMatrix([[_e(4)]])
    return (
        bool(np.array_equal(M.to_real_matrix(), _E4_MATRIX)),
        "8x8 translation of the 1x1 matrix [e4]",
    )


# -- eigenproblems ------------------------------------------------------------


def check_e4_spectrum():
    vals = eigenvalues(_E4_MATRIX)
    want = np.sort_complex(np.array([1j] * 4 + [-1j] * 4))
    ok = bool(np.max(np.abs(np.sort_complex(vals) - want)) <= 1e-9)
    # the displayed eigenvector (0,0,0,i,0,0,0,1)^t for z = -i is exact
    v = np.zeros(8, dtype=np.complex128)
    v[3] = 1j
    v[7] = 1.0
    ok = ok and bool(np.array_equal(_E4_MATRIX @ v, -1j * v))
    return ok, "spectrum {i, -i} x4 and exact unit eigenvector"


def check_e4_coupled():
    M = OperatorMatrix([[_e(4)]])
    # (xi, eta) = (e7, e3) solves the pair with (a, b) = (0, -1) ...
    ok = verify_coupled(M, 0.0, -1.0, (_e(7),), (_e(3),)) == 0.0
    # ... whose b >= 0 orientation is (e7, -e3)
    ok = ok and verify_coupled(M, 0.0, 1.0, (_e(7),), (-_e(3),)) == 0.0
    clusters = coupled_clusters(M)
    ok = ok and len(clusters) == 1
    c = clusters[0]
    ok = ok and (round(c.a, 9), round(c.b, 9), c.multiplicity) == (0.0, 1.0, 4)
    ok = ok and all(s.residual <= 1e-8 for s in c.solutions)
    return ok, "[e4] coupled pair (e7, e3) and cluster (0,1) x4"


def _ex_2x2() -> OperatorMatrix:
    return OperatorMatrix([[Octonion.one(), _e(4)], [Octonion.zero(), _e(5)]])


def check_2x2_spectrum():
    A = _ex_2x2().to_real_matrix()
    vals = eigenvalues(A)
    want = np.sort_complex(np.array([1j] * 4 + [-1j] * 4 + [1.0 + 0j] * 8))
    ok = bool(np.max(np.abs(np.sort_complex(vals) - want)) <= 1e-9)
    return ok, "16x16 spectrum {i x4, -i x4, 1 x8}"


def check_2x2_coupled_pair():
    M = _ex_2x2()
    xi = (-_e(3) + _e(6), 2 * _e(7))
    eta = (_e(3) + _e(6), 2 * _e(2))
    ok = verify_coupled(M, 0.0, -1.0, xi, eta) == 0.0
    clusters = coupled_clusters(M)
    key = sorted((round(c.a, 9), round(c.b, 9), c.multiplicity) for c in clusters)
    ok = ok and key == [(0.0, 1.0, 4), (1.0, 0.0, 8)]
    return ok, "2x2 coupled pair and clusters {(0,1) x4, (1,0) x8}"


def check_2x2_complexified_solutions():
    M = _ex_2x2()
    one = Octonion.one()
    sols = [
        ((-(_e(1) + _e(4)), 2 * one), (_e(4) - _e(1), 2 * _e(5))),
        ((one + _e(5), 2 * _e(1)), (one - _e(5), 2 * _e(4))),
        ((_e(2) - _e(7), -2 * _e(3)), (_e(2) + _e(7), -2 * _e(6))),
        ((_e(6) - _e(3), 2 * _e(7)), (_e(3) + _e(6), 2 * _e(2))),
    ]
    ok = True
    for re_parts, im_parts in sols:
        phi = tuple(ComplexOctonion(r, i) for r, i in zip(re_parts, im_parts))
        ok = ok and verify_complexified(M, -1j, phi) == 0.0
    # z = 1: (phi1 + i psi1, 0) is a solution for every phi1, psi1
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(5):
        phi1 = ComplexOctonion(
            Octonion(rng.integers(-3, 4, 8)), Octonion(rng.integers(-3, 4, 8))
        )
        phi = (phi1, ComplexOctonion.zero())
        ok = ok and verify_complexified(M, 1.0 + 0j, phi) == 0.0
    return ok, "four z=-i complexified solutions and the z=1 family"


def check_solver_equivalence():
    # the oracle is complex_eigen on the complex translation, folded to
    # b >= 0: solve_complexified solves i-free input by the coupled route
    M = _ex_2x2()
    coupled = solve_coupled(M)
    A = M.to_complex_matrix()
    pairs = [p for p in complex_eigen(A) if p.value.imag >= -cluster_gap(A)]
    a = sorted((s.a, s.b) for s in coupled)
    b = sorted((p.value.real, abs(p.value.imag)) for p in pairs)
    ok = len(a) == len(b) == 12
    ok = ok and max(abs(x - u) + abs(y - v) for (x, y), (u, v) in zip(a, b)) <= 1e-9
    for p in pairs:
        xi = tuple(Octonion(c) for c in p.vector.real.reshape(-1, 8))
        eta = tuple(Octonion(c) for c in p.vector.imag.reshape(-1, 8))
        ok = ok and verify_coupled(M, p.value.real, p.value.imag, xi, eta) <= 1e-8
    return ok, "coupled and complexified spectra agree"


def check_right_eigen_claims():
    M1 = OperatorMatrix([[1, _e(1)], [-_e(1), 1]])
    c1 = verify_right_eigen(M1, RightEigenClaim((_e(2), _e(4)), Octonion.one() - _e(7)))
    M2 = OperatorMatrix([[1, _e(4)], [-_e(4), 1]])
    c2 = verify_right_eigen(M2, RightEigenClaim((_e(5), _e(7)), Octonion.one() - _e(6)))
    return c1.ok and c2.ok, "right-eigenvalue claims 1-e7 and 1-e6"


def check_enumeration():
    M1 = OperatorMatrix([[1, _e(1)], [-_e(1), 1]])
    claims = enumerate_basis_right_eigs(M1, psi_a=_e(2))
    want = {
        (3, 1.0, (0.0,) * 8),
        (3, -1.0, (2.0,) + (0.0,) * 7),
        (4, 1.0, (1, 0, 0, 0, 0, 0, 0, -1)),
        (4, -1.0, (1, 0, 0, 0, 0, 0, 0, 1)),
        (5, 1.0, (1, 0, 0, 0, 0, 0, 1, 0)),
        (5, -1.0, (1, 0, 0, 0, 0, 0, -1, 0)),
        (6, 1.0, (1, 0, 0, 0, 0, -1, 0, 0)),
        (6, -1.0, (1, 0, 0, 0, 0, 1, 0, 0)),
        (7, 1.0, (1, 0, 0, 0, 1, 0, 0, 0)),
        (7, -1.0, (1, 0, 0, 0, -1, 0, 0, 0)),
    }
    got = set()
    for c in claims:
        sup = c.psi[1].support()
        if len(sup) != 1:
            return False, "enumeration produced a non-basis second component"
        k = sup[0]
        got.add((k, float(c.psi[1].coeffs[k]), tuple(float(x) for x in c.lam.coeffs)))
    want = {(k, s, tuple(float(x) for x in lam)) for (k, s, lam) in want}
    ok = got == want and len(claims) == 10
    return ok, "the ten basis right-eigensolutions for psi_a = e2"


def check_quaternionic_limit():
    M1 = OperatorMatrix([[1, _e(1)], [-_e(1), 1]])
    rep = quaternionic_limit_check(M1)
    evs = sorted((round(a, 9), round(b, 9)) for a, b in rep["eigenvalues"])
    ok = rep["ok"] and evs == [(0.0, 0.0), (2.0, 0.0)]
    rep2 = quaternionic_limit_check(OperatorMatrix([[_e(1)]]))
    evs2 = sorted((round(a, 9), round(b, 9)) for a, b in rep2["eigenvalues"])
    ok = ok and rep2["ok"] and evs2 == [(0.0, 1.0)]
    return ok, "quaternionic matrices reduce to right eigenvalues a +- e1 b"


# -- hermiticity --------------------------------------------------------------


def check_inner_product_values():
    M = OperatorMatrix([[1, _e(4)], [-_e(4), 1]])
    psi = (_e(5), _e(7))
    mpsi = M.apply(list(psi))
    v1 = hermiticity.inner(psi, mpsi)
    v2 = hermiticity.inner(mpsi, psi)
    ok = hermiticity.product_values(M, psi, psi, hermiticity.FULL) == (v1, v2)
    ok = ok and v1 == 2 * Octonion.one() - 2 * _e(6)
    ok = ok and v2 == 2 * Octonion.one() + 2 * _e(6)
    ok = ok and hermiticity.complex_project(v1) == 2 * Octonion.one()
    ok = ok and hermiticity.complex_project(v2) == 2 * Octonion.one()
    return ok, "values 2 - 2e6 / 2 + 2e6 and projections 2"


def check_hermiticity_classification():
    e1_op = OperatorMatrix([[_e(1)]])
    r1 = hermiticity.classify(e1_op, hermiticity.COMPLEX_PROJECTED)
    r2 = hermiticity.classify(e1_op, hermiticity.FULL)
    M = OperatorMatrix([[1, _e(4)], [-_e(4), 1]])
    r3 = hermiticity.classify(M, hermiticity.FULL)
    ok = (
        r1.classification == "anti-hermitian"
        and r2.classification == "neither"
        and r2.witness is not None
        and r3.classification == "neither"
        and r3.witness is not None
    )
    return ok, "[e1] projected anti-hermitian; full products fail"


# -- dirac --------------------------------------------------------------------


def check_dirac():
    rows, _ = dirac.dirac_checks(DEFAULT_SEED)
    return all(ok for _, ok in rows), "Dirac algebra, dispersion and doublet orthogonality"


CHECKS = [
    ("basis-products", check_basis_products),
    ("complexified-unit-solutions", check_complexified_unit_solutions),
    ("right-mult-action", check_right_mult_action),
    ("left-mult-action", check_left_mult_action),
    ("word-ordering", check_word_ordering),
    ("mixed-order-actions", check_mixed_order_actions),
    ("operator-identities", check_operator_identities),
    ("e4-translation", check_e4_translation),
    ("e4-spectrum", check_e4_spectrum),
    ("e4-coupled", check_e4_coupled),
    ("2x2-spectrum", check_2x2_spectrum),
    ("2x2-coupled-pair", check_2x2_coupled_pair),
    ("2x2-complexified-solutions", check_2x2_complexified_solutions),
    ("solver-equivalence", check_solver_equivalence),
    ("right-eigen-claims", check_right_eigen_claims),
    ("basis-enumeration", check_enumeration),
    ("quaternionic-limit", check_quaternionic_limit),
    ("inner-product-values", check_inner_product_values),
    ("hermiticity-classification", check_hermiticity_classification),
    ("dirac", check_dirac),
]


def run_suite() -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, ok, detail) triples."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
