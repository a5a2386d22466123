"""Metamorphic oracles from the octonion automorphisms that permute the
units e1..e7 up to sign (conftest.AUTOMORPHISMS).

An automorphism g maps an operator matrix M, entry by entry, to g(M),
and every statement about M to the same statement about g(M): g(m x) =
g(m) g(x), and g commutes with conjugation, so the translation of g(M)
is a signed permutation of M's and the inner products of g-images are
the g-images of the inner products.  Whatever is exact must therefore
not change: the hermiticity labels (under the projected product only for
the g that fix e1, which keep the (1, e1) plane), the number of basis
right-eigen claims and whether Francis QR converges on the seeded draws
below.  The cluster sizes of an eig report should not change either, but
they do today (ROADMAP item 7).
"""

import numpy as np
import pytest

from octoeig import COMPLEX_PROJECTED, FULL, ConvergenceError, Octonion, OperatorMatrix, classify
from octoeig.eigen import eig_report, enumerate_basis_right_eigs
from octoeig.octonion import MUL_TENSOR

from conftest import AUTOMORPHISMS, E1_AUTOMORPHISMS

UNITS = np.eye(8)
ZERO = np.zeros(8)
# [[0, 1], [-1, 0]] is anti-hermitian under the full product, which no
# seeded draw below gives; [[1, e1], [-e1, 1]] is the suite's hermitian
# matrix, with basis right-eigen claims
FIXED_GRIDS = [
    np.array([[ZERO, UNITS[0]], [-UNITS[0], ZERO]]),
    np.array([[UNITS[0], UNITS[1]], [-UNITS[1], UNITS[0]]]),
]


def signed_unit_grid(rng, n, kind="plain"):
    """(n, n, 8) coefficients of left multiplications by 0 (a quarter of
    the time) or a signed unit; "hermitian" mirrors the upper triangle as
    conjugates below a real diagonal, "anti" as negated conjugates above
    an imaginary one."""
    grid = np.zeros((n, n, 8))
    for i in range(n):
        for j in range(n):
            if rng.random() >= 0.25:
                grid[i, j, rng.integers(8)] = rng.choice((-1.0, 1.0))
    if kind == "plain":
        return grid
    conj = grid * np.where(np.arange(8) == 0, 1.0, -1.0)
    sign = 1.0 if kind == "hermitian" else -1.0
    lower = np.tril_indices(n, -1)
    grid[lower] = sign * conj.transpose(1, 0, 2)[lower]
    diag = np.arange(n)
    grid[diag, diag] = 0.5 * (grid[diag, diag] + sign * conj[diag, diag])
    return grid


def operator(grid):
    return OperatorMatrix([[Octonion(c) for c in row] for row in grid])


def image(g, grid):
    """The coefficients of g(M) for M given by grid."""
    return grid @ g.T


def eig_converges(M):
    try:
        eig_report(M, "coupled")
    except ConvergenceError:
        return False
    return True


def cluster_sizes(M):
    report = eig_report(M, "coupled")
    return sorted(
        (round(c["a"], 6) + 0.0, round(c["b"], 6) + 0.0, c["multiplicity"])
        for c in report["clusters"]
    )


def test_the_automorphisms():
    # 1344 distinct signed permutations fixing 1, each with
    # g(e_a) g(e_b) = g(e_a e_b); the 96 of them that fix e1
    assert len(AUTOMORPHISMS) == 1344
    assert len({g.tobytes() for g in AUTOMORPHISMS}) == 1344
    assert (np.abs(AUTOMORPHISMS).sum(axis=1) == 1.0).all()
    assert (AUTOMORPHISMS[:, :, 0] == UNITS[0]).all()
    lhs = np.einsum("gia,gjb,ijk->gabk", AUTOMORPHISMS, AUTOMORPHISMS, MUL_TENSOR)
    rhs = np.einsum("abc,gkc->gabk", MUL_TENSOR, AUTOMORPHISMS)
    assert np.array_equal(lhs, rhs)
    assert len(E1_AUTOMORPHISMS) == 96
    assert (E1_AUTOMORPHISMS[:, :, 1] == UNITS[1]).all()


@pytest.mark.parametrize("seed", range(3))
def test_hermiticity_labels(seed):
    rng = np.random.default_rng(seed)
    grids = FIXED_GRIDS + [
        signed_unit_grid(rng, int(rng.integers(1, 3)), kind)
        for kind in ("plain", "hermitian", "anti") * 4
    ]
    seen = set()
    for grid in grids:
        for product, group in ((FULL, AUTOMORPHISMS), (COMPLEX_PROJECTED, E1_AUTOMORPHISMS)):
            want = classify(operator(grid), product).classification
            seen.add((product, want))
            for g in group[rng.choice(len(group), 6, replace=False)]:
                assert classify(operator(image(g, grid)), product).classification == want
    assert len(seen) == 6  # every label under both products


@pytest.mark.parametrize("seed", range(3))
def test_enumerate_claim_counts(seed):
    rng = np.random.default_rng(100 + seed)
    counts = []
    for grid in FIXED_GRIDS + [signed_unit_grid(rng, 2) for _ in range(8)]:
        want = len(enumerate_basis_right_eigs(operator(grid)))
        counts.append(want)
        for g in AUTOMORPHISMS[rng.choice(1344, 6, replace=False)]:
            assert len(enumerate_basis_right_eigs(operator(image(g, grid)))) == want
    assert min(counts) == 0 and max(counts) > 0


def test_eig_convergence_status():
    rng = np.random.default_rng(200)
    for _ in range(12):
        grid = signed_unit_grid(rng, int(rng.integers(1, 3)))
        want = eig_converges(operator(grid))
        for g in AUTOMORPHISMS[rng.choice(1344, 2, replace=False)]:
            assert eig_converges(operator(image(g, grid))) == want


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: known defect 3, [[e7, 0], [-e4, 1]], stalls in Francis "
    "QR but most of its automorphic images converge",
)
def test_eig_convergence_status_of_a_stalled_matrix():
    grid = np.array([[UNITS[7], ZERO], [-UNITS[4], UNITS[0]]])
    want = eig_converges(operator(grid))
    rng = np.random.default_rng(300)
    for g in AUTOMORPHISMS[rng.choice(1344, 4, replace=False)]:
        assert eig_converges(operator(image(g, grid))) == want


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: eig splits an eigenvalue's vectors into clusters, and "
    "loses some, differently for automorphic images",
)
def test_eig_cluster_sizes():
    # [[e2, 0], [e3, -e2]] reports +i as eight clusters of one; most of
    # its images report other splits, with seven vectors in all
    rng = np.random.default_rng(400)
    grids = [np.array([[UNITS[2], ZERO], [UNITS[3], -UNITS[2]]])]
    grids += [signed_unit_grid(rng, 2) for _ in range(3)]
    for grid in grids:
        want = cluster_sizes(operator(grid))
        for g in AUTOMORPHISMS[rng.choice(1344, 4, replace=False)]:
            assert cluster_sizes(operator(image(g, grid))) == want
