"""Octonionic inner products and (anti-)hermiticity classification.

The inner product of two octonion vectors is the octonion
sum_k conj(psi_k) * phi_k, parenthesized exactly as written.  Because
octonions do not associate, a hermitian MATRIX does not generally act
as a hermitian OPERATOR under this product: <psi, M psi> and
<M psi, psi> can differ in their imaginary parts.

Projecting the product onto the complex plane spanned by (1, e1),

    [o]_C = (o - e1 (o e1)) / 2,

repairs this for e1: under the projected product e1 is anti-hermitian.
As e1 (e_k e1) is -e_k for k = 0, 1 and e_k otherwise, [o]_C is o
with coefficients 2..7 zeroed, and is computed that way.

``classify`` decides hermitian / anti-hermitian / neither for an
operator matrix over all pairs of single-entry basis vectors
psi = e_a at slot s, phi = e_b at slot t; real bilinearity makes the
basis check conclusive.  It evaluates every pair at once from the
8n x 8n real translation A, whose column 8t + b in block row s holds
the coefficients of M_st(e_b):

    <e_a@s, O e_b@t> = conj(e_a) M_st(e_b),
    <O e_a@s, e_b@t> = conj(M_ts(e_a)) e_b.

Multiplying by a basis unit (after conjugation) only permutes
coefficients and flips signs, so both sides of all (8n)^2 pairs are
signed gathers from A, exact and finite; the projected product gathers
coefficients 0 and 1 only.  A gather keeps a -0.0 that the object sums
of ``product_values`` turn into +0.0, so the witness of a 'neither'
report is read off the arrays with its zeros made +0.0 (a projected
side padded with +0.0): it equals ``product_values`` bit for bit.

The projected classes follow from <x, y> = Re(conj(x) y) and
Re(x (y z)) = Re((x y) z).  With J = I_n (x) R_e1, coefficients 0 and
1 of the two sides of pair (8s + a, 8t + b) are

    <e_a, M_st(e_b)> = A,        <e_a e1, M_st(e_b)> = J^T A,
    <M_ts(e_a), e_b> = A^T,      <M_ts(e_a) e1, e_b> = A^T J^T

at that place.  So, as J^T = -J, the projected product is hermitian
iff A is symmetric and commutes with J, and anti-hermitian iff A is
antisymmetric and commutes with J.  The symmetric matrices that
commute with J form the 4n x 4n complex hermitian matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import coupled_clusters
from .octonion import CONJ_SIGN, LEFT_UNITS, RIGHT_UNITS, Octonion, _gather
from .operators import OperatorMatrix

__all__ = [
    "FULL",
    "COMPLEX_PROJECTED",
    "HermiticityReport",
    "inner",
    "complex_project",
    "product_values",
    "classify",
    "hermitian_spectrum_theorem_check",
    "survey_imaginary_units",
]

FULL = "full"
COMPLEX_PROJECTED = "complex-projected"
# a hermitian operator's coupled spectrum has |b| at most this
_REAL_SPECTRUM_TOL = 1e-9


def _check_kind(kind: str) -> None:
    if kind not in (FULL, COMPLEX_PROJECTED):
        raise ValueError(f"unknown product kind {kind!r}")


@dataclass
class HermiticityReport:
    kind: str
    classification: str  # 'hermitian' | 'anti-hermitian' | 'neither'
    # witness pair (psi, phi, left value, right value) present iff 'neither';
    # it exhibits <psi, O phi> != <O psi, phi>
    witness: tuple | None = None


def inner(psi, phi) -> Octonion:
    """Octonionic inner product sum_k conj(psi_k) * phi_k."""
    psi = list(psi)
    phi = list(phi)
    if len(psi) != len(phi):
        raise ValueError(f"length mismatch: {len(psi)} vs {len(phi)}")
    acc = Octonion.zero()
    for p, q in zip(psi, phi):
        acc = acc + p.conj() * q
    return acc


def complex_project(o: Octonion) -> Octonion:
    """Projection onto the complex plane (1, e1), (o - e1 (o e1)) / 2:
    coefficients 0 and 1 of o, the rest +0.0."""
    return Octonion(np.concatenate((o.coeffs[:2], np.zeros(6))))


# row a: q -> conj(e_a) q and row b: r -> conj(r) e_b, as gathers
_LEFT_GATHER = _gather(CONJ_SIGN[:, None, None] * LEFT_UNITS)
_RIGHT_GATHER = _gather(RIGHT_UNITS * CONJ_SIGN)


def _basis_vector(n: int, index: int) -> tuple:
    """Single-entry vector e_{index % 8} at slot index // 8."""
    vec = [Octonion.zero()] * n
    vec[index // 8] = Octonion.basis(index % 8)
    return tuple(vec)


def product_values(op: OperatorMatrix, psi, phi,
                   kind: str = FULL) -> tuple[Octonion, Octonion]:
    """The two sides compared by the hermiticity definitions:
    <psi, O phi> and <O psi, phi>, optionally complex-projected."""
    _check_kind(kind)
    left = inner(psi, op.apply(list(phi)))
    right = inner(op.apply(list(psi)), phi)
    if kind == COMPLEX_PROJECTED:
        left = complex_project(left)
        right = complex_project(right)
    return left, right


def _basis_pair_values(op: OperatorMatrix, kind: str):
    """Both sides of the hermiticity definitions for every basis pair, as
    arrays [p, q, k]: psi = e_{p % 8} at slot p // 8, phi likewise for q,
    k the coefficient of the product (0 and 1 only when projected)."""
    n = op.n
    A = op.to_real_matrix().reshape(n, 8, n, 8)  # A[s, c, t, b] = M_st(e_b)_c
    k = 2 if kind == COMPLEX_PROJECTED else 8  # the projection keeps 0 and 1
    li, ls = (t[:, :k] for t in _LEFT_GATHER)
    ri, rs = (t[:, :k] for t in _RIGHT_GATHER)
    # conj(e_a) M_st(e_b): gathered as [s, a, k, t, b]
    left = (A[:, li] * ls[:, :, None, None]).transpose(0, 1, 3, 4, 2)
    # conj(M_ts(e_a)) e_b, from A.transpose = M_ts(e_a)_c as [s, a, t, c]
    right = A.transpose(2, 3, 0, 1)[..., ri] * rs
    return left.reshape(8 * n, 8 * n, k), right.reshape(8 * n, 8 * n, k)


def classify(op: OperatorMatrix, kind: str = FULL) -> HermiticityReport:
    """Classify an operator matrix as hermitian, anti-hermitian or
    neither under the chosen product, over all pairs of single-entry
    basis vectors at once (exact for integer entries).

    The zero operator counts as hermitian.  A 'neither' report carries
    the first pair, in (psi, phi) scan order, at which the two sides
    differ, with the values ``product_values`` gives for it: they are
    read off the pair arrays, with each -0.0 coefficient made +0.0 as
    the object sums make it, so they match bit for bit.  Under the
    projected product only coefficients 0 and 1 are compared.  Every
    finite matrix gets a verdict: the sides are signed gathers of its
    translation, so no product overflows.
    """
    _check_kind(kind)
    if op.complexified:
        raise ValueError("classification handles real-coefficient operator matrices")
    left, right = _basis_pair_values(op, kind)
    differs = np.any(left != right, axis=-1)
    if not differs.any():
        return HermiticityReport(kind, "hermitian")
    if np.array_equal(left, -right):
        return HermiticityReport(kind, "anti-hermitian")
    p, q = np.unravel_index(int(np.argmax(differs)), differs.shape)
    psi = _basis_vector(op.n, int(p))
    phi = _basis_vector(op.n, int(q))
    sides = np.zeros((2, 8))  # a projected side is padded with +0.0
    sides[:, :left.shape[-1]] = left[p, q], right[p, q]
    sides += 0.0  # the gathers keep -0.0 where product_values' sums give +0.0
    witness = (psi, phi, Octonion(sides[0]), Octonion(sides[1]))
    return HermiticityReport(kind, "neither", witness)


def hermitian_spectrum_theorem_check(op: OperatorMatrix) -> dict:
    """If the operator classifies as hermitian under the full product,
    its coupled spectrum must be real: every cluster has |b| at most
    1e-9."""
    report = classify(op, FULL)
    out = {
        "classification": report.classification,
        "applicable": report.classification == "hermitian",
    }
    if not out["applicable"]:
        out["ok"] = True  # nothing to check; the theorem's premise fails
        return out
    clusters = coupled_clusters(op)
    out["clusters"] = [(c.a, c.b, c.multiplicity) for c in clusters]
    out["max_abs_b"] = max((abs(c.b) for c in clusters), default=0.0)
    out["real_spectrum"] = out["max_abs_b"] <= _REAL_SPECTRUM_TOL
    out["ok"] = out["real_spectrum"]
    return out


def survey_imaginary_units(kind: str = COMPLEX_PROJECTED) -> dict:
    """Classification of each left-multiplication operator [e_m] under
    the chosen product.  Under the (1, e1)-projected product only e1
    comes out anti-hermitian, as the module docstring's criterion
    gives: L_{e_m} is antisymmetric, and it commutes with R_e1 iff
    (e_m x) e1 = e_m (x e1) for every x, which flexibility gives for
    m = 1 and an associator rules out for every other m."""
    return {
        m: classify(OperatorMatrix([[Octonion.basis(m)]]), kind).classification
        for m in range(1, 8)
    }
