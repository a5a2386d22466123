"""Coupled and complexified eigenproblems for octonionic operator matrices.

A real eigenvalue is too restrictive for the translated 8n x 8n real
matrix, which generally has complex eigenvalues z = a + ib.  Splitting
the matrix eigenvector Psi = xi + i*eta into real vectors turns
M Psi = z Psi into the coupled pair of real equations

    M xi  = a xi  - b eta
    M eta = a eta + b xi

whose pieces all translate back to octonions: two real parameters
(a, b) and two octonion vectors (xi, eta) replace one complex
eigenvalue.  Equivalently, adjoining a commuting imaginary unit i to
the octonions lets the same problem be written as O Phi = Phi (a + ib)
with Phi = phi1 + i*phi2 a complexified octonion vector.  For an
i-free matrix that is the coupled pair itself with Phi = xi + i*eta, so
both are solved on the 8n x 8n real translation; only a complexified
matrix (entries with an i part) goes through the 8n x 8n complex
translation and complex_eigen, which realifies it to 16n x 16n.

Also here: exact verification of right-eigenvalue claims
M Psi = Psi lambda (the eigenvalue on the right, where it must sit for
hermitian matrices to stand a chance of real eigenvalues), a brute
force enumerator of basis-vector solutions for 2x2 matrices, and the
quaternionic limit in which the coupled pair collapses onto the
quaternionic right eigenvalue problem with lambda = a + e1 b.

Each eig request translates M once, for its eigenvectors and its
clustering gap.  Each verifier evaluates M on the (n, 8) coefficient rows
of its vectors (xi and eta together) with one ``OperatorMatrix._evaluate``
call, with the products and summation order of octonion arithmetic, so
its residuals are bit-for-bit the octonion-by-octonion ones, and exactly
0.0 on integer data.  The solvers compute the residuals straight from
the rows Re v and Im v of the eigenvectors, stacked: one ``_evaluate``
call and one norm pass per stack of solutions, each stack no larger
than _STACK_SLOTS, where every stacked operation is the per-solution
one, so each residual is the verifier's bit for bit.  Octonions are
built only for the xi and eta the solvers return, and eig_report prints
all the rows with one format_coeffs call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SOLVER_TOL,
    cluster_gap,
    cluster_values,
    complex_eigen,
    schur_eigensystem,
)
from .octonion import CONJ_SIGN, ComplexOctonion, Octonion, format_coeffs, product_matrices
from .operators import OperatorMatrix

__all__ = [
    "CoupledSolution",
    "CoupledCluster",
    "ComplexifiedSolution",
    "RightEigenClaim",
    "RightEigenCheck",
    "solve_coupled",
    "coupled_clusters",
    "verify_coupled",
    "solve_complexified",
    "verify_complexified",
    "coupled_from_complexified",
    "verify_right_eigen",
    "enumerate_basis_right_eigs",
    "quaternionic_limit_check",
    "eig_report",
]


@dataclass
class CoupledSolution:
    """One solution (a, b, xi, eta) of the coupled pair, canonically
    oriented with b >= 0; real eigenvalues carry b = 0 and eta = 0."""

    a: float
    b: float
    xi: tuple
    eta: tuple
    residual: float


@dataclass
class CoupledCluster:
    """Solutions whose (a, b) agree within the clustering gap.

    multiplicity counts the eigenvectors found in the cluster, which is
    at most the geometric multiplicity and can fall short of the
    algebraic one: the defective [[1, 1], [0, 1]] reports 8 where the
    algebraic multiplicity is 16."""

    a: float
    b: float
    multiplicity: int
    solutions: list


@dataclass
class ComplexifiedSolution:
    """O Phi = Phi z with Phi a complexified octonion vector."""

    z: complex
    phi: tuple
    residual: float


@dataclass(frozen=True)
class RightEigenClaim:
    """A claimed solution of M Psi = Psi lambda (eigenvalue on the right)."""

    psi: tuple
    lam: Octonion


@dataclass
class RightEigenCheck:
    ok: bool
    residual: float
    zero_vector: bool


def _chunk_real(rows: np.ndarray) -> tuple:
    """(n, 8) coefficient rows -> n octonions."""
    return tuple(Octonion(c) for c in rows)


def _coeffs(vec) -> np.ndarray:
    """n octonions -> their (n, 8) coefficient rows."""
    return np.array([o.coeffs for o in vec])


def _row_norms(re, im=None) -> np.ndarray:
    """Entrywise norms of residual rows (..., 8): sqrt(r @ r), as
    Octonion.norm computes it, or sqrt(re @ re + im @ im), one dot per
    row.  A row whose largest entry lies outside [2**-500, 2**500] is
    scaled by an exact power of two before squaring and unscaled after,
    so its squares neither overflow nor underflow; other rows are not
    scaled.  Raises ValueError where the residual arithmetic left the
    finite range, as building those octonions would."""
    if not (np.isfinite(re).all() and (im is None or np.isfinite(im).all())):
        raise ValueError("octonion coefficients must be finite")
    parts = (re,) if im is None else (re, im)
    big = np.max([np.abs(r).max(axis=-1) for r in parts], axis=0)
    e = np.where((big > 2.0**500) | (big < 2.0**-500), np.frexp(big)[1], 0)
    sq = 0.0
    for r in parts:
        r = np.ldexp(r, -e[..., None])
        sq = sq + (r[..., None, :] @ r[..., :, None])[..., 0, 0]
    return np.ldexp(np.sqrt(sq), e)


def _require_i_free(M: OperatorMatrix) -> None:
    """Refuse a complexified M, as OperatorMatrix.apply does."""
    if M.complexified:
        raise ValueError("complexified operator matrix acts on complexified vectors")


# The largest _entry_values slot array one residual stack may fill: that
# of one solution (xi and eta) of an n = 8 real matrix, 2 * 64 * 8**2
# floats, so n = 8 stays one solution a stack.  Under tracemalloc, one
# eig_report on the n = 8 dense generalized matrix of
# benchmarks/bench_eigensolver.py peaks at 0.81 MB with this cap, and at
# 9.0 MB with all 35 solutions in one stack.
_STACK_SLOTS = 2 * 64 * 8**2


def _residuals(M: OperatorMatrix, z: np.ndarray, x: np.ndarray, y: np.ndarray,
               method: str) -> np.ndarray:
    """Max entrywise norm of M(xi + i eta) - (xi + i eta) z for k stacked
    solutions, from their eigenvalues z, shape (k,), and the coefficient
    rows x of xi and y of eta, shape (k, n, 8), with M(xi + i eta) from
    one OperatorMatrix._evaluate call.  For method "coupled" each re and
    im row is one octonion of the coupled pair (verify_coupled's norm),
    else each (re, im) pair of rows is one complexified octonion
    (verify_complexified's).  (xi + i eta) z = (x zr - y zi) +
    i (x zi + y zr): an octonion times a real scalar octonion is the
    exact scaling of its coefficients, and IEEE products and sums
    commute, so for z = a + ib these are a x - b y and a y + b x bit for
    bit.  Every operation acts on each solution as on a stack of one, so
    each residual does not depend on the stack it is computed in."""
    m_re, m_im = M._evaluate(x, y)
    zr, zi = z.real[:, None, None], z.imag[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _row_norms
        rows = m_re - (x * zr - y * zi), m_im - (x * zi + y * zr)
    if method == "coupled":
        return _row_norms(np.stack(rows)).max(axis=(0, 2))
    return _row_norms(*rows).max(axis=1)


def verify_coupled(M: OperatorMatrix, a: float, b: float, xi, eta) -> float:
    """Max entrywise octonion-norm residual of the coupled pair.

    Exact (returns 0.0 bit-for-bit) when matrix and vectors are
    integer-valued, since all products and sums then stay exact in
    double precision.
    """
    xi = list(xi)
    eta = list(eta)
    if len(xi) != M.n or len(eta) != M.n:
        raise ValueError(f"vector length != matrix size {M.n}")
    _require_i_free(M)
    z = np.array([complex(float(a), float(b))])
    return float(_residuals(M, z, _coeffs(xi)[None], _coeffs(eta)[None], "coupled")[0])


def _solutions(M: OperatorMatrix, method: str):
    """(gap, z, xy, res) for M: gap the clustering gap of M's translation
    (real for an i-free M, complex otherwise), z the list of eigenvalues,
    one per eigenvector v, stably sorted by (Re z, Im z), xy the (k, 2,
    n, 8) array of the coefficient rows of xi = Re v and eta = Im v, and
    res the list of residuals: verify_coupled's for method "coupled"
    (i-free M only), else verify_complexified's, computed straight from
    those rows in stacks of at most _STACK_SLOTS entry-value slots."""
    if method == "coupled" and M.complexified:
        raise ValueError("solve_coupled needs a real-coefficient operator matrix")
    if M.complexified:
        A = M.to_complex_matrix()
        pairs = [(p.value, p.vector) for p in complex_eigen(A)]
    else:
        A = M.to_real_matrix()
        pairs = [(z, v) for z, v, _ in schur_eigensystem(A)[1]]
    pairs.sort(key=lambda p: (p[0].real, p[0].imag))
    n, k = M.n, len(pairs)
    zs = [z for z, _ in pairs]
    v = np.array([v for _, v in pairs], dtype=np.complex128).reshape(k, n, 8)
    xy = np.stack((v.real, v.imag), axis=1)
    if not M.complexified:
        # v is complex when a real block's vector was orthogonalized
        # against a complex pair of its cluster; Im v is dropped here
        xy[[z.imag == 0.0 for z in zs], 1] = 0.0
    z = np.array(zs, dtype=np.complex128)
    step = max(1, _STACK_SLOTS // (2 * M._parts.shape[0] * 64 * n * n))
    res = []
    for s in range(0, k, step):
        res += _residuals(M, z[s:s + step], xy[s:s + step, 0], xy[s:s + step, 1], method).tolist()
    return cluster_gap(A), zs, xy, res


def _coupled_solution(z: complex, xy: np.ndarray, res: float) -> CoupledSolution:
    """One of _solutions' solutions with xi and eta built as octonions."""
    return CoupledSolution(z.real, z.imag, _chunk_real(xy[0]), _chunk_real(xy[1]), res)


def solve_coupled(M: OperatorMatrix) -> list[CoupledSolution]:
    """All coupled solutions of a real-coefficient operator matrix.

    The matrix is translated to its 8n x 8n real form, every eigenpair
    is computed, and each conjugate-pair representative (b >= 0) is
    split into octonion vectors.  One solution is emitted per computed
    eigenvector (b = 0 solutions count once, b > 0 once per conjugate
    pair), so cluster sizes count independent eigenvectors found, not
    algebraic multiplicities: a defective matrix such as [[1, 1], [0, 1]]
    yields 8 solutions at a = 1 where the algebraic multiplicity is 16.
    Eigenvectors whose relative residual exceeds SOLVER_TOL are dropped.
    """
    _, zs, xy, res = _solutions(M, "coupled")
    return list(map(_coupled_solution, zs, xy, res))


def coupled_clusters(M: OperatorMatrix) -> list[CoupledCluster]:
    """Coupled solutions grouped by (a, b) within the clustering gap."""
    gap, zs, xy, res = _solutions(M, "coupled")
    return [
        CoupledCluster(rep.real, rep.imag, len(idxs),
                       [_coupled_solution(zs[i], xy[i], res[i]) for i in idxs])
        for rep, idxs in cluster_values(zs, gap)
    ]


def verify_complexified(M: OperatorMatrix, z: complex, phi) -> float:
    """Max entrywise norm of O Phi - Phi z."""
    phi = [p if isinstance(p, ComplexOctonion) else ComplexOctonion(p) for p in phi]
    if len(phi) != M.n:
        raise ValueError(f"vector length != matrix size {M.n}")
    x, y = _coeffs(p.re for p in phi), _coeffs(p.im for p in phi)
    return float(_residuals(M, np.array([complex(z)]), x[None], y[None], "complexified")[0])


def solve_complexified(M: OperatorMatrix) -> list[ComplexifiedSolution]:
    """Solve O Phi = Phi z, sorted by (Re z, Im z).

    For an i-free matrix O Phi = Phi (a + ib) with Phi = xi + i eta is
    the coupled pair itself, so it is solved on the 8n x 8n real
    translation as solve_coupled does: one solution per eigenvector,
    with b >= 0, z = a + ib and Phi = xi + i eta bit for bit.  For a
    complexified matrix every eigenpair of the 8n x 8n complex
    translation (complex_eigen) yields one solution.  Either way the
    residual is that of verify_complexified.
    """
    _, zs, xy, res = _solutions(M, "complexified")
    return [
        ComplexifiedSolution(z, tuple(map(ComplexOctonion, _chunk_real(x), _chunk_real(y))), r)
        for z, (x, y), r in zip(zs, xy, res)
    ]


def coupled_from_complexified(sol: ComplexifiedSolution) -> CoupledSolution:
    """Reinterpret O Phi = Phi(a+ib) as the coupled pair with xi, eta the
    two components of Phi = xi + i eta."""
    xi = tuple(p.re for p in sol.phi)
    eta = tuple(p.im for p in sol.phi)
    return CoupledSolution(sol.z.real, sol.z.imag, xi, eta, sol.residual)


def verify_right_eigen(M: OperatorMatrix, claim: RightEigenClaim) -> RightEigenCheck:
    """Check M Psi = Psi lambda with the products parenthesized as
    written: entry actions M_ij(psi_j) summed per row against psi_i *
    lambda.  Exact for integer-valued data; a zero Psi verifies
    vacuously and is flagged."""
    psi = list(claim.psi)
    if len(psi) != M.n:
        raise ValueError(f"vector length != matrix size {M.n}")
    x = _coeffs(psi)
    _require_i_free(M)
    m_psi = M._evaluate(x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _row_norms
        # psi_i lambda = lambda @ P(psi_i): per row the gemv of Octonion.__mul__
        res = float(_row_norms(m_psi - claim.lam.coeffs @ product_matrices(x)).max())
    return RightEigenCheck(ok=(res == 0.0), residual=res, zero_vector=not x.any())


# psi_b = e_0, -e_0, e_1, -e_1, ...: the signs give -0.0 entries, as s * e_k
# does; psi_b^-1 = conj(psi_b) exactly, kept as its product matrix
_SIGNED_UNITS = (np.eye(8)[:, None] * np.array([[1.0], [-1.0]])).reshape(16, 8)
_SIGNED_UNIT_OCTONIONS = tuple(Octonion(u) for u in _SIGNED_UNITS)
_SIGNED_UNIT_INVERSE_P = product_matrices(_SIGNED_UNITS * CONJ_SIGN)


def enumerate_basis_right_eigs(M: OperatorMatrix, psi_a: Octonion | None = None):
    """Brute-force right-eigenvalue solutions of a 2x2 integer matrix
    over basis vectors Psi = (e_j, +-e_k).

    All candidates are checked in one pass: their coefficient rows are
    stacked into one (firsts, 16, 2, 8) array and M Psi is evaluated by
    a single OperatorMatrix._evaluate call.  Each lambda is psi_b^-1
    (M Psi)_1: psi_b is a signed unit, so the product only permutes and
    negates coefficients and lambda is exact, even where psi_a^-1 would
    round.  The claim is kept only if both rows of the same M Psi equal
    Psi lambda exactly, entry for entry.  That holds exactly when
    verify_right_eigen's residual is 0.0, since a finite residual row
    with a non-zero entry has a positive norm; a residual that left the
    finite range, on any candidate, raises ValueError, as that verifier
    does.  Both products are one (1, 8) @ (8, 8) gemv per row,
    Octonion.__mul__'s, so lambda and the residual are bit for bit those
    of octonion arithmetic.  Psi and -Psi give the same lambda and verify
    together, so one claim is listed per +-Psi pair: by default the first
    component runs over e_j for j = 0..7 (128 candidates); passing a
    non-zero psi_a pins it instead (16 candidates).  Claims come in
    (first, second) order.
    """
    if M.n != 2:
        raise ValueError("the basis enumerator handles 2x2 matrices")
    if M.complexified or not M.is_integer_valued():
        raise ValueError("the basis enumerator needs integer octonion entries")
    if psi_a is None:
        firsts = [Octonion.basis(j) for j in range(8)]
    elif psi_a.is_zero():
        raise ValueError("psi_a must be non-zero")
    else:
        firsts = [psi_a]
    x = np.empty((len(firsts), 16, 2, 8))
    x[:, :, 0] = _coeffs(firsts)[:, None]
    x[:, :, 1] = _SIGNED_UNITS
    m_psi = M._evaluate(x)
    # M Psi is finite, so lambda is; Psi lambda can overflow, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        # (firsts, 16, 1, 1, 8): one (1, 8) @ (8, 8) gemv per candidate,
        # then one per row of Psi lambda
        lam = m_psi[:, :, None, 1:] @ _SIGNED_UNIT_INVERSE_P[:, None]
        r = m_psi - (lam @ product_matrices(x))[..., 0, :]
    if not np.isfinite(r).all():
        raise ValueError("octonion coefficients must be finite")
    return [
        RightEigenClaim((firsts[i], _SIGNED_UNIT_OCTONIONS[k]), Octonion(lam[i, k, 0, 0]))
        for i, k in np.argwhere(~r.any(axis=(2, 3)))
    ]


def quaternionic_limit_check(M: OperatorMatrix) -> dict:
    """Check that the coupled problem collapses onto the quaternionic
    right eigenvalue problem when the matrix is quaternionic.

    Requires every entry to be a left multiplication by a quaternion
    (support on 1, e1, e2, e3).  Left multiplication by quaternions
    preserves both the quaternionic subspace and its complement, so
    projecting any coupled solution onto the quaternionic coefficients
    gives a quaternion-valued coupled solution again; each cluster of
    coupled_clusters must own such a witness, and the witness's eta must
    be a right eigenvector M eta = eta (a + mu b) for a unit imaginary
    quaternion mu = eta^-1 xi, the conjugacy representative of a + e1 b,
    up to SOLVER_TOL.
    """
    report = {"quaternionic": True, "clusters": [], "eigenvalues": []}
    if M.complexified:
        reason = "complexified entries"
    elif M._parts[..., 1:, :].any() or M._parts[..., 0, 4:].any():
        reason = "entry outside span(1, e1, e2, e3)"
    else:
        reason = None
    if reason:
        report.update(quaternionic=False, reason=f"not quaternionic: {reason}", ok=False)
        return report
    max_res = 0.0
    all_ok = True
    for c in coupled_clusters(M):
        a, b = c.a, c.b
        entry = {"a": a, "b": b, "multiplicity": c.multiplicity}
        report["clusters"].append(entry)
        # quaternionic witness: the solution with the largest quaternionic
        # projection, projected and normalized
        parts = [np.array([o.coeffs[:4] for o in s.xi + s.eta]) for s in c.solutions]
        norms = [float(np.sqrt((p * p).sum())) for p in parts]
        best = int(np.argmax(norms))
        entry["witness_quaternionic"] = norms[best] > 1e-8
        if not entry["witness_quaternionic"]:
            all_ok = False
            continue
        proj = np.zeros((2 * M.n, 8))
        proj[:, :4] = parts[best] / norms[best]
        xi, eta = _chunk_real(proj[: M.n]), _chunk_real(proj[M.n :])
        entry["coupled_residual"] = verify_coupled(M, a, b, xi, eta)
        if b == 0.0:
            # real eigenvalue: xi is directly a right eigenvector with
            # the real lambda = a
            mu_ok, claim = True, RightEigenClaim(xi, Octonion.from_scalar(a))
        else:
            j = int(np.argmax([o.norm() for o in eta]))
            mu = Octonion.zero() if eta[j].is_zero() else eta[j].inverse() * xi[j]
            mu_ok = abs(mu.real) <= 1e-8 and abs(mu.norm() - 1.0) <= 1e-8
            claim = RightEigenClaim(eta, Octonion.from_scalar(a) + b * mu)
        check = verify_right_eigen(M, claim)
        entry["mu_unit_imaginary"] = mu_ok
        entry["qrep_residual"] = float("inf") if check.zero_vector else check.residual
        max_res = max(max_res, entry["coupled_residual"], entry["qrep_residual"])
        if entry["qrep_residual"] > SOLVER_TOL or not entry["mu_unit_imaginary"]:
            all_ok = False
    report["eigenvalues"] = [(c["a"], c["b"]) for c in report["clusters"]]
    report["max_residual"] = max_res
    report["ok"] = report["quaternionic"] and all_ok
    return report


def eig_report(M: OperatorMatrix, method: str) -> dict:
    """JSON-ready eigenreport: matrix echo and clusters of (a, b) with
    one solution per eigenvector.

    method is "coupled", which needs an i-free matrix, or
    "complexified", which works for both and reports xi = phi1, eta =
    phi2 of Phi = phi1 + i*phi2.  For an i-free matrix both methods
    solve the same 8n x 8n real translation and report the same
    clusters, a, b, xi and eta bit for bit; only the residual differs,
    that of verify_complexified against that of verify_coupled.
    """
    if method not in ("coupled", "complexified"):
        raise ValueError(f"unknown method {method!r}")
    gap, zs, xy, res = _solutions(M, method)
    sols = [{"xi": x, "eta": y, "residual": r} for (x, y), r in zip(format_coeffs(xy), res)]
    return {
        "matrix": M.to_json(),
        "clusters": [
            {
                "a": rep.real,
                "b": rep.imag,
                "multiplicity": len(idxs),
                "solutions": [sols[i] for i in idxs],
            }
            for rep, idxs in cluster_values(zs, gap)
        ],
    }
