"""Self-contained dense eigensolver and linear solves.

Drivers around the kernels in :mod:`octoeig.kernels`: real LU solves
with partial pivoting, real Schur form via Hessenberg reduction plus
implicit double-shift QR, eigenvalues read as the 2x2 blocks of the
quasi-triangular factor are split, eigenvectors back-substituted on the
same factor, and complex
eigenproblems by realification to a doubled real problem.

Everything is deterministic: no step draws random numbers and all
orderings are fixed.  numpy is used for array plumbing only; the
factorizations themselves are the kernels'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    balance_in_place,
    francis_qr,
    hessenberg_in_place,
    lu_factor,
    lu_solve_factored,
    split_real_2x2_blocks,
)

__all__ = [
    "SOLVER_TOL",
    "EigenPair",
    "LinalgError",
    "SingularMatrixError",
    "ConvergenceError",
    "lu_solve",
    "real_schur",
    "eigenvalues",
    "eigenvector",
    "schur_eigensystem",
    "complex_eigen",
    "matrix_rank",
    "cluster_gap",
    "cluster_values",
]

SOLVER_TOL = 1e-8
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_MAX_SWEEPS_PER_N = 40


class LinalgError(Exception):
    pass


class SingularMatrixError(LinalgError):
    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is numerically singular at pivot {pivot_index}")
        self.pivot_index = pivot_index


class ConvergenceError(LinalgError):
    def __init__(self, message: str, lo: int = -1, hi: int = -1):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


@dataclass(eq=False)
class EigenPair:
    """One eigenvalue with a unit-norm eigenvector and its relative
    residual ||A v - z v|| / max(1, ||A||_F)."""

    value: complex
    vector: np.ndarray
    residual: float


def _check_square(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):
        if not np.isfinite(_fro(A)):
            raise ValueError("matrix is too large: its Frobenius norm overflows float64")
    return A


def lu_solve(A, B):
    """Solve A X = B by LU with partial pivoting, for real A and B.

    B may be a vector or a matrix of right-hand sides.  Raises
    SingularMatrixError (with the failing pivot index) when a pivot
    falls below n * eps * ||A||_F.
    """
    A = _check_square(A)
    B = np.asarray(B)
    if np.iscomplexobj(A) or np.iscomplexobj(B):
        raise ValueError("expected a real system; realify complex input first")
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B.reshape(-1, 1)
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, B is {B.shape}")
    n = A.shape[0]
    fac = np.array(A, dtype=np.float64, order="C")
    piv = np.zeros(n, dtype=np.int64)
    fro = _fro(A)
    code = lu_factor(fac, piv)
    if code != 0:
        raise SingularMatrixError(code - 1)
    tol = n * _EPS * fro
    diag = np.abs(np.diagonal(fac))
    small = np.nonzero(diag <= tol)[0]
    if small.size:
        raise SingularMatrixError(int(small[0]))
    X = np.array(B, dtype=np.float64, order="C")
    lu_solve_factored(fac, piv, X)
    return X[:, 0] if vector_rhs else X


def _fro(A) -> float:
    return float(np.sqrt((np.abs(np.asarray(A)) ** 2).sum()))


def _hessenberg_stage(A, balance: bool):
    """The first stage of _schur: balancing, when asked, then Hessenberg
    reduction of a copy of a real square matrix.

    Returns (H, Q, scale, fro): H upper Hessenberg and Q orthogonal with
    D^-1 A D = Q H Q^T, scale the diagonal of the balancing D (all ones
    without balancing), and fro the Frobenius norm of D^-1 A D, which
    francis_qr measures its deflations against.  Refuses a balancing
    that overflows.
    """
    A = _check_square(A)
    if np.iscomplexobj(A):
        raise ValueError("expected a real matrix; use complex_eigen for complex input")
    n = A.shape[0]
    H = np.ascontiguousarray(A, dtype=np.float64).copy()
    Q = np.eye(n)
    scale = np.ones(n)
    if balance:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            balance_in_place(H, scale)
        # balancing scales whole rows, diagonal included, so an entry
        # spread such as [[1e154, 1e-160], [1e150, 1]] can overflow
        if not np.isfinite(H).all():
            raise ValueError("balancing overflowed: the entries span too wide a range")
    fro = _fro(H)
    hessenberg_in_place(H, Q)
    return H, Q, scale, fro


def _qr_stage(H, Q, fro: float):
    """The second stage of _schur: Francis QR plus the 2x2 split, in
    place, turning H into T and accumulating into Q.  Returns T's
    diagonal blocks as split_real_2x2_blocks reads them; raises
    ConvergenceError when QR runs out of sweeps."""
    code, lo, hi = francis_qr(H, Q, _EPS, fro, _MAX_SWEEPS_PER_N)
    if code != 0:
        raise ConvergenceError(
            f"QR iteration did not converge on rows {lo}..{hi} "
            f"after {_MAX_SWEEPS_PER_N * H.shape[0]} sweeps",
            lo,
            hi,
        )
    return split_real_2x2_blocks(H, Q)


def _schur(A, balance: bool):
    """Hessenberg reduction plus Francis QR of a real square matrix.

    Returns (Q, T, scale, blocks) with T quasi-triangular and diagonal
    2x2 blocks left only for complex pairs, Q orthogonal and scale the
    diagonal of the balancing D (all ones without balancing), so that
    D^-1 A D = Q T Q^T.  blocks lists T's diagonal blocks as (start,
    size, values), read as split_real_2x2_blocks sorts them; complex
    pairs are exact mirrors.
    """
    T, Q, scale, fro = _hessenberg_stage(A, balance)
    return Q, T, scale, _qr_stage(T, Q, fro)


def real_schur(A):
    """Real Schur form: orthogonal Q and quasi-triangular T with
    A = Q T Q^T; diagonal 2x2 blocks remain only for complex pairs."""
    Q, T, _, _ = _schur(A, balance=False)
    return Q, T


def _sorted_values(blocks) -> np.ndarray:
    vals = [z for (_, _, vs) in blocks for z in vs]
    vals.sort(key=lambda z: (z.real, -z.imag))
    return np.array(vals, dtype=np.complex128)


def eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a real square matrix, sorted by real part then
    by descending imaginary part; conjugate pairs are exact mirrors."""
    return _sorted_values(_schur(A, balance=True)[3])


def cluster_gap(A) -> float:
    """Absolute gap below which computed eigenvalues are treated as one
    cluster when reporting multiplicities."""
    return max(1e-8, 1e-12 * _fro(A))


def cluster_values(values, gap: float):
    """Union-find clustering of complex values with an absolute gap.

    Returns a list of (representative, indices) with the representative
    being the member closest to the cluster mean; clusters are sorted by
    (Re, Im) of the representative.
    """
    values = list(values)
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= gap:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for idxs in groups.values():
        mean = sum(values[i] for i in idxs) / len(idxs)
        rep = min(idxs, key=lambda i: abs(values[i] - mean))
        clusters.append((values[rep], sorted(idxs)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def _orthogonalize(v, basis):
    for u in basis:
        v = v - np.vdot(u, v) * u
    for u in basis:  # second pass for numerical safety
        v = v - np.vdot(u, v) * u
    return v


def _fix_phase(v):
    """Deterministic phase of a unit vector: first significant entry
    positive real (sign flip for real vectors, phase rotation for
    complex ones)."""
    mags = np.abs(v)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    c = v[idx]
    if np.iscomplexobj(v):
        return v * (c.conjugate() / abs(c))
    return v if c > 0 else -v


def _unit(v):
    """v / ||v||, scaled by its largest entry first so that the squares
    neither overflow nor underflow; None for a zero vector."""
    big = float(np.abs(v).max())
    if big == 0.0:
        return None
    v = v / big
    return v / math.sqrt(np.vdot(v, v).real)


def _residual(A, v, z, fro) -> float:
    """||A v - z v|| / max(1, fro), the residual an EigenPair carries."""
    return float(np.sqrt((np.abs(A @ v - z * v) ** 2).sum())) / max(1.0, fro)


def _raise_pivot(d, smin):
    """d, or smin with the phase of d when |d| < smin."""
    m = abs(d)
    if m >= smin:
        return d
    return smin if m == 0.0 else d / m * smin


def _solve_2x2(c, rhs, smin):
    """Solve the 2x2 system c x = rhs by complete pivoting, raising both
    pivots below smin to smin with their phase (as LAPACK dlaln2)."""
    i, j = divmod(int(np.argmax(np.abs(c))), 2)
    piv = _raise_pivot(c[i, j], smin)
    l = c[1 - i, j] / piv
    u = _raise_pivot(c[1 - i, 1 - j] - l * c[i, 1 - j], smin)
    x = np.empty(2, dtype=np.result_type(c, rhs))
    x[1 - j] = (rhs[1 - i] - l * rhs[i]) / u
    x[j] = (rhs[i] - c[i, 1 - j] * x[1 - j]) / piv
    return x


def _schur_vector(T, Q, scale, blocks, b, z):
    """Unit eigenvector of A = D Q T Q^T D^-1 for the eigenvalue z of the
    diagonal block blocks[b] of T.

    y solves (T - z I) y = 0 by back-substitution over the blocks before
    z's block, last to first (the scheme of LAPACK dtrevc), in real
    arithmetic for real z; then v = D (Q y).  Pivots below
    smin = eps max(|z|, max |T|), and at least the smallest normal
    float, are raised to smin; y is rescaled when its entries pass 1e100.
    """
    smin = max(_EPS * max(abs(z), float(np.abs(T).max())), _TINY)
    if z.imag == 0.0:
        z = z.real
    start, size, _ = blocks[b]
    end = start + size
    y = np.zeros(end, dtype=np.result_type(z))
    if size == 1:
        y[start] = 1.0
    else:
        # a 2x2 block with rows (p, q), (r, s) has the null vectors
        # (q, z - p) and (z - s, r) of B - z I; take the longer one
        (p, q), (r, s) = T[start:end, start:end].tolist()
        y[start:end] = max((q, z - p), (z - s, r), key=lambda x: math.hypot(abs(x[0]), abs(x[1])))
        y /= np.abs(y).max()
    for j, jsize, _ in reversed(blocks[:b]):
        jend = j + jsize
        rhs = -(T[j:jend, jend:end] @ y[jend:end])
        if jsize == 1:
            y[j] = rhs[0] / _raise_pivot(T[j, j] - z, smin)
        else:
            c = T[j:jend, j:jend] - z * np.eye(2)
            y[j:jend] = _solve_2x2(c, rhs, smin)
        big = np.abs(y[j:jend]).max()
        if big > 1e100:
            y /= big
    return _unit(scale * (Q[:, :end] @ y))


def eigenvector(A, z):
    """Unit eigenvector of a real matrix A for the eigenvalue nearest z,
    from its Schur factors.

    Raises ValueError for a non-finite z, and ConvergenceError when the
    relative residual against z is not at most SOLVER_TOL, as for a z
    off the spectrum.
    """
    A = _check_square(A)
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    Q, T, scale, blocks = _schur(A, balance=True)
    b, w = min(
        ((b, w) for b, (_, _, vs) in enumerate(blocks) for w in vs),
        key=lambda bw: abs(bw[1] - z),
    )
    v = _schur_vector(T, Q, scale, blocks, b, w)
    res = _residual(A, v, z, _fro(A))
    if not res <= SOLVER_TOL:
        raise ConvergenceError(f"no eigenvector for z={z}: residual {res:.3e}")
    return _fix_phase(v)


def schur_eigensystem(A):
    """Eigenvalues plus one eigenvector per Schur block of a real matrix.

    Returns (values, records).  `values` is the full sorted eigenvalue
    multiset (length n).  `records` holds one (z, vector, residual) per
    diagonal block with Im z >= 0: complex conjugate pairs are
    represented once.  The vectors come from the same Schur factors as
    the values.  Within a cluster of close eigenvalues the vectors are
    mutually orthogonalized so multiplicities yield independent
    eigenvectors; records whose relative residual exceeds SOLVER_TOL
    (possible only for defective clusters) are dropped.
    """
    A = _check_square(A)
    fro = _fro(A)
    Q, T, scale, blocks = _schur(A, balance=True)
    values = _sorted_values(blocks)
    reps = [vs[0] for (_, _, vs) in blocks]  # the Im >= 0 value of each block
    records = []
    for rep, idxs in cluster_values(reps, cluster_gap(A)):
        found = []
        for b in idxs:
            z = reps[b]
            v = _unit(_orthogonalize(_schur_vector(T, Q, scale, blocks, b, z), found))
            res = np.inf if v is None else _residual(A, v, z, fro)
            if res <= SOLVER_TOL:
                found.append(v)
                records.append((z, _fix_phase(v), res))
    return values, records


def _mgs_basis(vectors):
    """Orthonormal basis of the numerically independent span, by
    modified Gram-Schmidt with norm pivoting; a remaining norm of at
    most 1e-6 counts as dependent."""
    work = [np.array(v, dtype=np.complex128) for v in vectors]
    basis = []
    while work:
        norms = [float(np.sqrt(np.vdot(w, w).real)) for w in work]
        j = int(np.argmax(norms))
        if norms[j] <= 1e-6:
            break
        u = work.pop(j) / norms[j]
        basis.append(u)
        work = [w - np.vdot(u, w) * u for w in work]
    return basis


def complex_eigen(A):
    """All eigenpairs of a complex square matrix.

    A = X + iY is realified to the doubled real matrix [[X, -Y], [Y, X]]
    whose spectrum is {z} united with {conj(z)}; the eigenvalues of A are
    recovered from the structure of the embedded eigenvectors (a vector
    (p, q) of the doubled problem maps to p + iq), never by discarding
    negative imaginary parts.  Returns one EigenPair per eigenvector
    found, sorted by (Re, -Im), and drops those whose residual against
    their cluster's value exceeds SOLVER_TOL, as schur_eigensystem does.
    """
    A = _check_square(A)
    m = A.shape[0]
    Ac = np.ascontiguousarray(A, dtype=np.complex128)
    R = np.block([[Ac.real, -Ac.imag], [Ac.imag, Ac.real]])
    _, records = schur_eigensystem(R)
    froA = _fro(Ac)
    gap = cluster_gap(R)

    pairs = []
    for rep, idxs in cluster_values([z for (z, _, _) in records], gap):
        ws = [records[i][1] for i in idxs]
        k = len(ws)
        if rep.imag > gap:
            plus = _mgs_basis([0.5 * (w[:m] + 1j * w[m:]) for w in ws])[:k]
            minus = _mgs_basis([0.5 * (w[:m] - 1j * w[m:]) for w in ws])[: k - len(plus)]
            found = [(rep, u) for u in plus] + [(rep.conjugate(), np.conj(u)) for u in minus]
        else:
            # real eigenvalue of the doubled problem: multiplicity is even
            # and the embedded vectors span the eigenspace of A twice over
            emb = [w[:m].astype(np.complex128) + 1j * w[m:] for w in ws]
            found = [(rep, u) for u in _mgs_basis(emb)[: max(1, k // 2)]]
        for z, u in found:
            u = _fix_phase(u)
            pairs.append(EigenPair(z, u, _residual(Ac, u, z, froA)))
    pairs = [p for p in pairs if p.residual <= SOLVER_TOL]
    pairs.sort(key=lambda p: (p.value.real, -p.value.imag))
    return pairs


def matrix_rank(M) -> int:
    """Numerical rank by Gaussian elimination with full pivoting; pivots
    at or below 8 max(rows, cols) eps max(1, max |M|) count as zero."""
    B = np.array(M, dtype=np.float64, copy=True)
    if B.ndim != 2:
        raise ValueError("matrix_rank expects a 2-d array")
    rows, cols = B.shape
    scale = float(np.abs(B).max()) if B.size else 0.0
    tol = max(rows, cols) * _EPS * max(1.0, scale) * 8.0
    rank = 0
    r0 = 0
    c0 = 0
    while r0 < rows and c0 < cols:
        sub = np.abs(B[r0:, c0:])
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i, j] <= tol:
            break
        i += r0
        j += c0
        B[[r0, i], :] = B[[i, r0], :]
        B[:, [c0, j]] = B[:, [j, c0]]
        f = B[r0 + 1:, c0] / B[r0, c0]
        nz = f != 0.0
        B[r0 + 1:, c0:][nz] -= np.multiply.outer(f[nz], B[r0, c0:])
        rank += 1
        r0 += 1
        c0 += 1
    return rank
