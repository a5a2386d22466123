"""Self-contained dense eigensolver and linear solves.

Drivers around the kernels in :mod:`octoeig.kernels`: LU solves with
partial pivoting, real Schur form via Hessenberg reduction plus
implicit double-shift QR, eigenvalue extraction from the quasi-
triangular factor, eigenvectors by inverse iteration, and complex
eigenproblems by realification to a doubled real problem.

Everything is deterministic given a seed: inverse iteration starts from
a seeded generator and all orderings are fixed.  numpy is used for
array plumbing only; the factorizations themselves are the kernels'.
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
    scaled_2x2_block,
    split_real_2x2_blocks,
)

__all__ = [
    "DEFAULT_SEED",
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

DEFAULT_SEED = 1729
SOLVER_TOL = 1e-8
_EPS = float(np.finfo(np.float64).eps)
_MAX_SWEEPS_PER_N = 40
_INVERSE_ITERATIONS = 10


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
    """Solve A X = B by LU with partial pivoting.

    B may be a vector or a matrix of right-hand sides.  Raises
    SingularMatrixError (with the failing pivot index) when a pivot
    falls below n * eps * ||A||_F.
    """
    A = _check_square(A)
    B = np.asarray(B)
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B.reshape(-1, 1)
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, B is {B.shape}")
    dtype = np.promote_types(np.promote_types(A.dtype, B.dtype), np.float64)
    n = A.shape[0]
    fac = np.ascontiguousarray(A, dtype=dtype).copy()
    piv = np.zeros(n, dtype=np.int64)
    fro = _fro(A)
    code = lu_factor(fac, piv, 0.0)
    if code != 0:
        raise SingularMatrixError(code - 1)
    tol = n * _EPS * fro
    diag = np.abs(np.diagonal(fac))
    small = np.nonzero(diag <= tol)[0]
    if small.size:
        raise SingularMatrixError(int(small[0]))
    X = np.ascontiguousarray(B, dtype=dtype).copy()
    lu_solve_factored(fac, piv, X)
    return X[:, 0] if vector_rhs else X


def _fro(A) -> float:
    return float(np.sqrt((np.abs(np.asarray(A)) ** 2).sum()))


def _schur(A, balance: bool):
    """Hessenberg reduction plus Francis QR of a real square matrix.

    Returns (Q, T) with T quasi-triangular and diagonal 2x2 blocks left
    only for complex pairs.  Without balancing A = Q T Q^T with Q
    orthogonal; with balancing the same holds for D^-1 A D, where D is
    the balancing scaling, so only T is meaningful to callers.
    """
    A = _check_square(A)
    if np.iscomplexobj(A):
        raise ValueError("expected a real matrix; use complex_eigen for complex input")
    n = A.shape[0]
    T = np.ascontiguousarray(A, dtype=np.float64).copy()
    Q = np.eye(n)
    if n <= 1:
        return Q, T
    if balance:
        balance_in_place(T, np.ones(n))
    fro = _fro(T)
    hessenberg_in_place(T, Q)
    code, lo, hi = francis_qr(T, Q, _EPS, fro, _MAX_SWEEPS_PER_N)
    if code != 0:
        raise ConvergenceError(
            f"QR iteration did not converge on rows {lo}..{hi} "
            f"after {_MAX_SWEEPS_PER_N * n} sweeps",
            lo,
            hi,
        )
    split_real_2x2_blocks(T, Q)
    return Q, T


def real_schur(A):
    """Real Schur form: orthogonal Q and quasi-triangular T with
    A = Q T Q^T; diagonal 2x2 blocks remain only for complex pairs."""
    return _schur(A, balance=False)


def _read_blocks(T):
    """Diagonal blocks of a quasi-triangular T as (start, size, values).

    Complex pairs are emitted as exact mirrors: a + ib and a - ib share
    the bitwise-identical a and b.
    """
    n = T.shape[0]
    blocks = []
    k = 0
    while k < n:
        if k < n - 1 and T[k + 1, k] != 0.0:
            e, p, qq, r, s, disc = scaled_2x2_block(T, k)
            if disc < 0.0:
                a = np.ldexp(0.5 * (p + s), e)
                b = np.ldexp(0.5 * math.sqrt(-disc), e)
                blocks.append((k, 2, (complex(a, b), complex(a, -b))))
            else:
                # a real pair that split_real_2x2_blocks left whole: both
                # forms of its eigenvector have squares that underflow even
                # in the scaled block, which needs off-diagonal entries
                # below about 1e-162 of the block's largest entry.  Francis
                # QR deflates such a block in larger matrices, so only a
                # 2x2 input such as [[1, 1e-170], [1e-170, 1]] gets here.
                sq = math.sqrt(disc)
                l1 = 0.5 * ((p + s) + sq) if p + s >= 0.0 else 0.5 * ((p + s) - sq)
                l2 = (p * s - qq * r) / l1 if l1 != 0.0 else 0.5 * ((p + s) - sq)
                l1, l2 = np.ldexp(l1, e), np.ldexp(l2, e)
                blocks.append((k, 2, (complex(l1, 0.0), complex(l2, 0.0))))
            k += 2
        else:
            blocks.append((k, 1, (complex(T[k, k], 0.0),)))
            k += 1
    return blocks


def _sorted_values(blocks) -> np.ndarray:
    vals = [z for (_, _, vs) in blocks for z in vs]
    vals.sort(key=lambda z: (z.real, -z.imag))
    return np.array(vals, dtype=np.complex128)


def eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a real square matrix, sorted by real part then
    by descending imaginary part; conjugate pairs are exact mirrors."""
    _, T = _schur(A, balance=True)
    return _sorted_values(_read_blocks(T))


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
    """Deterministic normalization: unit norm, first significant entry
    positive real (sign flip for real vectors, phase rotation for
    complex ones)."""
    nrm = float(np.sqrt(np.vdot(v, v).real))
    if nrm == 0.0:
        return v
    v = v / nrm
    mags = np.abs(v)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    c = v[idx]
    if np.iscomplexobj(v):
        return v * (c.conjugate() / abs(c))
    return v if c > 0 else -v


def _random_start(rng, n, dtype):
    """Seeded start vector: real normal draws, plus an imaginary part
    drawn after them for a complex dtype."""
    v = rng.standard_normal(n)
    if dtype == np.complex128:
        v = v + 1j * rng.standard_normal(n)
    return v.astype(dtype)


def _inverse_iteration(A, z, rng, ortho, fro):
    """One eigenvector of A for shift z, orthogonal to `ortho`.

    Returns (vector, residual) with the best residual of at most
    _INVERSE_ITERATIONS steps; the caller checks it against SOLVER_TOL.
    """
    n = A.shape[0]
    use_complex = np.iscomplexobj(A) or z.imag != 0.0
    dtype = np.complex128 if use_complex else np.float64
    M = np.ascontiguousarray(A, dtype=dtype).copy()
    shift = z if use_complex else z.real
    M[np.diag_indices(n)] -= shift
    piv = np.zeros(n, dtype=np.int64)
    tiny = max(1.0, fro) * _EPS
    lu_factor(M, piv, tiny)
    v = _orthogonalize(_random_start(rng, n, dtype), ortho)
    nv = float(np.sqrt(np.vdot(v, v).real))
    if nv == 0.0:
        v = rng.standard_normal(n).astype(dtype)
        nv = float(np.sqrt(np.vdot(v, v).real))
    v = v / nv
    best_v, best_res = v, np.inf
    for _ in range(_INVERSE_ITERATIONS):
        w = v.reshape(n, 1).copy()
        lu_solve_factored(M, piv, w)
        w = w[:, 0]
        if not np.all(np.isfinite(w)):
            v = _random_start(rng, n, dtype)
            continue
        w = _orthogonalize(w, ortho)
        nw = float(np.sqrt(np.vdot(w, w).real))
        if nw == 0.0:
            v = _random_start(rng, n, dtype)
            continue
        w = w / nw
        res = float(np.sqrt((np.abs(A @ w - z * w) ** 2).sum())) / max(1.0, fro)
        v = w
        if res < best_res:
            best_v, best_res = w, res
        if res <= SOLVER_TOL:
            break
    return best_v, best_res


def eigenvector(A, z, seed: int = DEFAULT_SEED):
    """Unit eigenvector of A for the (approximate) eigenvalue z, by
    inverse iteration from a deterministic seeded start.

    z must lie near the spectrum; raises ConvergenceError when the
    relative residual stays above SOLVER_TOL after 10 iterations.
    """
    A = _check_square(A)
    z = complex(z)
    rng = np.random.default_rng(seed)
    fro = _fro(A)
    v, res = _inverse_iteration(A, z, rng, (), fro)
    if res > SOLVER_TOL:
        raise ConvergenceError(
            f"inverse iteration for z={z} stalled at residual {res:.3e}"
        )
    return _fix_phase(v)


def schur_eigensystem(A, seed: int = DEFAULT_SEED):
    """Eigenvalues plus one eigenvector per Schur block of a real matrix.

    Returns (values, records).  `values` is the full sorted eigenvalue
    multiset (length n).  `records` holds one (z, vector, residual) per
    diagonal block with Im z >= 0: complex conjugate pairs are
    represented once.  Within a cluster of close eigenvalues the vectors
    are mutually orthogonalized so multiplicities yield independent
    eigenvectors; records whose relative residual exceeds SOLVER_TOL
    (possible only for defective clusters) are dropped.
    """
    A = _check_square(A)
    rng = np.random.default_rng(seed)
    fro = _fro(A)
    _, T = _schur(A, balance=True)
    blocks = _read_blocks(T)
    values = _sorted_values(blocks)

    reps = []  # canonical (Im >= 0) eigenvalue per block position
    for (start, size, vs) in blocks:
        if size == 1:
            reps.append(vs[0])
        elif vs[0].imag != 0.0:
            reps.append(vs[0] if vs[0].imag > 0 else vs[1])
        else:
            reps.extend(vs)  # 2x2 block with real eigenvalues
    gap = cluster_gap(A)
    records = []
    for rep, idxs in cluster_values(reps, gap):
        found = []
        for i in idxs:
            z = reps[i]
            v, res = _inverse_iteration(A, z, rng, found, fro)
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


def complex_eigen(A, seed: int = DEFAULT_SEED):
    """All eigenpairs of a complex square matrix.

    A = X + iY is realified to the doubled real matrix [[X, -Y], [Y, X]]
    whose spectrum is {z} united with {conj(z)}; the eigenvalues of A are
    recovered from the structure of the embedded eigenvectors (a vector
    (p, q) of the doubled problem maps to p + iq), never by discarding
    negative imaginary parts.  Returns one EigenPair per eigenvalue
    counted with multiplicity, sorted by (Re, -Im).
    """
    A = _check_square(A)
    m = A.shape[0]
    Ac = np.ascontiguousarray(A, dtype=np.complex128)
    X = Ac.real.copy()
    Y = Ac.imag.copy()
    R = np.block([[X, -Y], [Y, X]])
    _, records = schur_eigensystem(R, seed=seed)
    froA = _fro(Ac)
    gap = cluster_gap(R)

    def _residual(u, z):
        return float(np.sqrt((np.abs(Ac @ u - z * u) ** 2).sum())) / max(1.0, froA)

    pairs = []
    clusters = cluster_values([z for (z, _, _) in records], gap)
    for rep, idxs in clusters:
        group = [records[i] for i in idxs]
        k = len(group)
        if rep.imag > gap:
            u_plus = [0.5 * (w[:m] + 1j * w[m:]) for (_, w, _) in group]
            u_minus = [0.5 * (w[:m] - 1j * w[m:]) for (_, w, _) in group]
            plus_basis = _mgs_basis(u_plus)[:k]
            for u in plus_basis:
                u = _fix_phase(u)
                pairs.append(EigenPair(rep, u, _residual(u, rep)))
            minus_basis = _mgs_basis(u_minus)[: k - len(plus_basis)]
            for u in minus_basis:
                u = _fix_phase(np.conj(u))
                pairs.append(EigenPair(rep.conjugate(), u, _residual(u, rep.conjugate())))
        else:
            # real eigenvalue of the doubled problem: multiplicity is even
            # and the embedded vectors span the eigenspace of A twice over
            emb = [w[:m].astype(np.complex128) + 1j * w[m:] for (_, w, _) in group]
            basis = _mgs_basis(emb)[: max(1, k // 2)]
            for u in basis:
                u = _fix_phase(u)
                pairs.append(EigenPair(rep, u, _residual(u, rep)))
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
        piv = B[r0, c0]
        for r in range(r0 + 1, rows):
            f = B[r, c0] / piv
            if f != 0.0:
                B[r, c0:] -= f * B[r0, c0:]
        rank += 1
        r0 += 1
        c0 += 1
    return rank
