#!/usr/bin/env python3
"""Benchmark the eigensolver against LAPACK.

Times octoeig's real Schur factorization and its eigensystem (Schur
plus eigenvectors back-substituted on the Schur factor) on seeded
random matrices, beside ``numpy.linalg.eig`` as the speed-of-light
reference.  The ``lu`` column times the real LU kernel alone on the
same matrix, the ``hessenberg`` column balancing plus Hessenberg
reduction, the first stage of ``eigensystem``, and the ``qr`` column
Francis QR plus the 2x2 split on that Hessenberg form, the second
stage, so a change to those kernels shows apart from the whole solve.
The ``verify`` column times the exact check of one coupled solution
(``verify_coupled``) on a seeded dense generalized operator matrix
with n = size / 8, after one warm-up call, so the verification layer
shows apart from ``schur`` and ``eigensystem``.
Each column is the best of ``--repeats`` runs.

Usage:
    python benchmarks/bench_eigensolver.py [--sizes 16,32,64,128] [--repeats 3]
"""

import argparse
import sys
import time

import numpy as np

from octoeig import GeneralizedOperator, Octonion, OperatorMatrix, verify_coupled
from octoeig.kernels import (
    balance_in_place,
    francis_qr,
    hessenberg_in_place,
    lu_factor,
    split_real_2x2_blocks,
)
from octoeig.linalg import _EPS, _MAX_SWEEPS_PER_N, _fro, real_schur, schur_eigensystem


def best_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def hessenberg_stage(A):
    """Balancing plus Hessenberg reduction of a fresh copy of A.  Returns
    the Hessenberg form, its Q and the balanced Frobenius norm, as the
    solver hands them to francis_qr."""
    H = A.copy()
    Q = np.eye(len(A))
    balance_in_place(H, np.ones(len(A)))
    fro = _fro(H)
    hessenberg_in_place(H, Q)
    return H, Q, fro


def qr_stage(H, Q, fro):
    """Francis QR plus the 2x2 split on fresh copies of H and Q."""
    T, Q = H.copy(), Q.copy()
    francis_qr(T, Q, _EPS, fro, _MAX_SWEEPS_PER_N)
    split_real_2x2_blocks(T, Q)


def coupled_check(rng, n):
    """A dense generalized n x n operator matrix and a verify_coupled call
    on one of its solutions, taken from numpy's eigenpair of the real
    translation with the largest imaginary part."""
    M = OperatorMatrix(
        [[GeneralizedOperator([Octonion(p) for p in rng.uniform(-1.0, 1.0, (8, 8))])
          for _ in range(n)] for _ in range(n)]
    )
    vals, vecs = np.linalg.eig(M.to_real_matrix())
    k = int(np.argmax(vals.imag))
    xi = [Octonion(c) for c in vecs[:, k].real.reshape(n, 8)]
    eta = [Octonion(c) for c in vecs[:, k].imag.reshape(n, 8)]
    return lambda: verify_coupled(M, vals[k].real, vals[k].imag, xi, eta)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="16,32,64,128")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    rng = np.random.default_rng(1729)
    op_rng = np.random.default_rng(1731)
    print(f"{'n':>5} | {'lu':>10} {'hessenberg':>10} {'qr':>10} | {'schur':>10} "
          f"{'eigensystem':>12} {'verify':>10} | {'numpy eig':>10} {'eig/numpy':>10}")
    print("-" * 104)
    worst = 0.0
    for n in sizes:
        A = rng.uniform(-1.0, 1.0, (n, n))
        piv = np.zeros(n, dtype=np.int64)
        # lu_factor works in place, so each run factors a fresh copy
        lu_s, _ = best_time(lambda: lu_factor(A.copy(), piv), args.repeats)
        hess_s, hess = best_time(lambda: hessenberg_stage(A), args.repeats)
        qr_s, _ = best_time(lambda: qr_stage(*hess), args.repeats)
        schur_s, (Q, T) = best_time(lambda: real_schur(A), args.repeats)
        eig_s, _ = best_time(lambda: schur_eigensystem(A), args.repeats)
        check = coupled_check(op_rng, max(1, n // 8))
        check()  # builds the matrix's evaluation plan
        verify_s, _ = best_time(check, args.repeats)
        ref_s, _ = best_time(lambda: np.linalg.eig(A), args.repeats)
        froA = float(np.sqrt((A * A).sum()))
        worst = max(worst, float(np.abs(Q @ T @ Q.T - A).max() / max(1.0, froA)))
        print(f"{n:>5} | {lu_s:10.5f} {hess_s:10.5f} {qr_s:10.5f} | {schur_s:10.5f} {eig_s:12.5f} "
              f"{verify_s:10.5f} | {ref_s:10.5f} {eig_s / ref_s:9.1f}x")
    print(f"worst relative Schur residual: {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
