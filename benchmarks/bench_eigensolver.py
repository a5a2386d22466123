#!/usr/bin/env python3
"""Benchmark the eigensolver against LAPACK.

Times octoeig's real Schur factorization and its eigensystem (Schur
plus eigenvectors back-substituted on the Schur factor) on seeded
random matrices, beside ``numpy.linalg.eig`` as the speed-of-light
reference.  The ``balance``, ``hessenberg`` and ``qr`` columns time
the solver's own stages, the calls ``schur_eigensystem`` makes:
``kernels.balance_in_place`` on a copy of the matrix,
``linalg._hessenberg_stage`` without balancing on that balanced copy
(the Hessenberg reduction alone), and ``linalg._qr_stage`` (Francis QR
plus the 2x2 split, which raises ``ConvergenceError`` as the solver
does) on that Hessenberg form, so a change to those kernels shows apart
from the whole solve.
The ``verify`` column times the exact check of one coupled solution
(``verify_coupled``) on a seeded dense generalized operator matrix
with n = size / 8, after one warm-up call, so the verification layer
shows apart from ``schur`` and ``eigensystem``.  The ``peak_MB`` column
is the tracemalloc peak of one coupled ``eig_report`` on that matrix
(2**20 bytes to the MB), the working set of a served ``eig`` request
apart from the process around it; it is measured once, after the
timings, so tracing slows none of them.
The ``enumerate`` line after the table times the right-eigen
enumerator's unpinned scan (all 128 basis candidates Psi = (e_j, +-e_k))
on the suite's hermitian [[1, e1], [-e1, 1]], after one warm-up call;
the ``enumerate pinned`` line times the scan pinned to psi_a = e2 (16
candidates) on the same matrix.  The ``dirac`` line times
``dirac.dirac_checks``, every check the ``dirac`` command runs.  The
``classify full`` and ``classify projected`` lines time
``hermiticity.classify`` under each product on the real symmetric
integer 8 x 8 operator matrix M_ij = ij - i - j, after one warm-up
call; it is hermitian under both, so every basis pair is compared.
The ``qr served`` lines time ``linalg._qr_stage`` on translations of the
kind the perfbench decks serve, balanced and reduced as ``eig`` does:
lab-mix's n = 2 (16 x 16) translation of seeded left multiplications by
octonions with 3-decimal coefficients, and eig-coupled's n = 8
(64 x 64) translation of a seeded dense generalized operator matrix.
Each number is the best of ``--repeats`` runs.

Usage:
    python benchmarks/bench_eigensolver.py [--sizes 8,16,32,64,128] [--repeats 3]
"""

import argparse
import sys
import time
import tracemalloc

import numpy as np

from octoeig import (
    COMPLEX_PROJECTED,
    FULL,
    GeneralizedOperator,
    Octonion,
    OperatorMatrix,
    classify,
    enumerate_basis_right_eigs,
    verify_coupled,
)
from octoeig.dirac import dirac_checks
from octoeig.eigen import eig_report
from octoeig.kernels import balance_in_place
from octoeig.linalg import _hessenberg_stage, _qr_stage, real_schur, schur_eigensystem


def best_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def balanced(A):
    """A copy of A balanced in place, as the solver's first stage does."""
    B = A.copy()
    balance_in_place(B, np.ones(len(B)))
    return B


def qr_stage(H, Q, scale, fro):
    """The solver's second stage on fresh copies of its first stage's H
    and Q; raises ConvergenceError where the solver would."""
    _qr_stage(H.copy(), Q.copy(), fro)


def coupled_check(rng, n):
    """A dense generalized n x n operator matrix, and a verify_coupled
    call on one of its solutions, taken from numpy's eigenpair of the
    real translation with the largest imaginary part."""
    M = dense_generalized(rng, n)
    vals, vecs = np.linalg.eig(M.to_real_matrix())
    k = int(np.argmax(vals.imag))
    xi = [Octonion(c) for c in vecs[:, k].real.reshape(n, 8)]
    eta = [Octonion(c) for c in vecs[:, k].imag.reshape(n, 8)]
    return M, lambda: verify_coupled(M, vals[k].real, vals[k].imag, xi, eta)


def dense_generalized(rng, n):
    """An n x n operator matrix of generalized operators with 8 dense
    parts, coefficients uniform in [-1, 1]."""
    return OperatorMatrix(
        [[GeneralizedOperator([Octonion(p) for p in rng.uniform(-1.0, 1.0, (8, 8))])
          for _ in range(n)] for _ in range(n)]
    )


def served_translations(seed):
    """(label, translation) of the matrices the perfbench decks serve."""
    rng = np.random.default_rng(seed)
    left = OperatorMatrix(
        [[Octonion(np.round(rng.uniform(-1.0, 1.0, 8), 3)) for _ in range(2)] for _ in range(2)]
    )
    return [("lab-mix n=2", left.to_real_matrix()),
            ("eig-coupled n=8", dense_generalized(rng, 8).to_real_matrix())]


def report_peak_mb(M):
    """The tracemalloc peak of one coupled eig_report on M, in MB."""
    tracemalloc.start()
    try:
        eig_report(M, "coupled")
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,32,64,128")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    rng = np.random.default_rng(1729)
    op_rng = np.random.default_rng(1731)
    print(f"{'n':>5} | {'balance':>10} {'hessenberg':>10} {'qr':>10} | {'schur':>10} "
          f"{'eigensystem':>12} {'verify':>10} {'peak_MB':>8} | {'numpy eig':>10} {'eig/numpy':>10}")
    print("-" * 113)
    worst = 0.0
    for n in sizes:
        A = rng.uniform(-1.0, 1.0, (n, n))
        bal_s, B = best_time(lambda: balanced(A), args.repeats)
        hess_s, hess = best_time(lambda: _hessenberg_stage(B, balance=False), args.repeats)
        qr_s, _ = best_time(lambda: qr_stage(*hess), args.repeats)
        schur_s, (Q, T) = best_time(lambda: real_schur(A), args.repeats)
        eig_s, _ = best_time(lambda: schur_eigensystem(A), args.repeats)
        M, check = coupled_check(op_rng, max(1, n // 8))
        check()  # builds the matrix's evaluation plan
        verify_s, _ = best_time(check, args.repeats)
        ref_s, _ = best_time(lambda: np.linalg.eig(A), args.repeats)
        peak_mb = report_peak_mb(M)
        froA = float(np.sqrt((A * A).sum()))
        worst = max(worst, float(np.abs(Q @ T @ Q.T - A).max() / max(1.0, froA)))
        print(f"{n:>5} | {bal_s:10.5f} {hess_s:10.5f} {qr_s:10.5f} | {schur_s:10.5f} {eig_s:12.5f} "
              f"{verify_s:10.5f} {peak_mb:8.3f} | {ref_s:10.5f} {eig_s / ref_s:9.1f}x")
    M = OperatorMatrix([[1, Octonion.basis(1)], [-Octonion.basis(1), 1]])
    enumerate_basis_right_eigs(M)  # builds the matrix's evaluation plan
    enum_s, _ = best_time(lambda: enumerate_basis_right_eigs(M), args.repeats)
    print(f"enumerate: {enum_s:.5f} s")
    pinned_s, _ = best_time(
        lambda: enumerate_basis_right_eigs(M, psi_a=Octonion.basis(2)), args.repeats
    )
    print(f"enumerate pinned: {pinned_s:.5f} s")
    dirac_s, _ = best_time(lambda: dirac_checks(0), args.repeats)
    print(f"dirac: {dirac_s:.5f} s")
    H = OperatorMatrix([[i * j - i - j for j in range(8)] for i in range(8)])
    for label, kind in (("full", FULL), ("projected", COMPLEX_PROJECTED)):
        classify(H, kind)  # builds the matrix's translation
        classify_s, _ = best_time(lambda: classify(H, kind), args.repeats)
        print(f"classify {label}: {classify_s:.5f} s")
    for label, A in served_translations(1733):
        hess = _hessenberg_stage(A, balance=True)
        served_s, _ = best_time(lambda: qr_stage(*hess), args.repeats)
        print(f"qr served {label}: {served_s:.5f} s")
    print(f"worst relative Schur residual: {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
