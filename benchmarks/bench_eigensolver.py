#!/usr/bin/env python3
"""Benchmark the eigensolver against LAPACK.

Times octoeig's real Schur factorization and its eigensystem (values
plus inverse-iteration vectors) on seeded random matrices, beside
``numpy.linalg.eig`` as the speed-of-light reference.  The ``lu``
columns time the LU kernel alone on the same matrix, real and with a
seeded imaginary part, so a change to that layer shows apart from the
whole solve.  Each column is the best of ``--repeats`` runs.

Usage:
    python benchmarks/bench_eigensolver.py [--sizes 16,32,64,128] [--repeats 3]
"""

import argparse
import sys
import time

import numpy as np

from octoeig.kernels import lu_factor
from octoeig.linalg import real_schur, schur_eigensystem


def best_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="16,32,64,128")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    rng = np.random.default_rng(1729)
    im_rng = np.random.default_rng(1730)
    print(f"{'n':>5} | {'lu real':>10} {'lu complex':>10} | {'schur':>10} {'eigensystem':>12} "
          f"| {'numpy eig':>10} {'eig/numpy':>10}")
    print("-" * 82)
    worst = 0.0
    for n in sizes:
        A = rng.uniform(-1.0, 1.0, (n, n))
        Z = A + 1j * im_rng.uniform(-1.0, 1.0, (n, n))
        piv = np.zeros(n, dtype=np.int64)
        # lu_factor works in place, so each run factors a fresh copy
        lu_s, _ = best_time(lambda: lu_factor(A.copy(), piv, 0.0), args.repeats)
        lu_c, _ = best_time(lambda: lu_factor(Z.copy(), piv, 0.0), args.repeats)
        schur_s, (Q, T) = best_time(lambda: real_schur(A), args.repeats)
        eig_s, _ = best_time(lambda: schur_eigensystem(A), args.repeats)
        ref_s, _ = best_time(lambda: np.linalg.eig(A), args.repeats)
        froA = float(np.sqrt((A * A).sum()))
        worst = max(worst, float(np.abs(Q @ T @ Q.T - A).max() / max(1.0, froA)))
        print(f"{n:>5} | {lu_s:10.5f} {lu_c:10.5f} | {schur_s:10.5f} {eig_s:12.5f} "
              f"| {ref_s:10.5f} {eig_s / ref_s:9.1f}x")
    print(f"worst relative Schur residual: {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
