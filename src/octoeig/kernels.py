"""Hot numeric kernels: LU, Hessenberg reduction, Francis double-shift QR.

The LU kernels are numpy row-slice updates, one Python step per pivot,
and bit-identical to elementwise loops while no entry is NaN
(``tests/test_linalg.py`` keeps those loops as the oracle).  Balancing,
Hessenberg reduction and Francis QR are still elementwise loops.
``benchmarks/bench_eigensolver.py`` times them against
``numpy.linalg.eig``.

All kernels work in place on float64 arrays the callers own; drivers
in :mod:`octoeig.linalg` do the copying, validation and error
reporting.
"""

from __future__ import annotations

import math

import numpy as np


def _sub_outer(x, l, u):
    """x -= l u^T in place, on the rows where l is non-zero.

    Skipping the rows of zero multipliers keeps signed zeros, as the
    elementwise loops do.
    """
    np.subtract(x, np.multiply.outer(l, u), out=x, where=(l != 0.0)[:, None])


def lu_factor(a, piv):
    """LU with partial pivoting, in place; piv[k] is the row swapped into k.

    An exactly zero pivot aborts and the failing column index + 1 is
    returned; 0 means success.

    The pivot is the first row of largest magnitude, and only rows with
    a non-zero multiplier are updated (see _sub_outer).
    """
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        piv[k] = p
        if p != k:
            a[[k, p]] = a[[p, k]]
        if a[k, k] == 0.0:
            return k + 1
        a[k + 1:, k] /= a[k, k]
        _sub_outer(a[k + 1:, k + 1:], a[k + 1:, k], a[k, k + 1:])
    return 0


def lu_solve_factored(a, piv, b):
    """Solve with an lu_factor-ed matrix; b (n x m) is overwritten."""
    n = a.shape[0]
    for k in range(n):
        p = piv[k]
        if p != k:
            b[[k, p]] = b[[p, k]]
    for k in range(n - 1):
        _sub_outer(b[k + 1:], a[k + 1:, k], b[k])
    for k in range(n - 1, -1, -1):
        b[k] /= a[k, k]
        _sub_outer(b[:k], a[:k, k], b[k])


def balance_in_place(a, scale):
    """Parlett-Reinsch balancing by exact powers of two.

    Rescales a <- D^-1 a D to equalize row/column 1-norms and records
    the diagonal of D in `scale`.  Powers of two keep the similarity
    exact in floating point.
    """
    n = a.shape[0]
    for i in range(n):
        scale[i] = 1.0
    changed = True
    while changed:
        changed = False
        for i in range(n):
            c = 0.0
            r = 0.0
            for j in range(n):
                if j != i:
                    c += abs(a[j, i])
                    r += abs(a[i, j])
            if c == 0.0 or r == 0.0:
                continue
            f = 1.0
            s = c + r
            while c < 0.5 * r:
                c *= 2.0
                r *= 0.5
                f *= 2.0
            while c >= 2.0 * r:
                c *= 0.5
                r *= 2.0
                f *= 0.5
            if c + r < 0.95 * s and f != 1.0:
                changed = True
                scale[i] *= f
                for j in range(n):
                    a[i, j] /= f
                for j in range(n):
                    a[j, i] *= f


def hessenberg_in_place(h, q):
    """Householder reduction to upper Hessenberg; q accumulates the
    orthogonal similarity (pass q = identity)."""
    n = h.shape[0]
    v = np.zeros(n)
    for k in range(n - 2):
        alpha = 0.0
        for i in range(k + 1, n):
            alpha += h[i, k] * h[i, k]
        alpha = np.sqrt(alpha)
        if alpha == 0.0:
            continue
        if h[k + 1, k] > 0.0:
            alpha = -alpha
        vnorm2 = 0.0
        for i in range(k + 1, n):
            v[i] = h[i, k]
        v[k + 1] -= alpha
        for i in range(k + 1, n):
            vnorm2 += v[i] * v[i]
        if vnorm2 == 0.0:
            continue
        beta = 2.0 / vnorm2
        # rows k+1..n-1 from the left; columns < k are already zero there
        for j in range(k, n):
            s = 0.0
            for i in range(k + 1, n):
                s += v[i] * h[i, j]
            s *= beta
            for i in range(k + 1, n):
                h[i, j] -= s * v[i]
        # columns k+1..n-1 from the right
        for i in range(n):
            s = 0.0
            for j in range(k + 1, n):
                s += h[i, j] * v[j]
            s *= beta
            for j in range(k + 1, n):
                h[i, j] -= s * v[j]
        for i in range(n):
            s = 0.0
            for j in range(k + 1, n):
                s += q[i, j] * v[j]
            s *= beta
            for j in range(k + 1, n):
                q[i, j] -= s * v[j]
        h[k + 1, k] = alpha
        for i in range(k + 2, n):
            h[i, k] = 0.0


def _apply_house3_left(h, k, lo, n, v0, v1, v2, beta):
    for j in range(lo, n):
        s = beta * (v0 * h[k, j] + v1 * h[k + 1, j] + v2 * h[k + 2, j])
        h[k, j] -= s * v0
        h[k + 1, j] -= s * v1
        h[k + 2, j] -= s * v2


def _apply_house3_right(h, k, hi, v0, v1, v2, beta):
    for i in range(hi + 1):
        s = beta * (v0 * h[i, k] + v1 * h[i, k + 1] + v2 * h[i, k + 2])
        h[i, k] -= s * v0
        h[i, k + 1] -= s * v1
        h[i, k + 2] -= s * v2


def francis_qr(h, q, eps, fro_norm, max_sweeps_per_n):
    """Implicit double-shift QR on an upper Hessenberg matrix, in place.

    Deflates subdiagonal entries with |h[k+1,k]| <= eps*(|h[k,k]| +
    |h[k+1,k+1]|), falling back to eps*fro_norm when both neighbours
    vanish.  Every 10 stalled sweeps on the same block an exceptional
    ad-hoc shift is used.  Returns (0, 0, 0) on success, or
    (1, lo, hi) naming the block that failed to converge within
    max_sweeps_per_n * n sweeps.
    """
    n = h.shape[0]
    if n <= 2:
        return (0, 0, 0)
    ihi = n - 1
    total = 0
    stall = 0
    limit = max_sweeps_per_n * n
    while ihi > 0:
        for k in range(1, ihi + 1):
            tst = abs(h[k - 1, k - 1]) + abs(h[k, k])
            if tst == 0.0:
                tst = fro_norm
            if abs(h[k, k - 1]) <= eps * tst:
                h[k, k - 1] = 0.0
        if h[ihi, ihi - 1] == 0.0:
            ihi -= 1
            stall = 0
            continue
        if ihi == 1:
            break  # converged 2x2 block at the top
        if h[ihi - 1, ihi - 2] == 0.0:
            ihi -= 2
            stall = 0
            continue
        l = ihi - 1
        while l > 0 and h[l, l - 1] != 0.0:
            l -= 1
        # active block h[l:ihi+1, l:ihi+1] has size >= 3 here
        total += 1
        stall += 1
        if total > limit:
            return (1, l, ihi)
        m = ihi
        if stall > 0 and stall % 10 == 0:
            # exceptional ad-hoc shift built from subdiagonal magnitudes
            x = abs(h[m, m - 1]) + abs(h[m - 1, m - 2])
            trace = 1.5 * x
            det = x * x
        else:
            trace = h[m - 1, m - 1] + h[m, m]
            det = h[m - 1, m - 1] * h[m, m] - h[m - 1, m] * h[m, m - 1]
        # first column of (H - aI)(H - bI) with a + b = trace, ab = det
        x = h[l, l] * h[l, l] + h[l, l + 1] * h[l + 1, l] - trace * h[l, l] + det
        y = h[l + 1, l] * (h[l, l] + h[l + 1, l + 1] - trace)
        z = h[l + 2, l + 1] * h[l + 1, l]
        for k in range(l, m - 1):
            if k > l:
                x = h[k, k - 1]
                y = h[k + 1, k - 1]
                z = h[k + 2, k - 1] if k + 2 <= m else 0.0
            # Householder mapping (x, y, z) to (+-r, 0, 0)
            alpha = np.sqrt(x * x + y * y + z * z)
            if alpha == 0.0:
                continue
            if x > 0.0:
                alpha = -alpha
            v0 = x - alpha
            v1 = y
            v2 = z
            vnorm2 = v0 * v0 + v1 * v1 + v2 * v2
            if vnorm2 == 0.0:
                continue
            beta = 2.0 / vnorm2
            lo = k - 1 if k > l else l
            _apply_house3_left(h, k, lo, n, v0, v1, v2, beta)
            hi = k + 3 if k + 3 < m else m
            _apply_house3_right(h, k, hi, v0, v1, v2, beta)
            for i in range(n):
                s = beta * (v0 * q[i, k] + v1 * q[i, k + 1] + v2 * q[i, k + 2])
                q[i, k] -= s * v0
                q[i, k + 1] -= s * v1
                q[i, k + 2] -= s * v2
            if k > l:
                h[k, k - 1] = alpha
                h[k + 1, k - 1] = 0.0
                h[k + 2, k - 1] = 0.0
        # final 2-rotation clearing the leftover bulge entry h[m, m-2]
        x = h[m - 1, m - 2]
        y = h[m, m - 2]
        r = np.sqrt(x * x + y * y)
        if r != 0.0 and y != 0.0:
            c = x / r
            s = y / r
            for j in range(m - 2, n):
                t1 = h[m - 1, j]
                t2 = h[m, j]
                h[m - 1, j] = c * t1 + s * t2
                h[m, j] = -s * t1 + c * t2
            for i in range(m + 1):
                t1 = h[i, m - 1]
                t2 = h[i, m]
                h[i, m - 1] = c * t1 + s * t2
                h[i, m] = -s * t1 + c * t2
            for i in range(n):
                t1 = q[i, m - 1]
                t2 = q[i, m]
                q[i, m - 1] = c * t1 + s * t2
                q[i, m] = -s * t1 + c * t2
            h[m, m - 2] = 0.0
    return (0, 0, 0)


def scaled_2x2_block(t, k):
    """The diagonal 2x2 block of t at row k as (e, p, q, r, s, disc).

    The block, with rows (p, q) and (r, s), is scaled by the exact power
    of two 2**-e that brings its largest magnitude into [0.5, 1), and
    disc = (p - s)**2 + 4qr is the discriminant of the scaled block, so
    its squares neither underflow nor overflow.  Values computed from
    the scaled block are unscaled with np.ldexp(., e); ratios need
    nothing.
    """
    (p, q), (r, s) = t[k:k + 2, k:k + 2].tolist()
    e = math.frexp(max(abs(p), abs(q), abs(r), abs(s)))[1]
    p, q, r, s = (math.ldexp(x, -e) for x in (p, q, r, s))
    disc = (p - s) * (p - s) + 4.0 * q * r
    return e, p, q, r, s, disc


def split_real_2x2_blocks(t, q):
    """Rotate 2x2 diagonal blocks with real eigenvalues into two 1x1
    blocks, so 2x2 blocks remain only for complex conjugate pairs.

    Each block is classified and rotated from its scaled_2x2_block form,
    so tiny and huge blocks split as well as moderate ones.  A real block
    whose eigenvector squares underflow even there has off-diagonal
    entries below about 1e-162 of its largest one; its subdiagonal entry
    is dropped instead.
    """
    n = t.shape[0]
    k = 0
    while k < n - 1:
        if t[k + 1, k] == 0.0:
            k += 1
            continue
        _, p, qq, r, s, disc = scaled_2x2_block(t, k)
        if disc < 0.0:
            k += 2
            continue
        sq = np.sqrt(disc)
        lam = 0.5 * ((p + s) + sq) if p + s >= 0.0 else 0.5 * ((p + s) - sq)
        # eigenvector of the block for lam; pick the better-scaled form
        v0 = qq
        v1 = lam - p
        w0 = lam - s
        w1 = r
        if v0 * v0 + v1 * v1 < w0 * w0 + w1 * w1:
            v0 = w0
            v1 = w1
        nrm = np.sqrt(v0 * v0 + v1 * v1)
        if nrm == 0.0:
            t[k + 1, k] = 0.0
            k += 2
            continue
        c = v0 / nrm
        sn = v1 / nrm
        for j in range(n):
            t1 = t[k, j]
            t2 = t[k + 1, j]
            t[k, j] = c * t1 + sn * t2
            t[k + 1, j] = -sn * t1 + c * t2
        for i in range(n):
            t1 = t[i, k]
            t2 = t[i, k + 1]
            t[i, k] = c * t1 + sn * t2
            t[i, k + 1] = -sn * t1 + c * t2
        for i in range(q.shape[0]):
            t1 = q[i, k]
            t2 = q[i, k + 1]
            q[i, k] = c * t1 + sn * t2
            q[i, k + 1] = -sn * t1 + c * t2
        t[k + 1, k] = 0.0
        k += 2
