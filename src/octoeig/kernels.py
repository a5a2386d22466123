"""Hot numeric kernels: LU, Hessenberg reduction, Francis double-shift QR.

The LU and balancing kernels are numpy row and column slice updates, one
Python step per pivot or row, and every kernel here is bit-identical to
elementwise loops while no entry is NaN (``tests/test_linalg.py`` keeps
those loops as the oracle).  Every sum still accumulates from zero in
the loops' order: never ``@``, ``dot`` or ``sum``, whose order numpy does
not fix.

hessenberg_in_place makes O(1) numpy calls per reflector.  Each squared
norm and each row sum of x (I - beta v v^T) is one sequential
``np.add.accumulate`` along ``[+0.0 | products]`` (_sums_in_order): the
loop's sum from zero, whose leading +0.0 also keeps its signed zeros.

The Schur stage has one helper per transform: _reflect_right (a
Householder reflector), _reflect3 (Francis QR's 3-row reflector) and
_rotate (a plane rotation).  A column update is the row update on the
transposed view ``x.T`` (francis_qr binds ``h.T`` and ``q.T`` once),
with the same products and sums in the same order.

_reflect3 and _rotate stay element loops on numpy scalars, in the
elementwise loop's order: they bind their row views once per call,
index them 1-D and read each element once.  Once per sweep francis_qr
reads the diagonal and the subdiagonal as Python floats; its deflation
scan and its searches for the active block read those lists, and each
deflated zero goes to both h and the list.  The scalar reflector and
rotation norms are ``math.sqrt``, the same correctly rounded square root
as ``np.sqrt``, of entries that scaled_by_power_of_two's rule scales by
an exact power of two when their largest magnitude lies outside
[2**-500, 2**500], so their squares neither overflow nor underflow.  In
that range nothing is scaled, and every product and sum is the loop's,
so T and Q are bit for bit the loop's
(``tests/test_linalg.py::loop_francis_qr`` is the oracle).

Python-float or sliced loops wait for a benchmark that keeps only
digests (ROADMAP item 2).  ``benchmarks/bench_eigensolver.py`` times the
kernels against ``numpy.linalg.eig``.

split_real_2x2_blocks returns the eigenvalues from the same scaled
reading of each 2x2 block that sorts it, as LAPACK dlanv2 does.

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
    exact in floating point.  Each off-diagonal 1-norm is summed from
    zero over the column's and the row's Python floats, in the order of
    the elementwise loop, so it matches that loop.
    """
    n = a.shape[0]
    scale[:] = 1.0
    changed = True
    while changed:
        changed = False
        for i in range(n):
            col = a[:, i].tolist()
            row = a[i].tolist()
            c = 0.0
            r = 0.0
            for j in range(n):
                if j != i:
                    c += abs(col[j])
                    r += abs(row[j])
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
                a[i] /= f
                a[:, i] *= f


def _range_exponent(big):
    """0 if the magnitude big lies in [2**-500, 2**500] (or is 0 or not
    finite), else the e with big = 2**e * c and 0.5 <= c < 1."""
    if 2.0**-500 <= big <= 2.0**500:
        return 0
    return math.frexp(big)[1]


def scaled_by_power_of_two(x):
    """(c, e) with x = 2**e * c.  e is 0 unless the largest magnitude in
    x lies outside [2**-500, 2**500]; then c's largest is in [0.5, 1),
    so sums of squares of c neither overflow nor underflow."""
    e = _range_exponent(float(np.abs(x).max()))
    return (np.ldexp(x, -e), e) if e else (x, 0)


def _sums_in_order(x, v):
    """Row sums of x * v along the last axis, each accumulated from +0.0
    in column order: the elementwise loop's ``s = 0.0; s += x[j] * v[j]``.

    One sequential ``np.add.accumulate`` runs along ``[+0.0 | x * v]``;
    the leading +0.0 turns a first product of -0.0 into +0.0, as the
    loop's zero start does.
    """
    p = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.multiply(x, v, out=p[..., 1:])
    return np.add.accumulate(p, axis=-1)[..., -1]


def _reflect_right(x, v, beta):
    """x <- x (I - beta v v^T) in place, each row's x v summed in the
    elementwise loop's order (_sums_in_order)."""
    x -= np.multiply.outer(beta * _sums_in_order(x, v), v)


def hessenberg_in_place(h, q):
    """Householder reduction to upper Hessenberg; q accumulates the
    orthogonal similarity (pass q = identity).

    Each reflector is applied on whole rows and columns, and every sum
    accumulates from zero in the order of the elementwise loop, so the
    result is bit-identical to it (``tests/test_linalg.py`` keeps the
    loop as the oracle).  v and beta come from the column as
    scaled_by_power_of_two leaves it, so its squares stay in range.
    """
    n = h.shape[0]
    for k in range(n - 2):
        col, e = scaled_by_power_of_two(h[k + 1:, k])
        alpha = np.sqrt(_sums_in_order(col, col))
        if alpha == 0.0:
            continue
        if col[0] > 0.0:
            alpha = -alpha
        v = col.copy()
        v[0] -= alpha
        vnorm2 = _sums_in_order(v, v)
        if vnorm2 == 0.0:
            continue
        beta = 2.0 / vnorm2
        # rows k+1..n-1 from the left; columns < k are already zero there
        _reflect_right(h[k + 1:, k:].T, v, beta)
        # columns k+1..n-1 from the right
        _reflect_right(h[:, k + 1:], v, beta)
        _reflect_right(q[:, k + 1:], v, beta)
        h[k + 1, k] = np.ldexp(alpha, e)
        h[k + 2:, k] = 0.0


def _reflect3(x, k, lo, hi, v0, v1, v2, beta):
    """x[k:k+3, lo:hi] <- (I - beta v v^T) x[k:k+3, lo:hi], v = (v0, v1, v2).

    Element by element on the three row views, bound once; each element
    is read once."""
    x0, x1, x2 = x[k], x[k + 1], x[k + 2]
    for j in range(lo, hi):
        a = x0[j]
        b = x1[j]
        c = x2[j]
        s = beta * (v0 * a + v1 * b + v2 * c)
        x0[j] = a - s * v0
        x1[j] = b - s * v1
        x2[j] = c - s * v2


def _rotate(x, k, lo, hi, c, s):
    """x[k:k+2, lo:hi] <- [[c, s], [-s, c]] x[k:k+2, lo:hi], in place.

    Element by element on the two row views, bound once."""
    x0, x1 = x[k], x[k + 1]
    for j in range(lo, hi):
        t1 = x0[j]
        t2 = x1[j]
        x0[j] = c * t1 + s * t2
        x1[j] = -s * t1 + c * t2


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
    ht, qt = h.T, q.T
    ihi = n - 1
    total = 0
    stall = 0
    limit = max_sweeps_per_n * n
    while ihi > 0:
        # diag[k] = h[k, k] and sub[k - 1] = h[k, k - 1], as Python floats
        diag = np.diagonal(h).tolist()
        sub = np.diagonal(h, -1).tolist()
        for k in range(1, ihi + 1):
            tst = abs(diag[k - 1]) + abs(diag[k])
            if tst == 0.0:
                tst = fro_norm
            if abs(sub[k - 1]) <= eps * tst:
                h[k, k - 1] = sub[k - 1] = 0.0
        if sub[ihi - 1] == 0.0:
            ihi -= 1
            stall = 0
            continue
        if ihi == 1:
            break  # converged 2x2 block at the top
        if sub[ihi - 2] == 0.0:
            ihi -= 2
            stall = 0
            continue
        l = ihi - 1
        while l > 0 and sub[l - 1] != 0.0:
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
            # Householder mapping (x, y, z) to (+-r, 0, 0); out of range,
            # (x, y, z) is scaled by 2**-e and alpha unscaled into h
            e = _range_exponent(max(abs(x), abs(y), abs(z)))
            if e:
                x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
            alpha = math.sqrt(x * x + y * y + z * z)
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
            _reflect3(h, k, lo, n, v0, v1, v2, beta)
            _reflect3(ht, k, 0, min(k + 3, m) + 1, v0, v1, v2, beta)
            _reflect3(qt, k, 0, n, v0, v1, v2, beta)
            if k > l:
                h[k, k - 1] = math.ldexp(alpha, e)
                h[k + 1, k - 1] = 0.0
                h[k + 2, k - 1] = 0.0
        # final 2-rotation clearing the leftover bulge entry h[m, m-2];
        # out of range, (x, y) is scaled by 2**-e, so r is not 0 here
        x = h[m - 1, m - 2]
        y = h[m, m - 2]
        if y != 0.0:
            e = _range_exponent(max(abs(x), abs(y)))
            if e:
                x, y = math.ldexp(x, -e), math.ldexp(y, -e)
            r = math.sqrt(x * x + y * y)
            c = x / r
            s = y / r
            _rotate(h, m - 1, m - 2, n, c, s)
            _rotate(ht, m - 1, 0, m + 1, c, s)
            _rotate(qt, m - 1, 0, n, c, s)
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
    blocks, so 2x2 blocks remain only for complex conjugate pairs, and
    return the diagonal blocks as (start, size, values).

    Each block is classified and rotated from its scaled_2x2_block form,
    so tiny and huge blocks split as well as moderate ones.  A real block
    whose eigenvector squares underflow even there has off-diagonal
    entries below about 1e-162 of its largest one; its subdiagonal entry
    is dropped instead.  A complex pair is read from that same form, as
    exact mirrors; a 1x1 value is the diagonal entry after its block's
    rotation, which later rotations do not touch.
    """
    n = t.shape[0]
    blocks = []
    k = 0
    while k < n:
        if k == n - 1 or t[k + 1, k] == 0.0:
            blocks.append((k, 1, (complex(t[k, k], 0.0),)))
            k += 1
            continue
        e, p, qq, r, s, disc = scaled_2x2_block(t, k)
        if disc < 0.0:
            a = np.ldexp(0.5 * (p + s), e)
            b = np.ldexp(0.5 * math.sqrt(-disc), e)
            blocks.append((k, 2, (complex(a, b), complex(a, -b))))
            k += 2
            continue
        sq = math.sqrt(disc)
        lam = 0.5 * ((p + s) + sq) if p + s >= 0.0 else 0.5 * ((p + s) - sq)
        # eigenvector of the block for lam; pick the better-scaled form
        v0 = qq
        v1 = lam - p
        w0 = lam - s
        w1 = r
        if v0 * v0 + v1 * v1 < w0 * w0 + w1 * w1:
            v0 = w0
            v1 = w1
        nrm = math.sqrt(v0 * v0 + v1 * v1)
        if nrm != 0.0:
            c = v0 / nrm
            sn = v1 / nrm
            _rotate(t, k, 0, n, c, sn)
            _rotate(t.T, k, 0, n, c, sn)
            _rotate(q.T, k, 0, q.shape[0], c, sn)
        t[k + 1, k] = 0.0
        blocks += [(j, 1, (complex(t[j, j], 0.0),)) for j in (k, k + 1)]
        k += 2
    return blocks
