"""Hot numeric kernels: LU, Hessenberg reduction, Francis double-shift QR.

The LU and balancing kernels are numpy row and column slice updates, one
Python step per pivot or row, and every kernel here is bit-identical to
elementwise loops while no entry is NaN (``tests/test_linalg.py`` keeps
those loops as the oracle).  Every sum still accumulates from zero in
the loops' order: never ``@``, ``dot`` or ``sum``, whose order numpy does
not fix.

hessenberg_in_place makes O(1) numpy calls per reflector, LAPACK
dgehd2's: v = (1, x / (alpha - beta)) and tau from dlarfg.  Each squared
norm and each row sum of x (I - tau v v^T) is one sequential
``np.add.accumulate`` along ``[+0.0 | products]`` (_sums_in_order): the
loop's sum from zero, whose leading +0.0 also keeps its signed zeros.

francis_qr is a port of LAPACK dlahqr with T and Q accumulated: the
Ahues-Kressner deflation test, dlahqr's shifts and exceptional shifts,
and a bulge chased by dlarfg reflectors (_reflector), applied by
_reflect3 on three rows (10 scalar operations per column) and by
_reflect2 on the last two.  A column update is the row update on the
transposed view ``x.T`` (francis_qr binds ``h.T`` and ``q.T`` once),
with the same products and sums in the same order.  _rotate, a plane
rotation, serves split_real_2x2_blocks.

_reflect3, _reflect2 and _rotate stay element loops on numpy scalars, in
the elementwise loop's order: they bind their row views once per call,
index them 1-D and read each element once.  Once per sweep francis_qr
reads the diagonal and the subdiagonal as Python floats for its
deflation scan.  The reflector norms are ``math.hypot``'s, of entries
that scaled_by_power_of_two's rule scales by an exact power of two when
their largest magnitude lies outside [2**-500, 2**500].  francis_qr
itself expects H scaled into dgeev's range (dgeev_exponent), which its
absolute deflation bound needs.  T and Q are
bit for bit those of the elementwise dlahqr loop
(``tests/test_linalg.py::loop_francis_qr`` is the oracle).

Python-float or sliced loops wait for a benchmark that keeps only
digests (ROADMAP item 2).  ``benchmarks/bench_eigensolver.py`` times the
kernels against ``numpy.linalg.eig``.

split_real_2x2_blocks returns the eigenvalues from the same scaled
reading of each 2x2 block that sorts it, as LAPACK dlanv2 does, and
splits a block whose pair has an imaginary part of rounding size
against ||T||_F as a double real eigenvalue.

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


def _range_exponent(big, bound=500):
    """0 if the magnitude big lies in [2**-bound, 2**bound] (or is 0 or
    not finite), else the e with big = 2**e * c and 0.5 <= c < 1."""
    if 2.0**-bound <= big <= 2.0**bound:
        return 0
    return math.frexp(big)[1]


def dgeev_exponent(big):
    """The least e that brings 2**-e big into dgeev's range [2**-459,
    2**459], sqrt(safmin) / ulp and its inverse; 0 when big lies there
    or is 0.  francis_qr expects H scaled there (see its docstring)."""
    e = _range_exponent(big, 459)
    if not e:
        return 0
    return e - 459 if big > 1.0 else e + 458


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

    Each reflector is dlarfg's, as LAPACK dgehd2 uses it: v = (1, x /
    (alpha - beta)) and tau = (beta - alpha) / beta for the column
    (alpha, x) below the diagonal, and none when x = 0.  A column with
    one non-zero entry below the subdiagonal, as a signed-unit
    translation has, then gives tau = 1 and v of zeros and +-1, which
    permutes entries exactly.  The column, and x for its norm, are
    scaled as scaled_by_power_of_two leaves them, so their squares stay
    in range.  Each reflector is applied on whole rows and columns, and
    every sum accumulates from zero in the order of the elementwise
    loop, so the result is bit-identical to it (``tests/test_linalg.py``
    keeps the loop as the oracle).
    """
    n = h.shape[0]
    for k in range(n - 2):
        col, e = scaled_by_power_of_two(h[k + 1:, k])
        x, ex = scaled_by_power_of_two(col[1:])
        xnorm = math.ldexp(math.sqrt(_sums_in_order(x, x)), ex)
        if xnorm == 0.0:
            continue
        alpha = float(col[0])
        beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
        v = col * (1.0 / (alpha - beta))
        v[0] = 1.0
        tau = (beta - alpha) / beta
        # rows k+1..n-1 from the left; columns < k are already zero there
        _reflect_right(h[k + 1:, k:].T, v, tau)
        # columns k+1..n-1 from the right
        _reflect_right(h[:, k + 1:], v, tau)
        _reflect_right(q[:, k + 1:], v, tau)
        h[k + 1, k] = math.ldexp(beta, e)
        h[k + 2:, k] = 0.0


def _reflect3(x, k, lo, hi, v2, v3, t1, t2, t3):
    """x[k:k+3, lo:hi] <- (I - t1 v v^T) x[k:k+3, lo:hi] with v = (1, v2,
    v3), t2 = t1 v2 and t3 = t1 v3, as dlahqr applies it.

    Element by element on the three row views, bound once; each element
    is read once, and each column takes 10 scalar operations."""
    x0, x1, x2 = x[k], x[k + 1], x[k + 2]
    for j in range(lo, hi):
        a = x0[j]
        b = x1[j]
        c = x2[j]
        s = a + v2 * b + v3 * c
        x0[j] = a - s * t1
        x1[j] = b - s * t2
        x2[j] = c - s * t3


def _reflect2(x, k, lo, hi, v2, t1, t2):
    """_reflect3 on two rows: v = (1, v2) and t2 = t1 v2."""
    x0, x1 = x[k], x[k + 1]
    for j in range(lo, hi):
        a = x0[j]
        b = x1[j]
        s = a + v2 * b
        x0[j] = a - s * t1
        x1[j] = b - s * t2


def _rotate(x, k, lo, hi, c, s):
    """x[k:k+2, lo:hi] <- [[c, s], [-s, c]] x[k:k+2, lo:hi], in place.

    Element by element on the two row views, bound once."""
    x0, x1 = x[k], x[k + 1]
    for j in range(lo, hi):
        t1 = x0[j]
        t2 = x1[j]
        x0[j] = c * t1 + s * t2
        x1[j] = -s * t1 + c * t2


def _reflector(alpha, x, y):
    """dlarfg's reflector of (alpha, x, y): (beta, t1, v2, v3) with
    (I - t1 v v^T) (alpha, x, y) = (beta, 0, 0) and v = (1, v2, v3), or
    None when x = y = 0 (t1 = 0).  The norms are math.hypot's, which
    neither overflows nor underflows, as dlarfg's dnrm2 and dlapy2 do not.
    Outside [2**-500, 2**500] the entries are scaled by 2**-e first
    (_range_exponent), so 1 / (alpha - beta) stays finite, and beta is
    unscaled; t1 and v are ratios and need nothing.  t1, v2 and v3 are
    numpy scalars, as the entries _reflect3 multiplies them with."""
    if x == 0.0 and y == 0.0:
        return None
    e = _range_exponent(max(abs(alpha), abs(x), abs(y)))
    if e:
        alpha, x, y = math.ldexp(alpha, -e), math.ldexp(x, -e), math.ldexp(y, -e)
    beta = -math.copysign(math.hypot(alpha, math.hypot(x, y)), alpha)
    w = 1.0 / (alpha - beta)
    return (math.ldexp(beta, e), np.float64((beta - alpha) / beta),
            np.float64(x * w), np.float64(y * w))


_ULP = float(np.finfo(np.float64).eps)  # dlamch('P')
_SAFMIN = float(np.finfo(np.float64).tiny)  # dlamch('S')


def qr_sweep_limit(n):
    """The sweeps francis_qr runs on one active block of an n x n matrix
    without a deflation before it gives up: dlahqr's ITMAX + 1, with
    ITMAX = 30 max(10, n)."""
    return 30 * max(10, n) + 1


def _shifts(h11, h12, h21, h22):
    """dlahqr's double shift from the 2x2 block [[h11, h12], [h21, h22]]:
    (rt1r, rt1i, rt2r, rt2i).  The block is scaled by its 1-norm, and its
    determinant taken about the mean of the diagonal; of real roots the
    one nearer h22 is returned twice."""
    s = abs(h11) + abs(h12) + abs(h21) + abs(h22)
    if s == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    h11 = h11 / s
    h21 = h21 / s
    h12 = h12 / s
    h22 = h22 / s
    tr = (h11 + h22) / 2.0
    det = (h11 - tr) * (h22 - tr) - h12 * h21
    rtdisc = math.sqrt(abs(det))
    if det >= 0.0:
        return tr * s, rtdisc * s, tr * s, -(rtdisc * s)
    rt1r = tr + rtdisc
    rt2r = tr - rtdisc
    rt = rt1r * s if abs(rt1r - h22) <= abs(rt2r - h22) else rt2r * s
    return rt, 0.0, rt, 0.0


def francis_qr(h, q):
    """Implicit double-shift QR on an upper Hessenberg matrix, in place: a
    port of LAPACK dlahqr with T and Q accumulated on whole rows and
    columns.

    Deflation, scanning up from the bottom of the active block: h[k,k-1]
    is dropped when it is at most smlnum = safmin n / ulp, or when it is
    at most ulp (|h[k-1,k-1]| + |h[k,k]|), or ulp times the neighbouring
    subdiagonal entries when that sum is 0, and passes the test of Ahues
    and Kressner (2004) on the 2x2 block at k-1.  Shifts: _shifts of the
    trailing 2x2 block, except on the 10th and 20th sweep without a
    deflation, which take dlahqr's exceptional shifts from the
    subdiagonal at the top and at the bottom of the block.  The bulge
    starts at the largest m where two consecutive subdiagonal entries
    are small against the shift column, scaled by its 1-norm, and each
    step is a dlarfg reflector (_reflector) applied by _reflect3, or by
    _reflect2 on the last two rows.

    Returns (code, lo, hi, sweeps, exceptional): code 0 on success, or 1
    with h[lo:hi+1, lo:hi+1] the block that ran qr_sweep_limit(n) sweeps
    without a deflation; sweeps counts the sweeps run, and exceptional
    those with an exceptional shift.

    h is expected in dgeev's range: max |h| in [2**-459, 2**459]
    (dgeev_exponent; linalg._hessenberg_stage scales it there).  Below
    it, the absolute bound smlnum would deflate a whole tiny spectrum to
    zero.  There the reflector entries never exceed 2**500, so only the
    underflow side of _reflector's scaling is reached; direct calls on
    larger h reach both.
    """
    n = h.shape[0]
    ht, qt = h.T, q.T
    smlnum = _SAFMIN * (n / _ULP)
    limit = qr_sweep_limit(n)
    sweeps = exceptional = 0
    i = n - 1
    while i >= 0:
        l = 0
        for kdefl in range(1, limit + 1):
            # diag[k] = h[k, k] and sub[k - 1] = h[k, k - 1], as Python floats
            diag = np.diagonal(h).tolist()
            sub = np.diagonal(h, -1).tolist()
            k = i
            while k > l:
                hk = abs(sub[k - 1])
                if hk <= smlnum:
                    break
                tst = abs(diag[k - 1]) + abs(diag[k])
                if tst == 0.0:
                    if k >= 2:
                        tst += abs(sub[k - 2])
                    if k + 1 < n:
                        tst += abs(sub[k])
                if hk <= _ULP * tst:
                    hu = abs(float(h[k - 1, k]))
                    ab, ba = max(hk, hu), min(hk, hu)
                    hd = abs(diag[k - 1] - diag[k])
                    aa, bb = max(abs(diag[k]), hd), min(abs(diag[k]), hd)
                    s = aa + ab
                    if ba * (ab / s) <= max(smlnum, _ULP * (bb * (aa / s))):
                        break
                k -= 1
            l = k
            if l > 0:
                h[l, l - 1] = 0.0
            if l >= i - 1:
                break  # a 1x1 or 2x2 block split off at the bottom
            sweeps += 1
            if kdefl % 10 == 0:
                exceptional += 1
                if kdefl % 20 == 0:
                    s = abs(h[i, i - 1]) + abs(h[i - 1, i - 2])
                    h11 = 0.75 * s + h[i, i]
                else:
                    s = abs(h[l + 1, l]) + abs(h[l + 2, l + 1])
                    h11 = 0.75 * s + h[l, l]
                rt1r, rt1i, rt2r, rt2i = _shifts(h11, -0.4375 * s, s, h11)
            else:
                rt1r, rt1i, rt2r, rt2i = _shifts(h[i - 1, i - 1], h[i - 1, i], h[i, i - 1], h[i, i])
            # the bulge starts at the largest m where h[m,m-1] is
            # negligible against the shift column v it would make there
            for m in range(i - 2, l - 1, -1):
                hmm = h[m, m]
                h21s = h[m + 1, m]
                s = abs(hmm - rt2r) + abs(rt2i) + abs(h21s)
                h21s = h21s / s
                v1 = h21s * h[m, m + 1] + (hmm - rt1r) * ((hmm - rt2r) / s) - rt1i * (rt2i / s)
                v2 = h21s * (hmm + h[m + 1, m + 1] - rt1r - rt2r)
                v3 = h21s * h[m + 2, m + 1]
                s = abs(v1) + abs(v2) + abs(v3)
                v1 = v1 / s
                v2 = v2 / s
                v3 = v3 / s
                if m == l:
                    break
                h00 = abs(h[m, m - 1]) * (abs(v2) + abs(v3))
                h01 = _ULP * abs(v1) * (abs(h[m - 1, m - 1]) + abs(hmm) + abs(h[m + 1, m + 1]))
                if h00 <= h01:
                    break
            for k in range(m, i):
                three = k + 2 <= i
                if k > m:
                    v1 = h[k, k - 1]
                    v2 = h[k + 1, k - 1]
                    v3 = h[k + 2, k - 1] if three else 0.0
                reflector = _reflector(v1, v2, v3)
                if k > m:
                    if reflector is not None:
                        h[k, k - 1] = reflector[0]
                    h[k + 1, k - 1] = 0.0
                    if three:
                        h[k + 2, k - 1] = 0.0
                elif m > l and reflector is not None:
                    # h[m,m-1] (1 - t1) in place of -h[m,m-1], which is
                    # wrong when v2 and v3 underflow (dlahqr)
                    h[k, k - 1] = h[k, k - 1] * (1.0 - reflector[1])
                if reflector is None:
                    continue
                _, t1, v2, v3 = reflector
                t2 = t1 * v2
                if three:
                    t3 = t1 * v3
                    _reflect3(h, k, k, n, v2, v3, t1, t2, t3)
                    _reflect3(ht, k, 0, min(k + 3, i) + 1, v2, v3, t1, t2, t3)
                    _reflect3(qt, k, 0, n, v2, v3, t1, t2, t3)
                else:
                    _reflect2(h, k, k, n, v2, t1, t2)
                    _reflect2(ht, k, 0, i + 1, v2, t1, t2)
                    _reflect2(qt, k, 0, n, v2, t1, t2)
        else:
            return (1, l, i, sweeps, exceptional)
        i = l - 1
    return (0, 0, 0, sweeps, exceptional)


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


def _fro(t):
    """Frobenius norm of t, its squares taken in units of max |t|."""
    big = float(np.abs(t).max()) if t.size else 0.0
    return big * math.sqrt(float(np.square(t / big).sum())) if big else 0.0


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

    A block with a negative discriminant is split too, as a double real
    eigenvalue, when the subdiagonal entry its rotation leaves (and the
    split drops) is at most ulp ||t||_F: the classical deflation test
    with the norm floor.  dlahqr's deflation keeps such blocks where two
    diagonal entries nearly coincide, as on a multiple eigenvalue of a
    symmetric matrix, and read as a pair they would give it an imaginary
    part of rounding size and one eigenvector in place of two.
    """
    n = t.shape[0]
    tol = _ULP * _fro(t)
    blocks = []
    k = 0
    while k < n:
        if k == n - 1 or t[k + 1, k] == 0.0:
            blocks.append((k, 1, (complex(t[k, k], 0.0),)))
            k += 1
            continue
        e, p, qq, r, s, disc = scaled_2x2_block(t, k)
        sq = math.sqrt(max(disc, 0.0))
        lam = 0.5 * ((p + s) + sq) if p + s >= 0.0 else 0.5 * ((p + s) - sq)
        # eigenvector of the block for lam; pick the better-scaled form.
        # With lam the mean of a negative-discriminant block's diagonal,
        # (B - lam) v = (0, disc / 4) and (B - lam) w = (disc / 4, 0), so
        # the rotation leaves |off disc| / (4 |v|**2) below the diagonal
        v0 = qq
        v1 = lam - p
        w0 = lam - s
        w1 = r
        off = qq
        if v0 * v0 + v1 * v1 < w0 * w0 + w1 * w1:
            v0 = w0
            v1 = w1
            off = r
        if disc < 0.0 and abs(off * disc) > 4.0 * math.ldexp(tol, -e) * (v0 * v0 + v1 * v1):
            a = np.ldexp(0.5 * (p + s), e)
            b = np.ldexp(0.5 * math.sqrt(-disc), e)
            blocks.append((k, 2, (complex(a, b), complex(a, -b))))
            k += 2
            continue
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
