import numpy as np
import pytest

from octoeig import Octonion
from octoeig.octonion import TRIPLES


@pytest.fixture
def rng():
    return np.random.default_rng(20120831)


def left_entry(coeffs):
    """An 8-part JSON entry: left multiplication by an octonion given by its
    coefficients (the literal grammar would read an exponent's e as a unit)."""
    return [[float(c) for c in coeffs]] + ["0"] * 7


def _unit(k, c):
    coeffs = [0.0] * 8
    coeffs[k] = c
    return left_entry(coeffs)


# Operator matrices whose Francis QR reflector norms overflowed before
# (x, y, z) and the closing rotation's (x, y) were scaled into range.
HUGE_QR_MATRICES = {
    "1e100": {"n": 2, "entries": [_unit(1, 1e100), _unit(0, 1.0), _unit(0, 2.0), _unit(2, 3e99)]},
    "1e150": {"n": 2, "entries": [_unit(1, 1e150), _unit(0, 1e149), _unit(5, 2e149),
                                  _unit(6, -1e150)]},
    "1x1": {"n": 1, "entries": [left_entry([1e149, 0, 0, 1e150, 0, 0, 0, 0])]},
}


def assert_same_spectrum(got, want, rtol):
    """got and want hold the same values, with multiplicity, to rtol times
    the largest magnitude: each wanted value takes the nearest one left."""
    got = list(got)
    assert len(got) == len(want)
    tol = rtol * max(1.0, float(np.abs(want).max()))
    for w in want:
        k = min(range(len(got)), key=lambda i: abs(got[i] - w))
        assert abs(got[k] - w) <= tol, (w, got[k])
        del got[k]


def rand_octonion(rng, lo=-5.0, hi=5.0) -> Octonion:
    return Octonion(rng.uniform(lo, hi, 8))


def rand_int_octonion(rng, lo=-4, hi=5) -> Octonion:
    return Octonion(rng.integers(lo, hi, 8).astype(float))


def loop_unit_products():
    """Tables index[a][b], sign[a][b] with e_a e_b = sign * e_index, built
    by loops from the oriented triples."""
    index = [[0] * 8 for _ in range(8)]
    sign = [[0] * 8 for _ in range(8)]
    for a in range(8):
        index[0][a], sign[0][a] = a, 1
        index[a][0], sign[a][0] = a, 1
    for m in range(1, 8):
        index[m][m], sign[m][m] = 0, -1
    for triple in TRIPLES:
        for r in range(3):
            a, b, c = triple[r], triple[(r + 1) % 3], triple[(r + 2) % 3]
            index[a][b], sign[a][b] = c, 1
            index[b][a], sign[b][a] = c, -1
    return index, sign


def loop_gather(rule):
    """Gather tables (index, sign) with out[r][k] = sign[r][k] * x[index[r][k]]
    from a scatter rule: rule(r, c) = (k, s) sends s * x[c] to out[r][k]."""
    index = np.zeros((8, 8), dtype=np.int64)
    sign = np.zeros((8, 8))
    for r in range(8):
        for c in range(8):
            k, s = rule(r, c)
            index[r, k], sign[r, k] = c, s
    return index, sign


def _signed_unit_mul(index, sign, x, y):
    """(s e_a)(t e_b) for signed units x = (a, s), y = (b, t)."""
    (a, s), (b, t) = x, y
    return index[a][b], s * t * sign[a][b]


def octonion_automorphisms():
    """The 1344 automorphisms of the octonions that permute e1..e7 up to
    sign, as (8, 8) signed permutation matrices P acting on coefficient
    columns (P e_k is the image of e_k).

    Each is fixed by the images of e1, e2 and e4, which generate the
    algebra: any signed unit for e1 (14), any other for e2 (12), and any
    outside the quaternion algebra of those two for e4 (8).  The other
    units' images follow from products, and a candidate is kept only if
    it maps every oriented triple of TRIPLES to a product that holds."""
    index, sign = loop_unit_products()
    units = [(k, s) for k in range(1, 8) for s in (1, -1)]
    found = []
    for u1 in units:
        for u2 in units:
            if u2[0] == u1[0]:
                continue
            u3 = _signed_unit_mul(index, sign, u1, u2)
            for u4 in units:
                if u4[0] in (u1[0], u2[0], u3[0]):
                    continue
                image = {0: (0, 1), 1: u1, 2: u2, 4: u4}
                while len(image) < 8:
                    for a, b in [(a, b) for a in list(image) for b in list(image)]:
                        c = index[a][b]
                        if c not in image:
                            k, t = _signed_unit_mul(index, sign, image[a], image[b])
                            image[c] = (k, t * sign[a][b])
                if not all(
                    _signed_unit_mul(index, sign, image[t[r]], image[t[(r + 1) % 3]])
                    == image[t[(r + 2) % 3]]
                    for t in TRIPLES
                    for r in range(3)
                ):
                    continue
                P = np.zeros((8, 8))
                for k, (j, t) in image.items():
                    P[j, k] = t
                found.append(P)
    return np.array(found)


AUTOMORPHISMS = octonion_automorphisms()
# the 96 that fix e1, and with it the (1, e1) plane of the projected product
E1_AUTOMORPHISMS = AUTOMORPHISMS[AUTOMORPHISMS[:, 1, 1] == 1.0]
