import numpy as np
import pytest

from octoeig import Octonion
from octoeig.octonion import TRIPLES


@pytest.fixture
def rng():
    return np.random.default_rng(20120831)


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
