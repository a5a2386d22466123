import numpy as np
import pytest

from octoeig import Octonion


@pytest.fixture
def rng():
    return np.random.default_rng(20120831)


def rand_octonion(rng, lo=-5.0, hi=5.0) -> Octonion:
    return Octonion(rng.uniform(lo, hi, 8))


def rand_int_octonion(rng, lo=-4, hi=5) -> Octonion:
    return Octonion(rng.integers(lo, hi, 8).astype(float))
