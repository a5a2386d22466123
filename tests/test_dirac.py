"""Dirac representation: algebra identities, dispersion, doublet split."""

import math
import warnings

import numpy as np
import pytest

from octoeig import (
    ComplexOctonion,
    Octonion,
    dirac_algebra_check,
    dirac_representation,
    dispersion_check,
    orthogonal_doublet_check,
)
from octoeig import dirac
from octoeig.dirac import left_anticommutator_check, split_doublet
from octoeig.octonion import LEFT_UNITS, RIGHT_UNITS, left_mul_matrix

E = Octonion.basis


class TestAlgebra:
    def test_full_report(self):
        rep = dirac_algebra_check()
        assert rep["all_passed"]

    def test_alpha_squares(self):
        rep = dirac_representation()
        eye = np.eye(8)
        for alpha in rep.alphas:
            assert np.array_equal(alpha @ alpha, eye + 0j)

    def test_mixed_anticommutators_vanish(self):
        rep = dirac_representation()
        a1, a2, a3 = rep.alphas
        zero = np.zeros((8, 8), dtype=complex)
        assert np.array_equal(a1 @ a2 + a2 @ a1, zero)
        assert np.array_equal(a3 @ rep.beta + rep.beta @ a3, zero)

    def test_beta_squares_to_identity(self):
        rep = dirac_representation()
        assert np.array_equal(rep.beta @ rep.beta, np.eye(8) + 0j)

    def test_left_anticommutator_mechanism(self):
        assert left_anticommutator_check()["ok"] is True

    def test_left_anticommutator_fails_on_a_wrong_table(self, monkeypatch):
        # negative control: R3 in place of L3 breaks the identity
        table = LEFT_UNITS.copy()
        table[3] = RIGHT_UNITS[3]
        monkeypatch.setattr(dirac, "LEFT_UNITS", table)
        assert left_anticommutator_check()["ok"] is False

    def test_representation_is_i_times_the_unit_matrices(self):
        # oracle: i L_{e_k} built from a fresh coefficient array
        rep = dirac_representation()
        for k, got in zip((1, 2, 3, 4), rep.alphas + (rep.beta,)):
            want = 1j * left_mul_matrix(np.eye(8)[k].copy())
            assert got.tobytes() == want.tobytes()


class TestDispersion:
    def test_rest_mass_only(self):
        assert dispersion_check(p=(0, 0, 0), m=1.0)["max_error"] == 0.0

    def test_massless_unit_momentum(self):
        assert dispersion_check(p=(1, 0, 0), m=0.0)["max_error"] == 0.0

    def test_integer_case_exact(self):
        rep = dirac_representation()
        H = rep.alphas[0] + 2 * rep.alphas[1] + 2 * rep.alphas[2] + 3 * rep.beta
        assert np.array_equal(H @ H, 18.0 * np.eye(8) + 0j)
        r = dispersion_check(p=(1, 2, 2), m=3.0)
        assert r["ok"] and r["max_error"] == 0.0

    @pytest.mark.parametrize("p, m, message", [
        ((math.nan, 0.0, 0.0), 1.0, "p and the mass must be finite"),
        ((0.0, math.inf, 0.0), 1.0, "p and the mass must be finite"),
        ((0.0, 0.0, -math.inf), 0.0, "p and the mass must be finite"),
        ((1.0, 0.0, 0.0), math.nan, "p and the mass must be finite"),
        ((1.0, 0.0, 0.0), math.inf, "p and the mass must be finite"),
        ((1.0, 0.0, 0.0), -math.inf, "p and the mass must be finite"),
        ((1.0, 0.0, 0.0), np.float64(math.nan), "p and the mass must be finite"),
    ])
    def test_non_finite_refused(self, p, m, message):
        # these gave max_error nan and ok False (m = inf with warnings),
        # and the sign check let a NaN mass through
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                dispersion_check(p=p, m=m)

    @pytest.mark.parametrize("p, m", [
        ((0.0, 0.0, 0.0), 1e200),
        ((1e160, 0.0, 0.0), 0.0),
        ((0.0, -1e155, 0.0), 1.0),
        ((1e154, 1e154, 0.0), 0.0),  # each square finite, their sum not
        ((1e154, 0.0, 0.0), 1e154),
    ])
    def test_overflowing_squares_refused(self, p, m):
        # these gave max_error nan and ok False, with overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the float64 range"):
                dispersion_check(p=p, m=m)

    @pytest.mark.parametrize("p, m", [
        ((1e150, 0.0, 0.0), 0.0),
        ((0.0, 0.0, 0.0), 1e154),
        ((1e-200, 0.0, 0.0), 1e-200),  # the squares underflow to 0
    ])
    def test_large_and_tiny_squares_in_range(self, p, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = dispersion_check(p=p, m=m)
        assert r["max_error"] == 0.0 and r["ok"]

    def test_negative_mass_still_refused(self):
        with pytest.raises(ValueError, match="mass must be nonnegative"):
            dispersion_check(p=(0.0, 0.0, 0.0), m=-1.0)

    def test_large_momentum_within_the_relative_bound(self):
        # an error of a few ulps of |p|^2 ~ 1.5e6, which an absolute
        # 1e-12 bound reported as a failure
        r = dispersion_check(p=(1234.567, 0.1, 0.3), m=0.7)
        assert r["max_error"] > dirac.DISPERSION_TOL
        assert r["ok"]

    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    def test_200_seeded_at_scale(self, scale):
        rng = np.random.default_rng(int(scale))
        for _ in range(200):
            p = rng.uniform(-scale, scale, 3)
            m = float(rng.uniform(0, scale))
            assert dispersion_check(p=p, m=m)["ok"]

    @pytest.mark.parametrize("scale", [1.0, 1000.0])
    def test_wrong_representation_fails_at_scale(self, scale):
        # beta = alpha_1 breaks {alpha_1, beta} = 0: the cross term
        # 2 p_1 m is far outside the relative bound
        alphas = dirac_representation().alphas
        bad = dirac.DiracRep(alphas, alphas[0])
        assert not dispersion_check(bad, p=(scale, 0.0, 0.0), m=scale)["ok"]

    def test_100_random(self, rng):
        for _ in range(100):
            p = rng.uniform(-3, 3, 3)
            m = float(rng.uniform(0, 3))
            assert dispersion_check(p=p, m=m)["ok"]


class TestDoublet:
    def test_report(self):
        rep = orthogonal_doublet_check()
        assert rep["cross_sector_orthogonal"]
        assert rep["unit_normalized"]
        assert rep["split_reconstructs"]
        assert rep["all_passed"]

    def test_split_example(self):
        x = ComplexOctonion(
            Octonion([1, 2, 0, 0, 3, 0, -1, 0]),
            Octonion([0, 0, 1, 0, 0, 2, 0, 4]),
        )
        psi, phi = split_doublet(x)
        e4 = ComplexOctonion(E(4))
        assert psi + e4 * phi == x
        for part in (psi.re, psi.im, phi.re, phi.im):
            assert np.abs(part.coeffs[4:]).max() == 0.0


# -- the ComplexOctonion doublet check, kept as the array check's oracle -----


def object_projected_inner(x, y):
    prod = x.conj_full() * y
    return complex(prod.re.coeffs[0], prod.im.coeffs[0])


def object_doublet_check():
    report = {}
    cross_ok = True
    within_ok = True
    for j in range(8):
        for k in range(8):
            val = object_projected_inner(ComplexOctonion(E(j)), ComplexOctonion(E(k)))
            if (j < 4) != (k < 4) and val != 0:
                cross_ok = False
            if j == k and val != 1:
                within_ok = False
    report["cross_sector_orthogonal"] = cross_ok
    report["unit_normalized"] = within_ok
    e4 = ComplexOctonion(E(4))
    recon_ok = True
    for j in range(8):
        for x in (ComplexOctonion(E(j)), ComplexOctonion(Octonion.zero(), E(j))):
            psi, phi = split_doublet(x)
            quat_support = all(
                c == 0.0 for o in (psi.re, psi.im, phi.re, phi.im) for c in o.coeffs[4:]
            )
            if not quat_support or not (psi + e4 * phi) == x:
                recon_ok = False
    report["split_reconstructs"] = recon_ok
    report["all_passed"] = cross_ok and within_ok and recon_ok
    return report


def inner_bytes(values):
    return np.array([[v.real, v.imag] for v in values]).tobytes()


class TestArrayDoublet:
    """orthogonal_doublet_check's arrays against the ComplexOctonion loop."""

    def test_report_is_the_loop_report(self):
        got = orthogonal_doublet_check()
        assert got == object_doublet_check()
        assert all(type(v) is bool for v in got.values())

    def test_basis_inner_products_bit_for_bit(self):
        # all 64 pairs of x = e_j, y = e_k, then the same with i-parts,
        # signed zeros included
        units = np.eye(8)
        for xs, ys in [((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (0, 1)), ((1, 1), (1, -1))]:
            x = np.stack([units * xs[0], units * xs[1]], axis=1)
            y = np.stack([units * ys[0], units * ys[1]], axis=1)
            x, y = np.repeat(x, 8, axis=0), np.tile(y, (8, 1, 1))
            got = dirac._projected_inners(x, y)
            want = [
                object_projected_inner(ComplexOctonion(*a), ComplexOctonion(*b))
                for a, b in zip(x, y)
            ]
            assert got.tobytes() == inner_bytes(want)

    @pytest.mark.parametrize("kind", ["integer", "float"])
    def test_random_inner_products_bit_for_bit(self, rng, kind):
        if kind == "integer":
            x, y = (rng.integers(-3, 4, (50, 2, 8)).astype(float) for _ in range(2))
        else:
            x, y = rng.standard_normal((2, 50, 2, 8))
        got = dirac._projected_inners(x, y)
        want = [
            object_projected_inner(ComplexOctonion(*a), ComplexOctonion(*b))
            for a, b in zip(x, y)
        ]
        assert got.tobytes() == inner_bytes(want)

    def test_check_fails_on_a_wrong_conjugation(self, monkeypatch):
        # negative control: without the octonionic dagger e_k e_k = -1
        monkeypatch.setattr(dirac, "CONJ_SIGN", np.ones(8))
        assert orthogonal_doublet_check()["unit_normalized"] is False
