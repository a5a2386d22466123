"""Octonion algebra: structure table, products, conjugation, norms,
inverses, complexification and the literal grammar."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octoeig import (
    ComplexOctonion,
    Octonion,
    OctonionParseError,
    format_complex_octonion,
    format_octonion,
    parse_complex_octonion,
    parse_octonion,
    structure_constant,
)

from conftest import rand_octonion

E = Octonion.basis

# Independently hand-entered copy of the full 7x7 table e_m e_n =
# sign * e_p, expanded from the seven oriented triples by hand (rows m,
# columns n; (sign, 0) encodes a real result).
HAND_TABLE = {
    (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2), (1, 4): (1, 5),
    (1, 5): (-1, 4), (1, 6): (-1, 7), (1, 7): (1, 6),
    (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1), (2, 4): (1, 6),
    (2, 5): (1, 7), (2, 6): (-1, 4), (2, 7): (-1, 5),
    (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0), (3, 4): (1, 7),
    (3, 5): (-1, 6), (3, 6): (1, 5), (3, 7): (-1, 4),
    (4, 1): (-1, 5), (4, 2): (-1, 6), (4, 3): (-1, 7), (4, 4): (-1, 0),
    (4, 5): (1, 1), (4, 6): (1, 2), (4, 7): (1, 3),
    (5, 1): (1, 4), (5, 2): (-1, 7), (5, 3): (1, 6), (5, 4): (-1, 1),
    (5, 5): (-1, 0), (5, 6): (-1, 3), (5, 7): (1, 2),
    (6, 1): (1, 7), (6, 2): (1, 4), (6, 3): (-1, 5), (6, 4): (-1, 2),
    (6, 5): (1, 3), (6, 6): (-1, 0), (6, 7): (-1, 1),
    (7, 1): (-1, 6), (7, 2): (1, 5), (7, 3): (1, 4), (7, 4): (-1, 3),
    (7, 5): (-1, 2), (7, 6): (1, 1), (7, 7): (-1, 0),
}


class TestStructureTable:
    def test_full_table_matches_hand_copy(self):
        for (m, n), want in HAND_TABLE.items():
            assert structure_constant(m, n) == want, (m, n)

    def test_all_49_products_as_octonions(self):
        for (m, n), (sign, p) in HAND_TABLE.items():
            want = sign * E(p)
            assert E(m) * E(n) == want, (m, n)

    def test_antisymmetry(self):
        for m in range(1, 8):
            for n in range(1, 8):
                if m != n:
                    assert E(m) * E(n) == -(E(n) * E(m))

    @pytest.mark.parametrize("pair,want", [((2, 5), (1, 7)), ((7, 2), (1, 5)),
                                           ((3, 3), (-1, 0))])
    def test_specific_constants(self, pair, want):
        assert structure_constant(*pair) == want

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            structure_constant(0, 3)
        with pytest.raises(IndexError):
            structure_constant(2, 8)


class TestMultiplication:
    def test_basis_products(self):
        assert E(1) * E(2) == E(3)
        assert E(4) * E(7) == E(3)

    def test_identity(self, rng):
        for _ in range(20):
            o = rand_octonion(rng)
            assert Octonion.one() * o == o
            assert o * Octonion.one() == o

    def test_nonassociativity_witness(self):
        # the two bracketings of e2, e4, e3 give opposite results
        assert E(2) * (E(4) * E(3)) == E(5)
        assert (E(2) * E(4)) * E(3) == -E(5)
        associator = (E(2) * E(4)) * E(3) - E(2) * (E(4) * E(3))
        assert associator == -2 * E(5)

    def test_bilinearity_exact_on_integers(self, rng):
        for _ in range(20):
            a = Octonion(rng.integers(-9, 10, 8).astype(float))
            b = Octonion(rng.integers(-9, 10, 8).astype(float))
            c = Octonion(rng.integers(-9, 10, 8).astype(float))
            assert (a + b) * c == a * c + b * c
            assert c * (a + b) == c * a + c * b

    def test_alternativity_basis_exact(self):
        for m in range(8):
            for n in range(8):
                a, b = E(m), E(n)
                assert a * (a * b) == (a * a) * b
                assert (a * b) * b == a * (b * b)

    def test_alternativity_random(self, rng):
        for _ in range(1000):
            a = rand_octonion(rng, -2, 2)
            b = rand_octonion(rng, -2, 2)
            assert (a * (a * b)).allclose((a * a) * b, 1e-12)
            assert ((a * b) * b).allclose(a * (b * b), 1e-12)

    def test_conj_product_property(self, rng):
        # o1^dag (o1 o2) = (o1^dag o1) o2 = (o2 o1^dag) o1
        for m in range(8):
            for n in range(8):
                o1, o2 = E(m), E(n)
                lhs = o1.conj() * (o1 * o2)
                assert lhs == (o1.conj() * o1) * o2
                assert lhs == (o2 * o1.conj()) * o1
        for _ in range(200):
            o1 = rand_octonion(rng, -2, 2)
            o2 = rand_octonion(rng, -2, 2)
            lhs = o1.conj() * (o1 * o2)
            assert lhs.allclose((o1.conj() * o1) * o2, 1e-10)
            assert lhs.allclose((o2 * o1.conj()) * o1, 1e-10)


class TestConjNormInverse:
    def test_conj_examples(self):
        assert (Octonion.one() + E(3)).conj() == Octonion.one() - E(3)

    def test_conj_involution(self, rng):
        for _ in range(20):
            o = rand_octonion(rng)
            assert o.conj().conj() == o

    def test_conj_antiautomorphism(self, rng):
        for m in range(8):
            for n in range(8):
                assert (E(m) * E(n)).conj() == E(n).conj() * E(m).conj()
        for _ in range(100):
            a, b = rand_octonion(rng), rand_octonion(rng)
            assert (a * b).conj().allclose(b.conj() * a.conj(), 1e-10)

    def test_norm_examples(self):
        assert E(5).norm() == 1.0
        assert (3 + 4 * E(2)).norm() == 5.0
        assert Octonion.zero().norm() == 0.0

    def test_norm_composition(self, rng):
        for _ in range(200):
            a = rand_octonion(rng, -3, 3)
            b = rand_octonion(rng, -3, 3)
            assert abs((a * b).norm() - a.norm() * b.norm()) <= 1e-12 * max(
                1.0, a.norm() * b.norm()
            )

    def test_inverse_examples(self):
        assert E(4).inverse() == -E(4)
        assert Octonion.from_scalar(2.0).inverse() == Octonion.from_scalar(0.5)

    def test_inverse_definition(self, rng):
        one = Octonion.one()
        for _ in range(200):
            o = rand_octonion(rng)
            if o.norm() < 1e-6:
                continue
            assert (o * o.inverse()).allclose(one, 1e-12)
            assert (o.inverse() * o).allclose(one, 1e-12)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError, match="zero octonion"):
            Octonion.zero().inverse()

    @pytest.mark.parametrize("k", [-1022, -1000, -600, -501, 501, 600, 1000, 1022])
    def test_powers_of_two_exact(self, k):
        for j in range(8):
            o = 2.0**k * E(j)
            assert o.norm() == 2.0**k
            assert o.inverse() == 2.0**-k * E(j).conj()
        assert (2.0**k * (E(0) + E(1) + E(2) + E(3))).norm() == 2.0 ** (k + 1)

    def test_tiny_norm_is_not_zero(self):
        assert Octonion.from_scalar(1e-170).norm() == 1e-170
        assert abs(Octonion(np.full(8, 1e-170)).norm() / (8**0.5 * 1e-170) - 1.0) <= 1e-15

    def test_beyond_float64_raises(self):
        # 1 / 5e-324 and the norm 2**1024 are beyond float64: typed
        # errors, not 0, inf or a warning
        with pytest.raises(ValueError, match="finite"):
            Octonion.from_scalar(5e-324).inverse()
        with pytest.raises(OverflowError):
            (2.0**1023 * (E(0) + E(1) + E(2) + E(3))).norm()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
           st.integers(-1000, 1000))
    def test_inverse_at_extreme_exponents(self, mantissas, k):
        assume(max(abs(x) for x in mantissas) >= 0.5)
        o = Octonion(np.ldexp(mantissas, k))
        for prod in (o * o.inverse(), o.inverse() * o):
            assert np.abs(prod.coeffs - Octonion.one().coeffs).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-(2.0**500), 2.0**500), min_size=8, max_size=8))
    def test_bitwise_equal_to_the_unscaled_formula_in_range(self, coeffs):
        # inside [2**-500, 2**500] the norm and inverse are unscaled
        assume(max(abs(x) for x in coeffs) >= 2.0**-500)
        o = Octonion(coeffs)
        n2 = o.coeffs @ o.coeffs
        assert o.norm() == float(np.sqrt(n2))
        assert o.inverse().coeffs.tobytes() == (o.conj().coeffs / n2).tobytes()


class TestComplexOctonion:
    def test_i_squares_to_minus_one(self):
        i = ComplexOctonion.i_unit()
        assert i * i == ComplexOctonion(-Octonion.one())

    def test_i_commutes_with_units(self):
        i = ComplexOctonion.i_unit()
        for m in range(8):
            em = ComplexOctonion(E(m))
            assert i * em == em * i

    def test_unit_eigen_identities(self):
        # e4 Phi = Phi (-i) for Phi in {e4 - i, e5 + i e1, e6 + i e2, e7 + i e3}
        e4 = ComplexOctonion(E(4))
        minus_i = ComplexOctonion(Octonion.zero(), -Octonion.one())
        pairs = [
            (E(4), -Octonion.one()),
            (E(5), E(1)),
            (E(6), E(2)),
            (E(7), E(3)),
        ]
        for p1, p2 in pairs:
            phi = ComplexOctonion(p1, p2)
            assert e4 * phi == phi * minus_i

    def test_componentwise_product(self, rng):
        for _ in range(50):
            a, b = rand_octonion(rng), rand_octonion(rng)
            c, d = rand_octonion(rng), rand_octonion(rng)
            x = ComplexOctonion(a, b)
            y = ComplexOctonion(c, d)
            prod = x * y
            assert prod.re.allclose(a * c - b * d, 1e-10)
            assert prod.im.allclose(a * d + b * c, 1e-10)

    def test_scalar_complex_multiplication(self):
        x = ComplexOctonion(E(4), E(1))
        assert x * (-1j) == ComplexOctonion(E(1), -E(4))

    def test_tiny_norm_is_not_zero(self):
        assert ComplexOctonion(Octonion.from_scalar(1e-170)).norm() == 1e-170
        assert ComplexOctonion(Octonion.zero(), 2.0**-600 * E(3)).norm() == 2.0**-600

    def test_huge_norm_is_finite(self):
        # re and im are scaled together, so 1e160 squares without overflow
        # and without a RuntimeWarning
        with np.errstate(over="raise"):
            assert ComplexOctonion(Octonion.from_scalar(1e160)).norm() == 1e160
            x = ComplexOctonion(3.0 * 2.0**600 * E(2), 4.0 * 2.0**600 * E(5))
            assert x.norm() == 5.0 * 2.0**600
        with pytest.raises(OverflowError):
            ComplexOctonion(2.0**1023 * (E(0) + E(1)), 2.0**1023 * (E(2) + E(3))).norm()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-(2.0**500), 2.0**500), min_size=16, max_size=16))
    def test_bitwise_equal_to_the_unscaled_formula_in_range(self, coeffs):
        # inside [2**-500, 2**500] the norm is unscaled
        assume(max(abs(x) for x in coeffs) >= 2.0**-500)
        x = ComplexOctonion(Octonion(coeffs[:8]), Octonion(coeffs[8:]))
        want = float(np.sqrt(x.re.norm_sq() + x.im.norm_sq()))
        assert np.float64(x.norm()).tobytes() == np.float64(want).tobytes()


class TestGrammar:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("1 - 2e3 + e7", [1, 0, 0, -2, 0, 0, 0, 1]),
            ("0", [0] * 8),
            ("e1", [0, 1, 0, 0, 0, 0, 0, 0]),
            ("-e5", [0, 0, 0, 0, 0, -1, 0, 0]),
            ("2.5e2-1", [-1, 0, 2.5, 0, 0, 0, 0, 0]),
            ("  1+ e2 -e2 ", [1] + [0] * 7),
        ],
    )
    def test_parse(self, text, coeffs):
        assert parse_octonion(text) == Octonion(coeffs)

    def test_roundtrip(self, rng):
        for _ in range(50):
            o = Octonion(rng.integers(-9, 10, 8).astype(float))
            assert parse_octonion(format_octonion(o)) == o

    def test_roundtrip_fractional(self):
        o = Octonion([0.5, -1.25, 0, 0, 3, 0, 0, -0.75])
        assert parse_octonion(format_octonion(o)) == o

    def test_roundtrip_extreme_magnitudes(self, rng):
        # 'e' belongs to the basis units, so formatting must never fall
        # back to scientific notation
        for _ in range(100):
            scale = 10.0 ** rng.integers(-18, 18)
            o = Octonion(rng.uniform(-1, 1, 8) * scale)
            text = format_octonion(o)
            assert "E" not in text
            assert parse_octonion(text) == o

    @pytest.mark.parametrize("bad", ["e9", "", "1 +", "x3", "e", "2e0"])
    def test_parse_errors(self, bad):
        with pytest.raises(OctonionParseError):
            parse_octonion(bad)

    def test_parse_error_position(self):
        try:
            parse_octonion("1 + e9")
        except OctonionParseError as exc:
            assert exc.position == 4
        else:
            pytest.fail("expected a parse error")

    def test_complexified_literal(self):
        x = parse_complex_octonion("(e4) + i(-1)")
        assert x == ComplexOctonion(E(4), -Octonion.one())
        y = parse_complex_octonion("(1 + e5) - i(2e1)")
        assert y == ComplexOctonion(Octonion.one() + E(5), -2 * E(1))
        z = parse_complex_octonion("1 - e6")
        assert z == ComplexOctonion(Octonion.one() - E(6))
        assert parse_complex_octonion(format_complex_octonion(x)) == x

    def test_finiteness_enforced(self):
        with pytest.raises(ValueError):
            Octonion([np.nan] + [0] * 7)
        with pytest.raises(ValueError):
            Octonion([np.inf] + [0] * 7)
