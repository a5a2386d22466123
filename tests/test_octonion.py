"""Octonion algebra: structure table, products, conjugation, norms,
inverses, complexification and the literal grammar."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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

from octoeig.octonion import (
    CONJ_SIGN,
    LEFT_UNITS,
    MUL_INDEX,
    MUL_SIGN,
    RIGHT_UNIT_GATHER,
    RIGHT_UNITS,
    _format_number,
    format_coeffs,
    left_mul_matrix,
    right_mul_matrix,
)
from octoeig.operators import operator_basis

from conftest import loop_gather, loop_unit_products, rand_octonion

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


def loop_format_octonion(coeffs) -> str:
    """format_octonion as it was before the row formatter, one octonion
    at a time; kept as the row formatter's oracle."""
    o = Octonion(coeffs)
    parts = []
    for k in range(8):
        c = float(o.coeffs[k])
        if c == 0.0:
            continue
        mag = _format_number(abs(c))
        if k == 0:
            body = mag
        elif abs(c) == 1.0:
            body = f"e{k}"
        else:
            body = f"{mag}e{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# coefficients for the row formatter: signed zeros, +-1 (bare units),
# positional values below 1e-4, the extreme magnitudes, integers past
# 2**53, and any finite float
FORMAT_COEFFS = (
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.7e308, -1.7e308])
    | st.floats(min_value=-1e-4, max_value=1e-4)
    | st.integers(-(2**70), 2**70).map(float)
    | st.floats(allow_nan=False, allow_infinity=False)
)


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

    def test_gathers_match_the_loop_tables(self):
        # oracle: the (index, sign) tables built by loops from TRIPLES
        index, sign = loop_unit_products()
        assert np.array_equal(MUL_INDEX, index)
        assert np.array_equal(MUL_SIGN, sign)
        # row m: o -> o e_m, where o_c e_m lands on e_{index[c][m]}
        want = loop_gather(lambda m, c: (index[c][m], sign[c][m]))
        for got, table in zip(RIGHT_UNIT_GATHER, want):
            assert got.dtype == table.dtype
            assert got.tobytes() == table.tobytes()

    def test_right_unit_gather_is_the_product(self, rng):
        index, sign = RIGHT_UNIT_GATHER
        for _ in range(5):
            o = rand_octonion(rng)
            for m in range(8):
                assert (sign[m] * o.coeffs[index[m]]).tobytes() == (o * E(m)).coeffs.tobytes()


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


class TestSharedElements:
    def test_unit_tables_are_the_unit_matrices(self):
        # oracle: each unit's matrix built from a fresh coefficient array
        for k in range(8):
            e = np.zeros(8)
            e[k] = 1.0
            assert LEFT_UNITS[k].tobytes() == left_mul_matrix(e).tobytes()
            assert RIGHT_UNITS[k].tobytes() == right_mul_matrix(e).tobytes()

    def test_zero_and_units_are_shared(self):
        assert Octonion.zero() is Octonion.zero()
        assert Octonion.zero().coeffs.tobytes() == np.zeros(8).tobytes()
        assert Octonion.one() is E(0)
        for k in range(8):
            assert E(k) is E(k)
            assert E(k).coeffs.tobytes() == np.eye(8)[k].tobytes()
        with pytest.raises(IndexError):
            E(8)

    def test_shared_elements_cannot_be_written(self):
        shared = [LEFT_UNITS, RIGHT_UNITS, CONJ_SIGN, operator_basis(), Octonion.zero().coeffs]
        for arr in shared + [E(k).coeffs for k in range(8)]:
            with pytest.raises(ValueError):
                arr[...] = 1.0
        assert Octonion.zero().is_zero()
        assert np.array_equal(LEFT_UNITS[0], np.eye(8))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e-300, -1e300]),
                    min_size=8, max_size=8))
    def test_conj_bytes(self, coeffs):
        # oracle: negate a copy and put the real part back, signed zeros kept
        o = Octonion(coeffs)
        want = -o.coeffs.copy()
        want[0] = o.coeffs[0]
        assert o.conj().coeffs.tobytes() == want.tobytes()


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=16, max_size=16))
    @example([5e-324, -5e-324, 2.0**-1022, -(2.0**-1022) + 5e-324, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, -0.0] * 2)
    def test_roundtrip_every_finite_float(self, coeffs):
        # subnormals and the largest float64 included: every finite
        # coefficient reads back bit for bit
        o = Octonion(coeffs[:8])
        assert parse_octonion(format_octonion(o)) == o
        x = ComplexOctonion(o, Octonion(coeffs[8:]))
        assert parse_complex_octonion(format_complex_octonion(x)) == x

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.1)
    @example(1e-4)  # repr's last positional value
    @example(9.999999999999999e-05)  # and its first scientific one
    @example(5e-324)
    @example(-2.2250738848414e-308)
    @example(4503599627370495.5)  # the largest non-integer float64
    def test_format_number_is_shortest_positional(self, x):
        # the repr() fast path prints what dragon4's positional shortest
        # form prints, for Python floats and numpy scalars alike
        assume(x != int(x))
        want = np.format_float_positional(x, unique=True, trim="-")
        assert _format_number(x) == want
        assert _format_number(np.float64(x)) == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(FORMAT_COEFFS, min_size=8, max_size=8), max_size=6))
    @example([[-0.0, 1.0, -1.0, 0.0, 5e-324, 1.7e308, -(2.0**60), 9.999999999999999e-05]])
    @example([[0.0] * 8, [-0.0] * 8, [1.0] * 8, [-1.0] * 8])
    def test_row_formatter_is_format_octonion(self, rows):
        # one call over (k, 8), (8,) and nested shapes prints, row by
        # row, the strings of the per-octonion loop
        want = [loop_format_octonion(r) for r in rows]
        c = np.array(rows, dtype=np.float64).reshape(-1, 8)
        assert format_coeffs(c) == want
        assert [format_coeffs(r) for r in c] == want
        assert [format_octonion(Octonion(r)) for r in rows] == want
        if len(rows) % 2 == 0:
            pairs = format_coeffs(c.reshape(2, -1, 1, 8))
            assert pairs == [[[w] for w in want[:len(rows) // 2]],
                             [[w] for w in want[len(rows) // 2:]]]

    @pytest.mark.parametrize(
        "c",
        [np.zeros(7), np.zeros((2, 9)), [[0.0] * 8, [0.0, 0.0, np.inf] + [0.0] * 5],
         [-np.inf] + [0.0] * 7, [0.0] * 7 + [np.nan]],
        ids=["7", "2x9", "inf", "-inf", "nan"],
    )
    def test_row_formatter_refuses(self, c):
        # rows of 8 finite coefficients only, as Octonion takes
        with pytest.raises(ValueError):
            format_coeffs(c)

    @pytest.mark.parametrize("bad",["e9", "", "1 +", "x3", "e", "2e0"])
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
