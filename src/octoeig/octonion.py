"""Octonion and complexified-octonion arithmetic.

The algebra is defined over the basis (1, e1, ..., e7) by

    e_m e_n = -delta_mn + eps_mnp e_p,

where eps_mnp is totally antisymmetric and equals +1 on the oriented
triples 123, 145, 176, 246, 257, 347, 365 (and their cyclic
permutations).  Coefficients are stored in a length-8 float64 array with
index 0 holding the real part, so the translation to 8x8 real matrices
is a pure index mapping.

Every structure constant is 0 or +-1, hence products, conjugates and
sums of integer-valued octonions are computed exactly in double
precision; only norms and inverses can introduce rounding.

The module also implements the text grammar for octonion literals used
by the CLI: signed terms ``<real>``, ``e<k>`` or ``<real>e<k>`` joined
by ``+``/``-`` (whitespace-insensitive), e.g. ``1 - 2e3 + e7``.  A
complexified literal wraps two octonion literals: ``(<oct>) + i(<oct>)``.
Note that ``e`` always introduces a basis unit, so scientific notation
is not available inside literals.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = [
    "TRIPLES",
    "Octonion",
    "ComplexOctonion",
    "OctonionParseError",
    "structure_constant",
    "format_octonion",
    "format_complex_octonion",
    "parse_octonion",
    "parse_complex_octonion",
]

# Oriented quaternionic triples: e_m e_n = e_p cyclically on each.
TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _build_tables():
    idx = np.zeros((8, 8), dtype=np.int64)
    sgn = np.zeros((8, 8), dtype=np.int64)
    for k in range(8):
        idx[0, k] = idx[k, 0] = k
        sgn[0, k] = sgn[k, 0] = 1
    for m in range(1, 8):
        idx[m, m] = 0
        sgn[m, m] = -1
    for (m, n, p) in TRIPLES:
        for (a, b, c) in ((m, n, p), (n, p, m), (p, m, n)):
            idx[a, b] = c
            sgn[a, b] = 1
            idx[b, a] = c
            sgn[b, a] = -1
    mul = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            mul[i, j, idx[i, j]] = sgn[i, j]
    return idx, sgn, mul


MUL_INDEX, MUL_SIGN, MUL_TENSOR = _build_tables()
# (a*b)_k = sum_ij a_i b_j MUL_TENSOR[i,j,k]; flattened once for fast products.
_MUL_FLAT = np.ascontiguousarray(MUL_TENSOR.reshape(8, 64))


def structure_constant(m: int, n: int) -> tuple[int, int]:
    """Signed basis index of e_m e_n for imaginary units.

    Returns (sign, p) with e_m e_n = sign * e_p, where p = 0 encodes the
    real unit (so (m, m) -> (-1, 0) meaning e_m^2 = -1).
    """
    if not (1 <= m <= 7 and 1 <= n <= 7):
        raise IndexError(f"imaginary unit index out of range 1..7: ({m}, {n})")
    return int(MUL_SIGN[m, n]), int(MUL_INDEX[m, n])


def product_matrices(a: np.ndarray) -> np.ndarray:
    """The 8x8 matrices P with a*b = b @ P, one per octonion on the last
    axis of a.  Each entry is one signed coefficient of a, so P is exact."""
    return (a @ _MUL_FLAT).reshape(a.shape[:-1] + (8, 8))


def _mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return b @ product_matrices(a)


def gather_table(index, sign):
    """Turn a scatter rule (coefficient c of row r lands on index[r, c]
    with sign[r, c]) into a gather: out_r[k] = g_sign[r, k] *
    in[g_index[r, k]]."""
    g_index = np.empty((8, 8), dtype=np.int64)
    g_sign = np.empty((8, 8))
    rows = np.arange(8)[:, None]
    g_index[rows, index] = np.arange(8)
    g_sign[rows, index] = sign
    return g_index, g_sign


# row m: o -> o e_m, since e_c e_m = MUL_SIGN[c, m] e_{MUL_INDEX[c, m]}
RIGHT_UNIT_GATHER = gather_table(MUL_INDEX.T, MUL_SIGN.T)


def left_mul_matrix(a: np.ndarray) -> np.ndarray:
    """8x8 matrix of psi -> a*psi acting on coefficient columns."""
    return np.tensordot(a, MUL_TENSOR, axes=(0, 0)).T


def right_mul_matrix(b: np.ndarray) -> np.ndarray:
    """8x8 matrix of psi -> psi*b acting on coefficient columns."""
    return np.tensordot(MUL_TENSOR, b, axes=(1, 0)).T


def _scaled(coeffs: np.ndarray) -> tuple[np.ndarray, int]:
    """(c, e) with coeffs = 2**e * c.  e is 0 unless the largest
    coefficient lies outside [2**-500, 2**500]; then c's largest is in
    [0.5, 1), so c @ c neither overflows nor underflows."""
    big = float(np.abs(coeffs).max())
    if 2.0**-500 <= big <= 2.0**500:
        return coeffs, 0
    e = math.frexp(big)[1]
    return np.ldexp(coeffs, -e), e


class Octonion:
    """Immutable octonion with 8 real coefficients over (1, e1..e7)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (8,):
            raise ValueError(f"octonion needs 8 coefficients, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("octonion coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(np.zeros(8))

    @classmethod
    def one(cls) -> "Octonion":
        return cls.basis(0)

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        """Basis element e_k; k = 0 is the real unit."""
        if not 0 <= k <= 7:
            raise IndexError(f"basis index out of range 0..7: {k}")
        c = np.zeros(8)
        c[k] = 1.0
        return cls(c)

    @classmethod
    def from_scalar(cls, x: float) -> "Octonion":
        c = np.zeros(8)
        c[0] = float(x)
        return cls(c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Octonion):
            return Octonion(self._coeffs + other._coeffs)
        if isinstance(other, (int, float)):
            return self + Octonion.from_scalar(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Octonion):
            return Octonion(self._coeffs - other._coeffs)
        if isinstance(other, (int, float)):
            return self - Octonion.from_scalar(other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Octonion.from_scalar(other) - self
        return NotImplemented

    def __neg__(self):
        return Octonion(-self._coeffs)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion(_mul_coeffs(self._coeffs, other._coeffs))
        if isinstance(other, (int, float)):
            return Octonion(self._coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Octonion(self._coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Octonion(self._coeffs / float(other))
        return NotImplemented

    def conj(self) -> "Octonion":
        """Conjugate: real part kept, imaginary coefficients negated."""
        c = -self._coeffs.copy()
        c[0] = self._coeffs[0]
        return Octonion(c)

    def norm_sq(self) -> float:
        return float(self._coeffs @ self._coeffs)

    def norm(self) -> float:
        """Euclidean norm sqrt(sum r_k^2) = sqrt(o^dag o); OverflowError
        where it exceeds the float64 range."""
        c, e = _scaled(self._coeffs)
        return math.ldexp(float(np.sqrt(c @ c)), e)

    def inverse(self) -> "Octonion":
        """Multiplicative inverse o^dag / N(o)^2, so that o * o^-1 = 1;
        ValueError where it exceeds the float64 range."""
        c, e = _scaled(self._coeffs)
        n2 = float(c @ c)
        if n2 == 0.0:
            raise ZeroDivisionError("zero octonion has no inverse")
        inv = -c / n2
        inv[0] = -inv[0]  # the conjugate keeps the real part
        with np.errstate(over="ignore"):
            return Octonion(np.ldexp(inv, -e))

    # -- structure ----------------------------------------------------------

    @property
    def real(self) -> float:
        return float(self._coeffs[0])

    def is_zero(self) -> bool:
        return bool(np.all(self._coeffs == 0.0))

    def is_integer_valued(self) -> bool:
        return bool(np.all(self._coeffs == np.round(self._coeffs)))

    def support(self) -> tuple[int, ...]:
        """Indices of nonzero coefficients."""
        return tuple(int(k) for k in np.nonzero(self._coeffs)[0])

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return bool(np.array_equal(self._coeffs, other._coeffs))

    def allclose(self, other: "Octonion", tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self._coeffs - other._coeffs) <= tol))

    def __repr__(self):
        return f"Octonion({format_octonion(self)!r})"

    def __str__(self):
        return format_octonion(self)


class ComplexOctonion:
    """Complexified octonion re + i*im, with i commuting with every e_m.

    Products are computed componentwise:
    (a + ib)(c + id) = (ac - bd) + i(ad + bc), octonionic products inside.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Octonion, im: Octonion | None = None):
        if not isinstance(re, Octonion):
            re = Octonion(re)
        if im is None:
            im = Octonion.zero()
        elif not isinstance(im, Octonion):
            im = Octonion(im)
        self.re = re
        self.im = im

    @classmethod
    def zero(cls) -> "ComplexOctonion":
        return cls(Octonion.zero())

    @classmethod
    def i_unit(cls) -> "ComplexOctonion":
        return cls(Octonion.zero(), Octonion.one())

    def __add__(self, other):
        other = _as_complex_octonion(other)
        if other is None:
            return NotImplemented
        return ComplexOctonion(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_complex_octonion(other)
        if other is None:
            return NotImplemented
        return ComplexOctonion(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_complex_octonion(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return ComplexOctonion(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_complex_octonion(other)
        if other is None:
            return NotImplemented
        return ComplexOctonion(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, other):
        other = _as_complex_octonion(other)
        if other is None:
            return NotImplemented
        return other * self

    def conj_full(self) -> "ComplexOctonion":
        """Octonionic dagger combined with i -> -i."""
        return ComplexOctonion(self.re.conj(), -self.im.conj())

    def norm(self) -> float:
        """sqrt(|re|^2 + |im|^2), with re and im scaled together as in
        Octonion.norm; OverflowError where it exceeds the float64 range."""
        (re, im), e = _scaled(np.stack((self.re._coeffs, self.im._coeffs)))
        return math.ldexp(float(np.sqrt(re @ re + im @ im)), e)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __eq__(self, other):
        other = _as_complex_octonion(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def allclose(self, other: "ComplexOctonion", tol: float = 1e-12) -> bool:
        return self.re.allclose(other.re, tol) and self.im.allclose(other.im, tol)

    def __repr__(self):
        return f"ComplexOctonion({format_complex_octonion(self)!r})"

    def __str__(self):
        return format_complex_octonion(self)


def _as_complex_octonion(x) -> ComplexOctonion | None:
    if isinstance(x, ComplexOctonion):
        return x
    if isinstance(x, Octonion):
        return ComplexOctonion(x)
    if isinstance(x, complex):
        return ComplexOctonion(Octonion.from_scalar(x.real), Octonion.from_scalar(x.imag))
    if isinstance(x, (int, float)):
        return ComplexOctonion(Octonion.from_scalar(x))
    return None


# -- text grammar -------------------------------------------------------------


class OctonionParseError(ValueError):
    """Malformed octonion literal; `position` indexes into the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _format_number(x: float) -> str:
    if x == int(x):
        return str(int(x))
    # positional notation only: the grammar reserves 'e' for basis units,
    # so repr()'s scientific form would not parse back
    return np.format_float_positional(x, unique=True, trim="-")


def format_octonion(o: Octonion) -> str:
    """Canonical literal, e.g. '1 - 2e3 + e7'; the zero octonion is '0'."""
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


def format_complex_octonion(x: ComplexOctonion) -> str:
    return f"({format_octonion(x.re)}) + i({format_octonion(x.im)})"


_NUM_RE = re.compile(r"\d+(?:\.\d*)?|\.\d+")
_INT_RE = re.compile(r"\d+")


def parse_octonion(text: str) -> Octonion:
    """Parse a literal like '1 - 2e3 + e7' (whitespace-insensitive)."""
    s = text
    n = len(s)
    coeffs = np.zeros(8)

    def skip_ws(p: int) -> int:
        while p < n and s[p].isspace():
            p += 1
        return p

    pos = skip_ws(0)
    if pos == n:
        raise OctonionParseError("empty octonion literal", pos)
    first = True
    while True:
        pos = skip_ws(pos)
        if pos == n:
            break
        sign = 1.0
        if s[pos] in "+-":
            sign = -1.0 if s[pos] == "-" else 1.0
            pos = skip_ws(pos + 1)
        elif not first:
            raise OctonionParseError("expected '+' or '-' between terms", pos)
        m = _NUM_RE.match(s, pos)
        value = None
        if m is not None:
            value = float(m.group(0))
            pos = m.end()
        k = 0
        if pos < n and s[pos] == "e":
            m2 = _INT_RE.match(s, pos + 1)
            if m2 is None:
                raise OctonionParseError("expected basis index after 'e'", pos + 1)
            k = int(m2.group(0))
            if not 1 <= k <= 7:
                raise OctonionParseError(f"basis index e{k} out of range 1..7", pos)
            pos = m2.end()
        if value is None and k == 0:
            raise OctonionParseError("expected a number or a basis element", pos)
        coeffs[k] += sign * (1.0 if value is None else value)
        first = False
    return Octonion(coeffs)


_COMPLEX_RE = re.compile(
    r"^\s*\((?P<re>[^()]*)\)\s*(?P<sign>[+-])\s*i\s*\((?P<im>[^()]*)\)\s*$"
)


def parse_complex_octonion(text: str) -> ComplexOctonion:
    """Parse '(<oct>) + i(<oct>)'; a bare octonion literal has zero i-part."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        if "(" in text or ")" in text or "i" in text:
            raise OctonionParseError(
                "complexified literal must have the form (<oct>) + i(<oct>)",
                0,
            )
        return ComplexOctonion(parse_octonion(text))
    re_part = parse_octonion(m.group("re"))
    im_part = parse_octonion(m.group("im"))
    if m.group("sign") == "-":
        im_part = -im_part
    return ComplexOctonion(re_part, im_part)
