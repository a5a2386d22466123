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

The algebra's fixed elements are built once, read-only: the zero and
the units that ``Octonion.zero``/``one``/``basis`` return,
``CONJ_SIGN``, and ``LEFT_UNITS[k]`` = L_{e_k}, ``RIGHT_UNITS[k]`` =
R_{e_k}, the (8, 8, 8) unit tables behind the operator basis: views
of ``MUL_TENSOR``, which is built from ``TRIPLES``.  ``MUL_INDEX``/
``MUL_SIGN`` and ``RIGHT_UNIT_GATHER`` read its signed permutations
as (index, sign) gathers.

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

from .kernels import scaled_by_power_of_two

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


def _build_tensor():
    """MUL_TENSOR[i, j, k] = (e_i e_j)_k, read off TRIPLES."""
    mul = np.zeros((8, 8, 8))
    k = np.arange(8)
    mul[0, k, k] = mul[k, 0, k] = 1.0
    mul[k[1:], k[1:], 0] = -1.0  # e_m e_m = -1
    for (m, n, p) in TRIPLES:
        for (a, b, c) in ((m, n, p), (n, p, m), (p, m, n)):
            mul[a, b, c] = 1.0
            mul[b, a, c] = -1.0
    mul.setflags(write=False)
    return mul


def _gather(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with p @ x == sign * x[..., index], for a stack of
    signed permutation matrices p."""
    index = np.abs(p).argmax(axis=-1)
    return index, np.take_along_axis(p, index[..., None], axis=-1)[..., 0]


MUL_TENSOR = _build_tensor()
# e_a e_b = MUL_SIGN[a, b] e_{MUL_INDEX[a, b]}
MUL_INDEX, MUL_SIGN = _gather(MUL_TENSOR)
# L_{e_k} psi = e_k psi and R_{e_k} psi = psi e_k on coefficient columns, as
# views: LEFT_UNITS[k][l, j] = (e_k e_j)_l, RIGHT_UNITS[k][l, i] = (e_i e_k)_l
LEFT_UNITS = MUL_TENSOR.transpose(0, 2, 1)
RIGHT_UNITS = MUL_TENSOR.transpose(1, 2, 0)
# row m: o -> o e_m as the gather o e_m = sign[m] * o[index[m]]
RIGHT_UNIT_GATHER = _gather(RIGHT_UNITS)
# conjugation keeps the real part and negates the imaginary coefficients
CONJ_SIGN = np.where(np.arange(8) == 0, 1.0, -1.0)
CONJ_SIGN.setflags(write=False)
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


def left_mul_matrix(a: np.ndarray) -> np.ndarray:
    """8x8 matrix of psi -> a*psi acting on coefficient columns."""
    return np.tensordot(a, MUL_TENSOR, axes=(0, 0)).T


def right_mul_matrix(b: np.ndarray) -> np.ndarray:
    """8x8 matrix of psi -> psi*b acting on coefficient columns."""
    return np.tensordot(MUL_TENSOR, b, axes=(1, 0)).T


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
        return _ZERO

    @classmethod
    def one(cls) -> "Octonion":
        return _UNITS[0]

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        """Basis element e_k; k = 0 is the real unit."""
        if not 0 <= k <= 7:
            raise IndexError(f"basis index out of range 0..7: {k}")
        return _UNITS[k]

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
        return Octonion(self._coeffs * CONJ_SIGN)

    def norm_sq(self) -> float:
        return float(self._coeffs @ self._coeffs)

    def norm(self) -> float:
        """Euclidean norm sqrt(sum r_k^2) = sqrt(o^dag o); OverflowError
        where it exceeds the float64 range."""
        c, e = scaled_by_power_of_two(self._coeffs)
        return math.ldexp(float(np.sqrt(c @ c)), e)

    def inverse(self) -> "Octonion":
        """Multiplicative inverse o^dag / N(o)^2, so that o * o^-1 = 1;
        ValueError where it exceeds the float64 range."""
        c, e = scaled_by_power_of_two(self._coeffs)
        n2 = float(c @ c)
        if n2 == 0.0:
            raise ZeroDivisionError("zero octonion has no inverse")
        with np.errstate(over="ignore"):
            return Octonion(np.ldexp(c * CONJ_SIGN / n2, -e))

    # -- structure ----------------------------------------------------------

    @property
    def real(self) -> float:
        return float(self._coeffs[0])

    def is_zero(self) -> bool:
        return bool(np.all(self._coeffs == 0.0))

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


_ZERO = Octonion(np.zeros(8))
_UNITS = tuple(Octonion(e) for e in np.eye(8))


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
        (re, im), e = scaled_by_power_of_two(np.stack((self.re._coeffs, self.im._coeffs)))
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
    # repr() gives the shortest round-tripping digits, as
    # format_float_positional(unique=True) does, and is much faster; but
    # positional notation only: the grammar reserves 'e' for basis units,
    # so repr()'s scientific form (below 1e-4) would not parse back
    text = repr(float(x))
    if "e" not in text:
        return text
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
