"""Left/right octonionic operators and their 8x8 real-matrix translation.

Because octonions do not commute, left multiplication L_o (psi -> o psi)
and right multiplication R_o (psi -> psi o) are distinct operators; and
because they do not associate, compositions are order-sensitive.  A
word of factors is therefore applied strictly right to left:

    A B C ... Z psi = A(B(...(Z psi))).

Each operator has a faithful 8x8 real matrix acting on the coefficient
column vec(psi) = (psi_0 .. psi_7)^T, and the 64 operators
{1, L_m, R_n, R_n L_m} form a basis of the full matrix algebra, so the
most general real-linear operator is

    L_{o_0} + sum_m R_m . L_{o_m}        (o_0 .. o_7 octonions),

here ``GeneralizedOperator``.  The basis and the identity checks are
read off the unit tables ``LEFT_UNITS``/``RIGHT_UNITS`` of the octonions.

``OperatorMatrix.apply`` evaluates M psi on stacked (n, 8) coefficient
arrays, from a plan of per-part product matrices built once per matrix.
It forms the same products as octonion multiplication and adds them in
the same order (parts of an entry in m order, entries of a row in j
order), so the result is bit-for-bit the octonion-by-octonion one, and
exact on integer data; the exact verifications rely on that.

A square matrix of operators translates to an 8n x 8n real matrix (or
complex, when each entry also carries an i-part), which the
eigensolvers consume.  The translation is each entry applied to the
coefficient basis through that same plan and the same per-entry stage
(row b of a part's product matrix is the part times e_b), so block
(i, j) equals entry (i, j)'s ``GeneralizedOperator.to_matrix`` to the
bit.

Operator words use the text grammar ``L<k>``/``R<k>`` separated by
whitespace, leftmost factor applied last, e.g. ``L4 R5 R1 L6``.
Operator matrices are exchanged as JSON objects
``{"n": int, "entries": [...], "complexified": bool, "entries_im": [...]}``
with row-major entries that are octonion literals (acting by left
multiplication) or arrays of 8 octonion literals (generalized
operators).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .linalg import lu_solve, matrix_rank
from .octonion import (
    LEFT_UNITS,
    RIGHT_UNIT_GATHER,
    RIGHT_UNITS,
    ComplexOctonion,
    Octonion,
    OctonionParseError,
    format_octonion,
    left_mul_matrix,
    parse_octonion,
    product_matrices,
    right_mul_matrix,
)

__all__ = [
    "Factor",
    "OperatorWord",
    "GeneralizedOperator",
    "OperatorMatrix",
    "OperatorMatrixFormatError",
    "L",
    "R",
    "parse_word",
    "matrix_to_generalized",
    "operator_basis",
    "basis_rank",
    "operator_identity_check",
]


@dataclass(frozen=True)
class Factor:
    """One multiplication factor: side 'L' (psi -> value*psi) or
    'R' (psi -> psi*value)."""

    side: str
    value: Octonion

    def __post_init__(self):
        if self.side not in ("L", "R"):
            raise ValueError(f"factor side must be 'L' or 'R', got {self.side!r}")

    def apply(self, psi: Octonion) -> Octonion:
        return self.value * psi if self.side == "L" else psi * self.value

    def to_matrix(self) -> np.ndarray:
        c = self.value.coeffs
        return left_mul_matrix(c) if self.side == "L" else right_mul_matrix(c)

    def __str__(self):
        sup = self.value.support()
        if len(sup) == 1 and self.value.coeffs[sup[0]] == 1.0:
            return f"{self.side}{sup[0]}"
        return f"{self.side}[{format_octonion(self.value)}]"


def L(k: int) -> Factor:
    """Basis left factor L_k."""
    return Factor("L", Octonion.basis(k))


def R(k: int) -> Factor:
    """Basis right factor R_k."""
    return Factor("R", Octonion.basis(k))


class OperatorWord:
    """Ordered product of factors, leftmost applied last."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        factors = tuple(factors)
        for f in factors:
            if not isinstance(f, Factor):
                raise TypeError(f"expected Factor, got {type(f).__name__}")
        self.factors = factors

    def apply(self, psi: Octonion) -> Octonion:
        for f in reversed(self.factors):
            psi = f.apply(psi)
        return psi

    def to_matrix(self) -> np.ndarray:
        """The unique 8x8 matrix A with A vec(psi) = vec(word applied to
        psi); matrix products legitimately compose the translated
        factors because each factor acts linearly on coefficients."""
        m = np.eye(8)
        for f in self.factors:
            m = m @ f.to_matrix()
        return m

    def __len__(self):
        return len(self.factors)

    def __str__(self):
        return " ".join(str(f) for f in self.factors) if self.factors else "1"

    def __repr__(self):
        return f"OperatorWord({str(self)!r})"


_WORD_TOKEN = re.compile(r"([LR])([0-9]+)$")


def parse_word(text: str) -> OperatorWord:
    """Parse whitespace-separated factors like 'L4 R5 R1 L6'."""
    factors = []
    for found in re.finditer(r"\S+", text):
        tok = found.group()
        m = _WORD_TOKEN.match(tok)
        if m is None:
            raise OctonionParseError(f"bad operator factor {tok!r}", found.start())
        k = int(m.group(2))
        if not 1 <= k <= 7:
            raise OctonionParseError(
                f"factor index {tok!r} out of range 1..7", found.start()
            )
        factors.append(Factor(m.group(1), Octonion.basis(k)))
    return OperatorWord(factors)


class GeneralizedOperator:
    """L_{o_0} + sum_m R_m . L_{o_m}: the most general real-linear
    operator on octonions (apply the left factor first, then R_m)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if len(parts) != 8:
            raise ValueError(f"need 8 octonion parts, got {len(parts)}")
        for p in parts:
            if not isinstance(p, Octonion):
                raise TypeError(f"expected Octonion, got {type(p).__name__}")
        self.parts = parts

    @classmethod
    def left(cls, o: Octonion) -> "GeneralizedOperator":
        """Plain left multiplication by o."""
        return cls((o,) + (Octonion.zero(),) * 7)

    @classmethod
    def zero(cls) -> "GeneralizedOperator":
        return cls((Octonion.zero(),) * 8)

    def apply(self, psi: Octonion) -> Octonion:
        out = self.parts[0] * psi
        for m in range(1, 8):
            if not self.parts[m].is_zero():
                out = out + (self.parts[m] * psi) * Octonion.basis(m)
        return out

    def to_matrix(self) -> np.ndarray:
        m = left_mul_matrix(self.parts[0].coeffs)
        for k in range(1, 8):
            if not self.parts[k].is_zero():
                m = m + RIGHT_UNITS[k] @ left_mul_matrix(self.parts[k].coeffs)
        return m

    def is_left_only(self) -> bool:
        return all(self.parts[m].is_zero() for m in range(1, 8))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __eq__(self, other):
        if not isinstance(other, GeneralizedOperator):
            return NotImplemented
        return all(a == b for a, b in zip(self.parts, other.parts))

    def allclose(self, other: "GeneralizedOperator", tol: float = 1e-10) -> bool:
        return all(a.allclose(b, tol) for a, b in zip(self.parts, other.parts))

    def __repr__(self):
        inner = ", ".join(format_octonion(p) for p in self.parts)
        return f"GeneralizedOperator([{inner}])"


# 1 and L_m (LEFT_UNITS[0] is the identity), R_n, then R_n L_m for n, m = 1..7
_R_L = RIGHT_UNITS[1:, None] @ LEFT_UNITS[None, 1:]
_OPERATOR_BASIS = np.concatenate((LEFT_UNITS, RIGHT_UNITS[1:], _R_L.reshape(49, 8, 8)))
_OPERATOR_BASIS.setflags(write=False)


def operator_basis() -> np.ndarray:
    """The 64 basis matrices {1, L_m, R_n, R_n L_m}, as a read-only
    (64, 8, 8) array in the coefficient order used by
    matrix_to_generalized."""
    return _OPERATOR_BASIS


def matrix_to_generalized(A) -> GeneralizedOperator:
    """Decompose an 8x8 real matrix over the 64-element operator basis
    and repackage the coefficients as a GeneralizedOperator.

    The 64x64 system (columns = flattened basis matrices) is solved by
    the partial-pivot LU of :mod:`octoeig.linalg`; it is provably
    nonsingular, so failure is an internal error.  The exact solution
    coefficients of an integer matrix are integer multiples of 1/12;
    they are snapped to the nearest twelfth, which removes the solver
    rounding entirely (1/12 itself is not a binary float, so the
    subsequent float evaluation of the operator can still differ from A
    in the last bits, within ~1e-13).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {A.shape}")
    # column k of the system is basis matrix k flattened
    coeffs = lu_solve(_OPERATOR_BASIS.reshape(64, 64).T, A.reshape(64))
    if np.all(A == np.round(A)):
        coeffs = np.round(coeffs * 12.0) / 12.0
    # o_0 holds the coefficients of 1 and L_m, o_n[0] that of R_n and
    # o_n[m] that of R_n L_m
    parts = np.zeros((8, 8))
    parts[0] = coeffs[:8]
    parts[1:, 0] = coeffs[8:15]
    parts[1:, 1:] = coeffs[15:].reshape(7, 7)
    return GeneralizedOperator(Octonion(o) for o in parts)


def basis_rank(matrices=None) -> int:
    """Rank of a family of 8x8 matrices viewed as flattened vectors.

    Defaults to the full 64-element operator basis (rank 64, i.e. the
    whole of the 8x8 matrix algebra)."""
    if matrices is None:
        mats = operator_basis()
    else:
        mats = np.array([np.asarray(m, dtype=np.float64) for m in matrices])
    return matrix_rank(mats.reshape(len(mats), -1))


def operator_identity_check() -> dict:
    """Matrix-level identities distinguishing operator composition from
    octonion multiplication.  Returns pass/fail per identity."""
    l1, l2, l3 = LEFT_UNITS[1:4]
    r2 = RIGHT_UNITS[2]
    prod = l1 @ l2
    report = {
        # composition is not octonion multiplication: L1 L2 != L3
        "L1L2_differs_from_L3": not np.array_equal(prod, l3),
        # but the defect is expressible in the operator algebra
        "L1L2_equals_L3_plus_R2L1_minus_L1R2": np.array_equal(
            prod, l3 + r2 @ l1 - l1 @ r2
        ),
    }
    # [m, n] = L_m R_n and R_n L_m over the imaginary units
    lr = LEFT_UNITS[1:, None] @ RIGHT_UNITS[None, 1:]
    rl = RIGHT_UNITS[None, 1:] @ LEFT_UNITS[1:, None]
    report["LmRn_plus_LnRm_symmetric"] = np.array_equal(
        lr + lr.swapaxes(0, 1), rl + rl.swapaxes(0, 1)
    )
    report["all_passed"] = all(report.values())
    return report


class OperatorMatrixFormatError(ValueError):
    """Schema violation in the operator-matrix JSON; `path` locates it."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


def _is_number(x) -> bool:
    """A JSON number: true and false are bools, which Python counts as ints."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# real half negated, imaginary half kept: multiplication by i on (re, im)
_I_TIMES = np.array([-1.0, 1.0])[:, None, None, None, None]


class OperatorMatrix:
    """Square matrix of generalized octonionic operators, optionally
    complexified (entry = re + i*im pair of operators)."""

    def __init__(self, entries, entries_im=None):
        self.entries = self._normalize(entries)
        self.n = len(self.entries)
        self.entries_im = self._normalize(entries_im) if entries_im is not None else None
        if self.entries_im is not None and len(self.entries_im) != self.n:
            raise ValueError("real and imaginary entry grids differ in size")
        grids = (self.entries,) + ((self.entries_im,) if self.complexified else ())
        # every part's coefficients as one (grids, n, n, 8 parts, 8) array,
        # the real grid first: the plan, the JSON echo and the support
        # tests read this, not the parts
        self._parts = np.array(
            [p.coeffs for grid in grids for row in grid for g in row for p in g.parts]
        ).reshape(len(grids), self.n, self.n, 8, 8)
        self._terms = None

    @staticmethod
    def _normalize(rows):
        out = []
        for row in rows:
            new_row = []
            for e in row:
                if isinstance(e, GeneralizedOperator):
                    new_row.append(e)
                elif isinstance(e, Octonion):
                    new_row.append(GeneralizedOperator.left(e))
                elif _is_number(e):
                    new_row.append(GeneralizedOperator.left(Octonion.from_scalar(e)))
                else:
                    raise TypeError(f"bad operator-matrix entry {type(e).__name__}")
            out.append(tuple(new_row))
        n = len(out)
        for row in out:
            if len(row) != n:
                raise ValueError("operator matrix must be square")
        if n < 1:
            raise ValueError("operator matrix must have n >= 1")
        return tuple(out)

    @property
    def complexified(self) -> bool:
        return self.entries_im is not None

    # -- actions ------------------------------------------------------------

    def _plan(self):
        """The evaluation plan of M Psi, built on first use and kept on
        this matrix.  It has one term per non-zero part m of entry (i, j)
        of each grid (real, then i-part): the matrix P with part*x =
        x @ P, the vector slot j the term reads, the flat indices and
        signs of the gather that x -> x e_m is, and the flat place of the
        term in a (grid, i, j, m, 8) array."""
        if self._terms is None:
            n = self.n
            coeffs = self._parts.reshape(-1, 8)
            nz = np.flatnonzero(coeffs.any(axis=1))  # ((grid * n + i) * n + j) * 8 + m
            index, sign = RIGHT_UNIT_GATHER
            m = nz % 8
            self._terms = (
                product_matrices(coeffs[nz]),
                nz // 8 % n,
                (np.arange(len(nz))[:, None] * 8 + index[m]).ravel(),
                sign[m].ravel(),
                (nz[:, None] * 8 + np.arange(8)).ravel(),
            )
        return self._terms

    def _entry_values(self, prod):
        """Each entry's value from its parts' products, prod of shape
        (b, terms, ..., 8) in plan order: the gather x -> x e_m, then the
        parts summed in m order.  Returns shape (b, grids, n, n, 8)."""
        _, _, take, sign, put = self._plan()
        b, n = len(prod), self.n
        parts = np.zeros((b, (2 if self.complexified else 1) * n * n * 64))
        parts[:, put] = prod.reshape(b, -1)[:, take] * sign
        # parts added one at a time in m order, from part 0 itself rather
        # than from 0.0 (which would turn -0.0 into 0.0); a missing part
        # adds an exact 0
        parts = parts.reshape(b, -1, n, n, 8, 8)
        acc = parts[..., 0, :].copy()
        for m in range(1, 8):
            acc += parts[..., m, :]
        return acc

    def _evaluate(self, re, im=None):
        """M Psi on coefficient arrays of shape (..., n, 8), bit for bit
        the entry-by-entry octonion arithmetic: (M Psi)_i = sum_j M_ij(Psi_j)
        summed in j order, M_ij(x) = o_0 x + sum_m (o_m x) e_m in m order.
        With im, Psi = re + i im and the pair (re, im) of M Psi comes back.
        Raises ValueError where that arithmetic leaves the finite range."""
        mats, src = self._plan()[:2]
        n, grids = self.n, 2 if self.complexified else 1
        vecs = re if im is None else np.stack((re, im))
        b = vecs.size // (8 * n)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            # One (1, 8) @ (8, 8) product per term and vector, which numpy
            # hands to the same gemv as Octonion.__mul__'s x @ P.  A 2-D
            # gemm or einsum would sum the 8 terms in another order.
            ent = self._entry_values(vecs.reshape(b, n, 8)[:, src, None, :] @ mats)
            if grids == 2:
                # i M_im(x + iy) = -M_im(y) + i M_im(x), exactly
                halves = ent.reshape(2, -1, 2, n, n, 8)
                ent = np.stack((halves[:, :, 0], halves[::-1, :, 1] * _I_TIMES), axis=2)
            # per row: M_i0 (then i M_im_i0), M_i1, ... added in order,
            # from the first term itself
            ent = ent.reshape(b, grids, n, n, 8)
            out = ent[:, 0, :, 0].copy()
            for j in range(n):
                for g in range(grids):
                    if j or g:
                        out += ent[:, g, :, j]
        if not np.isfinite(out).all():
            raise ValueError("octonion coefficients must be finite")
        out = out.reshape(vecs.shape)
        return out if im is None else (out[0], out[1])

    def apply(self, vec) -> list[Octonion]:
        """Entrywise action on an octonion vector: (M psi)_i =
        sum_j M_ij(psi_j), each entry applied before summing."""
        if self.complexified:
            raise ValueError("complexified operator matrix acts on complexified vectors")
        if len(vec) != self.n:
            raise ValueError(f"vector length {len(vec)} != matrix size {self.n}")
        return [Octonion(r) for r in self._evaluate(np.array([v.coeffs for v in vec]))]

    def apply_complex(self, vec) -> list[ComplexOctonion]:
        """Action on a complexified vector, each entry extended
        complex-linearly: g(x + iy) = g(x) + i g(y)."""
        if len(vec) != self.n:
            raise ValueError(f"vector length {len(vec)} != matrix size {self.n}")
        vec = [v if isinstance(v, ComplexOctonion) else ComplexOctonion(v) for v in vec]
        re, im = self._evaluate(
            np.array([v.re.coeffs for v in vec]), np.array([v.im.coeffs for v in vec])
        )
        return [ComplexOctonion(Octonion(r), Octonion(i)) for r, i in zip(re, im)]

    # -- translation --------------------------------------------------------

    def _translation(self):
        """[re] or [re, im]: each grid's entries on the coefficient basis as
        C-ordered 8n x 8n arrays, block (i, j) column b being M_ij(e_b).
        Row b of a part's product matrix is part * e_b, so each part's
        product with e_b is read, not formed, and every entry sees only
        its own column's basis vectors."""
        mats = self._plan()[0]
        n, grids = self.n, 2 if self.complexified else 1
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            # (b, grid, i, j, row c) -> (grid, i, row c, j, column b), in C order
            out = self._entry_values(mats.swapaxes(0, 1)).transpose(1, 2, 4, 3, 0).copy()
        if not np.isfinite(out).all():
            raise ValueError("octonion coefficients must be finite")
        return list(out.reshape(grids, 8 * n, 8 * n))

    def to_real_matrix(self) -> np.ndarray:
        """The 8n x 8n real translation, with vec(M Psi) = A vec(Psi)."""
        if self.complexified:
            raise ValueError("complexified operator matrix translates to a complex matrix")
        return self._translation()[0]

    def to_complex_matrix(self) -> np.ndarray:
        """The 8n x 8n complex translation; an i-free matrix gives its real
        one cast to complex128."""
        re, *im = self._translation()
        out = re.astype(np.complex128)
        if im:
            out.imag = im[0]
        return out

    # -- JSON wire format ----------------------------------------------------

    @staticmethod
    def _entry_from_json(e, path: str) -> GeneralizedOperator:
        if isinstance(e, str):
            try:
                return GeneralizedOperator.left(parse_octonion(e))
            except OctonionParseError as exc:
                raise OperatorMatrixFormatError(str(exc), path) from exc
        if _is_number(e):
            return GeneralizedOperator.left(Octonion.from_scalar(e))
        if isinstance(e, list):
            if len(e) != 8:
                raise OperatorMatrixFormatError(
                    f"generalized entry needs 8 parts, got {len(e)}", path
                )
            parts = []
            for k, part in enumerate(e):
                p = f"{path}[{k}]"
                if isinstance(part, str):
                    try:
                        parts.append(parse_octonion(part))
                    except OctonionParseError as exc:
                        raise OperatorMatrixFormatError(str(exc), p) from exc
                elif isinstance(part, list):
                    if len(part) != 8 or not all(map(_is_number, part)):
                        raise OperatorMatrixFormatError(
                            "coefficient array must hold 8 numbers", p
                        )
                    parts.append(Octonion(part))
                else:
                    raise OperatorMatrixFormatError(
                        f"bad generalized part of type {type(part).__name__}", p
                    )
            return GeneralizedOperator(parts)
        raise OperatorMatrixFormatError(
            f"entry must be an octonion literal or an 8-part array, got "
            f"{type(e).__name__}",
            path,
        )

    @classmethod
    def from_json(cls, obj) -> "OperatorMatrix":
        if not isinstance(obj, dict):
            raise OperatorMatrixFormatError("operator matrix must be a JSON object", "$")
        if "n" not in obj:
            raise OperatorMatrixFormatError("missing key 'n'", "$.n")
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise OperatorMatrixFormatError("'n' must be a positive integer", "$.n")
        for key in obj:
            if key not in ("n", "entries", "complexified", "entries_im"):
                raise OperatorMatrixFormatError(f"unknown key {key!r}", f"$.{key}")

        def grid(key):
            ent = obj.get(key)
            if not isinstance(ent, list) or len(ent) != n * n:
                raise OperatorMatrixFormatError(
                    f"'{key}' must be a row-major array of {n * n} entries",
                    f"$.{key}",
                )
            flat = [
                cls._entry_from_json(e, f"$.{key}[{k}]") for k, e in enumerate(ent)
            ]
            return [flat[i * n : (i + 1) * n] for i in range(n)]

        entries = grid("entries")
        complexified = obj.get("complexified")
        if complexified is None:
            complexified = "entries_im" in obj
        if not isinstance(complexified, bool):
            raise OperatorMatrixFormatError(
                "'complexified' must be a boolean", "$.complexified"
            )
        entries_im = None
        if "entries_im" in obj:
            if not complexified:
                raise OperatorMatrixFormatError(
                    "'entries_im' present but 'complexified' is false",
                    "$.complexified",
                )
            entries_im = grid("entries_im")
        elif complexified:
            raise OperatorMatrixFormatError(
                "complexified matrix needs 'entries_im'", "$.entries_im"
            )
        return cls(entries, entries_im)

    def to_json(self) -> dict:
        # an entry whose parts 1..7 are all zero echoes as its part 0 literal
        left_only = ~self._parts[..., 1:, :].any(axis=(-2, -1))
        echo = [
            [format_octonion(g.parts[0]) if lone else [format_octonion(p) for p in g.parts]
             for g, lone in zip((g for row in grid for g in row), flags.ravel())]
            for grid, flags in zip((self.entries, self.entries_im), left_only)
        ]
        obj = {"n": self.n, "entries": echo[0]}
        if self.complexified:
            obj.update(complexified=True, entries_im=echo[1])
        return obj

    def is_integer_valued(self) -> bool:
        """Every coefficient of every part, i-parts included, is an integer."""
        return bool(np.all(self._parts == np.round(self._parts)))

    def __repr__(self):
        kind = "complexified " if self.complexified else ""
        return f"<{kind}OperatorMatrix n={self.n}>"
