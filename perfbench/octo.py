"""Reference octonion arithmetic for the benchmark's generators and oracles.

Built from the Fano-plane triples alone, with no code from ``octoeig``,
so that an oracle never calls the function it checks.  Octonions are
plain length-8 float arrays over the basis (1, e1..e7).
"""

from __future__ import annotations

import re

import numpy as np

# e_a e_b = e_c cyclically on each oriented triple.
TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _table() -> np.ndarray:
    t = np.zeros((8, 8, 8))
    for k in range(8):
        t[0, k, k] = t[k, 0, k] = 1.0
    for m in range(1, 8):
        t[m, m, 0] = -1.0
    for (a, b, c) in TRIPLES:
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            t[x, y, z] = 1.0
            t[y, x, z] = -1.0
    return t


# (a b)_k = sum_ij a_i b_j MUL[i, j, k]
MUL = _table()
_CONJ = np.array([1.0] + [-1.0] * 7)


def basis(k: int) -> np.ndarray:
    e = np.zeros(8)
    e[k] = 1.0
    return e


def mul(a, b) -> np.ndarray:
    return np.einsum("i,j,ijk->k", a, b, MUL)


def conj(a) -> np.ndarray:
    return _CONJ * a


def left_matrix(a) -> np.ndarray:
    """Matrix of psi -> a psi on coefficient columns."""
    return np.einsum("i,ijk->kj", a, MUL)


def right_matrix(b) -> np.ndarray:
    """Matrix of psi -> psi b on coefficient columns."""
    return np.einsum("j,ijk->ki", b, MUL)


def entry_matrix(parts) -> np.ndarray:
    """8x8 matrix of the generalized operator L_{o0} + sum_m R_{e_m} L_{o_m};
    `parts` is an (8, 8) array whose row m holds o_m."""
    out = left_matrix(parts[0])
    for m in range(1, 8):
        if np.any(parts[m]):
            out = out + right_matrix(basis(m)) @ left_matrix(parts[m])
    return out


def translate(grid) -> np.ndarray:
    """Blockwise 8n x 8n real matrix of an (n, n, 8, 8) parts grid."""
    n = grid.shape[0]
    out = np.zeros((8 * n, 8 * n))
    for i in range(n):
        for j in range(n):
            out[8 * i:8 * i + 8, 8 * j:8 * j + 8] = entry_matrix(grid[i, j])
    return out


def left_only(coeffs) -> np.ndarray:
    """Parts array of plain left multiplication by one octonion."""
    parts = np.zeros((8, 8))
    parts[0] = coeffs
    return parts


# -- literals ---------------------------------------------------------------

_TERM = re.compile(r"\s*([+-])?\s*(\d+(?:\.\d*)?|\.\d+)?(?:e([1-7]))?")


def parse(text: str) -> np.ndarray:
    """Octonion literal such as '1 - 2e3 + 0.5e7' to coefficients."""
    out = np.zeros(8)
    pos = 0
    s = text.strip()
    if not s:
        raise ValueError("empty literal")
    while pos < len(s):
        m = _TERM.match(s, pos)
        if (m is None or m.end() == pos or (m.group(2) is None and m.group(3) is None)
                or (pos > 0 and m.group(1) is None)):
            raise ValueError(f"bad literal {text!r} at {pos}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        value = float(m.group(2)) if m.group(2) is not None else 1.0
        out[int(m.group(3) or 0)] += sign * value
        pos = m.end()
    return out


def literal(coeffs) -> str:
    """Literal of an octonion with integer or short decimal coefficients."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        mag = abs(float(c))
        num = str(int(mag)) if mag == int(mag) else repr(mag)
        if "e" in num:
            raise ValueError(f"coefficient {c!r} needs scientific notation")
        body = num if k == 0 else (f"e{k}" if mag == 1.0 else f"{num}e{k}")
        sign = "-" if c < 0 else "+"
        terms.append(f"{sign} {body}" if terms else (f"-{body}" if c < 0 else body))
    return " ".join(terms) if terms else "0"
