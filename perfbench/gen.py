"""Seeded input generators.

Every input is written as operator-matrix or claim JSON into a
directory of the caller's choosing; the program only ever sees those
files.  Each request carries the construction facts its oracle checks
(``expect``), computed with :mod:`perfbench.octo` rather than the
program.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import octo


@dataclass
class Request:
    """One CLI invocation: `argv` for ``octoeig.cli.main`` and the facts
    its oracle checks the output against."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


class Writer:
    """Numbers the JSON files of one workload inside `outdir`."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.count = 0
        os.makedirs(outdir, exist_ok=True)

    def write(self, obj) -> str:
        path = os.path.join(self.outdir, f"in{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


# -- entry families -----------------------------------------------------------


def dense_generalized(rng) -> np.ndarray:
    """Generalized operator with a dense o0 and two dense R-parts: generic
    real entries, so the spectrum is simple."""
    parts = np.zeros((8, 8))
    parts[0] = rng.uniform(-1.0, 1.0, 8)
    for m in rng.choice(np.arange(1, 8), size=2, replace=False):
        parts[m] = rng.uniform(-1.0, 1.0, 8)
    return parts


def signed_unit(rng, p_zero: float = 0.25) -> np.ndarray:
    """Left multiplication by 0 or a signed basis unit (the paper's style);
    spectra come in degenerate clusters."""
    c = np.zeros(8)
    if rng.random() >= p_zero:
        c[rng.integers(0, 8)] = rng.choice((-1.0, 1.0))
    return octo.left_only(c)


def dense_left(rng) -> np.ndarray:
    """Left multiplication by an octonion with 3-decimal coefficients."""
    return octo.left_only(np.round(rng.uniform(-1.0, 1.0, 8), 3))


def _entry_json(parts):
    """Left-only entries as literals (parser path), others as 8-part
    coefficient arrays."""
    if not np.any(parts[1:]):
        return octo.literal(parts[0])
    return [[float(x) for x in p] for p in parts]


def matrix_json(grid, grid_im=None) -> dict:
    n = grid.shape[0]
    obj = {"n": n, "entries": [_entry_json(grid[i, j]) for i in range(n) for j in range(n)]}
    if grid_im is not None:
        obj["complexified"] = True
        obj["entries_im"] = [_entry_json(grid_im[i, j]) for i in range(n) for j in range(n)]
    return obj


def grid_of(rng, n: int, family) -> np.ndarray:
    """(n, n, 8, 8) parts grid with every entry drawn from `family`;
    redrawn while the whole matrix is zero."""
    while True:
        grid = np.array([[family(rng) for _ in range(n)] for _ in range(n)])
        if np.any(grid):
            return grid


def integer_octonion(rng, imag_units: int = 2) -> np.ndarray:
    """Real part in -2..2 and `imag_units` imaginary parts in +-1, +-2."""
    c = np.zeros(8)
    c[0] = rng.integers(-2, 3)
    for k in rng.choice(np.arange(1, 8), size=imag_units, replace=False):
        c[k] = rng.choice([-2.0, -1.0, 1.0, 2.0])
    return c


# -- requests -------------------------------------------------------------------


def eig_request(w: Writer, grid, method: str, grid_im=None, tag: str = "") -> Request:
    path = w.write(matrix_json(grid, grid_im))
    A = octo.translate(grid)
    if grid_im is not None:
        A = A + 1j * octo.translate(grid_im)
    return Request(
        f"eig-{method}{tag}",
        ["eig", path, "--method", method, "--format", "json"],
        {"matrix": A, "method": method},
    )


def translate_request(w: Writer, grid, grid_im=None) -> Request:
    path = w.write(matrix_json(grid, grid_im))
    A = octo.translate(grid)
    if grid_im is not None:
        A = A + 1j * octo.translate(grid_im)
    return Request("translate", ["translate", "--matrix", path, "--format", "json"], {"matrix": A})


def mul_request(rng) -> Request:
    a, b = integer_octonion(rng, imag_units=3), integer_octonion(rng, imag_units=3)
    if rng.random() < 0.5:
        lhs, rhs = octo.literal(a), octo.literal(b)
        return Request("mul", ["mul", lhs, rhs, "--format", "json"], {"re": octo.mul(a, b), "im": np.zeros(8)})
    ai, bi = integer_octonion(rng, imag_units=1), integer_octonion(rng, imag_units=1)
    lhs = f"({octo.literal(a)}) + i({octo.literal(ai)})"
    rhs = f"({octo.literal(b)}) + i({octo.literal(bi)})"
    re_ = octo.mul(a, b) - octo.mul(ai, bi)
    im_ = octo.mul(a, bi) + octo.mul(ai, b)
    return Request("mul", ["mul", lhs, rhs, "--format", "json"], {"re": re_, "im": im_})


def reference_classify(grid, kind: str) -> str:
    """Hermiticity label over all basis pairs, by one contraction.

    left[s,a,t,b] = <e_a at s, O (e_b at t)>, right = <O (e_a at s), e_b at t>;
    exact for integer entries."""
    n = grid.shape[0]
    A4 = octo.translate(grid).reshape(n, 8, n, 8)
    c = octo.conj(np.ones(8))
    left = np.einsum("a,sjtb,ajk->satbk", c, A4, octo.MUL)
    right = np.einsum("i,tisa,ibk->satbk", c, A4, octo.MUL)
    if kind == "projected":
        P = project_matrix()
        left, right = left @ P.T, right @ P.T
    if np.all(left == right):
        return "hermitian"
    if np.all(left == -right):
        return "anti-hermitian"
    return "neither"


def project_matrix() -> np.ndarray:
    """(o - e1 (o e1)) / 2 as an 8x8 matrix on coefficients."""
    e1 = octo.basis(1)
    return 0.5 * (np.eye(8) - octo.left_matrix(e1) @ octo.right_matrix(e1))


def hermiticity_request(w: Writer, rng, n: int, label: str, kind: str) -> Request:
    """Real symmetric (hermitian) or antisymmetric (anti-hermitian)
    integer matrices scan every basis pair; octonion conjugate-pair
    matrices ('neither') stop at their first violating pair."""
    while True:
        grid = np.zeros((n, n, 8, 8))
        for i in range(n):
            for j in range(i, n):
                if label == "neither":
                    if i == j:
                        grid[i, i, 0, 0] = rng.choice([-2.0, -1.0, 1.0, 2.0])
                    else:
                        o = integer_octonion(rng)
                        grid[i, j, 0], grid[j, i, 0] = o, octo.conj(o)
                else:
                    x = float(rng.choice([-3, -2, -1, 1, 2, 3]))
                    if label == "hermitian":
                        grid[i, j, 0, 0] = grid[j, i, 0, 0] = x
                    elif i != j:
                        grid[i, j, 0, 0], grid[j, i, 0, 0] = x, -x
        if reference_classify(grid, kind) == label:
            break
    path = w.write(matrix_json(grid))
    return Request(
        f"hermiticity-{label}",
        ["hermiticity", path, "--kind", kind, "--format", "json"],
        {"grid": grid, "label": label, "kind": kind},
    )


# the 16 signed basis units +-e_j, row 2j + (sign < 0)
SIGNED_UNITS = np.array([s * octo.basis(j) for j in range(8) for s in (1.0, -1.0)])


def reference_right_eigs(grid) -> list:
    """Signed-basis right-eigen solutions (psi_a, psi_b, lambda) of a 2x2
    integer matrix, one per sign class of Psi."""
    A = octo.translate(grid)
    P = SIGNED_UNITS
    # lhs_i[a, b] = row i of M (P[a], P[b])
    lhs = [(P @ A[8 * i:8 * i + 8, :8].T)[:, None, :] + (P @ A[8 * i:8 * i + 8, 8:].T)[None, :, :]
           for i in (0, 1)]
    lam = np.einsum("ai,abj,ijk->abk", octo.conj(P), lhs[0], octo.MUL)
    ok = (np.all(np.einsum("ai,abj,ijk->abk", P, lam, octo.MUL) == lhs[0], axis=-1)
          & np.all(np.einsum("bi,abj,ijk->abk", P, lam, octo.MUL) == lhs[1], axis=-1))
    out = {}
    for a, b in zip(*np.nonzero(ok)):
        # Psi and -Psi share lambda: keep one per sign class
        key = (a // 2, b // 2, (a % 2) ^ (b % 2), tuple(lam[a, b]))
        out.setdefault(key, (P[a], P[b], lam[a, b]))
    return list(out.values())


def paper_2x2(rng):
    """2x2 matrix of signed basis units and zeros with at least one
    signed-basis right-eigen solution, plus those solutions."""
    while True:
        grid = grid_of(rng, 2, lambda r: signed_unit(r, p_zero=0.2))
        sols = reference_right_eigs(grid)
        if sols:
            return grid, sols


def enumerate_request(w: Writer, rng) -> Request:
    grid, sols = paper_2x2(rng)
    path = w.write(matrix_json(grid))
    return Request("enumerate", ["enumerate", path, "--format", "json"], {"grid": grid, "count": len(sols)})


def verify_right_request(w: Writer, rng) -> Request:
    grid, sols = paper_2x2(rng)
    pa, pb, lam = sols[int(rng.integers(0, len(sols)))]
    claim = {
        "matrix": matrix_json(grid),
        "right": {"psi": [octo.literal(pa), octo.literal(pb)], "lambda": octo.literal(lam)},
    }
    return Request("verify-right", ["verify", w.write(claim), "--format", "json"], {"kind": "right"})


def verify_coupled_request(w: Writer, rng) -> Request:
    """O = a + b u with u a unit imaginary: O xi = a xi - b eta and
    O eta = a eta + b xi for eta = -u xi, by alternativity.  For n = 2 a
    real coupling r on the off-diagonal shifts a by +-r on xi = (psi, +-psi)."""
    n = int(rng.integers(1, 3))
    a = float(rng.integers(-3, 4))
    b = float(rng.choice([1.0, 2.0, 3.0]))
    u = octo.basis(int(rng.integers(1, 8)))
    o = a * octo.basis(0) + b * u
    psi = integer_octonion(rng, imag_units=3)
    if psi[0] == 0.0:
        psi[0] = 1.0
    grid = np.zeros((n, n, 8, 8))
    xi = [psi]
    a_eff = a
    if n == 2:
        r = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        s = float(rng.choice([-1.0, 1.0]))
        grid[0, 1, 0, 0] = grid[1, 0, 0, 0] = r
        xi = [psi, s * psi]
        a_eff = a + s * r
    for i in range(n):
        grid[i, i, 0] = o
    eta = [-octo.mul(u, x) for x in xi]
    claim = {
        "matrix": matrix_json(grid),
        "coupled": {
            "a": a_eff,
            "b": b,
            "xi": [octo.literal(x) for x in xi],
            "eta": [octo.literal(e) for e in eta],
        },
    }
    return Request("verify-coupled", ["verify", w.write(claim), "--format", "json"], {"kind": "coupled"})


def dirac_request() -> Request:
    return Request("dirac", ["dirac", "--format", "json"])
