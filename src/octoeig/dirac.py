"""Octonionic Dirac representation checked at the matrix level.

With a commuting imaginary unit i on top of the octonions, the three
operators alpha_k = i L_{e_k} (k = 1, 2, 3) and beta = i L_{e_4}
translate to 8x8 complex matrices satisfying the Dirac algebra

    {alpha_m, alpha_n} = 2 delta_mn I,   {alpha_k, beta} = 0,
    beta^2 = I,

so the Hamiltonian H(p) = sum_k p_k alpha_k + m beta obeys the
dispersion identity H^2 = (|p|^2 + m^2) I (units hbar = c = 1; the
momentum operator is replaced by its plane-wave symbol p).

The mechanism is linearized alternativity: {L_a, L_b} = -2 <a, b> I for
imaginary octonions, which the report checks over all basis pairs at
once.  Every matrix here is read off the unit table ``LEFT_UNITS``.
An 8-component complexified octonion also splits as Psi + e4 Phi with
both halves in the complexified quaternion subalgebra span(1, e1, e2,
e3); the two sectors are orthogonal under the complex-projected inner
product, giving two independent 4-component spinors.  The doublet check
works on stacked (re, im) coefficient arrays, with the products of
``ComplexOctonion`` formed through ``product_matrices`` in the same
order, so its inner products are those of the objects bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octonion import CONJ_SIGN, LEFT_UNITS, ComplexOctonion, product_matrices

__all__ = [
    "DiracRep",
    "dirac_representation",
    "dirac_algebra_check",
    "dispersion_check",
    "left_anticommutator_check",
    "split_doublet",
    "orthogonal_doublet_check",
    "dirac_checks",
]

# entrywise bound on H(p)^2 - (|p|^2 + m^2) I in dispersion_check
DISPERSION_TOL = 1e-12


@dataclass
class DiracRep:
    """alpha_k = i L_{e_k} (k=1..3) and beta = i L_{e_4} as 8x8 complex
    matrices; natural units hbar = c = 1."""

    alphas: tuple
    beta: np.ndarray


def dirac_representation() -> DiracRep:
    return DiracRep(tuple(1j * LEFT_UNITS[1:4]), 1j * LEFT_UNITS[4])


def _anticomm(A, B):
    return A @ B + B @ A


def dirac_algebra_check() -> dict:
    """Exact matrix identities of the Dirac algebra (integer complex
    entries, so equality is checked without tolerance)."""
    rep = dirac_representation()
    eye = np.eye(8, dtype=np.complex128)
    zero = np.zeros((8, 8), dtype=np.complex128)
    report = {}
    for m in range(3):
        for n in range(3):
            want = 2.0 * eye if m == n else zero
            report[f"anticomm_alpha{m + 1}_alpha{n + 1}"] = bool(
                np.array_equal(_anticomm(rep.alphas[m], rep.alphas[n]), want)
            )
    for m in range(3):
        report[f"anticomm_alpha{m + 1}_beta"] = bool(
            np.array_equal(_anticomm(rep.alphas[m], rep.beta), zero)
        )
    report["beta_squared_is_identity"] = bool(
        np.array_equal(rep.beta @ rep.beta, eye)
    )
    report["all_passed"] = all(report.values())
    return report


def _dispersion(rep: DiracRep, p: np.ndarray, m: np.ndarray):
    """(max_error, ok) arrays of dispersion_check for k draws stacked along
    the first axis, p of shape (k, 3) and m of shape (k,).  Each draw
    gets dispersion_check's own operations: H(p) built by the same
    elementwise products and adds, |p|^2 by one dot product and H^2 by
    one 8 x 8 complex matmul, so its error does not depend on the stack."""
    H = m[:, None, None] * rep.beta
    for k in range(3):
        H = H + p[:, k, None, None] * rep.alphas[k]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        energy_sq = (p[:, None, :] @ p[:, :, None])[:, 0, 0] + m * m
        err = np.abs(H @ H - energy_sq[:, None, None] * np.eye(8)).max(axis=(1, 2))
    # each entry of H is one of +-i p_k, +-i m or 0, so H^2 and the
    # target overflow where the squares or their sum do
    if not np.isfinite(err).all():
        raise ValueError("|p|^2 + m^2 exceeds the float64 range")
    return err, err <= DISPERSION_TOL * np.maximum(1.0, energy_sq)


def dispersion_check(rep: DiracRep | None = None, p=(0.0, 0.0, 0.0),
                     m: float = 0.0) -> dict:
    """H(p)^2 = (|p|^2 + m^2) I within DISPERSION_TOL * max(1, |p|^2 + m^2),
    a bound relative to the energy squared once it exceeds 1, for finite
    p and m >= 0 whose squares stay in the float64 range (ValueError
    otherwise)."""
    if rep is None:
        rep = dirac_representation()
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (3,):
        raise ValueError("p must be a real 3-vector")
    if not (np.isfinite(p).all() and np.isfinite(m)):
        raise ValueError("p and the mass must be finite")
    if m < 0:
        raise ValueError("mass must be nonnegative")
    err, ok = _dispersion(rep, p[None], np.array([m], dtype=np.float64))
    return {
        "p": tuple(float(x) for x in p),
        "m": float(m),
        "max_error": float(err[0]),
        "ok": bool(ok[0]),
    }


def left_anticommutator_check() -> dict:
    """{L_a, L_b} = -2 <a, b> I over all imaginary basis pairs: the
    linearized-alternativity identity behind the Dirac algebra."""
    # [a, b] = {L_a, L_b} and -2 delta_ab I
    anti = _anticomm(LEFT_UNITS[1:, None], LEFT_UNITS[None, 1:])
    want = -2.0 * np.eye(7)[:, :, None, None] * np.eye(8)
    return {"ok": np.array_equal(anti, want)}


def _split_coeffs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """split_doublet on coefficient rows (..., 8): (psi, phi) with c =
    psi + e4 phi, both supported on indices 0..3."""
    psi = np.zeros(c.shape)
    psi[..., :4] = c[..., :4]
    # e4 * (f0 + f1 e1 + f2 e2 + f3 e3) = f0 e4 - f1 e5 - f2 e6 - f3 e7
    phi = np.zeros(c.shape)
    phi[..., 0] = c[..., 4]
    phi[..., 1:4] = -c[..., 5:]
    return psi, phi


def split_doublet(x: ComplexOctonion) -> tuple[ComplexOctonion, ComplexOctonion]:
    """Decompose x = Psi + e4 Phi with Psi, Phi supported on the
    complexified quaternion subalgebra span(1, e1, e2, e3)."""
    psi, phi = _split_coeffs(np.stack((x.re.coeffs, x.im.coeffs)))
    return ComplexOctonion(*psi), ComplexOctonion(*phi)


def _projected_inners(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complex inner products on stacked (re, im) coefficient rows x, y of
    shape (k, 2, 8): the full conjugate of x (octonionic dagger and
    i -> -i) times y, projected on the C(1, i) component, as a (k, 2)
    array of (re, im).  Each octonion product a b is one (1, 8) @ (8, 8)
    product b @ P(a), Octonion.__mul__'s, and the complex product is
    ComplexOctonion.__mul__'s (ac - bd) + i(ad + bc)."""
    a = product_matrices(x[:, 0] * CONJ_SIGN)
    b = product_matrices(-(x[:, 1] * CONJ_SIGN))
    c, d = y[:, 0, None], y[:, 1, None]
    re = c @ a - d @ b
    im = d @ a + c @ b
    return np.stack((re[:, 0, 0], im[:, 0, 0]), axis=1)


def orthogonal_doublet_check() -> dict:
    """The two spinor sectors span(1, e1, e2, e3) and e4*span(...) =
    span(e4..e7) are orthogonal under the complex-projected inner
    product; checked over all basis pairs, plus reconstruction of the
    split on every basis unit."""
    # x = e_j + i 0 for j = 0..7, then x = 0 + i e_j, as (re, im) rows
    eye = np.eye(8)[:, None]
    units = np.concatenate((eye * [[1.0], [0.0]], eye * [[0.0], [1.0]]))
    # pair (e_j, e_k) at row 8 j + k
    real = units[:8]
    vals = _projected_inners(np.repeat(real, 8, axis=0), np.tile(real, (8, 1, 1)))
    vals = vals.reshape(8, 8, 2)
    sector = np.arange(8) < 4
    cross = sector[:, None] != sector[None, :]
    cross_ok = not vals[cross].any()
    diag = vals[np.arange(8), np.arange(8)]
    within_ok = bool(np.all(diag == [1.0, 0.0]))
    psi, phi = _split_coeffs(units)
    quat_support = not (psi[..., 4:].any() or phi[..., 4:].any())
    # e4 Phi: e4 is real, so each half of Phi is multiplied by e4
    recon = psi + phi @ product_matrices(np.eye(8)[4])
    recon_ok = quat_support and bool(np.array_equal(recon, units))
    return {
        "cross_sector_orthogonal": cross_ok,
        "unit_normalized": within_ok,
        "split_reconstructs": recon_ok,
        "all_passed": cross_ok and within_ok and recon_ok,
    }


def dirac_checks(seed: int) -> tuple[list[tuple[str, bool]], float]:
    """Every check of this module: the exact algebra, the dispersion
    identity at 100 seeded draws p in [-2, 2]^3 and m in [0, 2], the
    left anticommutators and the doublet orthogonality.  Returns
    (rows, worst) with rows the (name, passed) pairs and worst the
    largest dispersion error.

    The draws are checked as one stack.  They are those of 100 turns of
    p = rng.uniform(-2, 2, 3), m = rng.uniform(0, 2): Generator.uniform
    maps each double u of the stream to low + (high - low) u, so row i
    of 100 x 4 such doubles holds draw i's p and then its m."""
    u = np.random.default_rng(seed).random((100, 4))
    err, ok = _dispersion(dirac_representation(), -2.0 + 4.0 * u[:, :3], 0.0 + 2.0 * u[:, 3])
    rows = [
        ("dirac-algebra", dirac_algebra_check()["all_passed"]),
        ("dispersion-100-random", bool(ok.all())),
        ("left-anticommutators", left_anticommutator_check()["ok"]),
        ("doublet-orthogonality", orthogonal_doublet_check()["all_passed"]),
    ]
    return rows, float(err.max())
