"""Output oracles, one per request kind.

Each oracle recomputes what it checks with :mod:`perfbench.octo` and
numpy, never with the ``octoeig`` function that produced the output.
``check`` returns ``None`` for an accepted output, else the reason it
was rejected.
"""

from __future__ import annotations

import json
import re

import numpy as np

from . import octo
from .gen import Request, project_matrix

EIG_RESIDUAL = 1e-8
EIG_VALUE_REL = 1e-6
# solutions are reported normalized; well below 1 means a lost component
MIN_NORM_SQ = 1e-4

_COMPLEX = re.compile(r"^\((?P<re>[^()]*)\) \+ i\((?P<im>[^()]*)\)$")


def _vec(literals) -> np.ndarray:
    return np.array([octo.parse(s) for s in literals])


def _match_both_ways(got, want, tol: float) -> str | None:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.size == 0 or want.size == 0:
        return f"empty spectrum (reported {got.size}, reference {want.size})"
    d = np.abs(got[:, None] - want[None, :])
    if d.min(axis=1).max() > tol:
        return f"reported value off the reference spectrum by {d.min(axis=1).max():.3e}"
    if d.min(axis=0).max() > tol:
        return f"reference value missing from the report by {d.min(axis=0).max():.3e}"
    return None


def check_eig(req: Request, rep: dict) -> str | None:
    """Residuals within the solver tolerance, non-trivial vectors, and the
    cluster values equal to numpy.linalg.eigvals of the translated
    matrix both ways.

    Residuals are absolute octonion norms and the solver's tolerance
    (1e-8) is relative to max(1, ||A||_F), so both are scaled alike, as
    the eigenvalue match is."""
    A = req.expect["matrix"]
    scale = max(1.0, float(np.linalg.norm(A)))
    tol = EIG_VALUE_REL * scale
    max_res = EIG_RESIDUAL * scale
    values = []
    for c in rep["clusters"]:
        z = complex(c["a"], c["b"])
        values.append(z)
        if not c["solutions"]:
            return f"cluster {z} has no solution"
        for s in c["solutions"]:
            if not s["residual"] <= max_res:
                return f"residual {s['residual']!r} at {z} above {max_res:.3e}"
            xi, eta = _vec(s["xi"]).reshape(-1), _vec(s["eta"]).reshape(-1)
            if xi @ xi + eta @ eta < MIN_NORM_SQ:
                return f"solution at {z} is a (near-)zero vector"
            if np.iscomplexobj(A) or req.expect["method"] == "complexified":
                phi = xi + 1j * eta
                r = (A @ phi - z * phi).reshape(-1, 8)
            else:
                r = np.concatenate([A @ xi - (z.real * xi - z.imag * eta),
                                    A @ eta - (z.real * eta + z.imag * xi)]).reshape(-1, 8)
            res = float(np.sqrt((np.abs(r) ** 2).sum(axis=1)).max())
            if res > max_res:
                return f"recomputed residual {res:.3e} at {z} above {max_res:.3e}"
    ref = np.linalg.eigvals(A)
    if not np.iscomplexobj(A):
        ref = ref[ref.imag >= -tol]
        values = [z for z in values if z.imag >= -tol]
    return _match_both_ways(values, ref, tol)


def _inner(psi, phi) -> np.ndarray:
    return sum(octo.mul(octo.conj(p), q) for p, q in zip(psi, phi))


def check_hermiticity(req: Request, rep: dict) -> str | None:
    """Label equal to the construction's; a witness must be recomputed
    to the reported values and violate (anti-)hermiticity."""
    want = req.expect["label"]
    if rep["classification"] != want:
        return f"classified {rep['classification']!r}, constructed {want!r}"
    w = rep.get("witness")
    if want != "neither":
        return None if w is None else "witness on a hermitian or anti-hermitian operator"
    if w is None:
        return "'neither' without a witness"
    A = octo.translate(req.expect["grid"])

    def apply(v):
        return (A @ v.reshape(-1)).reshape(-1, 8)

    psi, phi = _vec(w["psi"]), _vec(w["phi"])
    left, right = _inner(psi, apply(phi)), _inner(apply(psi), phi)
    if req.expect["kind"] == "projected":
        P = project_matrix()
        left, right = P @ left, P @ right
    if not (np.array_equal(left, octo.parse(w["left"]))
            and np.array_equal(right, octo.parse(w["right"]))):
        return "witness values differ from their recomputation"
    if np.array_equal(left, right) and np.array_equal(left, -right):
        return "witness violates neither property"
    return None


def check_enumerate(req: Request, rep: dict) -> str | None:
    """Each reported claim M Psi = Psi lambda rechecked exactly; claims
    distinct up to the sign of Psi and as many as the reference finds."""
    A = octo.translate(req.expect["grid"])
    seen = set()
    for sol in rep["solutions"]:
        psi, lam = _vec(sol["psi"]), octo.parse(sol["lambda"])
        if not np.any(psi):
            return "zero Psi reported"
        lhs = (A @ psi.reshape(-1)).reshape(-1, 8)
        if not all(np.array_equal(lhs[i], octo.mul(psi[i], lam)) for i in range(len(psi))):
            return f"claim {sol} does not verify"
        lead = psi.reshape(-1)[np.flatnonzero(psi)[0]]
        key = (tuple(np.sign(lead) * psi.reshape(-1)), tuple(lam))
        if key in seen:
            return f"duplicate claim {sol}"
        seen.add(key)
    if rep["count"] != len(rep["solutions"]) or rep["count"] != req.expect["count"]:
        return f"count {rep['count']}, reference {req.expect['count']}"
    return None


def check_verify(req: Request, rep: dict) -> str | None:
    """Integer claims verify with a residual of exactly 0.0."""
    if rep["kind"] != req.expect["kind"] or rep["ok"] is not True or rep["residual"] != 0.0:
        return f"{rep['kind']} claim: ok={rep['ok']} residual={rep['residual']!r}"
    return None


def check_translate(req: Request, rep: dict) -> str | None:
    A = req.expect["matrix"]
    m = rep["matrix"]
    got = np.array(m["re"]) + 1j * np.array(m["im"]) if isinstance(m, dict) else np.array(m)
    if got.shape != A.shape or np.abs(got - A).max() > 1e-12 * max(1.0, np.abs(A).max()):
        return "translated matrix differs from the reference"
    return None


def check_mul(req: Request, rep: dict) -> str | None:
    text = rep["product"]
    m = _COMPLEX.match(text)
    re_, im_ = (octo.parse(m["re"]), octo.parse(m["im"])) if m else (octo.parse(text), np.zeros(8))
    if not (np.array_equal(re_, req.expect["re"]) and np.array_equal(im_, req.expect["im"])):
        return f"product {text!r} differs from the reference"
    return None


def check_dirac(req: Request, rep: dict) -> str | None:
    if rep["ok"] is not True or not all(rep["checks"].values()) or not rep["dispersion_max_error"] <= 1e-12:
        return f"dirac checks failed: {rep}"
    return None


_ORACLES = {
    "eig": check_eig,
    "hermiticity": check_hermiticity,
    "enumerate": check_enumerate,
    "verify": check_verify,
    "translate": check_translate,
    "mul": check_mul,
    "dirac": check_dirac,
}


def check(req: Request, rc: int, stdout: str) -> str | None:
    """None when the request exited 0 and its oracle accepts the output."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        rep = json.loads(stdout)
        return _ORACLES[req.argv[0]](req, rep)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
