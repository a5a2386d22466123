"""Command-line interface.

Subcommands: mul, translate, decompose, eig, verify, enumerate,
hermiticity, dirac, paper-suite.  Output is text by default or JSON
with ``--format json``; all runs are deterministic for a given input
(``dirac`` draws its random momenta from the fixed seed 1729).  Text
output prints residuals as ``.2e``; JSON prints them in full.  Input
files may be ``-`` for stdin.

Exit status: 0 on success, 1 when a verification or solver check
fails, 2 on parse/IO errors and bad input, a JSON integer beyond the
float64 range included.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import dirac as dirac_mod
from . import hermiticity as herm_mod
from .eigen import (
    RightEigenClaim,
    eig_report,
    enumerate_basis_right_eigs,
    verify_coupled,
    verify_right_eigen,
)
from .linalg import SOLVER_TOL, LinalgError
from .octonion import (
    OctonionParseError,
    format_complex_octonion,
    format_octonion,
    parse_complex_octonion,
    parse_octonion,
)
from .operators import (
    OperatorMatrix,
    OperatorMatrixFormatError,
    matrix_to_generalized,
    parse_word,
)
from .suite import DEFAULT_SEED, run_suite

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _json_int(text: str) -> int:
    """A JSON integer; bad input when it lies beyond the float64 range."""
    if abs(value := int(text)) > sys.float_info.max:
        raise ValueError(f"a {len(text)}-character JSON integer exceeds the float64 range")
    return value


def _load_json(path: str):
    return json.loads(_read_text(path), parse_int=_json_int)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _fmt_matrix(M: np.ndarray) -> str:
    is_complex = np.iscomplexobj(M)
    if is_complex:
        integer = bool(
            np.all(M.real == np.round(M.real)) and np.all(M.imag == np.round(M.imag))
        )
    else:
        integer = bool(np.all(M == np.round(M)))
    lines = []
    for row in M:
        cells = []
        for x in row:
            if is_complex:
                if integer:
                    cells.append(f"{int(x.real):3d}{int(x.imag):+3d}i")
                else:
                    cells.append(f"{x.real:9.4f}{x.imag:+9.4f}i")
            else:
                cells.append(f"{int(x):3d}" if integer else f"{x:9.4f}")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def _matrix_json(M: np.ndarray):
    if np.iscomplexobj(M):
        return {
            "re": [[float(x) for x in row] for row in M.real],
            "im": [[float(x) for x in row] for row in M.imag],
        }
    return [[float(x) for x in row] for row in M]


# -- subcommands --------------------------------------------------------------


def _cmd_mul(args) -> int:
    x = parse_complex_octonion(args.lhs)
    y = parse_complex_octonion(args.rhs)
    prod = x * y
    if prod.im.is_zero() and x.im.is_zero() and y.im.is_zero():
        text = format_octonion(prod.re)
    else:
        text = format_complex_octonion(prod)
    if args.format == "json":
        _emit_json({"product": text})
    else:
        print(text)
    return 0


def _cmd_translate(args) -> int:
    if args.matrix is not None:
        M = OperatorMatrix.from_json(_load_json(args.matrix))
        mat = M.to_complex_matrix() if M.complexified else M.to_real_matrix()
    else:
        if args.word is None:
            print("translate: give an operator word or --matrix FILE", file=sys.stderr)
            return 2
        mat = parse_word(args.word).to_matrix()
    if args.format == "json":
        _emit_json({"matrix": _matrix_json(mat)})
    else:
        print(_fmt_matrix(mat))
    return 0


def _cmd_decompose(args) -> int:
    data = _load_json(args.input)
    arr = np.asarray(data, dtype=np.float64)
    if any(isinstance(x, bool) for x in np.asarray(data, dtype=object).flat):
        raise ValueError("the matrix must hold numbers, not booleans")
    g = matrix_to_generalized(arr)
    parts = [format_octonion(p) for p in g.parts]
    if args.format == "json":
        _emit_json({"parts": parts})
    else:
        for k, p in enumerate(parts):
            print(f"o{k}: {p}")
    return 0


def _cmd_eig(args) -> int:
    M = OperatorMatrix.from_json(_load_json(args.input))
    method = args.method
    if method == "auto":
        method = "complexified" if M.complexified else "coupled"
    report = eig_report(M, method=method)
    if args.format == "json":
        _emit_json(report)
        return 0
    print(f"method: {method}")
    for c in report["clusters"]:
        print(
            f"cluster a={c['a']:.9g} b={c['b']:.9g} "
            f"multiplicity={c['multiplicity']}"
        )
        for k, s in enumerate(c["solutions"]):
            print(f"  solution {k}: residual {s['residual']:.2e}")
            print("    xi : " + " | ".join(s["xi"]))
            print("    eta: " + " | ".join(s["eta"]))
    return 0


def _claim(data: dict, kind: str, n: int, vectors: tuple, scalars: tuple) -> dict:
    """The `kind` claim of a verify input, checked: every key present and
    each vector a JSON array of n octonion literals."""
    spec = data[kind]
    if not isinstance(spec, dict):
        raise ValueError(f"the {kind} claim must be a JSON object")
    for key in scalars + vectors:
        if key not in spec:
            raise ValueError(f"missing key {key!r} in the {kind} claim")
    for key in scalars:
        if isinstance(spec[key], bool):
            raise ValueError(f"{key!r} in the {kind} claim must not be a boolean")
    for key in vectors:
        vec = spec[key]
        if not (isinstance(vec, list) and len(vec) == n
                and all(isinstance(s, str) for s in vec)):
            raise ValueError(
                f"{key!r} in the {kind} claim must be an array of "
                f"n = {n} octonion literals"
            )
    return spec


def _cmd_verify(args) -> int:
    data = _load_json(args.input)
    if not isinstance(data, dict) or "matrix" not in data:
        print("verify: input must be {'matrix': ..., 'coupled'|'right': ...}",
              file=sys.stderr)
        return 2
    M = OperatorMatrix.from_json(data["matrix"])
    if "coupled" in data:
        spec = _claim(data, "coupled", M.n, ("xi", "eta"), ("a", "b"))
        xi = tuple(parse_octonion(s) for s in spec["xi"])
        eta = tuple(parse_octonion(s) for s in spec["eta"])
        res = verify_coupled(M, float(spec["a"]), float(spec["b"]), xi, eta)
        ok = res <= SOLVER_TOL
        out = {"kind": "coupled", "residual": res, "ok": ok}
    elif "right" in data:
        spec = _claim(data, "right", M.n, ("psi",), ("lambda",))
        psi = tuple(parse_octonion(s) for s in spec["psi"])
        lam = parse_octonion(spec["lambda"])
        check = verify_right_eigen(M, RightEigenClaim(psi, lam))
        ok = check.ok
        out = {
            "kind": "right",
            "residual": check.residual,
            "ok": ok,
            "zero_vector": check.zero_vector,
        }
    else:
        print("verify: need a 'coupled' or 'right' claim", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit_json(out)
    else:
        print(f"{out['kind']}: residual {out['residual']:.2e} -> {'OK' if ok else 'FAIL'}")
        if out.get("zero_vector"):
            print("note: zero vector verifies vacuously")
    return 0 if ok else 1


def _cmd_enumerate(args) -> int:
    M = OperatorMatrix.from_json(_load_json(args.input))
    psi_a = parse_octonion(args.psi_a) if args.psi_a else None
    claims = enumerate_basis_right_eigs(M, psi_a=psi_a)
    items = [
        {
            "psi": [format_octonion(p) for p in c.psi],
            "lambda": format_octonion(c.lam),
        }
        for c in claims
    ]
    if args.format == "json":
        _emit_json({"count": len(items), "solutions": items})
    else:
        for it in items:
            print("{ " + ", ".join(it["psi"]) + " ; " + it["lambda"] + " }")
        print(f"total: {len(items)}")
    return 0


def _cmd_hermiticity(args) -> int:
    M = OperatorMatrix.from_json(_load_json(args.input))
    kind = herm_mod.FULL if args.kind == "full" else herm_mod.COMPLEX_PROJECTED
    report = herm_mod.classify(M, kind)
    out = {
        "operator": M.to_json(),
        "kind": report.kind,
        "classification": report.classification,
    }
    if report.witness is not None:
        psi, phi, left, right = report.witness
        out["witness"] = {
            "psi": [format_octonion(p) for p in psi],
            "phi": [format_octonion(p) for p in phi],
            "left": format_octonion(left),
            "right": format_octonion(right),
        }
    if args.survey:
        out["unit_survey"] = {
            f"e{m}": cls for m, cls in herm_mod.survey_imaginary_units(kind).items()
        }
    if args.format == "json":
        _emit_json(out)
    else:
        print(f"product: {out['kind']}")
        print(f"classification: {out['classification']}")
        if "witness" in out:
            w = out["witness"]
            print(f"witness psi: ({', '.join(w['psi'])})  phi: ({', '.join(w['phi'])})")
            print(f"  <psi, O phi> = {w['left']}    <O psi, phi> = {w['right']}")
        if "unit_survey" in out:
            for unit, cls in out["unit_survey"].items():
                print(f"  {unit}: {cls}")
    return 0


def _cmd_dirac(args) -> int:
    alg = dirac_mod.dirac_algebra_check()
    rng = np.random.default_rng(DEFAULT_SEED)
    disp_ok = True
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-2.0, 2.0, 3)
        m = float(rng.uniform(0.0, 2.0))
        r = dirac_mod.dispersion_check(p=p, m=m)
        worst = max(worst, r["max_error"])
        disp_ok = disp_ok and r["ok"]
    doublet = dirac_mod.orthogonal_doublet_check()
    anticomm = dirac_mod.left_anticommutator_check()
    rows = [
        ("dirac-algebra", alg["all_passed"]),
        ("dispersion-100-random", disp_ok),
        ("left-anticommutators", anticomm["ok"]),
        ("doublet-orthogonality", doublet["all_passed"]),
    ]
    ok = all(flag for _, flag in rows)
    if args.format == "json":
        _emit_json(
            {
                "checks": {name: bool(flag) for name, flag in rows},
                "dispersion_max_error": worst,
                "ok": ok,
            }
        )
    else:
        for name, flag in rows:
            print(f"{'PASS' if flag else 'FAIL'}  {name}")
        print(f"dispersion max error: {worst:.2e}")
    return 0 if ok else 1


def _cmd_paper_suite(args) -> int:
    results = run_suite()
    ok_all = all(ok for _, ok, _ in results)
    if args.format == "json":
        _emit_json(
            {
                "checks": [
                    {"name": name, "ok": ok, "detail": detail}
                    for name, ok, detail in results
                ],
                "ok": ok_all,
            }
        )
    else:
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name:32s} {detail}")
        print(f"{sum(1 for _, ok, _ in results if ok)}/{len(results)} checks passed")
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octoeig",
        description="octonionic operators, matrix translation and eigensolvers",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", parents=[common], help="multiply two octonion literals")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("translate", parents=[common],
                       help="operator word or matrix to its real/complex matrix")
    p.add_argument("word", nargs="?", help="operator word, e.g. 'L4 R5 R1 L6'")
    p.add_argument("--matrix", help="operator-matrix JSON file ('-' for stdin)")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("decompose", parents=[common],
                       help="8x8 real matrix (JSON array) to generalized operator")
    p.add_argument("input", help="JSON file with an 8x8 array ('-' for stdin)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("eig", parents=[common], help="solve the eigenproblem")
    p.add_argument("input", help="operator-matrix JSON file ('-' for stdin)")
    p.add_argument("--method", choices=("auto", "coupled", "complexified"),
                   default="auto")
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("verify", parents=[common],
                       help="verify a coupled or right-eigenvalue claim")
    p.add_argument("input", help="JSON file with matrix and claim ('-' for stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common],
                       help="basis right-eigensolutions of a 2x2 matrix")
    p.add_argument("input", help="operator-matrix JSON file ('-' for stdin)")
    p.add_argument("--psi-a", help="pin the first component, e.g. 'e2'")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hermiticity", parents=[common],
                       help="classify an operator matrix")
    p.add_argument("input", help="operator-matrix JSON file ('-' for stdin)")
    p.add_argument("--kind", choices=("full", "projected"), default="full")
    p.add_argument("--survey", action="store_true",
                   help="also classify every unit e1..e7")
    p.set_defaults(func=_cmd_hermiticity)

    p = sub.add_parser("dirac", parents=[common], help="Dirac representation checks")
    p.set_defaults(func=_cmd_dirac)

    p = sub.add_parser("paper-suite", parents=[common],
                       help="run the worked-example regression suite")
    p.set_defaults(func=_cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OctonionParseError, OperatorMatrixFormatError) as exc:
        print(f"octoeig: parse error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"octoeig: bad JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"octoeig: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"octoeig: bad input: {exc}", file=sys.stderr)
        return 2
    except LinalgError as exc:
        print(f"octoeig: solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
