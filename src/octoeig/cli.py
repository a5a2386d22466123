"""Command-line interface.

Subcommands: mul, translate, decompose, eig, verify, enumerate,
hermiticity, dirac, paper-suite.  Each command returns its result, the
lines that render it as text and its exit status; ``main`` alone reads
``--format`` and prints either the lines (the default) or the result
as JSON.  All runs are deterministic for a given input (``dirac`` draws
its random momenta from the fixed seed 1729).  Text output prints
residuals as ``.2e``; JSON prints them in full.  Input files may be
``-`` for stdin.

Exit status: 0 on success, 1 when a verification or solver check
fails, 2 on parse/IO errors, bad input (a JSON integer beyond the
float64 range included) and usage errors (``translate`` with both a
word and ``--matrix`` or with neither, ``verify`` without a matrix or
a claim), whose message goes to stderr.
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
    format_coeffs,
    format_complex_octonion,
    format_octonion,
    parse_complex_octonion,
    parse_octonion,
)
from .operators import (
    OperatorMatrix,
    OperatorMatrixFormatError,
    matrix_to_generalized,
    _is_number,
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


# Built once per process, as json.loads would build it on every call.
_JSON_DECODER = json.JSONDecoder(parse_int=_json_int)


def _load_json(path: str):
    """json.loads(text, parse_int=_json_int), byte-order-mark refusal
    included, on the decoder built at import."""
    text = _read_text(path)
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _JSON_DECODER.decode(text)


class _UsageError(Exception):
    """A command line the parser accepts but the command cannot run;
    ``main`` prints the message to stderr and exits 2."""


def _fmt_matrix(M: np.ndarray):
    """The text rows of a translation, one line each (lazily)."""
    is_complex = np.iscomplexobj(M)
    if is_complex:
        integer = bool(
            np.all(M.real == np.round(M.real)) and np.all(M.imag == np.round(M.imag))
        )
    else:
        integer = bool(np.all(M == np.round(M)))
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
        yield " ".join(cells)


def _matrix_json(M: np.ndarray):
    if np.iscomplexobj(M):
        return {"re": M.real.tolist(), "im": M.imag.tolist()}
    return M.tolist()


# -- subcommands --------------------------------------------------------------
# Each returns (result, lines, code): the JSON-ready result, the lines
# that text output prints (any iterable of str), and the exit status.


def _cmd_mul(args):
    x = parse_complex_octonion(args.lhs)
    y = parse_complex_octonion(args.rhs)
    prod = x * y
    if prod.im.is_zero() and x.im.is_zero() and y.im.is_zero():
        text = format_octonion(prod.re)
    else:
        text = format_complex_octonion(prod)
    return {"product": text}, [text], 0


def _cmd_translate(args):
    if args.word is not None and args.matrix is not None:
        raise _UsageError("translate: give an operator word or --matrix FILE, not both")
    if args.matrix is not None:
        M = OperatorMatrix.from_json(_load_json(args.matrix))
        mat = M.to_complex_matrix() if M.complexified else M.to_real_matrix()
    elif args.word is not None:
        mat = parse_word(args.word).to_matrix()
    else:
        raise _UsageError("translate: give an operator word or --matrix FILE")
    return {"matrix": _matrix_json(mat)}, _fmt_matrix(mat), 0


def _json_kind(x) -> str:
    """The JSON type of a decoded value that is not a number, plural."""
    return {bool: "booleans", str: "strings", list: "arrays", dict: "objects"}.get(
        type(x), "null")


def _cmd_decompose(args):
    data = np.asarray(_load_json(args.input), dtype=object)
    if data.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {data.shape}")
    for x in data.flat:
        if not _is_number(x):
            raise ValueError(f"the matrix must hold numbers, not {_json_kind(x)}")
    g = matrix_to_generalized(data.astype(np.float64))
    parts = [format_octonion(p) for p in g.parts]
    return {"parts": parts}, [f"o{k}: {p}" for k, p in enumerate(parts)], 0


def _eig_lines(method: str, report: dict):
    yield f"method: {method}"
    for c in report["clusters"]:
        yield f"cluster a={c['a']:.9g} b={c['b']:.9g} multiplicity={c['multiplicity']}"
        for k, s in enumerate(c["solutions"]):
            yield f"  solution {k}: residual {s['residual']:.2e}"
            yield "    xi : " + " | ".join(s["xi"])
            yield "    eta: " + " | ".join(s["eta"])


def _cmd_eig(args):
    M = OperatorMatrix.from_json(_load_json(args.input))
    method = args.method
    if method == "auto":
        method = "complexified" if M.complexified else "coupled"
    report = eig_report(M, method=method)
    return report, _eig_lines(method, report), 0


def _claim(data: dict, kind: str, n: int, vectors: tuple,
           numbers: tuple = (), literals: tuple = ()) -> dict:
    """The `kind` claim of a verify input, checked: every key present,
    each of `numbers` a JSON number, each of `literals` an octonion
    literal and each vector a JSON array of n octonion literals."""
    spec = data[kind]
    if not isinstance(spec, dict):
        raise ValueError(f"the {kind} claim must be a JSON object")
    for key in numbers + literals + vectors:
        if key not in spec:
            raise ValueError(f"missing key {key!r} in the {kind} claim")
    for key in numbers:
        if isinstance(spec[key], bool):
            raise ValueError(f"{key!r} in the {kind} claim must not be a boolean")
        if not _is_number(spec[key]):
            raise ValueError(f"{key!r} in the {kind} claim must be a number")
    for key in literals:
        if not isinstance(spec[key], str):
            raise ValueError(f"{key!r} in the {kind} claim must be an octonion literal")
    for key in vectors:
        vec = spec[key]
        if not (isinstance(vec, list) and len(vec) == n
                and all(isinstance(s, str) for s in vec)):
            raise ValueError(
                f"{key!r} in the {kind} claim must be an array of "
                f"n = {n} octonion literals"
            )
    return spec


def _cmd_verify(args):
    data = _load_json(args.input)
    if not isinstance(data, dict) or "matrix" not in data:
        raise _UsageError("verify: input must be {'matrix': ..., 'coupled'|'right': ...}")
    M = OperatorMatrix.from_json(data["matrix"])
    if "coupled" in data:
        spec = _claim(data, "coupled", M.n, ("xi", "eta"), numbers=("a", "b"))
        xi = tuple(parse_octonion(s) for s in spec["xi"])
        eta = tuple(parse_octonion(s) for s in spec["eta"])
        res = verify_coupled(M, spec["a"], spec["b"], xi, eta)
        out = {"kind": "coupled", "residual": res, "ok": res <= SOLVER_TOL}
    elif "right" in data:
        spec = _claim(data, "right", M.n, ("psi",), literals=("lambda",))
        psi = tuple(parse_octonion(s) for s in spec["psi"])
        lam = parse_octonion(spec["lambda"])
        check = verify_right_eigen(M, RightEigenClaim(psi, lam))
        out = {
            "kind": "right",
            "residual": check.residual,
            "ok": check.ok,
            "zero_vector": check.zero_vector,
        }
    else:
        raise _UsageError("verify: need a 'coupled' or 'right' claim")
    ok = out["ok"]
    lines = [f"{out['kind']}: residual {out['residual']:.2e} -> {'OK' if ok else 'FAIL'}"]
    if out.get("zero_vector"):
        lines.append("note: zero vector verifies vacuously")
    return out, lines, 0 if ok else 1


def _cmd_enumerate(args):
    M = OperatorMatrix.from_json(_load_json(args.input))
    psi_a = parse_octonion(args.psi_a) if args.psi_a is not None else None
    claims = enumerate_basis_right_eigs(M, psi_a=psi_a)
    # each claim's rows psi_1, psi_2, lambda, formatted in one call
    rows = np.array([[p.coeffs for p in c.psi] + [c.lam.coeffs] for c in claims])
    items = [
        {"psi": texts[:-1], "lambda": texts[-1]}
        for texts in format_coeffs(rows.reshape(len(claims), M.n + 1, 8))
    ]
    lines = ["{ " + ", ".join(it["psi"]) + " ; " + it["lambda"] + " }" for it in items]
    lines.append(f"total: {len(items)}")
    return {"count": len(items), "solutions": items}, lines, 0


def _cmd_hermiticity(args):
    M = OperatorMatrix.from_json(_load_json(args.input))
    kind = herm_mod.FULL if args.kind == "full" else herm_mod.COMPLEX_PROJECTED
    report = herm_mod.classify(M, kind)
    out = {
        "operator": M.to_json(),
        "kind": report.kind,
        "classification": report.classification,
    }
    lines = [f"product: {report.kind}", f"classification: {report.classification}"]
    if report.witness is not None:
        psi, phi, left, right = report.witness
        w = out["witness"] = {
            "psi": [format_octonion(p) for p in psi],
            "phi": [format_octonion(p) for p in phi],
            "left": format_octonion(left),
            "right": format_octonion(right),
        }
        lines.append(f"witness psi: ({', '.join(w['psi'])})  phi: ({', '.join(w['phi'])})")
        lines.append(f"  <psi, O phi> = {w['left']}    <O psi, phi> = {w['right']}")
    if args.survey:
        survey = out["unit_survey"] = {
            f"e{m}": cls for m, cls in herm_mod.survey_imaginary_units(kind).items()
        }
        lines += [f"  {unit}: {cls}" for unit, cls in survey.items()]
    return out, lines, 0


def _cmd_dirac(args):
    rows, worst = dirac_mod.dirac_checks(DEFAULT_SEED)
    ok = all(flag for _, flag in rows)
    out = {
        "checks": {name: bool(flag) for name, flag in rows},
        "dispersion_max_error": worst,
        "ok": ok,
    }
    lines = [f"{'PASS' if flag else 'FAIL'}  {name}" for name, flag in rows]
    lines.append(f"dispersion max error: {worst:.2e}")
    return out, lines, 0 if ok else 1


def _cmd_paper_suite(args):
    results = run_suite()
    ok_all = all(ok for _, ok, _ in results)
    out = {
        "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in results],
        "ok": ok_all,
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {name:32s} {detail}" for name, ok, detail in results]
    lines.append(f"{sum(1 for _, ok, _ in results if ok)}/{len(results)} checks passed")
    return out, lines, 0 if ok_all else 1


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


# Built once per process: argparse keeps no state between parse_args
# calls, and building the tree costs more than a small request.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        result, lines, code = args.func(args)
        print(json.dumps(result, indent=2) if args.format == "json" else "\n".join(lines))
        return code
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
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
