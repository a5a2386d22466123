"""Byte-exact CLI output on fixed inputs.

The inputs are in ``tests/data`` and the expected stdout of each case
in ``tests/data/golden/<case>.out``.  The dense inputs carry full
double-precision coefficients, so any change in arithmetic order or in
the order of random draws shows up as a difference.  An intended output
change must replace the affected ``.out`` files in the same commit.
"""

from pathlib import Path

import pytest

from octoeig.cli import main

DATA = Path(__file__).parent / "data"


def _eig(matrix, *options):
    return ["eig", str(DATA / matrix), *options]


def _enumerate(*options):
    return ["enumerate", str(DATA / "herm_2x2.json"), *options]


def _hermiticity(kind, *options):
    return ["hermiticity", str(DATA / "herm_2x2.json"), "--survey", "--kind", kind,
            *options]


def _data(command, name, *options):
    return [command, str(DATA / name), *options]


def _both_formats(cases):
    """Each text case, and the same command line with ``--format json``
    under the name ``<case>_json``."""
    out = {}
    for case, (argv, code) in cases.items():
        out[case] = (argv, code)
        out[f"{case}_json"] = (argv + ["--format", "json"], code)
    return out


# case -> (argv, exit code)
CASES = {
    "eig_upper_2x2_coupled": (
        _eig("upper_2x2.json", "--method", "coupled", "--format", "json"), 0),
    "eig_upper_2x2_complexified": (
        _eig("upper_2x2.json", "--method", "complexified", "--format", "json"), 0),
    "eig_upper_2x2_text": (_eig("upper_2x2.json"), 0),
    "eig_dense_generalized_3x3_coupled": (
        _eig("dense_generalized_3x3.json", "--method", "coupled", "--format", "json"), 0),
    "eig_dense_generalized_3x3_complexified": (
        _eig("dense_generalized_3x3.json", "--method", "complexified", "--format", "json"), 0),
    "eig_dense_complexified_2x2": (_eig("dense_complexified_2x2.json", "--format", "json"), 0),
    "eig_dense_complexified_2x2_coupled": (
        _eig("dense_complexified_2x2.json", "--method", "coupled", "--format", "json"), 2),
    "enumerate_herm_2x2": (_enumerate("--format", "json"), 0),
    "enumerate_herm_2x2_psi_a_neg_e5": (_enumerate("--psi-a=-e5"), 0),
    # psi_a^-1 rounds; lambda = -e7 is exact on four candidates
    "enumerate_e7_diag_2x2_rounding_pin": (
        _data("enumerate", "e7_diag_2x2.json",
              "--psi-a=-0.2857142857142857e4 + 0.2857142857142857e5", "--format", "json"), 0),
    "hermiticity_survey_full": (_hermiticity("full", "--format", "json"), 0),
    "hermiticity_survey_projected": (_hermiticity("projected", "--format", "json"), 0),
    "paper_suite": (["paper-suite", "--format", "json"], 0),
    "dirac": (["dirac", "--format", "json"], 0),
    "hermiticity_survey_full_text": (_hermiticity("full"), 0),
    "hermiticity_survey_projected_text": (_hermiticity("projected"), 0),
    "paper_suite_text": (["paper-suite"], 0),
    "dirac_text": (["dirac"], 0),
    **_both_formats({
        "mul_octonion": (["mul", "1 - 2e3 + 0.5e6", "e3 + 0.25e5"], 0),
        "mul_complexified": (["mul", "(1 + e1) + i(e2)", "(0.5) + i(e3 - 2e7)"], 0),
        "translate_word": (["translate", "L4 R5 R1 L6"], 0),
        "translate_matrix_real": (
            ["translate", "--matrix", str(DATA / "dense_generalized_3x3.json")], 0),
        "translate_matrix_complexified": (
            ["translate", "--matrix", str(DATA / "dense_complexified_2x2.json")], 0),
        "translate_matrix_complexified_integer": (
            ["translate", "--matrix", str(DATA / "complexified_1x1.json")], 0),
        "decompose": (_data("decompose", "decompose_8x8.json"), 0),
        "verify_coupled_ok": (_data("verify", "verify_coupled_ok.json"), 0),
        "verify_coupled_fail": (_data("verify", "verify_coupled_fail.json"), 1),
        "verify_right_ok": (_data("verify", "verify_right_ok.json"), 0),
        "verify_right_fail": (_data("verify", "verify_right_fail.json"), 1),
        "verify_right_zero_vector": (_data("verify", "verify_right_zero.json"), 0),
    }),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, capsys):
    argv, want_code = CASES[case]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == want_code
    assert out.encode("utf-8") == (DATA / "golden" / f"{case}.out").read_bytes()
