"""CLI surface: commands, formats, determinism, exit codes, stdin."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoeig import cli
from octoeig import dirac as dirac_mod
from octoeig.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MATRIX_2X2 = {"n": 2, "entries": ["1", "e4", "0", "e5"]}


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MATRIX_2X2))
    return str(path)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestRemovedOptions:
    """--seed and --full-precision are not options of any subcommand."""

    @staticmethod
    def _argv(command, tmp_path):
        if command == "mul":
            return ["mul", "e1", "e2"]
        if command == "translate":
            return ["translate", "L1 R2"]
        if command == "decompose":
            return ["decompose", write_json(tmp_path, "d.json", np.eye(8).tolist())]
        if command == "verify":
            claim = {"matrix": MATRIX_2X2, "right": {"psi": ["0", "0"], "lambda": "1"}}
            return ["verify", write_json(tmp_path, "v.json", claim)]
        if command in ("dirac", "paper-suite"):
            return [command]
        return [command, write_json(tmp_path, "m.json", MATRIX_2X2)]

    @pytest.mark.parametrize("option", [["--seed", "1"], ["--full-precision"]])
    @pytest.mark.parametrize(
        "command",
        ["mul", "translate", "decompose", "eig", "verify", "enumerate",
         "hermiticity", "dirac", "paper-suite"],
    )
    def test_rejected(self, capsys, tmp_path, command, option):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(command, tmp_path) + option)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


HUGE = 10**400  # beyond float64


class TestHugeJsonIntegers:
    """An integer float64 cannot hold is bad input, not an OverflowError."""

    @pytest.mark.parametrize(
        "argv,obj",
        [
            (["eig"], {"n": 1, "entries": [HUGE]}),
            (["translate", "--matrix"], {"n": 1, "entries": [HUGE]}),
            (["hermiticity"], {"n": 1, "entries": [HUGE]}),
            (["enumerate"], {"n": 2, "entries": [HUGE, 0, 0, 1]}),
            (["decompose"], [[HUGE] + [0] * 7] + [[0] * 8] * 7),
            (["verify"], {"matrix": {"n": 1, "entries": ["1"]},
                          "coupled": {"a": HUGE, "b": 0, "xi": ["1"], "eta": ["0"]}}),
        ],
        ids=["eig", "translate", "hermiticity", "enumerate", "decompose", "verify"],
    )
    def test_exit_2(self, capsys, tmp_path, argv, obj):
        code, out, err = run_cli(capsys, *argv, write_json(tmp_path, "in.json", obj))
        assert code == 2
        assert out == ""
        assert err == "octoeig: bad input: a 401-character JSON integer exceeds the float64 range\n"


class TestJsonBooleans:
    """true and false are not the numbers 1 and 0, wherever a number goes."""

    @pytest.mark.parametrize(
        "argv,obj,message",
        [
            (["eig"], {"n": 1, "entries": [True]},
             "got bool (at $.entries[0])"),
            (["translate", "--matrix"],
             {"n": 1, "entries": [[[True] + [0] * 7] + ["0"] * 7]},
             "coefficient array must hold 8 numbers (at $.entries[0][0])"),
            (["verify"], {"matrix": {"n": 1, "entries": ["1"]},
                          "coupled": {"a": True, "b": False, "xi": ["1"], "eta": ["0"]}},
             "'a' in the coupled claim must not be a boolean"),
            (["decompose"], [[True] + [0] * 7] + [[0] * 8] * 7,
             "the matrix must hold numbers, not booleans"),
        ],
        ids=["eig-entry", "translate-coefficients", "verify-scalar", "decompose"],
    )
    def test_exit_2(self, capsys, tmp_path, argv, obj, message):
        code, out, err = run_cli(capsys, *argv, write_json(tmp_path, "in.json", obj))
        assert code == 2
        assert out == ""
        assert message in err


class TestJsonNonNumbers:
    """Strings, null and arrays are refused where a number goes, with a
    message that names the key."""

    MATRIX = {"n": 1, "entries": ["1"]}

    @pytest.mark.parametrize(
        "argv,obj,message",
        [
            (["verify"], {"matrix": MATRIX,
                          "coupled": {"a": "1", "b": 0, "xi": ["1"], "eta": ["0"]}},
             "'a' in the coupled claim must be a number"),
            (["verify"], {"matrix": MATRIX,
                          "coupled": {"a": None, "b": 0, "xi": ["1"], "eta": ["0"]}},
             "'a' in the coupled claim must be a number"),
            (["verify"], {"matrix": MATRIX,
                          "coupled": {"a": 1, "b": [1], "xi": ["1"], "eta": ["0"]}},
             "'b' in the coupled claim must be a number"),
            (["verify"], {"matrix": MATRIX, "right": {"psi": ["1"], "lambda": 1}},
             "'lambda' in the right claim must be an octonion literal"),
            (["decompose"], [["1"] + ["0"] * 7] + [["0"] * 8] * 7,
             "the matrix must hold numbers, not strings"),
            (["decompose"], [[None] + [0] * 7] + [[0] * 8] * 7,
             "the matrix must hold numbers, not null"),
            (["decompose"], [[[1]] + [0] * 7] + [[0] * 8] * 7,
             "the matrix must hold numbers, not arrays"),
            (["decompose"], [[0] * 8] * 7 + [[0] * 7],
             "expected an 8x8 matrix, got shape (8,)"),
        ],
        ids=["verify-string", "verify-null", "verify-array", "verify-lambda-number",
             "decompose-strings", "decompose-null", "decompose-nested", "decompose-ragged"],
    )
    def test_exit_2(self, capsys, tmp_path, argv, obj, message):
        code, out, err = run_cli(capsys, *argv, write_json(tmp_path, "in.json", obj))
        assert code == 2
        assert out == ""
        assert err == f"octoeig: bad input: {message}\n"


class TestSharedParser:
    """main parses with one parser built at import; interleaved calls
    print what a freshly built parser prints."""

    @staticmethod
    def _calls():
        herm = str(DATA / "herm_2x2.json")
        bad = str(DATA / "missing.json")
        return [
            ["hermiticity", herm, "--survey"],
            ["hermiticity", herm],
            ["enumerate", herm, "--psi-a", "e2"],
            ["enumerate", herm],
            ["eig", bad],
            ["mul", "e1", "e2"],
            ["mul", "e1"],
            ["eig", herm, "--format", "json"],
            ["--help"],
            ["--help"],
        ]

    @staticmethod
    def _run(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_no_state_between_calls(self, capsys, monkeypatch):
        shared = cli._PARSER
        got = [self._run(capsys, argv) for argv in self._calls()]
        assert cli._PARSER is shared
        want = []
        for argv in self._calls():
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            want.append(self._run(capsys, argv))
        assert got == want
        codes = [code for code, _, _ in got]
        assert codes == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0]
        assert "unit_survey" not in got[1][1] and "e7:" in got[0][1]
        assert got[2][1] != got[3][1]


# arbitrary JSON, biased towards the shapes, keys and literals the inputs use
NUMBERS = st.floats() | st.integers(-3, 3) | st.integers(-(10**400), 10**400)
LITERALS = st.sampled_from(["0", "1", "e4", "-e1 + 2e7", "1e", "i"]) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | LITERALS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "entries", "matrix", "coupled", "right", "a", "psi"])
        | st.text(max_size=4),
        inner,
        max_size=4,
    ),
    max_leaves=20,
)
ENTRIES = (
    NUMBERS
    | LITERALS
    | st.lists(st.lists(NUMBERS, min_size=8, max_size=8) | LITERALS | JSON_VALUES,
               min_size=8, max_size=8)
    | JSON_VALUES
)


def json_matrices(n):
    grid = st.lists(ENTRIES, min_size=n * n, max_size=n * n)
    return st.fixed_dictionaries(
        {"n": st.just(n), "entries": grid},
        optional={"entries_im": grid, "complexified": st.booleans() | JSON_VALUES},
    )


def json_claims(n):
    vectors = st.lists(LITERALS, min_size=n, max_size=n) | JSON_VALUES
    scalars = NUMBERS | LITERALS | JSON_VALUES
    return st.fixed_dictionaries(
        {}, optional={"a": scalars, "b": scalars, "xi": vectors, "eta": vectors,
                      "psi": vectors, "lambda": scalars},
    )


JSON_DOCUMENTS = st.integers(1, 2).flatmap(
    lambda n: JSON_VALUES
    | json_matrices(n)
    | st.fixed_dictionaries(
        {"matrix": json_matrices(n)},
        optional={"coupled": json_claims(n) | JSON_VALUES,
                  "right": json_claims(n) | JSON_VALUES},
    )
)


class TestArbitraryJson:
    @settings(max_examples=200, deadline=None)
    @given(JSON_DOCUMENTS)
    def test_never_raises(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp), "doc.json", doc)
            for argv in (["translate", "--matrix", path], ["verify", path]):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert main(argv) in (0, 1, 2)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,doc,message",
        [
            (["translate"], None, "translate: give an operator word or --matrix FILE"),
            (["verify"], {"n": 1, "entries": ["1"]},
             "verify: input must be {'matrix': ..., 'coupled'|'right': ...}"),
            (["verify"], {"matrix": {"n": 1, "entries": ["1"]}},
             "verify: need a 'coupled' or 'right' claim"),
        ],
        ids=["translate-no-input", "verify-no-matrix", "verify-no-claim"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_message_on_stderr_exit_2(self, capsys, tmp_path, argv, doc, message, fmt):
        if doc is not None:
            argv = argv + [write_json(tmp_path, "in.json", doc)]
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == message + "\n"


class TestMul:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "e1", "e2")
        assert code == 0 and out.strip() == "e3"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "--format", "json", "1 - 2e3", "e3")
        assert code == 0
        assert json.loads(out) == {"product": "2 + e3"}

    def test_complexified(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "(0) + i(1)", "(0) + i(1)")
        assert code == 0 and out.strip() == "(-1) + i(0)"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mul", "e9", "e1")
        assert code == 2
        assert "parse error" in err


class TestTranslate:
    def test_word_l2(self, capsys):
        code, out, _ = run_cli(capsys, "translate", "L2")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        got = [[int(x) for x in row] for row in rows]
        assert got == [
            [0, 0, -1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
        ]

    def test_matrix_file(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "translate", "--matrix", matrix_file, "--format", "json"
        )
        assert code == 0
        mat = json.loads(out)["matrix"]
        assert len(mat) == 16 and len(mat[0]) == 16

    def test_bad_word(self, capsys):
        code, _, err = run_cli(capsys, "translate", "L9")
        assert code == 2

    def test_bad_word_position(self, capsys):
        # the position is that of the bad token, not of the "L" in "L1"
        code, out, err = run_cli(capsys, "translate", "L1 L")
        assert (code, out) == (2, "")
        assert err == "octoeig: parse error: bad operator factor 'L' (at position 3)\n"

    def test_word_and_matrix_exit_2(self, capsys, matrix_file):
        # the word used to be dropped without a message
        code, out, err = run_cli(capsys, "translate", "L2", "--matrix", matrix_file)
        assert code == 2
        assert out == ""
        assert err == "translate: give an operator word or --matrix FILE, not both\n"

    def test_overflowing_entry_exit_2(self, capsys, tmp_path):
        # L(1e308 e1) + R1 L(1e308) sends 1 to 2e308 e1: bad input, where
        # the translation used to hold inf and the text format crashed
        entry = [[0.0, 1e308] + [0.0] * 6, [1e308] + [0.0] * 7] + [[0.0] * 8] * 6
        path = write_json(tmp_path, "big.json", {"n": 1, "entries": [entry]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "translate", "--matrix", path)
        assert code == 2
        assert out == ""
        assert err == "octoeig: bad input: octonion coefficients must be finite\n"


class TestDecompose:
    def test_identity(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        eye = [[1.0 if i == j else 0.0 for j in range(8)] for i in range(8)]
        path.write_text(json.dumps(eye))
        code, out, _ = run_cli(capsys, "decompose", str(path), "--format", "json")
        assert code == 0
        parts = json.loads(out)["parts"]
        assert parts[0] == "1"
        assert all(p == "0" for p in parts[1:])


class TestEig:
    def test_json_report(self, capsys, matrix_file):
        code, out, _ = run_cli(capsys, "eig", matrix_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["matrix"]["n"] == 2
        key = sorted(
            (round(c["a"], 9), round(c["b"], 9), c["multiplicity"])
            for c in report["clusters"]
        )
        assert key == [(0.0, 1.0, 4), (1.0, 0.0, 8)]
        for c in report["clusters"]:
            for s in c["solutions"]:
                assert len(s["xi"]) == 2 and len(s["eta"]) == 2
                assert s["residual"] <= 1e-8

    def test_deterministic_output(self, capsys, matrix_file):
        _, out1, _ = run_cli(capsys, "eig", matrix_file, "--format", "json")
        _, out2, _ = run_cli(capsys, "eig", matrix_file, "--format", "json")
        assert out1 == out2

    def test_complexified_method_agrees(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "eig", matrix_file, "--format", "json", "--method", "complexified"
        )
        assert code == 0
        report = json.loads(out)
        key = sorted(
            (round(c["a"], 9), round(c["b"], 9), c["multiplicity"])
            for c in report["clusters"]
        )
        assert key == [(0.0, 1.0, 4), (1.0, 0.0, 8)]

    def test_stdin(self, matrix_file):
        out = subprocess.run(
            [sys.executable, "-m", "octoeig.cli", "eig", "-", "--format", "json"],
            input=json.dumps(MATRIX_2X2),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["matrix"]["n"] == 2

    @pytest.mark.parametrize("method", ["coupled", "complexified"])
    def test_overflowing_norm_exit_2(self, capsys, tmp_path, method):
        # the Frobenius norm of L(1e300) overflows float64: refused as bad
        # input, not reported as an empty list of clusters
        path = tmp_path / "big.json"
        entry = [[1e300] + [0.0] * 7] + [[0.0] * 8] * 7
        path.write_text(json.dumps({"n": 1, "entries": [entry]}))
        code, out, err = run_cli(capsys, "eig", str(path), "--method", method)
        assert code == 2
        assert out == ""
        assert "octoeig: bad input" in err and "overflows" in err

    @pytest.mark.parametrize("method", ["coupled", "complexified"])
    def test_balancing_overflow_exit_2(self, capsys, tmp_path, method):
        # balancing overflows on this translation: bad input, where it
        # used to end in a QR failure (exit 1) and RuntimeWarnings
        path = write_json(tmp_path, "wide.json", {"n": 2, "entries": [3e153, 1e-160, 1e150, 1]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "eig", path, "--method", method)
        assert code == 2
        assert out == ""
        assert err == "octoeig: bad input: balancing overflowed: the entries span too wide a range\n"


class TestVerify:
    def test_coupled_ok(self, capsys, tmp_path):
        payload = {
            "matrix": {"n": 1, "entries": ["e4"]},
            "coupled": {"a": 0.0, "b": -1.0, "xi": ["e7"], "eta": ["e3"]},
        }
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "verify", str(path), "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] and rep["residual"] == 0.0

    def test_right_ok(self, capsys, tmp_path):
        payload = {
            "matrix": {"n": 2, "entries": ["1", "e4", "-e4", "1"]},
            "right": {"psi": ["e5", "e7"], "lambda": "1 - e6"},
        }
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert "OK" in out

    def test_failing_claim_exit_1(self, capsys, tmp_path):
        payload = {
            "matrix": {"n": 2, "entries": ["1", "e4", "-e4", "1"]},
            "right": {"psi": ["e5", "e7"], "lambda": "1 + e6"},
        }
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_bad_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "/nonexistent/x.json")
        assert code == 2

    @pytest.mark.parametrize("claim", [
        {"coupled": {"a": 0, "b": 1, "xi": ["e7"], "eta": ["e3"]}},
        {"right": {"psi": ["e5"], "lambda": "1"}},
    ], ids=["coupled", "right"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_complexified_matrix_exit_2(self, capsys, tmp_path, claim, fmt):
        matrix = {"n": 1, "entries": ["0"], "complexified": True, "entries_im": ["e4"]}
        path = write_json(tmp_path, "claim.json", {"matrix": matrix, **claim})
        code, out, err = run_cli(capsys, "verify", path, "--format", fmt)
        assert (code, out) == (2, "")
        message = "complexified operator matrix acts on complexified vectors"
        assert err == f"octoeig: bad input: {message}\n"


    @pytest.mark.parametrize(
        "claim,message",
        [
            ({"coupled": {"a": 0, "b": 1, "xi": "1", "eta": ["0"]}},
             "'xi' in the coupled claim must be an array of n = 1 octonion literals"),
            ({"coupled": {"a": 0, "b": 1, "xi": ["1"], "eta": ["0", "0"]}},
             "'eta' in the coupled claim must be an array of n = 1 octonion literals"),
            ({"coupled": {"a": 0, "b": 1, "xi": [1], "eta": ["0"]}},
             "'xi' in the coupled claim must be an array of n = 1 octonion literals"),
            ({"right": {"psi": "e1", "lambda": "1"}},
             "'psi' in the right claim must be an array of n = 1 octonion literals"),
            ({"coupled": {"b": 1, "xi": ["1"], "eta": ["0"]}},
             "missing key 'a' in the coupled claim"),
            ({"coupled": {"a": 0, "xi": ["1"], "eta": ["0"]}},
             "missing key 'b' in the coupled claim"),
            ({"right": {"psi": ["e1"]}}, "missing key 'lambda' in the right claim"),
            ({"right": ["e1"]}, "the right claim must be a JSON object"),
        ],
        ids=["xi-string", "eta-length", "xi-number", "psi-string", "missing-a",
             "missing-b", "missing-lambda", "right-not-object"],
    )
    def test_malformed_claim_exit_2(self, capsys, tmp_path, claim, message):
        path = tmp_path / "claim.json"
        path.write_text(json.dumps({"matrix": {"n": 1, "entries": ["e1"]}, **claim}))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == f"octoeig: bad input: {message}\n"

    @pytest.mark.parametrize(
        "claim",
        [
            {"coupled": {"a": 0, "b": 1, "xi": [str(10**200)], "eta": ["0"]}},
            {"right": {"psi": [str(10**200)], "lambda": "1"}},
        ],
        ids=["coupled", "right"],
    )
    def test_overflow_exit_2_without_warning(self, capsys, tmp_path, claim):
        # 1e200 * 1e200 overflows: refused as bad input, never residual inf
        path = tmp_path / "claim.json"
        matrix = {"n": 1, "entries": [str(10**200)]}
        path.write_text(json.dumps({"matrix": matrix, **claim}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == "octoeig: bad input: octonion coefficients must be finite\n"

    @pytest.mark.parametrize(
        "claim",
        [
            {"coupled": {"a": 0, "b": 0, "xi": [str(10**155)], "eta": ["0"]}},
            {"right": {"psi": [str(10**155)], "lambda": "0"}},
        ],
        ids=["coupled", "right"],
    )
    def test_huge_finite_residual_is_reported(self, capsys, tmp_path, claim):
        # the residual 1e155 is finite; its square is not
        path = tmp_path / "claim.json"
        path.write_text(json.dumps({"matrix": {"n": 1, "entries": ["1"]}, **claim}))
        code, out, _ = run_cli(capsys, "verify", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out)["residual"] == 1e155


class TestEnumerate:
    def test_pinned_psi_a(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "entries": ["1", "e1", "-e1", "1"]}))
        code, out, _ = run_cli(
            capsys, "enumerate", str(path), "--psi-a", "e2", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["count"] == 10
        lambdas = sorted(s["lambda"] for s in rep["solutions"])
        assert lambdas == sorted(
            ["0", "2", "1 - e7", "1 + e7", "1 + e6", "1 - e6",
             "1 - e5", "1 + e5", "1 + e4", "1 - e4"]
        )

    @pytest.mark.parametrize(
        "entries,psi_a,count",
        [
            (["1", "e1", "-e1", "1"], "0." + "0" * 169 + "1", 0),
            (["1", "0", "0", "1"], format(2.0**-600, ".700f").rstrip("0"), 16),
        ],
        ids=["1e-170", "2^-600"],
    )
    def test_tiny_psi_a(self, capsys, tmp_path, entries, psi_a, count):
        # psi_a's squared norm underflows; its inverse must not
        matrix = {"n": 2, "entries": entries}
        path = write_json(tmp_path, "m.json", matrix)
        code, out, _ = run_cli(capsys, "enumerate", path, "--psi-a", psi_a,
                               "--format", "json")
        assert code == 0
        solutions = json.loads(out)["solutions"]
        for claim in solutions:
            claim_path = write_json(tmp_path, "c.json", {"matrix": matrix, "right": claim})
            assert run_cli(capsys, "verify", claim_path)[0] == 0
        assert len(solutions) == count

    def test_rounding_pin_claims_verify(self, capsys, tmp_path):
        # psi_a^-1 rounds, yet lambda = -e7 solves four candidates exactly
        matrix = {"n": 2, "entries": ["e7", "0", "0", "-e7"]}
        path = write_json(tmp_path, "m.json", matrix)
        pin = "-0.2857142857142857e4 + 0.2857142857142857e5"
        code, out, _ = run_cli(capsys, "enumerate", path, f"--psi-a={pin}", "--format", "json")
        assert code == 0
        solutions = json.loads(out)["solutions"]
        assert [(s["psi"][1], s["lambda"]) for s in solutions] == [
            ("1", "-e7"), ("-1", "-e7"), ("e7", "-e7"), ("-e7", "-e7")
        ]
        for claim in solutions:
            claim_path = write_json(tmp_path, "c.json", {"matrix": matrix, "right": claim})
            code, out, _ = run_cli(capsys, "verify", claim_path)
            assert code == 0
            assert out.endswith("-> OK\n")

    def test_overflowing_lambda_exit_2(self, capsys, tmp_path):
        # lambda = psi_b^-1 (M Psi)_1 = 1e10, and psi_a lambda = 1e310
        # overflows; the scan refuses it, it does not drop the claim and
        # report none
        path = write_json(tmp_path, "m.json", {"n": 2, "entries": [0, 0, 0, 1e10]})
        code, out, err = run_cli(capsys, "enumerate", path, "--psi-a", "1" + "0" * 300)
        assert code == 2
        assert out == ""
        assert err.endswith("octoeig: bad input: octonion coefficients must be finite\n")

    @pytest.mark.parametrize("pin", [[], ["--psi-a", "e3"]], ids=["unpinned", "e3"])
    def test_later_candidate_overflow_exit_2(self, capsys, tmp_path, pin):
        # (M Psi)_0 = 1e308 e1 psi_a + 1e308 psi_b overflows only where
        # psi_b = e1 psi_a: with psi_a = e3 that is the 6th of the 16
        # candidates, so only a check of every candidate refuses it
        def left(c):
            return [c] + [[0] * 8] * 7

        e1 = [0, 1e308, 0, 0, 0, 0, 0, 0]
        scalars = [[x, 0, 0, 0, 0, 0, 0, 0] for x in (1e308, 1, 1)]
        path = write_json(tmp_path, "m.json",
                          {"n": 2, "entries": [left(e1)] + [left(c) for c in scalars]})
        code, out, err = run_cli(capsys, "enumerate", path, *pin)
        assert code == 2
        assert out == ""
        assert err.endswith("octoeig: bad input: octonion coefficients must be finite\n")

    def test_empty_psi_a_exit_2(self, capsys, matrix_file):
        # an empty literal is a parse error, as " " is; it used to run
        # the unpinned scan
        code, out, err = run_cli(capsys, "enumerate", matrix_file, "--psi-a", "")
        assert code == 2
        assert out == ""
        assert err == "octoeig: parse error: empty octonion literal (at position 0)\n"

    def test_zero_psi_a_exit_2(self, capsys, tmp_path):
        # bad input (exit 2), not a ZeroDivisionError traceback (exit 1)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "entries": ["1", "e1", "-e1", "1"]}))
        code, out, err = run_cli(capsys, "enumerate", str(path), "--psi-a", "0")
        assert code == 2
        assert out == ""
        assert "octoeig: bad input: psi_a must be non-zero" in err


class TestHermiticity:
    def test_projected_e1(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 1, "entries": ["e1"]}))
        code, out, _ = run_cli(
            capsys, "hermiticity", str(path), "--kind", "projected",
            "--format", "json",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["classification"] == "anti-hermitian"

    def test_full_with_witness_and_survey(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "entries": ["1", "e4", "-e4", "1"]}))
        code, out, _ = run_cli(
            capsys, "hermiticity", str(path), "--survey", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["classification"] == "neither"
        assert "witness" in rep
        assert rep["unit_survey"]["e1"] == "neither"  # full product

    @pytest.mark.parametrize("entry, projected, full", [
        (1.7e308, "hermitian", "hermitian"),
        ([[0, 1.7e308, 0, 0, 0, 0, 0, 0]] + [[0] * 8] * 7, "anti-hermitian", "neither"),
    ], ids=["scalar", "left-e1"])
    def test_projected_beyond_twice_the_entry(self, capsys, tmp_path, entry, projected, full):
        # the projection keeps coefficients 0 and 1 as they are; computing
        # it as (o - e1 (o e1)) / 2 overflowed at 2 * 1.7e308
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 1, "entries": [entry]}))
        for kind, want in (("projected", projected), ("full", full)):
            code, out, _ = run_cli(capsys, "hermiticity", str(path), "--kind", kind,
                                   "--format", "json")
            assert code == 0
            assert json.loads(out)["classification"] == want


class TestDiracAndSuite:
    def test_dirac(self, capsys):
        code, out, _ = run_cli(capsys, "dirac")
        assert code == 0
        assert out.count("PASS") == 4

    @staticmethod
    def _dirac_momenta(monkeypatch):
        """Record the momenta dirac draws for its dispersion checks, and
        the representation each check is handed."""
        drawn, reps = [], []
        check = dirac_mod.dispersion_check

        def spy(rep=None, *, p, m):
            drawn.append(p.copy())
            reps.append(rep)
            return check(rep, p=p, m=m)

        monkeypatch.setattr(dirac_mod, "dispersion_check", spy)
        return drawn, reps

    def test_momenta_from_seed_1729(self, monkeypatch, capsys):
        drawn, _ = self._dirac_momenta(monkeypatch)
        code, _, _ = run_cli(capsys, "dirac")
        assert code == 0
        assert len(drawn) == 100
        assert np.array_equal(drawn[0], np.random.default_rng(1729).uniform(-2.0, 2.0, 3))

    def test_representation_built_once(self, monkeypatch, capsys):
        _, reps = self._dirac_momenta(monkeypatch)
        code, _, _ = run_cli(capsys, "dirac")
        assert code == 0
        assert len(reps) == 100
        assert isinstance(reps[0], dirac_mod.DiracRep)
        assert all(rep is reps[0] for rep in reps)

    def test_seed_env_is_not_read(self, monkeypatch, capsys):
        monkeypatch.setenv("OCTOEIG_SEED", "abc")
        code, out, _ = run_cli(capsys, "dirac", "--format", "json")
        assert code == 0
        assert out == (DATA / "golden" / "dirac.out").read_text(encoding="utf-8")

    def test_paper_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "paper-suite")
        assert code == 0
        assert "FAIL" not in out

    def test_paper_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "paper-suite", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] and all(c["ok"] for c in rep["checks"])
