"""Smoke test of benchmarks/bench_eigensolver.py, so a kernel change
that breaks the script fails here rather than when it is next run."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_eigensolver.py"


def test_bench_eigensolver_runs(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_eigensolver", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--sizes", "8,16", "--repeats", "1"])
    assert bench.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "|", "hessenberg", "qr", "|", "schur",
                                "eigensystem", "verify", "|", "numpy", "eig", "eig/numpy"]
    assert [line.split()[0] for line in lines[2:4]] == ["8", "16"]
    residual = re.fullmatch(r"worst relative Schur residual: (\S+)", lines[-1])
    assert residual and float(residual.group(1)) <= 1e-12
