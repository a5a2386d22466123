"""Smoke tests of benchmarks/bench_eigensolver.py and perfbench/run.py,
so a change that breaks either script fails here rather than when it is
next run."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench_eigensolver.py"


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


def test_perfbench_traced_lab_mix_runs():
    # The traced run wraps every entry point that perfbench/tracing.py
    # names, so deleting or renaming one of them fails here.
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "lab-mix",
            "--seed", "1", "--seconds", "0.5", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
