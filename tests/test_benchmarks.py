"""Smoke tests of benchmarks/bench_eigensolver.py,
benchmarks/output_digest.py and perfbench/run.py, so a change that
breaks one of the scripts fails here rather than when it is next run."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench_eigensolver.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_eigensolver_runs(monkeypatch, capsys):
    bench = _load(SCRIPT)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--sizes", "8,16", "--repeats", "1"])
    assert bench.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "|", "balance", "hessenberg", "qr", "|", "schur",
                                "eigensystem", "verify", "peak_MB", "|", "numpy", "eig",
                                "eig/numpy"]
    rows = [line.split() for line in lines[2:4]]
    assert [row[0] for row in rows] == ["8", "16"]
    assert all(len(row) == len(lines[0].split()) - 1 for row in rows)
    assert all(float(row[2]) > 0.0 for row in rows)  # the balance column
    assert all(float(row[9]) > 0.0 for row in rows)  # the eig_report peak
    enum = re.fullmatch(r"enumerate: (\S+) s", lines[4])
    assert enum and float(enum.group(1)) > 0.0
    pinned = re.fullmatch(r"enumerate pinned: (\S+) s", lines[5])
    assert pinned and float(pinned.group(1)) > 0.0
    dirac = re.fullmatch(r"dirac: (\S+) s", lines[6])
    assert dirac and float(dirac.group(1)) > 0.0
    for line, kind in zip(lines[7:9], ("full", "projected")):
        timed = re.fullmatch(rf"classify {kind}: (\S+) s", line)
        assert timed and float(timed.group(1)) > 0.0
    for line, label in zip(lines[9:11], ("lab-mix n=2", "eig-coupled n=8")):
        timed = re.fullmatch(rf"qr served {label}: (\S+) s", line)
        assert timed and float(timed.group(1)) > 0.0
    assert len(lines) == 12
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


def test_perfbench_untraced_lab_mix_runs():
    # The untraced run is the graded one: it alone makes cold starts and
    # reports the end-to-end metrics that BENCHMARK.json declares.
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "lab-mix",
            "--seed", "1", "--seconds", "0.5"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_output_digest_is_reproducible(tmp_path):
    # one lab-mix deck served twice, from inputs written to two places,
    # gives the same line for every request
    digest = _load(ROOT / "benchmarks" / "output_digest.py")
    runs = []
    for k in range(2):
        warm, decks = digest.workloads.build("lab-mix", 1, str(tmp_path / str(k)))
        runs.append(digest.digest_lines("lab-mix", [warm] + decks[0]))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 1 + len(decks[0])
    for index, line in enumerate(runs[0]):
        workload, i, kind, rc, sha = line.split()
        assert (workload, int(i), rc, len(sha)) == ("lab-mix", index, "0", 64)
    assert {line.split()[2] for line in runs[0]} >= {"dirac", "enumerate", "translate"}


def test_lab_mix_seed1_digest_is_unchanged(tmp_path):
    # tests/data/lab_mix_seed1.digest holds the output of
    # `benchmarks/output_digest.py --workload lab-mix --seed 1`; a change
    # to the exit code or stdout of any lab-mix request fails here
    digest = _load(ROOT / "benchmarks" / "output_digest.py")
    lines = digest.digest_lines("lab-mix", digest.requests("lab-mix", 1, str(tmp_path)))
    want = (ROOT / "tests" / "data" / "lab_mix_seed1.digest").read_text().splitlines()
    assert lines == want


def test_eig_decks_seed1_digest_is_unchanged(tmp_path):
    # tests/data/eig_decks_seed1.digest holds the lines that
    # `benchmarks/output_digest.py --seed 1` prints for the warm-up and
    # first deck of eig-coupled (n = 2, then n = 8) and eig-complexified
    # (n = 2, then n = 4); a change to the exit code or stdout of any of
    # those eig requests fails here
    digest = _load(ROOT / "benchmarks" / "output_digest.py")
    lines = []
    for workload in ("eig-coupled", "eig-complexified"):
        warm, decks = digest.workloads.build(workload, 1, str(tmp_path / workload))
        lines += digest.digest_lines(workload, [warm] + decks[0])
    want = (ROOT / "tests" / "data" / "eig_decks_seed1.digest").read_text().splitlines()
    assert lines == want
