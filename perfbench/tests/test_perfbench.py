"""Self-tests of the benchmark: oracles, generators, span arithmetic, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gen, octo, oracles, tracing, workloads  # noqa: E402
from perfbench.tracing import Tracer, self_times, summarize  # noqa: E402


def serve(req):
    """Run one request through the CLI; return its parsed JSON output."""
    from octoeig import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(req.argv) == 0
    return json.loads(buf.getvalue())


def test_reference_table_is_the_program_table():
    from octoeig.octonion import MUL_TENSOR

    assert np.array_equal(octo.MUL, MUL_TENSOR)


def test_literal_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = gen.integer_octonion(rng, imag_units=4)
        assert np.array_equal(octo.parse(octo.literal(c)), c)
    with pytest.raises(ValueError):
        octo.parse("1 e3")


def test_eig_oracle_rejects_a_perturbed_eigenvalue(tmp_path):
    rng = np.random.default_rng(11)
    for method in ("coupled", "complexified"):
        req = gen.eig_request(gen.Writer(str(tmp_path)), gen.grid_of(rng, 1, gen.dense_left), method)
        rep = serve(req)
        assert oracles.check_eig(req, rep) is None
        rep["clusters"][0]["a"] += 1e-3
        assert oracles.check_eig(req, rep) is not None


def test_eig_oracle_rejects_a_dropped_cluster(tmp_path):
    rng = np.random.default_rng(12)
    req = gen.eig_request(gen.Writer(str(tmp_path)), gen.grid_of(rng, 2, gen.dense_left), "coupled")
    rep = serve(req)
    rep["clusters"].pop()
    assert "missing" in oracles.check_eig(req, rep)


def test_hermiticity_oracle_rejects_a_flipped_label(tmp_path):
    rng = np.random.default_rng(13)
    w = gen.Writer(str(tmp_path))
    req = gen.hermiticity_request(w, rng, 2, "hermitian", "full")
    rep = serve(req)
    assert oracles.check_hermiticity(req, rep) is None
    rep["classification"] = "anti-hermitian"
    assert oracles.check_hermiticity(req, rep) is not None


def test_hermiticity_oracle_recomputes_the_witness(tmp_path):
    rng = np.random.default_rng(14)
    req = gen.hermiticity_request(gen.Writer(str(tmp_path)), rng, 2, "neither", "projected")
    rep = serve(req)
    assert oracles.check_hermiticity(req, rep) is None
    rep["witness"]["left"] = rep["witness"]["right"]
    assert oracles.check_hermiticity(req, rep) is not None


def test_enumerate_and_verify_oracles(tmp_path):
    rng = np.random.default_rng(15)
    w = gen.Writer(str(tmp_path))
    req = gen.enumerate_request(w, rng)
    rep = serve(req)
    assert oracles.check_enumerate(req, rep) is None
    rep["solutions"][0]["lambda"] = "e7" if rep["solutions"][0]["lambda"] != "e7" else "e6"
    assert oracles.check_enumerate(req, rep) is not None
    for make in (gen.verify_coupled_request, gen.verify_right_request):
        req = make(w, rng)
        rep = serve(req)
        assert oracles.check_verify(req, rep) is None
        rep["residual"] = 5e-324
        assert oracles.check_verify(req, rep) is not None


@pytest.mark.xfail(strict=True, reason="known defect: --method complexified on degenerate "
                   "i-free input reports residuals above the 1e-8 solver tolerance")
def test_complexified_on_degenerate_i_free_input(tmp_path):
    """Left out of lab-mix at n = 2 for that reason; when this passes,
    put signed-unit n = 2 input back on the complexified route there."""
    rng = np.random.default_rng(0)
    w = gen.Writer(str(tmp_path))
    for _ in range(40):
        req = gen.eig_request(w, gen.grid_of(rng, 2, gen.signed_unit), "complexified")
        assert oracles.check_eig(req, serve(req)) is None


@pytest.mark.xfail(strict=True, reason="known defect: a real cluster that also holds a "
                   "tiny complex pair reports Re(v) of complex vectors, not unit vectors")
def test_coupled_real_cluster_solutions_are_unit_vectors(tmp_path):
    grid = np.zeros((2, 2, 8, 8))
    grid[0, 0, 0, 5] = 1.0
    grid[1, 0, 0, 2] = -1.0
    req = gen.eig_request(gen.Writer(str(tmp_path)), grid, "coupled")
    for c in serve(req)["clusters"]:
        for s in c["solutions"]:
            v = np.concatenate([oracles._vec(s["xi"]).ravel(), oracles._vec(s["eta"]).ravel()])
            assert v @ v == pytest.approx(1.0)


@pytest.mark.xfail(strict=True, reason="known defect: Francis QR does not converge on "
                   "some signed-unit inputs and eig exits 1")
def test_coupled_eig_on_triangular_signed_unit_input(tmp_path):
    """[[e7, 0], [-e4, 1]]: QR stalls on rows 10..12 of the 16x16
    translation.  Left out of lab-mix at n = 2 for that reason."""
    grid = np.zeros((2, 2, 8, 8))
    grid[0, 0, 0, 7] = 1.0
    grid[1, 0, 0, 4] = -1.0
    grid[1, 1, 0, 0] = 1.0
    req = gen.eig_request(gen.Writer(str(tmp_path)), grid, "coupled")
    assert oracles.check_eig(req, serve(req)) is None


@pytest.mark.xfail(strict=True, reason="known defect: Francis QR does not converge on "
                   "some signed-unit inputs and eig exits 1")
def test_complexified_eig_on_signed_unit_input(tmp_path):
    """An n = 4 complexified signed-unit input on which QR stalls (about 1
    in 100 such inputs).  Left out of eig-complexified for that reason."""
    rng = np.random.default_rng([2, 99])
    grid, grid_im = (gen.grid_of(rng, 4, gen.signed_unit) for _ in range(2))
    req = gen.eig_request(gen.Writer(str(tmp_path)), grid, "complexified", grid_im)
    assert oracles.check_eig(req, serve(req)) is None


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    workloads.build(workload, 7, str(tmp_path / "a"))
    workloads.build(workload, 7, str(tmp_path / "b"))
    workloads.build(workload, 8, str(tmp_path / "c"))
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a != c


def test_self_times_with_overlapping_children():
    # root [0, 10]; children A [1, 4] and B [3, 6] overlap, C [8, 12]
    # runs past the root's end; A has a child [2, 3].
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["eigen.a", 1.0, 4.0, 0, 0],
        ["eigen.b", 3.0, 6.0, 0, 0],
        ["linalg.c", 8.0, 12.0, 0, 0],
        ["kernels.d", 2.0, 3.0, 1, 0],
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 2.0, 3.0, 4.0, 1.0])
    agg = summarize(spans, {})
    assert agg["eigen.self_s"] == pytest.approx(5.0)
    assert agg["cli.main.total_s"] == pytest.approx(10.0)
    assert agg["eigen.total_s"] == pytest.approx(6.0)


def test_total_counts_recursive_spans_once():
    spans = [["linalg.f", 0.0, 4.0, -1, 0], ["linalg.f", 1.0, 2.0, 0, 0]]
    agg = summarize(spans, {})
    assert agg["linalg.f.calls"] == 2
    assert agg["linalg.f.total_s"] == pytest.approx(4.0)
    assert agg["linalg.f.self_s"] == pytest.approx(4.0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_deck_exercises_every_expected_metric(tmp_path, workload):
    """One traced deck per workload: every per-layer metric its notes
    name is non-zero, and uninstalling restores the program."""
    from octoeig import cli, linalg

    original_main, original_lu = cli.main, linalg.lu_factor
    _, decks = workloads.build(workload, 5, str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original_main and linalg.lu_factor is not original_lu
        for req in decks[0]:
            serve(req)
    finally:
        tracer.uninstall()
    assert cli.main is original_main and linalg.lu_factor is original_lu
    agg = summarize(tracer.spans, tracer.counts)
    request_s = agg["cli.main.total_s"]
    m = tracing.per_layer(agg, lapack_s=1.0, traced_rps=1.0, untraced_rps=1.0,
                          traced_request_s=request_s, requests=len(decks[0]), workload=workload)
    assert m["trace.unexercised"][0] == 0
    assert m["trace.self_sum_over_request"][0] == pytest.approx(1.0, rel=1e-6)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
