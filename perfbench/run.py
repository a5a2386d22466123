#!/usr/bin/env python3
"""Layered benchmark of octoeig: one client in a closed loop.

    python3 perfbench/run.py --workload eig-coupled --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Run from the repository root.  Inputs are generated from ``--seed`` as
JSON files; every request goes in-process through
``octoeig.cli.main(argv)`` with stdout captured, and every output is
checked by an oracle in ``perfbench/oracles.py`` after the loop.  The
next request starts only after the previous one returns, and the loop
runs whole decks until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` serves each
deck untraced and traced, and prints the per-layer metrics and the
tracing overhead.

Times are host-normalized: a fixed probe task (``host_probe``) runs
between requests about once a second, and every time of a run is scaled
by ``REF_PROBE_S`` over the run's mean probe time.  On a shared host
whose speed drifts by tens of percent over seconds and minutes, this
keeps runs comparable.  A table with units and sample counts, and the
raw figures, go to stderr; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small shared host the default pool spins on the
# other CPUs, which made n = 8 requests slower and their times follow the
# neighbours' load.  Set before numpy is imported; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import oracles, tracing, workloads  # noqa: E402

SETUP_REPS = 5
# Host-speed probe: Gaussian elimination by Python loops over a numpy
# array, the same kind of work as the program's kernels.  REF_PROBE_S is
# its typical time on the machine the benchmark was tuned on (a shared
# 2-CPU VM), so normalized times read as seconds on that machine.
PROBE_N = 80
PROBE_EVERY_S = 1.0
REF_PROBE_S = 0.09
_PROBE_A = np.random.default_rng(0).standard_normal((PROBE_N, PROBE_N)) + PROBE_N * np.eye(PROBE_N)
COLD_START = (
    "import sys; sys.path.insert(0, 'src'); from octoeig.cli import main; "
    "sys.exit(main(sys.argv[1:]))"
)
# name -> unit of the --trace 0 metrics; must match BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "request_p50_s": "s",
    "cpu_per_request_s": "s",
    "peak_rss_mb": "MB",
    "verified_fraction": "fraction",
}
# Shown in the table only: the eig workloads serve 12-18 requests a run,
# too few samples beyond p90 for a bounded metric.
TABLE_ONLY = {"request_p90_s": "s"}


@dataclass
class Outcome:
    request: object
    wall_s: float
    error: str | None


def call_cli(cli, argv):
    """(exit code, stdout) of one in-process request; an exception or
    SystemExit is a failed request, never a crash of the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the loop must go on; the request counts as failed
        return None, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def host_probe() -> float:
    """Wall time of the fixed probe task: the host's current speed."""
    a = _PROBE_A.copy()
    n = PROBE_N
    t0 = time.perf_counter()
    for k in range(n):
        piv = a[k, k]
        for i in range(k + 1, n):
            f = a[i, k] / piv
            for j in range(k + 1, n):
                a[i, j] -= f * a[k, j]
    return time.perf_counter() - t0


@dataclass
class Deck:
    """Summed request wall and CPU time of one whole deck in the loop, and
    the host probe times taken around it; its requests are
    outcomes[first:first + count]."""

    first: int
    count: int
    wall_s: float
    cpu_s: float
    probes: list


def host_factor(probes) -> float:
    """Factor that scales times measured during `probes` to the reference
    host speed.  The host switches between fast and slow spells, and the
    requests take the mean slowness, so the mean probe time is used."""
    return REF_PROBE_S / statistics.fmean(probes)


def closed_loop(cli, decks, seconds: float, tracer=None):
    """Run whole decks back to back until `seconds` have passed, with a
    host probe at each deck's start and end and about once a second in
    between; verify every output afterwards.  Returns (outcomes, decks run)."""
    raw, ran = [], []
    t_start = time.perf_counter()
    d = 0
    while True:
        probes = [host_probe()]
        t_probe = time.perf_counter()
        wall = cpu = 0.0
        for req in decks[d % len(decks)]:
            if time.perf_counter() - t_probe >= PROBE_EVERY_S:
                probes.append(host_probe())
                t_probe = time.perf_counter()
            if tracer is not None:
                tracer.request += 1
            t0, c0 = time.perf_counter(), time.process_time()
            rc, out = call_cli(cli, req.argv)
            dt = time.perf_counter() - t0
            wall += dt
            cpu += time.process_time() - c0
            raw.append((req, dt, rc, out))
        probes.append(host_probe())
        n = len(decks[d % len(decks)])
        ran.append(Deck(len(raw) - n, n, wall, cpu, probes))
        d += 1
        if time.perf_counter() - t_start >= seconds:
            break
    outcomes = [
        Outcome(req, wall, out if rc is None else oracles.check(req, rc, out))
        for req, wall, rc, out in raw
    ]
    return outcomes, ran


def throughput(outcomes, ran, host: float = 1.0) -> float:
    """Verified requests per second of request time, over the whole decks
    of a run (each the same mix); request times are scaled by `host`."""
    verified = sum(o.error is None for k in ran for o in outcomes[k.first:k.first + k.count])
    return verified / (sum(k.wall_s for k in ran) * host)


def cold_start(request):
    """Host-normalized wall time of a fresh interpreter importing octoeig
    and serving `request`, and the oracle's verdict on its output."""
    before = host_probe()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_START, *request.argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - t0
    return Outcome(request, wall * host_factor([before, host_probe()]),
                   oracles.check(request, proc.returncode, proc.stdout))


def report_failures(outcomes) -> int:
    failed = [o for o in outcomes if o.error is not None]
    for o in failed[:10]:
        print(f"FAILED {o.request.kind} {' '.join(o.request.argv)}: {o.error}", file=sys.stderr)
    return len(failed)


def end_to_end(setups, loop, ran, failed, attempted) -> dict:
    """Host-normalized end-to-end metrics of one untraced run."""
    host = host_factor([p for k in ran for p in k.probes])
    times = [o.wall_s * host for o in loop]
    n = len(times)
    return {
        "setup_s": (statistics.median(o.wall_s for o in setups), len(setups)),
        "throughput_rps": (throughput(loop, ran, host), n),
        "request_p50_s": (statistics.median(times), n),
        "request_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], n),
        "cpu_per_request_s": (sum(k.cpu_s for k in ran) * host / n, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "verified_fraction": (1.0 - failed / attempted, attempted),
    }


def lapack_reference(matrices, reps: int = 3) -> float:
    """Sum over matrices of the median numpy.linalg.eig time."""
    import numpy as np

    total = 0.0
    for A in matrices:
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            np.linalg.eig(A)
            ts.append(time.perf_counter() - t0)
        total += statistics.median(ts)
    return total


def _extend(outcomes, ran, more, more_ran) -> None:
    """Append one loop's outcomes and decks to another's."""
    ran += [Deck(k.first + len(outcomes), k.count, k.wall_s, k.cpu_s, k.probes) for k in more_ran]
    outcomes += more


def traced_run(cli, workload, decks, seconds, seed):
    """Each deck served untraced and traced, in alternating order, for
    `seconds` of each, so that slow drift of the host's speed cancels out
    of trace.overhead.  Returns every outcome and the per-layer metrics of
    the traced decks."""
    tracer = tracing.Tracer()
    plain, plain_ran, traced, traced_ran = [], [], [], []
    t_start = time.perf_counter()
    d = 0
    while True:
        deck = [decks[d % len(decks)]]
        for with_trace in ((False, True) if d % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    outs, ran = closed_loop(cli, deck, 0.0, tracer)
                finally:
                    tracer.uninstall()
                _extend(traced, traced_ran, outs, ran)
            else:
                _extend(plain, plain_ran, *closed_loop(cli, deck, 0.0))
        d += 1
        if time.perf_counter() - t_start >= 2 * seconds:
            break
    agg = tracing.summarize(tracer.spans, tracer.counts)
    metrics = tracing.per_layer(
        agg,
        lapack_s=lapack_reference(tracer.schur_inputs),
        traced_rps=throughput(traced, traced_ran),
        untraced_rps=throughput(plain, plain_ran),
        traced_request_s=sum(o.wall_s for o in traced),
        requests=len(traced),
        workload=workload,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{workload}-s{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request"],
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return plain + traced, {k: (v, u, len(traced)) for k, (v, u) in metrics.items()}


def print_table(metrics: dict) -> None:
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit:10s} n={count}", file=sys.stderr)


def run_workload(args) -> int:
    if not (SRC / "octoeig" / "__init__.py").is_file():
        print(f"perfbench: no octoeig sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inputs = OUT / f"inputs-{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        warm, decks = workloads.build(args.workload, args.seed, str(inputs))
        setups = [] if args.trace else [cold_start(warm) for _ in range(SETUP_REPS)]
        import octoeig.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: imported octoeig from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        rc, out = call_cli(cli, warm.argv)
        warmup = [Outcome(warm, time.perf_counter() - t0,
                          out if rc is None else oracles.check(warm, rc, out))]
        if args.trace:
            loop, table = traced_run(cli, args.workload, decks, args.seconds, args.seed)
        else:
            loop, ran = closed_loop(cli, decks, args.seconds)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    outcomes = setups + warmup + loop
    failed = report_failures(outcomes)
    if not args.trace:
        units = {**END_TO_END, **TABLE_ONLY}
        table = {k: (v, units[k], n) for k, (v, n) in
                 end_to_end(setups, loop, ran, failed, len(outcomes)).items()}
        probes = [p for k in ran for p in k.probes]
        host = host_factor(probes)
        by_kind = {}
        for o in loop:
            by_kind.setdefault(o.request.kind, []).append(o.wall_s * host)
        print("normalized request time by kind (s): " + ", ".join(
            f"{kind} {statistics.median(ts):.4g} n={len(ts)}" for kind, ts in sorted(by_kind.items())),
            file=sys.stderr)
        print(f"host factor {host:.4f} from {len(probes)} probes (mean "
              f"{statistics.fmean(probes):.4g} s, median {statistics.median(probes):.4g} s); "
              f"raw throughput_rps {throughput(loop, ran):.6g}", file=sys.stderr)
        print("probe times (s): " + " ".join(f"{p:.4f}" for p in probes), file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(outcomes)} requests, "
          f"{failed} failed (failed_fraction {failed / len(outcomes):.4g})", file=sys.stderr)
    print_table(table)
    reported = table if args.trace else {k: table[k] for k in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined table."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
