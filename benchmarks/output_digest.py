#!/usr/bin/env python3
"""Digest of the CLI output for every request of the benchmark's decks.

Builds the decks of one workload, or of all, at a seed with
``perfbench.workloads.build``, serves the warm-up and every request
in-process through ``octoeig.cli.main`` (one BLAS thread, as
``perfbench/run.py`` serves them), and prints one line per request:
workload, index, kind, exit code and the SHA-256 of stdout.  Two
checkouts print the same lines exactly when every request gives the
same exit code and stdout, so a claim that a change leaves the output
byte-identical is one ``diff``:

    python3 benchmarks/output_digest.py --workload all --seed 8 > new.txt
    (cd ../parent && python3 benchmarks/output_digest.py --workload all --seed 8) > old.txt
    diff old.txt new.txt

Run from anywhere; octoeig is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from octoeig import cli  # noqa: E402
from perfbench import workloads  # noqa: E402


def requests(workload: str, seed: int, outdir: str) -> list:
    """The warm-up request, then every request of every deck, in order."""
    warm, decks = workloads.build(workload, seed, outdir)
    return [warm] + [req for deck in decks for req in deck]


def digest_lines(workload: str, reqs) -> list[str]:
    """One line per request: workload, index, kind, exit code, and the
    SHA-256 of stdout.  An exception is reported by its type in place
    of the exit code, and its traceback goes to stderr."""
    lines = []
    for index, req in enumerate(reqs):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(req.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001  (a crash is a digest line too)
            traceback.print_exc()
            rc = type(exc).__name__
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        lines.append(f"{workload} {index} {req.kind} {rc} {digest}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        with tempfile.TemporaryDirectory() as outdir:
            for line in digest_lines(name, requests(name, args.seed, outdir)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
