"""The benchmark's workloads as decks of requests.

A deck is a fixed mix of requests on fresh inputs; the closed loop runs
whole decks, so every run measures the same mix whatever its length.
Each workload also has one warm-up request, run before timing and in
the set-up probes: a small request down the same code path, so that
set-up shows import-time and first-call work without spending the
run's time on an n = 8 solve.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import gen

# Decks generated per run; a run that needs more cycles through them.
DECKS = {"eig-coupled": 10, "eig-complexified": 10, "lab-mix": 6}


def _eig_coupled(rng, w):
    """n = 8 coupled solves, alternating sparse signed-unit entries
    (degenerate clusters) with dense generalized entries (simple spectra)."""
    def deck():
        return [
            gen.eig_request(w, gen.grid_of(rng, 8, gen.signed_unit), "coupled", tag="-unit"),
            gen.eig_request(w, gen.grid_of(rng, 8, gen.dense_generalized), "coupled", tag="-dense"),
        ]

    warm = gen.eig_request(w, gen.grid_of(rng, 2, gen.dense_generalized), "coupled", tag="-dense")
    return warm, [deck() for _ in range(DECKS["eig-coupled"])]


def _eig_complexified(rng, w):
    """n = 4 genuinely complexified solves (entries_im non-zero): dense
    left-multiplication entries in both the real and i parts.

    Signed-unit entries are left out: on some of them Francis QR does not
    converge (a known defect, pinned by a strict xfail in perfbench/tests)."""
    def req(n=4):
        return gen.eig_request(w, gen.grid_of(rng, n, gen.dense_left), "complexified",
                               gen.grid_of(rng, n, gen.dense_left), tag="-dense")

    def deck():
        return [req(), req()]

    warm = req(n=2)
    return warm, [deck() for _ in range(DECKS["eig-complexified"])]


def _lab_deck(rng, w):
    """50 small exact requests; hermiticity takes a little over half the time.

    The counts place each reported percentile inside one group of like
    requests rather than between groups: the seven worst cases at n >= 3
    (14%, several times slower than anything else) hold p90, and the 24
    enumerations (about 0.1 s, like the n = 2 worst case) hold p50."""
    reqs = []
    # worst cases scan all (8n)^2 pairs
    for k, n in enumerate((2, 3, 3, 3, 3, 3, 3, 4)):
        label = ("hermitian", "anti-hermitian")[int(rng.integers(0, 2))]
        reqs.append(gen.hermiticity_request(w, rng, n, label, ("full", "projected")[k % 2]))
    for k, n in enumerate((2, 3, 4)):
        reqs.append(gen.hermiticity_request(w, rng, n, "neither", ("full", "projected")[k % 2]))
    reqs += [gen.enumerate_request(w, rng) for _ in range(24)]
    reqs += [gen.verify_coupled_request(w, rng), gen.verify_right_request(w, rng)]
    # i-free input through --method complexified, as in the solver-equivalence
    # check.  Signed-unit input is served only at n = 1 (16 possible
    # matrices, all solved correctly): at n = 2 it hits two known defects,
    # Francis QR not converging (coupled) and residuals above the solver
    # tolerance (complexified), both pinned by strict xfails in perfbench/tests.
    eig_mix = [(1, gen.dense_left, "coupled"), (1, gen.signed_unit, "coupled")]
    eig_mix += [(2, gen.dense_left, "coupled")] * 2
    eig_mix += [(1, gen.dense_left, "complexified"), (1, gen.signed_unit, "complexified")]
    eig_mix += [(2, gen.dense_left, "complexified")] * 2
    for n, family, method in eig_mix:
        reqs.append(gen.eig_request(w, gen.grid_of(rng, n, family), method))
    for complexified in (False, True):
        grid = gen.grid_of(rng, 2, gen.signed_unit)
        grid_im = gen.grid_of(rng, 2, gen.signed_unit) if complexified else None
        reqs.append(gen.translate_request(w, grid, grid_im))
    reqs += [gen.mul_request(rng) for _ in range(2)]
    reqs.append(gen.dirac_request())
    return [reqs[i] for i in rng.permutation(len(reqs))]


def _lab_mix(rng, w):
    warm = gen.hermiticity_request(w, rng, 2, "hermitian", "full")
    return warm, [_lab_deck(rng, w) for _ in range(DECKS["lab-mix"])]


WORKLOADS = {
    "eig-coupled": _eig_coupled,
    "eig-complexified": _eig_complexified,
    "lab-mix": _lab_mix,
}


def build(workload: str, seed: int, outdir: str):
    """(warm-up request, decks) for one workload and seed; inputs are
    written under `outdir`."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return WORKLOADS[workload](rng, gen.Writer(outdir))
