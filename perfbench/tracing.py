"""Spans and counters around octoeig's public entry points.

The benchmark installs these wrappers from its own code; ``src/`` is not
touched.  A wrapped function is replaced at every import site: every
``octoeig`` module attribute that is the original object is rebound,
so ``from .kernels import lu_factor`` in ``linalg`` is traced as well
as ``kernels.lu_factor`` itself.  Spans are (name, start, end, parent,
request) records kept in memory; a layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Functions and methods that get a span, by module.  Hot helpers get a
# counter instead: per-product spans would swamp the trace.
LAYERS = ("cli", "operators", "octonion", "eigen", "linalg", "kernels", "hermiticity", "dirac")
SPAN_FUNCTIONS = {
    "cli": ("main",),
    "operators": ("parse_word", "operator_basis", "matrix_to_generalized", "basis_rank",
                  "operator_identity_check"),
    "octonion": ("format_octonion",),
    "eigen": ("solve_coupled", "coupled_clusters", "verify_coupled", "solve_complexified",
              "verify_complexified", "coupled_from_complexified", "verify_right_eigen",
              "enumerate_basis_right_eigs", "quaternionic_limit_check", "eig_report"),
    "linalg": ("lu_solve", "real_schur", "eigenvalues", "eigenvector", "schur_eigensystem",
               "complex_eigen", "matrix_rank", "cluster_gap", "cluster_values"),
    "kernels": ("lu_factor", "lu_solve_factored", "balance_in_place", "hessenberg_in_place",
                "francis_qr", "split_real_2x2_blocks"),
    "hermiticity": ("classify", "hermitian_spectrum_theorem_check", "survey_imaginary_units"),
    "dirac": ("dirac_representation", "dirac_algebra_check", "dispersion_check",
              "left_anticommutator_check", "split_doublet", "orthogonal_doublet_check"),
}
SPAN_METHODS = {
    "operators": ("OperatorMatrix", ("from_json", "to_json", "apply", "apply_complex",
                                     "to_real_matrix", "to_complex_matrix")),
}
# metric name -> (module, function) counted without a span
COUNTED = {
    "octonion.parse": ("octonion", "parse_octonion"),
    "hermiticity.product_values": ("hermiticity", "product_values"),
}

SPAN_RENAME = {"octonion.format_octonion": "octonion.format"}

KERNEL_NAMES = SPAN_FUNCTIONS["kernels"]
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory span recorder with per-call probes for counts that the
    spans cannot give (dtype, flops computed from shapes, records kept)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = -1
        self.schur_inputs = []
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, probe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- probes ----------------------------------------------------------------

    def _lu_probe(self, args, result):
        a = args[0]
        n = a.shape[0]
        if np.iscomplexobj(a):
            self.counts["kernels.lu_factor.complex_calls"] += 1
            # one complex multiply-add is four real ones
            self.counts["kernels.lu_factor.flops_computed"] += 4 * (2 * n ** 3 // 3)
        else:
            self.counts["kernels.lu_factor.flops_computed"] += 2 * n ** 3 // 3

    def _hessenberg_probe(self, args, result):
        # Householder reduction 10n^3/3 plus accumulating Q, 4n^3/3
        n = args[0].shape[0]
        self.counts["kernels.hessenberg_in_place.flops_computed"] += 14 * n ** 3 // 3

    def _schur_probe(self, args, result):
        self.counts["linalg.schur_eigensystem.records"] += len(result[1])
        self.schur_inputs.append(np.array(args[0], dtype=np.float64))

    # -- installation -----------------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "octoeig" and not modname.startswith("octoeig."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every traced entry point of the loaded octoeig modules."""
        import octoeig.cli  # noqa: F401  (loads every layer)

        probes = {
            "kernels.lu_factor": self._lu_probe,
            "kernels.hessenberg_in_place": self._hessenberg_probe,
            "linalg.schur_eigensystem": self._schur_probe,
        }
        for layer, names in SPAN_FUNCTIONS.items():
            mod = sys.modules[f"octoeig.{layer}"]
            for fn_name in names:
                name = SPAN_RENAME.get(f"{layer}.{fn_name}", f"{layer}.{fn_name}")
                probe = probes.get(name)
                original = getattr(mod, fn_name)
                self._rebind_everywhere(original, self.span(name, original, probe))
        for metric, (layer, fn_name) in COUNTED.items():
            original = getattr(sys.modules[f"octoeig.{layer}"], fn_name)
            self._rebind_everywhere(original, self.counter(f"{metric}.calls", original))
        for layer, (cls_name, methods) in SPAN_METHODS.items():
            cls = getattr(sys.modules[f"octoeig.{layer}"], cls_name)
            for m in methods:
                raw = cls.__dict__[m]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.span(f"{layer}.{m}", raw.__func__))
                else:
                    wrapped = self.span(f"{layer}.{m}", raw)
                setattr(cls, m, wrapped)
                self._undo.append((cls, m, raw))
        octonion_cls = sys.modules["octoeig.octonion"].Octonion
        raw_mul = octonion_cls.__dict__["__mul__"]
        counts = self.counts

        def counted_mul(a, b):
            if isinstance(b, octonion_cls):
                counts["octonion.mul.calls"] += 1
            return raw_mul(a, b)

        octonion_cls.__mul__ = counted_mul
        self._undo.append((octonion_cls, "__mul__", raw_mul))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- span arithmetic -------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Per span: duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    return [
        (rec[END] - rec[START])
        - covered(rec[START], rec[END], [(spans[c][START], spans[c][END]) for c in kids])
        for rec, kids in zip(spans, children)
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, counts) -> dict:
    """Raw per-name aggregates: calls, total_s (spans not nested in a span of
    the same name), self_s; per-layer self_s and top-level total_s; kernel
    calls under schur_eigensystem."""
    selfs = self_times(spans)
    agg = Counter(counts)
    under_schur = [False] * len(spans)
    for i, rec in enumerate(spans):
        name, p = rec[NAME], rec[PARENT]
        dur = rec[END] - rec[START]
        layer = layer_of(name)
        agg[f"{name}.calls"] += 1
        agg[f"{name}.self_s"] += selfs[i]
        agg[f"{layer}.self_s"] += selfs[i]
        same_name_above = layer_above = False
        q = p
        while q >= 0:
            same_name_above |= spans[q][NAME] == name
            layer_above |= layer_of(spans[q][NAME]) == layer
            q = spans[q][PARENT]
        if not same_name_above:
            agg[f"{name}.total_s"] += dur
        if not layer_above:
            agg[f"{layer}.total_s"] += dur
        if p >= 0:
            under_schur[i] = under_schur[p] or spans[p][NAME] == "linalg.schur_eigensystem"
        if under_schur[i] and layer == "kernels":
            agg[f"{name}.under_schur_calls"] += 1
    return agg


# -- per-layer metrics -----------------------------------------------------------

ALL_WORKLOADS = ("eig-coupled", "eig-complexified", "lab-mix")
EIG = ("eig-coupled", "eig-complexified")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(agg, *, lapack_s, traced_rps, untraced_rps, traced_request_s, requests, workload):
    """name -> (value, unit) for every per-layer metric.  Counts, flops and
    times are per traced request, so runs that fit a different number of
    decks into their seconds compare.  ``trace.unexercised`` counts the
    metrics this workload should exercise that read 0: a missed import
    site shows there."""
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def calls(name):
        put(f"{name}.calls", agg[f"{name}.calls"] / requests, "calls/req")

    def total(name):
        put(f"{name}.total_s", agg[f"{name}.total_s"] / requests, "s/req")

    def self_s(name):
        put(f"{name}.self_s", agg[f"{name}.self_s"] / requests, "s/req")

    put("cli.main.calls", agg["cli.main.calls"], "calls")  # the traced requests
    self_s("cli")
    for f in ("from_json", "to_real_matrix", "to_complex_matrix"):
        total(f"operators.{f}")
    for f in ("apply", "apply_complex"):
        calls(f"operators.{f}")
        total(f"operators.{f}")
    self_s("operators")
    for f in ("mul", "parse", "format"):
        calls(f"octonion.{f}")
    total("octonion.format")
    self_s("octonion")
    total("eigen.eig_report")
    self_s("eigen")
    calls("eigen.verify_coupled")
    total("eigen.verify_coupled")
    total("eigen.verify_complexified")
    total("eigen.enumerate_basis_right_eigs")
    calls("eigen.verify_right_eigen")
    calls("linalg.schur_eigensystem")
    total("linalg.schur_eigensystem")
    self_s("linalg.schur_eigensystem")
    total("linalg.complex_eigen")
    self_s("linalg.complex_eigen")
    total("linalg.cluster_values")
    shifts = agg["kernels.lu_factor.under_schur_calls"]
    put("linalg.steps_per_shift", _ratio(agg["kernels.lu_solve_factored.under_schur_calls"], shifts), "ratio")
    put("linalg.schur_eigensystem.records", agg["linalg.schur_eigensystem.records"] / requests,
        "records/req")
    put("linalg.vectors_kept_ratio", _ratio(agg["linalg.schur_eigensystem.records"], shifts), "ratio")
    self_s("linalg")
    for k in KERNEL_NAMES:
        calls(f"kernels.{k}")
        total(f"kernels.{k}")
    put("kernels.lu_factor.complex_calls", agg["kernels.lu_factor.complex_calls"] / requests,
        "calls/req")
    put("kernels.lu_factor.flops_computed", agg["kernels.lu_factor.flops_computed"] / requests,
        "flop/req")
    put("kernels.hessenberg_in_place.flops_computed",
        agg["kernels.hessenberg_in_place.flops_computed"] / requests, "flop/req")
    put("kernels.lu_factor.gflops",
        _ratio(agg["kernels.lu_factor.flops_computed"], agg["kernels.lu_factor.total_s"]) / 1e9, "GFLOP/s")
    self_s("kernels")
    calls("hermiticity.classify")
    total("hermiticity.classify")
    self_s("hermiticity.classify")
    calls("hermiticity.product_values")
    put("hermiticity.pairs_per_classify",
        _ratio(agg["hermiticity.product_values.calls"], agg["hermiticity.classify.calls"]), "ratio")
    self_s("hermiticity")
    total("dirac")
    self_s("dirac")
    put("ref.lapack_eig_s", lapack_s / requests, "s/req")
    put("ref.schur_over_lapack", _ratio(agg["linalg.schur_eigensystem.total_s"], lapack_s), "ratio")
    put("trace.throughput_rps", traced_rps, "1/s")
    put("trace.untraced_throughput_rps", untraced_rps, "1/s")
    put("trace.overhead", _ratio(traced_rps, untraced_rps), "ratio")
    put("trace.request_s", traced_request_s / requests, "s/req")
    put("trace.self_sum_over_request",
        _ratio(sum(agg[f"{layer}.self_s"] for layer in LAYERS), traced_request_s), "ratio")
    missing = [name for name, wls in EXPECTED.items() if workload in wls and m[name][0] == 0.0]
    put("trace.unexercised", len(missing), "metrics")
    if missing:
        print(f"trace: expected non-zero on {workload}: {', '.join(missing)}", file=sys.stderr)
    return m


def _expected():
    """metric -> workloads that must exercise it, from the interaction notes."""
    exp = {}

    def on(workloads, *names):
        for n in names:
            exp[n] = exp.get(n, ()) + tuple(workloads)

    on(ALL_WORKLOADS, "cli.main.calls", "cli.self_s", "operators.from_json.total_s",
       "operators.self_s", "octonion.mul.calls", "octonion.parse.calls", "octonion.self_s", "octonion.format.calls",
       "octonion.format.total_s", "eigen.eig_report.total_s", "eigen.self_s",
       "linalg.schur_eigensystem.calls", "linalg.schur_eigensystem.total_s",
       "linalg.schur_eigensystem.self_s", "linalg.cluster_values.total_s",
       "linalg.steps_per_shift", "linalg.vectors_kept_ratio", "linalg.self_s",
       "kernels.lu_factor.flops_computed", "kernels.hessenberg_in_place.flops_computed",
       "kernels.lu_factor.gflops", "kernels.lu_factor.complex_calls", "kernels.self_s",
       "ref.lapack_eig_s", "ref.schur_over_lapack", "trace.overhead", "trace.self_sum_over_request",
       *(f"kernels.{k}.{s}" for k in KERNEL_NAMES for s in ("calls", "total_s")))
    on(("eig-coupled", "lab-mix"), "operators.to_real_matrix.total_s", "operators.apply.calls",
       "operators.apply.total_s", "eigen.verify_coupled.calls", "eigen.verify_coupled.total_s")
    on(("eig-complexified", "lab-mix"), "operators.to_complex_matrix.total_s",
       "operators.apply_complex.calls", "operators.apply_complex.total_s",
       "eigen.verify_complexified.total_s", "linalg.complex_eigen.total_s",
       "linalg.complex_eigen.self_s")
    on(("lab-mix",), "eigen.enumerate_basis_right_eigs.total_s",
       "eigen.verify_right_eigen.calls", "hermiticity.classify.calls",
       "hermiticity.classify.total_s", "hermiticity.classify.self_s",
       "hermiticity.product_values.calls", "hermiticity.pairs_per_classify", "hermiticity.self_s",
       "dirac.total_s", "dirac.self_s")
    return exp


EXPECTED = _expected()
