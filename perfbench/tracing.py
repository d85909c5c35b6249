"""Span tracing of the bstick layers, from outside the package.

The tracer rebinds public bstick functions, as the calling module sees them,
to wrappers that record one span per call: (id, name, start, end, parent id,
run id).  The run id is the benchmark round the call belongs to.  Spans stay
in memory until the run ends.  Nothing under ``src/`` is edited.

Chunks run on Monte Carlo worker threads whose own span stack is empty; their
parent is the innermost open span of the main thread, which is the estimate
call blocked on them.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

# Span names.
CLI_MAIN = "cli.main"
CLI_EMIT = "cli.emit"
KGON = "exact.kgon"
CLOSED_FORM = "exact.closed_form"
POCHHAMMER = "kernel.pochhammer"
BINOMIAL = "kernel.binomial"
FALLING = "kernel.falling_product"
ESTIMATE = "montecarlo.estimate"
SAMPLE = "sticks.sample"
PREDICATE = "sticks.predicate"
VERIFY_SUITES = {
    "run_exact_crosschecks": "verify.exact",
    "run_identity_selftests": "verify.identities",
    "run_lemma3_checks": "verify.lemma3",
    "run_mc_crosschecks": "verify.mc",
}
LEMMA3_RESIDUAL = "verify.lemma3_residual"

CLOSED_FORMS = (
    "prob_all_ngon", "prob_all_triangle", "prob_all_quadrilateral_beta",
    "prob_all_pentagon_beta", "whitworth_survivor", "prob_exists_triangle",
)

# Per-round counts that depend only on the code and the workload, never on
# timing or on the seed, so they must repeat exactly.
REPEAT_COUNTS = (
    "exact.value_bits", "kernel.pochhammer_calls", "kernel.binomial_calls",
    "kernel.falling_product_calls", "montecarlo.chunks", "sticks.sample_rows",
    "verify.checks",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: defaultdict[tuple[int, str], int] = defaultdict(int)
        self.run = 0
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counters[(self.run, key)] += amount

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.run))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, on_result))
        self._patched.append((module, attr, original))

    def install(self, bstick) -> None:
        """Rebind every traced bstick function where its callers look it up."""
        cli, exact, kernel = bstick.cli, bstick.exact, bstick.kernel
        montecarlo, verify = bstick.montecarlo, bstick.verify

        def value_bits(v):
            self.count("exact.value_bits", v.numerator.bit_length() + v.denominator.bit_length())

        def sample_size(a):
            self.count("sticks.sample_rows", a.shape[0])
            self.count("sticks.sample_bytes", a.nbytes)

        self.patch(cli, "emit_records", CLI_EMIT)
        self.patch(cli, "emit_report", CLI_EMIT)
        self.patch(exact, "prob_all_kgon", KGON, value_bits)
        for attr in CLOSED_FORMS:
            self.patch(exact, attr, CLOSED_FORM)
        for module in (exact, verify, kernel):
            self.patch(module, "pochhammer", POCHHAMMER)
        for module in (exact, verify):
            self.patch(module, "binomial", BINOMIAL)
        self.patch(exact, "falling_product", FALLING)
        for module in (cli, verify, montecarlo):
            self.patch(module, "estimate", ESTIMATE)
        self.patch(montecarlo, "sample_spacings_batch", SAMPLE, sample_size)
        self.patch(montecarlo, "event_indicator_batch", PREDICATE)
        for attr, name in VERIFY_SUITES.items():
            self.patch(verify, attr, name)
        self.patch(verify, "lemma3_residual", LEMMA3_RESIDUAL)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines [id, name, start, end, parent, run]."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children may overlap one another (two worker threads under one estimate)
    and are clipped to the parent's interval.
    """
    children = defaultdict(list)
    for sid, _name, t0, t1, parent, _run in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent, _run in spans:
        covered = 0.0
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            lo, hi = max(c0, cursor), min(c1, t1)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, min(c1, t1))
        out[sid] = (t1 - t0) - covered
    return out


def per_run_totals(spans, counters) -> dict[int, dict[str, float]]:
    """Per-layer totals for each run id (benchmark round)."""
    selfs = self_times(spans)
    names = {span[0]: span[1] for span in spans}
    totals: defaultdict[int, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, name, t0, t1, parent, run in spans:
        t = totals[run]
        d = t1 - t0
        t[name + "_calls"] += 1
        t[name + "_s"] += d
        t[name + "_self_s"] += selfs[sid]
        if name in (SAMPLE, PREDICATE) and names.get(parent) == ESTIMATE:
            t["montecarlo.busy_s"] += d
            if name == SAMPLE:
                t["montecarlo.chunks"] += 1
    for (run, key), value in counters.items():
        totals[run][key] += value
    return {run: dict(t) for run, t in totals.items()}


def layer_metrics(totals: dict[int, dict[str, float]], workers: int) -> dict[str, float]:
    """Per-layer metrics as means per round over the traced rounds."""
    runs = list(totals.values())

    def mean(key: str) -> float:
        return sum(t.get(key, 0.0) for t in runs) / len(runs)

    estimate_s = mean(ESTIMATE + "_s")
    return {
        "cli.self_s": mean(CLI_MAIN + "_self_s"),
        "cli.emit_s": mean(CLI_EMIT + "_s"),
        "cli.bytes_out": mean("cli.bytes_out"),
        "exact.kgon_calls": mean(KGON + "_calls"),
        "exact.kgon_s": mean(KGON + "_s"),
        "exact.kgon_self_s": mean(KGON + "_self_s"),
        "exact.value_bits": mean("exact.value_bits"),
        "exact.closed_form_s": mean(CLOSED_FORM + "_s"),
        "kernel.pochhammer_calls": mean(POCHHAMMER + "_calls"),
        "kernel.pochhammer_s": mean(POCHHAMMER + "_s"),
        "kernel.binomial_calls": mean(BINOMIAL + "_calls"),
        "kernel.binomial_s": mean(BINOMIAL + "_s"),
        "kernel.falling_product_s": mean(FALLING + "_s"),
        "sticks.sample_calls": mean(SAMPLE + "_calls"),
        "sticks.sample_rows": mean("sticks.sample_rows"),
        "sticks.sample_s": mean(SAMPLE + "_s"),
        "sticks.sample_bytes": mean("sticks.sample_bytes"),
        "sticks.predicate_calls": mean(PREDICATE + "_calls"),
        "sticks.predicate_s": mean(PREDICATE + "_s"),
        "montecarlo.estimate_calls": mean(ESTIMATE + "_calls"),
        "montecarlo.chunks": mean("montecarlo.chunks"),
        "montecarlo.estimate_s": estimate_s,
        "montecarlo.self_s": mean(ESTIMATE + "_self_s"),
        "montecarlo.worker_busy_frac": (
            mean("montecarlo.busy_s") / (estimate_s * workers) if estimate_s else 0.0
        ),
        "verify.checks": mean("verify.checks"),
        "verify.failed": mean("verify.failed"),
        "verify.exact_s": mean(VERIFY_SUITES["run_exact_crosschecks"] + "_s"),
        "verify.identities_s": mean(VERIFY_SUITES["run_identity_selftests"] + "_s"),
        "verify.lemma3_s": mean(VERIFY_SUITES["run_lemma3_checks"] + "_s"),
        "verify.lemma3_calls": mean(LEMMA3_RESIDUAL + "_calls"),
        "verify.mc_s": mean(VERIFY_SUITES["run_mc_crosschecks"] + "_s"),
    }


def repeat_counts(totals: dict[int, dict[str, float]]) -> dict[int, dict[str, int]]:
    """The exact-repeat counts of each round."""
    return {
        run: {key: int(t.get(key, 0)) for key in REPEAT_COUNTS}
        for run, t in totals.items()
    }
