"""Cross-validation harness: every closed form against an independent oracle.

Four suites (SUITES, in the order "all" runs them):

* exact      -- pairwise rational equalities between the general formula and
                the specialized closed forms (residual must be exactly 0),
                one per exact.FORMULAS entry with a check and each n <= n_max;
* identities -- exact self-tests of the combinatorial identities the formulas
                rest on; the kernel recurrences are one table (_RECURRENCES)
                of name -> (cases, identity), run by one loop;
* lemma3     -- tensor-product Gauss-Legendre quadrature, in numpy, of the
                iterated integral that powers the general formula, against
                its exact closed value;
* mc         -- Monte Carlo estimates against exact values, one module-level
                list of (check id, n, event), plus agreement between the two
                sampler models.  Its 34 estimates run whole, `workers` at a
                time, through montecarlo.run_in_order; workers never changes a
                result, since each estimate is bitwise a function of its config.

Each suite returns a VerificationReport of VerificationEntry records, all
built by _entry.  run_all is the one dispatcher: it checks the arguments of
every selected suite (check_exact_args, check_mc_args, the latter including
the trial budget at the grid's largest n) before any suite runs, and records
each suite's totals (SuiteTotal).  The runtime needs numpy and the standard
library only.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exact
from .kernel import beta_int, binomial, fibonacci, pochhammer
from .montecarlo import (
    DEFAULT_TRIAL_BUDGET,
    MAX_SEED,
    EstimateResult,
    SimulationConfig,
    check_budget,
    check_workers,
    estimate,
    run_in_order,
)
from .sticks import EventKind, EventSpec, SamplerModel

__all__ = [
    "VerificationEntry",
    "SuiteTotal",
    "VerificationReport",
    "SUITES",
    "check_exact_args",
    "run_exact_crosschecks",
    "run_identity_selftests",
    "QuadratureError",
    "lemma3_residual",
    "run_lemma3_checks",
    "check_mc_args",
    "sampler_equivalence_test",
    "run_mc_crosschecks",
    "run_all",
]

LEMMA3_TOLERANCES = {4: 1e-8, 5: 1e-6, 6: 1e-5}

# The Lemma 3 rule: Gauss-Legendre with LEMMA3_NODES nodes on each of
# LEMMA3_PANELS panels of [0, 1], each panel twice as wide as the one before
# it.  Its error estimate is the difference from the rule with 2/3 as many
# nodes per panel; above LEMMA3_ERROR_BOUND, four orders below the tightest
# tolerance, the check cannot tell a wrong closed value from a coarse rule, so
# the entry fails.  Measured on k <= 5, n <= 30 and k = 6, n <= 14 (every j):
# the estimate stays below 1.2e-13 and the residual below 1.4e-17.
LEMMA3_NODES = 12
LEMMA3_PANELS = 6
LEMMA3_ERROR_BOUND = 1e-12


@dataclass(frozen=True)
class VerificationEntry:
    """One check: expected vs actual, with residual and pass/fail.

    Exact-equality checks use tolerance 0.0 and must have residual 0.0 to
    pass; tolerance-based checks pass iff residual <= tolerance.
    """

    check_id: str
    expected: str
    actual: str
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: int


@dataclass(frozen=True)
class SuiteTotal:
    """One suite's share of a run_all report: its checks, failures and wall time."""

    suite: str
    checks: int
    failed: int
    runtime_ms: int


@dataclass
class VerificationReport:
    """An ordered collection of verification entries.

    A report from run_all also holds one SuiteTotal per suite it ran, in order.
    """

    entries: list[VerificationEntry] = field(default_factory=list)
    totals: list[SuiteTotal] = field(default_factory=list)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: VerificationEntry) -> None:
        self.entries.append(entry)

    def extend(self, other: "VerificationReport") -> None:
        self.entries.extend(other.entries)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[VerificationEntry]:
        return [e for e in self.entries if not e.passed]

    def sorted_entries(self) -> list[VerificationEntry]:
        """Entries sorted by check_id, the canonical serialization order."""
        return sorted(self.entries, key=lambda e: e.check_id)


def _entry(
    check_id: str, expected: object, actual: object, residual: float, tolerance: float,
    seconds: float, passed: bool | None = None,
) -> VerificationEntry:
    """The one builder of entries; passes iff residual <= tolerance unless told.

    `seconds` is the wall time of the check's own work, kept as runtime_ms.
    """
    return VerificationEntry(
        check_id=check_id,
        expected=str(expected),
        actual=str(actual),
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance if passed is None else passed,
        runtime_ms=int(seconds * 1000),
    )


def _exact_entry(
    check_id: str, expected: Fraction, actual: Fraction, seconds: float
) -> VerificationEntry:
    # Equality decides: a nonzero difference can round to a residual of 0.0.
    equal = expected == actual
    residual = 0.0 if equal else float(abs(expected - actual))
    return _entry(check_id, expected, actual, residual, 0.0, seconds, passed=equal)


def check_exact_args(n_max: int) -> None:
    """Reject arguments of the exact suite before any suite runs.

    n_max above exact.DEFAULT_N_CAP raises CapExceededError: the closed forms
    run at their default cap, which bounds the suite's time.
    """
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    if n_max > exact.DEFAULT_N_CAP:
        raise exact.CapExceededError(
            f"n_max={n_max} exceeds the exact-arithmetic cap {exact.DEFAULT_N_CAP}")


def run_exact_crosschecks(n_max: int) -> VerificationReport:
    """Rational equality of the general k-gon formula with every closed form.

    Each exact.FORMULAS entry with a check is compared with Theorem 1 at its
    k for every n >= k.  The Whitworth survivor at x = 1/2 is held to
    n / 2^(n-1) from n = 2, where Theorem 1 is undefined.
    """
    check_exact_args(n_max)
    report = VerificationReport()
    for n in range(2, n_max + 1):
        t0 = time.perf_counter()
        report.add(_exact_entry(
            f"exact/whitworth-half/n={n:02d}",
            Fraction(n, 2 ** (n - 1)),
            exact.whitworth_survivor(n, Fraction(1, 2)),
            time.perf_counter() - t0,
        ))
    for n in range(3, n_max + 1):
        for formula in exact.FORMULAS.values():
            if formula.check is None or formula.k_of_n(n) > n:
                continue
            t0 = time.perf_counter()
            report.add(_exact_entry(
                f"exact/{formula.check}/n={n:02d}",
                formula.evaluate(n, None, exact.DEFAULT_N_CAP),
                exact.prob_all_kgon(formula.k_of_n(n), n),
                time.perf_counter() - t0,
            ))
    return report


_XS = (Fraction(3, 2), Fraction(7, 5), Fraction(1, 3), Fraction(11, 4))

# Recurrence checks: name -> (cases, identity).  Each is one entry counting
# the cases where the identity fails.  The lambdas look pochhammer, beta_int,
# binomial and fibonacci up in this module's globals at call time, so a
# rebinding of a module attribute (the benchmark's tracer) sees every call.
_RECURRENCES = {
    "pochhammer-recurrence": (
        [(x, m) for x in _XS for m in range(21)],
        lambda x, m: pochhammer(x, m + 1) == pochhammer(x, m) * (x + m),
    ),
    "beta-pochhammer-product": (
        [(a, x) for a in range(1, 13) for x in _XS],
        lambda a, x: beta_int(a, x) * pochhammer(x, a) == math.factorial(a - 1),
    ),
    "pascal-recurrence": (
        [(n, j) for n in range(1, 41) for j in range(1, n + 1)],
        lambda n, j: binomial(n, j) == binomial(n - 1, j - 1) + binomial(n - 1, j),
    ),
    "fibonacci-recurrence": (
        [(j,) for j in range(3, 91)],
        lambda j: fibonacci(j) == fibonacci(j - 1) + fibonacci(j - 2),
    ),
}


def run_identity_selftests() -> VerificationReport:
    """Exact identity checks: the alternating factorial sum and kernel recurrences."""
    report = VerificationReport()
    for k in range(4, 21):
        t0 = time.perf_counter()
        ok = exact.alternating_factorial_identity(k)
        report.add(_entry(f"identity/alt-factorial/k={k:02d}",
                          Fraction(1, math.factorial(k - 2)),
                          "equal" if ok else "mismatch", 0.0 if ok else 1.0, 0.0,
                          time.perf_counter() - t0))
    for name, (cases, identity) in _RECURRENCES.items():
        t0 = time.perf_counter()
        failures = len(cases) - sum(itertools.starmap(identity, cases))
        report.add(_entry(f"identity/{name}",
                          f"0 failures in {len(cases)} cases",
                          f"{failures} failures in {len(cases)} cases",
                          float(failures), 0.0, time.perf_counter() - t0))
    return report


def lemma3_closed_value(k: int, n: int, j: int) -> Fraction:
    """Exact value of the iterated integral: -j^-(k-3) / ((n-k+2)/j + 1)_(k-2)."""
    return -Fraction(1, j ** (k - 3)) / pochhammer(Fraction(n - k + 2, j) + 1, k - 2)


class QuadratureError(ArithmeticError):
    """The Lemma 3 rule's error estimate exceeds LEMMA3_ERROR_BOUND."""


@functools.cache
def _panel_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the composite rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.concatenate(([0.0], 2.0 ** np.arange(1 - LEMMA3_PANELS, 1)))
    half = np.diff(edges)[:, None] / 2
    t = (edges[:-1, None] + half * (x + 1)).ravel()
    wt = (half * w).ravel()
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _nested_quadrature(k: int, n: int, j: int, nodes: int) -> float:
    """The iterated integral by the tensor-product rule, `nodes` per panel.

    With d = k - 3 variables y_1 > ... > y_d > 0 the integrand is

        e^(-lam*y_1) * e^(-j*(y_1 + ... + y_(d-1))) * (e^(-2j*y_d) - e^(-j*y_d)),

    lam = n - k + 2.  Level 1 spans [0, x_max]; each inner level is mapped
    onto [0, y] of its parent node y, so level i holds an array of shape
    (m,) * i for m nodes per level.  Each level takes one np.exp call, and
    the levels are summed from the innermost out.
    """
    t, w = _panel_rule(nodes)
    lam = n - k + 2
    depth = k - 3
    x_max = -math.log(1e-16) / lam
    ys, ws = [x_max * t], [x_max * w]
    for _ in range(depth - 1):
        ws.append(ys[-1][..., None] * w)
        ys.append(ys[-1][..., None] * t)
    base = lam if depth == 1 else 0
    terms = np.exp(np.multiply.outer([-(base + 2 * j), -(base + j)], ys[-1]))
    acc = ((terms[0] - terms[1]) * ws[-1]).sum(axis=-1)
    for level in range(depth - 2, -1, -1):
        rate = j + (lam if level == 0 else 0)
        acc = (np.exp(-rate * ys[level]) * ws[level] * acc).sum(axis=-1)
    return float(acc)


def lemma3_residual(k: int, n: int, j: int) -> float:
    """|quadrature(LHS) - exact(RHS)| for the iterated-integral identity.

    The integral over x in (0, inf) of

        e^(-(n-k+2)x) * I_inner(x),

    where I_inner nests k-4 more integrals of
    e^(-j(2*x2 + x3 + ... )) - e^(-j(x2 + ... )) over 0 < x2 < ... < x.
    The outer integral is truncated where its exponential weight falls
    below 1e-16; inner regions keep their exact bounds.  The quadrature is
    the numpy rule of _nested_quadrature with LEMMA3_NODES nodes per panel.
    Raises QuadratureError when the rule's error estimate, its difference
    from the rule with 2/3 as many nodes, exceeds LEMMA3_ERROR_BOUND.
    """
    if k not in (4, 5, 6):
        raise ValueError("quadrature check supports k in {4, 5, 6}")
    if n < k:
        raise ValueError("need n >= k")
    if not 1 <= j <= n - k + 2:
        raise ValueError("need 1 <= j <= n-k+2")
    lhs = _nested_quadrature(k, n, j, LEMMA3_NODES)
    error = abs(lhs - _nested_quadrature(k, n, j, 2 * LEMMA3_NODES // 3))
    if not error <= LEMMA3_ERROR_BOUND:
        raise QuadratureError(
            f"error estimate {error:.3e} exceeds {LEMMA3_ERROR_BOUND:.0e}")
    rhs = float(lemma3_closed_value(k, n, j))
    return abs(lhs - rhs)


def run_lemma3_checks(
    k_values: tuple[int, ...] = (4, 5), n_max: int = 8, j_max: int = 3
) -> VerificationReport:
    """Quadrature residual entries over a (k, n, j) grid.

    A quadrature whose error estimate is too large (QuadratureError) marks
    the entry failed, with actual "quadrature failed: ...", rather than
    raising.
    """
    report = VerificationReport()
    for k in k_values:
        tol = LEMMA3_TOLERANCES[k]
        for n in range(k, n_max + 1):
            for j in range(1, min(j_max, n - k + 2) + 1):
                t0 = time.perf_counter()
                closed = lemma3_closed_value(k, n, j)
                try:
                    residual = lemma3_residual(k, n, j)
                    actual = f"residual={residual:.3e}"
                except QuadratureError as err:
                    residual = math.inf
                    actual = f"quadrature failed: {err}"
                report.add(_entry(f"lemma3/k={k}/n={n}/j={j}", closed, actual,
                                  residual, tol, time.perf_counter() - t0))
    return report


def _mix64(seed: int) -> int:
    """SplitMix64 finalizer; derives the second model's seed for equivalence runs."""
    z = (seed + 0x9E3779B97F4A7C15) & MAX_SEED
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MAX_SEED
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MAX_SEED
    return z ^ (z >> 31)


def _sampler_pair(
    n: int, event: EventSpec, trials: int, seed: int
) -> tuple[SimulationConfig, SimulationConfig]:
    """The uniform-breaks run at seed and the exponential run at _mix64(seed)."""
    return (
        SimulationConfig(n=n, event=event, model=SamplerModel.UNIFORM_BREAKS,
                         trials=trials, seed=seed),
        SimulationConfig(n=n, event=event, model=SamplerModel.EXPONENTIAL_NORMALIZED,
                         trials=trials, seed=_mix64(seed)),
    )


def _timed_estimate(
    config: SimulationConfig, workers: int = 1
) -> tuple[EstimateResult, float]:
    """estimate(config, workers=workers), and its wall time in seconds."""
    t0 = time.perf_counter()
    result = estimate(config, workers=workers)
    return result, time.perf_counter() - t0


def _equivalence_entry(
    n: int, event: EventSpec,
    uniform: tuple[EstimateResult, float], exponential: tuple[EstimateResult, float],
) -> VerificationEntry:
    """The two models' estimates must agree within 5 combined binomial SEs."""
    (res_a, seconds_a), (res_b, seconds_b) = uniform, exponential
    return _entry(
        f"mc/sampler-equivalence/{event.label()}/n={n}",
        f"{res_a.p_hat:.12g}",
        f"{res_b.p_hat:.12g}",
        abs(res_a.p_hat - res_b.p_hat),
        5.0 * math.sqrt(res_a.std_error**2 + res_b.std_error**2),
        seconds_a + seconds_b,
    )


def sampler_equivalence_test(
    n: int, event: EventSpec, trials: int, seed: int, workers: int = 1
) -> VerificationEntry:
    """Estimate the same event under both sampler models and compare.

    The models realize the same spacing distribution, so the two estimates
    must agree within 5 combined binomial standard errors.  The uniform run
    takes `seed` and the exponential run _mix64(seed); each shares its chunks
    among `workers` threads.
    """
    uniform, exponential = (_timed_estimate(c, workers)
                            for c in _sampler_pair(n, event, trials, seed))
    return _equivalence_entry(n, event, uniform, exponential)


# The mc grid, in stream order: the runs take the seeds seed, seed + 1, ...
# first the estimates held to exact values, then the sampler-equivalence pairs.
# (check id, n, event) of each estimate held to an exact value.
_MC_AGAINST_EXACT = [
    *((f"mc/all/k={k}/n={n}", n, EventSpec.all_k_subsets(k))
      for n in range(3, 9) for k in range(3, n + 1)),
    *((f"mc/whitworth/n={n}/x={x}", n, EventSpec.max_spacing(x))
      for n, x in ((4, Fraction(1, 2)), (5, Fraction(1, 3)), (6, Fraction(1, 4)))),
    *((f"mc/exists/k=3/n={n}", n, EventSpec.exists_k(3)) for n in (4, 5)),
]
# (n, event) of each sampler-equivalence pair.
_MC_EQUIVALENCES = [
    (5, EventSpec.all_k_subsets(3)),
    (6, EventSpec.all_k_subsets(4)),
    (7, EventSpec.all_k_subsets(5)),
    (6, EventSpec.max_spacing(Fraction(1, 2))),
]


def _exact_probability(n: int, event: EventSpec) -> Fraction:
    """The exact value an mc estimate of _MC_AGAINST_EXACT is held to."""
    if event.kind is EventKind.MAX_SPACING:
        return exact.whitworth_survivor(n, event.x)
    if event.kind is EventKind.EXISTS_K:
        return exact.prob_exists_triangle(n)  # the grid holds k = 3 only
    return exact.prob_all_kgon(event.k, n)


def check_mc_args(trials: int, seed: int, workers: int) -> None:
    """Reject arguments of the mc suite before any suite runs.

    trials * n above DEFAULT_TRIAL_BUDGET at the grid's largest n raises
    BudgetExceededError (check_budget), as the first estimate at that n would.
    """
    if trials < 10**4:
        raise ValueError("trials must be >= 10^4")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must be an unsigned 64-bit integer")
    check_workers(workers)
    max_n = max(*(n for _, n, _ in _MC_AGAINST_EXACT), *(n for n, _ in _MC_EQUIVALENCES))
    check_budget(trials, max_n, DEFAULT_TRIAL_BUDGET)


def run_mc_crosschecks(trials: int, seed: int, workers: int = 1) -> VerificationReport:
    """Monte Carlo estimates against exact values on a fixed grid.

    Pass band is 5 binomial standard errors around the exact probability
    (false-failure odds about 6e-7 per entry).  The runs take the seeds
    seed, seed + 1, ... modulo 2^64, in the order of _MC_AGAINST_EXACT and
    then _MC_EQUIVALENCES (one seed per pair).  The grid's estimates run
    whole, up to `workers` at a time, through run_in_order; each entry's
    runtime_ms is the wall time of its own estimates.
    """
    check_mc_args(trials, seed, workers)
    streams = ((seed + i) & MAX_SEED for i in itertools.count())
    configs = [SimulationConfig(n=n, event=event, model=SamplerModel.UNIFORM_BREAKS,
                                trials=trials, seed=next(streams))
               for _, n, event in _MC_AGAINST_EXACT]
    for n, event in _MC_EQUIVALENCES:
        configs.extend(_sampler_pair(n, event, trials, next(streams)))
    runs = run_in_order(_timed_estimate, configs, workers)
    report = VerificationReport()
    for (check_id, n, event), (res, seconds) in zip(_MC_AGAINST_EXACT, runs):
        exact_p = _exact_probability(n, event)
        p = float(exact_p)
        report.add(_entry(check_id, exact_p, f"{res.p_hat:.12g}", abs(res.p_hat - p),
                          5.0 * math.sqrt(p * (1.0 - p) / trials), seconds))
    for n, event in _MC_EQUIVALENCES:
        report.add(_equivalence_entry(n, event, next(runs), next(runs)))
    return report


# The suites in the order "all" runs them.
SUITES = ("exact", "identities", "lemma3", "mc")


def run_all(
    n_max: int = 20, trials: int = 10**5, seed: int = 0, workers: int = 1, suite: str = "all"
) -> VerificationReport:
    """Run one suite of SUITES, or all of them in order (suite="all").

    This is the only dispatcher: the arguments of every selected suite are
    checked before any suite runs.  Each suite function is looked up in this
    module's globals when it runs, so a rebinding (the benchmark's tracer, a
    test) sees the call.  Each suite's checks, failures and wall time go to
    report.totals.  The full default run takes well under five minutes.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    selected = SUITES if suite == "all" else (suite,)
    if "exact" in selected:
        check_exact_args(n_max)
    if "mc" in selected:
        check_mc_args(trials, seed, workers)
    runners = {
        "exact": lambda: run_exact_crosschecks(n_max),
        "identities": lambda: run_identity_selftests(),
        "lemma3": lambda: run_lemma3_checks(),
        "mc": lambda: run_mc_crosschecks(trials, seed, workers=workers),
    }
    report = VerificationReport()
    for name in selected:
        t0 = time.perf_counter()
        part = runners[name]()
        seconds = time.perf_counter() - t0
        report.extend(part)
        report.totals.append(SuiteTotal(name, len(part), len(part.failures()),
                                        int(seconds * 1000)))
    return report
