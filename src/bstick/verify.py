"""Cross-validation harness: every closed form against an independent oracle.

Four suites (SUITES, in the order "all" runs them):

* exact      -- pairwise rational equalities between the general formula and
                the specialized closed forms (residual must be exactly 0),
                one per exact.FORMULAS entry with a check and each n <= n_max;
* identities -- exact self-tests: the paper's alternating factorial sum, and
                one table (_RECURRENCES) run by one loop, whose entries guard
                beta_int and Lemma 3 (Pochhammer), exists-triangle (Fibonacci:
                the seeds F_1 = F_2 = 1 and the recurrence) and the printed
                Theorem 1 values (theorem1-from-lemma3);
* lemma3     -- the iterated integral that powers the general formula,
                integrated exactly in rationals, against its exact closed
                value (residual must be exactly 0) at 4 <= k <= 8, n <= 10,
                j <= 3 (_LEMMA3_GRID);
* mc         -- Monte Carlo estimates on one table in stream order, _MC_GRID,
                whose rows name the sampler model and the exact.FORMULAS
                entry each estimate is held to.  Its 30 estimates run whole,
                `workers` at a time, through montecarlo.run_in_order;
                workers never changes a result.

Each suite returns a VerificationReport of VerificationEntry records, all
built by _entry.  run_all is the one dispatcher: it checks the arguments of
every selected suite (check_exact_args, check_mc_args, the latter including
the trial budget over the whole mc grid) before any suite runs, and records
each suite's totals (SuiteTotal).  The runtime needs numpy and the standard
library only.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact
from .kernel import binomial, falling_product, fibonacci, pochhammer
from .montecarlo import (
    MAX_SEED,
    SimulationConfig,
    check_budget,
    check_workers,
    estimate,
    run_in_order,
)
from .sticks import EventSpec, SamplerModel

__all__ = [
    "VerificationEntry",
    "SuiteTotal",
    "VerificationReport",
    "SUITES",
    "SUITE_CHOICES",
    "check_exact_args",
    "run_exact_crosschecks",
    "run_identity_selftests",
    "lemma3_residual",
    "run_lemma3_checks",
    "check_mc_args",
    "run_mc_crosschecks",
    "run_all",
]


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
    passed: bool | None = None,
) -> VerificationEntry:
    """The one builder of entries; passes iff residual <= tolerance unless told."""
    return VerificationEntry(
        check_id=check_id,
        expected=str(expected),
        actual=str(actual),
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance if passed is None else passed,
    )


def _exact_entry(check_id: str, expected: Fraction, actual: Fraction) -> VerificationEntry:
    # Equality decides: a nonzero difference can round to a residual of 0.0.
    equal = expected == actual
    residual = 0.0 if equal else float(abs(expected - actual))
    return _entry(check_id, expected, actual, residual, 0.0, passed=equal)


# The largest --n-max: the exact suite took 0.91 s at 200 and grows about as
# n_max^2.5.
N_MAX_LIMIT = 200


def check_exact_args(n_max: int) -> None:
    """Reject arguments of the exact suite before any suite runs.

    n_max above N_MAX_LIMIT raises CapExceededError, which bounds the suite's time.
    """
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    if n_max > N_MAX_LIMIT:
        raise exact.CapExceededError(
            f"n_max={n_max} exceeds the limit N_MAX_LIMIT = {N_MAX_LIMIT}")


def run_exact_crosschecks(n_max: int) -> VerificationReport:
    """Rational equality of the general k-gon formula with every closed form.

    Each exact.FORMULAS entry with a check is compared with Theorem 1 at its
    k for every n >= k.  The Whitworth survivor at x = 1/2 is held to
    n / 2^(n-1) from n = 2, where Theorem 1 is undefined.
    """
    check_exact_args(n_max)
    report = VerificationReport()
    for n in range(2, n_max + 1):
        report.add(_exact_entry(
            f"exact/whitworth-half/n={n:02d}",
            Fraction(n, 2 ** (n - 1)),
            exact.whitworth_survivor(n, Fraction(1, 2)),
        ))
    for n in range(3, n_max + 1):
        for formula in exact.FORMULAS.values():
            if formula.check is None or formula.k_of_n(n) > n:
                continue
            report.add(_exact_entry(
                f"exact/{formula.check}/n={n:02d}",
                formula.evaluate(n, None),
                exact.prob_all_kgon(formula.k_of_n(n), n),
            ))
    return report


_XS = (Fraction(3, 2), Fraction(7, 5), Fraction(1, 3), Fraction(11, 4))

# Identity checks, each guarding printed values (module docstring): name ->
# (cases, identity), one entry counting the cases where it fails.
# theorem1-from-lemma3 sums Lemma 3's closed values as the paper does, with
# m = n - k + 2, at the k in 6..n-1 that the exact suite never reaches.  The
# lambdas look each name up at call time, so the benchmark's tracer sees them.
_RECURRENCES = {
    "pochhammer-recurrence": (
        [(x, m) for x in _XS for m in range(21)],
        lambda x, m: pochhammer(x, m + 1) == pochhammer(x, m) * (x + m),
    ),
    "fibonacci-recurrence": (
        [(j,) for j in range(3, 91)],
        lambda j: fibonacci(1) == fibonacci(2) == 1
        and fibonacci(j) == fibonacci(j - 1) + fibonacci(j - 2),
    ),
    "theorem1-from-lemma3": (
        [(k, n, n - k + 2) for n in range(7, 13) for k in range(6, n)],
        lambda k, n, m: exact.prob_all_kgon(k, n) == Fraction(falling_product(n, k - 2), m) * sum(
            (-1) ** j * binomial(m, j) * lemma3_closed_value(k, n, j) for j in range(1, m + 1)),
    ),
}


def run_identity_selftests() -> VerificationReport:
    """Exact identity checks: the alternating factorial sum, then _RECURRENCES."""
    report = VerificationReport()
    for k in range(4, 21):
        ok = exact.alternating_factorial_identity(k)
        report.add(_entry(f"identity/alt-factorial/k={k:02d}",
                          Fraction(1, math.factorial(k - 2)),
                          "equal" if ok else "mismatch", 0.0 if ok else 1.0, 0.0))
    for name, (cases, identity) in _RECURRENCES.items():
        failures = len(cases) - sum(itertools.starmap(identity, cases))
        report.add(_entry(f"identity/{name}",
                          f"0 failures in {len(cases)} cases",
                          f"{failures} failures in {len(cases)} cases",
                          float(failures), 0.0))
    return report


def lemma3_closed_value(k: int, n: int, j: int) -> Fraction:
    """Exact value of the iterated integral: -j^-(k-3) / ((n-k+2)/j + 1)_(k-2)."""
    return -Fraction(1, j ** (k - 3)) / pochhammer(Fraction(n - k + 2, j) + 1, k - 2)


def _lemma3_integral(k: int, n: int, j: int) -> Fraction:
    """The iterated integral of lemma3_residual, as an exact rational.

    The integrand is held as {rate a: coefficient c}, meaning sum c*e^(-a*y).
    The innermost level is e^(-2j*y) - e^(-j*y).  Each of the k - 4 inner
    levels integrates c*e^(-a*t) over 0 < t < y, giving (c/a)(1 - e^(-a*y)),
    then multiplies by e^(-j*y).  The outer level integrates against
    e^(-lam*y) over y > 0, lam = n - k + 2, giving sum c / (a + lam).  Every
    rate stays positive, so no polynomial terms appear.
    """
    terms = {2 * j: Fraction(1), j: Fraction(-1)}
    for _ in range(k - 4):
        inner: defaultdict[int, Fraction] = defaultdict(Fraction)
        for a, c in terms.items():
            inner[j] += c / a
            inner[a + j] -= c / a
        terms = inner
    lam = n - k + 2
    return sum((c / (a + lam) for a, c in terms.items()), Fraction(0))


# The largest k of lemma3_residual.  Its cost grows about as k^3, and less
# than 2x with n <= MAX_CAP and j: on a 2 vCPU Xeon the slowest of 26 (n, j)
# cells at k = 320 took 0.93 s, MAX_CAP's ~1 s design; k = 400 took 0.9-1.8 s.
LEMMA3_MAX_K = 320


def lemma3_residual(k: int, n: int, j: int) -> Fraction:
    """Exact integral minus exact closed value; 0 when the identity holds.

    The integral over x in (0, inf) of

        e^(-(n-k+2)x) * I_inner(x),

    where I_inner nests k-4 more integrals of
    e^(-j(2*x2 + x3 + ... )) - e^(-j(x2 + ... )) over 0 < x2 < ... < x,
    is computed in rationals by _lemma3_integral, for any 4 <= k <= n.
    k above LEMMA3_MAX_K or n above exact.MAX_CAP raises CapExceededError
    before any arithmetic.
    """
    if k < 4:
        raise ValueError("need k >= 4")
    if k > LEMMA3_MAX_K:
        raise exact.CapExceededError(f"k={k} exceeds the limit LEMMA3_MAX_K = {LEMMA3_MAX_K}")
    if n < k:
        raise ValueError("need n >= k")
    exact._check_cap(n)
    if not 1 <= j <= n - k + 2:
        raise ValueError("need 1 <= j <= n-k+2")
    return _lemma3_integral(k, n, j) - lemma3_closed_value(k, n, j)


# The (k, n, j) points of the lemma3 suite: 4 <= k <= 8, n <= 10, j <= 3.
_LEMMA3_GRID = [(k, n, j) for k in range(4, 9) for n in range(k, 11)
                for j in range(1, min(3, n - k + 2) + 1)]


def run_lemma3_checks() -> VerificationReport:
    """Exact entries over _LEMMA3_GRID: the integral equals the closed value.

    Each entry's expected is the closed value and its actual the integral,
    closed value plus lemma3_residual; equality decides, as in _exact_entry.
    """
    report = VerificationReport()
    for k, n, j in _LEMMA3_GRID:
        closed = lemma3_closed_value(k, n, j)
        integral = closed + lemma3_residual(k, n, j)
        report.add(_exact_entry(f"lemma3/k={k}/n={n}/j={j}", closed, integral))
    return report


# The pass band of every mc entry, in binomial standard errors (false-failure
# odds about 6e-7 per entry).
_BAND_SE = 5.0

_UNIFORM, _EXPONENTIAL = SamplerModel.UNIFORM_BREAKS, SamplerModel.EXPONENTIAL_NORMALIZED


# The mc grid in stream order: row i takes seed + i.  A row (check id, n,
# event, formula, model) holds the model's estimate to FORMULAS[formula].  New
# rows go last, so no seed moves.
_MC_GRID = [
    *((f"mc/all/k={k}/n={n}", n, EventSpec.all_k_subsets(k), "theorem1", _UNIFORM)
      for n in range(3, 9) for k in range(3, n + 1)),
    *((f"mc/whitworth/n={n}/x={x}", n, EventSpec.max_spacing(x), "whitworth", _UNIFORM)
      for n, x in ((4, Fraction(1, 2)), (5, Fraction(1, 3)), (6, Fraction(1, 4)))),
    *((f"mc/exists/k=3/n={n}", n, EventSpec.exists_k(3), "exists-triangle", _UNIFORM)
      for n in (4, 5)),
    *((f"mc/all/k={k}/n={n}/model=exponential", n, EventSpec.all_k_subsets(k), "theorem1",
       _EXPONENTIAL) for k, n in ((3, 5), (4, 6), (5, 7))),
    ("mc/whitworth/n=6/x=1/2/model=exponential", 6, EventSpec.max_spacing(Fraction(1, 2)),
     "whitworth", _EXPONENTIAL),
]


def check_mc_args(trials: int, seed: int, workers: int) -> None:
    """Reject arguments of the mc suite before any suite runs.

    The budget covers the whole grid: trials * n summed over its 30 runs,
    that is trials * 181, above TRIAL_BUDGET raises BudgetExceededError
    (check_budget with n = 181).
    """
    if trials < 10**4:
        raise ValueError("trials must be >= 10^4")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must be an unsigned 64-bit integer")
    check_workers(workers)
    check_budget(trials, sum(n for _, n, *_ in _MC_GRID))


def run_mc_crosschecks(trials: int, seed: int, workers: int = 1) -> VerificationReport:
    """One entry per row of _MC_GRID, whose row i runs at seed + i modulo 2^64.

    Each entry holds the row model's estimate within _BAND_SE binomial
    standard errors of the exact value.  The estimates run whole, one thread
    each and up to `workers` at a time, through run_in_order, which gets this
    module's estimate as bound when the suite runs, so a rebinding (the
    benchmark's tracer, a test) sees every estimate.
    """
    check_mc_args(trials, seed, workers)
    configs = [SimulationConfig(n=n, event=event, model=model, trials=trials,
                                seed=(seed + i) & MAX_SEED)
               for i, (_, n, event, _, model) in enumerate(_MC_GRID)]
    runs = run_in_order(estimate, configs, workers)
    report = VerificationReport()
    for (check_id, n, event, formula, _), res in zip(_MC_GRID, runs):
        form = exact.FORMULAS[formula]
        exact_p = form.evaluate(n, getattr(event, form.arg) if form.arg else None)
        p = float(exact_p)
        report.add(_entry(check_id, exact_p, f"{res.p_hat:.12g}", abs(res.p_hat - p),
                          _BAND_SE * math.sqrt(p * (1.0 - p) / trials)))
    return report


# The suites in the order "all" runs them; SUITE_CHOICES are run_all's values.
SUITES = ("exact", "identities", "lemma3", "mc")
SUITE_CHOICES = (*SUITES, "all")


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
    if suite not in SUITE_CHOICES:
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
