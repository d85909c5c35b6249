"""Cross-validation harness: every closed form against an independent oracle.

Four suites (SUITES, in the order "all" runs them):

* exact      -- pairwise rational equalities between the general formula and
                the specialized closed forms (residual must be exactly 0),
                one per exact.FORMULAS entry with a check and each n <= n_max;
* identities -- exact self-tests of the combinatorial identities the formulas
                rest on; the kernel recurrences are one table (_RECURRENCES)
                of name -> (cases, identity), run by one loop;
* lemma3     -- adaptive quadrature of the iterated integral that powers the
                general formula, against its exact closed value;
* mc         -- Monte Carlo estimates against exact values, one list of
                (check id, n, event, exact value) run by one loop, plus
                agreement between the two sampler models.

Each suite returns a VerificationReport of VerificationEntry records, all
built by _entry.  run_all is the one dispatcher: it checks the arguments of
every selected suite (check_exact_args, check_mc_args) before any suite runs.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact
from .kernel import beta_int, binomial, fibonacci, pochhammer
from .montecarlo import MAX_SEED, MAX_WORKERS, SimulationConfig, estimate
from .sticks import EventSpec, SamplerModel

__all__ = [
    "VerificationEntry",
    "VerificationReport",
    "SUITES",
    "check_exact_args",
    "run_exact_crosschecks",
    "run_identity_selftests",
    "lemma3_residual",
    "run_lemma3_checks",
    "check_mc_args",
    "sampler_equivalence_test",
    "run_mc_crosschecks",
    "run_all",
]

LEMMA3_TOLERANCES = {4: 1e-8, 5: 1e-6, 6: 1e-5}


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


@dataclass
class VerificationReport:
    """An ordered collection of verification entries."""

    entries: list[VerificationEntry] = field(default_factory=list)

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
    t0: float, passed: bool | None = None,
) -> VerificationEntry:
    """The one builder of entries; passes iff residual <= tolerance unless told."""
    return VerificationEntry(
        check_id=check_id,
        expected=str(expected),
        actual=str(actual),
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance if passed is None else passed,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def _exact_entry(
    check_id: str, expected: Fraction, actual: Fraction, t0: float
) -> VerificationEntry:
    # Equality decides: a nonzero difference can round to a residual of 0.0.
    equal = expected == actual
    residual = 0.0 if equal else float(abs(expected - actual))
    return _entry(check_id, expected, actual, residual, 0.0, t0, passed=equal)


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
            t0,
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
                t0,
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
                          "equal" if ok else "mismatch", 0.0 if ok else 1.0, 0.0, t0))
    for name, (cases, identity) in _RECURRENCES.items():
        t0 = time.perf_counter()
        failures = len(cases) - sum(itertools.starmap(identity, cases))
        report.add(_entry(f"identity/{name}",
                          f"0 failures in {len(cases)} cases",
                          f"{failures} failures in {len(cases)} cases",
                          float(failures), 0.0, t0))
    return report


def lemma3_closed_value(k: int, n: int, j: int) -> Fraction:
    """Exact value of the iterated integral: -j^-(k-3) / ((n-k+2)/j + 1)_(k-2)."""
    return -Fraction(1, j ** (k - 3)) / pochhammer(Fraction(n - k + 2, j) + 1, k - 2)


def lemma3_residual(k: int, n: int, j: int) -> float:
    """|quadrature(LHS) - exact(RHS)| for the iterated-integral identity.

    The integral over x in (0, inf) of

        e^(-(n-k+2)x) * I_inner(x),

    where I_inner nests k-4 more integrals of
    e^(-j(2*x2 + x3 + ... )) - e^(-j(x2 + ... )) over 0 < x2 < ... < x.
    The outer integral is truncated where its exponential weight falls
    below 1e-16; inner regions keep their exact bounds.
    """
    if k not in (4, 5, 6):
        raise ValueError("quadrature check supports k in {4, 5, 6}")
    if n < k:
        raise ValueError("need n >= k")
    if not 1 <= j <= n - k + 2:
        raise ValueError("need 1 <= j <= n-k+2")
    # scipy is loaded here, not at import: only the quadrature needs it.
    from scipy import integrate

    lam = n - k + 2
    x_max = -math.log(1e-16) / lam

    if k == 4:
        def outer(x: float) -> float:
            return math.exp(-lam * x) * (math.exp(-2 * j * x) - math.exp(-j * x))
    elif k == 5:
        def inner(x3: float) -> float:
            f = lambda x2: math.exp(-j * (2 * x2 + x3)) - math.exp(-j * (x2 + x3))
            val, _ = integrate.quad(f, 0.0, x3, epsabs=1e-12, epsrel=1e-11)
            return val

        def outer(x: float) -> float:
            return math.exp(-lam * x) * inner(x)
    else:
        def inner2(x3: float, x4: float) -> float:
            f = lambda x2: (
                math.exp(-j * (2 * x2 + x3 + x4)) - math.exp(-j * (x2 + x3 + x4))
            )
            val, _ = integrate.quad(f, 0.0, x3, epsabs=1e-12, epsrel=1e-11)
            return val

        def inner(x4: float) -> float:
            val, _ = integrate.quad(inner2, 0.0, x4, args=(x4,), epsabs=1e-11, epsrel=1e-10)
            return val

        def outer(x: float) -> float:
            return math.exp(-lam * x) * inner(x)

    lhs, _ = integrate.quad(outer, 0.0, x_max, epsabs=1e-12, epsrel=1e-11, limit=200)
    rhs = float(lemma3_closed_value(k, n, j))
    return abs(lhs - rhs)


def run_lemma3_checks(
    k_values: tuple[int, ...] = (4, 5), n_max: int = 8, j_max: int = 3
) -> VerificationReport:
    """Quadrature residual entries over a (k, n, j) grid.

    Quadrature trouble (warnings or failure to converge) marks the entry
    failed rather than raising.
    """
    from scipy import integrate

    report = VerificationReport()
    for k in k_values:
        tol = LEMMA3_TOLERANCES[k]
        for n in range(k, n_max + 1):
            for j in range(1, min(j_max, n - k + 2) + 1):
                t0 = time.perf_counter()
                closed = lemma3_closed_value(k, n, j)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", integrate.IntegrationWarning)
                        residual = lemma3_residual(k, n, j)
                    actual = f"residual={residual:.3e}"
                except Exception as err:  # quadrature warnings escalated above
                    residual = math.inf
                    actual = f"quadrature failed: {err}"
                report.add(_entry(f"lemma3/k={k}/n={n}/j={j}", closed, actual,
                                  residual, tol, t0))
    return report


def _mix64(seed: int) -> int:
    """SplitMix64 finalizer; derives the second model's seed for equivalence runs."""
    z = (seed + 0x9E3779B97F4A7C15) & MAX_SEED
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MAX_SEED
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MAX_SEED
    return z ^ (z >> 31)


def sampler_equivalence_test(
    n: int, event: EventSpec, trials: int, seed: int, workers: int = 1
) -> VerificationEntry:
    """Estimate the same event under both sampler models and compare.

    The models realize the same spacing distribution, so the two estimates
    must agree within 5 combined binomial standard errors.
    """
    t0 = time.perf_counter()
    res_a = estimate(
        SimulationConfig(n=n, event=event, model=SamplerModel.UNIFORM_BREAKS,
                         trials=trials, seed=seed),
        workers=workers,
    )
    res_b = estimate(
        SimulationConfig(n=n, event=event, model=SamplerModel.EXPONENTIAL_NORMALIZED,
                         trials=trials, seed=_mix64(seed)),
        workers=workers,
    )
    return _entry(
        f"mc/sampler-equivalence/{event.label()}/n={n}",
        f"{res_a.p_hat:.12g}",
        f"{res_b.p_hat:.12g}",
        abs(res_a.p_hat - res_b.p_hat),
        5.0 * math.sqrt(res_a.std_error**2 + res_b.std_error**2),
        t0,
    )


def check_mc_args(trials: int, seed: int, workers: int) -> None:
    """Reject arguments of the mc suite before any suite runs."""
    if trials < 10**4:
        raise ValueError("trials must be >= 10^4")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{MAX_WORKERS}, got {workers}")


def run_mc_crosschecks(trials: int, seed: int, workers: int = 1) -> VerificationReport:
    """Monte Carlo estimates against exact values on a fixed grid.

    Pass band is 5 binomial standard errors around the exact probability
    (false-failure odds about 6e-7 per entry).  The runs take the seeds
    seed, seed + 1, ... modulo 2^64, in order: first the estimates against
    exact values, then the sampler-equivalence pairs.
    """
    check_mc_args(trials, seed, workers)
    # (check id, n, event, exact value), in stream order.
    against_exact = [
        *((f"mc/all/k={k}/n={n}", n, EventSpec.all_k_subsets(k), exact.prob_all_kgon(k, n))
          for n in range(3, 9) for k in range(3, n + 1)),
        *((f"mc/whitworth/n={n}/x={x}", n, EventSpec.max_spacing(x),
           exact.whitworth_survivor(n, x))
          for n, x in ((4, Fraction(1, 2)), (5, Fraction(1, 3)), (6, Fraction(1, 4)))),
        *((f"mc/exists/k=3/n={n}", n, EventSpec.exists_k(3), exact.prob_exists_triangle(n))
          for n in (4, 5)),
    ]
    # (n, event) of each sampler-equivalence pair, in stream order.
    equivalences = [
        (5, EventSpec.all_k_subsets(3)),
        (6, EventSpec.all_k_subsets(4)),
        (7, EventSpec.all_k_subsets(5)),
        (6, EventSpec.max_spacing(Fraction(1, 2))),
    ]
    report = VerificationReport()
    streams = ((seed + i) & MAX_SEED for i in itertools.count())
    for check_id, n, event, exact_p in against_exact:
        t0 = time.perf_counter()
        res = estimate(
            SimulationConfig(n=n, event=event, model=SamplerModel.UNIFORM_BREAKS,
                             trials=trials, seed=next(streams)),
            workers=workers,
        )
        p = float(exact_p)
        report.add(_entry(check_id, exact_p, f"{res.p_hat:.12g}", abs(res.p_hat - p),
                          5.0 * math.sqrt(p * (1.0 - p) / trials), t0))
    for n, event in equivalences:
        report.add(sampler_equivalence_test(n, event, trials, next(streams), workers=workers))
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
    test) sees the call.  The full default run takes well under five minutes.
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
        report.extend(runners[name]())
    return report
