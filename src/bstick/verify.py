"""Cross-validation harness: every closed form against an independent oracle.

Four suites:

* exact      -- pairwise rational equalities between the general formula and
                the specialized closed forms (residual must be exactly 0);
* identities -- exact self-tests of the combinatorial identities the formulas
                rest on;
* lemma3     -- adaptive quadrature of the iterated integral that powers the
                general formula, against its exact closed value;
* mc         -- Monte Carlo estimates against exact values, plus agreement
                between the two sampler models.

Each suite returns a VerificationReport of VerificationEntry records.
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
from .montecarlo import MAX_WORKERS, SimulationConfig, estimate
from .sticks import EventSpec, SamplerModel

__all__ = [
    "VerificationEntry",
    "VerificationReport",
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

_MAX_SEED = 2**64 - 1


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


def _exact_entry(check_id: str, expected: Fraction, actual: Fraction, t0: float) -> VerificationEntry:
    equal = expected == actual
    return VerificationEntry(
        check_id=check_id,
        expected=str(expected),
        actual=str(actual),
        residual=0.0 if equal else float(abs(expected - actual)),
        tolerance=0.0,
        passed=equal,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def run_exact_crosschecks(n_max: int) -> VerificationReport:
    """Rational equality of the general k-gon formula with every closed form.

    Each exact.FORMULAS entry with a check is compared with Theorem 1 at its
    k for every n >= k.  The Whitworth survivor at x = 1/2 is held to
    n / 2^(n-1) from n = 2, where Theorem 1 is undefined.
    """
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    report = VerificationReport()
    for n in range(2, n_max + 1):
        t0 = time.perf_counter()
        report.add(_exact_entry(
            f"exact/whitworth-half/n={n:02d}",
            Fraction(n, 2 ** (n - 1)),
            exact.whitworth_survivor(n, Fraction(1, 2), cap=max(n, exact.DEFAULT_N_CAP)),
            t0,
        ))
    for n in range(3, n_max + 1):
        cap = max(n, exact.DEFAULT_N_CAP)
        for formula in exact.FORMULAS.values():
            if formula.check is None or formula.k_of_n(n) > n:
                continue
            t0 = time.perf_counter()
            report.add(_exact_entry(
                f"exact/{formula.check}/n={n:02d}",
                formula.evaluate(n, None, cap),
                exact.prob_all_kgon(formula.k_of_n(n), n, cap=cap),
                t0,
            ))
    return report


def _aggregate_entry(check_id: str, failures: int, cases: int, t0: float) -> VerificationEntry:
    return VerificationEntry(
        check_id=check_id,
        expected=f"0 failures in {cases} cases",
        actual=f"{failures} failures in {cases} cases",
        residual=float(failures),
        tolerance=0.0,
        passed=failures == 0,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def run_identity_selftests() -> VerificationReport:
    """Exact identity checks: the alternating factorial sum and kernel recurrences."""
    report = VerificationReport()
    for k in range(4, 21):
        t0 = time.perf_counter()
        ok = exact.alternating_factorial_identity(k)
        report.add(VerificationEntry(
            check_id=f"identity/alt-factorial/k={k:02d}",
            expected=str(Fraction(1, math.factorial(k - 2))),
            actual="equal" if ok else "mismatch",
            residual=0.0 if ok else 1.0,
            tolerance=0.0,
            passed=ok,
            runtime_ms=int((time.perf_counter() - t0) * 1000),
        ))

    t0 = time.perf_counter()
    xs = [Fraction(3, 2), Fraction(7, 5), Fraction(1, 3), Fraction(11, 4)]
    failures = cases = 0
    for x in xs:
        for m in range(0, 21):
            cases += 1
            if pochhammer(x, m + 1) != pochhammer(x, m) * (x + m):
                failures += 1
    report.add(_aggregate_entry("identity/pochhammer-recurrence", failures, cases, t0))

    t0 = time.perf_counter()
    failures = cases = 0
    for a in range(1, 13):
        for x in xs:
            cases += 1
            if beta_int(a, x) * pochhammer(x, a) != math.factorial(a - 1):
                failures += 1
    report.add(_aggregate_entry("identity/beta-pochhammer-product", failures, cases, t0))

    t0 = time.perf_counter()
    failures = cases = 0
    for n in range(1, 41):
        for j in range(1, n + 1):
            cases += 1
            if binomial(n, j) != binomial(n - 1, j - 1) + binomial(n - 1, j):
                failures += 1
    report.add(_aggregate_entry("identity/pascal-recurrence", failures, cases, t0))

    t0 = time.perf_counter()
    failures = cases = 0
    for j in range(3, 91):
        cases += 1
        if fibonacci(j) != fibonacci(j - 1) + fibonacci(j - 2):
            failures += 1
    report.add(_aggregate_entry("identity/fibonacci-recurrence", failures, cases, t0))
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
                    passed = residual <= tol
                    actual = f"residual={residual:.3e}"
                except Exception as err:  # quadrature warnings escalated above
                    residual = math.inf
                    passed = False
                    actual = f"quadrature failed: {err}"
                report.add(VerificationEntry(
                    check_id=f"lemma3/k={k}/n={n}/j={j}",
                    expected=str(closed),
                    actual=actual,
                    residual=residual,
                    tolerance=tol,
                    passed=passed,
                    runtime_ms=int((time.perf_counter() - t0) * 1000),
                ))
    return report


def _mc_entry(
    check_id: str, exact_p: Fraction, config: SimulationConfig, workers: int
) -> VerificationEntry:
    t0 = time.perf_counter()
    res = estimate(config, workers=workers)
    p = float(exact_p)
    tol = 5.0 * math.sqrt(p * (1.0 - p) / config.trials)
    residual = abs(res.p_hat - p)
    return VerificationEntry(
        check_id=check_id,
        expected=str(exact_p),
        actual=f"{res.p_hat:.12g}",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def _mix64(seed: int) -> int:
    """SplitMix64 finalizer; derives the second model's seed for equivalence runs."""
    z = (seed + 0x9E3779B97F4A7C15) & _MAX_SEED
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MAX_SEED
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MAX_SEED
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
    diff = abs(res_a.p_hat - res_b.p_hat)
    tol = 5.0 * math.sqrt(res_a.std_error**2 + res_b.std_error**2)
    return VerificationEntry(
        check_id=f"mc/sampler-equivalence/{event.label()}/n={n}",
        expected=f"{res_a.p_hat:.12g}",
        actual=f"{res_b.p_hat:.12g}",
        residual=diff,
        tolerance=tol,
        passed=diff <= tol,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def check_mc_args(trials: int, seed: int, workers: int) -> None:
    """Reject arguments of the mc suite before any suite runs."""
    if trials < 10**4:
        raise ValueError("trials must be >= 10^4")
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{MAX_WORKERS}, got {workers}")


def run_mc_crosschecks(trials: int, seed: int, workers: int = 1) -> VerificationReport:
    """Monte Carlo estimates against exact values on a fixed grid.

    Pass band is 5 binomial standard errors around the exact probability
    (false-failure odds about 6e-7 per entry).  The runs take the seeds
    seed, seed + 1, ... modulo 2^64, in order.
    """
    check_mc_args(trials, seed, workers)
    report = VerificationReport()
    streams = ((seed + i) & _MAX_SEED for i in itertools.count())

    for n in range(3, 9):
        for k in range(3, n + 1):
            report.add(_mc_entry(
                f"mc/all/k={k}/n={n}",
                exact.prob_all_kgon(k, n),
                SimulationConfig(n=n, event=EventSpec.all_k_subsets(k),
                                 model=SamplerModel.UNIFORM_BREAKS,
                                 trials=trials, seed=next(streams)),
                workers,
            ))

    for n, x in ((4, Fraction(1, 2)), (5, Fraction(1, 3)), (6, Fraction(1, 4))):
        report.add(_mc_entry(
            f"mc/whitworth/n={n}/x={x}",
            exact.whitworth_survivor(n, x),
            SimulationConfig(n=n, event=EventSpec.max_spacing(x),
                             model=SamplerModel.UNIFORM_BREAKS,
                             trials=trials, seed=next(streams)),
            workers,
        ))

    for n in (4, 5):
        report.add(_mc_entry(
            f"mc/exists/k=3/n={n}",
            exact.prob_exists_triangle(n),
            SimulationConfig(n=n, event=EventSpec.exists_k(3),
                             model=SamplerModel.UNIFORM_BREAKS,
                             trials=trials, seed=next(streams)),
            workers,
        ))

    for k, n in ((3, 5), (4, 6), (5, 7)):
        report.add(sampler_equivalence_test(
            n, EventSpec.all_k_subsets(k), trials, next(streams), workers=workers))
    report.add(sampler_equivalence_test(
        6, EventSpec.max_spacing(Fraction(1, 2)), trials, next(streams), workers=workers))
    return report


def run_all(n_max: int = 20, trials: int = 10**5, seed: int = 0, workers: int = 1) -> VerificationReport:
    """The full default suite; completes in well under five minutes."""
    check_mc_args(trials, seed, workers)
    report = VerificationReport()
    report.extend(run_exact_crosschecks(n_max))
    report.extend(run_identity_selftests())
    report.extend(run_lemma3_checks())
    report.extend(run_mc_crosschecks(trials, seed, workers=workers))
    return report
