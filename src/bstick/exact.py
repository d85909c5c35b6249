"""Closed-form broken-stick probabilities, evaluated in exact rational arithmetic.

Everything in this module returns :class:`fractions.Fraction` values, so every
cross-formula comparison is an equality test.  The general k-gon formula
(Theorem 1, :func:`prob_all_kgon`) is an alternating sum with binomial-sized
terms; it is evaluated term by term as integer ratios.  The older special
cases it generalizes (all n pieces, triangles, the Beta forms for k = 4 and 5)
and the related Whitworth and exists-triangle forms are kept as independent
closed forms.  :data:`FORMULAS` lists every form by its command-line name,
with the options it takes and the Theorem 1 cross-check that holds it.

Every closed form and every table cell (:func:`table_cells`) refuses n above
:data:`MAX_CAP` before any arithmetic.  The Whitworth form also refuses work
above :data:`WHITWORTH_WORK_BUDGET`, and a table above :data:`TABLE_WORK_BUDGET`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# pochhammer is not called here, but perfbench's tracer rebinds exact.pochhammer.
from .kernel import beta_int, binomial, falling_product, fibonacci, pochhammer

__all__ = [
    "MAX_CAP",
    "WHITWORTH_WORK_BUDGET",
    "TABLE_WORK_BUDGET",
    "FORMULAS",
    "CapExceededError",
    "Formula",
    "prob_all_kgon",
    "prob_all_ngon",
    "prob_all_triangle",
    "prob_all_quadrilateral_beta",
    "prob_all_pentagon_beta",
    "whitworth_survivor",
    "prob_exists_triangle",
    "alternating_factorial_identity",
    "table_cells",
]

# The largest n of every closed form.  The slowest FORMULAS value here, Theorem 1
# near k = n/2, took about 1.0 s on a 2 vCPU Xeon; at n = 1000 it took 2.1 s.
MAX_CAP = 800
# whitworth_survivor's work: terms * ((n - 1) * bits of x's denominator)^2.
# Each term's power and gcd act on integers of (n - 1) * bits bits, at about
# 2.5e-12 s per unit on a 2 vCPU Xeon, so this budget is about 1 s.  The value
# has at most (n - 1) * bits bits, and printing it in decimal costs about that
# squared, so the budget bounds printing too: at its edge (one term, n = 800,
# a 791-bit denominator) `bstick exact` took 1.6 s on that host, printing included.
WHITWORTH_WORK_BUDGET = 4 * 10**11
# Theorem 1 at (k, n) adds m = n - k + 2 terms, each over a product of k - 2
# factors, into a sum whose denominator grows to about m*k bits.  A cell and its
# record cost about mk * (mk * bits(mk) + 94_000) + m * (9_800*m + 1_780_000)
# work units, mk = m*k.  On a 2 vCPU Xeon a unit took 1.9e-12 to 2.8e-12 s over
# the cells n in {50, 100, 200, 400, 800} x k in {3, n/4, n/2, 0.6n, 0.75n, 0.9n},
# and 1.6e-12 to 3.0e-12 s over eleven whole tables, so a table within the budget
# takes at most about 6 s.  From a fresh interpreter, printing included,
# --k 3:12 --n 778:800 (0.98x the budget) took 5.9 s and --k 3:200 --n 195:200
# (0.98x) 5.0 s; --k 560:567 --n 800 (1.35x) is refused.
TABLE_WORK_BUDGET = 2 * 10**12


class CapExceededError(Exception):
    """An exact value's n or work exceeds its bound; raised before the work starts."""


def _check_cap(n: int) -> None:
    if n > MAX_CAP:
        raise CapExceededError(f"n={n} exceeds the limit MAX_CAP = {MAX_CAP}")


def prob_all_kgon(k: int, n: int) -> Fraction:
    """Probability that every choice of k pieces out of n forms a k-gon.

    Theorem 1, with m = n-k+2:

        [n(n-1)...(n-k+3) / m] *
            sum_{j=1}^{m} (-1)^{j+1} j^{-(k-3)} C(m, j) / (m/j + 1)_{k-2}

    The prefactor has exactly k-2 falling factors.  Since
    (m/j + 1)_{k-2} * j^{k-2} = prod_{i=1}^{k-2} (m + ij), term j is
    evaluated as the integer ratio C(m, j) * j / prod_{i=1}^{k-2} (m + ij),
    the same rational with no Fraction arithmetic inside the term.
    """
    if not 3 <= k <= n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={n}")
    _check_cap(n)
    m = n - k + 2
    total = Fraction(0)
    for j in range(1, m + 1):
        term = Fraction(binomial(m, j) * j, math.prod(range(m + j, m + (k - 2) * j + 1, j)))
        total += term if j % 2 == 1 else -term
    return Fraction(falling_product(n, k - 2), m) * total


def prob_all_ngon(n: int) -> Fraction:
    """Probability that the n pieces themselves form an n-gon: 1 - n/2^(n-1)."""
    if n < 3:
        raise ValueError("prob_all_ngon requires n >= 3")
    _check_cap(n)
    return 1 - Fraction(n, 2 ** (n - 1))


def prob_all_triangle(n: int) -> Fraction:
    """Probability that every triple of the n pieces forms a triangle: 1/C(2n-2, n)."""
    if n < 3:
        raise ValueError("prob_all_triangle requires n >= 3")
    _check_cap(n)
    return Fraction(1, binomial(2 * n - 2, n))


def prob_all_quadrilateral_beta(n: int) -> Fraction:
    """Every-4-subset probability via its Beta-function form.

    [n(n-1)/(n-2)] * ( B(n-1, (n-2)/2)/2 - B(n-1, n-2) ), exactly.
    """
    if n < 4:
        raise ValueError("prob_all_quadrilateral_beta requires n >= 4")
    _check_cap(n)
    a = n - 1
    combo = Fraction(1, 2) * beta_int(a, Fraction(n - 2, 2)) - beta_int(a, n - 2)
    return Fraction(n * (n - 1), n - 2) * combo


def prob_all_pentagon_beta(n: int) -> Fraction:
    """Every-5-subset probability via its Beta-function form.

    [n(n-1)(n-2)/(n-3)^2] *
        ( B(n-2, (n-3)/3)/2 + B(n-2, n-3)/2 - B(n-2, (n-3)/2) ), exactly.
    """
    if n < 5:
        raise ValueError("prob_all_pentagon_beta requires n >= 5")
    _check_cap(n)
    a = n - 2
    combo = (
        Fraction(1, 2) * beta_int(a, Fraction(n - 3, 3))
        + Fraction(1, 2) * beta_int(a, n - 3)
        - beta_int(a, Fraction(n - 3, 2))
    )
    return Fraction(n * (n - 1) * (n - 2), (n - 3) ** 2) * combo


def whitworth_survivor(n: int, x: Fraction) -> Fraction:
    """P(largest spacing > x) for n uniform spacings of the unit interval.

    Inclusion-exclusion sum over j with jx < 1:
        sum (-1)^{j+1} (1 - jx)^{n-1} C(n, j)

    Raises CapExceededError before the first power when the sum's work,
    terms * ((n - 1) * bits of x's denominator)^2, exceeds
    WHITWORTH_WORK_BUDGET.
    """
    if n < 2:
        raise ValueError("whitworth_survivor requires n >= 2")
    _check_cap(n)
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("whitworth_survivor requires 0 < x < 1")
    terms = min(n, (x.denominator - 1) // x.numerator)  # the j >= 1 with jx < 1
    bits = x.denominator.bit_length()
    if terms * ((n - 1) * bits) ** 2 > WHITWORTH_WORK_BUDGET:
        raise CapExceededError(
            f"whitworth at n={n} with {terms} terms and a {bits}-bit denominator of x "
            f"exceeds the work bound WHITWORTH_WORK_BUDGET = {WHITWORTH_WORK_BUDGET}")
    total = Fraction(0)
    for j in range(1, terms + 1):
        term = (1 - j * x) ** (n - 1) * binomial(n, j)
        total += term if j % 2 == 1 else -term
    return total


def prob_exists_triangle(n: int) -> Fraction:
    """Probability that some triple of the n pieces forms a triangle.

    1 - n! * prod_{j=2}^{n} (F_{j+2} - 1)^{-1}, with F_1 = F_2 = 1.
    """
    if n < 3:
        raise ValueError("prob_exists_triangle requires n >= 3")
    _check_cap(n)
    denom = 1
    for j in range(2, n + 1):
        denom *= fibonacci(j + 2) - 1
    return 1 - Fraction(math.factorial(n), denom)


def alternating_factorial_identity(k: int) -> bool:
    """Self-test: sum_{i=2}^{k-1} (-1)^i / ((i-1)!(k-1-i)!) == 1/(k-2)!.

    Both sides are evaluated exactly; returns their equality.  It reproduces
    a step of the paper's proof and guards no code path.
    """
    if k < 4:
        raise ValueError("alternating_factorial_identity requires k >= 4")
    lhs = Fraction(0)
    for i in range(2, k):
        term = Fraction(1, math.factorial(i - 1) * math.factorial(k - 1 - i))
        lhs += term if i % 2 == 0 else -term
    return lhs == Fraction(1, math.factorial(k - 2))


def table_cells(k_range: tuple[int, int], n_range: tuple[int, int]) -> list[tuple[int, int]]:
    """A Theorem 1 table's (n, k) cells with k <= n, k-major, walking no k beyond
    the largest n; its n and its work are bounded before any value is evaluated."""
    (k_lo, k_hi), (n_lo, n_hi) = k_range, n_range
    if k_lo < 3:
        raise ValueError("k range must start at 3 or above")
    _check_cap(n_hi)
    cells, work = [], 0
    for k in range(k_lo, min(k_hi, n_hi) + 1):
        for n in range(max(k, n_lo), n_hi + 1):
            m = n - k + 2
            mk = m * k
            work += mk * (mk * mk.bit_length() + 94_000) + m * (9_800 * m + 1_780_000)
            if work > TABLE_WORK_BUDGET:
                raise CapExceededError(
                    f"the table exceeds the work bound TABLE_WORK_BUDGET = "
                    f"{TABLE_WORK_BUDGET}; narrow --k or --n")
            cells.append((n, k))
    return cells


@dataclass(frozen=True)
class Formula:
    """One closed form, as `bstick exact`, `bstick table` and the exact cross-checks use it.

    ``evaluate(n, arg)`` returns the exact value, where ``arg`` is the
    value of the form's own option (``arg`` names it: "k", "x" or None).
    ``k_of_n`` gives the polygon size of a fixed-polygon form, recorded as the
    record's k.  ``check`` names the `verify --suite exact` check that holds
    the form equal to Theorem 1 at k_of_n(n), for every n with k_of_n(n) <= n.
    """

    evaluate: Callable[[int, Any], Fraction]
    arg: str | None = None
    k_of_n: Callable[[int], int] | None = None
    check: str | None = None


# The lambdas look each function up in this module's globals at call time, so
# a rebinding of a module attribute (the benchmark's tracer) sees every call.
FORMULAS: dict[str, Formula] = {
    "theorem1": Formula(lambda n, k: prob_all_kgon(k, n), arg="k"),
    "pnn": Formula(lambda n, _: prob_all_ngon(n), k_of_n=lambda n: n, check="ngon-closed"),
    "p3n": Formula(lambda n, _: prob_all_triangle(n), k_of_n=lambda n: 3, check="triangle-closed"),
    "p4n-beta": Formula(lambda n, _: prob_all_quadrilateral_beta(n),
                        k_of_n=lambda n: 4, check="quadrilateral-beta"),
    "p5n-beta": Formula(lambda n, _: prob_all_pentagon_beta(n),
                        k_of_n=lambda n: 5, check="pentagon-beta"),
    "whitworth": Formula(lambda n, x: whitworth_survivor(n, x), arg="x"),
    "exists-triangle": Formula(lambda n, _: prob_exists_triangle(n), k_of_n=lambda n: 3),
}
