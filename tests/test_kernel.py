"""Kernel primitives against enumeration oracles and their defining recurrences."""

from fractions import Fraction
from itertools import combinations
from math import exp, factorial, isclose, lgamma

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bstick.kernel import beta_int, binomial, falling_product, fibonacci, pochhammer


def test_binomial_matches_subset_enumeration():
    # count the subsets directly rather than trusting a formula
    for n in range(0, 9):
        for j in range(0, n + 2):
            assert binomial(n, j) == sum(1 for _ in combinations(range(n), j))


def test_binomial_known_values():
    assert binomial(6, 4) == 15
    assert binomial(10, 5) == 252
    assert binomial(48, 24) == factorial(48) // (factorial(24) * factorial(24))
    assert binomial(5, 7) == 0  # j > n is an empty choice, not an error


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_pochhammer_values():
    assert pochhammer(Fraction(3, 2), 4) == Fraction(945, 16)
    assert pochhammer(5, 3) == 210
    assert pochhammer(Fraction(7, 3), 0) == 1
    with pytest.raises(ValueError):
        pochhammer(2, -1)


def pochhammer_reference(x, m):
    """The rising factorial as a loop of Fraction products."""
    out = Fraction(1)
    for i in range(m):
        out *= Fraction(x) + i
    return out


def test_pochhammer_equals_the_fraction_loop():
    xs = (0, 1, -3, Fraction(3, 2), Fraction(-7, 3), Fraction(1, 1000),
          Fraction(-22, 7), Fraction(355, 113))
    for x in xs:
        for m in range(41):
            assert pochhammer(x, m) == pochhammer_reference(x, m), (x, m)


@given(
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=50),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=150)
def test_pochhammer_recurrence(x, m):
    """(x)_{m+1} == (x)_m * (x + m), the defining relation."""
    assert pochhammer(x, m + 1) == pochhammer(x, m) * (x + m)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=60))
@settings(max_examples=150)
def test_falling_product_matches_factorial_ratio(n, m):
    if m > n:
        with pytest.raises(ValueError):
            falling_product(n, m)
    else:
        assert falling_product(n, m) == factorial(n) // factorial(n - m)


def test_falling_product_edges():
    assert falling_product(7, 0) == 1
    assert falling_product(7, 7) == factorial(7)
    with pytest.raises(ValueError):
        falling_product(0, 0)


def test_fibonacci_convention_and_values():
    # F_1 = F_2 = 1
    assert [fibonacci(j) for j in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fibonacci(0)


@given(st.integers(min_value=3, max_value=200))
@settings(max_examples=80)
def test_fibonacci_recurrence(j):
    assert fibonacci(j) == fibonacci(j - 1) + fibonacci(j - 2)


def test_beta_int_values():
    assert beta_int(4, Fraction(3, 2)) == Fraction(32, 315)
    assert beta_int(1, Fraction(1, 2)) == 2
    assert beta_int(3, 4) == Fraction(1, 60)
    with pytest.raises(ValueError):
        beta_int(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        beta_int(2, 0)


@given(
    st.integers(min_value=1, max_value=12),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10), max_denominator=20),
)
@settings(max_examples=150)
def test_beta_int_pochhammer_product(a, x):
    """B(a, x) * (x)_a == (a-1)!, the Gamma-ratio identity made exact."""
    assert beta_int(a, x) * pochhammer(x, a) == factorial(a - 1)


@given(
    st.integers(min_value=1, max_value=10),
    st.fractions(min_value=Fraction(1, 4), max_value=Fraction(8), max_denominator=16),
)
@settings(max_examples=80)
def test_beta_int_against_lgamma(a, x):
    """Cross-check the exact value against the floating Gamma function."""
    expected = exp(lgamma(a) + lgamma(float(x)) - lgamma(a + float(x)))
    got = float(beta_int(a, x))
    assert got > 0
    assert isclose(got, expected, rel_tol=1e-9)


def test_binomial_symmetry_row_sum():
    for n in range(0, 20):
        assert sum(binomial(n, j) for j in range(n + 1)) == 2**n
        for j in range(n + 1):
            assert binomial(n, j) == binomial(n, n - j)
