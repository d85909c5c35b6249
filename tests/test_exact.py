"""Closed-form probabilities: frozen values, cross-formula equalities, guard rails.

The frozen rationals below were fixed by working the sums out by hand before
any of this code existed, so they are independent of the implementation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bstick import exact
from bstick.exact import (
    FORMULAS,
    MAX_CAP,
    TABLE_WORK_BUDGET,
    WHITWORTH_WORK_BUDGET,
    CapExceededError,
    alternating_factorial_identity,
    prob_all_kgon,
    prob_all_ngon,
    prob_all_pentagon_beta,
    prob_all_quadrilateral_beta,
    prob_all_triangle,
    prob_exists_triangle,
    table_cells,
    whitworth_survivor,
)
from bstick.kernel import binomial, falling_product, pochhammer

F = Fraction


def test_prob_all_kgon_domain():
    assert prob_all_kgon(3, 3) == F(1, 4)
    assert 0 < prob_all_kgon(4, 9) < 1
    for k, n in ((2, 5), (6, 5)):
        with pytest.raises(ValueError, match=f"need 3 <= k <= n, got k={k}, n={n}"):
            prob_all_kgon(k, n)


def test_prob_all_kgon_frozen_values():
    # hand-worked: (3,3) sum = 2/3 - 1/2 = 1/6, prefactor 3/2
    assert prob_all_kgon(3, 3) == F(1, 4)
    # (4,5) sum = 3/20 - 6/35 + 1/18 = 43/1260, prefactor 20/3
    assert prob_all_kgon(4, 5) == F(43, 189)
    assert prob_all_kgon(4, 4) == F(1, 2)
    assert prob_all_kgon(5, 5) == F(11, 16)
    assert prob_all_kgon(3, 4) == F(1, 15)
    assert prob_all_kgon(3, 5) == F(1, 56)
    assert prob_all_kgon(6, 6) == F(13, 16)


def _theorem1_pochhammer(k, n):
    """Theorem 1 term by term as the paper states it, kept as the reference."""
    m = n - k + 2
    total = F(0)
    for j in range(1, m + 1):
        term = F(binomial(m, j), j ** (k - 3)) / pochhammer(F(m, j) + 1, k - 2)
        total += term if j % 2 == 1 else -term
    return F(falling_product(n, k - 2), m) * total


def test_integer_term_form_equals_pochhammer_form():
    for n in range(3, 61):
        for k in range(3, n + 1):
            assert prob_all_kgon(k, n) == _theorem1_pochhammer(k, n), (k, n)


def test_prob_all_ngon_closed_form_sweep():
    for n in range(3, 31):
        assert prob_all_kgon(n, n) == 1 - F(n, 2 ** (n - 1))
        assert prob_all_ngon(n) == 1 - F(n, 2 ** (n - 1))


def test_prob_all_triangle_closed_form_sweep():
    for n in range(3, 31):
        assert prob_all_kgon(3, n) == F(1, binomial(2 * n - 2, n))
        assert prob_all_triangle(n) == prob_all_kgon(3, n)


def test_beta_forms_match_general_formula():
    for n in range(4, 31):
        assert prob_all_quadrilateral_beta(n) == prob_all_kgon(4, n)
    for n in range(5, 31):
        assert prob_all_pentagon_beta(n) == prob_all_kgon(5, n)


def test_beta_forms_frozen_values():
    assert prob_all_quadrilateral_beta(4) == F(1, 2)
    assert prob_all_quadrilateral_beta(5) == F(43, 189)
    assert prob_all_pentagon_beta(5) == F(11, 16)


def test_beta_forms_domain():
    with pytest.raises(ValueError):
        prob_all_quadrilateral_beta(3)
    with pytest.raises(ValueError):
        prob_all_pentagon_beta(4)


def test_probabilities_lie_in_unit_interval():
    for n in range(3, 31):
        for k in range(3, n + 1):
            p = prob_all_kgon(k, n)
            assert 0 < p <= 1


def test_monotone_in_k_and_n():
    """More pieces makes "every subset" harder; larger subsets make it easier.
    Checked on the computed grid up to n = 20."""
    for k in range(3, 21):
        for n in range(k, 20):
            assert prob_all_kgon(k, n) > prob_all_kgon(k, n + 1)
    for n in range(4, 21):
        for k in range(3, n):
            assert prob_all_kgon(k, n) < prob_all_kgon(k + 1, n)


def test_whitworth_frozen_values():
    assert whitworth_survivor(3, F(1, 2)) == F(3, 4)
    assert whitworth_survivor(4, F(1, 2)) == F(1, 2)
    assert whitworth_survivor(2, F(3, 10)) == 1  # max of two spacings is >= 1/2
    assert whitworth_survivor(5, F(7, 10)) == F(81, 2000)
    assert whitworth_survivor(4, F(1, 4)) == 1


def test_whitworth_half_matches_ngon_complement():
    for n in range(2, 31):
        assert whitworth_survivor(n, F(1, 2)) == F(n, 2 ** (n - 1))
    # and the n-gon event is exactly "no spacing exceeds 1/2"
    for n in range(3, 31):
        assert prob_all_ngon(n) == 1 - whitworth_survivor(n, F(1, 2))


def test_whitworth_domain():
    with pytest.raises(ValueError):
        whitworth_survivor(1, F(1, 2))
    with pytest.raises(ValueError):
        whitworth_survivor(4, F(0))
    with pytest.raises(ValueError):
        whitworth_survivor(4, F(3, 2))


@given(
    st.integers(min_value=2, max_value=40),
    st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
    st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
)
@settings(max_examples=120)
def test_whitworth_is_a_survivor_function(n, x1, x2):
    """Values in [0, 1], nonincreasing in x."""
    lo, hi = min(x1, x2), max(x1, x2)
    p_lo = whitworth_survivor(n, lo)
    p_hi = whitworth_survivor(n, hi)
    assert 0 <= p_hi <= p_lo <= 1


def test_prob_exists_triangle_frozen_values():
    assert prob_exists_triangle(3) == F(1, 4)  # with n=3 "some" and "every" coincide
    assert prob_exists_triangle(4) == F(4, 7)
    assert prob_exists_triangle(5) == F(23, 28)


def test_prob_exists_triangle_dominates_all_triples():
    for n in range(3, 25):
        assert prob_exists_triangle(n) >= prob_all_triangle(n)
    # and it increases with n: more pieces, more chances
    for n in range(3, 25):
        assert prob_exists_triangle(n + 1) > prob_exists_triangle(n)


def test_alternating_factorial_identity_holds():
    for k in range(4, 21):
        assert alternating_factorial_identity(k)
    with pytest.raises(ValueError):
        alternating_factorial_identity(3)


def test_cap_enforcement():
    """MAX_CAP is the one bound on n, and no closed form takes a cap."""
    assert prob_all_ngon(MAX_CAP) < 1
    with pytest.raises(CapExceededError, match=f"exceeds the limit MAX_CAP = {MAX_CAP}"):
        prob_all_ngon(MAX_CAP + 1)
    positional = {prob_all_kgon: (3, 5), whitworth_survivor: (5, F(1, 3))}
    for fn in (prob_all_kgon, prob_all_ngon, prob_all_triangle, prob_all_quadrilateral_beta,
               prob_all_pentagon_beta, whitworth_survivor, prob_exists_triangle):
        with pytest.raises(TypeError):
            fn(*positional.get(fn, (5,)), cap=MAX_CAP)


def test_cap_above_max_cap_is_refused_before_any_arithmetic(monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("arithmetic ran past the cap check")

    for name in ("binomial", "falling_product", "beta_int", "fibonacci"):
        monkeypatch.setattr(exact, name, no_arithmetic)
    args = {"k": 5, "x": F(1, 3), None: None}
    for formula in FORMULAS.values():
        with pytest.raises(CapExceededError, match=f"exceeds the limit MAX_CAP = {MAX_CAP}"):
            formula.evaluate(MAX_CAP + 1, args[formula.arg])


def test_whitworth_work_is_bounded_before_the_first_power(monkeypatch):
    """The sum's work, terms * ((n - 1) * bits of x's denominator)^2, is held
    to WHITWORTH_WORK_BUDGET before any term is built."""
    def no_arithmetic(*args):
        raise AssertionError("a term was built past the work check")

    b = 10**1000 + 1
    x = F(b // 3 + 1, b)  # two terms: 2x < 1 < 3x
    monkeypatch.setattr(exact, "binomial", no_arithmetic)
    for n in (MAX_CAP, 200):
        with pytest.raises(CapExceededError,
                           match=f"exceeds the work bound WHITWORTH_WORK_BUDGET = "
                                 f"{WHITWORTH_WORK_BUDGET}"):
            whitworth_survivor(n, x)
    monkeypatch.undo()
    assert 0 < whitworth_survivor(MAX_CAP, F(1, 799)) < 1  # 798 terms, inside the budget


@pytest.mark.parametrize("k_range, n_range, error, message", [
    ((3, 200), (3, 200), CapExceededError,
     f"exceeds the work bound TABLE_WORK_BUDGET = {TABLE_WORK_BUDGET}"),
    ((560, 567), (800, 800), CapExceededError,
     f"exceeds the work bound TABLE_WORK_BUDGET = {TABLE_WORK_BUDGET}"),
    ((3, 3), (3, MAX_CAP + 1), CapExceededError, f"exceeds the limit MAX_CAP = {MAX_CAP}"),
    ((2, 4), (3, 5), ValueError, "k range must start at 3 or above"),
])
def test_table_cells_refusals(k_range, n_range, error, message):
    with pytest.raises(error, match=message):
        table_cells(k_range, n_range)


def test_table_cells_evaluate_no_value(monkeypatch):
    """table_cells only lists and budgets cells, k-major as (n, k)."""
    def no_value(*args):
        raise AssertionError("table_cells evaluated a value")

    monkeypatch.setattr(exact, "prob_all_kgon", no_value)
    assert table_cells((3, 5), (3, 5)) == [(3, 3), (4, 3), (5, 3), (4, 4), (5, 4), (5, 5)]
    assert table_cells((4, 10**18), (4, 6)) == [(4, 4), (5, 4), (6, 4), (5, 5), (6, 5), (6, 6)]
    assert len(table_cells((3, 20), (3, 60))) == sum(61 - k for k in range(3, 21))


def test_every_single_cell_at_max_cap_fits_the_table_budget():
    """The costliest single cell, (k, n) = (400, MAX_CAP), is about 0.24x
    TABLE_WORK_BUDGET, so MAX_CAP alone bounds `exact --formula theorem1`.
    Raising MAX_CAP past about 1100 puts a single cell over the budget."""
    for k in range(3, MAX_CAP + 1):
        assert table_cells((k, k), (MAX_CAP, MAX_CAP)) == [(MAX_CAP, k)]
