"""Acceptance gate: the twelve go/no-go checks with their tolerances and budgets.

Each test prints exactly one PASS/FAIL line (straight to the terminal, past
pytest's capture) so a `pytest tests/test_acceptance.py` run reads as a
checklist.  Frozen rationals were derived by hand ahead of implementation.
"""

import time
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from bstick.exact import (
    alternating_factorial_identity,
    prob_all_kgon,
    prob_all_pentagon_beta,
    prob_all_quadrilateral_beta,
    prob_exists_triangle,
    whitworth_survivor,
)
from bstick.kernel import binomial
from bstick.montecarlo import SimulationConfig, estimate
from bstick.sticks import (
    EventSpec,
    SamplerModel,
    all_k_subsets_polygon,
    exists_k_polygon_windowed,
    sample_spacings_batch,
    subset_polygon_oracle,
)
from bstick.verify import run_lemma3_checks

F = Fraction
TRIALS = 1_000_000
WORKERS = 4


def announce(capfd, num, ok, desc, elapsed, budget):
    in_budget = elapsed <= budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    with capfd.disabled():
        print(f"{status} [{num:02d}] {desc} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {num}: {desc}"
    assert in_budget, f"criterion {num} exceeded time budget: {elapsed:.2f}s > {budget}s"


def band(p, trials=TRIALS):
    p = float(p)
    return 5.0 * sqrt(p * (1.0 - p) / trials)


def test_01_triangle_base_case(capfd):
    prob_all_kgon(3, 3)  # warm any lazy imports before timing
    t0 = time.perf_counter()
    ok = prob_all_kgon(3, 3) == F(1, 4)
    elapsed = time.perf_counter() - t0
    announce(capfd, 1, ok and elapsed < 1e-3, "general formula at (3,3) is 1/4", elapsed, 1e-3)


def test_02_ngon_closed_form(capfd):
    t0 = time.perf_counter()
    ok = all(
        prob_all_kgon(n, n) == 1 - F(n, 2 ** (n - 1)) for n in range(3, 31)
    )
    announce(capfd, 2, ok, "general formula matches 1 - n/2^(n-1) at k=n, n=3..30",
             time.perf_counter() - t0, 1.0)


def test_03_triangle_closed_form(capfd):
    t0 = time.perf_counter()
    ok = all(
        prob_all_kgon(3, n) == F(1, binomial(2 * n - 2, n)) for n in range(3, 31)
    )
    announce(capfd, 3, ok, "general formula matches 1/C(2n-2,n) at k=3, n=3..30",
             time.perf_counter() - t0, 1.0)


def test_04_beta_forms(capfd):
    t0 = time.perf_counter()
    ok = all(prob_all_kgon(4, n) == prob_all_quadrilateral_beta(n) for n in range(4, 31))
    ok &= all(prob_all_kgon(5, n) == prob_all_pentagon_beta(n) for n in range(5, 31))
    ok &= prob_all_kgon(4, 4) == F(1, 2)
    ok &= prob_all_kgon(4, 5) == F(43, 189)
    ok &= prob_all_kgon(5, 5) == F(11, 16)
    announce(capfd, 4, ok, "Beta-function forms equal the general formula (k=4,5; n<=30)",
             time.perf_counter() - t0, 2.0)


def test_05_whitworth_at_half(capfd):
    t0 = time.perf_counter()
    ok = all(
        whitworth_survivor(n, F(1, 2)) == F(n, 2 ** (n - 1)) for n in range(2, 31)
    )
    announce(capfd, 5, ok, "largest-spacing survivor at x=1/2 is n/2^(n-1), n=2..30",
             time.perf_counter() - t0, 1.0)


def test_06_alternating_factorial_identity(capfd):
    t0 = time.perf_counter()
    ok = all(alternating_factorial_identity(k) for k in range(4, 21))
    announce(capfd, 6, ok, "alternating factorial identity holds, k=4..20",
             time.perf_counter() - t0, 1.0)


def test_07_iterated_integral_quadrature(capfd):
    t0 = time.perf_counter()
    report = run_lemma3_checks()
    ok = report.all_passed and len(report) == 70
    announce(capfd, 7, ok,
             "iterated integral equals its closed value exactly, k=4..8",
             time.perf_counter() - t0, 60.0)


def test_08_monte_carlo_vs_general_formula(capfd):
    t0 = time.perf_counter()
    ok = True
    seed = 8000
    for n in range(3, 9):
        for k in range(3, n + 1):
            exact_p = prob_all_kgon(k, n)
            res = estimate(
                SimulationConfig(n=n, event=EventSpec.all_k_subsets(k),
                                 model=SamplerModel.UNIFORM_BREAKS,
                                 trials=TRIALS, seed=seed),
                workers=WORKERS,
            )
            ok &= abs(res.p_hat - float(exact_p)) <= band(exact_p)
            seed += 1
    announce(capfd, 8, ok,
             "10^6-trial estimates within 5 standard errors, all 3<=k<=n<=8",
             time.perf_counter() - t0, 180.0)


def test_09_each_sampler_model_against_exact_values(capfd):
    """Each sampler model's estimate is held to the exact value on its own, so
    a bias that both models shared would fail here too."""
    t0 = time.perf_counter()
    points = [(n, EventSpec.all_k_subsets(k), prob_all_kgon(k, n))
              for k, n in ((3, 5), (4, 6), (5, 7))]
    points.append((6, EventSpec.max_spacing(F(1, 2)), whitworth_survivor(6, F(1, 2))))
    ok = True
    for seed, (n, event, exact_p) in enumerate(points, start=9000):
        for model in SamplerModel:
            res = estimate(SimulationConfig(n=n, event=event, model=model,
                                            trials=TRIALS, seed=seed),
                           workers=WORKERS)
            ok &= abs(res.p_hat - float(exact_p)) <= band(exact_p)
    announce(capfd, 9, ok,
             "both sampler models within 5 standard errors of the exact value",
             time.perf_counter() - t0, 120.0)


def test_10_existence_estimates(capfd):
    t0 = time.perf_counter()
    ok = True
    for seed, (n, expected) in enumerate(((4, F(4, 7)), (5, F(23, 28))), start=10_000):
        res = estimate(
            SimulationConfig(n=n, event=EventSpec.exists_k(3),
                             model=SamplerModel.UNIFORM_BREAKS,
                             trials=TRIALS, seed=seed),
            workers=WORKERS,
        )
        ok &= abs(res.p_hat - float(expected)) <= band(expected)
    announce(capfd, 10, ok,
             "existence-of-a-triangle estimates match 4/7 (n=4) and 23/28 (n=5)",
             time.perf_counter() - t0, 30.0)


def test_11_oracle_equivalence(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11_000)
    ok = True
    for n in range(3, 11):
        for k in range(3, n + 1):
            rows = sample_spacings_batch(n, SamplerModel.UNIFORM_BREAKS, rng, 500)
            for row in rows:
                chk = subset_polygon_oracle(row, k)
                ok &= all_k_subsets_polygon(row, k) == chk.all_subsets
    for n in range(3, 13):
        rows = sample_spacings_batch(n, SamplerModel.UNIFORM_BREAKS, rng, 500)
        for row in rows:
            chk = subset_polygon_oracle(row, 3)
            ok &= exists_k_polygon_windowed(row, 3) == chk.some_subset
    announce(capfd, 11, ok,
             "fast predicates match the brute-force subset oracle on 500 vectors/config",
             time.perf_counter() - t0, 60.0)


def test_12_determinism(capfd):
    t0 = time.perf_counter()
    cfg = SimulationConfig(n=6, event=EventSpec.all_k_subsets(4),
                           model=SamplerModel.UNIFORM_BREAKS,
                           trials=500_000, seed=12)
    runs = [estimate(cfg, workers=1), estimate(cfg, workers=1),
            estimate(cfg, workers=8)]
    keys = {(r.successes, r.trials, r.p_hat) for r in runs}
    ok = len(keys) == 1
    announce(capfd, 12, ok,
             "fixed seed gives identical successes/trials/p_hat, workers 1 and 8",
             time.perf_counter() - t0, 30.0)
