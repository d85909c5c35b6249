"""The cross-validation harness itself: every suite must pass on honest inputs."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, asdict
from fractions import Fraction
from pathlib import Path

import pytest

import bstick
from bstick import exact, montecarlo, verify
from bstick.montecarlo import (
    MAX_WORKERS,
    BudgetExceededError,
    EstimateResult,
    EventSpec,
    SamplerModel,
)
from bstick.verify import (
    VerificationEntry,
    VerificationReport,
    check_mc_args,
    lemma3_closed_value,
    lemma3_residual,
    run_exact_crosschecks,
    run_identity_selftests,
    run_lemma3_checks,
    run_all,
    run_mc_crosschecks,
)

F = Fraction


def test_report_container():
    empty = VerificationReport([], [])
    assert empty.all_passed and empty.entries == [] and empty.failures() == []
    good = VerificationEntry("b/one", "1", "1", 0.0, 0.0, True)
    bad = VerificationEntry("a/two", "1", "2", 1.0, 0.0, False)
    report = VerificationReport([good, bad], [])
    assert not report.all_passed
    assert report.failures() == [bad]
    assert report.sorted_entries() == [bad, good]
    assert report.entries == [good, bad]
    assert asdict(good)["check_id"] == "b/one"
    with pytest.raises(TypeError):  # no report without its per-suite totals
        VerificationReport([good])


def test_exact_crosschecks_all_pass():
    entries = run_exact_crosschecks(12)
    assert len(entries) > 0
    assert all(e.passed for e in entries)
    ids = [e.check_id for e in entries]
    assert len(ids) == len(set(ids))
    assert "exact/ngon-closed/n=03" in ids
    assert "exact/whitworth-half/n=02" in ids
    # exact suites demand literal equality, not closeness
    assert all(e.tolerance == 0.0 and e.residual == 0.0 for e in entries)
    with pytest.raises(ValueError):
        run_exact_crosschecks(4)


def test_identity_selftests_all_pass():
    entries = run_identity_selftests()
    assert all(e.passed for e in entries)
    assert {e.check_id for e in entries} == {
        *(f"identity/alt-factorial/k={k:02d}" for k in range(4, 21)),
        "identity/pochhammer-recurrence",
        "identity/fibonacci-recurrence",
        "identity/theorem1-from-lemma3",
    }


def _identity_failures() -> dict[str, str]:
    return {e.check_id: e.actual for e in run_identity_selftests() if not e.passed}


def test_identities_fail_on_a_theorem1_value_off_by_one_part_in_10_30(monkeypatch):
    """Theorem 1 at (k, n) = (7, 11), a k the exact suite never checks, moved
    by 10^-30 fails the Theorem 1 entry alone, in one of its 21 cases."""
    real = exact.prob_all_kgon

    def planted(k, n):
        return real(k, n) + F(1, 10**30) if (k, n) == (7, 11) else real(k, n)

    monkeypatch.setattr(exact, "prob_all_kgon", planted)
    assert _identity_failures() == {"identity/theorem1-from-lemma3": "1 failures in 21 cases"}


@pytest.mark.parametrize("k, n, j", [(6, 7, 1), (7, 11, 4), (11, 12, 3)])
def test_identities_fail_on_a_perturbed_lemma3_closed_value(monkeypatch, k, n, j):
    """Lemma 3's closed value at one (k, n, j) that Theorem 1 sums, moved by
    one part in 10^30, fails the Theorem 1 entry alone."""
    real = verify.lemma3_closed_value

    def perturbed(*args):
        return real(*args) * (1 + F(1, 10**30)) if args == (k, n, j) else real(*args)

    monkeypatch.setattr(verify, "lemma3_closed_value", perturbed)
    assert _identity_failures() == {"identity/theorem1-from-lemma3": "1 failures in 21 cases"}


def _fibonacci_mutant(a, b, shift):
    """kernel.fibonacci with the seeds a, b and its index moved up by shift."""

    def mutant(j):
        x, y = a, b
        for _ in range(j - 1 + shift):
            x, y = y, x + y
        return x

    return mutant


@pytest.mark.parametrize("mutant", [
    pytest.param(_fibonacci_mutant(2, 1, 0), id="seed-a-2"),
    pytest.param(_fibonacci_mutant(1, 2, 0), id="seed-b-2"),
    pytest.param(_fibonacci_mutant(1, 1, 2), id="index-shifted-by-2"),
])
def test_identities_fail_on_a_fibonacci_with_other_seeds_or_index(monkeypatch, mutant):
    """Each mutant keeps the recurrence but changes every printed
    exists-triangle value: the seeds F_1 = F_2 = 1 fail it in every case."""
    assert all(mutant(j) == mutant(j - 1) + mutant(j - 2) for j in range(3, 91))
    monkeypatch.setattr(verify, "fibonacci", mutant)
    assert _identity_failures() == {"identity/fibonacci-recurrence": "88 failures in 88 cases"}


def test_lemma3_closed_values_frozen():
    # worked by hand from the antiderivatives
    assert lemma3_closed_value(4, 5, 1) == F(-1, 20)
    assert lemma3_closed_value(4, 6, 2) == F(-1, 24)
    assert lemma3_closed_value(5, 6, 1) == F(-1, 120)


def test_lemma3_closed_value_k4_antiderivative():
    """For k=4 the double alternative 1/(m+2j) - 1/(m+j) is the direct
    antiderivative of the integrand; both routes must coincide."""
    for n in range(4, 12):
        m = n - 2
        for j in range(1, m + 1):
            assert lemma3_closed_value(4, n, j) == F(1, m + 2 * j) - F(1, m + j)


def test_lemma3_closed_value_k5_partial_fractions():
    """k=5 partial-fraction expansion, derived independently on paper."""
    for n in range(5, 12):
        m = n - 3
        for j in range(1, m + 1):
            expanded = (
                -F(1, 2 * j * (m + j))
                - F(1, 2 * j * (m + 3 * j))
                + F(1, j * (m + 2 * j))
            )
            assert lemma3_closed_value(5, n, j) == expanded


def test_lemma3_residual_values():
    assert lemma3_residual(4, 5, 1) == 0
    assert lemma3_residual(5, 7, 2) == 0
    assert lemma3_residual(7, 9, 1) == 0
    with pytest.raises(ValueError):
        lemma3_residual(3, 5, 1)
    with pytest.raises(ValueError):
        lemma3_residual(4, 3, 1)
    with pytest.raises(ValueError):
        lemma3_residual(4, 6, 5)  # j beyond n-k+2


def test_lemma3_residual_refuses_k_or_n_above_its_caps_at_once(monkeypatch):
    """k above LEMMA3_MAX_K or n above MAX_CAP raises CapExceededError before
    the integral or the closed value is computed."""

    def _no_arithmetic(*args):
        raise AssertionError("the integral or the closed value was computed")

    monkeypatch.setattr(verify, "_lemma3_integral", _no_arithmetic)
    monkeypatch.setattr(verify, "lemma3_closed_value", _no_arithmetic)
    k_max = verify.LEMMA3_MAX_K
    for k, n, j in [(k_max + 1, k_max + 1, 1), (10**6, 10**6, 2), (4, exact.MAX_CAP + 1, 1)]:
        with pytest.raises(exact.CapExceededError):
            lemma3_residual(k, n, j)


def test_lemma3_residual_admits_every_k_from_4_to_its_cap(monkeypatch):
    """The guards alone are under test, so the arithmetic is stubbed."""
    monkeypatch.setattr(verify, "_lemma3_integral", lambda k, n, j: F(k))
    monkeypatch.setattr(verify, "lemma3_closed_value", lambda k, n, j: F(k))
    for k in range(4, verify.LEMMA3_MAX_K + 1):
        assert lemma3_residual(k, k, 2) == lemma3_residual(k, exact.MAX_CAP, 1) == 0


def test_lemma3_integral_equals_closed_value_over_a_wide_grid():
    """The exact integral holds the closed value beyond the suite's k range."""
    for k in range(4, 13):
        for n in range(k, 21):
            for j in range(1, n - k + 3):
                assert verify._lemma3_integral(k, n, j) == lemma3_closed_value(k, n, j), (k, n, j)


def test_lemma3_checks_within_tolerance():
    entries = run_lemma3_checks()
    assert all(e.passed for e in entries)
    assert len(entries) == 70  # grid size for 4 <= k <= 8, n <= 10, j <= min(3, n-k+2)
    for entry in entries:
        assert entry.tolerance == 0.0 and entry.residual == 0.0
        assert entry.actual == entry.expected
    with pytest.raises(TypeError):  # the grid is fixed: no k_values, n_max or j_max
        run_lemma3_checks(k_values=(6,), n_max=9, j_max=3)


@pytest.mark.parametrize("k, n, j", [(4, 4, 1), (4, 8, 3), (5, 5, 1), (5, 8, 3),
                                     (6, 6, 1), (6, 9, 3), (7, 9, 3), (8, 10, 3)])
def test_lemma3_check_detects_a_perturbed_closed_value(monkeypatch, k, n, j):
    closed = lemma3_closed_value(k, n, j)
    # One part in 10^30 is far below double precision; equality still sees it.
    perturbed = closed * (1 + F(1, 10**30))
    assert float(perturbed) == float(closed)
    monkeypatch.setattr(verify, "lemma3_closed_value", lambda *a: perturbed)
    assert lemma3_residual(k, n, j) == closed - perturbed
    entries = {e.check_id: e for e in run_lemma3_checks()}
    entry = entries[f"lemma3/k={k}/n={n}/j={j}"]
    assert not entry.passed and entry.tolerance == 0.0
    assert entry.expected == str(perturbed) and entry.actual == str(closed)


@pytest.mark.parametrize("k, n, j", [(6, 9, 3), (7, 8, 2), (8, 10, 1)])
def test_lemma3_check_detects_a_defect_in_the_integral(monkeypatch, k, n, j):
    """The integral at one (k, n, j) moved by 10^-30 fails that entry alone."""
    real = verify._lemma3_integral

    def planted(*args):
        return real(*args) + F(1, 10**30) if args == (k, n, j) else real(*args)

    monkeypatch.setattr(verify, "_lemma3_integral", planted)
    assert ([e.check_id for e in run_lemma3_checks() if not e.passed]
            == [f"lemma3/k={k}/n={n}/j={j}"])


def test_mc_crosschecks_pass_and_are_labeled():
    entries = run_mc_crosschecks(10_000, seed=5)
    assert all(e.passed for e in entries)
    ids = {e.check_id for e in entries}
    assert "mc/all/k=3/n=3" in ids
    assert "mc/exists/k=3/n=5" in ids
    assert "mc/whitworth/n=4/x=1/2" in ids
    assert "mc/all/k=4/n=6/model=exponential" in ids
    assert "mc/whitworth/n=6/x=1/2/model=exponential" in ids
    # 21 grid points + 3 whitworth + 2 exists, then 4 exponential-model entries
    assert len(entries) == 30
    for e in entries:
        assert Fraction(e.expected) > 0, e.check_id
    with pytest.raises(ValueError):
        run_mc_crosschecks(9_999, seed=0)


def test_mc_grid_rows_name_formulas_their_events_can_feed():
    """Every row names an exact oracle and a sampler model."""
    for check_id, n, event, formula, model in verify._MC_GRID:
        assert formula in exact.FORMULAS, check_id
        arg = exact.FORMULAS[formula].arg
        assert arg is None or getattr(event, arg) is not None, check_id
        assert isinstance(model, SamplerModel), check_id
        assert check_id.endswith("/model=exponential") == (
            model is SamplerModel.EXPONENTIAL_NORMALIZED), check_id


def test_mc_estimates_of_a_biased_exponential_sampler_fail_against_exact_values(monkeypatch):
    """A bias in the exponential sampler alone fails exactly the
    exponential-model entries, each held to its exact value.  The planted
    bias makes every 10th trial of each exponential sub-block an equal split,
    which forms every k-gon and has max spacing 1/n: it moves each of those
    probabilities by a tenth of its distance to 1 (all) or to 0 (whitworth),
    15 to 235 binomial SE at 10^5 trials against a 5 SE band."""
    real = montecarlo.sample_spacings_batch

    def biased(n, model, rng, count, out=None):
        spacings = real(n, model, rng, count, out=out)
        if model is SamplerModel.EXPONENTIAL_NORMALIZED:
            spacings[::10] = 1.0 / n
        return spacings

    monkeypatch.setattr(montecarlo, "sample_spacings_batch", biased)
    entries = run_mc_crosschecks(10**5, seed=1)
    failed = {e.check_id: e.expected for e in entries if not e.passed}
    assert failed == {
        "mc/all/k=3/n=5/model=exponential": "1/56",
        "mc/all/k=4/n=6/model=exponential": "11/112",
        "mc/all/k=5/n=7/model=exponential": "809/3328",
        "mc/whitworth/n=6/x=1/2/model=exponential": "3/16",
    }


def test_mc_grid_row_appended_last_moves_no_other_entry(monkeypatch):
    before = run_mc_crosschecks(10**4, seed=6)
    row = ("mc/all/k=3/n=9", 9, EventSpec.all_k_subsets(3), "theorem1",
           SamplerModel.UNIFORM_BREAKS)
    monkeypatch.setattr(verify, "_MC_GRID", [*verify._MC_GRID, row])
    after = run_mc_crosschecks(10**4, seed=6)
    assert ([(e.check_id, e.actual) for e in after][:-1]
            == [(e.check_id, e.actual) for e in before])
    assert after[-1].check_id == row[0] and all(e.passed for e in after)


def test_mc_trial_budget_covers_the_whole_grid():
    # The grid's 30 runs draw 181 spacing values per trial between them, and
    # trials * 181 may reach TRIAL_BUDGET = 10^9.
    check_mc_args(5_524_861, seed=0, workers=1)
    with pytest.raises(BudgetExceededError, match=r"5524862 \* 181 = 1000000022"):
        check_mc_args(5_524_862, seed=0, workers=1)


def test_mc_crosschecks_deterministic_given_seed():
    a = run_mc_crosschecks(10_000, seed=11)
    b = run_mc_crosschecks(10_000, seed=11, workers=4)
    assert [(e.check_id, e.actual) for e in a] == [(e.check_id, e.actual) for e in b]


@pytest.mark.parametrize("workers", [1, 2, 8, MAX_WORKERS])
def test_mc_suite_shares_one_pool_across_whole_estimates(monkeypatch, fake_pools, workers):
    """At w > 1 workers the suite's 30 estimates share threads = min(w, 30)
    threads: the calling thread runs estimates 0, threads, 2 * threads, ...
    and one pool of threads - 1 threads, the one scheduler's, runs the
    others.  Each estimate runs whole, on estimate's default one worker; at
    w = 1 no pool is made.  Each
    estimate here spans two chunks, so one started with workers > 1 would
    make a second pool.  The entries are the one-worker entries, in order."""
    calls = []
    real_estimate = verify.estimate

    def recording_estimate(config, **kw):
        calls.append((config, kw, threading.get_ident()))
        return real_estimate(config, **kw)

    monkeypatch.setattr(verify, "estimate", recording_estimate)
    reference = run_mc_crosschecks(70_000, seed=4)
    order = [config for config, _, _ in calls]
    calls.clear()
    entries = run_mc_crosschecks(70_000, seed=4, workers=workers)
    assert [kw for _, kw, _ in calls] == [{}] * 30
    ran_on = {config: ident for config, _, ident in calls}
    threads = min(workers, 30)
    assert ([i for i, config in enumerate(order) if ran_on[config] == threading.get_ident()]
            == list(range(0, 30, threads)))
    if workers == 1:
        assert fake_pools == []
    else:
        (pool,) = fake_pools
        assert (pool.max_workers, pool.submitted) == (threads - 1, 30 - len(range(0, 30, threads)))
    assert ([(e.check_id, e.actual, e.passed) for e in entries]
            == [(e.check_id, e.actual, e.passed) for e in reference])


class _Interrupt(Exception):
    pass


@pytest.mark.parametrize("workers", [2, 4])
def test_mc_suite_cancels_queued_estimates_when_one_raises(monkeypatch, workers):
    """An estimate that raises (as Ctrl-C would in the wait) cancels the
    estimates still queued: only those already running finish.  Estimates
    after the failing one block until the pool is shut down, so none can
    start between the failure and the cancellation."""
    failing = 5
    started = []
    released = threading.Event()

    class Pool(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            released.set()
            super().shutdown(wait=wait)

    def fake_estimate(config):
        index = config.seed  # the suite runs at seed 0
        started.append(index)
        if index == failing:
            raise _Interrupt
        if index > failing:
            assert released.wait(timeout=30)
        return EstimateResult(p_hat=0.5, trials=2, successes=1, ci_low=0.0, ci_high=1.0,
                              seed=config.seed, model=config.model)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(verify, "estimate", fake_estimate)
    with pytest.raises(_Interrupt):
        run_mc_crosschecks(10**4, seed=0, workers=workers)
    assert set(range(failing + 1)) <= set(started)
    assert max(started) <= failing + workers


def test_run_all_runs_the_four_suites_in_order():
    parts = [run_exact_crosschecks(5), run_identity_selftests(),
             run_lemma3_checks(), run_mc_crosschecks(10**4, 0)]
    assert all(type(part) is list for part in parts)
    report = run_all(n_max=5, trials=10**4, seed=0)
    assert [e.check_id for e in report.entries] == [e.check_id for part in parts for e in part]
    assert [(t.suite, t.failed) for t in report.totals] == [(s, 0) for s in verify.SUITES]
    assert [t.checks for t in report.totals] == [len(part) for part in parts]
    assert sum(t.checks for t in report.totals) == len(report.entries)
    with pytest.raises(FrozenInstanceError):
        report.entries = []
    with pytest.raises(ValueError, match="unknown suite"):
        run_all(suite="bogus")


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from bstick.cli import main
for module in ("scipy", "numpy"):
    assert module not in sys.modules, f"import bstick.cli loaded {module}"
# (argv, modules absent after it, modules present after it), run in this order.
runs = [
    (["exact", "--formula", "theorem1", "--k", "4", "--n", "9"], ["numpy"], []),
    (["table", "--k", "3:6", "--n", "3:9"], ["numpy"], []),
    (["simulate", "--n", "5", "--event", "all", "--k", "3", "--trials", "1000"],
     ["concurrent.futures", "csv"], ["numpy"]),
    (["verify", "--suite", "all", "--n-max", "5", "--trials", "10000", "--seed", "0"], [], []),
]
for argv, absent, present in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    for module in ("scipy", "numpy.polynomial", *absent):
        assert module not in sys.modules, f"bstick {argv[0]} loaded {module}"
    for module in present:
        assert module in sys.modules, f"bstick {argv[0]} did not load {module}"
"""


def test_no_subcommand_loads_scipy():
    """A fresh interpreter runs every subcommand, verify with all its suites.
    None loads scipy, nor numpy.polynomial: lemma3 integrates in rationals.
    exact and table load no numpy, and a one-worker JSON simulate loads
    numpy but neither concurrent.futures nor csv."""
    env = dict(os.environ)
    src = str(Path(bstick.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
