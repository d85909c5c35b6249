"""The cross-validation harness itself: every suite must pass on honest inputs."""

import os
import subprocess
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

import bstick
from bstick import montecarlo, verify
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
    LEMMA3_TOLERANCES,
    check_mc_args,
    lemma3_closed_value,
    lemma3_residual,
    run_exact_crosschecks,
    run_identity_selftests,
    run_lemma3_checks,
    run_all,
    run_mc_crosschecks,
    sampler_equivalence_test,
)

F = Fraction


def test_report_container():
    report = VerificationReport()
    assert report.all_passed and len(report) == 0
    good = VerificationEntry("b/one", "1", "1", 0.0, 0.0, True, 0)
    bad = VerificationEntry("a/two", "1", "2", 1.0, 0.0, False, 0)
    report.add(good)
    report.add(bad)
    assert not report.all_passed
    assert report.failures() == [bad]
    assert report.sorted_entries() == [bad, good]
    assert list(report) == [good, bad]
    assert asdict(good)["check_id"] == "b/one"


def test_exact_crosschecks_all_pass():
    report = run_exact_crosschecks(12)
    assert len(report) > 0
    assert report.all_passed
    ids = [e.check_id for e in report]
    assert len(ids) == len(set(ids))
    assert "exact/ngon-closed/n=03" in ids
    assert "exact/whitworth-half/n=02" in ids
    # exact suites demand literal equality, not closeness
    assert all(e.tolerance == 0.0 and e.residual == 0.0 for e in report)
    with pytest.raises(ValueError):
        run_exact_crosschecks(4)


def test_identity_selftests_all_pass():
    report = run_identity_selftests()
    assert report.all_passed
    ids = {e.check_id for e in report}
    assert "identity/alt-factorial/k=04" in ids
    assert "identity/pochhammer-recurrence" in ids
    assert "identity/beta-pochhammer-product" in ids
    assert "identity/pascal-recurrence" in ids
    assert "identity/fibonacci-recurrence" in ids


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
    assert lemma3_residual(4, 5, 1) <= 1e-10
    assert lemma3_residual(5, 7, 2) <= 1e-8
    with pytest.raises(ValueError):
        lemma3_residual(7, 9, 1)
    with pytest.raises(ValueError):
        lemma3_residual(4, 3, 1)
    with pytest.raises(ValueError):
        lemma3_residual(4, 6, 5)  # j beyond n-k+2


def test_lemma3_checks_within_tolerance():
    report = run_lemma3_checks()
    assert report.all_passed
    assert len(report) == 25  # grid size for k in {4,5}, n <= 8, j <= min(3, n-k+2)
    for entry in report:
        k = int(entry.check_id.split("/")[1].split("=")[1])
        assert entry.tolerance == LEMMA3_TOLERANCES[k]
        assert entry.residual <= 1e-12


def test_lemma3_checks_k6_also_available():
    report = run_lemma3_checks(k_values=(6,), n_max=9, j_max=3)
    assert report.all_passed
    assert all(e.check_id.startswith("lemma3/k=6/") for e in report)
    assert all(e.residual <= 1e-12 for e in report)


@pytest.mark.parametrize("k, n, j", [(4, 4, 1), (4, 8, 3), (5, 5, 1), (5, 8, 3)])
def test_lemma3_check_detects_a_perturbed_closed_value(monkeypatch, k, n, j):
    closed = lemma3_closed_value(k, n, j)
    # The residual resolves a relative 1e-6 change of the closed value.
    monkeypatch.setattr(verify, "lemma3_closed_value", lambda *a: closed * (1 + F(1, 10**6)))
    shift = float(abs(closed)) * 1e-6
    assert abs(lemma3_residual(k, n, j) - shift) <= 1e-12
    # An entry fails once the change exceeds its absolute tolerance: at k = 4
    # a relative 1e-6 does (|closed| >= 1/56 > 1e-2), at k = 5 (tolerance 1e-6,
    # |closed| <= 1/60) it takes a relative 1e-3.
    relative = F(1, 10**6) if k == 4 else F(1, 10**3)
    monkeypatch.setattr(verify, "lemma3_closed_value", lambda *a: closed * (1 + relative))
    entry = run_lemma3_checks(k_values=(k,), n_max=n, j_max=j).entries[-1]
    assert entry.check_id == f"lemma3/k={k}/n={n}/j={j}"
    assert not entry.passed and entry.residual > LEMMA3_TOLERANCES[k]


def test_lemma3_coarse_rule_fails_entries_without_raising(monkeypatch):
    monkeypatch.setattr(verify, "LEMMA3_NODES", 2)
    report = run_lemma3_checks()
    assert len(report) == 25 and not any(e.passed for e in report)
    for entry in report:
        assert entry.actual.startswith("quadrature failed: error estimate ")
        assert entry.residual == float("inf")
    with pytest.raises(verify.QuadratureError):
        lemma3_residual(4, 5, 1)


def test_mc_crosschecks_pass_and_are_labeled():
    report = run_mc_crosschecks(10_000, seed=5)
    assert report.all_passed
    ids = {e.check_id for e in report}
    assert "mc/all/k=3/n=3" in ids
    assert "mc/exists/k=3/n=5" in ids
    assert "mc/whitworth/n=4/x=1/2" in ids
    assert "mc/sampler-equivalence/all:k=4/n=6" in ids
    assert "mc/sampler-equivalence/max-spacing:x=1/2/n=6" in ids
    # 21 grid points + 3 whitworth + 2 exists + 4 equivalence entries
    assert len(report) == 30
    with pytest.raises(ValueError):
        run_mc_crosschecks(9_999, seed=0)


def test_mc_trial_budget_is_checked_at_the_largest_grid_n():
    # The grid's largest n is 8, and trials * n may reach DEFAULT_TRIAL_BUDGET = 10^9.
    check_mc_args(125_000_000, seed=0, workers=1)
    with pytest.raises(BudgetExceededError, match="at n = 8"):
        check_mc_args(125_000_001, seed=0, workers=1)


def test_mc_crosschecks_deterministic_given_seed():
    a = run_mc_crosschecks(10_000, seed=11)
    b = run_mc_crosschecks(10_000, seed=11, workers=4)
    assert [(e.check_id, e.actual) for e in a] == [(e.check_id, e.actual) for e in b]


class _InlinePool:
    """Stands in for ThreadPoolExecutor: runs each task inline and records
    the workers asked for and the tasks submitted."""

    def __init__(self, created, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        created.append(self)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers", [1, 2, 8, MAX_WORKERS])
def test_mc_suite_shares_one_pool_across_whole_estimates(monkeypatch, workers):
    """At w > 1 workers the suite makes one pool of min(w, 34) threads, the
    one scheduler's, and every estimate runs whole on one of them; at w = 1
    no pool is made.  Each estimate here spans two chunks, so one started
    with workers > 1 would make a second pool.  No real thread is started."""
    reference = run_mc_crosschecks(70_000, seed=4)
    pools = []
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                        lambda max_workers: _InlinePool(pools, max_workers))
    calls = []
    real_estimate = verify.estimate
    monkeypatch.setattr(verify, "estimate",
                        lambda config, **kw: calls.append(kw) or real_estimate(config, **kw))
    report = run_mc_crosschecks(70_000, seed=4, workers=workers)
    assert calls == [{"workers": 1}] * 34
    if workers == 1:
        assert pools == []
    else:
        (pool,) = pools
        assert (pool.max_workers, pool.submitted) == (min(workers, 34), 34)
    assert ([(e.check_id, e.actual, e.passed) for e in report]
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

    def fake_estimate(config, workers):
        index = config.seed  # the suite runs at seed 0
        started.append(index)
        if index == failing:
            raise _Interrupt
        if index > failing:
            assert released.wait(timeout=30)
        return EstimateResult(p_hat=0.5, trials=2, successes=1, ci_low=0.0, ci_high=1.0,
                              ci_level=0.95, seed=config.seed, model=config.model)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(verify, "estimate", fake_estimate)
    with pytest.raises(_Interrupt):
        run_mc_crosschecks(10**4, seed=0, workers=workers)
    assert set(range(failing + 1)) <= set(started)
    assert max(started) <= failing + workers


def test_sampler_equivalence_test_shares_each_estimates_chunks(monkeypatch):
    """Each of the two models' estimates gets all the workers, one after the other."""
    calls = []
    real_estimate = verify.estimate
    monkeypatch.setattr(verify, "estimate", lambda config, workers: calls.append(
        (config.model, workers)) or real_estimate(config, workers=workers))
    entry = sampler_equivalence_test(5, EventSpec.all_k_subsets(3), 10**4, seed=1, workers=3)
    assert calls == [(SamplerModel.UNIFORM_BREAKS, 3),
                     (SamplerModel.EXPONENTIAL_NORMALIZED, 3)]
    assert entry.passed

def test_run_all_runs_the_four_suites_in_order():
    expected = [
        e.check_id
        for report in (run_exact_crosschecks(5), run_identity_selftests(),
                       run_lemma3_checks(), run_mc_crosschecks(10**4, 0))
        for e in report
    ]
    report = run_all(n_max=5, trials=10**4, seed=0)
    assert [e.check_id for e in report] == expected
    assert [(t.suite, t.failed) for t in report.totals] == [(s, 0) for s in verify.SUITES]
    assert sum(t.checks for t in report.totals) == len(report)
    with pytest.raises(ValueError, match="unknown suite"):
        run_all(suite="bogus")


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from bstick.cli import main
assert "scipy" not in sys.modules, "import bstick loaded scipy"
for argv in (["exact", "--formula", "theorem1", "--k", "4", "--n", "9"],
             ["table", "--k", "3:6", "--n", "3:9"],
             ["simulate", "--n", "5", "--event", "all", "--k", "3", "--trials", "1000"],
             ["verify", "--suite", "all", "--n-max", "5", "--trials", "10000", "--seed", "0"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, f"bstick {argv[0]} loaded scipy"
"""


def test_no_subcommand_loads_scipy():
    """A fresh interpreter runs every subcommand, verify with all its suites."""
    env = dict(os.environ)
    src = str(Path(bstick.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
