"""Estimator reproducibility, Wilson intervals, and agreement with exact values."""

import json
import os
import pickle
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import sqrt
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import bstick
from bstick import exact, montecarlo, sticks, verify
from bstick.cli import main
from bstick.exact import prob_all_kgon, prob_exists_triangle, whitworth_survivor
from bstick.montecarlo import (
    BLOCK_VALUES,
    CHUNK_SIZE,
    GENERATOR_ID,
    IN_FLIGHT_PER_WORKER,
    MAX_N,
    MAX_WORKERS,
    BudgetExceededError,
    EstimateResult,
    SimulationConfig,
    estimate,
    run_in_order,
    wilson_interval,
)
from bstick.sticks import EventSpec, SamplerModel, _subset_check_batch, sample_spacings_batch
from bstick.verify import run_mc_crosschecks


def _config(**kw):
    base = dict(
        n=3,
        event=EventSpec.all_k_subsets(3),
        model=SamplerModel.UNIFORM_BREAKS,
        trials=100_000,
        seed=0,
    )
    base.update(kw)
    return SimulationConfig(**base)


# ------------------------------------------------------------------ wilson


def test_wilson_frozen_interval():
    low, high = wilson_interval(250_000, 1_000_000)
    assert low == pytest.approx(0.24915, abs=1e-5)
    assert high == pytest.approx(0.25085, abs=1e-5)


def test_wilson_endpoints_solve_the_score_equation():
    """Interior endpoints c satisfy (p - c)^2 == z^2 c(1-c)/trials exactly."""
    z = NormalDist().inv_cdf(0.975)
    for successes, trials in ((1, 50), (17, 100), (250, 1000), (999, 1000)):
        p = successes / trials
        for c in wilson_interval(successes, trials):
            assert (p - c) ** 2 == pytest.approx(z * z * c * (1 - c) / trials, abs=1e-12)


def test_wilson_boundary_cases():
    low, high = wilson_interval(0, 500)
    assert low == 0.0 and 0 < high < 0.02
    low, high = wilson_interval(500, 500)
    assert high == 1.0 and 0.98 < low < 1


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


# --------------------------------------------------------------- config


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(seed=-1)
    with pytest.raises(ValueError):
        _config(seed=2**64)
    with pytest.raises(ValueError):
        _config(n=4, event=EventSpec.all_k_subsets(5))


def test_chunk_size_and_interval_level_are_not_settings(capsys, monkeypatch):
    """An estimate is fixed by (seed, trials, n, event, model): the chunk size
    is the constant CHUNK_SIZE, the interval is always the 95% one, the trial
    budget is the constant TRIAL_BUDGET, the seed comes from argv alone, the
    report goes to stdout alone, and the names no caller needs are gone."""
    with pytest.raises(TypeError):
        _config(chunk_size=1000)
    with pytest.raises(TypeError):
        estimate(_config(trials=10), ci_level=0.9)
    with pytest.raises(TypeError):
        estimate(_config(trials=10), budget=10**12)
    with pytest.raises(TypeError):
        wilson_interval(3, 7, level=0.5)
    simulate = ["simulate", "--n", "5", "--event", "all", "--k", "3", "--trials", "1000"]
    assert main([*simulate, "--chunk-size", "1000"]) == 2
    assert main([*simulate, "--budget", "5"]) == 2
    assert main(["verify", "--suite", "identities", "--out", "report.json"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("BSTICK_SEED", "555")
    assert main(simulate) == 0
    assert json.loads(capsys.readouterr().out)[0]["seed"] == 0
    for module, name in ((exact, "ProblemSpec"), (exact, "joint_spacing_survivor"),
                         (verify, "sampler_equivalence_test"),
                         (montecarlo, "DEFAULT_TRIAL_BUDGET")):
        assert not hasattr(bstick, name) and name not in bstick.__all__
        assert not hasattr(module, name) and name not in module.__all__


def test_budget_guard(monkeypatch):
    """trials * n above TRIAL_BUDGET = 10^9 is refused before any draw."""
    drawn = []
    monkeypatch.setattr(montecarlo, "sample_spacings_batch",
                        lambda *a, **kw: drawn.append(a))
    cfg = _config(n=10, event=EventSpec.exists_k(3), trials=100_000_001)
    with pytest.raises(BudgetExceededError, match=r"100000001 \* 10 = 1000000010 exceeds"):
        estimate(cfg)
    with pytest.raises(ValueError):
        estimate(cfg, workers=0)
    assert drawn == []


# ----------------------------------------------------------- determinism


def test_same_seed_same_result():
    cfg = _config(trials=200_000, seed=123)
    a = estimate(cfg)
    b = estimate(cfg)
    assert (a.successes, a.trials, a.p_hat) == (b.successes, b.trials, b.p_hat)
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)


def test_worker_count_does_not_change_the_result():
    cfg = _config(n=6, event=EventSpec.all_k_subsets(4), trials=300_000, seed=9)
    results = [estimate(cfg, workers=w) for w in (1, 2, 8)]
    for r in results[1:]:
        assert (r.successes, r.trials, r.p_hat) == (
            results[0].successes,
            results[0].trials,
            results[0].p_hat,
        )


@pytest.mark.parametrize("workers, chunks", [(1, 7), (4, 1), (2, 7), (5, 3), (MAX_WORKERS, 1000)])
def test_chunk_futures_are_bounded_per_worker(monkeypatch, fake_pools, workers, chunks):
    """With threads = min(workers, chunks), the calling thread runs chunks 0,
    threads, 2 * threads, ... and one pool of threads - 1 threads (none at
    one thread) takes one task for each other chunk.  At one trial per chunk
    the pool's futures alive at once stay within IN_FLIGHT_PER_WORKER per
    pool thread however many chunks there are.  The counts equal the serial
    run."""
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 1)
    cfg = _config(n=5, event=EventSpec.exists_k(3), trials=chunks, seed=3)
    expected = estimate(cfg).successes
    ran_on = {}
    real_chunk = montecarlo._chunk_successes

    def chunk(config, chunk_index):
        ran_on[chunk_index] = threading.get_ident()
        return real_chunk(config, chunk_index)

    monkeypatch.setattr(montecarlo, "_chunk_successes", chunk)
    assert estimate(cfg, workers=workers).successes == expected
    threads = min(workers, chunks)
    caller_share = list(range(0, chunks, threads))
    assert sorted(ran_on) == list(range(chunks))
    assert [c for c in sorted(ran_on) if ran_on[c] == threading.get_ident()] == caller_share
    if threads == 1:
        assert fake_pools == []
        return
    (pool,) = fake_pools
    assert pool.max_workers == threads - 1
    assert pool.submitted == chunks - len(caller_share)
    assert pool.most_alive <= IN_FLIGHT_PER_WORKER * pool.max_workers


class _ChunkFailed(Exception):
    pass


@pytest.mark.parametrize("workers", [2, 4])
def test_failing_chunk_cancels_the_queued_chunks(monkeypatch, workers):
    """A chunk that raises (as Ctrl-C would in the wait) cancels the chunks
    still queued: no chunk past the failing one plus the in-flight bound
    starts.  Chunks after the failing one block until the pool is shut down,
    so none can start between the failure and the cancellation."""
    failing = 4
    started = []
    released = threading.Event()

    class Pool(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            released.set()
            super().shutdown(wait=wait)

    def fake_chunk(config, chunk_index):
        started.append(chunk_index)
        if chunk_index == failing:
            raise _ChunkFailed
        if chunk_index > failing:
            assert released.wait(timeout=30)
        return 0

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(montecarlo, "_chunk_successes", fake_chunk)
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 10)
    with pytest.raises(_ChunkFailed):
        estimate(_config(trials=1000), workers=workers)
    assert set(range(failing + 1)) <= set(started)
    assert max(started) <= failing + IN_FLIGHT_PER_WORKER * workers


@pytest.mark.parametrize("workers", [2, 4, 64])
def test_no_scheduler_thread_outlives_a_call(workers):
    """run_in_order's pool threads are gone when the call ends: after the
    last item, after an item raises, and after the consumer closes it."""
    before = threading.active_count()

    def square(i):
        time.sleep(0.001)
        if i == failing:
            raise _ChunkFailed
        return i * i

    failing = None
    assert list(run_in_order(square, range(20), workers)) == [i * i for i in range(20)]
    assert threading.active_count() == before
    failing = 5
    with pytest.raises(_ChunkFailed):
        list(run_in_order(square, range(20), workers))
    assert threading.active_count() == before
    failing = None
    results = run_in_order(square, range(20), workers)
    assert next(results) == 0
    assert threading.active_count() > before
    results.close()
    assert threading.active_count() == before


def test_too_many_workers_is_rejected_before_any_pool(fake_pools):
    with pytest.raises(ValueError, match="workers"):
        estimate(_config(trials=10**6), workers=MAX_WORKERS + 1)
    assert main(["simulate", "--n", "5", "--event", "all", "--k", "3", "--trials", "1000",
                 "--workers", str(MAX_WORKERS + 1)]) == 2
    assert fake_pools == []


def test_n_above_max_n_is_rejected_before_allocating():
    """A trial must fit in one sub-block.  n = 5e8 with one trial is within the
    trial budget, but its block arrays would take 4 GB each: it is refused
    before anything of that size is allocated."""
    SimulationConfig(n=MAX_N, event=EventSpec.exists_k(3), model=SamplerModel.UNIFORM_BREAKS,
                     trials=1, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n must lie in"):
            SimulationConfig(n=MAX_N + 1, event=EventSpec.exists_k(3),
                             model=SamplerModel.UNIFORM_BREAKS, trials=1, seed=0)
        code = main(["simulate", "--n", str(5 * 10**8), "--event", "max-spacing", "--x", "1/2",
                     "--trials", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < BLOCK_VALUES


def test_trials_beyond_sys_maxsize_chunks_are_a_usage_error(capsys):
    """An estimate takes at most sys.maxsize chunks: every chunk index must be
    a sequence index and fit the key's second word.  Past that limit 10^24
    trials ended in an OverflowError traceback; SimulationConfig refuses them
    before the trial budget is checked."""
    limit = CHUNK_SIZE * sys.maxsize
    assert _config(n=1, event=EventSpec.max_spacing("1/2"), trials=limit).trials == limit
    with pytest.raises(ValueError, match="trials must be at most CHUNK_SIZE"):
        _config(n=1, event=EventSpec.max_spacing("1/2"), trials=limit + 1)
    code = main(["simulate", "--n", "1", "--event", "max-spacing", "--x", "1/2",
                 "--trials", str(10**24)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: trials must be at most")


def test_n_at_max_n_is_estimated_one_trial_per_sub_block(monkeypatch):
    """MAX_N is above BLOCK_VALUES, so at n = MAX_N a sub-block is a single
    trial: two trials are sampled in two sub-blocks of one row each."""
    assert MAX_N == 2**17 > BLOCK_VALUES
    counts = []

    def sample(n, model, rng, count, out=None):
        counts.append(count)
        return sample_spacings_batch(n, model, rng, count, out=out)

    monkeypatch.setattr(montecarlo, "sample_spacings_batch", sample)
    for trials in (1, 2):
        res = estimate(SimulationConfig(n=MAX_N, event=EventSpec.exists_k(3),
                                        model=SamplerModel.UNIFORM_BREAKS, trials=trials, seed=3))
        assert res.successes == trials  # some 3 of 2^17 pieces form a triangle
    assert counts == [1, 1, 1]


@pytest.mark.parametrize("model", list(SamplerModel))
def test_threads_keep_their_scratch_arrays_apart(monkeypatch, model):
    """Each worker thread works its sub-blocks in its own scratch arrays: with
    many small chunks on more threads than cores and frequent thread switches,
    the counts still equal the one-worker run."""
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 1_500)
    cfg = _config(n=6, event=EventSpec.exists_k(3), model=model, trials=120_000, seed=4)
    expected = estimate(cfg).successes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert estimate(cfg, workers=8).successes == expected
    finally:
        sys.setswitchinterval(interval)


def test_partial_final_chunk_consumes_a_chunk_prefix():
    """Truncating the trial count only drops trailing trials: success counts
    nest monotonically as the stream is extended."""
    whole = estimate(_config(trials=2 * CHUNK_SIZE, seed=7))
    part = estimate(_config(trials=2 * CHUNK_SIZE + 1000, seed=7))
    full = estimate(_config(trials=3 * CHUNK_SIZE, seed=7))
    assert whole.successes <= part.successes <= full.successes
    again = estimate(_config(trials=2 * CHUNK_SIZE + 1000, seed=7))
    assert part.successes == again.successes


def test_different_seeds_differ():
    a = estimate(_config(trials=100_000, seed=1))
    b = estimate(_config(trials=100_000, seed=2))
    assert a.successes != b.successes  # equality has probability ~1e-3


def test_result_metadata():
    cfg = _config(trials=50_000, seed=4)
    res = estimate(cfg)
    assert isinstance(res, EstimateResult)
    assert res.generator_id == GENERATOR_ID
    assert res.seed == 4
    assert res.trials == 50_000
    assert res.successes == round(res.p_hat * res.trials)
    assert res.ci_low <= res.p_hat <= res.ci_high
    assert res.std_error == sqrt(res.p_hat * (1 - res.p_hat) / res.trials)


# ------------------------------------------------------- estimator accuracy


def _band(p: Fraction, trials: int) -> float:
    p = float(p)
    return 5.0 * sqrt(p * (1.0 - p) / trials)


@pytest.mark.parametrize("model", list(SamplerModel))
def test_estimates_match_exact_triangle_probability(model):
    cfg = _config(model=model, trials=1_000_000, seed=31)
    res = estimate(cfg, workers=4)
    assert abs(res.p_hat - 0.25) <= _band(Fraction(1, 4), cfg.trials)


def test_estimates_match_exact_values_on_small_grid():
    cases = [
        (EventSpec.all_k_subsets(3), 5, prob_all_kgon(3, 5)),
        (EventSpec.all_k_subsets(4), 6, prob_all_kgon(4, 6)),
        (EventSpec.exists_k(3), 4, prob_exists_triangle(4)),
        (EventSpec.max_spacing(Fraction(1, 3)), 5, whitworth_survivor(5, Fraction(1, 3))),
    ]
    for i, (event, n, p) in enumerate(cases):
        cfg = SimulationConfig(
            n=n, event=event, model=SamplerModel.UNIFORM_BREAKS,
            trials=400_000, seed=100 + i,
        )
        res = estimate(cfg, workers=4)
        assert abs(res.p_hat - float(p)) <= _band(p, cfg.trials), event.label()


def test_oracle_evaluation_gives_same_counts_as_fast_path():
    """The brute-force subset oracle, run on chunk 0's own stream (Philox
    keyed by (seed, 0)), counts the successes the one-chunk estimate counts."""
    cfg = _config(n=6, event=EventSpec.all_k_subsets(3), trials=50_000, seed=8)
    assert cfg.trials <= CHUNK_SIZE
    rng = np.random.Generator(np.random.Philox(key=[8, 0]))
    rows = sample_spacings_batch(6, cfg.model, rng, cfg.trials)
    all_ok, _ = _subset_check_batch(rows, 3)
    assert int(np.count_nonzero(all_ok)) == estimate(cfg).successes


def test_interval_coverage_is_near_nominal():
    """~95% of Wilson intervals from independent seeds should cover the truth."""
    covered = 0
    runs = 200
    for seed in range(runs):
        res = estimate(_config(trials=10_000, seed=seed))
        covered += res.ci_low <= 0.25 <= res.ci_high
    assert covered >= 0.88 * runs


# ------------------------------------------------------------ stream freeze
#
# Success counts recorded from the row-major engine that predates sub-blocks
# and the column layout.  Any change to the draws, the spacing arithmetic or a
# predicate's comparisons moves some of them.

_FREEZE_RUNS = (  # (trials, chunk_size, seed)
    (1000, 256, 2**64 - 1),  # partial last chunk, largest seed
    (37, 1, 12345),  # one trial per chunk
    (70_000, CHUNK_SIZE, 3),  # one full chunk and a partial one
)

# (n, model, event label, successes per run); n = 40 runs 5000 trials in place of 70 000.
_FROZEN_SUCCESSES = [
    (1, 'uniform', 'max-spacing:x=1/2', (1000, 37, 70000)),
    (1, 'exponential', 'max-spacing:x=1/2', (1000, 37, 70000)),
    (2, 'uniform', 'max-spacing:x=1/2', (1000, 37, 70000)),
    (2, 'exponential', 'max-spacing:x=1/2', (1000, 37, 70000)),
    (3, 'uniform', 'max-spacing:x=1/2', (752, 28, 52400)),
    (3, 'uniform', 'all:k=3', (248, 9, 17600)),
    (3, 'uniform', 'exists:k=3', (248, 9, 17600)),
    (3, 'exponential', 'max-spacing:x=1/2', (749, 28, 52470)),
    (3, 'exponential', 'all:k=3', (251, 9, 17530)),
    (3, 'exponential', 'exists:k=3', (251, 9, 17530)),
    (5, 'uniform', 'max-spacing:x=1/2', (306, 12, 21884)),
    (5, 'uniform', 'all:k=3', (18, 1, 1297)),
    (5, 'uniform', 'exists:k=3', (833, 28, 57666)),
    (5, 'uniform', 'all:k=5', (694, 25, 48116)),
    (5, 'uniform', 'exists:k=5', (694, 25, 48116)),
    (5, 'exponential', 'max-spacing:x=1/2', (322, 12, 21918)),
    (5, 'exponential', 'all:k=3', (13, 1, 1256)),
    (5, 'exponential', 'exists:k=3', (817, 29, 57536)),
    (5, 'exponential', 'all:k=5', (678, 25, 48082)),
    (5, 'exponential', 'exists:k=5', (678, 25, 48082)),
    (8, 'uniform', 'max-spacing:x=1/2', (59, 2, 4355)),
    (8, 'uniform', 'all:k=3', (0, 0, 24)),
    (8, 'uniform', 'exists:k=3', (998, 37, 69878)),
    (8, 'uniform', 'all:k=8', (941, 35, 65645)),
    (8, 'uniform', 'exists:k=8', (941, 35, 65645)),
    (8, 'exponential', 'max-spacing:x=1/2', (63, 1, 4286)),
    (8, 'exponential', 'all:k=3', (0, 0, 24)),
    (8, 'exponential', 'exists:k=3', (997, 37, 69873)),
    (8, 'exponential', 'all:k=8', (937, 36, 65714)),
    (8, 'exponential', 'exists:k=8', (937, 36, 65714)),
    (12, 'uniform', 'max-spacing:x=1/2', (9, 0, 414)),
    (12, 'uniform', 'all:k=3', (0, 0, 0)),
    (12, 'uniform', 'exists:k=3', (1000, 37, 70000)),
    (12, 'uniform', 'all:k=12', (991, 37, 69586)),
    (12, 'uniform', 'exists:k=12', (991, 37, 69586)),
    (12, 'exponential', 'max-spacing:x=1/2', (10, 0, 409)),
    (12, 'exponential', 'all:k=3', (0, 0, 0)),
    (12, 'exponential', 'exists:k=3', (1000, 37, 70000)),
    (12, 'exponential', 'all:k=12', (990, 37, 69591)),
    (12, 'exponential', 'exists:k=12', (990, 37, 69591)),
    (40, 'uniform', 'max-spacing:x=1/2', (0, 0, 0)),
    (40, 'uniform', 'all:k=3', (0, 0, 0)),
    (40, 'uniform', 'exists:k=3', (1000, 37, 5000)),
    (40, 'uniform', 'all:k=40', (1000, 37, 5000)),
    (40, 'uniform', 'exists:k=40', (1000, 37, 5000)),
    (40, 'exponential', 'max-spacing:x=1/2', (0, 0, 0)),
    (40, 'exponential', 'all:k=3', (0, 0, 0)),
    (40, 'exponential', 'exists:k=3', (1000, 37, 5000)),
    (40, 'exponential', 'all:k=40', (1000, 37, 5000)),
    (40, 'exponential', 'exists:k=40', (1000, 37, 5000)),
]


def _event_from_label(label):
    kind, _, param = label.partition(":")
    value = param.split("=")[1]
    if kind == "max-spacing":
        return EventSpec.max_spacing(Fraction(value))
    if kind == "all":
        return EventSpec.all_k_subsets(int(value))
    return EventSpec.exists_k(int(value))


@pytest.mark.parametrize("n, model, label, frozen", _FROZEN_SUCCESSES)
def test_success_counts_are_frozen(monkeypatch, n, model, label, frozen):
    counts = []
    for trials, chunk_size, seed in _FREEZE_RUNS:
        if trials > 10_000 and n > 12:
            trials = 5000
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk_size)
        cfg = SimulationConfig(n=n, event=_event_from_label(label), model=SamplerModel(model),
                               trials=trials, seed=seed)
        counts.append(estimate(cfg).successes)
    assert tuple(counts) == frozen


# Runs the pickled (chunk_size, config) pairs on stdin and prints their success
# counts, the sha256 of the uniform sampler's spacings at n = 5, seed 17 over
# one chunk, and the numpy kernel that runs float64 log1p (None if unknown).
_PORTABLE_CHILD = r"""
import hashlib, json, pickle, sys
import numpy as np
from numpy._core import _multiarray_umath as umath
from bstick import montecarlo
from bstick.sticks import SamplerModel, sample_spacings_batch
counts = []
for chunk_size, cfg in pickle.load(sys.stdin.buffer):
    montecarlo.CHUNK_SIZE = chunk_size
    counts.append(montecarlo.estimate(cfg).successes)
rng = np.random.Generator(np.random.Philox(key=montecarlo._philox_key(17, 0)))
spacings = sample_spacings_batch(5, SamplerModel.UNIFORM_BREAKS, rng, 2**16)
info = getattr(umath, "__cpu_targets_info__", {}).get("log1p", {}).get("dd", {})
print(json.dumps({"counts": counts, "uniform": hashlib.sha256(spacings.tobytes()).hexdigest(),
                  "log1p": info.get("current")}))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="switches off x86 SIMD kernels")
def test_counts_and_uniform_spacings_hold_without_simd_dispatch():
    """The cross-CPU contract: with every numpy kernel above its baseline
    switched off (on an AVX-512 host that moves log1p, so exponential
    spacings move in their last bits), the frozen counts at n = 5 and 8 and
    the uniform spacing bits are those of the default kernels."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    rows = [row for row in _FROZEN_SUCCESSES if row[0] in (5, 8)]
    runs = pickle.dumps([
        (chunk_size, SimulationConfig(n=n, event=_event_from_label(label),
                                      model=SamplerModel(model), trials=trials, seed=seed))
        for n, model, label, _ in rows for trials, chunk_size, seed in _FREEZE_RUNS])

    def child(**env_vars):
        env = dict(os.environ, **env_vars)
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _PORTABLE_CHILD], input=runs,
                              capture_output=True, env=env, timeout=60, check=True)
        return json.loads(proc.stdout)

    default = child()
    baseline = child(NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__))
    frozen = [count for *_, counts in rows for count in counts]
    assert default["counts"] == baseline["counts"] == frozen
    assert default["uniform"] == baseline["uniform"]
    assert baseline["log1p"] is None or baseline["log1p"].startswith("baseline")


# ------------------------------------------------------------------ memory


@pytest.mark.parametrize("model", list(SamplerModel))
@pytest.mark.parametrize(
    "event", [EventSpec.all_k_subsets(3), EventSpec.exists_k(3), EventSpec.max_spacing(Fraction(1, 2))],
    ids=lambda e: e.label(),
)
def test_chunk_memory_is_bounded_by_the_block(model, event):
    """A 300-trial chunk at n = 20 000 holds 48 MB of spacings; the engine
    works it in sub-blocks of BLOCK_VALUES values and never holds more than a
    few blocks at once."""
    cfg = SimulationConfig(n=20_000, event=event, model=model, trials=300, seed=5)
    tracemalloc.start()
    try:
        estimate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * BLOCK_VALUES * 8


@pytest.mark.parametrize("model", list(SamplerModel))
@pytest.mark.parametrize(
    "event", [EventSpec.all_k_subsets(3), EventSpec.exists_k(3), EventSpec.max_spacing(Fraction(1, 2))],
    ids=lambda e: e.label(),
)
@pytest.mark.parametrize("n", [3, 5, 12, 40])
def test_repeat_estimate_reuses_block_memory(n, model, event):
    """Sub-blocks are worked in per-thread scratch arrays, so once one estimate
    has run, another of the same shape allocates no block-sized array: fresh
    ones would be faulted in from the kernel on every block."""
    estimate(SimulationConfig(n=n, event=event, model=model, trials=200_000, seed=1))
    tracemalloc.start()
    try:
        estimate(SimulationConfig(n=n, event=event, model=model, trials=200_000, seed=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Half of one block array.  Above NETWORK_MAX_N the sampler and _row_sums
    # run ufuncs over strided 2-d views, and numpy's iterator buffers for them
    # take up to about 200 KiB per call whatever the block size.
    assert peak <= 256 * 1024


def test_thread_workspace_over_the_verify_grid_is_bounded():
    """A thread's scratch arrays over verify's mc grid at its default trials
    (full 2^16-trial chunks) stay within 1.6 MiB: sub-blocks of BLOCK_VALUES
    values, the uniform draws written into the spacings array itself, the
    running sums of 'exists' in a ring of k rows, no separate array for row
    sums, and no scratch at all for the max-spacing test."""
    sizes = []

    def run():
        run_mc_crosschecks(100_000, 11, workers=1)
        sizes.append(sum(buf.nbytes for buf in sticks._scratch_local.buffers.values()))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert 0 < sizes[0] <= 1.6 * 2**20
