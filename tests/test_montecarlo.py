"""Estimator reproducibility, Wilson intervals, and agreement with exact values."""

import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from fractions import Fraction
from math import sqrt
from statistics import NormalDist

import numpy as np
import pytest

from bstick import montecarlo, sticks
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
    wilson_interval,
)
from bstick.sticks import EventSpec, SamplerModel, _subset_check_batch, sample_spacings_batch
from bstick.verify import run_mc_crosschecks, sampler_equivalence_test


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
    low, high = wilson_interval(3, 7, level=0.5)
    assert 0 < low < 3 / 7 < high < 1


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)
    with pytest.raises(ValueError):
        wilson_interval(5, 10, level=1.0)


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


def test_chunk_size_and_interval_level_are_not_settings():
    """An estimate is fixed by (seed, trials, n, event, model): the chunk size
    is the constant CHUNK_SIZE and the interval is always the 95% one."""
    with pytest.raises(TypeError):
        _config(chunk_size=1000)
    with pytest.raises(TypeError):
        estimate(_config(trials=10), ci_level=0.9)
    assert main(["simulate", "--n", "5", "--event", "all", "--k", "3", "--trials", "1000",
                 "--chunk-size", "1000"]) == 2


def test_budget_guard():
    cfg = _config(n=10, event=EventSpec.exists_k(3), trials=1_000_000)
    with pytest.raises(BudgetExceededError):
        estimate(cfg, budget=9_999_999)
    with pytest.raises(ValueError):
        estimate(cfg, workers=0)


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


class FakeExecutor:
    """Stands in for ThreadPoolExecutor: runs each task inline and records
    the workers asked for, the tasks submitted and the most futures alive at
    once."""

    instances = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        self.most_alive = 0
        self._alive = weakref.WeakSet()
        FakeExecutor.instances.append(self)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        self._alive.add(future)
        self.most_alive = max(self.most_alive, len(self._alive))
        return future


@pytest.mark.parametrize("workers, chunks", [(2, 7), (5, 3), (MAX_WORKERS, 1000)])
def test_chunk_futures_are_bounded_per_worker(monkeypatch, workers, chunks):
    """One pool of at most one thread per chunk, and one task per chunk; at
    one trial per chunk the futures alive at once stay within
    IN_FLIGHT_PER_WORKER per thread however many chunks there are.  The
    counts equal the serial run.  No real thread is started."""
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 1)
    cfg = _config(n=5, event=EventSpec.exists_k(3), trials=chunks, seed=3)
    expected = estimate(cfg).successes
    FakeExecutor.instances.clear()
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", FakeExecutor)
    assert estimate(cfg, workers=workers).successes == expected
    (pool,) = FakeExecutor.instances
    assert pool.max_workers == min(workers, chunks)
    assert pool.submitted == chunks
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


def test_too_many_workers_is_rejected_before_any_pool(monkeypatch):
    FakeExecutor.instances.clear()
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", FakeExecutor)
    with pytest.raises(ValueError, match="workers"):
        estimate(_config(trials=10**6), workers=MAX_WORKERS + 1)
    assert main(["simulate", "--n", "5", "--event", "all", "--k", "3", "--trials", "1000",
                 "--workers", str(MAX_WORKERS + 1)]) == 2
    assert FakeExecutor.instances == []


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


def test_sampler_equivalence_entry():
    entry = sampler_equivalence_test(5, EventSpec.all_k_subsets(3), 200_000, seed=77)
    assert entry.passed
    assert entry.check_id == "mc/sampler-equivalence/all:k=3/n=5"
    assert entry.residual <= entry.tolerance


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
    (full 2^16-trial chunks) stay within 2.5 MiB: sub-blocks of BLOCK_VALUES
    values and the uniform draws written into the spacings array itself."""
    sizes = []

    def run():
        run_mc_crosschecks(100_000, 11, workers=1)
        sizes.append(sum(buf.nbytes for buf in sticks._scratch_local.buffers.values()))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert 0 < sizes[0] <= 2.5 * 2**20
