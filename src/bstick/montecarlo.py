"""Reproducible, chunk-parallel Monte Carlo estimation of polygon-event probabilities.

Reproducibility contract: the trial stream is split into chunks of CHUNK_SIZE
trials and chunk c draws from a Philox4x64-10 counter-based generator keyed by
the two 64-bit words (seed, c).  Each trial consumes a fixed number of uniform
draws (see SamplerModel.draws_per_trial), so the indicator stream is a pure
function of (seed, chunk index, offset within chunk) and (seed, trials, n,
event, model) fix an estimate bitwise however run_in_order spreads chunks.

Across machines (numpy 2.4.6) the contract depends on the model.  The uniform
model's spacings use only exactly rounded operations (sort, subtract, min,
max), so they are the same bits on any IEEE-754 machine with this Philox, and
so are its counts.  The exponential model's log1p kernel is picked by CPU at
run time, so its spacings may differ in the last bit between CPU families; its
counts are the same except for trials within an ulp of the event's boundary.

Within a chunk, trials are drawn and tested in consecutive sub-blocks of about
BLOCK_VALUES spacing values (at least one trial), which bounds a chunk's
memory (n is capped at MAX_N, so a sub-block holds at most MAX_N values).  The
sub-blocks consume the chunk's draws in order, and the samplers and predicates
work one column (one spacing index of every trial) at a time with the same
arithmetic as the row-major form, so neither the sub-blocks nor their layout
change any spacing, indicator or success count.  Each sub-block is sampled
into sticks.block_array, which owns the layout and the per-thread reuse of its
memory.

numpy loads when the first chunk is drawn (sticks.NumpyOnFirstUse), so only
`simulate` and `verify` load it.  A thread pool, and with it
concurrent.futures, loads only when run_in_order starts a second thread: a
one-worker `simulate` never does.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from math import sqrt
from statistics import NormalDist

from .sticks import (
    EventSpec,
    NumpyOnFirstUse,
    SamplerModel,
    block_array,
    event_indicator_batch,
    sample_spacings_batch,
)

np = NumpyOnFirstUse(globals())

__all__ = [
    "GENERATOR_ID",
    "CHUNK_SIZE",
    "TRIAL_BUDGET",
    "MAX_N",
    "MAX_SEED",
    "MAX_WORKERS",
    "default_workers",
    "check_workers",
    "check_budget",
    "run_in_order",
    "BudgetExceededError",
    "SimulationConfig",
    "EstimateResult",
    "wilson_interval",
    "estimate",
]

# Stream identifier recorded in every serialized estimate.  Bump only if the
# draw layout or generator ever changes.
GENERATOR_ID = "philox4x64-10/key=(seed,chunk):v1"

# Trials per chunk, part of the stream layout: changing it changes estimates.
# TRIAL_BUDGET holds an estimate to at most 10^9 trials, so every chunk index
# is far below sys.maxsize: a Python sequence index that fits the generator
# key's second word.
CHUNK_SIZE = 1 << 16

# Bound on trials * n, the total spacing values a run would draw and test,
# checked before the first draw.  Memory is bounded separately: a chunk is
# worked in sub-blocks of about BLOCK_VALUES spacing values (512 KiB of float64).
TRIAL_BUDGET = 10**9

# Spacing values per sub-block.  On a 2 vCPU Xeon (2 MiB L2 per core), two
# sweeps at n = 5, 6, 8 and 20 found blocks of 2^15-2^17 values within 20% of
# each other at 1 worker, and 2^18 1.2-2x slower.  At 2 workers 2^15 was
# 20-30% slower on verify --suite all (per-sub-block Python work holds the
# GIL), while 2^16 tied 2^17 at 1 and at 2 workers and halved each thread's
# scratch arrays over the verify grid (5.6 to 2.3 MiB at the time).
BLOCK_VALUES = 1 << 16

# Largest n an estimate accepts, kept apart from BLOCK_VALUES.  A sub-block
# holds at most max(BLOCK_VALUES, n) values (at least one trial), so this
# bounds a sub-block's arrays at 1 MiB each.  Larger n is a usage error
# (ValueError, CLI exit code 2), raised before anything is drawn.
MAX_N = 1 << 17

# Most threads a run_in_order call starts; more is a usage error (check_workers).
MAX_WORKERS = 64

# Futures run_in_order holds per thread, a bound set before any item runs.
IN_FLIGHT_PER_WORKER = 2

# Largest seed: a seed is one 64-bit word of the generator key.
MAX_SEED = 2**64 - 1

# The normal quantile of every estimate's 95% Wilson interval.
_Z95 = NormalDist().inv_cdf(0.975)


def default_workers() -> int:
    """The CPUs this process may run on, at most MAX_WORKERS.

    Counted by os.sched_getaffinity where the platform has it, else
    os.cpu_count().  The default of `verify --workers`.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    usable = len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)
    return min(usable, MAX_WORKERS)


def check_workers(workers: int) -> None:
    """Reject a worker count outside 1..MAX_WORKERS (ValueError)."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{MAX_WORKERS}, got {workers}")


def check_budget(trials: int, n: int) -> None:
    """Reject trials * n above TRIAL_BUDGET (BudgetExceededError)."""
    if trials * n > TRIAL_BUDGET:
        raise BudgetExceededError(
            f"trials*n = {trials} * {n} = {trials * n} exceeds the trial budget "
            f"TRIAL_BUDGET = {TRIAL_BUDGET}")


def ThreadPoolExecutor(max_workers: int):
    """A concurrent.futures.ThreadPoolExecutor, that module imported on the first call."""
    from concurrent.futures import ThreadPoolExecutor as pool_class

    return pool_class(max_workers=max_workers)


def run_in_order(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """Yield fn(item) for each item, in the order of items.

    The work is shared by threads = min(workers, len(items)) threads, the
    calling thread among them: it runs items 0, threads, 2 * threads, ...
    itself when their turn to be yielded comes, and a pool of threads - 1
    threads runs the rest (no pool at one thread).  Items i .. i +
    IN_FLIGHT_PER_WORKER * threads - 1 are submitted or due when item i is
    yielded, so at most IN_FLIGHT_PER_WORKER items per thread are
    outstanding.  The calling thread keeps its scratch arrays from one call
    to the next, where a pool's threads are new each time.  If a call
    raises, Ctrl-C interrupts the caller or the caller stops, the queued
    calls are cancelled and only the running ones finish.
    """
    threads = min(workers, len(items))
    if threads <= 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=threads - 1)
    pending = deque()
    window = IN_FLIGHT_PER_WORKER * threads
    ahead = 0  # items before this one are submitted or the caller's
    try:
        for i, item in enumerate(items):
            while ahead < min(i + window, len(items)):
                if ahead % threads:
                    pending.append(pool.submit(fn, items[ahead]))
                ahead += 1
            yield fn(item) if i % threads == 0 else pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


class BudgetExceededError(Exception):
    """trials * n exceeds the simulation budget TRIAL_BUDGET."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that determines an estimate bit-for-bit.

    Events are always tested by the reduced predicates of
    event_indicator_batch; the brute-force subset_polygon_oracle is a test
    reference only.
    """

    n: int
    event: EventSpec
    model: SamplerModel
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in 1..{MAX_N}, got {self.n}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.event.validate_for(self.n)


@dataclass(frozen=True)
class EstimateResult:
    p_hat: float
    trials: int
    successes: int
    ci_low: float
    ci_high: float
    seed: int
    model: SamplerModel
    generator_id: str = GENERATOR_ID

    @property
    def std_error(self) -> float:
        """Binomial standard error sqrt(p(1-p)/trials) at the point estimate."""
        return sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion.

    Well-behaved near 0 and 1, which matters here: the all-triangles
    probability is already below 2% at n = 5.
    """
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials and trials >= 1")
    p = successes / trials
    z2n = _Z95 * _Z95 / trials
    center = (p + z2n / 2) / (1 + z2n)
    half = _Z95 * sqrt(p * (1 - p) / trials + z2n / (4 * trials)) / (1 + z2n)
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _chunk_count(trials: int) -> int:
    return -(-trials // CHUNK_SIZE)


def _philox_key(seed: int, chunk_index: int) -> np.ndarray:
    return np.array([seed, chunk_index], dtype=np.uint64)


def _chunk_successes(config: SimulationConfig, chunk_index: int) -> int:
    start = chunk_index * CHUNK_SIZE
    count = min(CHUNK_SIZE, config.trials - start)
    rng = np.random.Generator(np.random.Philox(key=_philox_key(config.seed, chunk_index)))
    rows = max(1, BLOCK_VALUES // config.n)
    successes = 0
    for first in range(0, count, rows):
        size = min(rows, count - first)
        spacings = sample_spacings_batch(config.n, config.model, rng, size,
                                         out=block_array(config.n, size))
        hits = event_indicator_batch(config.event, spacings)
        successes += int(np.count_nonzero(hits))
    return successes


def estimate(config: SimulationConfig, workers: int = 1) -> EstimateResult:
    """Run config.trials independent trials; return the estimate and its 95% interval.

    trials * n above TRIAL_BUDGET raises BudgetExceededError before any draw.
    Chunks run through run_in_order on `workers` threads; per-chunk success
    counts are summed as integers, so the result does not depend on workers.
    """
    check_workers(workers)
    check_budget(config.trials, config.n)
    chunks = range(_chunk_count(config.trials))
    successes = sum(run_in_order(partial(_chunk_successes, config), chunks, workers))
    low, high = wilson_interval(successes, config.trials)
    return EstimateResult(
        p_hat=successes / config.trials,
        trials=config.trials,
        successes=successes,
        ci_low=low,
        ci_high=high,
        seed=config.seed,
        model=config.model,
    )
