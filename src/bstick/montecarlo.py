"""Reproducible, chunk-parallel Monte Carlo estimation of polygon-event probabilities.

Reproducibility contract: the trial stream is split into fixed-size chunks and
chunk c draws from a Philox4x64-10 counter-based generator keyed by the two
64-bit words (seed, c).  Each trial consumes a fixed number of uniform draws
(see SamplerModel.draws_per_trial), so the indicator stream is a pure function
of (seed, chunk index, offset within chunk) and results are bitwise identical
for a given config no matter how chunks are scheduled across workers.

Within a chunk, trials are drawn and tested in consecutive sub-blocks of about
BLOCK_VALUES spacing values, which bounds a chunk's memory (n is capped at
MAX_N so that one trial fits in a sub-block).  The sub-blocks consume the
chunk's draws in order, and the samplers and predicates work one column (one
spacing index of every trial) at a time with the same arithmetic as the
row-major form, so neither the sub-blocks nor the column layout change any
spacing, indicator or success count.  Up to sticks.NETWORK_MAX_N values per
trial a sub-block is sampled into an F-ordered (trials, n) array, so its
columns stay contiguous from the sampler to the indicator; wider sub-blocks
stay C-ordered.  Each thread writes its sub-blocks into the same scratch
arrays (sticks.scratch_array) from block to block and from one estimate to
the next, so a run does not keep faulting in fresh pages.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil, sqrt
from statistics import NormalDist

import numpy as np

from .report import VerificationEntry
from .sticks import (
    NETWORK_MAX_N,
    ORACLE_MAX_N,
    EventSpec,
    SamplerModel,
    event_indicator_batch,
    sample_spacings_batch,
    scratch_array,
)

__all__ = [
    "GENERATOR_ID",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_TRIAL_BUDGET",
    "MAX_N",
    "MAX_WORKERS",
    "BudgetExceededError",
    "SimulationConfig",
    "EstimateResult",
    "wilson_interval",
    "estimate",
    "sampler_equivalence_test",
]

# Stream identifier recorded in every serialized estimate.  Bump only if the
# draw layout or generator ever changes.
GENERATOR_ID = "philox4x64-10/key=(seed,chunk):v1"

DEFAULT_CHUNK_SIZE = 1 << 16

# Guard on trials * n, the total spacing values a run would draw and test.
# Memory is bounded separately: a chunk is worked in sub-blocks of about
# BLOCK_VALUES spacing values (1 MiB of float64).
DEFAULT_TRIAL_BUDGET = 10**9

# Spacing values per sub-block.  On a 2 vCPU Xeon (2 MiB L2 per core), two
# sweeps at n = 5, 6, 8 and 20 found blocks of 2^15-2^17 values within 20% of
# each other with no consistent winner, and 2^18 1.2-2x slower.
BLOCK_VALUES = 1 << 17

# Largest n an estimate accepts: one trial's spacings must fit in a sub-block,
# or a sub-block's arrays would grow with n (n * 8 bytes each).  Larger n is a
# usage error (ValueError, CLI exit code 2), raised before anything is drawn.
MAX_N = BLOCK_VALUES

# Most worker threads an estimate starts.  Each worker takes a fixed share of
# the chunks, so an estimate holds one thread and one future per worker, never
# one per chunk.  More workers is a usage error, raised before any thread starts.
MAX_WORKERS = 64

_MAX_SEED = 2**64 - 1


class BudgetExceededError(Exception):
    """trials * n exceeds the configured simulation budget."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that determines an estimate bit-for-bit (plus chunking)."""

    n: int
    event: EventSpec
    model: SamplerModel
    trials: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE
    use_oracle: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in 1..{MAX_N}, got {self.n}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.event.validate_for(self.n)
        if self.use_oracle and self.n > ORACLE_MAX_N:
            raise ValueError(f"oracle evaluation limited to n <= {ORACLE_MAX_N}")


@dataclass(frozen=True)
class EstimateResult:
    p_hat: float
    trials: int
    successes: int
    ci_low: float
    ci_high: float
    ci_level: float
    seed: int
    model: SamplerModel
    generator_id: str = GENERATOR_ID

    @property
    def std_error(self) -> float:
        """Binomial standard error sqrt(p(1-p)/trials) at the point estimate."""
        return sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials)


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Well-behaved near 0 and 1, which matters here: the all-triangles
    probability is already below 2% at n = 5.
    """
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials and trials >= 1")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + level / 2)
    p = successes / trials
    z2n = z * z / trials
    center = (p + z2n / 2) / (1 + z2n)
    half = z * sqrt(p * (1 - p) / trials + z2n / (4 * trials)) / (1 + z2n)
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _philox_key(seed: int, chunk_index: int) -> np.ndarray:
    return np.array([seed, chunk_index], dtype=np.uint64)


def _chunk_successes(config: SimulationConfig, chunk_index: int) -> int:
    start = chunk_index * config.chunk_size
    count = min(config.chunk_size, config.trials - start)
    rng = np.random.Generator(np.random.Philox(key=_philox_key(config.seed, chunk_index)))
    rows = max(1, BLOCK_VALUES // config.n)
    successes = 0
    for first in range(0, count, rows):
        size = min(rows, count - first)
        if config.n <= NETWORK_MAX_N:
            out = scratch_array("spacings", (config.n, size)).T
        else:
            out = scratch_array("spacings", (size, config.n))
        spacings = sample_spacings_batch(config.n, config.model, rng, size, out=out)
        hits = event_indicator_batch(config.event, spacings, use_oracle=config.use_oracle)
        successes += int(np.count_nonzero(hits))
    return successes


def _strided_successes(config: SimulationConfig, first: int, step: int, n_chunks: int) -> int:
    """Successes of chunks first, first + step, ... below n_chunks."""
    return sum(_chunk_successes(config, c) for c in range(first, n_chunks, step))


def estimate(
    config: SimulationConfig,
    workers: int = 1,
    budget: int = DEFAULT_TRIAL_BUDGET,
    ci_level: float = 0.95,
) -> EstimateResult:
    """Run config.trials independent trials and return the estimate.

    Chunks may be evaluated on up to MAX_WORKERS concurrent workers; worker w
    takes chunks c = w (mod workers).  Per-chunk success counts are merged by
    integer summation, so the result does not depend on worker count.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{MAX_WORKERS}, got {workers}")
    if config.trials * config.n > budget:
        raise BudgetExceededError(
            f"trials*n = {config.trials * config.n} exceeds budget {budget}"
        )
    n_chunks = ceil(config.trials / config.chunk_size)
    workers = min(workers, n_chunks)
    if workers == 1:
        successes = _strided_successes(config, 0, 1, n_chunks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_strided_successes, config, w, workers, n_chunks)
                       for w in range(workers)]
            successes = sum(f.result() for f in futures)
    low, high = wilson_interval(successes, config.trials, ci_level)
    return EstimateResult(
        p_hat=successes / config.trials,
        trials=config.trials,
        successes=successes,
        ci_low=low,
        ci_high=high,
        ci_level=ci_level,
        seed=config.seed,
        model=config.model,
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
    tol = 5.0 * sqrt(res_a.std_error**2 + res_b.std_error**2)
    return VerificationEntry(
        check_id=f"mc/sampler-equivalence/{event.label()}/n={n}",
        expected=f"{res_a.p_hat:.12g}",
        actual=f"{res_b.p_hat:.12g}",
        residual=diff,
        tolerance=tol,
        passed=diff <= tol,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )
