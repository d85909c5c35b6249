"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(values, p: float) -> float:
    """Linearly interpolated p-th percentile (the 'linear' rule of numpy)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest of PERCENTILES with MIN_BEYOND samples above it.

    None when even the median has fewer than MIN_BEYOND samples above it.
    """
    best = None
    for p in PERCENTILES:
        v = percentile(values, p)
        if sum(1 for x in values if x > v) >= MIN_BEYOND:
            best = (p, v)
    return best


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def describe(values) -> str:
    """'median X, pP Y, N samples' for a list of timings."""
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.6g}" if tail else f"no tail (<{MIN_BEYOND} beyond p50)"
    return f"median {median(values):.6g}, {tail_text}, {len(values)} samples"


def best(values, higher_is_better: bool = False) -> float:
    """The best of a run's rounds: the least time, or the most work per second.

    The host steps between speed levels up to 1.7x apart that last ten to
    forty seconds each, and a slow level only ever slows a round down.  The
    best round tracks the program's own speed as long as one round of the run
    meets the fastest level, where a median needs half of the run to.
    """
    return max(values) if higher_is_better else min(values)


def summarize(rounds: list[dict]) -> dict:
    """Statistics over timed rounds, each {"s", "work", "call_s", "var_x_s", "answer_s"}."""
    var_x_s = [r["var_x_s"] for r in rounds if r["var_x_s"] is not None]
    return {
        "rounds": len(rounds),
        "work_per_s": best([r["work"] / r["s"] for r in rounds], higher_is_better=True),
        "answer_s": best([r["answer_s"] for r in rounds]),
        "var_x_s": best(var_x_s) if var_x_s else None,
        "round_s": describe([r["s"] for r in rounds]),
        "call_s": describe([t for r in rounds for t in r["call_s"]]),
    }
