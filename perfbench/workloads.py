"""The benchmark's workloads: CLI calls made from the seed, and their oracles.

Each workload is a closed loop with one client: it calls ``bstick.cli.main``
in-process, one call after another, and checks every output against an exact
oracle before the next call.  A round is the unit of timed work; Monte Carlo
rounds draw fresh seeds derived from the workload seed.

Import this module only after ``bstick`` is importable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from statistics import NormalDist
from typing import Callable

from bstick import exact

# Monte Carlo answers are compared at this standard error: answer_s is the
# time the headline estimate needs to reach it, i.e. SE^2 * seconds / SE_TARGET^2.
SE_TARGET = 1e-4

# Estimates must lie within this many binomial standard errors of the exact value.
MC_SIGMAS = 5.0

_Z95 = NormalDist().inv_cdf(0.975)

VERIFY_TRIALS = 100_000


@dataclass
class Outcome:
    """What one checked call did: units of work, errors found, headline SE."""

    work: int
    errors: list[str] = field(default_factory=list)
    se: float | None = None
    counters: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: Callable[[str], Outcome]
    headline: bool = False


def derive_seed(*parts) -> int:
    """A 63-bit seed that is a pure function of its parts."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class McConfig:
    n: int
    event: tuple[str, ...]
    exact_p: Fraction
    model: str = "uniform"


def mc_call(cfg: McConfig, trials: int, seed: int, workers: int, headline: bool = False) -> Call:
    p = float(cfg.exact_p)
    tol = MC_SIGMAS * sqrt(p * (1.0 - p) / trials)

    def check(out: str) -> Outcome:
        (rec,) = json.loads(out)
        errors = []
        if rec["trials"] != trials or rec["seed"] != seed:
            errors.append(f"record echoes trials={rec['trials']} seed={rec['seed']}")
        p_hat = float(rec["value_decimal"])
        if abs(p_hat - p) > tol:
            errors.append(f"{' '.join(cfg.event)} n={cfg.n} {cfg.model}: "
                          f"p_hat {p_hat} is {abs(p_hat - p) / tol * MC_SIGMAS:.2f} SE from {p:.12g}")
        se = (rec["ci_high"] - rec["ci_low"]) / (2 * _Z95)
        return Outcome(trials, errors, se)

    argv = ("simulate", "--n", str(cfg.n), *cfg.event, "--model", cfg.model,
            "--trials", str(trials), "--seed", str(seed), "--workers", str(workers))
    return Call(argv, check, headline)


def verify_call(seed: int, n_max: int = 20, trials: int = VERIFY_TRIALS) -> Call:
    def check(out: str) -> Outcome:
        entries = json.loads(out)
        errors = [f"{e['check_id']} failed" for e in entries if not e["passed"]]
        # Re-check the Monte Carlo entries against their exact values.
        for e in entries:
            if e["check_id"].startswith(("mc/all/", "mc/whitworth/", "mc/exists/")):
                p = float(Fraction(e["expected"]))
                tol = MC_SIGMAS * sqrt(p * (1.0 - p) / trials)
                if abs(float(e["actual"]) - p) > tol:
                    errors.append(f"{e['check_id']}: {e['actual']} outside {MC_SIGMAS:g} SE of {e['expected']}")
        failed = sum(not e["passed"] for e in entries)
        return Outcome(len(entries), errors,
                       counters={"verify.checks": len(entries), "verify.failed": failed})

    argv = ("verify", "--suite", "all", "--n-max", str(n_max), "--trials", str(trials),
            "--seed", str(seed))
    return Call(argv, check)


class Workload:
    """A named workload: warm-up calls, timed rounds, reproducibility pairs."""

    name: str
    unit: str  # what one unit of work is: trials or checks
    workers: int = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warmup(self) -> list[Call]:
        raise NotImplementedError

    def round(self, r: int) -> list[Call]:
        raise NotImplementedError

    def repro_pairs(self) -> list[tuple[Call, Call]]:
        """Pairs of calls whose records must match apart from the timestamp."""
        return []


class _MonteCarlo(Workload):
    unit = "trials"
    configs: list[tuple[McConfig, int]]  # (config, trials); the first is the headline
    warmup_trials: int

    def _calls(self, r, trials: int | None = None) -> list[Call]:
        return [mc_call(cfg, trials or t, derive_seed(self.name, self.seed, r, i),
                        self.workers, headline=i == 0)
                for i, (cfg, t) in enumerate(self.configs)]

    def warmup(self) -> list[Call]:
        return self._calls("warmup", self.warmup_trials)

    def round(self, r: int) -> list[Call]:
        return self._calls(r)


class McSmallN(_MonteCarlo):
    name, workers = "mc-small-n", 1
    warmup_trials = 1 << 12
    repro_trials = 3 * (1 << 16) - 5  # two full chunks and a partial one

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        all3 = ("--event", "all", "--k", "3")
        half = ("--event", "max-spacing", "--x", "1/2")
        self.configs = [
            (McConfig(5, all3, exact.prob_all_kgon(3, 5), model), 1 << 19)
            for model in ("uniform", "exponential")
        ] + [
            (McConfig(6, half, exact.whitworth_survivor(6, Fraction(1, 2)), model), 1 << 19)
            for model in ("uniform", "exponential")
        ]

    def repro_pairs(self) -> list[tuple[Call, Call]]:
        """Each config at workers=1 and workers=2, which must draw the same trials."""
        pairs = []
        for i, (cfg, _) in enumerate(self.configs):
            seed = derive_seed(self.name, self.seed, "repro", i)
            pairs.append(tuple(mc_call(cfg, self.repro_trials, seed, w) for w in (1, 2)))
        return pairs


class VerifyAll(Workload):
    name, unit = "verify-all", "checks"

    def warmup(self) -> list[Call]:
        return [verify_call(derive_seed(self.name, self.seed, "warmup"), n_max=5, trials=10_000)]

    def round(self, r: int) -> list[Call]:
        return [verify_call(derive_seed(self.name, self.seed, r))]


WORKLOADS = {w.name: w for w in (McSmallN, VerifyAll)}
