"""bstick benchmark: end-to-end and per-layer metrics of the CLI workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A summary (machine facts, per-workload names of the metrics, tail latencies)
goes to stderr.

Workloads (see workloads.py) are closed loops with one client calling
``bstick.cli.main`` in-process.  Every output is checked against an exact
oracle; ``failed``/``attempted`` count checked operations, so fail_frac is
failed / attempted.

End-to-end metrics (--trace 0).  MEASURE_PROCESSES fresh interpreters each
set up and then measure for a share of --seconds.  Timings pool their rounds
and take the best one (stats.best), because the host's speed steps between
levels that only ever slow rounds down; stderr gives the median and tail too:
  setup_s      fresh interpreter to its first timed round: imports, inputs,
               one warm-up; median over the interpreters.
  work_per_s   units of work per second of CLI time: trials_per_s on
               mc-small-n, checks_per_s on verify-all.
  answer_s     time to the workload's answer at its stated accuracy: one full
               verify run; on mc-small-n the headline estimate's
               SE^2 x seconds / SE_TARGET^2 (the var x s efficiency of Glynn
               and Whitt, with SE taken from the estimate's own 95% interval).
  peak_rss_mb  peak resident set of a measuring interpreter, median over them.

Per-layer metrics (--trace 1) are means per round of a traced run, whose
spans are recorded around the bstick functions by tracing.py.  Which
end-to-end metric each should move:
  setup.*                   -> setup_s (all workloads)
  cli.*, exact.*, kernel.*  -> verify-all (its exact cross-checks)
  sticks.*                  -> mc-small-n and verify-all; peak_rss_mb
  montecarlo.*              -> verify-all and mc-small-n (both workers=1, so
                               worker_busy_frac stays near 1)
  verify.*                  -> verify-all only
  trace.overhead_frac       1 - traced / untraced work_per_s in the same run
sticks.sample_bytes is computed from the shapes of the returned arrays, not
measured traffic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MEASURE_PROCESSES = 3
IMPORTTIME_SAMPLES = 3
# Seconds a child may take beyond its measuring time, and an import-time
# probe in all; a whole run stays under 180 s.
CHILD_SLACK_S = 40
IMPORT_TIMEOUT_S = 20

UNIT_NAMES = {"trials": "trials_per_s", "checks": "checks_per_s"}



def load_spec() -> dict:
    """The benchmark definition, which names the workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("BSTICK_SEED", None)
    return env


def run_worker(args, role: str, seconds: float, *extra: str) -> tuple[float, dict]:
    """Start worker.py in a fresh interpreter; return (setup seconds, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--role", role, *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=seconds + CHILD_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def measure(args) -> dict:
    """End-to-end metrics from MEASURE_PROCESSES fresh interpreters in turn.

    Each sets up, which gives one setup_s sample, and then measures for its
    share of --seconds; their rounds are pooled, so no single process's luck
    (memory layout, a slow spell) sets a median alone.
    """
    setups, peaks, rounds, outcome = [], [], [], {"attempted": 0, "failed": 0, "messages": []}
    share = args.seconds / MEASURE_PROCESSES
    for i in range(MEASURE_PROCESSES):
        extra = ["--first-round", str(len(rounds))]
        if i == MEASURE_PROCESSES - 1:
            extra.append("--repro")
        setup, result = run_worker(args, "measure", share, *extra)
        setups.append(setup)
        peaks.append(result["peak_rss_mb"])
        rounds.extend(result["rounds"])
        for key in outcome:
            outcome[key] += result[key]
    summary = stats.summarize(rounds)
    summary.update(outcome, unit=result["unit"], setups=setups, peaks=peaks,
                   setup_s=stats.median(setups), peak_rss_mb=stats.median(peaks))
    return summary


def import_times() -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and bstick's own modules."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bstick"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=IMPORT_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import bstick failed:\n{proc.stderr[-2000:]}")
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    """Import seconds of numpy, scipy and bstick's own share from `-X importtime`.

    Lines are printed children first; a child is indented two spaces more
    than its parent, so reading them in reverse visits parents first.  numpy
    or scipy modules nested under the other package count for the outer one.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        name = name.rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip().split(".")[0], int(cumulative) / 1e6))
    totals = {"numpy": 0.0, "scipy": 0.0, "bstick": 0.0}
    path: list[str] = []
    for depth, top, seconds in reversed(rows):
        del path[depth:]
        if top == "bstick" and depth == 0:
            totals["bstick"] += seconds
        elif top in ("numpy", "scipy") and not {"numpy", "scipy"} & set(path):
            totals[top] += seconds
        path.append(top)
    totals["bstick"] -= totals["numpy"] + totals["scipy"]
    return {f"setup.{k}_s": v for k, v in totals.items()}


def machine_facts() -> str:
    from importlib import metadata

    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg} {metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg} missing")
    return (f"nproc {os.cpu_count()} ({len(os.sched_getaffinity(0))} usable), "
            f"{platform.machine()}, "
            f"Python {platform.python_version()}, {', '.join(versions)}")


def metric_block(values: dict[str, float], metrics: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bstick" / "__init__.py").is_file():
        print(f"error: no bstick package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    log = lambda text: print(text, file=sys.stderr)  # noqa: E731
    log(f"[{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}] "
        + machine_facts())
    try:
        if args.trace == 0:
            result = measure(args)
            metrics = metric_block(result, spec["end_to_end"])
            log(f"  setup_s samples {[round(x, 4) for x in result['setups']]}, "
                f"peak_rss_mb samples {[round(x, 1) for x in result['peaks']]}")
            var_x_s = f", var_x_s {result['var_x_s']:.6g}" if result["var_x_s"] else ""
            log(f"  {UNIT_NAMES[result['unit']]} {result['work_per_s']:.6g}, "
                f"answer_s {result['answer_s']:.6g}{var_x_s} over {result['rounds']} rounds")
            log(f"  round seconds: {result['round_s']}")
            log(f"  call seconds: {result['call_s']}")
        else:
            samples = [import_times() for _ in range(IMPORTTIME_SAMPLES)]
            values = {k: stats.median([s[k] for s in samples]) for k in samples[0]}
            _, result = run_worker(args, "trace", args.seconds)
            values.update(result["layers"])
            metrics = metric_block(values, spec["per_layer"])
            log(f"  untraced: {result['plain']['rounds']} rounds, "
                f"{result['plain']['work_per_s']:.6g} {result['unit']}/s; traced: "
                f"{result['traced']['rounds']} rounds, {result['traced']['work_per_s']:.6g} "
                f"{result['unit']}/s")
            log(f"  spans: {result['spans']['count']} in {result['spans']['path']}")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    log(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} checked operations)")
    for message in result["messages"]:
        log(f"  FAIL {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
