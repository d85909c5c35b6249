"""Run the benchmark over several seeds and report each metric's steadiness.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

For every workload and end-to-end metric this prints the median of the runs
and their spread, (Q3 - Q1) / median with quartiles from
statistics.quantiles(n=4), next to the metric's bound from BENCHMARK.json.
Runs go seed by seed, each seed across all workloads, so a slow spell of the
machine falls on every workload alike.  --out writes the runs, the summary
and the machine facts as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import time

import stats
from run import ROOT, load_spec, machine_facts


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cache_sizes() -> dict[str, str]:
    """L1d/L2/L3 sizes as lscpu reports them, when lscpu is installed."""
    if shutil.which("lscpu") is None:
        return {}
    proc = subprocess.run(["lscpu", "-J"], capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        return {}
    rows = {r["field"].rstrip(":"): r["data"] for r in json.loads(proc.stdout)["lscpu"]}
    return {k: rows[k] for k in ("Model name", "L1d cache", "L2 cache", "L3 cache") if k in rows}


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="range A-B of seeds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="write the runs and summary here as JSON")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]

    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=wall)
            runs[w].append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {}
    for w in workloads:
        summary[w] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            row = {"median": stats.median(values), "bound": m["bound"]}
            if len(values) >= 2:
                row["spread"] = stats.quartile_spread(values)
            summary[w][m["name"]] = row
            spread = f"spread {row['spread']:.4f}" if "spread" in row else "spread n/a"
            verdict = ("" if "spread" not in row or m["name"] == "setup_s" else
                       " < bound/3" if row["spread"] < m["bound"] / 3 else
                       " < bound" if row["spread"] < m["bound"] else " OVER BOUND")
            print(f"  {w:12s} {m['name']:12s} median {row['median']:.6g} {m['unit']:4s} "
                  f"{spread} (bound {m['bound']}){verdict}")
    if args.out:
        facts = {"facts": machine_facts(), "platform": platform.platform(), **cache_sizes()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": facts, "run_seconds": seconds, "seeds": args.seeds,
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
