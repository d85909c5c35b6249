"""One fresh interpreter of a benchmark run; started by run.py, not by hand.

Both roles first set up: import bstick, build the inputs, make the warm-up
calls, and note the moment the first timed round starts.  Then:
  measure  timed rounds for --seconds, then with --repro the
           reproducibility checks;
  trace    untraced rounds for half of --seconds and traced
           rounds for the other half, then the reproducibility checks and the
           exact-repeat counts; the spans go to out/spans-<workload>.jsonl.gz.

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))

import bstick  # noqa: E402
from bstick import cli  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, SE_TARGET  # noqa: E402


class Ledger:
    """Counts checked operations and keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(errors)
            del self.messages[5:]


def run_call(call, ledger: Ledger, tracer=None):
    """Make one CLI call with stdout captured; return (seconds, outcome or None, text)."""
    main = cli.main if tracer is None else tracer.wrap(tracing.CLI_MAIN, cli.main)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(call.argv))
    except Exception as exc:  # any exception is a failed operation, never a crash
        ledger.record([f"{' '.join(call.argv)}: raised {type(exc).__name__}: {exc}"])
        return time.perf_counter() - t0, None, ""
    seconds = time.perf_counter() - t0
    if rc != 0:
        ledger.record([f"{' '.join(call.argv)}: exit {rc}: {err.getvalue().strip()[-300:]}"])
        return seconds, None, ""
    text = out.getvalue()
    try:
        outcome = call.check(text)
    except (ValueError, KeyError, TypeError) as exc:
        ledger.record([f"{' '.join(call.argv)}: unreadable output: {type(exc).__name__}: {exc}"])
        return seconds, None, text
    if tracer is not None:
        tracer.count("cli.bytes_out", len(text.encode()))
        for key, value in outcome.counters.items():
            tracer.count(key, value)
    ledger.record(outcome.errors)
    return seconds, outcome, text


def run_rounds(wl, seconds: float, ledger: Ledger, first_round: int, tracer=None) -> list[dict]:
    """Closed loop: timed rounds until `seconds` have passed (at least one round)."""
    rounds = []
    deadline = time.monotonic() + seconds
    r = first_round
    while not rounds or time.monotonic() < deadline:
        if tracer is not None:
            tracer.run = r
        total = work = 0.0
        call_s = []
        var_x_s = None
        for call in wl.round(r):
            dt, outcome, _ = run_call(call, ledger, tracer)
            total += dt
            call_s.append(dt)
            if outcome is not None:
                work += outcome.work
                if call.headline:
                    var_x_s = outcome.se**2 * dt
        # Time to the workload's answer: the whole round when it is exact, the
        # time the headline estimate would need to reach SE_TARGET otherwise.
        answer_s = total if var_x_s is None else var_x_s / SE_TARGET**2
        rounds.append({"s": total, "work": work, "call_s": call_s, "var_x_s": var_x_s,
                       "answer_s": answer_s})
        r += 1
    return rounds


def check_repro(wl, ledger: Ledger) -> None:
    """Each pair of calls must print the same records apart from the timestamp."""
    for a, b in wl.repro_pairs():
        texts = []
        for call in (a, b):
            _, outcome, text = run_call(call, ledger)
            texts.append([{k: v for k, v in rec.items() if k != "timestamp"}
                          for rec in json.loads(text)] if outcome is not None else None)
        same = texts[0] is not None and texts[0] == texts[1]
        ledger.record([] if same else
                      [f"{' '.join(a.argv)}: workers=1 and workers=2 records differ"])


def source_key() -> str:
    """Digest of the package and benchmark sources, keying the count file."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(wl, per_round: dict[int, dict[str, int]], ledger: Ledger) -> None:
    """Exact-repeat counts must agree across rounds and with earlier runs."""
    rounds = sorted(per_round)
    reference = per_round[rounds[0]]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{source_key()}-{wl.name}.json"
    if path.exists():
        reference = json.loads(path.read_text())
    else:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(reference, sort_keys=True))
        os.replace(tmp, path)
    for r in rounds:
        diff = {k: (reference.get(k), v) for k, v in per_round[r].items() if reference.get(k) != v}
        ledger.record([f"count {k} is {v} in round {r}, {ref} before" for k, (ref, v) in diff.items()])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=["measure", "trace"])
    parser.add_argument("--first-round", type=int, default=0,
                        help="index of the first measured round; Monte Carlo seeds derive from it")
    parser.add_argument("--repro", action="store_true",
                        help="after measuring, run the reproducibility checks")
    args = parser.parse_args()

    if not Path(bstick.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bstick was imported from {bstick.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ledger = Ledger()
    wl = WORKLOADS[args.workload](args.seed)
    for call in wl.warmup():
        run_call(call, ledger)
    result = {"ready": time.monotonic()}

    if args.role == "measure":
        result["rounds"] = run_rounds(wl, args.seconds, ledger, args.first_round)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.repro:
            check_repro(wl, ledger)
    elif args.role == "trace":
        plain = stats.summarize(run_rounds(wl, args.seconds / 2, ledger, 0))
        tracer = tracing.Tracer()
        tracer.install(bstick)
        try:
            traced_rounds = run_rounds(wl, args.seconds / 2, ledger, plain["rounds"], tracer)
        finally:
            tracer.uninstall()
        traced = stats.summarize(traced_rounds)
        check_repro(wl, ledger)
        totals = tracing.per_run_totals(tracer.spans, tracer.counters)
        check_counts(wl, tracing.repeat_counts(totals), ledger)
        result["layers"] = tracing.layer_metrics(totals, wl.workers)
        result["layers"]["trace.overhead_frac"] = 1.0 - traced["work_per_s"] / plain["work_per_s"]
        result["plain"], result["traced"] = plain, traced
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}.jsonl.gz"
        tracer.write(spans_path)
        result["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)}

    result.update(attempted=ledger.attempted, failed=ledger.failed, messages=ledger.messages,
                  unit=wl.unit)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
