"""The benchmark's own checks, and the bstick names its tracer hooks into."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import bstick
import bstick.cli  # noqa: F401  (the tracer hooks into cli and verify too)
import bstick.verify  # noqa: F401
from bstick.montecarlo import BLOCK_VALUES, SimulationConfig
from bstick.sticks import EventSpec, SamplerModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    # Loaded by path: perfbench's modules have generic names (run, stats).
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selfcheck.py")], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_one_sample_span_per_sub_block():
    """The tracer rebinds montecarlo.sample_spacings_batch and
    event_indicator_batch and counts sample rows from the returned shape, so
    the chunk loop must call both by those names, once per sub-block, on a
    (rows, n)-shaped array."""
    tracing = _load_tracing()
    n = 5
    rows = BLOCK_VALUES // n
    chunk_size = rows + 1000
    trials = 2 * chunk_size + 17  # chunks of 2, 2 and 1 sub-blocks
    cfg = SimulationConfig(n=n, event=EventSpec.all_k_subsets(3),
                           model=SamplerModel.UNIFORM_BREAKS, trials=trials, seed=1,
                           chunk_size=chunk_size)
    tracer = tracing.Tracer()
    tracer.install(bstick)
    try:
        bstick.montecarlo.estimate(cfg)
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    assert names.count(tracing.ESTIMATE) == 1
    assert names.count(tracing.SAMPLE) == names.count(tracing.PREDICATE) == 5
    totals = tracing.per_run_totals(tracer.spans, tracer.counters)[0]
    assert totals["montecarlo.chunks"] == 5
    assert totals["sticks.sample_rows"] == trials
    assert totals["sticks.sample_bytes"] == trials * n * 8
