"""Self-check of the benchmark's own arithmetic, on hand-built inputs.

    python3 perfbench/selfcheck.py

Needs only the standard library; bstick is not imported.
"""

from __future__ import annotations

import statistics
import threading
import unittest

import stats
import tracing
from run import parse_importtime


def span(sid, name, t0, t1, parent=None, run=0):
    return (sid, name, t0, t1, parent, run)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 19 samples: 9 lie above the median, so no percentile qualifies.
        self.assertIsNone(stats.tail_percentile(list(range(19))))
        # 21 samples: 10 lie above the median, but only 2 above p90.
        self.assertEqual(stats.tail_percentile(list(range(21))), (50.0, 10.0))

    def test_picks_highest_qualifying(self):
        values = list(range(1, 1001))
        p, v = stats.tail_percentile(values)
        self.assertEqual(p, 99.0)  # p99.9 leaves only 1 sample beyond
        self.assertEqual(sum(x > v for x in values), 10)

    def test_percentile_interpolates_like_numpy(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(stats.percentile([10, 20, 30, 40, 50], 90), 46.0)

    def test_best(self):
        self.assertEqual(stats.best([5, 1, 4, 2, 3]), 1)
        self.assertEqual(stats.best([5, 1, 4, 2, 3], higher_is_better=True), 5)
        self.assertEqual(stats.best([7.0]), 7.0)

    def test_quartile_spread_matches_statistics(self):
        values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartile_spread(values), (q3 - q1) / q2)


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(1, "a", 0.0, 10.0), span(2, "b", 1.0, 3.0, 1), span(3, "c", 4.0, 5.0, 1),
                 span(4, "d", 1.5, 2.0, 2)]
        self.assertEqual(tracing.self_times(spans), {1: 7.0, 2: 1.5, 3: 1.0, 4: 0.5})

    def test_overlapping_children_are_counted_once(self):
        # Two worker threads under one estimate: [1, 6] and [2, 8] cover 7 of 10.
        spans = [span(1, "est", 0.0, 10.0), span(2, "w", 1.0, 6.0, 1), span(3, "w", 2.0, 8.0, 1),
                 span(4, "w", 3.0, 4.0, 1)]
        self.assertAlmostEqual(tracing.self_times(spans)[1], 3.0)

    def test_children_are_clipped_to_parent(self):
        spans = [span(1, "est", 0.0, 4.0), span(2, "w", 3.0, 6.0, 1), span(3, "w", -1.0, 1.0, 1)]
        self.assertAlmostEqual(tracing.self_times(spans)[1], 2.0)

    def test_layer_metrics_per_round(self):
        est, smp, prd = tracing.ESTIMATE, tracing.SAMPLE, tracing.PREDICATE
        spans = [span(1, est, 0.0, 4.0, run=0), span(2, smp, 0.0, 3.0, 1, 0),
                 span(3, prd, 1.0, 4.0, 1, 0),
                 span(4, est, 10.0, 12.0, run=1), span(5, smp, 10.0, 11.0, 4, 1)]
        totals = tracing.per_run_totals(spans, {(0, "verify.checks"): 3, (1, "verify.checks"): 3})
        m = tracing.layer_metrics(totals, workers=2)
        self.assertEqual(m["montecarlo.chunks"], 1.0)
        self.assertEqual(m["montecarlo.estimate_s"], 3.0)
        self.assertEqual(m["montecarlo.self_s"], 0.5)  # (0 + 1) / 2
        self.assertEqual(m["montecarlo.worker_busy_frac"], (6.0 + 1.0) / (6.0 * 2))
        self.assertEqual(m["verify.checks"], 3.0)
        self.assertEqual(tracing.repeat_counts(totals)[1]["montecarlo.chunks"], 1)


class TracerParent(unittest.TestCase):
    def test_worker_thread_spans_hang_under_main_span(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: None)

        def outer():
            t = threading.Thread(target=inner)
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())

        tracer.wrap("outer", outer)()
        by_name = {s[1]: s for s in tracer.spans}
        self.assertEqual(by_name["inner"][4], by_name["outer"][0])


class ImportTime(unittest.TestCase):
    def test_outermost_packages(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |     numpy.core",
            "import time:        20 |        100 |   numpy",
            "import time:         5 |          5 |       numpy.linalg",
            "import time:        30 |         50 |     scipy",
            "import time:         5 |         70 |     scipy.integrate",
            "import time:        40 |        300 |   bstick.verify",
            "import time:         1 |        500 | bstick",
        ])
        expected = {"setup.numpy_s": 100e-6, "setup.scipy_s": 120e-6, "setup.bstick_s": 280e-6}
        got = parse_importtime(text)
        self.assertEqual(got.keys(), expected.keys())
        for key, value in expected.items():
            self.assertAlmostEqual(got[key], value, places=12)


if __name__ == "__main__":
    unittest.main()
