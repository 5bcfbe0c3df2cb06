"""Self-tests of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

Covers the span self-time arithmetic, the percentile rule, the digest
check and the shape of ``BENCHMARK.json``.  Needs numpy, nothing else.
"""

from __future__ import annotations

import json
import os
import re
import sys
import unittest
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import percentile, tail_percentile  # noqa: E402
from tracing import SpanArrays, Tracer  # noqa: E402
from workloads import _digest_checks, digest_lines, record_line  # noqa: E402


def _spans(rows):
    """rows: (name, start, end, parent index)."""
    names = sorted({r[0] for r in rows})
    return SpanArrays(
        names,
        np.array([names.index(r[0]) for r in rows]),
        np.array([r[1] for r in rows], dtype=float),
        np.array([r[2] for r in rows], dtype=float),
        np.array([r[3] for r in rows]),
    )


class SelfTime(unittest.TestCase):
    def setUp(self):
        # timed [0, 10]
        #   loop [1, 9]
        #     mac.tag [2, 3]
        #     channel [4, 8]
        #       channel.link [5, 6]
        #       channel.link [6.5, 7]
        #   loop [9.5, 10]
        self.spans = _spans(
            [
                ("timed", 0.0, 10.0, -1),
                ("loop", 1.0, 9.0, 0),
                ("mac.tag", 2.0, 3.0, 1),
                ("channel", 4.0, 8.0, 1),
                ("channel.link", 5.0, 6.0, 3),
                ("channel.link", 6.5, 7.0, 3),
                ("loop", 9.5, 10.0, 0),
            ]
        )

    def test_self_is_duration_minus_children(self):
        np.testing.assert_allclose(
            self.spans.self_time, [1.5, 3.0, 1.0, 2.5, 1.0, 0.5, 0.5]
        )

    def test_layers_account_for_the_root(self):
        by_layer = self.spans.self_by_layer()
        self.assertAlmostEqual(sum(by_layer.values()), 10.0)
        self.assertAlmostEqual(by_layer["residual"], 1.5)
        self.assertAlmostEqual(by_layer["channel"], 4.0)
        self.assertAlmostEqual(by_layer["loop"], 3.5)

    def test_within_marks_descendants_only(self):
        channel = self.spans.mask(lambda n: n == "channel")
        self.assertEqual(
            self.spans.within(channel).tolist(),
            [False, False, False, False, True, True, False],
        )

    def test_tracer_records_nesting(self):
        tracer = Tracer("selftest")

        def leaf():
            return 1

        traced_leaf = tracer.wrap("mac.tag", leaf)
        traced_outer = tracer.wrap("loop", lambda: traced_leaf() + traced_leaf())
        with tracer.span("timed"):
            self.assertEqual(traced_outer(), 2)
        spans = tracer.arrays()
        self.assertEqual(spans.parent.tolist(), [-1, 0, 1, 1])
        self.assertEqual([spans.names[i] for i in spans.name_id], ["timed", "loop", "mac.tag", "mac.tag"])
        self.assertTrue((spans.self_time >= 0).all())
        self.assertAlmostEqual(float(spans.self_time.sum()), float(spans.duration[0]))


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(99), 50.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(999), 90.0)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(10_000), 99.9)

    def test_percentile_matches_numpy(self):
        values = [float(v) for v in np.random.default_rng(1).exponential(size=37)]
        for p in (0.0, 50.0, 90.0, 100.0):
            self.assertAlmostEqual(percentile(values, p), float(np.percentile(values, p)))


class Digest(unittest.TestCase):
    def _records(self):
        return [
            SimpleNamespace(
                slot=i,
                n_transmitters=i % 3,
                decoded=f"tag{i % 4}" if i % 3 == 1 else None,
                collision_detected=i % 3 == 2,
                acked=i % 3 == 1,
                empty_flag=False,
            )
            for i in range(50)
        ]

    def test_perturbed_record_fails_the_check(self):
        records = self._records()
        recorded = digest_lines([record_line(r) for r in records])
        ok = _digest_checks([{"digest": recorded}], recorded)
        self.assertTrue(all(passed for _, passed, _ in ok))
        records[17].acked = not records[17].acked
        perturbed = digest_lines([record_line(r) for r in records])
        checks = dict((n, p) for n, p, _ in _digest_checks([{"digest": perturbed}], recorded))
        self.assertFalse(checks["digest"])
        repeat = dict((n, p) for n, p, _ in _digest_checks(
            [{"digest": recorded}, {"digest": perturbed}], None))
        self.assertFalse(repeat["repeat"])


class BenchmarkSpec(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def setUp(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def test_shape(self):
        s = self.spec
        self.assertEqual(
            set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        names = [m["name"] for m in s["workloads"] + s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_workloads_match_run_py(self):
        from run import WORKLOAD_NAMES

        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
