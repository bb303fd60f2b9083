"""Self-tests for run.py: the metric tables it prints against BENCHMARK.json.

    python3 perfbench/test_run.py      # also run by `dune runtest`
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class MetricTables(unittest.TestCase):
    def test_names_are_well_formed(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertRegex(name, NAME)

    def test_tables_match_benchmark_json(self):
        b = benchmark_json()
        self.assertEqual({m["name"]: m["unit"] for m in b["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in b["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in b["workloads"]], run.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class HostScaling(unittest.TestCase):
    def host(self, samples):
        h = run.HostSpeed.__new__(run.HostSpeed)  # no sampler process
        h.ref, h.samples = 0.001, samples
        return h

    def test_slow_host_is_scaled_down(self):
        # every unit took twice its reference time: the host ran at half
        # speed; the ten samples inside took 0.02 s of the timed second
        h = self.host([[t / 10, 0.002] for t in range(100)])
        self.assertAlmostEqual(h.at_ref_speed(1.0, 2.0, 3.0), 0.98 / 2)

    def test_short_part_uses_the_nearest_samples(self):
        h = self.host([[0.0, 0.001], [1.0, 0.002], [2.0, 0.003],
                       [9.0, 0.05]])
        self.assertAlmostEqual(h.at_ref_speed(0.1, 1.5, 1.6), 0.1 / 2)


if __name__ == "__main__":
    unittest.main()
