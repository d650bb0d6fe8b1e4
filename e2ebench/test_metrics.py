"""Tests of the benchmark's own helpers, plus a smoke run of every
workload at tiny sizes.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The smoke test builds the driver first (into $CARGO_TARGET_DIR, default
.bench_build) when it is not built yet.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import metrics as m  # noqa: E402
import run  # noqa: E402


class TagFamilyTest(unittest.TestCase):
    def test_every_defined_tag_has_a_family(self):
        tags = m.read_tags(ROOT)
        self.assertIn("kJobHello", tags)      # src/core/wire.h
        self.assertIn("kBlindQuery", tags)    # src/smc/comparator.cc
        self.assertIn("kMshBegin", tags)      # src/smc/membership.cc
        missing = sorted(set(tags) - set(m.TAG_FAMILIES))
        self.assertEqual(missing, [], "tags without a family")

    def test_no_family_entry_for_a_vanished_tag(self):
        stale = sorted(set(m.TAG_FAMILIES) - set(m.read_tags(ROOT)))
        self.assertEqual(stale, [])

    def test_families_are_known_and_tag_values_unique(self):
        self.assertLessEqual(set(m.TAG_FAMILIES.values()), set(m.FAMILIES))
        tags = m.read_tags(ROOT)
        self.assertEqual(len(set(tags.values())), len(tags))
        families = m.tag_family_map(ROOT)
        self.assertEqual(families[0x1001], "hdp")
        self.assertEqual(families[0x0403], "compare")
        self.assertEqual(families[0x1010], "select")


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(m.median([3, 1, 2]), 2)
        self.assertEqual(m.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            m.median([])

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 11))  # 1..10
        self.assertEqual(m.percentile(values, 0), 1)
        self.assertEqual(m.percentile(values, 100), 10)
        self.assertAlmostEqual(m.percentile(values, 50), 5.5)
        self.assertAlmostEqual(m.percentile(values, 90), 9.1)
        self.assertEqual(m.percentile([7], 90), 7)

    def test_samples_beyond_p90(self):
        values = [float(v) for v in range(100)]
        self.assertEqual(m.samples_beyond(values, 90), 10)
        self.assertEqual(m.samples_beyond([1.0] * 20, 90), 0)

    def test_relative_spread_matches_statistics_quantiles(self):
        values = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3, 1.0, 0.98, 1.02]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(m.relative_spread(values),
                               (q3 - q1) / m.median(values))
        self.assertEqual(m.relative_spread([5, 5, 5, 5]), 0.0)


class PhaseTest(unittest.TestCase):
    FAMILIES = {0x1050: "negotiate", 0x1001: "hdp", 0x0403: "compare"}

    def party(self, wall):
        # tag -> [compute_s, wait_s, send_s, frames, bytes]
        return {"wall_s": wall, "tags": {
            "4176": [0.001, 0.002, 0.0005, 2, 100],   # 0x1050
            "4097": [0.300, 0.200, 0.0100, 10, 5000],  # 0x1001
            "1027": [0.100, 0.150, 0.0050, 40, 900],   # 0x0403
            "999": [0.010, 0.000, 0.0000, 1, 8],       # unknown tag
        }}

    def test_breakdown_sums_per_family_and_reports_the_residual(self):
        phases, residual = m.phase_breakdown(self.party(0.80), self.FAMILIES)
        self.assertAlmostEqual(phases["hdp"]["compute_s"], 0.31)
        self.assertAlmostEqual(phases["hdp"]["wait_s"], 0.20)
        self.assertEqual(phases["compare"]["frames"], 40)
        self.assertEqual(phases["other"]["bytes"], 8)
        accounted = 0.0015 + 0.002 + 0.31 + 0.2 + 0.105 + 0.15 + 0.01
        self.assertAlmostEqual(residual, 0.80 - accounted)

    def test_reconciliation_tolerance(self):
        self.assertTrue(m.reconciles(self.party(0.7790), self.FAMILIES))
        self.assertFalse(m.reconciles(self.party(1.2), self.FAMILIES))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_even_when_they_overlap(self):
        spans = [
            {"name": "core.job", "id": 1, "parent": 0, "start": 0.0,
             "end": 10.0},
            {"name": "net.recv", "id": 2, "parent": 1, "start": 1.0,
             "end": 4.0},
            {"name": "net.send", "id": 3, "parent": 1, "start": 3.0,
             "end": 5.0},
            {"name": "crypto.keygen", "id": 4, "parent": 0, "start": 20.0,
             "end": 21.5},
        ]
        selfs = m.self_times(spans)
        self.assertAlmostEqual(selfs["core"], 6.0)
        self.assertAlmostEqual(selfs["net"], 5.0)
        self.assertAlmostEqual(selfs["crypto"], 1.5)


class GateTest(unittest.TestCase):
    def job(self, input_, gate, frames, ok=True):
        return {"input": input_, "gate": gate, "ok": ok, "error": "",
                "bytes": 10, "frames": frames, "rounds": 3, "encrypted": 4,
                "selection": 0, "candidates": 5, "queries": 0}

    def test_repeated_input_must_repeat_its_counts(self):
        raw = {"gate_inputs": 1, "jobs": [
            self.job(0, True, 7), self.job(1, False, 9),
            self.job(1, False, 9)]}
        self.assertEqual(run.check_jobs(raw), [])
        raw["jobs"].append(self.job(1, False, 8))
        self.assertEqual(len(run.check_jobs(raw)), 1)

    def test_incomplete_gate_pass_fails(self):
        raw = {"gate_inputs": 2, "jobs": [self.job(0, True, 7),
                                          self.job(2, False, 9)]}
        self.assertEqual(len(run.check_jobs(raw)), 1)


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_at_tiny_sizes(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload",
                         workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--smoke"],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                        text=True, timeout=900)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
                    names = [e["name"] for e in
                             spec["per_layer" if trace else "end_to_end"]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))


if __name__ == "__main__":
    unittest.main()
