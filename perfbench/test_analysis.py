"""Tests of perfbench/analysis.py. Run: python3 perfbench/test_analysis.py"""

import sys

sys.dont_write_bytecode = True

import unittest

import analysis


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 99), 99)
        self.assertEqual(analysis.percentile(values, 100), 100)
        self.assertEqual(analysis.percentile([7], 99.9), 7)

    def test_highest_percentile_with_ten_beyond(self):
        # p90 of 100 samples leaves exactly ten above it; p99 one.
        self.assertEqual(analysis.tail_percentile(100), 90)
        self.assertEqual(analysis.tail_percentile(99), 50)
        self.assertEqual(analysis.tail_percentile(999), 90)
        self.assertEqual(analysis.tail_percentile(1000), 99)
        self.assertEqual(analysis.tail_percentile(10000), 99.9)
        self.assertEqual(analysis.tail_percentile(100000), 99.99)
        self.assertEqual(analysis.tail_percentile(3), 50)

    def test_cap(self):
        self.assertEqual(analysis.tail_percentile(100000, cap=99), 99)
        self.assertEqual(analysis.tail_percentile(500, cap=99), 90)

    def test_summarize(self):
        s = analysis.summarize([float(v) for v in range(1000, 0, -1)])
        self.assertEqual(s, {"n": 1000, "p50": 500.0, "tail_p": 99,
                             "tail": 990.0})


class ZipfMix(unittest.TestCase):
    N_KEYS = 11 * 11 + 11 * 110

    def test_deterministic_per_seed(self):
        a = analysis.mixed_sequence(3, self.N_KEYS, 2000)
        self.assertEqual(a, analysis.mixed_sequence(3, self.N_KEYS, 2000))
        self.assertNotEqual(a, analysis.mixed_sequence(4, self.N_KEYS,
                                                       2000))
        self.assertTrue(all(0 <= k < self.N_KEYS for k in a))

    def test_miss_share_at_run_size(self):
        # The serve_mixed run size (1000 requests per second of a 15 s
        # run) keeps first-seen keys at 5-10% of requests.
        for seed in range(1, 6):
            seq = analysis.mixed_sequence(seed, self.N_KEYS, 15000)
            share = analysis.first_seen_share(seq)
            self.assertGreater(share, 0.05, seed)
            self.assertLess(share, 0.10, seed)

    def test_skew(self):
        seq = analysis.mixed_sequence(1, self.N_KEYS, 20000)
        counts = sorted((seq.count(k) for k in set(seq)), reverse=True)
        # Under s = 0.99 the hottest key takes about 1/H(1331) = 13%.
        self.assertGreater(counts[0] / len(seq), 0.10)
        self.assertLess(counts[0] / len(seq), 0.16)

    def test_hot_mix(self):
        keys = analysis.hot_keys()
        self.assertEqual(len(keys), 64)
        self.assertEqual(sorted(analysis.hot_preload_order(5)),
                         list(range(64)))
        seq = analysis.hot_sequence(5, 8000)
        contests = sum(1 for k in seq if keys[k]["kind"] == "contest")
        self.assertAlmostEqual(contests / len(seq), 0.25, delta=0.02)


def span(kind, label, start, end, cached=False):
    return {"kind": kind, "label": label, "cached": cached,
            "queued_sec": start, "start_sec": start, "end_sec": end}


class TimelineArithmetic(unittest.TestCase):
    # Trace of 1000 instructions, so 1 us of span is 1 ns/instruction.
    TIMELINE = {
        "concurrency": 1.5, "queue_sec": 0.25,
        "spans": [
            span("single", "gcc@gcc", 0.0, 100e-6),
            span("single", "gcc@twolf", 0.0, 150e-6),
            span("single", "vpr@gcc", 0.0, 80e-6),
            # 400 - (100 + 150) = 150 ns/instruction of overhead.
            span("contest", "gcc@gcc+twolf", 0.0, 400e-6),
            # 300 - (150 + 100) = 50, same cores in the other order.
            span("contest", "gcc@twolf+gcc", 1.0, 1.0 + 300e-6),
            # No single span for vpr@twolf: no overhead pair.
            span("contest", "vpr@gcc+twolf", 0.0, 500e-6),
            # Disk hits simulate nothing and count nowhere.
            span("contest", "mcf@gcc+twolf", 0.0, 9.0, cached=True),
            span("single", "mcf@gcc", 0.0, 9.0, cached=True),
        ],
    }

    def test_overhead(self):
        layers = analysis.timeline_layers(self.TIMELINE, 1000)
        self.assertEqual(layers["overhead_pairs"], 2)
        self.assertAlmostEqual(layers["overhead_ns"], 100.0)

    def test_busy_and_rates(self):
        layers = analysis.timeline_layers(self.TIMELINE, 1000)
        self.assertEqual(sorted(round(v, 6) for v in layers["single_ns"]),
                         [80.0, 100.0, 150.0])
        self.assertEqual(len(layers["contest_ns"]), 3)
        self.assertAlmostEqual(layers["single_busy_s"], 330e-6)
        self.assertAlmostEqual(layers["contest_busy_s"], 1200e-6)
        # 6 simulations of 1000 instructions in 1530 us of busy time.
        self.assertAlmostEqual(layers["minst_per_s"], 6000 / 1530)
        self.assertEqual(layers["concurrency"], 1.5)
        self.assertEqual(layers["queue_s"], 0.25)


if __name__ == "__main__":
    unittest.main()
