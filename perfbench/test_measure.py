"""Unit tests of the benchmark's percentile, round selection and /proc
parsing code.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import unittest

from measure import parse_cpu_ticks, parse_io, parse_stat, parse_vmhwm_kib, percentile, quiet_half


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(percentile(samples, 50), 50)
        self.assertEqual(percentile(samples, 99), 99)
        self.assertEqual(percentile(samples, 100), 100)

    def test_is_a_sample_and_ignores_order(self):
        samples = [9.5, 0.25, 3.0, 7.75]
        self.assertEqual(percentile(samples, 50), 3.0)
        self.assertEqual(percentile(samples, 99), 9.5)
        self.assertEqual(percentile(samples, 1), 0.25)

    def test_single_sample(self):
        self.assertEqual(percentile([4.2], 50), 4.2)
        self.assertEqual(percentile([4.2], 99), 4.2)

    def test_rank_rounds_up(self):
        # 99% of 150 samples is 148.5: the 149th smallest.
        self.assertEqual(percentile(list(range(150)), 99), 148)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 0)
        with self.assertRaises(ValueError):
            percentile([1.0], 101)


class QuietHalfTest(unittest.TestCase):
    def test_keeps_the_lower_half_rounded_up(self):
        rounds = [{"steal": s} for s in (0.3, 0.0, 0.2, 0.1, 0.05)]
        kept = quiet_half(rounds, key=lambda g: g["steal"])
        self.assertEqual([g["steal"] for g in kept], [0.0, 0.05, 0.1])

    def test_one_round_is_kept(self):
        self.assertEqual(quiet_half([{"steal": 0.5}], key=lambda g: g["steal"]), [{"steal": 0.5}])


class ProcTest(unittest.TestCase):
    STAT = (
        "4242 (nvdb (serve) x) S 1 4242 4242 0 -1 4194304 5120 0 0 0 "
        "873 41 0 0 20 0 1 0 12345 400000000 90000 18446744073709551615"
    )

    def test_stat_cpu_ticks(self):
        self.assertEqual(parse_stat(self.STAT), (873, 41))

    def test_io_counters(self):
        io = parse_io(
            "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 2\n"
            "read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
        )
        self.assertEqual(io["syscr"], 9)
        self.assertEqual(io["syscw"], 2)
        self.assertEqual(io["wchar"], 120)
        self.assertEqual(len(io), 7)

    def test_cpu_ticks(self):
        stat = (
            "cpu  1834182 0 282712 4029396 10375 0 3873 89868 0 0\n"
            "cpu0 1199457 0 181449 1685666 7194 0 2382 49816 0 0\n"
        )
        self.assertEqual(parse_cpu_ticks(stat), (89868, 6250406))

    def test_vmhwm(self):
        status = "Name:\tnvdb.exe\nVmPeak:\t  400000 kB\nVmHWM:\t  360276 kB\nVmRSS:\t 1 kB\n"
        self.assertEqual(parse_vmhwm_kib(status), 360276)
        with self.assertRaises(ValueError):
            parse_vmhwm_kib("Name:\tx\n")


if __name__ == "__main__":
    unittest.main()
