"""Tests for the bench guards' decisions, fed canned rows.

    python3 -m unittest discover -s tools/tests
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import check_bench  # noqa: E402
from check_bench import GuardFailure  # noqa: E402


def quiet(check, rounds):
    """Runs a guard's check with its per-row lines silenced."""
    with contextlib.redirect_stdout(io.StringIO()):
        return check(rounds)


def micro(times):
    """One bench_micro round: {benchmark name: real_time ns}."""
    return [{"name": n, "run_name": n, "real_time": t}
            for n, t in times.items()]


def simd(times):
    """One bench_simd_kernels round: {(kernel, level): ns_per_entry}."""
    return [{"kernel": k, "level": lvl, "ns_per_entry": str(t)}
            for (k, lvl), t in times.items()]


def server(cells):
    """One bench_server_throughput round: {(clients, window): qps pair}."""
    rows = []
    for (c, w), (single, batch) in cells.items():
        rows.append({"mode": "single", "clients": c, "window_us": w,
                     "qps": str(single)})
        rows.append({"mode": "batch", "clients": c, "window_us": w,
                     "qps": str(batch)})
    return rows


class MetricsOverheadTest(unittest.TestCase):
    check = staticmethod(check_bench.check_metrics_overhead)

    def rounds(self, on):
        # off, on, off, on: the off side's best is 1000 ns.
        return [micro({"BM_A": 1000.0}), micro({"BM_A": on}),
                micro({"BM_A": 1200.0}), micro({"BM_A": 5000.0})]

    def test_passes_at_the_floor(self):
        # 1000 * 1.03 + 50 = 1080.
        quiet(self.check, self.rounds(1080.0))

    def test_fails_just_above_the_floor(self):
        with self.assertRaises(GuardFailure):
            quiet(self.check, self.rounds(1080.5))

    def test_keeps_the_best_round_of_each_side(self):
        # The second on round is slow; the first one carries the side.
        quiet(self.check, self.rounds(1000.0))

    def test_fails_on_missing_rows(self):
        with self.assertRaisesRegex(GuardFailure, "matched nothing"):
            quiet(self.check, [[], []])
        with self.assertRaisesRegex(GuardFailure, "missing from enabled"):
            quiet(self.check, [micro({"BM_A": 1.0, "BM_B": 1.0}),
                               micro({"BM_A": 1.0})])


class SimdSpeedupTest(unittest.TestCase):
    check = staticmethod(check_bench.check_simd_speedup)

    def rounds(self, avx2_ns):
        return [simd({("box_leaf_sum", "scalar"): 1.8,
                      ("box_leaf_sum", "sse2"): 1.5,
                      ("box_leaf_sum", "avx2"): avx2_ns}),
                simd({("box_leaf_sum", "scalar"): 2.5,
                      ("box_leaf_sum", "sse2"): 1.5,
                      ("box_leaf_sum", "avx2"): 9.0})]

    def test_passes_at_the_floor(self):
        # 1.8 / 1.0 = 1.8, measured against the widest level (avx2).
        quiet(self.check, self.rounds(1.0))

    def test_fails_just_below_the_floor(self):
        with self.assertRaises(GuardFailure):
            quiet(self.check, self.rounds(1.001))

    def test_skips_a_scalar_only_table(self):
        verdict = quiet(self.check,
                        [simd({("box_leaf_sum", "scalar"): 1.0})])
        self.assertTrue(verdict.startswith("SKIP"))

    def test_fails_on_missing_box_rows(self):
        with self.assertRaisesRegex(GuardFailure, "box_leaf_sum"):
            quiet(self.check, [simd({("point_leaf_sum", "scalar"): 2.0,
                                     ("point_leaf_sum", "avx2"): 1.0})])


class ServerThroughputTest(unittest.TestCase):
    check = staticmethod(check_bench.check_server_throughput)

    def rounds(self, worst_batch):
        return [server({("1", "0"): (1000.0, 5000.0),
                        ("4", "200"): (1000.0, worst_batch)})]

    def test_passes_at_the_floor(self):
        quiet(self.check, self.rounds(2000.0))

    def test_fails_just_below_the_floor(self):
        with self.assertRaises(GuardFailure):
            quiet(self.check, self.rounds(1999.0))

    def test_fails_on_missing_rows(self):
        with self.assertRaisesRegex(GuardFailure, "no benchmark rows"):
            quiet(self.check, [[]])
        rows = server({("1", "0"): (1000.0, 5000.0)})
        with self.assertRaisesRegex(GuardFailure, "missing a request shape"):
            quiet(self.check, [[r for r in rows if r["mode"] == "single"]])


if __name__ == "__main__":
    unittest.main()
