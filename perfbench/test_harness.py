"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import harness  # noqa: E402

ROOT = os.path.dirname(HERE)


def declared():
    return harness.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def minimal_samples():
    """One sample of every raw series end_to_end reads, warm reads aside."""
    return {k: [1.0] for k in (
        "setup_s", "peak_rss_mb", "waterfall_s", "waterfall_sim_s", "drop_stations",
        "drop_s", "cold_s", "service_requests", "service_wall_s", "graph_packet_s",
        "cosim_packet_s")}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(harness.highest_percentile(1000), 99.0)
        self.assertEqual(harness.beyond(1000, 99.0), 10)
        self.assertEqual(harness.highest_percentile(999), 90.0)
        self.assertEqual(harness.beyond(999, 99.0), 9)

    def test_small_counts(self):
        self.assertIsNone(harness.highest_percentile(19))
        self.assertEqual(harness.highest_percentile(20), 50.0)
        self.assertEqual(harness.highest_percentile(100), 90.0)
        self.assertEqual(harness.highest_percentile(10000), 99.9)

    def test_every_reported_percentile_has_ten_beyond(self):
        for n in range(1, 5000, 7):
            p = harness.highest_percentile(n)
            if p is not None:
                self.assertGreaterEqual(harness.beyond(n, p), 10, n)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(harness.percentile(values, 50.0), 50)
        self.assertEqual(harness.percentile(values, 99.0), 99)
        self.assertEqual(harness.median([3.0, 1.0, 2.0]), 2.0)

    def test_summary_reports_count(self):
        med, tail, tail_v, n = harness.timing_summary([float(i) for i in range(1000)])
        self.assertEqual((tail, n), (99.0, 1000))
        self.assertEqual(tail_v, 989.0)
        self.assertEqual(med, 499.0)


class FailureAccounting(unittest.TestCase):
    def test_failed_frac(self):
        self.assertEqual(harness.failed_frac(100, 0), 0.0)
        self.assertEqual(harness.failed_frac(100, 5), 0.05)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            harness.failed_frac(0, 0)

    def test_refused_requests_miss_any_latency_limit(self):
        # wlbench records a refused request's latency as infinite: it
        # sorts past every finite sample, so 11 refusals in 1000 reads put
        # p99 past any limit, and the printed value is the sentinel.
        samples = minimal_samples()
        samples["warm_ms"] = [1.0] * 989 + [float("inf")] * 11
        m = harness.end_to_end({"samples": samples})
        self.assertEqual(m["warm_p50_ms"], 1.0)
        self.assertTrue(math.isinf(m["warm_p99_ms"]))
        self.assertEqual(harness.finite_or_sentinel(m["warm_p99_ms"]), harness.UNBOUNDED)
        samples["warm_ms"] = [1.0] * 991 + [float("inf")] * 9
        self.assertEqual(harness.end_to_end({"samples": samples})["warm_p99_ms"], 1.0)

    def test_too_few_warm_reads_for_p99_is_refused(self):
        samples = minimal_samples()
        samples["warm_ms"] = [1.0] * 999
        with self.assertRaises(ValueError):
            harness.end_to_end({"samples": samples})


class MetricNames(unittest.TestCase):
    def test_names_are_valid_and_unique(self):
        d = declared()
        names = [m["name"] for k in ("end_to_end", "per_layer") for m in d[k]]
        names += [w["name"] for w in d["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_end_to_end_emitted_names_match_exactly(self):
        report = {"samples": minimal_samples()}
        report["samples"]["warm_ms"] = [1.0] * 1000
        metrics = harness.end_to_end(report)
        self.assertEqual(harness.validate(metrics, declared()["end_to_end"]), [])

    def test_validate_flags_missing_extra_and_bad_names(self):
        decl = [{"name": "a_ms"}, {"name": "b"}]
        self.assertEqual(harness.validate({"a_ms": 1, "b": 2}, decl), [])
        self.assertTrue(harness.validate({"a_ms": 1}, decl))
        self.assertTrue(harness.validate({"a_ms": 1, "b": 2, "c": 3}, decl))
        self.assertTrue(harness.validate({"a ms": 1, "b": 2}, [{"name": "a ms"}, {"name": "b"}]))

    def test_layer_map_covers_per_layer_exactly(self):
        d = declared()
        lmap = harness.load_json(os.path.join(HERE, "layer_map.json"))
        self.assertEqual(sorted(lmap["per_layer"]), sorted(m["name"] for m in d["per_layer"]))
        self.assertEqual(sorted(lmap["workloads"]), sorted(w["name"] for w in d["workloads"]))
        e2e = {m["name"] for m in d["end_to_end"]}
        wls = set(lmap["workloads"]) | {"all"}
        for name, entry in lmap["per_layer"].items():
            for metric, workload in entry["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, wls, name)

    def test_bounds_within_limits(self):
        d = declared()
        for m in d["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in d["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in d["end_to_end"]))


class WaterfallCheck(unittest.TestCase):
    REF = {"points": [{"snr_db": 10.0, "ber": 0.01, "packets": 10000},
                      {"snr_db": 11.0, "ber": 0.002, "packets": 10000}]}

    def rows(self, ber10, ber11, packets=200, bits_per_packet=1600):
        out = []
        for snr, ber in ((10.0, ber10), (11.0, ber11)):
            bits = packets * bits_per_packet
            out.append({"rep": 0, "snr_db": snr, "packets": packets, "bits": bits,
                        "bit_errors": round(ber * bits), "ber_ci_rel": 0.1})
        return out

    def test_consistent_points_pass(self):
        # Two rows plus two pooled points.
        self.assertEqual(harness.check_waterfall(self.rows(0.011, 0.0019), self.REF), (4, []))

    def test_gross_error_fails(self):
        attempted, fails = harness.check_waterfall(self.rows(0.2, 0.0019), self.REF)
        self.assertEqual(attempted, 4)
        self.assertEqual(len(fails), 2)  # the row and the pooled point
        self.assertTrue(any(f.startswith("waterfall pooled") for f in fails))

    def real_counts(self, factor_at_10db):
        """Nine waterfalls at the counts real runs make: the 6-10 dB points
        stop at their first 8-packet boundary, 11-12 dB a little later,
        13-14 dB at the 512-packet cap; BER at the reference, times
        `factor_at_10db` at 10 dB."""
        ref = harness.load_json(os.path.join(HERE, "reference_waterfall.json"))
        packets = {6: 8, 7: 8, 8: 8, 9: 8, 10: 8, 11: 40, 12: 200, 13: 512, 14: 512}
        rows = []
        for rep in range(9):
            for p in ref["points"]:
                snr = p["snr_db"]
                bits = packets[snr] * 1600
                ber = p["ber"] * (factor_at_10db if snr == 10 else 1.0)
                rows.append({"rep": rep, "snr_db": snr, "packets": packets[snr],
                             "bits": bits, "bit_errors": round(ber * bits),
                             "ber_ci_rel": 0.25})
        return ref, rows

    def test_reference_ber_at_real_counts_passes(self):
        ref, rows = self.real_counts(1.0)
        self.assertEqual(harness.check_waterfall(rows, ref), (9 * 9 + 9, []))

    def test_tenfold_ber_at_real_counts_fails(self):
        # One point of 8 packets cannot tell 10x the reference BER at
        # 10 dB from it; nine of them pooled (72 packets) can.
        ref, rows = self.real_counts(10.0)
        _, fails = harness.check_waterfall(rows, ref)
        self.assertEqual(len(fails), 1, fails)
        self.assertIn("pooled", fails[0])
        self.assertIn("at 10 dB", fails[0])
        single = [r for r in rows if r["rep"] == 0]
        self.assertEqual(harness.check_waterfall(single, ref)[1], [])

    def test_one_bad_packet_in_eight_passes(self):
        # An adaptive point that stops at 8 packets after one decoded
        # packet with half its bits wrong (805 of 1600), as the link makes
        # now and then at 11-13 dB, is a legitimate outcome.
        ref, rows = self.real_counts(1.0)
        for r in rows:
            if r["rep"] == 4 and r["snr_db"] in (11, 12, 13):
                r.update(packets=8, bits=8 * 1600, bit_errors=805)
        self.assertEqual(harness.check_waterfall(rows, ref)[1], [])

    def test_noise_point_fails_on_its_own(self):
        ref = harness.load_json(os.path.join(HERE, "reference_waterfall.json"))
        rows = [{"rep": 0, "snr_db": 12, "packets": 8, "bits": 8 * 1600,
                 "bit_errors": 8 * 800, "ber_ci_rel": 0.02}]
        fails = harness.check_waterfall(rows, ref)[1]
        self.assertTrue(any(f.startswith("waterfall rep 0") for f in fails), fails)

    def test_tail_bound(self):
        self.assertEqual(harness.tail_bound(0.01, 100, 0.01), 1.0)
        self.assertEqual(harness.tail_bound(0.5, 8, 0.0), 0.0)
        # All-or-nothing packets are the worst case: 8 packets of mean m
        # all error-free has chance (1 - m)^8, which the bound meets.
        self.assertAlmostEqual(harness.tail_bound(0.0, 8, 0.1), 0.9 ** 8)

    def test_rising_ber_fails(self):
        ref = {"points": [{"snr_db": 10.0, "ber": 0.01, "packets": 5},
                          {"snr_db": 11.0, "ber": 0.02, "packets": 5}]}
        rows = self.rows(0.001, 0.15, packets=5000)
        _, fails = harness.check_waterfall(rows, ref, z=1.0)
        self.assertTrue(any("rises" in f for f in fails))

    def test_zero_errors_at_high_snr_pass(self):
        ref = {"points": [{"snr_db": 14.0, "ber": 3e-6, "packets": 16384}]}
        rows = [{"rep": 0, "snr_db": 14.0, "packets": 512, "bits": 819200, "bit_errors": 0,
                 "ber_ci_rel": float("inf")}]
        self.assertEqual(harness.check_waterfall(rows, ref), (2, []))

    def test_reference_file_matches_grid(self):
        ref = harness.load_json(os.path.join(HERE, "reference_waterfall.json"))
        self.assertEqual([p["snr_db"] for p in ref["points"]], list(range(6, 15)))


class ReportDecoding(unittest.TestCase):
    def test_special_numbers_decode(self):
        r = harness.decode_report(json.loads(json.dumps(
            {"samples": {"warm_ms": [1.5, "inf"]}, "counters": {"n": 2},
             "rows": {"t": [{"x": "nan", "y": 3}]}})))
        self.assertEqual(r["samples"]["warm_ms"][0], 1.5)
        self.assertTrue(math.isinf(r["samples"]["warm_ms"][1]))
        self.assertTrue(math.isnan(r["rows"]["t"][0]["x"]))
        self.assertEqual(r["counters"]["n"], 2)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            {"id": 1, "parent": 0, "name": "a", "t0_ns": 0, "t1_ns": 100, "work": 1},
            {"id": 2, "parent": 1, "name": "b", "t0_ns": 10, "t1_ns": 30, "work": 1},
            {"id": 3, "parent": 1, "name": "b", "t0_ns": 20, "t1_ns": 50, "work": 1},
            {"id": 4, "parent": 1, "name": "c", "t0_ns": 90, "t1_ns": 120, "work": 1},
        ]
        selfs = harness.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)  # [10,50) and [90,100) covered
        table = harness.span_table(spans)
        self.assertEqual(table["b"]["calls"], 2)
        self.assertEqual(table["b"]["self_ns"], 50)


class Fingerprint(unittest.TestCase):
    def test_machine_mismatch_refuses_comparison(self):
        fp = harness.fingerprint(ROOT, {"build_type": "Release"}, 4)
        a = {"fingerprint": fp}
        b = {"fingerprint": json.loads(json.dumps(fp))}
        self.assertTrue(harness.comparable(a, b))
        b["fingerprint"]["code"]["git_commit"] = "other"
        self.assertTrue(harness.comparable(a, b))
        b["fingerprint"]["machine"]["nproc"] = -1
        self.assertFalse(harness.comparable(a, b))

    def test_fingerprint_fields(self):
        fp = harness.fingerprint(ROOT, {}, 4)
        self.assertEqual(fp["machine"]["nproc"], 4)
        self.assertEqual(sorted(fp["machine"]), sorted(
            ["nproc", "cpu_model", "caches", "build_type", "wlansim_native", "compiler"]))
        self.assertEqual(sorted(fp["code"]), ["git_commit", "source_digest"])


if __name__ == "__main__":
    unittest.main()
