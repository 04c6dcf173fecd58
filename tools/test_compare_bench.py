"""Unit tests for compare_bench.py: direction awareness, identity
matching, smoke-mismatch policy, and main()'s gating exit codes (the CI
perf gate depends on these)."""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare_bench  # noqa: E402


def baseline_report():
    return {
        "experiment": "e17_service",
        "smoke": False,
        "results": [
            {"engine": "plain", "clients": 2, "append_mups": 10.0,
             "query_p99_us": 100.0, "retained": 900},
        ],
        "summary": [
            {"engine": "plain", "peak_append_mups": 10.0,
             "max_clients_p99_us": 100.0},
        ],
    }


class MetricDirectionTest(unittest.TestCase):
    def test_throughput_keys_are_higher_better(self):
        for key in ("append_mups", "items_per_second", "agg_speedup_8v1"):
            self.assertEqual(compare_bench.metric_direction(key), "up")

    def test_latency_keys_are_lower_better(self):
        for key in ("query_p99_us", "warm_rank_ns", "merged_build_us"):
            self.assertEqual(compare_bench.metric_direction(key), "down")

    def test_accuracy_keys_never_gate(self):
        for key in ("max_relerr", "retained", "levels"):
            self.assertIsNone(compare_bench.metric_direction(key))

    def test_space_keys_are_lower_better(self):
        for key in ("bytes_per_metric", "idle_bytes_per_metric"):
            self.assertEqual(compare_bench.metric_direction(key), "down")

    def test_rate_keys_are_higher_better(self):
        self.assertEqual(compare_bench.metric_direction("ops_per_sec"),
                         "up")

    def test_rss_derived_keys_never_gate(self):
        # The OS decides when pages come back, not this codebase: raw
        # RSS-per-metric observations are informational only.
        self.assertIsNone(
            compare_bench.metric_direction("observed_rss_per_metric"))

    def test_unit_driven_value_direction(self):
        row_up = {"metric": "update", "unit": "Mups", "value": 1.0}
        row_down = {"metric": "rank", "unit": "ns/query", "value": 1.0}
        row_none = {"metric": "x", "unit": "items", "value": 1.0}
        self.assertEqual(
            compare_bench.metric_direction("value", row_up), "up")
        self.assertEqual(
            compare_bench.metric_direction("value", row_down), "down")
        self.assertIsNone(
            compare_bench.metric_direction("value", row_none))


class CompareTest(unittest.TestCase):
    def compare(self, baseline, current, threshold=0.15):
        return compare_bench.compare(baseline, current, threshold)

    def test_clean_run_has_no_findings(self):
        regs, imps, notes = self.compare(baseline_report(),
                                         baseline_report())
        self.assertEqual((regs, imps, notes), ([], [], []))

    def test_throughput_drop_is_a_regression(self):
        current = baseline_report()
        current["results"][0]["append_mups"] = 8.0  # -20%
        regs, _, _ = self.compare(baseline_report(), current)
        self.assertEqual(len(regs), 1)
        self.assertIn("append_mups", regs[0])

    def test_latency_rise_is_a_regression(self):
        current = baseline_report()
        current["results"][0]["query_p99_us"] = 130.0  # +30%
        regs, _, _ = self.compare(baseline_report(), current)
        self.assertEqual(len(regs), 1)
        self.assertIn("query_p99_us", regs[0])

    def test_improvements_are_reported_not_flagged(self):
        current = baseline_report()
        current["results"][0]["append_mups"] = 20.0
        current["results"][0]["query_p99_us"] = 50.0
        regs, imps, _ = self.compare(baseline_report(), current)
        self.assertEqual(regs, [])
        self.assertEqual(len(imps), 2)

    def test_small_drift_within_threshold_passes(self):
        current = baseline_report()
        current["results"][0]["append_mups"] = 9.0   # -10% < 15%
        current["results"][0]["query_p99_us"] = 110.0  # +10% < 15%
        regs, imps, _ = self.compare(baseline_report(), current)
        self.assertEqual((regs, imps), ([], []))

    def test_accuracy_fields_never_regress(self):
        current = baseline_report()
        current["results"][0]["retained"] = 5000  # 5x "worse": not perf
        regs, imps, _ = self.compare(baseline_report(), current)
        self.assertEqual((regs, imps), ([], []))

    def test_latency_floor_downgrades_tiny_latency_regressions(self):
        current = baseline_report()
        current["results"][0]["query_p99_us"] = 300.0  # 3x the 100us base
        # Floor above the 100us baseline: reported as a note, not gated.
        regs, _, notes = compare_bench.compare(
            baseline_report(), current, 0.15, latency_floor_us=150.0)
        self.assertEqual(regs, [])
        self.assertTrue(any("noise floor" in n for n in notes))
        # Floor below the baseline: still a hard regression.
        regs, _, _ = compare_bench.compare(
            baseline_report(), current, 0.15, latency_floor_us=50.0)
        self.assertEqual(len(regs), 1)

    def test_latency_floor_never_shields_throughput(self):
        current = baseline_report()
        current["results"][0]["append_mups"] = 1.0
        regs, _, _ = compare_bench.compare(
            baseline_report(), current, 0.15, latency_floor_us=1e9)
        self.assertEqual(len(regs), 1)

    def test_latency_in_us_conversions(self):
        self.assertEqual(compare_bench.latency_in_us("warm_rank_ns", 500),
                         0.5)
        self.assertEqual(compare_bench.latency_in_us("cdf_1k_us", 7.0),
                         7.0)
        self.assertEqual(
            compare_bench.latency_in_us("value", 2.0,
                                        {"unit": "ms/op"}), 2000.0)
        self.assertIsNone(compare_bench.latency_in_us("append_mups", 9.0))

    def test_footprint_growth_is_a_regression(self):
        base = {
            "experiment": "e19_churn",
            "smoke": True,
            "footprint": [
                {"phase": "idle", "bytes_per_metric": 600.0,
                 "observed_rss_per_metric": 900.0},
            ],
        }
        current = json.loads(json.dumps(base))
        current["footprint"][0]["bytes_per_metric"] = 900.0    # +50%
        current["footprint"][0]["observed_rss_per_metric"] = 1e6
        regs, _, _ = self.compare(base, current)
        # Accounted footprint gates; the RSS observation never does.
        self.assertEqual(len(regs), 1)
        self.assertIn("bytes_per_metric", regs[0])
        self.assertNotIn("observed_rss", regs[0])

    def test_unmatched_row_is_a_note_not_a_regression(self):
        current = baseline_report()
        current["results"][0]["clients"] = 64  # identity changed
        regs, _, notes = self.compare(baseline_report(), current)
        self.assertEqual(regs, [])
        self.assertEqual(len(notes), 1)
        self.assertIn("no match", notes[0])


class MergeBestTest(unittest.TestCase):
    def test_envelope_takes_best_per_direction(self):
        fast = baseline_report()
        slow = baseline_report()
        slow["results"][0]["append_mups"] = 2.0     # worse (up-metric)
        slow["results"][0]["query_p99_us"] = 500.0  # worse (down-metric)
        slow["results"][0]["retained"] = 111        # not a perf metric
        merged = compare_bench.merge_best([slow, fast])
        row = merged["results"][0]
        self.assertEqual(row["append_mups"], 10.0)   # max wins
        self.assertEqual(row["query_p99_us"], 100.0)  # min wins
        self.assertEqual(row["retained"], 111)  # first report's value

    def test_single_report_is_identity(self):
        report = baseline_report()
        self.assertEqual(compare_bench.merge_best([report]), report)

    def test_unmatched_rows_survive_from_first(self):
        first = baseline_report()
        second = baseline_report()
        second["results"][0]["clients"] = 16  # different identity
        merged = compare_bench.merge_best([first, second])
        self.assertEqual(merged["results"][0]["clients"], 2)
        self.assertEqual(merged["results"][0]["append_mups"], 10.0)


class ReportFiles(unittest.TestCase):
    """Writes reports to a scratch dir and runs main() on them."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, report):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report, f)
        return path

    def run_main(self, *argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = compare_bench.main(["compare_bench.py"] + list(argv))
        return code, sink.getvalue()


class MainGateTest(ReportFiles):
    def test_regression_gates_with_exit_1(self):
        current = baseline_report()
        current["results"][0]["append_mups"] = 5.0
        code, out = self.run_main(
            self.write("base.json", baseline_report()),
            self.write("cur.json", current))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_warn_only_exits_0_on_regression(self):
        current = baseline_report()
        current["results"][0]["append_mups"] = 5.0
        code, _ = self.run_main(
            self.write("base.json", baseline_report()),
            self.write("cur.json", current), "--warn-only")
        self.assertEqual(code, 0)

    def test_clean_comparison_exits_0(self):
        code, _ = self.run_main(
            self.write("base.json", baseline_report()),
            self.write("cur.json", baseline_report()))
        self.assertEqual(code, 0)

    def test_smoke_mismatch_skips_unless_allowed(self):
        smoke = baseline_report()
        smoke["smoke"] = True
        smoke["results"][0]["append_mups"] = 1.0  # huge "regression"
        base = self.write("base.json", baseline_report())
        cur = self.write("cur.json", smoke)
        # Without the flag: skipped, exit 0, no gate.
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 0)
        self.assertIn("skipped", out)
        # With the flag: compared, regression gates.
        code, out = self.run_main(base, cur, "--allow-smoke-mismatch")
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_different_experiments_are_incomparable(self):
        other = baseline_report()
        other["experiment"] = "e13_hotpath"
        code, _ = self.run_main(
            self.write("base.json", baseline_report()),
            self.write("cur.json", other))
        self.assertEqual(code, 2)

    def test_best_of_n_deflakes_one_noisy_run(self):
        noisy = baseline_report()
        noisy["results"][0]["append_mups"] = 4.0   # a stall, -60%
        noisy["results"][0]["query_p99_us"] = 900.0
        clean = baseline_report()
        base = self.write("base.json", baseline_report())
        cur1 = self.write("cur1.json", noisy)
        cur2 = self.write("cur2.json", clean)
        # The noisy run alone gates; the best-of-2 envelope does not.
        code, _ = self.run_main(base, cur1)
        self.assertEqual(code, 1)
        code, _ = self.run_main(base, cur1, cur2)
        self.assertEqual(code, 0)

    def test_write_best_stores_the_envelope(self):
        noisy = baseline_report()
        noisy["results"][0]["append_mups"] = 4.0
        out = os.path.join(self.dir.name, "best.json")
        code, _ = self.run_main(
            self.write("base.json", baseline_report()),
            self.write("cur1.json", noisy),
            self.write("cur2.json", baseline_report()),
            "--write-best", out)
        self.assertEqual(code, 0)
        with open(out, encoding="utf-8") as f:
            best = json.load(f)
        self.assertEqual(best["results"][0]["append_mups"], 10.0)

    def test_mismatched_current_reports_are_rejected(self):
        other = baseline_report()
        other["experiment"] = "e13_hotpath"
        code, _ = self.run_main(
            self.write("base.json", baseline_report()),
            self.write("cur1.json", baseline_report()),
            self.write("cur2.json", other))
        self.assertEqual(code, 2)

    def test_host_mismatch_is_loud_but_never_gates(self):
        base = baseline_report()
        base["host"] = {"cores_online": 1, "compiler": "gcc 12.2.0",
                        "build_type": "Release"}
        current = baseline_report()
        current["host"] = {"cores_online": 4, "compiler": "gcc 12.2.0",
                           "build_type": "Release"}
        code, out = self.run_main(self.write("base.json", base),
                                  self.write("cur.json", current))
        self.assertEqual(code, 0)
        self.assertIn("HOST MISMATCH", out)
        self.assertIn("cores_online=1", out)
        self.assertIn("cores_online=4", out)
        # A regression still gates, mismatch or not.
        current["results"][0]["append_mups"] = 5.0
        code, out = self.run_main(self.write("base.json", base),
                                  self.write("cur.json", current))
        self.assertEqual(code, 1)
        self.assertIn("HOST MISMATCH", out)

    def test_same_host_prints_no_host_note(self):
        base = baseline_report()
        base["host"] = {"cores_online": 4, "compiler": "gcc 12.2.0",
                        "build_type": "Release"}
        code, out = self.run_main(self.write("base.json", base),
                                  self.write("cur.json", base))
        self.assertEqual(code, 0)
        self.assertNotIn("HOST", out)
        self.assertNotIn("records no host", out)

    def test_baseline_without_host_gets_a_plain_note(self):
        current = baseline_report()
        current["host"] = {"cores_online": 4, "compiler": "gcc 12.2.0",
                           "build_type": "Release"}
        code, out = self.run_main(
            self.write("base.json", baseline_report()),
            self.write("cur.json", current))
        self.assertEqual(code, 0)
        self.assertIn("NOTE: baseline records no host", out)
        self.assertNotIn("HOST MISMATCH", out)

    def test_custom_threshold(self):
        current = baseline_report()
        current["results"][0]["append_mups"] = 9.0  # -10%
        base = self.write("base.json", baseline_report())
        cur = self.write("cur.json", current)
        code, _ = self.run_main(base, cur, "--threshold", "0.05")
        self.assertEqual(code, 1)
        code, _ = self.run_main(base, cur, "--threshold", "0.15")
        self.assertEqual(code, 0)


class PairRuleTest(unittest.TestCase):
    """The pair rule: a verdict needs the change ahead (or behind) in at
    least 9 of every 10 pairs AND a median gap above the parent's IQR."""

    PARENT = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]

    def test_nine_of_ten_wins_beyond_the_iqr_is_better(self):
        change = [p - 10 for p in self.PARENT]
        change[3] = self.PARENT[3] + 1  # one pair lost
        finding = compare_bench.pair_rule(self.PARENT, change, "down")
        self.assertEqual((finding["wins"], finding["losses"]), (9, 1))
        self.assertEqual(finding["verdict"], "better")

    def test_eight_of_ten_is_unresolved(self):
        change = [p - 10 for p in self.PARENT]
        change[3] = change[4] = 200
        finding = compare_bench.pair_rule(self.PARENT, change, "down")
        self.assertEqual(finding["wins"], 8)
        self.assertEqual(finding["verdict"], "unresolved")

    def test_a_gap_inside_the_parent_iqr_is_unresolved(self):
        # The change wins every pair, by less than the parent's spread.
        change = [p - 0.5 for p in self.PARENT]
        finding = compare_bench.pair_rule(self.PARENT, change, "down")
        self.assertEqual(finding["wins"], 10)
        self.assertGreater(finding["parent_iqr"], 0.5)
        self.assertEqual(finding["verdict"], "unresolved")

    def test_direction_decides_which_side_wins(self):
        change = [p + 10 for p in self.PARENT]
        self.assertEqual(
            compare_bench.pair_rule(self.PARENT, change, "down")["verdict"],
            "worse")
        self.assertEqual(
            compare_bench.pair_rule(self.PARENT, change, "up")["verdict"],
            "better")

    def test_ties_count_for_neither_side(self):
        finding = compare_bench.pair_rule(self.PARENT, list(self.PARENT),
                                          "up")
        self.assertEqual((finding["wins"], finding["losses"]), (0, 0))
        self.assertEqual(finding["verdict"], "unresolved")

    def test_medians_and_iqr(self):
        finding = compare_bench.pair_rule([1, 2, 3, 4, 5], [2, 3, 4, 5, 6],
                                          "up")
        self.assertEqual(finding["parent_median"], 3)
        self.assertEqual(finding["change_median"], 4)
        self.assertEqual(finding["parent_iqr"], 2)  # 4 - 2


class PairsModeTest(ReportFiles):
    def reports(self, parent_mups, change_mups):
        paths = []
        for i, (p, c) in enumerate(zip(parent_mups, change_mups)):
            parent, change = baseline_report(), baseline_report()
            parent["results"][0]["append_mups"] = p
            change["results"][0]["append_mups"] = c
            paths += [self.write(f"p{i}.json", parent),
                      self.write(f"c{i}.json", change)]
        return paths

    def test_labels_every_row_and_metric(self):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]
        change = [v - 2 for v in parent]
        code, out = self.run_main("--pairs", *self.reports(parent, change))
        self.assertEqual(code, 0)  # pairs mode reports, never gates
        self.assertIn("WORSE  results[clients=2, engine=plain].append_mups",
                      out)
        self.assertIn("won 0/10", out)
        # Unchanged metrics tie in every pair.
        self.assertIn("UNRESOLVED  results[clients=2, engine=plain]"
                      ".query_p99_us", out)
        self.assertIn("1 worse, 3 unresolved", out)

    def test_an_odd_report_count_is_refused(self):
        paths = self.reports([10.0], [11.0])
        code, _ = self.run_main("--pairs", *paths,
                                self.write("extra.json", baseline_report()))
        self.assertEqual(code, 2)

    def test_mixed_experiments_are_refused(self):
        paths = self.reports([10.0], [11.0])
        other = baseline_report()
        other["experiment"] = "e16_query"
        code, _ = self.run_main("--pairs", paths[0],
                                self.write("other.json", other))
        self.assertEqual(code, 2)

    def test_a_row_missing_from_one_report_is_a_note(self):
        paths = self.reports([10.0], [11.0])
        short = baseline_report()
        short["results"] = []
        code, out = self.run_main("--pairs", paths[0],
                                  self.write("short.json", short))
        self.assertEqual(code, 0)
        self.assertIn("missing from some reports", out)


if __name__ == "__main__":
    unittest.main()
