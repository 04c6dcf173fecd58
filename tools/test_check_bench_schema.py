"""Unit tests for check_bench_schema.py (run via `python3 -m unittest
discover -s tools`; CI's python-tools job does exactly that)."""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_schema  # noqa: E402


def write_report(directory, name, payload, raw=None):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        if raw is not None:
            f.write(raw)
        else:
            json.dump(payload, f)
    return path


def valid_e13():
    return {
        "experiment": "e13_hotpath",
        "items": 1000,
        "reps": 3,
        "batch_api": True,
        "results": [
            {"metric": "update", "k": 16, "value": 1.5, "unit": "Mups"},
        ],
    }


def valid_e17():
    return {
        "experiment": "e17_service",
        "items_per_client": 1000,
        "batch": 100,
        "workers": 1,
        "smoke": True,
        "results": [
            {
                "engine": "plain",
                "clients": 2,
                "append_mups": 1.0,
                "append_wall_s": 2.0,
                "queries": 100,
                "query_p50_us": 50.0,
                "query_p99_us": 90.0,
            },
        ],
        "highconn": [
            {
                "connections": 8,
                "workers": 1,
                "appends": 4096,
                "append_p50_us": 80.0,
                "append_p99_us": 900.0,
            },
        ],
        "summary": [
            {
                "engine": "plain",
                "peak_append_mups": 1.0,
                "max_clients_p99_us": 90.0,
            },
        ],
    }


def valid_e18():
    return {
        "experiment": "e18_persistence",
        "items": 1000,
        "batch": 100,
        "smoke": True,
        "results": [
            {
                "mode": "wal_nosync",
                "wall_s": 0.01,
                "append_mups": 1.0,
                "batch_cost_ms": 0.1,
                "wal_bytes": 8000,
            },
        ],
        "recovery": [
            {
                "batches": 64,
                "checkpoint": False,
                "read_ms": 1.0,
                "recover_ms": 5.0,
                "recovered_items": 6400,
                "tail_bytes": 52000,
            },
            {
                "metrics": 64,
                "batches": 3,
                "checkpoint": True,
                "read_ms": 6.0,
                "recover_ms": 20.0,
                "recover_cpu_ms": 40.0,
                "recover_threads": 4,
                "recovered_items": 1179648,
                "tail_bytes": 3000000,
            },
        ],
        "summary": [
            {
                "wal_nosync_overhead_pct": 20.0,
                "fsync_always_batch_ms": 0.9,
                "replay_mups": 1.5,
            },
        ],
    }


def valid_e16():
    return {
        "experiment": "e16_query",
        "items": 1000,
        "reps": 1,
        "smoke": True,
        "results": [
            {
                "k": 16,
                "retained": 300,
                "seed_view_build_us": 30.0,
                "bulk_rank_ns": 20.0,
                "view_scalar_rank_ns": 60.0,
                "scalar_loop_rank_ns": 300.0,
                "cdf_1k_us": 20.0,
                "serialize_us": 5.0,
                "post_write_quantiles_us": 40.0,
                "repeat_quantiles_us": 20.0,
                "post_write_cdf_us": 50.0,
                "post_write_ranks4_us": 5.0,
            },
        ],
        "window": [
            {
                "k": 64,
                "buckets": 8,
                "post_rotate_query_us": 100.0,
                "warm_rank_ns": 50.0,
            },
        ],
        "summary": [
            {
                "k": 16,
                "bulk_vs_scalar_speedup": 15.0,
            },
        ],
    }


def valid_e15():
    return {
        "experiment": "e15_window",
        "items": 1000,
        "reps": 1,
        "smoke": True,
        "results": [
            {
                "k": 16,
                "buckets": 4,
                "window_items": 8192,
                "bucket_items": 2048,
                "update_mups": 15.0,
                "rotate_us": 0.1,
                "warm_rank_ns": 900.0,
                "rotations": 30,
            },
        ],
        "single_baseline": [
            {"k": 16, "window_items": 8192, "warm_rank_ns": 150.0},
        ],
        "summary": [
            {
                "k": 16,
                "buckets": 4,
                "window_items": 8192,
                "warm_ratio_vs_single": 6.0,
            },
        ],
    }


def valid_e19():
    return {
        "experiment": "e19_churn",
        "metrics": 20000,
        "smoke": True,
        "footprint": [
            {"phase": "idle", "bytes_per_metric": 784.0,
             "observed_rss_per_metric": 900.0},
        ],
        "latency": [
            {"op": "list_page", "p50_us": 25.0, "p99_us": 60.0},
        ],
        "rehydrate": [
            {"metrics": 128, "p50_ms": 0.05, "p99_ms": 0.2},
        ],
        "churn": [
            {"rounds": 3, "ops_per_sec": 500000.0},
        ],
        "summary": [
            {
                "metrics": 20000,
                "idle_bytes_per_metric": 784.0,
                "list_page_p99_us": 60.0,
                "list_page_cold_ms": 3.5,
                "rehydrate_p99_ms": 0.2,
            },
        ],
    }


def valid_e3():
    return {
        "experiment": "e3_space_vs_n",
        "smoke": True,
        "results": [
            {
                "n": 8192,
                "req_retained": 900,
                "req_norm": 2.0,
                "zw_retained": 1500,
                "zw_norm": 3.0,
                "levels": 5,
                "req_resident_bytes": 9000,
                "req_blob_bytes": 7300,
            },
        ],
    }


class CheckSchemaTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def check(self, payload, raw=None, name="r.json"):
        return check_bench_schema.check(
            write_report(self.dir.name, name, payload, raw=raw))

    def test_valid_reports_pass(self):
        self.assertEqual(self.check(valid_e13()), [])
        self.assertEqual(self.check(valid_e17()), [])
        self.assertEqual(self.check(valid_e18()), [])
        self.assertEqual(self.check(valid_e16()), [])
        self.assertEqual(self.check(valid_e15()), [])
        self.assertEqual(self.check(valid_e19()), [])
        self.assertEqual(self.check(valid_e3()), [])

    def test_e3_results_rows_need_resident_and_blob_bytes(self):
        for key in ("req_resident_bytes", "req_blob_bytes"):
            report = valid_e3()
            del report["results"][0][key]
            errors = self.check(report)
            self.assertTrue(any("results[0]" in e and key in e
                                for e in errors), key)

    def test_e16_results_rows_need_post_write_quantiles_us(self):
        report = valid_e16()
        del report["results"][0]["post_write_quantiles_us"]
        errors = self.check(report)
        self.assertTrue(any("results[0]" in e
                            and "post_write_quantiles_us" in e
                            for e in errors))

    def test_e16_results_rows_need_repeat_quantiles_us(self):
        report = valid_e16()
        del report["results"][0]["repeat_quantiles_us"]
        errors = self.check(report)
        self.assertTrue(any("results[0]" in e
                            and "repeat_quantiles_us" in e
                            for e in errors))

    def test_e16_results_rows_need_post_write_cdf_and_ranks4(self):
        for key in ("post_write_cdf_us", "post_write_ranks4_us"):
            report = valid_e16()
            del report["results"][0][key]
            errors = self.check(report)
            self.assertTrue(any("results[0]" in e and key in e
                                for e in errors), key)

    def test_e19_summary_needs_list_page_cold_ms(self):
        report = valid_e19()
        del report["summary"][0]["list_page_cold_ms"]
        errors = self.check(report)
        self.assertTrue(any("summary[0]" in e and "list_page_cold_ms" in e
                            for e in errors))

    def test_e18_recovery_rows_need_read_ms(self):
        report = valid_e18()
        del report["recovery"][0]["read_ms"]
        errors = self.check(report)
        self.assertTrue(any("recovery[0]" in e and "read_ms" in e
                            for e in errors))

    def test_e18_needs_a_many_metric_recovery_row(self):
        report = valid_e18()
        del report["recovery"][1]
        errors = self.check(report)
        self.assertTrue(any("'recovery'" in e and "metrics" in e
                            for e in errors))

    def test_e18_many_metric_rows_need_cpu_time_and_threads(self):
        for key in ("recover_cpu_ms", "recover_threads"):
            report = valid_e18()
            del report["recovery"][1][key]
            errors = self.check(report)
            self.assertTrue(any("recovery[1]" in e and key in e
                                for e in errors), key)

    def test_host_fingerprint_is_optional_but_checked(self):
        report = valid_e17()
        report["host"] = {"cores_online": 4, "compiler": "gcc 12.2.0",
                          "build_type": "Release"}
        self.assertEqual(self.check(report), [])
        report["host"] = {"cores_online": "4", "compiler": "gcc 12.2.0"}
        errors = self.check(report)
        self.assertTrue(any("host.cores_online" in e for e in errors))
        self.assertTrue(any("host.build_type" in e for e in errors))
        report["host"] = "4 cores"
        errors = self.check(report)
        self.assertTrue(any("'host' must be an object" in e
                            for e in errors))

    def test_malformed_json_is_one_error(self):
        errors = self.check(None, raw="{not json")
        self.assertEqual(len(errors), 1)
        self.assertIn("not valid JSON", errors[0])

    def test_unknown_experiment_fails(self):
        report = valid_e13()
        report["experiment"] = "e99_mystery"
        errors = self.check(report)
        self.assertEqual(len(errors), 1)
        self.assertIn("unknown experiment", errors[0])

    def test_missing_top_level_key_fails(self):
        report = valid_e17()
        del report["batch"]
        errors = self.check(report)
        self.assertTrue(any("batch" in e for e in errors))

    def test_missing_row_key_names_the_row(self):
        report = valid_e17()
        del report["results"][0]["query_p99_us"]
        errors = self.check(report)
        self.assertTrue(any("results[0]" in e and "query_p99_us" in e
                            for e in errors))

    def test_empty_array_fails(self):
        report = valid_e17()
        report["summary"] = []
        errors = self.check(report)
        self.assertTrue(any("summary" in e and "non-empty" in e
                            for e in errors))

    def test_extra_keys_are_allowed(self):
        report = valid_e17()
        report["new_top_field"] = 1
        report["results"][0]["new_row_field"] = 2
        self.assertEqual(self.check(report), [])

    def test_main_exit_codes(self):
        good = write_report(self.dir.name, "good.json", valid_e17())
        bad = write_report(self.dir.name, "bad.json", {"experiment": "x"})
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            self.assertEqual(check_bench_schema.main(["prog", good]), 0)
            self.assertEqual(check_bench_schema.main(["prog", good, bad]),
                             1)
            self.assertEqual(check_bench_schema.main(["prog"]), 2)


if __name__ == "__main__":
    unittest.main()
