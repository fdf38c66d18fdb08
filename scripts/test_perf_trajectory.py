#!/usr/bin/env python3
"""Unit tests for the fold/delta logic in perf_trajectory.py.

Run directly or via ctest (perf_trajectory_unit):

    python3 scripts/test_perf_trajectory.py
"""

import json
import unittest

import perf_trajectory


def record(name, ns=100, cells=50, probes=10, cache_hits=0):
    return {"name": name, "ns": ns, "cells": cells, "probes": probes,
            "cache_hits": cache_hits}


class ValidateRecordsTest(unittest.TestCase):
    def test_accepts_well_formed_records(self):
        self.assertIsNone(perf_trajectory.validate_records([record("a")]))
        self.assertIsNone(perf_trajectory.validate_records([]))

    def test_rejects_non_list_input(self):
        self.assertIn("array", perf_trajectory.validate_records({"runs": []}))

    def test_rejects_missing_fields(self):
        error = perf_trajectory.validate_records([{"name": "a", "ns": 1}])
        self.assertIn("cache_hits", error)
        self.assertIn("cells", error)

    def test_rejects_non_object_records(self):
        self.assertIn("not an object",
                      perf_trajectory.validate_records(["oops"]))


class LoadHistoryTest(unittest.TestCase):
    def test_empty_text_seeds_fresh_history(self):
        # A history file created by `touch` (or a truncated artifact
        # download) must fold to a fresh seed, not a JSONDecodeError.
        history = perf_trajectory.load_history("", "micro")
        self.assertEqual(history, {"bench": "micro", "runs": []})

    def test_whitespace_only_seeds_fresh_history(self):
        history = perf_trajectory.load_history("  \n\t\n", "serve")
        self.assertEqual(history, {"bench": "serve", "runs": []})

    def test_non_object_document_seeds_fresh_history(self):
        for text in ("null", "[]", '"oops"', "42"):
            history = perf_trajectory.load_history(text, "micro")
            self.assertEqual(history, {"bench": "micro", "runs": []},
                             f"for document {text!r}")

    def test_missing_or_malformed_runs_key_is_repaired(self):
        history = perf_trajectory.load_history('{"bench": "micro"}', "micro")
        self.assertEqual(history["runs"], [])
        history = perf_trajectory.load_history(
            '{"bench": "micro", "runs": null}', "micro")
        self.assertEqual(history["runs"], [])

    def test_missing_bench_name_is_filled_in(self):
        history = perf_trajectory.load_history('{"runs": []}', "serve")
        self.assertEqual(history["bench"], "serve")

    def test_well_formed_history_passes_through(self):
        text = ('{"bench": "micro", "runs": '
                '[{"label": "rev1", "records": []}]}')
        history = perf_trajectory.load_history(text, "micro")
        self.assertEqual(len(history["runs"]), 1)
        self.assertEqual(history["runs"][0]["label"], "rev1")

    def test_garbage_text_still_raises(self):
        import json
        with self.assertRaises(json.JSONDecodeError):
            perf_trajectory.load_history("not json at all", "micro")


class PreviousRecordsTest(unittest.TestCase):
    def test_tolerates_non_dict_runs_and_records(self):
        history = {"runs": [None, "oops", {"records": None},
                            {"records": [None, {"no_name": 1},
                                         record("a", cells=3)]}]}
        previous = perf_trajectory.previous_records(history)
        self.assertEqual(list(previous), ["a"])
        self.assertEqual(previous["a"]["cells"], 3)


class FoldRunTest(unittest.TestCase):
    def test_fold_into_empty_history(self):
        history = {"bench": "micro", "runs": []}
        previous = perf_trajectory.fold_run(history, "rev1", [record("a")])
        self.assertEqual(previous, {})
        self.assertEqual(len(history["runs"]), 1)
        self.assertEqual(history["runs"][0]["label"], "rev1")

    def test_fold_tolerates_missing_runs_key(self):
        # The first CI run on a fresh branch sees a history file that may
        # predate the schema; fold must not crash on it.
        history = {"bench": "micro"}
        previous = perf_trajectory.fold_run(history, "rev1", [record("a")])
        self.assertEqual(previous, {})
        self.assertEqual(len(history["runs"]), 1)

    def test_previous_prefers_latest_run(self):
        history = {"bench": "micro", "runs": []}
        perf_trajectory.fold_run(history, "rev1", [record("a", cells=10)])
        perf_trajectory.fold_run(history, "rev2", [record("a", cells=20)])
        previous = perf_trajectory.fold_run(history, "rev3",
                                            [record("a", cells=30)])
        self.assertEqual(previous["a"]["cells"], 20)
        self.assertEqual([run["label"] for run in history["runs"]],
                         ["rev1", "rev2", "rev3"])


class DeltaLinesTest(unittest.TestCase):
    def test_new_record_marked_new(self):
        lines = perf_trajectory.delta_lines([record("a", cells=5)], {})
        self.assertEqual(len(lines), 1)
        self.assertIn("(new)", lines[0])
        self.assertIn("cells=5", lines[0])

    def test_delta_against_previous(self):
        previous = {"a": record("a", ns=100, cells=50, cache_hits=2)}
        lines = perf_trajectory.delta_lines(
            [record("a", ns=150, cells=25, cache_hits=3)], previous)
        self.assertIn("cells=25 (-50%)", lines[0])
        self.assertIn("ns=150 (+50%)", lines[0])
        self.assertIn("hits=3 (prev 2)", lines[0])

    def test_zero_previous_value_has_no_percentage(self):
        previous = {"a": record("a", ns=0, cells=0)}
        lines = perf_trajectory.delta_lines([record("a", ns=9, cells=7)],
                                            previous)
        self.assertIn("cells=7 ", lines[0])
        self.assertNotIn("%", lines[0])


def e2e_output(workload, seed, traced=False, failed=0, **metrics):
    """A bench_e2e stdout capture: header, report lines, JSON result."""
    result = {"correct": failed == 0, "attempted": 100, "failed": failed,
              "metrics": {name: {"value": value, "unit": "u"}
                          for name, value in metrics.items()}}
    mode = "traced" if traced else "untraced"
    return (f"# bench_e2e {workload} seed {seed} seconds 15 {mode}\n"
            f"latency p50 0.018 ms\n{json.dumps(result)}\nexit 0\n")


BOUNDS = [{"name": "throughput_per_s", "better": "higher", "bound": 0.25},
          {"name": "latency_ms_p95", "better": "lower", "bound": 0.25}]


class ParseE2eOutputTest(unittest.TestCase):
    def test_reads_header_and_result(self):
        run = perf_trajectory.parse_e2e_output(
            e2e_output("small-mix", 7, throughput_per_s=5000.0))
        self.assertEqual(run["workload"], "small-mix")
        self.assertEqual(run["seed"], 7)
        self.assertFalse(run["traced"])
        self.assertEqual(run["metrics"]["throughput_per_s"], (5000.0, "u"))

    def test_traced_header(self):
        run = perf_trajectory.parse_e2e_output(
            e2e_output("dp-heavy", 1, traced=True))
        self.assertTrue(run["traced"])

    def test_missing_header_or_result_raises(self):
        with self.assertRaises(ValueError):
            perf_trajectory.parse_e2e_output('{"metrics": {}}\n')
        with self.assertRaises(ValueError):
            perf_trajectory.parse_e2e_output(
                "# bench_e2e small-mix seed 1 seconds 15 untraced\n")


class QuartilesTest(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(perf_trajectory.quartiles([5, 1, 4, 2, 3]),
                         (2, 3, 4))
        self.assertEqual(perf_trajectory.quartiles([1, 2, 3, 4]),
                         (1.75, 2.5, 3.25))
        self.assertEqual(perf_trajectory.quartiles([9]), (9, 9, 9))


def parsed_runs(workload, values, traced_seeds=()):
    runs = [perf_trajectory.parse_e2e_output(
        e2e_output(workload, seed, throughput_per_s=value))
        for seed, value in enumerate(values, start=1)]
    runs += [perf_trajectory.parse_e2e_output(
        e2e_output(workload, seed, traced=True, **{"dp.ns_per_cell": seed}))
        for seed in traced_seeds]
    return runs


class FoldE2eTest(unittest.TestCase):
    def test_medians_quartiles_and_layers(self):
        runs = parsed_runs("small-mix", [10, 50, 30, 20, 40],
                           traced_seeds=[4, 2])
        workloads, errors = perf_trajectory.fold_e2e(runs)
        self.assertEqual(errors, [])
        summary = workloads["small-mix"]
        self.assertEqual(summary["seeds"], [1, 2, 3, 4, 5])
        stats = summary["metrics"]["throughput_per_s"]
        self.assertEqual((stats["q1"], stats["median"], stats["q3"]),
                         (20, 30, 40))
        self.assertEqual(summary["layers"],
                         {"seed": 2, "metrics": {"dp.ns_per_cell": 2}})
        self.assertEqual(summary["attempted"], 700)

    def test_too_few_seeds_is_an_error(self):
        workloads, errors = perf_trajectory.fold_e2e(
            parsed_runs("dp-heavy", [1, 2, 3, 4]))
        self.assertEqual(workloads, {})
        self.assertIn("dp-heavy: 4 untraced seeds", errors[0])

    def test_workloads_fold_apart(self):
        workloads, errors = perf_trajectory.fold_e2e(
            parsed_runs("a", [1] * 5) + parsed_runs("b", [2] * 5))
        self.assertEqual(errors, [])
        self.assertEqual(sorted(workloads), ["a", "b"])
        self.assertEqual(
            workloads["b"]["metrics"]["throughput_per_s"]["median"], 2)


class DiffE2eTest(unittest.TestCase):
    @staticmethod
    def summary(throughput, p95, failed=0):
        def stat(value):
            return {"unit": "u", "median": value, "q1": value, "q3": value}
        return {"failed": failed, "metrics": {
            "throughput_per_s": stat(throughput), "latency_ms_p95": stat(p95)}}

    def test_flags_only_changes_beyond_the_bound(self):
        previous = {"workloads": {"w": self.summary(100.0, 1.0)}}
        lines, worse = perf_trajectory.diff_e2e(
            {"w": self.summary(80.0, 1.2)}, previous, BOUNDS)
        self.assertEqual(worse, 0)
        self.assertNotIn("WORSE", "".join(lines))
        lines, worse = perf_trajectory.diff_e2e(
            {"w": self.summary(70.0, 1.3)}, previous, BOUNDS)
        self.assertEqual(worse, 2)
        self.assertIn("-30.0%", lines[0])

    def test_gains_are_never_flagged(self):
        previous = {"workloads": {"w": self.summary(100.0, 1.0)}}
        _, worse = perf_trajectory.diff_e2e(
            {"w": self.summary(200.0, 0.5)}, previous, BOUNDS)
        self.assertEqual(worse, 0)

    def test_new_workload_and_failed_answers(self):
        lines, worse = perf_trajectory.diff_e2e(
            {"w": self.summary(1.0, 1.0, failed=3)}, None, BOUNDS)
        self.assertEqual(worse, 1)
        self.assertIn("3 failed", lines[0])
        self.assertIn("(new)", lines[1])

    def test_previous_run_skips_record_runs(self):
        history = {"runs": [{"label": "a", "workloads": {}},
                            {"label": "b", "records": []}]}
        self.assertEqual(
            perf_trajectory.previous_e2e_run(history)["label"], "a")
        self.assertIsNone(perf_trajectory.previous_e2e_run({"runs": []}))


if __name__ == "__main__":
    unittest.main()
