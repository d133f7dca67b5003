"""Self-test of the benchmark's own arithmetic and failure accounting.

    python3 clibench/selftest.py

Run from the root of a source checkout; two cases start small CLI jobs.
"""

import json
import shutil
import unittest

import run
import tracing


def _span(name, start, end, parent):
    return (name, start, end, parent, "job")


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
            _span("c", 2.0, 3.0, 1),
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 2.0, 3.0, 1.0])

    def test_job_times_sum_by_name(self):
        spans = [_span("f", 0.0, 4.0, -1), _span("g", 1.0, 2.0, 0),
                 _span("g", 2.0, 3.5, 0)]
        times = tracing.job_times(spans)
        self.assertEqual(times["f"], {"self": 1.5, "incl": 4.0, "calls": 1})
        self.assertEqual(times["g"], {"self": 2.5, "incl": 2.5, "calls": 2})


class BuildCalls(unittest.TestCase):
    def setUp(self):
        self.tmp = run.BUILD / "selftest"
        shutil.rmtree(self.tmp, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_counts_are_summed_within_a_pass_only(self):
        def job(builds):
            return (1, {}, {"exact.build_calls": builds})
        pass_counts = [tracing.layer_metrics([job(4), job(1)])["exact.build_calls"]
                       for _ in range(3)]
        self.assertEqual(pass_counts, [5, 5, 5])

    def test_every_process_rebuilds_its_laws(self):
        job = run.Job("exact-small", ("exact", "--beta", "1", "--n", "30", "--outputs",
                                      "Z,free-energy", "--n-grid", "10,20,30"), None)
        for k in range(2):
            result = run.run_job(job, self.tmp / f"pass{k}", trace=True)
            self.assertEqual(result["failures"], [])
            self.assertEqual(result["counts"]["exact.build_calls"], 3)
            self.assertGreater(result["times"]["exact.joint_law_exact"]["calls"], 3)

    def test_nonzero_exit_is_a_failed_job(self):
        job = run.Job("exact-capped", ("exact", "--beta", "1", "--n", "700"), None)
        result = run.run_job(job, self.tmp / "capped", trace=False)
        self.assertEqual(result["code"], 3)
        self.assertEqual([k for k, _ in result["failures"]], ["exit"])


class FailureAccounting(unittest.TestCase):
    def test_exit_code_and_traceback(self):
        tb = "Traceback (most recent call last):\n  File ...\nValueError: x\n"
        self.assertEqual(run.process_failures(0, "warning: low ESS\n"), [])
        self.assertEqual([k for k, _ in run.process_failures(2, "error: bad\n")], ["exit"])
        self.assertEqual([k for k, _ in run.process_failures(1, tb)], ["exit", "traceback"])
        self.assertEqual([k for k, _ in run.process_failures(0, tb)], ["traceback"])

    def test_known_defect_covers_only_its_check(self):
        known = "mc-tilted-endpoint_mean"
        self.assertTrue(run.is_known({"job": known, "failures": [("check", "off")]}))
        self.assertFalse(run.is_known({"job": known, "failures": [("exit", "1")]}))
        self.assertFalse(run.is_known({"job": "mc-brownian", "failures": [("check", "x")]}))

    def test_fail_fraction_counts_jobs_not_reasons(self):
        ok = {"main_s": 1.0, "setup_s": 0.1, "wall_s": 1.2, "rss_mb": 30.0, "failures": [],
              "cal_s": run.CAL_REF_S}
        bad = dict(ok, failures=[("exit", "exit code 1"), ("traceback", "tb")])
        jobs = [run.Job("x", (), None, "x_s", "job_a_s"), run.Job("y", (), None)]
        metrics, named = run.end_to_end(jobs, [{"x": ok, "y": bad}, {"x": ok, "y": ok}])
        self.assertEqual(named["fail_frac"], 0.25)
        self.assertEqual(metrics["pass_frac"], 0.75)
        self.assertEqual(metrics["job_a_s"], 1.0)


class Scaling(unittest.TestCase):
    def test_a_uniform_slowdown_cancels(self):
        def job(factor, main_s):
            return {"main_s": main_s * factor, "setup_s": 0.2 * factor,
                    "wall_s": (main_s + 0.3) * factor, "rss_mb": 30.0, "failures": [],
                    "cal_s": run.CAL_REF_S * factor}
        jobs = [run.Job("x", (), None, "x_s", "job_a_s")]
        quiet, _ = run.end_to_end(jobs, [{"x": job(1.0, 2.0)}] * 3)
        busy, named = run.end_to_end(jobs, [{"x": job(f, 2.0)} for f in (1.7, 1.8, 1.9)])
        for key in ("setup_s", "wall_s", "job_a_s"):
            self.assertAlmostEqual(busy[key], quiet[key])
        self.assertAlmostEqual(named["x_s measured"], 3.6)
        self.assertAlmostEqual(named["machine_slowdown"], 1.8)

    def test_a_slower_program_shows(self):
        jobs = [run.Job("x", (), None, "x_s", "job_a_s")]
        base = {"main_s": 2.0, "setup_s": 0.2, "wall_s": 2.5, "rss_mb": 30.0,
                "failures": [], "cal_s": run.CAL_REF_S}
        fast, _ = run.end_to_end(jobs, [{"x": base}])
        slow, _ = run.end_to_end(jobs, [{"x": dict(base, main_s=2.6)}])
        self.assertAlmostEqual(slow["job_a_s"] / fast["job_a_s"], 1.3)


class Manifest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the sources")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
