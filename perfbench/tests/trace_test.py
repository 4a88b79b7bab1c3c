"""Tests of the traced run's output and of the JSON line's metric sets.

    python3 perfbench/tests/trace_test.py PATH/TO/streamq_perfbench

Without the binary's path only the trace validator's hand-made cases run.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
import trace_check  # noqa: E402

BINARY = sys.argv.pop(1) if len(sys.argv) > 1 else None


def span(sid, parent, ts, dur, name="s", request=0):
    return {"name": name, "ph": "X", "pid": 1, "tid": 1, "ts": ts, "dur": dur,
            "args": {"id": sid, "parent": parent, "request": request}}


class ValidatorTest(unittest.TestCase):
    def test_nested_spans_pass(self):
        doc = {"traceEvents": [span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 5, 4),
                               span(4, 3, 6, 1), span(5, 0, 11, 2)]}
        self.assertEqual(trace_check.check_trace(doc), [])

    def test_child_outside_parent_fails(self):
        doc = {"traceEvents": [span(1, 0, 0, 10), span(2, 1, 8, 5)]}
        self.assertTrue(trace_check.check_trace(doc))

    def test_overlapping_siblings_fail(self):
        doc = {"traceEvents": [span(1, 0, 0, 10), span(2, 1, 1, 5), span(3, 1, 4, 2)]}
        self.assertTrue(trace_check.check_trace(doc))

    def test_missing_parent_fails(self):
        doc = {"traceEvents": [span(1, 0, 0, 10), span(2, 7, 1, 1)]}
        self.assertTrue(trace_check.check_trace(doc))

    def test_not_a_trace_fails(self):
        self.assertTrue(trace_check.check_trace({"events": []}))
        self.assertTrue(trace_check.check_trace({"traceEvents": []}))
        self.assertTrue(trace_check.check_trace({"traceEvents": [{"ph": "B", "name": "x"}]}))


@unittest.skipIf(BINARY is None, "no streamq_perfbench path given")
class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def run_bench(self, workload, trace, trace_file=None):
        cmd = [BINARY, "--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--scale", "0.02"]
        if trace_file:
            cmd += ["--trace-file", trace_file]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in self.workloads:
            result = self.run_bench(workload, 0)
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             self.end_to_end, workload)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_traced_run_is_chrome_trace_with_nested_spans(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            result = self.run_bench("server-query-mix", 1, path)
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             self.per_layer)
            with open(path) as f:
                doc = json.load(f)
        self.assertEqual(trace_check.check_trace(doc), [])
        names = {ev["name"] for ev in doc["traceEvents"]}
        for layer in ("quantile.UpdateBatch", "ingest.PushBatch", "durability.Checkpoint",
                      "net.loopback.BATCH_INSERT", "net.tcp.QUERY", "audit.AuditNow",
                      "net.AUDIT"):
            self.assertIn(layer, names)

    def test_unknown_workload_fails_without_a_result(self):
        proc = subprocess.run([BINARY, "--workload", "nope", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
