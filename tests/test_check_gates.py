#!/usr/bin/env python3
"""bench/check_gates.py over small fixtures that sit exactly on every bound
of bench/gates.json: the set passes, and pushing any one rule kind just past
its bound, or dropping a file or an op, fails and names the gate."""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "bench", "check_gates.py")


def rec(op, **fields):
    return {"op": op, "ns_per_op": 1.0, "bytes_per_op": 0, **fields}


LANES = "SERVE_lanes/clients:16/max_batch:8/lanes:"
HOTSWAP = "SERVE_hotswap/clients:8/max_batch:8/lanes:4"
PASSING = {
    "BENCH_train.json": [
        rec("BM_DynamicsFitEpoch/1/real_time", ns_per_op=3.0),
        rec("BM_DynamicsFitEpoch/8/real_time", ns_per_op=2.0),
        rec("BM_DdpgUpdateSharded/1/real_time", ns_per_op=13.0),
        rec("BM_DdpgUpdateSharded/4/real_time"),
        rec("BM_DdpgUpdateSharded/8/real_time", ns_per_op=10.0)],
    "BENCH_sim.json": [
        rec("BM_PooledEpisodes/1/real_time", ns_per_op=13.0),
        rec("BM_PooledEpisodes/8/real_time", ns_per_op=10.0),
        rec("BM_MsdWindowStep"), rec("BM_LigoWindowStep"),
        rec("BM_GeneratedEventThroughput")],
    "BENCH_dist.json": [
        rec("BM_ReplayFoldDirect"), rec("BM_ReplayFoldFramed", ns_per_op=12.0),
        rec("BM_PipeTransport")],
    "BENCH_serve.json": [
        rec("SERVE_admission/clients:8/max_batch:1", decisions_per_sec=100.0),
        rec("SERVE_admission/clients:8/max_batch:8", decisions_per_sec=200.0),
        rec(LANES + "1", decisions_per_sec=100.0),
        rec(LANES + "4", decisions_per_sec=200.0),
        rec(HOTSWAP, bytes_per_op=512.0, dropped=0, swaps=1)],
    "perfbench_result.json": {"correct": True, "failed": 0},
}


# (gate expected to fail, file, op or None for the one-object file, field,
# value just past the bound): one row per rule kind, the all-ops kinds more
# than once.
PUSHES = [
    ("fit epoch", "BENCH_train.json", "BM_DynamicsFitEpoch/8/real_time",
     "ns_per_op", 2.01),  # ratio floor
    ("framed fold overhead", "BENCH_dist.json", "BM_ReplayFoldFramed",
     "ns_per_op", 12.01),  # ratio ceiling
    ("generated-event allocations", "BENCH_sim.json",
     "BM_GeneratedEventThroughput", "bytes_per_op", 1),  # one op == 0
    ("serve allocations", "BENCH_serve.json", LANES + "4", "bytes_per_op",
     1),  # every op but the excluded prefix
    ("dist allocations", "BENCH_dist.json", "BM_PipeTransport",
     "bytes_per_op", 1),  # every op
    ("DDPG update allocations", "BENCH_train.json",
     "BM_DdpgUpdateSharded/4/real_time", "bytes_per_op", 1),
    ("hot-swap swaps", "BENCH_serve.json", HOTSWAP, "swaps", 0),  # >= 1
    ("perfbench correct", "perfbench_result.json", None, "correct", False),
    ("perfbench correct", "perfbench_result.json", None, "correct", 1),
]


class CheckGates(unittest.TestCase):
    def run_checker(self, files, extra=()):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, content in files.items():
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    json.dump(content, f)
            result = subprocess.run(
                [sys.executable, CHECKER, *paths, *extra],
                capture_output=True, text=True)
        return result.returncode, result.stdout

    def expect_failure(self, gate, files, extra=()):
        code, out = self.run_checker(files, extra)
        self.assertEqual(code, 1, out)
        self.assertIn(f"\n  {gate}: ", out)

    def test_fixtures_on_every_bound_pass(self):
        code, out = self.run_checker(PASSING)
        self.assertEqual(code, 0, out)
        self.assertIn("all 16 gates passed", out)

    def test_each_rule_kind_fails_just_past_its_bound(self):
        for gate, name, op, field, pushed in PUSHES:
            with self.subTest(gate=gate, pushed=pushed):
                files = copy.deepcopy(PASSING)
                records = files[name]
                if op is not None:
                    records = next(r for r in records if r["op"] == op)
                records[field] = pushed
                self.expect_failure(gate, files)

    def test_missing_op_fails(self):
        files = copy.deepcopy(PASSING)
        files["BENCH_sim.json"].pop()  # BM_GeneratedEventThroughput
        self.expect_failure("generated-event allocations", files)

    def test_missing_file_fails(self):
        self.expect_failure("no_such_dir/BENCH_nn.json", PASSING,
                            ["no_such_dir/BENCH_nn.json"])


if __name__ == "__main__":
    unittest.main()
