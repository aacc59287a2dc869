"""Self-tests of the benchmark: seeded inputs, the oracle, self-time sums.

Run from the root of a checkout:

    python3 perfbench/selftest.py

The oracle tests run the program in-process on small inputs (scan commands
at --grid 50), accept its output, then reject perturbed copies of it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import BRANCHES, PAIRS, WORKLOADS, Op, make_list  # noqa: E402


def _run(argv) -> str:
    from qbroadcast.cli import run_command

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def _lists(seed: int, workdir: str):
    """Three lists of every workload, with the config files they wrote."""
    out = []
    for workload in WORKLOADS:
        rng = random.Random(seed)
        for i in range(3):
            lst = make_list(workload, rng, workdir, i)
            argvs = [op.argv for batch in lst for op in batch]
            configs = []
            for argv in argvs:
                if "--config" in argv:
                    with open(argv[argv.index("--config") + 1], encoding="utf-8") as fh:
                        configs.append(fh.read())
            out.append((argvs, configs))
    return out


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_argv_and_configs(self):
        with tempfile.TemporaryDirectory() as d:
            first = _lists(7, d)
            second = _lists(7, d)
            other = _lists(8, d)
        self.assertEqual(first, second)
        self.assertNotEqual(first, other)

    def test_sweep_covers_all_pairs_and_branches(self):
        lst = make_list("sweep", random.Random(1), "", 0)
        ops = [op for batch in lst for op in batch]
        self.assertEqual({op.params["branch"] for op in ops}, set(BRANCHES))
        self.assertTrue(all(set(op.params["pairs"]) == set(PAIRS) for op in ops))
        self.assertTrue(all(0.02 <= op.params["from"] < op.params["to"] <= 0.98 for op in ops))


class OracleRejectsPerturbedOutput(unittest.TestCase):
    def assertAccepted(self, op, text):
        self.assertEqual(oracle.check(op, text), [])

    def assertRejected(self, op, text):
        self.assertNotEqual(oracle.check(op, text), [], "perturbed output was accepted")

    def test_thresholds(self):
        op = Op(("thresholds", "--branch", "Q1Q1", "--grid", "50"))
        text = _run(op.argv)
        self.assertAccepted(op, text)
        d = json.loads(text)
        d["rho46"]["intervals"][0]["hi"] += 0.01
        self.assertRejected(op, json.dumps(d))
        self.assertRejected(op, text.replace('"lo": 0.0', '"lo": NaN', 1))
        self.assertRejected(op, text[: len(text) // 2])

    def test_branches(self):
        op = Op(("branches", "--grid", "50"))
        text = _run(op.argv)
        self.assertAccepted(op, text)
        d = json.loads(text)
        d[1]["broadcast_intervals"] = d[0]["broadcast_intervals"]
        self.assertRejected(op, json.dumps(d))

    def test_report(self):
        op = Op(("report", "--grid", "50"))
        text = _run(op.argv)
        self.assertAccepted(op, text)
        lines = text.splitlines(keepends=True)
        rho16 = next(i for i, l in enumerate(lines) if l.startswith("rho16 entangled above"))
        for bad in (
            text.replace("computed 0.18", "computed 0.19", 1),
            text.replace("B1+ 0.250000", "B1+ 0.251000", 1),
            text.replace("computed none", "computed (0.100000, 0.200000)", 1),
            "".join(lines[:rho16] + lines[rho16 + 1:]),
        ):
            self.assertRejected(op, bad)

    def test_sweep(self):
        op = make_list("sweep", random.Random(3), "", 0)[0][0]
        text = _run(op.argv)
        self.assertAccepted(op, text)
        rows = json.loads(text)
        away = next(i for i, r in enumerate(rows) if abs(r["min_pt_eigenvalue"]) > 1e-3)
        for mutate in (
            lambda rs: rs[away].update(entangled=1 - rs[away]["entangled"]),
            lambda rs: rs[away].update(eof=rs[away]["eof"] + 1e-3),
            lambda rs: rs.pop(),
        ):
            bad = json.loads(text)
            mutate(bad)
            self.assertRejected(op, json.dumps(bad))

    def test_sweep_closed_form_verdicts(self):
        # Flipping both the verdict and the PT sign of a known-threshold
        # pair keeps the row self-consistent; only the closed form catches it.
        op = Op(
            ("sweep", "--pairs", "46", "--branch", "Q0Q0", "--from", "0.3", "--to", "0.9", "--steps", "3",
             "--format", "json"),
            {"branch": "Q0Q0", "from": 0.3, "to": 0.9, "steps": 3, "pairs": ("46",)},
        )
        text = _run(op.argv)
        self.assertAccepted(op, text)
        bad = json.loads(text)
        row = bad[0]  # alpha2 = 0.3, separable
        row.update(entangled=1, min_pt_eigenvalue=-abs(row["min_pt_eigenvalue"]) - 1e-3, concurrence=0.5,
                   eof=oracle.eof_of(0.5))
        self.assertRejected(op, json.dumps(bad))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9].
        stats = tracer.SpanStats(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        stats.enter("a")
        stats.enter("b")
        stats.enter("c")
        stats.exit()
        stats.exit()
        stats.enter("d")
        stats.exit()
        self.assertEqual(stats.exit(), 10)
        self.assertEqual(dict(stats.self_s), {"a": 3, "b": 2, "c": 1, "d": 4})
        self.assertEqual(sum(stats.self_s.values()), 10)
        self.assertEqual(dict(stats.calls), {"a": 1, "b": 1, "c": 1, "d": 1})

    def test_recursive_spans_sum_to_root(self):
        stats = tracer.SpanStats(clock=FakeClock([0, 2, 3, 7, 8, 9]))
        stats.enter("f")
        stats.enter("f")
        stats.enter("f")
        stats.exit()
        stats.exit()
        stats.exit()
        self.assertEqual(stats.self_s["f"], 9)
        self.assertEqual(stats.calls["f"], 3)

    def test_tracing_leaves_stdout_unchanged(self):
        op = make_list("sweep", random.Random(5), "", 0)[0][0]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        outputs = []
        for trace in (False, True):
            spec = json.dumps({"ops": [list(op.argv)], "trace": trace, "timeout": 60})
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")], input=spec,
                                  capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True)
            records = [json.loads(line) for line in proc.stdout.splitlines()]
            outputs.append(records[1]["stdout"])
            if trace:
                spans = records[-1]["trace"]
                self.assertGreater(spans["calls"]["linalg.eig_hermitian.n4"], 0)
                self.assertGreater(spans["calls"]["qstate.DensityOp"], 0)
                self.assertLessEqual(sum(spans["self_s"].values()), records[1]["latency_s"])
        self.assertEqual(outputs[0], outputs[1])


if __name__ == "__main__":
    unittest.main()
