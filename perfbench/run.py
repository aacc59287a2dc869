"""qbroadcast benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {reproduce,sweep} --seed N \
        --seconds S --trace {0,1}

One client runs operations (`qbroadcast.cli.run_command` calls) back to
back, one child interpreter at a time. `--seed` generates the operation
lists and config files; the program sees only those. Each list is
repeated until the next one would end after `--seconds`; every operation
is checked by the closed-form oracle in `oracle.py`.

With `--trace 0` the end-to-end metrics are measured. With `--trace 1`
each list runs once untraced and once with the per-layer wrappers of
`tracer.py`, and the per-layer metrics of the traced runs are reported
with the tracing overhead. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it print
every metric by name with its unit. A record of the run (environment,
argv, stdout sha256 and latency of each operation) is written to
`perfbench/.work/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import oracle
from workloads import WORKLOADS, make_list

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(HERE, ".work")

# setup_s is the median import time of these fresh interpreters, run before
# the measured window, and of every child that runs an untraced batch, so
# its samples are spread over the run. One more interpreter runs first,
# unmeasured, so the byte-code cache is written before anything is timed.
SETUP_PROBES = 5
OP_TIMEOUT_S = 60.0
# The whole run, set-up included, ends within this many seconds.
HARD_LIMIT_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Call counts of traced functions, per list.
PER_LAYER_CALLS = (
    "linalg.eig_hermitian.n4",
    "linalg.eig_hermitian.n8",
    "linalg.det_complex",
    "linalg.hermitian_defect",
    "linalg.sqrt_psd",
    "qstate.partial_trace",
    "qstate.apply_isometry",
    "qstate.DensityOp",
    "entanglement.ppt_verdict",
    "entanglement.concurrence",
    "entanglement.scan_predicate",
    "protocol.six_qubit_branch",
    "protocol.run_second_stage",
    "swap.derive_corrections",
    "swap.bsm",
    "gvchannel.transmit_bits",
)
# Self times reported as metrics: only spans that every workload enters,
# so that no time metric reads 0 on every run of some workload. The self
# times of all spans are printed in the table above the result line.
PER_LAYER_SELF = (
    "linalg.eig_hermitian.n4",
    "linalg.det_complex",
    "linalg.hermitian_defect",
    "linalg.sqrt_psd",
    "qstate.partial_trace",
    "qstate.apply_isometry",
    "qstate.DensityOp",
    "entanglement.ppt_verdict",
    "entanglement.concurrence",
)
PER_LAYER = (
    tuple((f"{name}.calls", "count") for name in PER_LAYER_CALLS)
    + (
        ("qstate.partial_trace.bytes_in", "B"),
        ("entanglement.scan.points", "count"),
        ("gvchannel.transmit_bits.bits", "count"),
        ("protocol.six_state.builds_per_request", "ratio"),
    )
    + tuple((f"{name}.self_s", "s") for name in PER_LAYER_SELF)
    + (
        ("trace.self_sum_s", "s"),
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it does not start)."""


class Runner:
    """Spawns one child interpreter at a time and checks what it prints."""

    def __init__(self, root: str, deadline: float):
        self.deadline = deadline
        self.root = root
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.path.join(root, "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.aborted = False

    def batch(self, ops, trace: bool) -> dict:
        """Run ops in one fresh interpreter; missing op records mean it died."""
        spec = json.dumps({"ops": [list(op.argv) for op in ops], "trace": trace, "timeout": OP_TIMEOUT_S})
        budget = min(OP_TIMEOUT_S * max(1, len(ops)) + 10.0, self.deadline - time.monotonic())
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=self.root, env=self.env, text=True,
        )
        try:
            out, err = proc.communicate(spec, timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += "\nkilled: batch ran past its time budget"
        records = []
        for line in out.splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                break
        result = {"setup_s": None, "env": None, "ops": [], "maxrss_kb": 0, "trace": None, "stderr": err}
        if records and "ready" in records[0]:
            result["setup_s"] = records[0]["ready"] - start
            result["env"] = records[0]["env"]
            records = records[1:]
        if records and records[-1].get("done"):
            result["maxrss_kb"] = records[-1]["maxrss_kb"]
            result["trace"] = records[-1]["trace"]
            records = records[:-1]
        result["ops"] = records
        if len(records) != len(ops) or proc.returncode != 0:
            self.aborted = True
        return result

    def run_list(self, lst, trace: bool) -> dict:
        """Run and check every op of a list; return its measurements."""
        latencies, outcomes, setup = [], [], []
        maxrss_kb = 0
        spans = {"calls": {}, "self_s": {}, "counts": {}}
        for batch in lst:
            res = self.batch(batch, trace)
            setup.append(res["setup_s"])
            maxrss_kb = max(maxrss_kb, res["maxrss_kb"])
            for key, values in (res["trace"] or {}).items():
                for name, v in values.items():
                    spans[key][name] = spans[key].get(name, 0) + v
            for i, op in enumerate(batch):
                rec = res["ops"][i] if i < len(res["ops"]) else None
                outcomes.append(_outcome(op, rec, res["stderr"], trace))
                if rec is not None:
                    latencies.append(rec["latency_s"])
        return {
            "latencies": latencies,
            "run_s": sum(latencies),
            "setup": [x for x in setup if x is not None],
            "maxrss_kb": maxrss_kb,
            "spans": spans,
            "outcomes": outcomes,
        }


def _outcome(op, rec, stderr: str, trace: bool) -> dict:
    out = {"argv": list(op.argv), "trace": trace}
    if rec is None:
        problems = [f"no result: child interpreter ended early: {stderr.strip()[-300:]}"]
    elif rec["error"]:
        problems = [rec["error"].strip()]
    elif rec["code"] != 0:
        problems = [f"exit code {rec['code']}: {rec['stderr'].strip()[-300:]}"]
    else:
        problems = oracle.check(op, rec["stdout"])
    if rec is not None:
        out["latency_s"] = rec["latency_s"]
        out["stdout_sha256"] = hashlib.sha256(rec["stdout"].encode()).hexdigest()
    out["problems"] = problems
    return out


def _end_to_end(setup_samples, lists) -> dict:
    latencies = [x for r in lists for x in r["latencies"]]
    if not latencies:
        raise BenchError("no operation produced a result")
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": statistics.median(setup_samples),
        # A mean, not a median: the host's slow phases make list times
        # bimodal, and the median of a few lists jumps between the modes.
        "run_s": statistics.fmean(r["run_s"] for r in lists),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in lists),
    }


def _layer_values(traced: dict, untraced: dict) -> dict:
    calls, self_s, counts = (traced["spans"][k] for k in ("calls", "self_s", "counts"))
    builds, requests = calls.get("protocol.run_second_stage", 0), calls.get("protocol.six_qubit_branch", 0)
    values = {f"{name}.calls": calls.get(name, 0) for name in PER_LAYER_CALLS}
    values.update({f"{name}.self_s": self_s.get(name, 0.0) for name in PER_LAYER_SELF})
    values.update(
        {
            "qstate.partial_trace.bytes_in": counts.get("qstate.partial_trace.bytes_in", 0),
            "entanglement.scan.points": counts.get("entanglement.scan.points", 0),
            "gvchannel.transmit_bits.bits": counts.get("gvchannel.transmit_bits.bits", 0),
            "protocol.six_state.builds_per_request": builds / requests if requests else 0.0,
            "trace.self_sum_s": sum(self_s.values()),
            "trace.run_s": traced["run_s"],
            "trace.untraced_run_s": untraced["run_s"],
            "trace.overhead_s": traced["run_s"] - untraced["run_s"],
        }
    )
    return values


def _environment(env: dict | None) -> dict:
    out = dict(env or {})
    out["nproc"] = len(os.sched_getaffinity(0))
    out["loadavg"] = [round(x, 2) for x in os.getloadavg()]
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, root: str) -> dict:
    started = time.monotonic()
    runner = Runner(root, started + HARD_LIMIT_S)
    os.makedirs(WORKDIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORKDIR)
    try:
        warm = runner.batch((), False)
        if warm["setup_s"] is None:
            raise BenchError(f"the program does not import: {warm['stderr'].strip()[-500:]}")
        env = _environment(warm["env"])
        setup_samples = [runner.batch((), False)["setup_s"] for _ in range(SETUP_PROBES)]
        if None in setup_samples or runner.aborted:
            raise BenchError("a set-up probe did not import the program or did not exit cleanly")

        rng = random.Random(seed)
        window = time.monotonic()
        untraced, traced, last_unit = [], [], None
        while not runner.aborted:
            now = time.monotonic()
            if last_unit is not None and (now - window + last_unit > seconds or now + last_unit > runner.deadline):
                break
            lst = make_list(workload, rng, scratch, len(untraced))
            untraced.append(runner.run_list(lst, False))
            if trace and not runner.aborted:
                traced.append(runner.run_list(lst, True))
            last_unit = time.monotonic() - now
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcomes = [o for r in untraced + traced for o in r["outcomes"]]
    failed = sum(1 for o in outcomes if o["problems"])
    setup_samples += [x for r in untraced for x in r["setup"]]
    metrics = _end_to_end(setup_samples, untraced)
    layers = [_layer_values(t, u) for t, u in zip(traced, untraced)]
    per_layer = {name: statistics.median(v[name] for v in layers) for name, _ in PER_LAYER} if layers else {}
    env["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "setup_samples": setup_samples, "lists": len(untraced),
        "attempted": len(outcomes), "failed": failed,
        "end_to_end": metrics, "per_layer": per_layer,
        "spans": _span_table(traced), "commands": _command_times(untraced),
        "outcomes": outcomes,
    }


def _span_table(traced) -> dict:
    """Per span name: median calls and self time over the traced lists."""
    names = sorted({n for r in traced for n in r["spans"]["calls"]})
    return {
        n: (statistics.median(r["spans"]["calls"].get(n, 0) for r in traced),
            statistics.median(r["spans"]["self_s"].get(n, 0.0) for r in traced))
        for n in names
    }


def _command_times(untraced) -> dict:
    """cli.<subcommand>.s: median untraced latency of each subcommand."""
    by_cmd: dict = {}
    for r in untraced:
        for o in r["outcomes"]:
            if "latency_s" in o:
                by_cmd.setdefault(o["argv"][0], []).append(o["latency_s"])
    return {f"cli.{cmd}.s": statistics.median(v) for cmd, v in sorted(by_cmd.items())}


def report(run: dict) -> str:
    lines = [
        f"# workload={run['workload']} seed={run['seed']} seconds={run['seconds']} "
        f"trace={run['trace']} lists={run['lists']} ops={run['attempted']}",
        "env " + json.dumps(run["env"], sort_keys=True),
    ]
    e2e = run["end_to_end"]
    n_ops = sum(1 for o in run["outcomes"] if not o["trace"] and "latency_s" in o)
    notes = {
        "setup_s": f"median of {len(run['setup_samples'])} fresh interpreters",
        "run_s": f"mean of {run['lists']} lists",
        "op_p50_s": f"n={n_ops}",
        "op_p90_s": f"n={n_ops}",
        "peak_rss_mb": "median over lists of the largest child",
    }
    for name, unit in END_TO_END:
        lines.append(f"{name:<44} {e2e[name]:>14.6f} {unit:<6} {notes[name]}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    lines.append(f"{'fail_ratio':<44} {ratio:>14.6f} {'1':<6} {run['failed']}/{run['attempted']}")
    for name, value in run["commands"].items():
        lines.append(f"{name:<44} {value:>14.6f} {'s':<6} median untraced latency")
    for name, unit in PER_LAYER if run["trace"] else ():
        lines.append(f"{name:<44} {run['per_layer'].get(name, 0.0):>14.6f} {unit}")
    if run["spans"]:
        lines.append(f"# spans (median per traced list): {'calls':>10} {'self_s':>12}")
        for name, (calls, self_s) in sorted(run["spans"].items(), key=lambda kv: -kv[1][1]):
            lines.append(f"#   {name:<40} {calls:>10.0f} {self_s:>12.6f}")
    for o in run["outcomes"]:
        for p in o["problems"]:
            lines.append(f"FAILED {' '.join(o['argv'])}: {p}")
    return "\n".join(lines)


def result_line(run: dict) -> str:
    spec = PER_LAYER if run["trace"] else END_TO_END
    source = run["per_layer"] if run["trace"] else run["end_to_end"]
    metrics = {name: {"value": source.get(name, 0.0), "unit": unit} for name, unit in spec}
    return json.dumps(
        {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qbroadcast", "cli.py")):
        print("error: run from the root of a qbroadcast checkout (no src/qbroadcast/cli.py here)", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
    print(report(run))
    print(result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
