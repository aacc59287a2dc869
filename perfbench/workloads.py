"""Seeded operation lists for the benchmark workloads.

A list is what one measured repetition runs. It is a tuple of batches; the
ops of one batch share one fresh interpreter, so a batch of one op is a
cold-cache CLI call. Each op carries the argv the program sees and the
parameters the oracle needs to check its output. The program receives only
the argv and the config files written here.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

PAIRS = ("12", "15", "34", "36", "25", "46", "23", "35", "14", "16")
BRANCHES = ("Q0Q0", "Q0Q1", "Q1Q0", "Q1Q1")

# sweep: ops per list (a multiple of four, one branch each in turn) and
# alpha^2 points per op.
SWEEP_OPS = 24
SWEEP_STEPS = 20

WORKLOADS = ("reproduce", "sweep")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def make_list(workload: str, rng, workdir: str, index: int) -> tuple[tuple[Op, ...], ...]:
    """Draw list number `index` of a workload from `rng` (a random.Random)."""
    if workload == "reproduce":
        return _reproduce(rng, workdir, index)
    if workload == "sweep":
        return (_sweep(rng),)
    raise ValueError(f"unknown workload {workload!r}")


def _reproduce(rng, workdir: str, index: int):
    # The phase of beta makes the arithmetic complex; the verdicts and
    # thresholds do not depend on it.
    phase = rng.uniform(0.0, 2.0 * math.pi)
    path = os.path.join(workdir, f"reproduce-{index}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"beta_phase={phase!r}\n")
    params = {"beta_phase": phase}
    return tuple(
        (Op(argv + ("--config", path), params),)
        for argv in (("report",), ("branches",), ("thresholds", "--branch", "Q1Q1"))
    )


def _sweep(rng):
    ops = []
    for k in range(SWEEP_OPS):
        branch = BRANCHES[k % len(BRANCHES)]
        lo, hi = sorted(rng.uniform(0.02, 0.98) for _ in range(2))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        argv = (
            "sweep", "--pairs", ",".join(PAIRS), "--branch", branch,
            "--from", repr(lo), "--to", repr(hi), "--steps", str(SWEEP_STEPS),
            "--beta-phase", repr(phase), "--format", "json",
        )
        params = {"branch": branch, "from": lo, "to": hi, "steps": SWEEP_STEPS, "pairs": PAIRS}
        ops.append(Op(argv, params))
    return tuple(ops)

