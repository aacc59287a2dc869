"""The input phase changes nothing the CLI prints.

The input alpha|00> + beta|11> with beta = |beta| e^{i phi} is a local
diagonal unitary on Alice's qubits away from phi = 0, and the cloner is
covariant, so phi only turns w = rho[0,3] of each pair marginal. No
verdict, concurrence, probability or fidelity depends on it. The CLI
therefore computes at phase 0 and only echoes beta_phase. These tests
state the invariance at seeded random phases on the public routes, with
the cloner as the reference for the branch probabilities and the simulated
Bell measurement (tests/reference.py) for the swap probabilities.
"""
import math

import numpy as np
import pytest

from qbroadcast import (
    branch_marginal,
    branch_probabilities,
    build_initial,
    correction_plans,
    run_first_stage,
)
from qbroadcast.cli import BRANCH_NAMES, run_command
from reference import bsm, swap_extend

_RNG = np.random.default_rng(25)
PHASES = [float(phi) for phi in _RNG.uniform(-2.0 * math.pi, 2.0 * math.pi, 3)]
WEIGHTS = [float(x) for x in _RNG.uniform(0.0, 1.0, 6)] + [1e-9, 0.5, 1.0 - 1e-9]


@pytest.mark.parametrize("phi", PHASES)
def test_branch_probabilities_are_the_cloners_at_any_phase(phi):
    for x in WEIGHTS:
        _, branches = run_first_stage(build_initial(math.sqrt(x), phi))
        got = branch_probabilities(x)
        assert list(got) == [b.machine_labels for b in branches]
        for b in branches:
            assert abs(got[b.machine_labels] - b.probability) <= 1e-15, (x, phi, b.machine_labels)


def test_branch_probabilities_are_exact_at_one_half():
    assert branch_probabilities(0.5) == {
        ("Q0", "Q0"): 5 / 18, ("Q0", "Q1"): 2 / 9, ("Q1", "Q0"): 2 / 9, ("Q1", "Q1"): 5 / 18,
    }


@pytest.mark.parametrize("x", [math.nan, -0.1, 1.5])
def test_branch_probabilities_reject_weights_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match="alpha2 must be in"):
        branch_probabilities(x)


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_branch_probabilities_at_the_edges(x):
    probs = branch_probabilities(x)
    assert probs[("Q0", "Q0")] == (1.0 + 3.0 * x) / 9.0
    assert probs[("Q1", "Q1")] == (4.0 - 3.0 * x) / 9.0
    assert abs(sum(probs.values()) - 1.0) <= 1e-15


@pytest.mark.parametrize("phi", PHASES)
def test_swap_probabilities_and_fidelities_ignore_the_phase(phi):
    xs = np.array(WEIGHTS[:6])
    got, want = (branch_marginal(xs, ("Q0", "Q0"), "325", phase) for phase in (phi, 0.0))
    # the simulated Bell measurement's probabilities, which the package
    # takes as exactly 1/4 by the teleportation identity
    for g, w in zip(bsm(swap_extend(got)), bsm(swap_extend(want))):
        assert g.label == w.label
        assert np.max(np.abs(g.probability - w.probability)) <= 1e-12
    sources = ("derived", "published")
    for g, w in zip(correction_plans(got, sources), correction_plans(want, sources)):
        for source in sources:
            for label, plan in w[source].items():
                assert abs(g[source][label].achieved_fidelity - plan.achieved_fidelity) <= 1e-12, (source, label)


def _stdout(capsys, argv):
    assert run_command(argv) == 0
    return capsys.readouterr().out


_SWAPS = [
    ["swap", "--alpha2", x, "--corrections", c]
    for x in ("1e-300", "0.3", "0.5", "0.8", "0.999", "0.99999999")
    for c in ("derived", "published")
]


@pytest.mark.parametrize(
    "argv", [["branches"], ["report"]] + [["thresholds", "--branch", name] for name in BRANCH_NAMES] + _SWAPS,
    ids=" ".join,
)
def test_the_cli_prints_its_phase_zero_bytes_at_any_phase(tmp_path, capsys, argv):
    want = _stdout(capsys, argv)
    for phi in PHASES:
        cfg = tmp_path / "phase.cfg"
        cfg.write_text(f"beta_phase={phi!r}\n", encoding="utf-8")
        got = _stdout(capsys, argv + ["--config", str(cfg)])
        # the one difference is the echo of the setting
        if argv[0] == "thresholds":
            got = got.replace(f'"beta_phase": {phi!r}', '"beta_phase": 0.0', 1)
        elif argv[0] == "report":
            got = got.replace(f"beta_phase={phi!r})", "beta_phase=0.0)", 1)
        assert got == want, phi
