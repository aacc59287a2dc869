"""CLI output against outputs written by the per-point pipeline.

The files under golden/ were produced when every alpha^2 point still built
its own six-qubit state through run_first_stage and run_second_stage (the
per-point pipeline tests/reference.py keeps), and every scan tested one
point at a time. The commands are run at
beta_phase 0 and 4.71 (set through a config file).

report, branches, thresholds and baseline print verdicts, bisection
midpoints and rounded figures, so they must match byte for byte. sweep and
swap print unrounded floats, which may move in the last bits when the
arithmetic is regrouped: their numbers must agree within 1e-12, and every
other field (labels, pairs, words, entangled flags) must be equal.
"""
import csv
import json
from pathlib import Path

import pytest

from qbroadcast.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
PAIRS = "12,15,34,36,25,46,23,35,14,16"


def _stdout(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def _phase_args(tmp_path, phase):
    if phase == "phi0":
        return []
    cfg = tmp_path / "phase.cfg"
    cfg.write_text("beta_phase=4.71\n", encoding="utf-8")
    return ["--config", str(cfg)]


@pytest.mark.parametrize("phase", ["phi0", "phi471"])
@pytest.mark.parametrize(
    "name,argv",
    [
        ("report", ["report"]),
        ("branches", ["branches"]),
        ("thresholds_Q1Q1", ["thresholds", "--branch", "Q1Q1"]),
        ("baseline", ["baseline"]),
    ],
)
def test_scan_commands_match_golden_bytes(tmp_path, capsys, name, argv, phase):
    out = _stdout(capsys, argv + _phase_args(tmp_path, phase))
    assert out == (GOLDEN / f"{name}_{phase}.txt").read_text(encoding="utf-8")


def _assert_close(want, got, where="$"):
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_close(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(want, got)):
            _assert_close(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and abs(got - want) <= 1e-12, (where, want, got)
    else:
        assert got == want, (where, want, got)


@pytest.mark.parametrize(
    "name,argv,phase",
    [
        (
            "sweep_Q0Q1_phi471.json",
            ["sweep", "--pairs", PAIRS, "--branch", "Q0Q1", "--from", "0.05", "--to", "0.95",
             "--steps", "9", "--beta-phase", "4.71", "--format", "json"],
            "phi0",
        ),
        ("swap_phi0.json", ["swap", "--alpha2", "0.3"], "phi0"),
        ("swap_phi471.json", ["swap", "--alpha2", "0.8", "--corrections", "published"], "phi471"),
    ],
)
def test_json_commands_match_golden_numbers(tmp_path, capsys, name, argv, phase):
    got = json.loads(_stdout(capsys, argv + _phase_args(tmp_path, phase)))
    _assert_close(json.loads((GOLDEN / name).read_text(encoding="utf-8")), got)


def test_sweep_csv_matches_golden_numbers(capsys):
    out = _stdout(
        capsys,
        ["sweep", "--pairs", PAIRS, "--branch", "Q1Q1", "--from", "0", "--to", "1", "--steps", "11"],
    )
    want = list(csv.reader((GOLDEN / "sweep_Q1Q1_phi0.csv").read_text(encoding="utf-8").splitlines()))
    got = list(csv.reader(out.splitlines()))
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0]
    for w, g in zip(want[1:], got[1:]):
        for column, a, b in zip(header, w, g):
            if column in ("pair", "entangled"):
                assert b == a, (w, g)
            else:
                assert abs(float(b) - float(a)) <= 1e-12, (column, w, g)
