"""CLI output against outputs written by the per-point pipeline.

The files under golden/ were produced when every alpha^2 point still built
its own six-qubit state through run_first_stage and run_second_stage (the
per-point pipeline tests/reference.py keeps), and every scan tested one
point at a time. The commands are run at
beta_phase 0 and 4.71 (set through a config file). Since then the branch
probabilities in the branches files are the exact 5/18 and 2/9, correctly
rounded, so the two branches files are the same bytes.

report, branches, thresholds and baseline print verdicts, bisection
midpoints and rounded figures, so they must match byte for byte. sweep and
swap print unrounded floats, which may move in the last bits when the
arithmetic is regrouped: their numbers must agree within 1e-12, and every
other field (labels, pairs, words, entangled flags) must be equal.

The scan commands and sweep read protocol's checked-in pair tables, and
branches takes its probabilities from them too; the last test runs them
with the cloning pipeline (the basis images, run_first_stage and
clone_subsystem) made to raise.
"""
import csv
import json
from functools import cache
from pathlib import Path

import pytest

import qbroadcast.protocol as protocol_module
from qbroadcast.cli import BRANCH_NAMES, run_command
from reference import pipeline_pair_table

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


SWEEP_CSV = ["sweep", "--pairs", PAIRS, "--branch", "Q1Q1", "--from", "0", "--to", "1", "--steps", "11"]


def test_sweep_csv_matches_golden_numbers(capsys):
    _assert_csv_close(_stdout(capsys, SWEEP_CSV))


def _assert_csv_close(out):
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


def _refuse(*args):
    raise AssertionError("the cloning pipeline ran")


@pytest.mark.parametrize("phase", ["phi0", "phi471"])
def test_scans_and_sweep_run_no_cloner(tmp_path, capsys, monkeypatch, phase):
    # thresholds on every branch, branches, baseline and a 10-pair sweep,
    # from cold caches with the basis images, run_first_stage and
    # clone_subsystem refused: the goldens where they exist, and otherwise
    # the bytes of tables built by the float pipeline
    args = _phase_args(tmp_path, phase)
    scans = [["thresholds", "--branch", name] + args for name in BRANCH_NAMES] + [["branches"] + args, ["baseline"] + args]
    with monkeypatch.context() as patch:
        patch.setattr(protocol_module, "_pair_table", cache(pipeline_pair_table))
        want = [_stdout(capsys, argv) for argv in scans]
    for cached in (protocol_module._pair_table, protocol_module._basis_images, protocol_module._first_stage_runs):
        cached.cache_clear()
    for name in ("_basis_images", "_first_stage_runs", "run_first_stage", "clone_subsystem"):
        monkeypatch.setattr(protocol_module, name, _refuse)
    got = [_stdout(capsys, argv) for argv in scans]
    assert got == want
    for name, out in (("thresholds_Q1Q1", got[3]), ("branches", got[4]), ("baseline", got[5])):
        assert out == (GOLDEN / f"{name}_{phase}.txt").read_text(encoding="utf-8"), name
    _assert_csv_close(_stdout(capsys, SWEEP_CSV + args))
