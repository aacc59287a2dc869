"""CLI output against outputs written by the per-point pipeline.

The files under golden/ were produced when every alpha^2 point still built
its own six-qubit state through run_first_stage and run_second_stage (the
per-point pipeline tests/reference.py keeps), and every scan tested one
point at a time. The commands are run at
beta_phase 0 and 4.71 (set through a config file). Since then the branch
probabilities in the branches files are the exact 5/18 and 2/9, correctly
rounded, so the two branches files are the same bytes. The thresholds
files of the asymmetric branches Q0Q1 and Q1Q0 were written later, by the
float scan over the pair tables, before the scans moved to exact signs.

report, branches, thresholds and baseline print verdicts, bisection
midpoints and rounded figures, so they must match byte for byte. sweep and
the published swap check print unrounded floats, which may move in the
last bits when the arithmetic is regrouped: their numbers must agree
within 1e-12, and every other field (labels, pairs, words, entangled
flags) must be equal. The derived swap check prints exact numbers, the
probability 0.25 and the fidelity 1.0 of the teleportation identity, so
swap_phi0.json, rewritten when they became exact, must match byte for
byte; swap_phi471.json keeps the simulated measurement's numbers.

The scan commands and sweep read protocol's checked-in pair tables, and
branches takes its probabilities from them too; report and swap read
rho325 from its checked-in table. The last test runs them with the cloning
pipeline (the basis images, run_first_stage and clone_subsystem) made to
raise.
"""
import csv
import json
from functools import cache
from pathlib import Path

import pytest

import qbroadcast.protocol as protocol_module
from qbroadcast.cli import BRANCH_NAMES, run_command
from reference import pipeline_pair_integers

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


SWAP = ["swap", "--alpha2", "0.3"]


@pytest.mark.parametrize("phase", ["phi0", "phi471"])
def test_derived_swap_matches_golden_bytes(tmp_path, capsys, phase):
    # probabilities exactly 0.25 and derived fidelities exactly 1.0, at
    # any phase
    out = _stdout(capsys, SWAP + _phase_args(tmp_path, phase))
    assert out == (GOLDEN / "swap_phi0.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("branch", ["Q0Q1", "Q1Q0"])
def test_asymmetric_thresholds_match_golden_bytes(capsys, branch):
    # Q1Q0 at the default grid probes fl(134/201), 3.7e-17 below the root
    # 2/3 of rho14 and rho16: inside PPT_TOL's dead band, so separable
    out = _stdout(capsys, ["thresholds", "--branch", branch])
    assert out == (GOLDEN / f"thresholds_{branch}_phi0.txt").read_text(encoding="utf-8")


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


SWAP_PUBLISHED = ["swap", "--alpha2", "0.8", "--corrections", "published"]


@pytest.mark.parametrize("phase", ["phi0", "phi471"])
def test_scans_and_sweep_run_no_cloner(tmp_path, capsys, monkeypatch, phase):
    # thresholds on every branch, branches, baseline, report, both swap
    # checks and a 10-pair sweep, from cold caches with the basis images,
    # run_first_stage and clone_subsystem refused: the goldens where they
    # exist, and otherwise the bytes of integer tables built by the pipeline
    args = _phase_args(tmp_path, phase)
    scans = [["thresholds", "--branch", name] + args for name in BRANCH_NAMES] + [["branches"] + args, ["baseline"] + args]
    tables = (protocol_module._pair_integers, protocol_module._pair_table, protocol_module._pair_signs)
    with monkeypatch.context() as patch:
        for cached in tables:
            cached.cache_clear()
        patch.setattr(protocol_module, "_pair_integers", cache(pipeline_pair_integers))
        want = [_stdout(capsys, argv) for argv in scans]
    for cached in (*tables, protocol_module._rho325_blocks, protocol_module._basis_images,
                   protocol_module._first_stage_runs):
        cached.cache_clear()
    for name in ("_basis_images", "_first_stage_runs", "run_first_stage", "clone_subsystem"):
        monkeypatch.setattr(protocol_module, name, _refuse)
    got = [_stdout(capsys, argv) for argv in scans]
    assert got == want
    for name, out in (("thresholds_Q1Q1", got[3]), ("branches", got[4]), ("baseline", got[5])):
        assert out == (GOLDEN / f"{name}_{phase}.txt").read_text(encoding="utf-8"), name
    assert _stdout(capsys, ["report"] + args) == (GOLDEN / f"report_{phase}.txt").read_text(encoding="utf-8")
    assert _stdout(capsys, SWAP + args) == (GOLDEN / "swap_phi0.json").read_text(encoding="utf-8")
    published = json.loads(_stdout(capsys, SWAP_PUBLISHED + args))
    _assert_close(json.loads((GOLDEN / "swap_phi471.json").read_text(encoding="utf-8")), published)
    _assert_csv_close(_stdout(capsys, SWEEP_CSV + args))
