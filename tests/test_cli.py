import json
import time

import numpy as np
import pytest

import qbroadcast.cli as cli_module
import qbroadcast.entanglement as entanglement_module
import qbroadcast.linalg as linalg_module
import qbroadcast.protocol as protocol_module
import qbroadcast.swap as swap_module
from qbroadcast.cli import CSV_HEADER, GV_MAX_BITS, SCAN_MAX_GRID, SWEEP_MAX_ROWS, run_command
from qbroadcast.entanglement import concurrence, ppt_verdict
from qbroadcast.errors import ContractError
from qbroadcast.linalg import eig_hermitian
from qbroadcast.protocol import branch_marginal
from qbroadcast.qstate import DensityOp


def _run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- baseline


def test_baseline_json(capsys):
    code, out, err = _run(capsys, ["baseline", "--grid", "60", "--tol", "1e-3"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["lo"] == pytest.approx(0.5 - np.sqrt(39.0) / 16.0, abs=3e-3)
    assert payload["hi"] == pytest.approx(0.5 + np.sqrt(39.0) / 16.0, abs=3e-3)
    assert payload["tolerance"] == 1e-3


# ------------------------------------------------------------------- sweep


def test_sweep_csv_contract(capsys):
    code, out, err = _run(
        capsys,
        ["sweep", "--pairs", "46,16", "--from", "0.2", "--to", "0.8", "--steps", "4"],
    )
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    # sorted by (alpha2, pair) and all floats echo back in 12-digit form
    keys = [(float(r[0]), r[1]) for r in rows]
    assert keys == sorted(keys)
    assert {r[1] for r in rows} == {"16", "46"}
    for r in rows:
        for field in (r[0], *r[2:7]):
            assert field == f"{float(field):.12g}"
        assert r[7] in ("0", "1")


def test_sweep_handles_domain_edges(capsys):
    code, out, _ = _run(
        capsys,
        ["sweep", "--pairs", "16", "--from", "0.99", "--to", "1.0", "--steps", "2"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.rstrip("\n").split("\n")[1:]]
    assert [r[0] for r in rows] == ["0.99", "1"]
    for r in rows:
        assert all(np.isfinite(float(x)) for x in (*r[2:7],))


def test_sweep_json_is_reproducible(capsys):
    argv = ["sweep", "--pairs", "12", "--from", "0.3", "--to", "0.6", "--steps", "3",
            "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert len(payload) == 3
    assert set(payload[0]) == {"alpha2", "pair", "min_pt_eigenvalue", "w3", "w4",
                               "concurrence", "eof", "entangled"}


def test_sweep_writes_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = _run(
        capsys,
        ["sweep", "--pairs", "16", "--from", "0.5", "--to", "0.5", "--steps", "1",
         "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith(CSV_HEADER + "\n")
    assert len(text.rstrip("\n").split("\n")) == 2


def test_sweep_rows_near_the_edges_are_computed_at_their_labels(capsys):
    # only exactly 0 and 1 are moved; 1e-320 is evaluated as it is
    code, out, _ = _run(capsys, ["sweep", "--pairs", "16,46", "--from", "1e-320", "--to", "1e-9",
                                 "--steps", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    labels = sorted({row["alpha2"] for row in rows})
    assert 0.0 < labels[0] < 1e-9
    for pair in ("16", "46"):
        marg = branch_marginal(labels, ("Q0", "Q0"), pair)
        verdict, conc = ppt_verdict(marg), concurrence(marg)
        got = [row for row in rows if row["pair"] == pair]
        assert [row["alpha2"] for row in got] == labels
        assert [row["min_pt_eigenvalue"] for row in got] == list(verdict.min_pt_eigenvalue)
        assert [row["w4"] for row in got] == list(verdict.w4)
        assert [row["concurrence"] for row in got] == list(conc)
    # the row at 1e-320 is not the row at 1e-9
    assert rows[0]["w3"] != rows[2]["w3"]


@pytest.mark.parametrize("lo,hi,steps", [("0.2", "1", "4"), ("0.1", "0", "4")])
def test_sweep_grid_rounding_stays_in_the_unit_interval(capsys, lo, hi, steps):
    # lo + 3*(hi - lo)/3 rounds to 1.0000000000000002 and -1.4e-17 here
    code, out, _ = _run(capsys, ["sweep", "--pairs", "16", "--from", lo, "--to", hi,
                                 "--steps", steps, "--format", "json"])
    assert code == 0
    assert {row["alpha2"] for row in json.loads(out)} >= {float(hi)}


def test_sweep_out_errors_are_usage_errors(tmp_path, capsys):
    argv = ["sweep", "--pairs", "16", "--from", "0.5", "--to", "0.5", "--steps", "1", "--out"]
    for target in (tmp_path / "missing" / "rows.csv", tmp_path):
        code, out, err = _run(capsys, argv + [str(target)])
        assert code == 2
        assert out == ""
        assert "cannot write" in err


def test_sweep_solves_one_pair_stack(capsys, monkeypatch):
    # one stack of the distinct pairs, one PPT eigen-solve and one
    # concurrence eigen-solve per sweep, whatever the number of pairs,
    # counted wherever the solver is called
    argv = ["sweep", "--pairs", "12,15,34,36,25,46,23,35,14,16", "--from", "0.1", "--to", "0.9",
            "--steps", "20"]
    assert _run(capsys, argv)[0] == 0
    calls = {"stacks": [], "eig": 0}

    def stack(register, matrix):
        calls["stacks"].append(matrix.shape)
        return DensityOp(register, matrix)

    def eig(a, *args):
        calls["eig"] += 1
        return eig_hermitian(a, *args)

    monkeypatch.setattr(protocol_module, "DensityOp", stack)
    monkeypatch.setattr(entanglement_module, "eig_hermitian", eig)
    monkeypatch.setattr(linalg_module, "eig_hermitian", eig)
    assert _run(capsys, argv)[0] == 0
    assert calls == {"stacks": [(5 * 20, 4, 4)], "eig": 2}


@pytest.mark.parametrize(
    "pair,branch,alpha2,phase",
    [("16", "Q1Q1", "0.16", "3.68"), ("14", "Q1Q0", "0.44", "3.77"), ("35", "Q0Q1", "0.69", "3.8"),
     ("23", "Q0Q0", "0.38", "0.48")],
)
def test_one_step_sweep_prints_the_witnesses_of_a_longer_one(capsys, pair, branch, alpha2, phase):
    # a one-point sweep solves a stack of one determinant, a two-point
    # sweep a stack of two; the shared row must carry the same bits
    argv = ["sweep", "--pairs", pair, "--branch", branch, "--beta-phase", phase, "--format", "json",
            "--from", alpha2]
    one = json.loads(_run(capsys, argv + ["--to", alpha2, "--steps", "1"])[1])
    two = json.loads(_run(capsys, argv + ["--to", "1", "--steps", "2"])[1])
    assert one == two[:1]


def test_sweep_rejects_bad_pairs_and_steps(capsys):
    code, _, err = _run(capsys, ["sweep", "--pairs", "99", "--from", "0.2", "--to", "0.8",
                                 "--steps", "3"])
    assert code == 2
    assert "unknown pair" in err
    code, _, err = _run(capsys, ["sweep", "--pairs", "16", "--from", "0.2", "--to", "0.8",
                                 "--steps", "0"])
    assert code == 2


@pytest.mark.parametrize(
    "lo,hi", [("nan", "0.5"), ("0.2", "inf"), ("-1", "0.5"), ("0.2", "2"), ("1e400", "1")]
)
def test_sweep_rejects_endpoints_outside_the_unit_interval(capsys, lo, hi):
    code, out, err = _run(capsys, ["sweep", "--pairs", "16", "--from", lo, "--to", hi, "--steps", "2"])
    assert code == 2
    assert out == ""
    assert "must be in [0, 1]" in err


# -------------------------------------------------------------- thresholds


def test_thresholds_locates_known_boundaries(capsys):
    code, out, _ = _run(capsys, ["thresholds", "--grid", "60", "--tol", "1e-3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "Q0Q0"
    assert payload["grid"] == 60

    def lo(key):
        ivs = payload[key]["intervals"]
        assert len(ivs) == 1
        return ivs[0]["lo"]

    assert lo("rho16") == pytest.approx(9.0 / 49.0, abs=3e-3)
    assert lo("rho14") == pytest.approx(9.0 / 49.0, abs=3e-3)
    assert lo("rho46") == pytest.approx((9.0 + 8.0 * np.sqrt(3.0)) / 37.0, abs=3e-3)
    assert payload["rho12"]["predicate"] == "separable"
    assert lo("rho12") == pytest.approx(3.0 / 11.0, abs=3e-3)
    assert lo("broadcast") == pytest.approx((9.0 + 8.0 * np.sqrt(3.0)) / 37.0, abs=3e-3)
    assert payload["broadcast"]["intervals"][0]["hi"] == 1.0


# ------------------------------------------------------------------ config


def test_config_file_sets_scan_settings(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# coarse run\ngrid = 60\ntol = 1e-3\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["thresholds", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out)
    assert payload["grid"] == 60
    assert payload["tol"] == 1e-3


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("grid = 60\ntol = 1e-3\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["thresholds", "--config", str(cfg), "--grid", "76"])
    assert code == 0
    assert json.loads(out)["grid"] == 76


def test_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scale = 3\n", encoding="utf-8")
    code, _, err = _run(capsys, ["baseline", "--config", str(cfg)])
    assert code == 2
    assert "unknown key" in err
    cfg.write_text("grid = many\n", encoding="utf-8")
    code, _, err = _run(capsys, ["baseline", "--config", str(cfg)])
    assert code == 2
    cfg.write_text("grid\n", encoding="utf-8")
    assert _run(capsys, ["baseline", "--config", str(cfg)])[0] == 2


def test_config_missing_file_and_coarse_grid(tmp_path, capsys):
    code, _, err = _run(capsys, ["baseline", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("grid = 10\n", encoding="utf-8")
    code, _, err = _run(capsys, ["baseline", "--config", str(cfg)])
    assert code == 2
    assert "grid" in err


class _Reached(Exception):
    """Raised by a stand-in for the computation a size bound guards."""


def _guard(monkeypatch, *names):
    def reached(*args, **kwargs):
        raise _Reached()

    for name in names:
        monkeypatch.setattr(cli_module, name, reached)


def _refused(capsys, argv, bound):
    t0 = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, ""), argv
    assert f"{bound}" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("command", ["baseline", "thresholds", "branches", "report"])
def test_grid_above_the_bound_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # the scans are replaced, so a bound checked too late fails here at once
    _guard(monkeypatch, "branch_scan", "buzek_baseline")
    cfg = tmp_path / "grid.cfg"
    for grid in (SCAN_MAX_GRID + 1, 10**13):
        _refused(capsys, [command, "--grid", str(grid)], f"grid must be at most {SCAN_MAX_GRID}, got {grid}")
        cfg.write_text(f"grid={grid}\n", encoding="utf-8")
        _refused(capsys, [command, "--config", str(cfg)], f"grid must be at most {SCAN_MAX_GRID}, got {grid}")
    with pytest.raises(_Reached):
        run_command([command, "--grid", str(SCAN_MAX_GRID)])


def test_sweep_rows_above_the_bound_are_a_usage_error(capsys, monkeypatch):
    _guard(monkeypatch, "pair_marginals")
    ten = "12,15,34,36,25,46,23,35,14,16"
    for pairs, steps in (("16", 10**13), ("16", SWEEP_MAX_ROWS + 1), (ten, SWEEP_MAX_ROWS // 10 + 1)):
        argv = ["sweep", "--pairs", pairs, "--from", "0", "--to", "1", "--steps", str(steps)]
        _refused(capsys, argv, f"above {SWEEP_MAX_ROWS}")
    with pytest.raises(_Reached):
        run_command(["sweep", "--pairs", ten, "--from", "0", "--to", "1", "--steps", str(SWEEP_MAX_ROWS // 10)])


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


def test_tol_below_float_spacing_ends_with_valid_intervals(capsys):
    code, out, _ = _run(capsys, ["thresholds", "--grid", "50", "--tol", "1e-300"])
    assert code == 0
    payload = _strict_json(out)
    assert payload["tol"] == 1e-300
    for key in ("rho14", "rho16", "rho46", "rho12", "broadcast"):
        ivs = payload[key]["intervals"]
        assert len(ivs) == 1
        assert 0.0 < ivs[0]["lo"] < ivs[0]["hi"] == 1.0
    t46 = (9.0 + 8.0 * np.sqrt(3.0)) / 37.0
    assert payload["rho46"]["intervals"][0]["lo"] == pytest.approx(t46, abs=1e-8)
    assert payload["broadcast"]["intervals"][0]["lo"] == pytest.approx(t46, abs=1e-8)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_settings_are_usage_errors(tmp_path, capsys, value):
    code, out, err = _run(capsys, ["thresholds", "--grid", "50", f"--tol={value}"])
    assert (code, out) == (2, "")
    assert "tol" in err
    cfg = tmp_path / "scan.cfg"
    for key in ("tol", "beta_phase"):
        cfg.write_text(f"grid = 50\n{key} = {value}\n", encoding="utf-8")
        code, out, err = _run(capsys, ["baseline", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert key in err
    code, out, _ = _run(capsys, ["sweep", "--pairs", "16", "--from", "0.2", "--to", "0.4",
                                 "--steps", "2", f"--beta-phase={value}"])
    assert (code, out) == (2, "")


def test_non_finite_results_never_reach_json(capsys, monkeypatch):
    def nan_concurrence(rho):
        return np.full(len(rho.matrix), np.nan)

    monkeypatch.setattr("qbroadcast.cli.concurrence", nan_concurrence)
    code, out, err = _run(capsys, ["sweep", "--pairs", "16", "--from", "0.2", "--to", "0.4",
                                   "--steps", "2", "--format", "json"])
    assert (code, out) == (1, "")
    assert "not finite" in err


# -------------------------------------------------------------- exit codes


def test_unknown_subcommand_and_missing_args_exit_2(capsys):
    assert _run(capsys, ["frobnicate"])[0] == 2
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["sweep", "--pairs", "16"])[0] == 2  # missing range


def test_help_exits_0(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    assert "baseline" in out


def test_contract_violation_exits_1(capsys, monkeypatch):
    def boom(grid, tol):
        raise ContractError("synthetic failure")

    monkeypatch.setattr("qbroadcast.cli.buzek_baseline", boom)
    code, _, err = _run(capsys, ["baseline"])
    assert code == 1
    assert "synthetic failure" in err


# -------------------------------------------------------------------- swap


def test_swap_derived_output(capsys):
    code, out, _ = _run(capsys, ["swap", "--alpha2", "0.8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["corrections"] == "derived"
    assert [o["label"] for o in payload["outcomes"]] == ["B1+", "B1-", "B2+", "B2-"]
    for o in payload["outcomes"]:
        assert o["probability"] == pytest.approx(0.25, abs=1e-9)
        assert o["fidelity"] >= 1.0 - 1e-9
    words = {o["label"]: o["word"] for o in payload["outcomes"]}
    assert words == {"B1+": "iiy", "B1-": "iix", "B2+": "iiz", "B2-": "iii"}


def test_swap_published_output(capsys):
    code, out, _ = _run(capsys, ["swap", "--alpha2", "0.8", "--corrections", "paper"])
    assert code == 0
    payload = json.loads(out)
    assert payload["corrections"] == "published"
    by_label = {o["label"]: o for o in payload["outcomes"]}
    assert "word" not in by_label["B1+"]
    assert by_label["B1+"]["fidelity"] == pytest.approx(0.943670, abs=1e-5)
    for label in ("B1-", "B2+", "B2-"):
        assert by_label[label]["fidelity"] >= 1.0 - 1e-9


def test_swap_rejects_bad_alpha2(capsys):
    assert _run(capsys, ["swap", "--alpha2", "1.5"])[0] == 2


@pytest.mark.parametrize("alpha2", ["0.999", "0.99999999", "0.9958020988654668"])
def test_swap_recovers_near_the_edge(capsys, alpha2):
    # the target has an eigenvalue near 1e-7 here; its square root must
    # count in the fidelity, which once read 1 - 2e-7 and tripped the contract
    code, out, err = _run(capsys, ["swap", "--alpha2", alpha2])
    assert code == 0, err
    for o in json.loads(out)["outcomes"]:
        assert abs(o["fidelity"] - 1.0) <= 1e-12


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args):
        # a fidelity call is recorded with the shape of its stack
        calls.append((name, args[1].shape if name == "fidelity" else None))
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "argv,points,members",
    [(["swap", "--alpha2", "0.3"], 1, 4), (["swap", "--alpha2", "0.3", "--corrections", "published"], 1, 4),
     (["report", "--grid", "50", "--tol", "1e-2"], 3, 8)],
)
def test_each_swap_point_measures_once_and_scores_once(capsys, monkeypatch, argv, points, members):
    # per point one Bell measurement, shared by the derived search, the
    # published check and the printed probabilities, and one fidelity call
    # over every corrected state the point reports
    calls = []
    for module in (cli_module, swap_module):
        _count_calls(monkeypatch, module, "bsm", calls)
    _count_calls(monkeypatch, swap_module, "fidelity", calls)
    assert _run(capsys, argv)[0] == 0
    assert calls == [("bsm", None), ("fidelity", (members, 8, 8))] * points


# ---------------------------------------------------------------------- gv


def test_gv_statistics_and_determinism(capsys):
    argv = ["gv", "--bits", "2000", "--eve", "intercept", "--seed", "0"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    _, second, _ = _run(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert payload["strategy"] == "intercept_resend"
    assert payload["bits_sent"] == 2000
    assert payload["eve_detected"] is True
    rate = payload["detection_events"] / payload["bits_sent"]
    assert abs(rate - payload["analytic_detection_rate"]) < 3.0 * np.sqrt(0.625 * 0.375 / 2000)


def test_gv_quiet_channel(capsys):
    code, out, _ = _run(capsys, ["gv", "--bits", "100"])
    assert code == 0
    payload = json.loads(out)
    assert payload["strategy"] == "none"
    assert payload["bit_errors"] == 0
    assert payload["eve_detected"] is False


def test_gv_rejects_bad_counts(capsys):
    assert _run(capsys, ["gv", "--bits", "0"])[0] == 2
    # gv has no --delay flag; argparse rejects it as a usage error
    assert _run(capsys, ["gv", "--bits", "10", "--delay", "0"])[0] == 2
    assert _run(capsys, ["gv", "--bits", "10", "--trials", "0"])[0] == 2


def test_gv_bounds_bits_times_trials_before_sending(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("transmit_bits called above the bound")

    monkeypatch.setattr(cli_module, "transmit_bits", refuse)
    for bits, trials in ((GV_MAX_BITS + 1, 1), (GV_MAX_BITS, 2), (1, GV_MAX_BITS + 1), (10**30, 10**30)):
        code, out, err = _run(capsys, ["gv", "--bits", str(bits), "--trials", str(trials)])
        assert (code, out) == (2, "")
        assert f"above {GV_MAX_BITS}" in err


def test_gv_sends_at_the_bound(capsys):
    code, out, _ = _run(capsys, ["gv", "--bits", str(GV_MAX_BITS // 4), "--trials", "4"])
    assert code == 0
    assert json.loads(out)["bits_sent"] == GV_MAX_BITS


@pytest.mark.parametrize("eve", ["none", "intercept"])
def test_gv_rejects_a_negative_seed(capsys, eve):
    code, out, err = _run(capsys, ["gv", "--bits", "4", "--seed", "-1", "--eve", eve])
    assert (code, out) == (2, "")
    assert "seed must be >= 0" in err


def test_config_rejects_a_negative_seed(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=-5\n", encoding="utf-8")
    for argv in (["report", "--grid", "50"], ["gv", "--bits", "4", "--eve", "intercept"]):
        code, out, err = _run(capsys, argv + ["--config", str(cfg)])
        assert (code, out) == (2, "")
        assert "seed must be >= 0, got -5" in err


# ------------------------------------------------------------------ report


def test_report_runs_and_shows_comparisons(capsys):
    code, out, _ = _run(capsys, ["report", "--grid", "60", "--tol", "1e-3"])
    assert code == 0
    assert "baseline inseparability interval" in out
    assert "rho16 entangled above" in out
    assert "rho46 entangled above" in out
    assert "broadcast interval, branch Q0Q0" in out
    assert "concurrence(rho16) over computed interval" in out
    assert "eof(rho46) over computed interval" in out
    assert "derived-correction fidelities" in out
    assert "published-correction fidelities" in out
    assert "channel per-bit detection rate" in out
    # every line carries both the computed and the published column
    for line in out.splitlines():
        if line.startswith(("baseline", "rho", "broadcast")):
            assert "computed" in line and "published" in line
