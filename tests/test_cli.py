import argparse
import errno
import json
import time

import numpy as np
import pytest

import qbroadcast.cli as cli_module
import qbroadcast.entanglement as entanglement_module
import qbroadcast.linalg as linalg_module
import qbroadcast.plans as plans_module
import qbroadcast.protocol as protocol_module
import qbroadcast.scan as scan_module
import qbroadcast.swap as swap_module
from qbroadcast.cli import BRANCH_NAMES, CSV_HEADER, GV_MAX_BITS, SCAN_MAX_GRID, SWEEP_MAX_ROWS, run_command
from qbroadcast.entanglement import ThresholdInterval
from qbroadcast.errors import ContractError
from qbroadcast.protocol import PAIR_KEYS, pair_verdicts
from qbroadcast.tables import table_verdicts
from reference import sweep_text


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
    verdict, conc = pair_verdicts(labels, ("Q0", "Q0"), ["16", "46"])
    for k, pair in enumerate(("16", "46")):
        got = [row for row in rows if row["pair"] == pair]
        assert [row["alpha2"] for row in got] == labels
        assert [row["min_pt_eigenvalue"] for row in got] == list(verdict.min_pt_eigenvalue[k])
        assert [row["w4"] for row in got] == list(verdict.w4[k])
        assert [row["concurrence"] for row in got] == list(conc[k])
    # the row at 1e-320 is not the row at 1e-9
    assert rows[0]["w3"] != rows[2]["w3"]


@pytest.mark.parametrize("lo,hi,steps", [("0.5", "0.5", "3"), ("0.9", "0.1", "5"), ("-0.0", "1", "1")])
def test_sweep_rows_are_ordered_by_alpha2_then_pair(capsys, lo, hi, steps):
    # a repeated point and a repeated pair each keep all their rows, sorted
    # under (alpha2, pair)
    code, out, _ = _run(capsys, ["sweep", "--pairs", "46,12,46", "--from", lo, "--to", hi, "--steps", steps,
                                 "--format", "json"])
    assert code == 0
    keys = [(row["alpha2"], row["pair"]) for row in json.loads(out)]
    assert keys == sorted(keys)
    assert [pair for _, pair in keys].count("46") == 2 * [pair for _, pair in keys].count("12") == 2 * int(steps)


_CHUNK = cli_module.SWEEP_CHUNK_ROWS


@pytest.mark.parametrize(
    "pairs,lo,hi,rows",
    [("12,16,12", "0.2", "0.9", _CHUNK - 1), ("16,16", "0.9", "0.1", _CHUNK), ("46", "0.4", "0.4", _CHUNK + 1),
     ("14,23,14", "0", "1", 2 * _CHUNK + 1)],
)
def test_sweep_chunks_join_to_the_one_string_output(capsys, monkeypatch, tmp_path, pairs, lo, hi, rows):
    # rows are formatted and written in chunks; the pieces must join to the
    # text of one string, repeated pairs and points included
    steps, left = divmod(rows, len(pairs.split(",")))
    assert left == 0
    for fmt in ("csv", "json"):
        argv = ["sweep", "--pairs", pairs, "--from", lo, "--to", hi, "--steps", str(steps), "--format", fmt]
        code, chunked, _ = _run(capsys, argv)
        assert code == 0
        assert _run(capsys, argv + ["--out", str(tmp_path / "rows")]) == (0, "", "")
        assert (tmp_path / "rows").read_text(encoding="utf-8") == chunked
        monkeypatch.setattr(cli_module, "SWEEP_CHUNK_ROWS", 10**6)
        assert _run(capsys, argv)[1] == chunked
        monkeypatch.undo()
        if fmt == "json":
            assert chunked == json.dumps(json.loads(chunked), indent=2) + "\n"
            assert len(json.loads(chunked)) == rows
        else:
            assert chunked.count("\n") == rows + 1


@pytest.mark.parametrize("rows,pieces", [(1, 1), (_CHUNK - 1, 1), (_CHUNK, 1), (_CHUNK + 1, 2), (2 * _CHUNK + 1, 3)])
def test_sweep_output_of_one_chunk_is_one_piece(rows, pieces):
    got = list(cli_module._text_pieces(map(str, range(rows)), "[", ",", "]"))
    assert len(got) == pieces
    assert "".join(got) == "[" + ",".join(map(str, range(rows))) + "]"


def _grid(lo, hi, steps):
    """The alpha^2 points of `sweep --from lo --to hi --steps steps`."""
    if steps == 1:
        return [lo]
    return [min(max(lo + i * (hi - lo) / (steps - 1), 0.0), 1.0) for i in range(steps)]


@pytest.mark.parametrize("branch", BRANCH_NAMES)
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "pairs,lo,hi,steps", [(",".join(PAIR_KEYS), 0.0, 1.0, 21), ("12,15,23", 0.9, 0.1, 7), ("15,12,23,12", 0.3, 0.3, 3)]
)
def test_every_sweep_row_carries_its_own_pairs_numbers(capsys, branch, fmt, pairs, lo, hi, steps):
    # pairs whose numbers are the same bits share one formatted text; the
    # output must equal the table formatted one row at a time
    argv = ["sweep", "--pairs", pairs, "--branch", branch, "--from", repr(lo), "--to", repr(hi),
            "--steps", str(steps), "--format", fmt]
    want = sweep_text(_grid(lo, hi, steps), (branch[:2], branch[2:]), pairs.split(","), fmt)
    assert _run(capsys, argv) == (0, want, "")


def _parse_rows(text, fmt):
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_pairs_that_differ_in_one_field_at_one_point_print_their_own(capsys, monkeypatch, fmt):
    # 12 and 15 are interchangeable clones, the same bits in every column;
    # here 15 differs from 12 only in w4 at the last point
    def verdicts(alpha2, branch, keys):
        verdict, conc = table_verdicts(alpha2, branch, keys)
        w4 = [list(row) for row in verdict.w4]
        w4[keys.index("15")][-1] += 0.25
        return verdict._replace(w4=w4), conc

    monkeypatch.setattr(cli_module, "table_verdicts", verdicts)
    argv = ["sweep", "--pairs", "12,15,23", "--from", "0.2", "--to", "0.8", "--steps", "5", "--format", fmt]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == sweep_text(_grid(0.2, 0.8, 5), ("Q0", "Q0"), ["12", "15", "23"], fmt, verdicts)
    rows = _parse_rows(out, fmt)
    for j in range(5):
        r12, r15 = rows[3 * j], rows[3 * j + 1]
        differ = {name for name in r12 if r12[name] != r15[name]}
        assert differ == ({"pair", "w4"} if j == 4 else {"pair"})


@pytest.mark.parametrize("lo,hi,steps", [("0.2", "1", "4"), ("0.1", "0", "4")])
def test_sweep_grid_rounding_stays_in_the_unit_interval(capsys, lo, hi, steps):
    # lo + 3*(hi - lo)/3 rounds to 1.0000000000000002 and -1.4e-17 here
    code, out, _ = _run(capsys, ["sweep", "--pairs", "16", "--from", lo, "--to", hi,
                                 "--steps", steps, "--format", "json"])
    assert code == 0
    assert {row["alpha2"] for row in json.loads(out)} >= {float(hi)}


class _FullDisk:
    """An output file whose buffered rows fail to reach the disk at close."""

    def __enter__(self):
        return self

    def writelines(self, pieces):
        list(pieces)

    def __exit__(self, *exc):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_sweep_out_errors_are_usage_errors(tmp_path, capsys, monkeypatch):
    argv = ["sweep", "--pairs", "16", "--from", "0.5", "--to", "0.5", "--steps", "1", "--out"]
    for target in (tmp_path / "missing" / "rows.csv", tmp_path, None):
        if target is None:
            # a writable path on a disk that fills up before the file closes
            monkeypatch.setattr(cli_module, "open", lambda *args, **kwargs: _FullDisk(), raising=False)
            target = tmp_path / "rows.csv"
        code, out, err = _run(capsys, argv + [str(target)])
        assert code == 2
        assert out == ""
        assert "cannot write" in err


def _no_solve(*args, **kwargs):
    raise AssertionError("an eigen-solve or a singular-value solve was made")


def _forbid_pair_solves(monkeypatch):
    """Make the Jacobi routes of ppt_verdict and concurrence raise."""
    monkeypatch.setattr(entanglement_module, "eig_hermitian", _no_solve)
    monkeypatch.setattr(entanglement_module, "_singular_values", _no_solve)


def test_sweep_solves_one_pair_stack(capsys, monkeypatch):
    # one table_verdicts call per sweep, on each distinct pair and alpha^2
    # once, from the table's closed forms: no eigen-solve or singular-value
    # solve anywhere
    argv = ["sweep", "--pairs", "12,15,34,36,25,46,23,35,14,16,46", "--from", "0.1", "--to", "0.9",
            "--steps", "20"]
    want = _run(capsys, argv)
    calls = []

    def pairs(alpha2, branch, keys):
        calls.append((len(alpha2), branch, list(keys)))
        return table_verdicts(alpha2, branch, keys)

    monkeypatch.setattr(cli_module, "table_verdicts", pairs)
    _forbid_pair_solves(monkeypatch)
    monkeypatch.setattr(linalg_module, "eig_hermitian", _no_solve)
    monkeypatch.setattr(linalg_module, "_singular_values", _no_solve)
    assert _run(capsys, argv) == want
    assert want[0] == 0 and len(want[1].splitlines()) == 1 + 11 * 20
    assert calls == [(20, ("Q0", "Q0"), sorted(PAIR_KEYS))]


@pytest.mark.parametrize("argv", [["thresholds", "--branch", "Q0Q1"], ["branches"], ["baseline"], ["report"]])
def test_scans_and_concurrence_lines_make_no_pair_solve(capsys, monkeypatch, argv):
    # the scans, the baseline and the report's concurrence lines read the
    # pair table and never reach the Jacobi routes of ppt_verdict and
    # concurrence; the report's swap fidelities are closed forms too
    # (plans._block_fidelity), so no command makes any solve
    want = _run(capsys, argv + ["--grid", "60"])
    _forbid_pair_solves(monkeypatch)
    solves = []
    for name in ("eig_hermitian", "_singular_values"):
        def solve(a, _fn=getattr(linalg_module, name), _name=name):
            solves.append((_name, a.shape))
            return _fn(a)

        monkeypatch.setattr(linalg_module, name, solve)
    assert _run(capsys, argv + ["--grid", "60"]) == want
    assert want[0] == 0
    assert solves == []
    assert ("concurrence(rho46)" in want[1]) == (argv == ["report"])


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
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"\xff\xfegrid=60\n")
    code, _, err = _run(capsys, ["baseline", "--config", str(latin)])
    assert code == 2
    assert "cannot read config" in err
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("grid = 10\n", encoding="utf-8")
    code, _, err = _run(capsys, ["baseline", "--config", str(cfg)])
    assert code == 2
    assert "grid" in err


def test_config_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # the mark some editors write at the head of a UTF-8 file is not part of
    # the first key
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfgrid=60\n")
    want = _run(capsys, ["baseline", "--grid", "60"])
    assert want[0] == 0
    assert _run(capsys, ["baseline", "--config", str(cfg)]) == want


@pytest.mark.parametrize(
    "data", [b"\xef\xbb\xbf\xff\xfegrid=60\n", b"a=\xff\n", b"\xff\xfegrid=60\n", b"grid=60\n\xc3", b"\xef\xbb"]
)
def test_config_decode_errors_are_the_utf8_sig_codecs(tmp_path, capsys, data):
    # the file's bytes decode as UTF-8 after one leading byte-order mark,
    # with the message the utf-8-sig codec gives, byte for byte; a file of
    # a truncated mark alone is not UTF-8 either
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8-sig")
    want = f"error: cannot read config {cfg}: {exc.value}\n"
    assert _run(capsys, ["baseline", "--config", str(cfg)]) == (2, "", want)


def test_config_drops_only_one_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfgrid=60\r\n")
    code, out, err = _run(capsys, ["baseline", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:1: unknown key '\\ufeffgrid'\n"


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
    _guard(monkeypatch, "table_verdicts")
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


def test_non_finite_results_never_reach_json(tmp_path, capsys, monkeypatch):
    # the sweep checks its row reals once, before either format is written
    def nan_concurrence(*args):
        v, c = table_verdicts(*args)
        return v, [[np.nan] * len(row) for row in c]

    def inf_w4(*args):
        v, c = table_verdicts(*args)
        return v._replace(w4=[[np.inf if j == 1 else w for j, w in enumerate(row)] for row in v.w4]), c

    out_path = tmp_path / "rows.txt"
    for name, patch in (("concurrence", nan_concurrence), ("w4", inf_w4)):
        with monkeypatch.context() as m:
            m.setattr("qbroadcast.cli.table_verdicts", patch)
            for fmt in ("json", "csv"):
                argv = ["sweep", "--pairs", "16", "--from", "0.2", "--to", "0.4", "--steps", "2",
                        "--format", fmt]
                code, out, err = _run(capsys, argv)
                assert (code, out) == (1, ""), (name, fmt)
                assert "not finite" in err
                assert _run(capsys, argv + ["--out", str(out_path)])[:2] == (1, "")
                assert not out_path.exists()


# -------------------------------------------------------------- exit codes


def test_unknown_subcommand_and_missing_args_exit_2(capsys):
    assert _run(capsys, ["frobnicate"])[0] == 2
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["sweep", "--pairs", "16"])[0] == 2  # missing range


def test_help_exits_0(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    assert "baseline" in out


def test_parser_is_built_once_and_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli_module._build_parser.cache_clear()
    sweep = ["sweep", "--pairs", "16,46", "--from", "0.2", "--to", "0.8", "--steps", "3"]
    first = _run(capsys, sweep)
    assert first[0] == 0
    # exact --flag value pairs are read from the option table, with no parser
    assert len(builds) == 0
    top_help = _run(capsys, ["--help"])
    # argv that names no subcommand: the top parser and all seven
    assert len(builds) == 8
    sweep_help = _run(capsys, ["sweep", "--help"])
    # the top parser and the one subcommand argv names
    assert len(builds) == 8 + 2
    assert top_help[0] == sweep_help[0] == 0
    assert top_help[1].startswith("usage: qbroadcast ") and "--format" in sweep_help[1]

    cfg = tmp_path / "phase.cfg"
    cfg.write_text("beta_phase = 1.25\ngrid = 60\ntol = 1e-3\n", encoding="utf-8")
    assert _run(capsys, sweep + ["--config", str(cfg), "--beta-phase", "2.5", "--format", "json"])[0] == 0
    assert _run(capsys, ["thresholds", "--config", str(cfg)])[0] == 0
    assert _run(capsys, ["sweep", "--pairs", "16"])[0] == 2
    assert _run(capsys, ["sweep", "--bogus"])[0] == 2
    assert _run(capsys, ["--help"]) == top_help
    assert _run(capsys, sweep) == first
    # argv may be any iterable
    assert _run(capsys, iter(sweep)) == first
    assert _run(capsys, ["sweep", "--help"]) == sweep_help
    # the settings of the config-file call are gone from the next call
    code, out, _ = _run(capsys, ["thresholds", "--grid", "50"])
    assert code == 0
    assert (json.loads(out)["beta_phase"], json.loads(out)["tol"]) == (0.0, 1e-4)
    args = cli_module._build_parser("sweep").parse_args(sweep)
    assert (args.config, args.beta_phase, args.format, args.out) == (None, None, "csv", None)
    # valid thresholds calls built nothing; an abbreviation builds its parser once
    assert len(builds) == 8 + 2
    assert _run(capsys, ["thresholds", "--gr", "50"]) == (code, out, "")
    assert len(builds) == 8 + 2 + 2
    assert _run(capsys, ["thresholds", "--grid=50"]) == (code, out, "")
    assert len(builds) == 8 + 2 + 2
    # the help a fresh parser prints
    assert cli_module._build_parser.__wrapped__(None).format_help() == top_help[1]


def test_negative_values_with_an_exponent_are_values_on_every_python(capsys):
    # "--flag -1e2" parses as "--flag=-1e2": argparse's own rule took an
    # exponent for an option on Python 3.10 to 3.13 ("expected one argument")
    for argv, flag, value, code, err in (
        (["sweep", "--pairs", "12", "--from", "0.1", "--to", "0.2", "--steps", "2"], "--beta-phase", "-1e2", 0, ""),
        (["baseline"], "--tol", "-1e-3", 2, "error: tol must be positive, got -0.001\n"),
        (["sweep", "--pairs", "12", "--to", "1", "--steps", "3"], "--from", "-1e-9", 2,
         "error: sweep: --from must be in [0, 1], got -1e-09\n"),
    ):
        spaced = _run(capsys, argv + [flag, value])
        assert spaced == _run(capsys, argv + [f"{flag}={value}"])
        assert (spaced[0], spaced[2]) == (code, err)
    # a value that is no decimal number still reads as an option
    for value in ("-1x", "-abc", "-1e"):
        code, out, err = _run(capsys, ["baseline", "--tol", value])
        assert (code, out) == (2, "") and err.endswith("error: argument --tol: expected one argument\n")


_SWEEP = ["sweep", "--pairs", "16", "--from", "0.2", "--to", "0.8", "--steps", "3"]


@pytest.mark.parametrize("argv", [
    ["thresholds", "--gr", "60"],
    ["thresholds", "--grid=60"],
    ["thresholds", "--grid"],
    ["thresholds", "--grid", "60", "-h"],
    ["thresholds", "--branch", "Q2Q2"],
    ["thresholds", "--grid", "1e3"],
    ["baseline", "--tol", "-inf"],
    ["baseline", "--config", "-x"],
    ["sweep", "--pairs", "16", "--from", "0.2", "--to", "0.8"],
    _SWEEP[:1] + ["--pairs", "-h"] + _SWEEP[3:],
    _SWEEP + ["--f", "0.1"],
    _SWEEP + ["--fr", "0.1"],
    ["--config", "x", "report"],
    ["report", "bogus"],
    [],
], ids=lambda argv: " ".join(argv) or "no-args")
def test_argv_that_is_not_exact_pairs_goes_to_argparse(argv):
    # abbreviations (an ambiguous one among them), joined values, help,
    # option-like values and anything argparse rejects
    assert cli_module._direct_args(argv) is None


def test_exact_pairs_are_read_from_the_option_table():
    args = cli_module._direct_args(_SWEEP + ["--beta-phase", "-1e2", "--format", "json", "--steps", "5"])
    assert args == cli_module._build_parser("sweep").parse_args(_SWEEP + ["--beta-phase=-1e2", "--format=json",
                                                                          "--steps=5"])
    assert (args.steps, args.beta_phase, args.format, args.branch, args.out) == (5, -100.0, "json", "Q0Q0", None)


# Per subcommand: help, an error inside the subcommand, and an unknown flag.
_PARSER_ARGV = [
    argv
    for command, error in (
        ("baseline", ["--grid", "x"]),
        ("sweep", ["--pairs", "16"]),
        ("thresholds", ["--branch", "Q2Q2"]),
        ("branches", ["--tol"]),
        ("swap", []),
        ("gv", ["--bits", "8", "--eve", "x"]),
        ("report", ["--grid", "1e3"]),
    )
    for argv in ([command, "-h"], [command, *error], [command, "--bogus"])
] + [[], ["-h"], ["bogus"], ["--config", "x", "report"]]


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=lambda argv: " ".join(argv) or "no-args")
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    alone = _run(capsys, argv)
    full = cli_module._build_parser(None)
    monkeypatch.setattr(cli_module, "_build_parser", lambda command: full)
    assert _run(capsys, argv) == alone
    assert alone[0] in (0, 2) and (alone[1] or alone[2])


def test_scan_commands_make_no_float_scan(capsys, monkeypatch):
    # the scans run on exact signs, in a module with no numpy: report,
    # branches, thresholds and baseline print the same bytes through
    # counted scans (report scans four branches and the baseline), and the
    # table's float verdicts are read once in all, for report's concurrence
    # lines
    argvs = (["report"], ["branches"], ["thresholds", "--branch", "Q0Q1"], ["baseline"])
    want = [_run(capsys, argv) for argv in argvs]
    calls, scans = [], []
    scan = scan_module.branch_scan
    assert not {"np", "numpy"} & set(vars(scan_module))

    def counted(*args):
        calls.append(args[2])
        return table_verdicts(*args)

    def exact(*args):
        scans[-1] += 1
        return scan(*args)

    monkeypatch.setattr(cli_module, "table_verdicts", counted)
    monkeypatch.setattr(cli_module, "branch_scan", exact)
    monkeypatch.setattr(scan_module, "branch_scan", exact)
    got = []
    for argv in argvs:
        scans.append(0)
        got.append(_run(capsys, argv))
    assert got == want
    assert calls == [["16", "46"]]
    assert scans == [5, 4, 1, 1]


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
        assert (o["probability"], o["fidelity"]) == (0.25, 1.0)
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
        assert by_label[label]["fidelity"] == 1.0


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


@pytest.mark.parametrize(
    "argv,scored",
    [(["swap", "--alpha2", "0.3"], 0), (["swap", "--alpha2", "0.3", "--corrections", "published"], 1),
     (["report", "--grid", "50", "--tol", "1e-2"], 3)],
)
def test_swap_stage_scores_only_the_inexact_plans(capsys, monkeypatch, argv, scored):
    # one table-route call per command, and one closed-form call for the
    # published B1+ plan of each point, the only plans that do not recover
    # the target exactly; none for derived plans alone. Nothing of the
    # library route (rho325's DensityOp, its outcomes and plans) is built.
    for module in (swap_module, plans_module, cli_module):
        assert not {"bsm", "swap_extend", "_searched_words"} & set(vars(module))
    calls = []
    for module, name in ((cli_module, "_swap_plans"), (plans_module, "_block_fidelity")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls.append((_name, len(args[1]) if _name == "_block_fidelity" else None))
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    for module, name in ((protocol_module, "_rho325"), (swap_module, "bell_outcomes"),
                         (swap_module, "correction_plans"), (swap_module, "recovery_target")):
        monkeypatch.setattr(module, name, _refuse_call)
    assert _run(capsys, argv)[0] == 0
    assert calls == [("_swap_plans", None)] + [("_block_fidelity", 64)] * scored


def _refuse_call(*args):
    raise AssertionError("the library swap route ran")


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


# Scan rows that agree with every published figure the report compares; a
# case below replaces some of them. Each row is a list of (lo, hi) ends.
_AGREEING_SCANS = {
    "Q0Q0": {
        "16:entangled": [(0.184, 1.0)],
        "46:entangled": [(0.6177, 1.0)],
        "12:separable": [(0.273, 1.0)],
        "broadcast": [(0.6177, 1.0)],
    },
    "Q1Q1": {"broadcast": [(0.38, 0.73)]},
    "Q0Q1": {
        "broadcast": [(0.2, 0.3)],
        "12:separable": [(0.6, 1.0)],
        "34:entangled": [(0.4, 1.0)],
        "46:entangled": [(0.0, 0.14)],
    },
    "Q1Q0": {
        "broadcast": [(0.2, 0.3)],
        "34:separable": [(0.6, 1.0)],
        "12:entangled": [(0.4, 1.0)],
        "25:entangled": [(0.0, 0.14)],
    },
}
_CONCURRENCE_LINES = [
    f"{what}(rho{pair}) over computed interval" for pair in ("16", "46") for what in ("concurrence", "eof")
]
_BROADCAST = "broadcast interval, branch "
_EMPTY = {branch: dict.fromkeys(rows, []) for branch, rows in _AGREEING_SCANS.items()}


def _ends(*pairs):
    return " union ".join(f"({lo:.6f}, {hi:.6f})" for lo, hi in pairs)


# Each case: scan rows replaced, the baseline ends, and for each report line
# it pins, the computed column and the marker the line ends with.
_MARKER_CASES = {
    "within": (
        {"Q0Q0": {"16:entangled": [(0.1841, 1.0)], "46:entangled": [(0.6101, 1.0)],
                  "12:separable": [(0.2741, 1.0)], "broadcast": [(0.6199, 1.0)]},
         "Q1Q1": {"broadcast": [(0.389, 0.721)]}},
        (0.1111, 0.8888),
        {"baseline inseparability interval": (_ends((0.1111, 0.8888)), "ok (tol 0.002)"),
         "rho16 entangled above": ("0.184100", "ok (tol 0.005)"),
         "rho46 entangled above": ("0.610100", "ok (truncated)"),
         "rho12 separable above": ("0.274100", "ok (tol 0.005)"),
         _BROADCAST + "Q0Q0": (_ends((0.6199, 1.0)), "ok (truncated)"),
         _BROADCAST + "Q1Q1": (_ends((0.389, 0.721)), "ok (tol 0.01)"),
         _BROADCAST + "Q0Q1": (_ends((0.2, 0.3)), "check"),
         _BROADCAST + "Q1Q0": (_ends((0.2, 0.3)), "check"),
         "  Q0Q1 rho12 separable range": (_ends((0.6, 1.0)), "info"),
         "  Q1Q0 rho25 entangled range": (_ends((0.0, 0.14)), "info")},
    ),
    "above": (
        {"Q0Q0": {"16:entangled": [(0.186, 1.0)], "46:entangled": [(0.62, 1.0)],
                  "12:separable": [(0.276, 1.0)], "broadcast": [(0.6177, 0.99)]},
         "Q1Q1": {"broadcast": [(0.38, 0.7401)]}},
        (0.1122, 0.89031),
        {"baseline inseparability interval": (_ends((0.1122, 0.89031)), "DIFFERS (tol 0.002)"),
         "rho16 entangled above": ("0.186000", "DIFFERS (tol 0.005)"),
         "rho46 entangled above": ("0.620000", "DIFFERS (truncated)"),
         "rho12 separable above": ("0.276000", "DIFFERS (tol 0.005)"),
         _BROADCAST + "Q0Q0": (_ends((0.6177, 0.99)), "DIFFERS (truncated)"),
         _BROADCAST + "Q1Q1": (_ends((0.38, 0.7401)), "DIFFERS (tol 0.01)")},
    ),
    "below": (
        {"Q0Q0": {"16:entangled": [(0.174, 1.0)], "46:entangled": [(0.6099, 1.0)],
                  "12:separable": [(0.264, 1.0)], "broadcast": [(0.6099, 1.0)]},
         "Q1Q1": {"broadcast": [(0.3699, 0.73)]}},
        (0.10969, 0.8878),
        {"baseline inseparability interval": (_ends((0.10969, 0.8878)), "DIFFERS (tol 0.002)"),
         "rho16 entangled above": ("0.174000", "DIFFERS (tol 0.005)"),
         "rho46 entangled above": ("0.609900", "DIFFERS (truncated)"),
         "rho12 separable above": ("0.264000", "DIFFERS (tol 0.005)"),
         _BROADCAST + "Q0Q0": (_ends((0.6099, 1.0)), "DIFFERS (truncated)"),
         _BROADCAST + "Q1Q1": (_ends((0.3699, 0.73)), "DIFFERS (tol 0.01)")},
    ),
    "several intervals": (
        {"Q0Q0": {"broadcast": [(0.6177, 0.7), (0.8, 1.0)]},
         "Q1Q1": {"broadcast": [(0.38, 0.73), (0.8, 0.9)]}},
        (0.10969, 0.89031),
        {_BROADCAST + "Q0Q0": (_ends((0.6177, 0.7), (0.8, 1.0)), "DIFFERS (truncated)"),
         _BROADCAST + "Q1Q1": (_ends((0.38, 0.73), (0.8, 0.9)), "ok (tol 0.01)")},
    ),
    "empty": (
        _EMPTY,
        (0.10969, 0.89031),
        {"rho16 entangled above": ("no interval", "DIFFERS"),
         "rho46 entangled above": ("no interval", "DIFFERS"),
         "rho12 separable above": ("no interval", "DIFFERS"),
         _BROADCAST + "Q0Q0": ("none", "DIFFERS (truncated)"),
         _BROADCAST + "Q1Q1": ("none", "DIFFERS (tol 0.01)"),
         _BROADCAST + "Q0Q1": ("none", "DIFFERS"),
         _BROADCAST + "Q1Q0": ("none", "DIFFERS"),
         "  Q0Q1 rho34 entangled range": ("none", "info"),
         "  Q1Q0 rho34 separable range": ("none", "info")},
    ),
}


@pytest.mark.parametrize("case", list(_MARKER_CASES))
def test_report_markers_follow_the_published_rules(capsys, monkeypatch, case):
    replaced, baseline, want = _MARKER_CASES[case]
    scans = {branch: {**rows, **replaced.get(branch, {})} for branch, rows in _AGREEING_SCANS.items()}

    def scan(branch, names, *args, **kwargs):
        rows = scans["".join(branch)]
        return {
            name: [ThresholdInterval(lo, hi, 1e-4, name.rpartition(":")[2]) for lo, hi in rows[name]]
            for name in names
        }

    monkeypatch.setattr(cli_module, "branch_scan", scan)
    monkeypatch.setattr(cli_module, "buzek_baseline", lambda *args, **kwargs: baseline)
    code, out, _ = _run(capsys, ["report", "--grid", "50"])
    assert code == 0
    lines = {line[:46].rstrip(): line for line in out.splitlines()[2:]}
    for name, (computed, marker) in want.items():
        assert f" computed {computed} " in lines[name], (name, lines[name])
        assert lines[name].endswith(f" {marker}"), (name, lines[name])
    # the concurrence/EoF lines sample the rho46 entangled interval
    shown = [name for name in _CONCURRENCE_LINES if name in lines]
    assert shown == ([] if case == "empty" else _CONCURRENCE_LINES)
