"""Property tests over the CLI's argv space: every call ends with exit 0, 1
or 2 without raising, and what it prints is strict JSON or the sweep CSV.

Sizes are kept small (grids of 50-80 points, at most 30 sweep steps, a few
swap, gv and report calls) so the module stays a few seconds; nothing here
starts a thread or process.
"""
import contextlib
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qbroadcast.cli import BRANCH_NAMES, CSV_HEADER, GV_MAX_BITS, SCAN_MAX_GRID, run_command  # noqa: E402
from qbroadcast.protocol import PAIR_KEYS  # noqa: E402

# A fixed draw per test, so the suite gives the same verdict on every run,
# and no example database.
CHECKS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
FEW_CHECKS = settings(CHECKS, max_examples=12)

ENDPOINTS = st.one_of(
    st.sampled_from(["0", "1", "1e-320", "5e-324", "0.9999999999999999", "nan", "inf", "-1", "2", "1e400"]),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
)
PHASES = st.one_of(st.sampled_from(["nan", "inf"]), st.floats(min_value=-10.0, max_value=10.0).map(repr))
TOLS = st.one_of(st.sampled_from(["nan", "inf", "0", "-1e-3"]), st.floats(min_value=1e-6, max_value=1e-2).map(repr))


def _strict_float(text):
    raise ValueError(f"non-finite number {text} in JSON output")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", argv
    return code, out.getvalue()


def _finite_in_unit_interval(text):
    return math.isfinite(float(text)) and 0.0 <= float(text) <= 1.0


@CHECKS
@given(
    pairs=st.lists(st.sampled_from(PAIR_KEYS), min_size=1, max_size=10),
    branch=st.sampled_from(BRANCH_NAMES),
    lo=ENDPOINTS,
    hi=ENDPOINTS,
    steps=st.integers(min_value=1, max_value=30),
    phase=PHASES,
    fmt=st.sampled_from(["csv", "json"]),
)
def test_sweep_ends_with_strict_output(pairs, branch, lo, hi, steps, phase, fmt):
    argv = ["sweep", "--pairs", ",".join(pairs), "--branch", branch, f"--from={lo}", f"--to={hi}",
            "--steps", str(steps), f"--beta-phase={phase}", "--format", fmt]
    code, out = _call(argv)
    valid = _finite_in_unit_interval(lo) and _finite_in_unit_interval(hi) and math.isfinite(float(phase))
    assert code == (0 if valid else 2), argv
    if code:
        return
    if fmt == "json":
        rows = json.loads(out, parse_constant=_strict_float)
        assert len(rows) == steps * len(pairs)
        assert all(0.0 <= row["alpha2"] <= 1.0 for row in rows)
    else:
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + steps * len(pairs)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8 and fields[1] in pairs and fields[7] in ("0", "1")
            assert all(math.isfinite(float(x)) for x in fields[:1] + fields[2:7])


@CHECKS
@given(
    command=st.sampled_from(
        [["thresholds", "--branch", name] for name in BRANCH_NAMES] + [["branches"], ["baseline"]]
    ),
    grid=st.integers(min_value=50, max_value=80),
    tol=TOLS,
)
def test_scans_end_with_strict_json(command, grid, tol):
    argv = command + ["--grid", str(grid), f"--tol={tol}"]
    code, out = _call(argv)
    valid = math.isfinite(float(tol)) and float(tol) > 0.0
    assert code == (0 if valid else 2), argv
    if code == 0:
        json.loads(out, parse_constant=_strict_float)


@FEW_CHECKS
@given(
    alpha2=st.one_of(
        st.sampled_from(["5e-324", "1e-300", "0.9999999999999999", "0", "1", "nan"]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True).map(repr),
    ),
    corrections=st.sampled_from(["derived", "published", "paper"]),
)
def test_swap_ends_with_strict_json(alpha2, corrections):
    argv = ["swap", f"--alpha2={alpha2}", "--corrections", corrections]
    code, out = _call(argv)
    assert code == (0 if 0.0 < float(alpha2) < 1.0 else 2), argv
    if code:
        return
    outcomes = json.loads(out, parse_constant=_strict_float)["outcomes"]
    assert [o["label"] for o in outcomes] == ["B1+", "B1-", "B2+", "B2-"]
    for o in outcomes:
        assert ("word" in o) == (corrections == "derived")
        assert 0.0 <= o["fidelity"] <= 1.0 + 1e-12


# (bits, trials) at and just past the bound, from either side, or small;
# no product exceeds 2 * GV_MAX_BITS + 2, so a lost bound cannot exhaust memory.
AT_BOUND = st.sampled_from([GV_MAX_BITS, GV_MAX_BITS + 1])
GV_SIZES = st.one_of(
    st.tuples(AT_BOUND, st.integers(min_value=1, max_value=2)),
    st.tuples(st.integers(min_value=1, max_value=2), AT_BOUND),
    st.tuples(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=3)),
)


@FEW_CHECKS
@given(
    sizes=GV_SIZES,
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    eve=st.sampled_from(["none", "intercept"]),
)
def test_gv_ends_with_strict_json(sizes, seed, eve):
    bits, trials = sizes
    argv = ["gv", "--bits", str(bits), "--trials", str(trials), "--seed", str(seed), "--eve", eve]
    code, out = _call(argv)
    assert code == (0 if seed >= 0 and bits * trials <= GV_MAX_BITS else 2), argv
    if code == 0:
        assert json.loads(out, parse_constant=_strict_float)["bits_sent"] == bits * trials


GOOD_VALUES = {
    "tol": st.floats(min_value=1e-6, max_value=1e-2).map(repr),
    "grid": st.integers(min_value=50, max_value=80).map(str),
    "beta_phase": st.floats(min_value=-10.0, max_value=10.0).map(repr),
    "seed": st.integers(min_value=0, max_value=2**70).map(str),
}
BAD_VALUES = {
    "tol": st.sampled_from(["nan", "inf", "0", "-1e-3", "", "x", "1e400"]),
    "grid": st.sampled_from(["49", "-3", "1.5", "x"]),
    "beta_phase": st.sampled_from(["nan", "inf", "-inf", "x"]),
    "seed": st.sampled_from(["-1", "1.0", "x"]),
}
BAD_LINES = st.sampled_from(["colour=red", "novalue", "=3"])


@st.composite
def configs(draw, defect):
    """Lines of a config file that sets every key to a good value except
    for the defect: a bad value for that key, or with "line" a line that is
    no key=value of a known key. Comments and blank lines are mixed in."""
    values = draw(st.fixed_dictionaries(GOOD_VALUES))
    if defect in BAD_VALUES:
        values[defect] = draw(BAD_VALUES[defect])
    lines = [f"{key}={value}" for key, value in values.items()]
    lines += draw(st.lists(st.sampled_from(["# comment", ""]), max_size=2))
    if defect == "line":
        lines.append(draw(BAD_LINES))
    return draw(st.permutations(lines)), values


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "settings.cfg"


@pytest.mark.parametrize("defect", [None, *BAD_VALUES, "line"])
@pytest.mark.parametrize("command", ["baseline", "report"])
@FEW_CHECKS
@given(data=st.data())
def test_config_files_end_with_exit_0_or_2(config_path, command, defect, data):
    lines, values = data.draw(configs(defect))
    config_path.write_text("\n".join(lines) + "\n")
    code, out = _call([command, "--config", str(config_path)])
    assert code == (0 if defect is None else 2), lines
    if code == 0 and command == "baseline":
        assert json.loads(out, parse_constant=_strict_float)["tolerance"] == float(values["tol"])
    if code == 0 and command == "report":
        assert out.startswith("reproduction report (") and out.endswith("\n")


# Flags and files draw from disjoint ranges, so the header shows which won.
@settings(CHECKS, max_examples=20)
@given(
    flag_grid=st.one_of(st.none(), st.integers(min_value=50, max_value=64)),
    flag_tol=st.one_of(st.none(), st.sampled_from(["nan", "inf", "0"]), st.floats(2e-2, 5e-2).map(repr)),
    file_grid=st.one_of(st.integers(min_value=65, max_value=80).map(str), st.sampled_from(["49", str(SCAN_MAX_GRID + 1)])),
    file_tol=st.one_of(GOOD_VALUES["tol"], st.sampled_from(["0", "nan"])),
    data=st.data(),
)
def test_report_flags_beat_the_config_file(config_path, flag_grid, flag_tol, file_grid, file_tol, data):
    # the file sets every key; a flag replaces the file's value, bad or good
    values = data.draw(st.fixed_dictionaries(GOOD_VALUES)) | {"grid": file_grid, "tol": file_tol}
    config_path.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
    argv = ["report", "--config", str(config_path)]
    if flag_grid is not None:
        argv += ["--grid", str(flag_grid)]
    if flag_tol is not None:
        argv.append(f"--tol={flag_tol}")
    code, out = _call(argv)
    grid = int(file_grid) if flag_grid is None else flag_grid
    tol = float(file_tol if flag_tol is None else flag_tol)
    valid = 50 <= grid <= SCAN_MAX_GRID and math.isfinite(tol) and tol > 0.0
    assert code == (0 if valid else 2), argv
    if code == 0:
        header = f"reproduction report (grid={grid}, tol={tol}, beta_phase={float(values['beta_phase'])})\n"
        assert out.startswith(header), (argv, out.splitlines()[0])
