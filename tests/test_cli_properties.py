"""Property tests over the CLI's argv space: every call ends with exit 0, 1
or 2 without raising, and what it prints is strict JSON or the sweep CSV.
Argv read from the option table without a parser is read as argparse
reads it, and argv argparse rejects is never read there.

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

import qbroadcast.cli as cli_module  # noqa: E402
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
# Endpoints every sweep accepts, the unit interval's edges and subnormals among them.
VALID_ENDPOINTS = st.one_of(
    st.sampled_from(["0", "1", "1e-320", "5e-324", repr(1 - 1.1e-16)]),
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


def _csv_per_row(rows):
    """The sweep CSV as it was written before its rows came from one
    template: one f-string per row, reals to 12 significant digits."""
    def fmt(x):
        return f"{x:.12g}"

    return "\n".join([CSV_HEADER] + [
        f"{fmt(r['alpha2'])},{r['pair']},{fmt(r['min_pt_eigenvalue'])},{fmt(r['w3'])},{fmt(r['w4'])},"
        f"{fmt(r['concurrence'])},{fmt(r['eof'])},{r['entangled']}"
        for r in rows
    ]) + "\n"


@CHECKS
@given(
    pairs=st.lists(st.sampled_from(PAIR_KEYS), min_size=1, max_size=10),
    branch=st.sampled_from(BRANCH_NAMES),
    lo=VALID_ENDPOINTS,
    hi=VALID_ENDPOINTS,
    steps=st.integers(min_value=1, max_value=30),
    phase=st.floats(min_value=-10.0, max_value=10.0).map(repr),
)
def test_sweep_json_template_equals_the_stdlib_encoder(pairs, branch, lo, hi, steps, phase):
    argv = ["sweep", "--pairs", ",".join(pairs), "--branch", branch, f"--from={lo}", f"--to={hi}",
            "--steps", str(steps), f"--beta-phase={phase}"]
    code, text = _call(argv + ["--format", "json"])
    assert code == 0, argv
    # a numpy scalar in a row would print as np.float64(...) and fail to parse
    rows = json.loads(text, parse_constant=_strict_float)
    assert text == json.dumps(rows, indent=2, allow_nan=False) + "\n"
    assert [list(row) for row in rows] == [CSV_HEADER.split(",")] * len(rows)
    code, csv_text = _call(argv + ["--format", "csv"])
    assert code == 0, argv
    assert csv_text == _csv_per_row(rows)


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


# ------------------------------------------------- argv read without argparse

# Values that argparse reads as options, rejects or reads as values of the
# wrong type or choice, beside decimals that are values.
ODD_VALUES = st.sampled_from([
    "-1.5", "-1e2", "-.5", "-3.", "-h", "--help", "", "nan", "inf", "-inf", "1e3", "1.5", "60", "Q2Q2", "xml",
    "x", "-x", "-", "--", "- 1", "-1x",
])


def _good_values(opt):
    """Values of opt that convert by its type and lie in its choices."""
    if opt.choices is not None:
        return st.sampled_from(opt.choices)
    if opt.type is int:
        return st.integers(min_value=-(10**6), max_value=10**6).map(str)
    if opt.type is float:
        finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        return st.one_of(st.sampled_from(["nan", "inf", "-1e2", "-.5", "3."]), finite)
    return st.sampled_from(["16,46", "12", "x.cfg", "-5", ""])


@st.composite
def well_formed_argv(draw):
    """A subcommand with exact --flag value pairs of its own in any order,
    every required flag among them, some flags repeated."""
    command = draw(st.sampled_from(list(cli_module._COMMANDS)))
    options = cli_module._COMMANDS[command].options
    chosen = [opt for opt in options if opt.required] + draw(st.lists(st.sampled_from(options), max_size=6))
    argv = [command]
    for opt in draw(st.permutations(chosen)):
        argv += [opt.flag, draw(_good_values(opt))]
    return argv


@st.composite
def changed(draw, argv):
    """argv with two neighbouring words, a flag and its value in a
    well-formed argv, changed: the value made odd, the flag abbreviated,
    joined to the value by "=", unknown, "-h" or bare, or both dropped. A
    lone subcommand gets "-h", an unknown flag or a flag with no value."""
    if len(argv) < 3:
        return argv + draw(st.sampled_from([["-h"], ["--bogus", "1"], ["--config"]]))
    i = 1 + 2 * draw(st.integers(min_value=0, max_value=(len(argv) - 3) // 2))
    flag, value = argv[i:i + 2]
    pair = draw(st.sampled_from([
        [flag, draw(ODD_VALUES)],
        [flag[:draw(st.integers(min_value=3, max_value=max(3, len(flag) - 1)))], value],
        [f"{flag}={value}"],
        [draw(st.sampled_from(["--bogus", "-h"])), value],
        [flag],
        [],
    ]))
    return argv[:i] + pair + argv[i + 2:]


@st.composite
def any_argv(draw):
    """A well-formed argv with up to three changes, its subcommand at times
    dropped or unknown."""
    argv = draw(well_formed_argv())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        argv = draw(changed(argv))
    return draw(st.sampled_from([argv[:1]] * 4 + [[], ["bogus"]])) + argv[1:]


def _parsed(argv):
    """What a fresh parser makes of argv, as run_command picks it: the
    Namespace, or None where it exits (help or a usage error)."""
    command = argv[0] if argv and argv[0] in cli_module._COMMANDS else None
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli_module._build_parser.__wrapped__(command).parse_args(argv)
    except SystemExit:
        return None


def _same(a, b) -> bool:
    """Two Namespaces with the same names and values of the same type, a
    NaN equal to a NaN."""
    a, b = vars(a), vars(b)
    return a.keys() == b.keys() and all(
        type(a[k]) is type(b[k]) and (a[k] == b[k] or a[k] != a[k] and b[k] != b[k]) for k in a
    )


@settings(CHECKS, max_examples=400)
@given(argv=any_argv())
def test_direct_args_is_none_or_what_argparse_parses(argv):
    direct = cli_module._direct_args(argv)
    want = _parsed(argv)
    if want is None:
        assert direct is None, argv
    else:
        assert direct is None or _same(direct, want), (argv, direct, want)


@settings(CHECKS, max_examples=200)
@given(argv=well_formed_argv())
def test_exact_pairs_are_read_without_argparse(argv):
    direct = cli_module._direct_args(argv)
    want = _parsed(argv)
    assert direct is not None and want is not None, argv
    assert _same(direct, want), (argv, direct, want)
