"""The CLI run as a program, and the README's library example.

The other CLI tests call run_command in-process. These start
`python -m qbroadcast.cli`, the module the console script runs, in a child
interpreter and check its exit code and both streams. The last test
executes the README's "Library use" block, so a change to the public API
cannot leave that example stale.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qbroadcast.cli import CSV_HEADER, SCAN_MAX_GRID

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qbroadcast.cli", *argv], capture_output=True, text=True, env=_env(), timeout=120
    )


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def test_thresholds_prints_strict_json():
    proc = _cli("thresholds", "--grid", "50")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert payload["grid"] == 50 and payload["broadcast"]["intervals"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["grid above the bound", "unknown flag", "nan tol in a config file"])
def test_usage_errors_exit_2_without_a_traceback(tmp_path, case):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("tol=nan\n", encoding="utf-8")
    argv = {
        "grid above the bound": ["thresholds", "--grid", str(SCAN_MAX_GRID + 1)],
        "unknown flag": ["thresholds", "--frobnicate"],
        "nan tol in a config file": ["thresholds", "--config", str(cfg)],
    }[case]
    proc = _cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly():
    # 10^5 CSV rows are far more than a pipe holds, so the program is still
    # writing when the reader closes its end
    argv = ["sweep", "--pairs", "12,15,34,36,25,46,23,35,14,16", "--from", "0", "--to", "1", "--steps", "10000"]
    proc = subprocess.Popen([sys.executable, "-m", "qbroadcast.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env())
    try:
        assert proc.stdout.readline() == (CSV_HEADER + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


def test_no_command_imports_numpy_random():
    # every coin comes from the stdlib generator; numpy.random's import
    # alone costs more than the draws
    script = (
        "import contextlib, io, sys\n"
        "from qbroadcast import run_protocol\n"
        "from qbroadcast.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run_command(['report']) == 0\n"
        "    assert run_command(['gv', '--bits', '1000', '--eve', 'intercept']) == 0\n"
        "run_protocol(0.37, branch_policy='sampled', seed=1, eve_strategy='intercept_resend')\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env(), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_the_cli_imports_only_its_own_modules_and_scans_import_none():
    # the scans' exact arithmetic is on Python integers: no fractions (2.7 ms
    # of import) or sympy, no package module beyond the CLI's standard-
    # library ones, and no module imported while the scan commands run,
    # argument parsing included
    script = (
        "import contextlib, io, sys\n"
        "from qbroadcast.cli import run_command\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['thresholds'], ['branches'], ['baseline'], ['report']):\n"
        "        assert run_command(argv) == 0\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print(sorted(m for m in before if m.startswith('qbroadcast') or m in ('fractions', 'sympy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env(), timeout=120)
    package = ["cli", "constants", "errors", "gvchannel", "measures", "plans", "scan", "tables"]
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["[]", str(["qbroadcast"] + [f"qbroadcast.{name}" for name in package])]


def test_the_cli_runs_every_command_without_numpy(tmp_path):
    # import and all seven subcommands, a config file, --out, a channel run
    # over trials, both swap sources, help and a usage error: numpy, the
    # cloner, the operators and the eigen-solver stay out of sys.modules,
    # and nothing is imported while the commands run
    cfg = tmp_path / "phase.cfg"
    cfg.write_text("beta_phase=4.71\n", encoding="utf-8")
    argvs = [
        ["baseline", "--config", str(cfg)],
        ["sweep", "--pairs", "12,16,46", "--from", "0.1", "--to", "0.9", "--steps", "5", "--format", "json",
         "--out", str(tmp_path / "rows.json")],
        ["sweep", "--pairs", "14", "--branch", "Q1Q0", "--from", "0", "--to", "1", "--steps", "3"],
        ["thresholds", "--branch", "Q0Q1", "--config", str(cfg)],
        ["branches"],
        ["swap", "--alpha2", "0.3"],
        ["swap", "--alpha2", "0.8", "--corrections", "published"],
        ["gv", "--bits", "100", "--eve", "intercept", "--trials", "3"],
        ["report", "--config", str(cfg)],
        ["--help"],
        ["thresholds", "--grid", "10"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from qbroadcast.cli import run_command\n"
        "before = set(sys.modules)\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    for argv in json.loads({json.dumps(json.dumps(argvs))}):\n"
        "        codes.append(run_command(argv))\n"
        "print(codes)\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print([m for m in ('numpy', 'qbroadcast.cloner', 'qbroadcast.qstate', 'qbroadcast.linalg') if m in sys.modules])\n"
    )
    # -S: no site-packages .pth file imports a module ahead of the CLI
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [str([0] * 10 + [2]), "[]", "[]"]
    assert json.loads((tmp_path / "rows.json").read_text(encoding="utf-8"))[0]["pair"] == "12"


def test_well_formed_argv_builds_no_parser_and_imports_nothing(tmp_path):
    # exact --flag value pairs are read from the option table: no
    # ArgumentParser is built, and no module is imported while they run; a
    # config file's byte-order mark is dropped without the utf-8-sig codec
    cfg = tmp_path / "phase.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfbeta_phase=4.71\n")
    argvs = [
        ["thresholds", "--branch", "Q1Q1", "--config", str(cfg)],
        ["branches", "--config", str(cfg)],
        ["report", "--grid", "60", "--tol", "1e-3"],
        ["sweep", "--pairs", "16,46", "--from", "0.2", "--to", "0.8", "--steps", "3", "--beta-phase", "-1e2",
         "--format", "json"],
    ]
    script = (
        "import argparse, contextlib, io, json, sys\n"
        "from qbroadcast.cli import run_command\n"
        "builds = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    builds.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in json.loads({json.dumps(json.dumps(argvs))}):\n"
        "        assert run_command(argv) == 0, argv\n"
        "print(len(builds), sorted(set(sys.modules) - before), 'encodings.utf_8_sig' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env(), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 [] False\n", "")


def test_abbreviated_and_joined_flags_print_what_exact_pairs_print():
    # these take argparse's route, exact pairs the option table's
    want = _cli("thresholds", "--grid", "60")
    assert want.returncode == 0 and want.stdout
    for argv in (["--gr", "60"], ["--grid=60"]):
        proc = _cli("thresholds", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want.stdout, want.stderr), argv


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("True ")
    assert "lo=0.6177" in lines[1] and "hi=1.0" in lines[1] and "lo=0.6177" in lines[2]
    assert "lo=0.1097" in lines[3] and "hi=0.8902" in lines[3]
