"""Run the argv corpus (tests/corpus.py) on this tree and on another source
tree, and print each argv whose stdout, stderr, exit code or --out bytes
differ.

    python3 tests/compare_trees.py OTHER_SRC

OTHER_SRC is the `src` directory of another checkout, for example of the
parent commit unpacked with `git archive`. This tree runs the corpus
in-process through qbroadcast.cli.run_command; the other runs it the same
way in a child interpreter whose PYTHONPATH is OTHER_SRC alone. Both use
one directory for config and --out files, so paths in messages match. The
last line counts the argv; the exit status is 0 when every argv is
identical and 1 when any differs.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from corpus import CORPUS, out_path, write_files

HERE = Path(__file__).resolve().parent

_PARTS = ("stdout", "stderr", "exit code", "--out file")


def run_all(argvs: list[list[str]]) -> list[list]:
    """[stdout, stderr, exit code, --out file text or None] per argv, run
    in this process in order. Each --out file is read and removed."""
    # Imported late: main puts this tree's src first on sys.path, and the
    # child finds the other tree's through PYTHONPATH.
    from qbroadcast.cli import run_command

    results = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_command(argv)
        path = out_path(argv)
        written = None
        if path is not None and os.path.exists(path):
            # latin-1 maps every byte to one character, so JSON carries the bytes
            written = Path(path).read_bytes().decode("latin-1")
            os.remove(path)
        results.append([stdout.getvalue(), stderr.getvalue(), code, written])
    return results


def _first_difference(a, b) -> str:
    if not isinstance(a, str) or not isinstance(b, str):
        return f"{a!r} against {b!r}"
    for n, (x, y) in enumerate(zip(a.splitlines() + [None], b.splitlines() + [None]), start=1):
        if x != y:
            return f"line {n}: {x!r} against {y!r}"
    return "line endings"


def main(args: list[str]) -> int:
    if args == ["--child"]:
        json.dump(run_all(json.load(sys.stdin)), sys.stdout)
        return 0
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    sys.path.insert(0, str(HERE.parent / "src"))
    with tempfile.TemporaryDirectory() as directory:
        argvs = [argv for _, argv in write_files(directory)]
        here = run_all(argvs)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child"],
            input=json.dumps(argvs),
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(other)),
            check=True,
        )
    there = json.loads(child.stdout)
    differ = 0
    for (_, template), a, b in zip(CORPUS, here, there):
        parts = [(name, x, y) for name, x, y in zip(_PARTS, a, b) if x != y]
        if parts:
            differ += 1
            print(f"argv: {template or '(none)'}")
            for name, x, y in parts:
                print(f"  {name} differs, {_first_difference(x, y)} (this tree, then {other})")
    print(f"{len(argvs)} argv: {len(argvs) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
