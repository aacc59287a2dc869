"""The CLI contract on every argv of the same-bytes corpus (corpus.py): the
exit code the README documents, empty stderr on success, nothing on stdout
and a message on stderr for a usage error, and strict JSON (or CSV) output.

Only the contract is checked here, not stored bytes: digests of the float
output would tie the suite to one numpy and BLAS. tests/compare_trees.py
compares the bytes against another tree.
"""
import json
import math

import pytest

from compare_trees import run_all
from corpus import CORPUS, out_path, write_files
from qbroadcast.cli import CSV_HEADER

_JSON_COMMANDS = ("baseline", "thresholds", "branches", "swap", "gv")


def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def _check_json(text: str) -> None:
    value = json.loads(text, parse_constant=_reject)
    assert text == json.dumps(value, indent=2, allow_nan=False) + "\n"


def _check_csv(text: str) -> None:
    head, *rows = text.splitlines()
    assert head == CSV_HEADER and rows
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 8
        assert all(math.isfinite(float(x)) for x in fields[:1] + fields[2:])


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[argv or "(none)" for _, argv in CORPUS])
def test_corpus_argv_keeps_the_contract(tmp_path, index):
    code, argv = write_files(tmp_path)[index]
    ((out, err, got, written),) = run_all([argv])
    assert got == code
    if code != 0:
        assert out == "" and err and written is None
        return
    assert err == ""
    if "--help" in argv:
        assert out.startswith("usage: qbroadcast")
        return
    text = out if out_path(argv) is None else written
    assert text and (out == "" or written is None)
    if argv[0] in _JSON_COMMANDS or "json" in argv:
        _check_json(text)
    elif argv[0] == "sweep":
        _check_csv(text)
