"""The argv corpus of the same-bytes check: all seven subcommands at phase 0
and with beta_phase=4.71 from a config file, the commands whose output the
phase could reach (branches, report, thresholds and swap) at two more
phases, `--out` runs, and every usage error the README lists.

Each entry is (the exit code the README documents, the argv as one string
split on spaces). "{dir}" stands for a directory that write_files fills
with the files in FILES; an argv with `--out` writes its file there.
tests/compare_trees.py runs the corpus on two source trees and compares the
bytes; test_corpus.py checks its contract on this tree.
"""
from pathlib import Path

FILES = {
    "phi471.cfg": b"beta_phase=4.71\n",
    "phi1.cfg": b"beta_phase=1.0\n",
    "phim25.cfg": b"beta_phase=-2.5\n",
    "bom.cfg": b"\xef\xbb\xbfgrid=60\n",
    "coarse.cfg": b"# a coarse scan\ngrid=60\ntol=1e-3\n",
    "seed.cfg": b"seed=11\nbeta_phase=4.71\n",
    "latin.cfg": b"\xff\xfegrid=60\n",
    "unknown.cfg": b"colour=blue\n",
    "badvalue.cfg": b"grid=many\n",
    "noequals.cfg": b"grid\n",
    "negseed.cfg": b"seed=-1\n",
    "nantol.cfg": b"tol=nan\n",
    "zerotol.cfg": b"tol=0\n",
    "smallgrid.cfg": b"grid=10\n",
    "biggrid.cfg": b"grid=200000\n",
    "infphase.cfg": b"beta_phase=inf\n",
}

PHI471 = "--config {dir}/phi471.cfg"
ALL_PAIRS = "12,15,34,36,25,46,23,35,14,16"

_SCANS = (
    "baseline",
    "baseline --grid 60 --tol 1e-3",
    "thresholds",
    "thresholds --branch Q0Q1",
    "thresholds --branch Q1Q0",
    "thresholds --branch Q1Q1",
    "thresholds --grid 2000 --tol 1e-9",
    "branches",
    "report",
    "report --grid 60 --tol 1e-3",
    "report --grid 2000 --tol 1e-9",
)

_SWAPS = tuple(
    f"swap --alpha2 {x} --corrections {c}"
    for x in ("1e-300", "0.3", "0.5", "0.8", "0.999", "0.99999999")
    for c in ("derived", "published")
)

_SWEEPS = (
    f"sweep --pairs {ALL_PAIRS} --from 0 --to 1 --steps 11",
    f"sweep --pairs {ALL_PAIRS} --from 0 --to 1 --steps 11 --format json",
    "sweep --pairs 16,12,16,46 --branch Q0Q1 --from 1 --to 0 --steps 7",
    "sweep --pairs 46,12,46 --branch Q1Q0 --from 1 --to 0 --steps 7 --format json",
    "sweep --pairs 46,23 --branch Q1Q1 --from -0.0 --to 1 --steps 5",
    "sweep --pairs 14 --from 0.5 --to 0.5 --steps 1 --format json",
    "sweep --pairs 12,46 --from 0 --to 1 --steps 3000",
    "sweep --pairs 12,15 --from 0.1 --to 0.9 --steps 9 --beta-phase 4.71",
    "sweep --pairs 12 --from 0.1 --to 0.2 --steps 2 --beta-phase -1e2",
    "sweep --pairs 12,25,36 --from 0 --to 1 --steps 4 --out {dir}/rows.csv",
    "sweep --pairs 12,25,36 --from 0 --to 1 --steps 4 --format json --out {dir}/rows.json",
)

_GVS = (
    "gv --bits 1000",
    "gv --bits 1000 --eve intercept --seed 3",
    "gv --bits 1 --eve intercept",
    "gv --bits 999 --eve intercept --seed 7 --trials 5",
    "gv --bits 64 --eve none --trials 3 --seed 0",
    "gv --bits 100 --eve intercept --config {dir}/seed.cfg",
    "gv --bits 100 --eve intercept --seed 2 --config {dir}/seed.cfg",
    "gv --bits 250 --eve intercept --seed 5 --trials 4",
    "gv --bits 3 --eve none --trials 1000",
)

_USAGE_ERRORS = (
    "",
    "bogus",
    "report --bogus",
    "baseline --grid 10",
    "thresholds --grid 100001",
    "baseline --grid many",
    "baseline --tol 0",
    "baseline --tol=-1e-3",
    "baseline --tol -1e-3",
    "baseline --tol nan",
    "baseline --tol inf",
    "thresholds --branch Q2Q2",
    "sweep --from 0 --to 1 --steps 3",
    "sweep --pairs 17 --from 0 --to 1 --steps 3",
    "sweep --pairs , --from 0 --to 1 --steps 3",
    "sweep --pairs 12 --from -0.1 --to 1 --steps 3",
    "sweep --pairs 12 --from -1e-9 --to 1 --steps 3",
    "sweep --pairs 12 --from 0 --to 1.5 --steps 3",
    "sweep --pairs 12 --from nan --to 1 --steps 3",
    "sweep --pairs 12 --from 0 --to 1 --steps 0",
    "sweep --pairs 12,16 --from 0 --to 1 --steps 50001",
    "sweep --pairs 12 --from 0 --to 1 --steps 3 --format xml",
    "sweep --pairs 12 --from 0 --to 1 --steps 3 --beta-phase nan",
    "sweep --pairs 12 --from 0 --to 1 --steps 3 --out {dir}/missing/rows.csv",
    "swap",
    "swap --alpha2 0",
    "swap --alpha2 1",
    "swap --alpha2 -0.5",
    "swap --alpha2 nan",
    "swap --alpha2 0.5 --corrections bogus",
    "gv",
    "gv --bits 0",
    "gv --bits 10 --trials 0",
    "gv --bits 1000001",
    "gv --bits 1000 --trials 1001",
    "gv --bits 10 --seed -1",
    "gv --bits 10 --eve bogus",
    "baseline --config {dir}/absent.cfg",
    "report --config {dir}/latin.cfg",
    "thresholds --config {dir}/unknown.cfg",
    "branches --config {dir}/badvalue.cfg",
    "baseline --config {dir}/noequals.cfg",
    "gv --bits 10 --config {dir}/negseed.cfg",
    "baseline --config {dir}/nantol.cfg",
    "thresholds --config {dir}/zerotol.cfg",
    "report --config {dir}/smallgrid.cfg",
    "branches --config {dir}/biggrid.cfg",
    "swap --alpha2 0.5 --config {dir}/infphase.cfg",
)

CORPUS = (
    *((0, argv) for argv in _SCANS),
    *((0, f"{argv} {PHI471}") for argv in _SCANS),
    (0, "thresholds --branch Q1Q1 --config {dir}/coarse.cfg"),
    (0, "report --grid 200 --config {dir}/coarse.cfg"),
    *((0, argv) for argv in _SWAPS),
    *((0, f"{argv} {PHI471}") for argv in _SWAPS),
    (0, f"swap --alpha2 0.8 --corrections paper {PHI471}"),
    *(
        (0, f"{argv} --config {{dir}}/{cfg}")
        for cfg in ("phi1.cfg", "phim25.cfg")
        for argv in ("branches", "report", "thresholds --branch Q0Q1", *_SWAPS)
    ),
    (0, "baseline --config {dir}/bom.cfg"),
    *((0, argv) for argv in _SWEEPS),
    (0, f"sweep --pairs {ALL_PAIRS} --from 0 --to 1 --steps 11 --format json {PHI471}"),
    (0, f"sweep --pairs 16,46 --branch Q0Q1 --from 0.2 --to 0.8 --steps 13 {PHI471}"),
    *((0, argv) for argv in _GVS),
    (0, f"gv --bits 1000 --eve intercept {PHI471}"),
    (0, "--help"),
    (0, "report --help"),
    (0, "sweep --help"),
    *((2, argv) for argv in _USAGE_ERRORS),
)


def write_files(directory) -> list[tuple[int, list[str]]]:
    """Write FILES into directory, and return the corpus with "{dir}"
    replaced by it."""
    directory = Path(directory)
    for name, data in FILES.items():
        (directory / name).write_bytes(data)
    return [(code, argv.replace("{dir}", str(directory)).split()) for code, argv in CORPUS]


def out_path(argv: list[str]) -> str | None:
    """The file an argv writes with --out, if any."""
    return argv[argv.index("--out") + 1] if "--out" in argv else None
