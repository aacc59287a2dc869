"""Command-line front end: baseline interval, marginal sweeps, threshold
scans, per-branch reports, swap verification, channel statistics, and the
full computed-vs-published reproduction report.

Exit codes: 0 success, 2 usage error, 1 numerical contract violation. A
reader that closes stdout early ends the program quietly with 0.
"""
from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from .cloner import OUTCOME_ORDER
from .constants import SCAN_GRID, SCAN_TOL
from .entanglement import eof
from .errors import ContractError
from .gvchannel import ANALYTIC_DETECTION_RATE, GvConfig, transmit_bits
from .protocol import PAIR_KEYS, _rho325, branch_probabilities, branch_scan, buzek_baseline, pair_verdicts
from .swap import bell_outcomes, correction_plans

__all__ = ["main", "run_command", "CSV_HEADER", "PUBLISHED"]

CSV_HEADER = "alpha2,pair,min_pt_eigenvalue,w3,w4,concurrence,eof,entangled"

# One sweep row in CSV_HEADER order, in three parts: its alpha^2, its pair
# and the six result fields after the pair. As CSV: reals to 12 significant
# digits. As JSON: the row's lines in json.dumps(rows, indent=2); reals and
# the verdict go through repr, as json writes floats and ints.
_CSV_ROW = ("%.12g,", "%s,", ",".join(["%.12g"] * 5 + ["%d"]))
_JSON_ROW = (
    '  {\n    "alpha2": %r,\n',
    '    "pair": "%s",\n',
    ",\n".join(f'    "{name}": %r' for name in CSV_HEADER.split(",")[2:]) + "\n  }",
)

BRANCH_NAMES = tuple("".join(b) for b in OUTCOME_ORDER)

# Most bits one gv call sends (--bits times --trials): the channel holds
# them in one bool array, tiled once per trial, with three coins per bit
# from getrandbits. `gv --bits 1000000 --eve intercept` takes 0.005-0.006 s
# and peaks at 36 MB process RSS (run_command timed in a fresh interpreter,
# 30 MB after import; 2 vCPUs, Python 3.11, numpy 2.4).
GV_MAX_BITS = 10**6

# Largest scan grid (--grid, or grid= in a config file). A scan finds its
# sign changes by binary search, so the grid costs O(log grid) exact signs:
# `thresholds --grid 100000 --tol 1e-300` takes about 3.3 ms, as long as the
# default `thresholds` (3.6 ms; run_command timed in a fresh interpreter,
# median of 12; 2 vCPUs, Python 3.11, numpy 2.4).
SCAN_MAX_GRID = 10**5

# Most rows one sweep computes (--steps times the number of pairs). The
# worst case is one pair: a 10^5-step `sweep --pairs 16 --format json --out`
# takes 0.4-0.45 s and peaks at 68 MB process RSS, where the all-pair
# 10^4-step one takes 0.15-0.16 s and peaks at 51 MB (ru_maxrss, fresh
# interpreter, 30 MB after import; 2 vCPUs, Python 3.11, numpy 2.4). The
# pair numbers take 0.01-0.02 s of it, the rest is the text of the rows.
SWEEP_MAX_ROWS = 10**5

# Rows sweep turns into text and writes at a time, so the Python numbers
# and the text do not grow with the output.
SWEEP_CHUNK_ROWS = 4096

class UsageError(Exception):
    """Bad flags or config content; mapped to exit code 2."""


class Settings(NamedTuple):
    tol: float = SCAN_TOL
    grid: int = SCAN_GRID
    beta_phase: float = 0.0
    seed: int = 0


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`qbroadcast sweep ... | head`): the
        # output was cut by the reader, not by a fault. Stdout now points at
        # devnull, so the flush at exit cannot fail and print a warning.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


def run_command(argv) -> int:
    argv = list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------- parsing


# The subcommands with their help lines, in the order help lists them.
_COMMANDS = {
    "baseline": "inseparability interval of the single-stage nonlocal pair",
    "sweep": "per-pair PPT/concurrence table over alpha^2",
    "thresholds": "entanglement thresholds for one branch",
    "branches": "broadcast ranges for all four branches",
    "swap": "Bell-measurement outcomes and recovery fidelities",
    "gv": "secret channel statistics",
    "report": "full computed-vs-published reproduction report",
}


# A negative decimal, with or without an exponent ("-1e2", "-.5", "-3."), is
# an option's value, never an option. argparse's own rule differs between
# Python versions (3.10 to 3.13 read "-1e2" as an option), so every parser
# here uses this one.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


# Built once per process for each command it is asked for: the handlers it
# binds are module functions, and each parse_args call fills a fresh
# Namespace.
@functools.cache
def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with every subcommand (command None), or with `command`'s
    alone, which parses that command's argv to the same Namespace and
    prints the same bytes on help and on errors."""
    parser = _Parser(
        prog="qbroadcast",
        description="Secret broadcasting of three-qubit entanglement: "
        "reproduction tables and protocol simulation.",
    )
    # Errors after the subcommand print the top usage line, which lists the
    # choices. A full parser leaves metavar unset, so that an invalid choice
    # is reported against "argument command".
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        p = sub.add_parser(name, help=_COMMANDS[name])
        p.add_argument(
            "--config",
            metavar="PATH",
            help="key=value file overriding defaults (keys: tol, grid, beta_phase, seed)",
        )
        if name in ("baseline", "thresholds", "branches", "report"):
            p.add_argument("--tol", type=float, help=f"bisection tolerance (default {SCAN_TOL})")
            p.add_argument("--grid", type=int, help=f"coarse grid size (default {SCAN_GRID})")
        if name == "baseline":
            p.set_defaults(handler=_cmd_baseline)
        elif name == "sweep":
            p.add_argument("--pairs", required=True, help=f"comma list from: {','.join(PAIR_KEYS)}")
            p.add_argument("--branch", choices=BRANCH_NAMES, default="Q0Q0")
            p.add_argument("--from", dest="from_", type=float, required=True, metavar="A")
            p.add_argument("--to", dest="to", type=float, required=True, metavar="B")
            p.add_argument("--steps", type=int, required=True)
            p.add_argument("--beta-phase", dest="beta_phase", type=float, help="phase of beta in radians")
            p.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.set_defaults(handler=_cmd_sweep)
        elif name == "thresholds":
            p.add_argument("--branch", choices=BRANCH_NAMES, default="Q0Q0")
            p.set_defaults(handler=_cmd_thresholds)
        elif name == "branches":
            p.set_defaults(handler=_cmd_branches)
        elif name == "swap":
            p.add_argument("--alpha2", type=float, required=True)
            p.add_argument(
                "--corrections",
                choices=("derived", "published", "paper"),
                default="derived",
                help="correction set to verify (paper is an alias for published)",
            )
            p.set_defaults(handler=_cmd_swap)
        elif name == "gv":
            p.add_argument("--bits", type=int, required=True)
            p.add_argument("--eve", choices=("none", "intercept"), default="none")
            p.add_argument("--seed", type=int)
            p.add_argument("--trials", type=int, default=1)
            p.set_defaults(handler=_cmd_gv)
        else:
            p.set_defaults(handler=_cmd_report)
    return parser


def _load_config(path: str) -> dict:
    keys = {"tol": float, "grid": int, "beta_phase": float, "seed": int}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = keys[key](value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return out


def _settings(args) -> Settings:
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    # A flag beats the config file, which beats the default.
    flags = {name: getattr(args, name, None) for name in Settings._fields}
    s = Settings(**{**cfg, **{name: value for name, value in flags.items() if value is not None}})
    for name in ("tol", "beta_phase"):
        if not math.isfinite(getattr(s, name)):
            raise UsageError(f"{name} must be finite, got {getattr(s, name)}")
    if s.tol <= 0:
        raise UsageError(f"tol must be positive, got {s.tol}")
    if s.grid < 50:
        raise UsageError(f"grid must be at least 50, got {s.grid}")
    if s.grid > SCAN_MAX_GRID:
        raise UsageError(f"grid must be at most {SCAN_MAX_GRID}, got {s.grid}")
    if s.seed < 0:
        raise UsageError(f"seed must be >= 0, got {s.seed}")
    return s


def _parse_branch(name: str) -> tuple[str, str]:
    return (name[:2], name[2:])


def _json_text(payload) -> str:
    """Strict JSON: a NaN or infinity in a result is a numerical fault."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ContractError(f"result is not finite: {exc}") from None


def _emit_json(payload) -> int:
    sys.stdout.write(_json_text(payload))
    return 0


def _interval_dicts(intervals) -> list:
    return [
        {"lo": iv.lo, "hi": iv.hi, "tolerance": iv.tolerance, "predicate": iv.predicate_name}
        for iv in intervals
    ]


# --------------------------------------------------------------- handlers


def _cmd_baseline(args) -> int:
    s = _settings(args)
    lo, hi = buzek_baseline(grid=s.grid, tol=s.tol)
    return _emit_json({"lo": lo, "hi": hi, "tolerance": s.tol})


def _cmd_sweep(args) -> int:
    _settings(args)  # checked, though sweep computes at phase 0 and reads no setting
    pairs = [p.strip() for p in args.pairs.split(",") if p.strip()]
    if not pairs:
        raise UsageError("sweep: --pairs is empty")
    for pair in pairs:
        if pair not in PAIR_KEYS:
            raise UsageError(f"sweep: unknown pair {pair!r} (choose from {', '.join(PAIR_KEYS)})")
    if args.steps < 1:
        raise UsageError("sweep: --steps must be >= 1")
    if args.steps * len(pairs) > SWEEP_MAX_ROWS:
        raise UsageError(f"sweep: --steps x pairs is {args.steps * len(pairs)}, above {SWEEP_MAX_ROWS}")
    for flag, x in (("--from", args.from_), ("--to", args.to)):
        if not 0.0 <= x <= 1.0:
            raise UsageError(f"sweep: {flag} must be in [0, 1], got {x}")
    branch = _parse_branch(args.branch)
    if args.steps == 1:
        values = [args.from_]
    else:
        span = args.to - args.from_
        # Rounding can carry the last point a few ulps past 0 or 1.
        values = [min(max(args.from_ + i * span / (args.steps - 1), 0.0), 1.0) for i in range(args.steps)]

    # Each distinct alpha^2 once, ascending, with its number of repeats, and
    # each distinct pair once; the phase moves no number a row prints.
    counts = sorted(collections.Counter(values).items())
    keys = sorted(set(pairs))
    verdict, conc = pair_verdicts([x for x, _ in counts], branch, keys)
    reals = (verdict.min_pt_eigenvalue, verdict.w3, verdict.w4, conc)
    if not all(np.isfinite(a).all() for a in reals):
        raise ContractError("result is not finite: a sweep witness or concurrence is NaN or infinite")
    cols = (*reals, eof(conc), verdict.entangled.astype(int))
    if args.format == "csv":
        row, text = _CSV_ROW, (CSV_HEADER + "\n", "\n", "\n")
    else:
        row, text = _JSON_ROW, ("[\n", ",\n", "\n]\n")
    pieces = _text_pieces(_sweep_rows(counts, sorted(pairs), keys, cols, row), *text)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise UsageError(f"sweep: cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.writelines(pieces)
    return 0


def _sweep_rows(counts, order, keys, cols, row):
    """One row of text per (alpha^2, pair), repeats kept, from row, a
    template in three parts: alpha^2, pair, and the fields of cols (those
    after the pair in CSV_HEADER order, row k for keys[k]). Each alpha^2,
    and the fields of each group of keys with the same bits in every
    column, are formatted once per point, a block of about SWEEP_CHUNK_ROWS
    rows at a time."""
    # Each key maps to the first key whose fields have its bytes.
    first: dict[bytes, int] = {}
    group = {key: first.setdefault(b"".join(col[k].tobytes() for col in cols), k) for k, key in enumerate(keys)}
    block = max(1, SWEEP_CHUNK_ROWS // len(order))
    for start in range(0, len(counts), block):
        stop = start + block
        tails = {
            k: [row[2] % fields for fields in zip(*(col[k, start:stop].tolist() for col in cols))]
            for k in first.values()
        }
        parts = [(row[1] % pair, tails[group[pair]]) for pair in order]
        for j, (x, n) in enumerate(counts[start:stop]):
            head = row[0] % x
            for pair, tail in parts:
                yield from itertools.repeat(head + pair + tail[j], n)


def _text_pieces(rows, head: str, sep: str, tail: str):
    """head, then the rows joined by sep, then tail, in pieces of
    SWEEP_CHUNK_ROWS rows; an output of one chunk is one piece."""
    chunk = list(itertools.islice(rows, SWEEP_CHUNK_ROWS))
    while chunk:
        following = list(itertools.islice(rows, SWEEP_CHUNK_ROWS))
        yield head + sep.join(chunk) + (sep if following else tail)
        head, chunk = "", following


def _cmd_thresholds(args) -> int:
    s = _settings(args)
    branch = _parse_branch(args.branch)
    payload: dict = {
        "branch": args.branch,
        "grid": s.grid,
        "tol": s.tol,
        "beta_phase": s.beta_phase,
    }
    rows = {
        "rho14": "14:entangled",
        "rho16": "16:entangled",
        "rho46": "46:entangled",
        "rho12": "12:separable",
        "broadcast": "broadcast",
    }
    scans = branch_scan(branch, rows.values(), s.grid, s.tol)
    for key, row in rows.items():
        payload[key] = {"predicate": row.rpartition(":")[2], "intervals": _interval_dicts(scans[row])}
    return _emit_json(payload)


def _cmd_branches(args) -> int:
    s = _settings(args)
    # The outcome distribution depends on the input weight; it is reported at 1/2.
    probabilities = branch_probabilities(0.5)
    payload = []
    for branch in OUTCOME_ORDER:
        scans = branch_scan(branch, ("broadcast", "closed-146"), s.grid, s.tol)
        payload.append(
            {
                "branch": "".join(branch),
                "probability": probabilities[branch],
                "reference_alpha2": 0.5,
                "broadcast_intervals": _interval_dicts(scans["broadcast"]),
                "closed_146_intervals": _interval_dicts(scans["closed-146"]),
            }
        )
    return _emit_json(payload)


def _swap_points(points, sources) -> tuple[list, list]:
    """Bell outcomes and correction plans of branch Q0Q0's rho325, from its
    checked-in table, at each alpha^2 in points, at input phase 0 (the
    phase is a local rotation that no probability or fidelity reads): by
    the teleportation identity, with one fidelity call for the plans that
    do not recover the target exactly and none when all do."""
    rho325 = _rho325(np.array(points))
    return bell_outcomes(rho325), correction_plans(rho325, sources)


def _cmd_swap(args) -> int:
    _settings(args)  # checked, though swap computes at phase 0 and reads no setting
    if not 0.0 < args.alpha2 < 1.0:
        raise UsageError(f"swap: --alpha2 must be in (0, 1), got {args.alpha2}")
    source = "published" if args.corrections in ("paper", "published") else "derived"
    outcomes, (plans,) = _swap_points([args.alpha2], (source,))
    rows = []
    for outcome in outcomes:
        plan = plans[source][outcome.label]
        probability = float(outcome.probability[0])
        row = {"label": outcome.label, "probability": probability, "fidelity": plan.achieved_fidelity}
        if source == "derived":
            row["word"] = plan.word
        rows.append(row)
    return _emit_json({"alpha2": args.alpha2, "corrections": source, "outcomes": rows})


def _alternating_bits(n: int) -> np.ndarray:
    """0, 1, 0, 1, ... as n bools: the bit pattern gv and report send."""
    bits = np.zeros(n, dtype=bool)
    bits[1::2] = True
    return bits


def _cmd_gv(args) -> int:
    s = _settings(args)
    if args.bits < 1:
        raise UsageError(f"gv: --bits must be >= 1, got {args.bits}")
    if args.trials < 1:
        raise UsageError(f"gv: --trials must be >= 1, got {args.trials}")
    if args.bits * args.trials > GV_MAX_BITS:
        raise UsageError(f"gv: --bits x --trials is {args.bits * args.trials}, above {GV_MAX_BITS}")
    strategy = "none" if args.eve == "none" else "intercept_resend"
    config = GvConfig(trials=args.trials, seed=s.seed)
    res = transmit_bits(_alternating_bits(args.bits), strategy, config)
    return _emit_json(
        {
            "strategy": strategy,
            "seed": s.seed,
            "bits_sent": res.bits_sent,
            "bit_errors": res.bit_errors,
            "detection_events": res.detection_events,
            "eve_detected": res.eve_detected,
            "analytic_detection_rate": ANALYTIC_DETECTION_RATE,
        }
    )


# ----------------------------------------------------------------- report


def _line(name: str, computed: str, published: str, marker: str) -> str:
    return f"{name:<46} computed {computed:<24} published {published:<16} {marker}"


class Published(NamedTuple):
    """One report line that sets a computed figure beside a published one.

    source is (branch, branch_scan row), or None for the single-stage
    baseline. A float figure is an edge: the line shows and compares the
    lower end of the row's first interval. A tuple figure lists (lo, hi)
    intervals: the line shows all of the row's intervals and compares the
    ends of the first with the first pair. A str figure is only shown.
    rule is a tolerance on each compared end, "truncated" (the computed
    end cut, not rounded, to two decimals is the published one), or a fixed
    marker: "check" (DIFFERS when the row is empty) or "info".
    """

    name: str
    source: tuple[str, str] | None
    figure: float | tuple | str
    rule: float | str


# The asymmetric branches' published broadcast ranges.
_SPLIT_RANGES = ((0.14, 0.40), (0.60, 1.00))

# Published figures, one entry per report line in the order printed.
# Interval endpoints are quoted to the precision they were stated with.
PUBLISHED = (
    Published("baseline inseparability interval", None, ((0.10969, 0.89031),), 0.002),
    Published("rho16 entangled above", ("Q0Q0", "16:entangled"), 0.18, 0.005),
    # the rho46 threshold (9 + 8 sqrt 3)/37 = 0.6177 cut, not rounded
    Published("rho46 entangled above", ("Q0Q0", "46:entangled"), 0.61, "truncated"),
    Published("rho12 separable above", ("Q0Q0", "12:separable"), 0.27, 0.005),
    # an upper end in [0, 1] cuts to 1.0 only when it is 1.0
    Published("broadcast interval, branch Q0Q0", ("Q0Q0", "broadcast"), ((0.61, 1.0),), "truncated"),
    Published("broadcast interval, branch Q1Q1", ("Q1Q1", "broadcast"), ((0.38, 0.73),), 0.01),
    Published("broadcast interval, branch Q0Q1", ("Q0Q1", "broadcast"), _SPLIT_RANGES, "check"),
    Published("broadcast interval, branch Q1Q0", ("Q1Q0", "broadcast"), _SPLIT_RANGES, "check"),
    # Where the asymmetric branches' separable original-clone pair, entangled
    # original-clone pair and entangled clone-clone pair cross, the
    # published split ranges end.
    Published("  Q0Q1 rho12 separable range", ("Q0Q1", "12:separable"), "boundary 0.60", "info"),
    Published("  Q0Q1 rho34 entangled range", ("Q0Q1", "34:entangled"), "boundary 0.40", "info"),
    Published("  Q0Q1 rho46 entangled range", ("Q0Q1", "46:entangled"), "boundary 0.14", "info"),
    Published("  Q1Q0 rho34 separable range", ("Q1Q0", "34:separable"), "boundary 0.60", "info"),
    Published("  Q1Q0 rho12 entangled range", ("Q1Q0", "12:entangled"), "boundary 0.40", "info"),
    Published("  Q1Q0 rho25 entangled range", ("Q1Q0", "25:entangled"), "boundary 0.14", "info"),
)


def _agrees(rule, published: float, computed: float) -> bool:
    if rule == "truncated":
        return math.floor(computed * 100.0) / 100.0 == published
    return abs(computed - published) <= rule


def _published_line(entry: Published, ends: list) -> str:
    """The report line of one PUBLISHED entry, given the (lo, hi) ends of
    its computed intervals."""
    figure, rule = entry.figure, entry.rule
    edge = isinstance(figure, float)
    if edge:
        computed = f"{ends[0][0]:.6f}" if ends else "no interval"
    else:
        computed = " union ".join(f"({lo:.6f}, {hi:.6f})" for lo, hi in ends) or "none"
    if not ends and (edge or rule == "check"):
        marker = "DIFFERS"
    elif rule in ("check", "info"):
        marker = rule
    else:
        first = (figure,) if edge else figure[0]
        ok = bool(ends) and all(_agrees(rule, pub, got) for pub, got in zip(first, ends[0]))
        how = rule if rule == "truncated" else f"tol {rule}"
        marker = f"{'ok' if ok else 'DIFFERS'} ({how})"
    if isinstance(figure, tuple):
        figure = " u ".join(f"({lo}, {hi})" for lo, hi in figure)
    return _line(entry.name, computed, f"{figure}", marker)


def _cmd_report(args) -> int:
    s = _settings(args)
    out = [f"reproduction report (grid={s.grid}, tol={s.tol}, beta_phase={s.beta_phase})", ""]
    say = out.append

    # One scan per branch answers every row PUBLISHED names on that branch.
    rows: dict[str, dict[str, None]] = {}
    for entry in PUBLISHED:
        if entry.source:
            rows.setdefault(entry.source[0], {})[entry.source[1]] = None
    found = {None: [buzek_baseline(grid=s.grid, tol=s.tol)]}
    for name, names in rows.items():
        scans = branch_scan(_parse_branch(name), names, s.grid, s.tol)
        found.update(((name, row), [(iv.lo, iv.hi) for iv in ivs]) for row, ivs in scans.items())
    ends = {entry.name: found[entry.source] for entry in PUBLISHED}
    out += [_published_line(entry, ends[entry.name]) for entry in PUBLISHED]

    # Concurrence / EoF ranges over the computed rho46 entangled interval,
    # beside the published ranges of rho16 and rho46.
    rho46 = ends["rho46 entangled above"]
    if rho46:
        r_lo, r_hi = rho46[0]
        values = [r_lo + (r_hi - r_lo) * k / 102 for k in range(1, 102)]
        published = {"16": ("[0.17, 0.29]", "[0.06, 0.15]"), "46": ("[0.08, 0.15]", "[0.01, 0.03]")}
        _, conc = pair_verdicts(values, ("Q0", "Q0"), list(published))
        for (pair, (pub_c, pub_e)), samples in zip(published.items(), conc):
            c_min, c_max = float(samples.min()), float(samples.max())
            say(_line(f"concurrence(rho{pair}) over computed interval",
                      f"[{c_min:.4f}, {c_max:.4f}]", pub_c, "report"))
            say(_line(f"eof(rho{pair}) over computed interval",
                      f"[{eof(c_min):.4f}, {eof(c_max):.4f}]", pub_e, "report"))

    # Swapping: outcome statistics and both correction sets.
    points = (0.3, 0.5, 0.8)
    outcomes, plans = _swap_points(points, ("derived", "published"))
    for g, (alpha2, point_plans) in enumerate(zip(points, plans)):
        p_str = ", ".join(f"{o.label} {o.probability[g]:.6f}" for o in outcomes)
        say(_line(f"bell outcome probabilities at alpha2={alpha2}", p_str, "0.25 each", "info"))
        for source, marker in (("derived", "ok"), ("published", "report")):
            fids = ", ".join(f"{k} {p.achieved_fidelity:.6f}" for k, p in point_plans[source].items())
            say(_line(f"  {source}-correction fidelities", fids, "1.0 each", marker))

    # Channel statistics.
    res = transmit_bits(_alternating_bits(10000), "intercept_resend", GvConfig(seed=s.seed))
    rate = res.detection_events / res.bits_sent
    say(_line("channel per-bit detection rate (10^4 bits)", f"{rate:.4f}",
              f"{ANALYTIC_DETECTION_RATE}", "info"))

    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    main()
