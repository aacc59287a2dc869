"""Command-line front end: baseline interval, marginal sweeps, threshold
scans, per-branch reports, swap verification, channel statistics, and the
full computed-vs-published reproduction report.

Exit codes: 0 success, 2 usage error, 1 numerical contract violation.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .cloner import OUTCOME_ORDER, buzek_baseline
from .constants import SCAN_GRID, SCAN_TOL
from .entanglement import concurrence, eof, ppt_verdict
from .errors import ContractError
from .gvchannel import ANALYTIC_DETECTION_RATE, GvConfig, transmit_bits
from .protocol import PAIR_KEYS, branch_marginal, branch_probabilities, branch_scan, pair_marginals
from .swap import bsm, correction_plans, swap_extend

__all__ = ["main", "run_command", "CSV_HEADER", "PUBLISHED"]

CSV_HEADER = "alpha2,pair,min_pt_eigenvalue,w3,w4,concurrence,eof,entangled"

BRANCH_NAMES = tuple("".join(b) for b in OUTCOME_ORDER)

# Most bits one gv call sends (--bits times --trials): each is held as a
# Python int, and the sequence is repeated in memory once per trial.
GV_MAX_BITS = 10**6

# Published reference values the report compares against. Interval endpoints
# are quoted to the precision they were stated with.
PUBLISHED = {
    "baseline": (0.10969, 0.89031),
    "rho16_lo": 0.18,
    "rho46_lo": 0.61,
    "rho12_sep_lo": 0.27,
    "broadcast_q0q0": (0.61, 1.0),
    "broadcast_q1q1": (0.38, 0.73),
    "asym_low_range": (0.14, 0.40),
    "asym_high_range": (0.60, 1.00),
    "c16_range": (0.17, 0.29),
    "c46_range": (0.08, 0.15),
    "eof16_range": (0.06, 0.15),
    "eof46_range": (0.01, 0.03),
}


class UsageError(Exception):
    """Bad flags or config content; mapped to exit code 2."""


@dataclass(frozen=True)
class SweepRow:
    alpha2: float
    pair: str
    min_pt_eigenvalue: float
    w3: float
    w4: float
    concurrence: float
    eof: float
    entangled: int


@dataclass(frozen=True)
class Settings:
    tol: float
    grid: int
    beta_phase: float
    seed: int


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


def run_command(argv) -> int:
    parser = _build_parser()
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbroadcast",
        description="Secret broadcasting of three-qubit entanglement: "
        "reproduction tables and protocol simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cfg = argparse.ArgumentParser(add_help=False)
    cfg.add_argument(
        "--config",
        metavar="PATH",
        help="key=value file overriding defaults (keys: tol, grid, beta_phase, seed)",
    )
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--tol", type=float, help=f"bisection tolerance (default {SCAN_TOL})")
    scan.add_argument("--grid", type=int, help=f"coarse grid size (default {SCAN_GRID})")

    p = sub.add_parser(
        "baseline",
        parents=[cfg, scan],
        help="inseparability interval of the single-stage nonlocal pair",
    )
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("sweep", parents=[cfg], help="per-pair PPT/concurrence table over alpha^2")
    p.add_argument("--pairs", required=True, help=f"comma list from: {','.join(PAIR_KEYS)}")
    p.add_argument("--branch", choices=BRANCH_NAMES, default="Q0Q0")
    p.add_argument("--from", dest="from_", type=float, required=True, metavar="A")
    p.add_argument("--to", dest="to", type=float, required=True, metavar="B")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--beta-phase", dest="beta_phase", type=float, help="phase of beta in radians")
    p.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("thresholds", parents=[cfg, scan], help="entanglement thresholds for one branch")
    p.add_argument("--branch", choices=BRANCH_NAMES, default="Q0Q0")
    p.set_defaults(handler=_cmd_thresholds)

    p = sub.add_parser("branches", parents=[cfg, scan], help="broadcast ranges for all four branches")
    p.set_defaults(handler=_cmd_branches)

    p = sub.add_parser("swap", parents=[cfg], help="Bell-measurement outcomes and recovery fidelities")
    p.add_argument("--alpha2", type=float, required=True)
    p.add_argument(
        "--corrections",
        choices=("derived", "published", "paper"),
        default="derived",
        help="correction set to verify (paper is an alias for published)",
    )
    p.set_defaults(handler=_cmd_swap)

    p = sub.add_parser("gv", parents=[cfg], help="secret channel statistics")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--eve", choices=("none", "intercept"), default="none")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(handler=_cmd_gv)

    p = sub.add_parser("report", parents=[cfg, scan], help="full computed-vs-published reproduction report")
    p.set_defaults(handler=_cmd_report)

    return parser


def _load_config(path: str) -> dict:
    keys = {"tol": float, "grid": int, "beta_phase": float, "seed": int}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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
    tol = getattr(args, "tol", None)
    grid = getattr(args, "grid", None)
    beta_phase = getattr(args, "beta_phase", None)
    seed = getattr(args, "seed", None)
    s = Settings(
        tol=tol if tol is not None else cfg.get("tol", SCAN_TOL),
        grid=grid if grid is not None else cfg.get("grid", SCAN_GRID),
        beta_phase=beta_phase if beta_phase is not None else cfg.get("beta_phase", 0.0),
        seed=seed if seed is not None else cfg.get("seed", 0),
    )
    for name in ("tol", "beta_phase"):
        if not math.isfinite(getattr(s, name)):
            raise UsageError(f"{name} must be finite, got {getattr(s, name)}")
    if s.tol <= 0:
        raise UsageError(f"tol must be positive, got {s.tol}")
    if s.grid < 50:
        raise UsageError(f"grid must be at least 50, got {s.grid}")
    if s.seed < 0:
        raise UsageError(f"seed must be >= 0, got {s.seed}")
    return s


def _parse_branch(name: str) -> tuple[str, str]:
    return (name[:2], name[2:])


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json_text(payload) -> str:
    """Strict JSON: a NaN or infinity in a result is a numerical fault."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ContractError(f"result is not finite: {exc}") from None


def _emit_json(payload) -> int:
    sys.stdout.write(_json_text(payload))
    return 0


def _clamp_alpha2(x: float) -> float:
    """The marginals take alpha^2 in the open interval (0, 1), so the edges
    0 and 1 are evaluated at 1e-9 and 1 - 1e-9; every other value as it is."""
    return 1e-9 if x == 0.0 else 1.0 - 1e-9 if x == 1.0 else x


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
    s = _settings(args)
    pairs = [p.strip() for p in args.pairs.split(",") if p.strip()]
    if not pairs:
        raise UsageError("sweep: --pairs is empty")
    for pair in pairs:
        if pair not in PAIR_KEYS:
            raise UsageError(f"sweep: unknown pair {pair!r} (choose from {', '.join(PAIR_KEYS)})")
    if args.steps < 1:
        raise UsageError("sweep: --steps must be >= 1")
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

    # One stack of the distinct pairs at all alpha^2 points, solved together.
    stack, runs = pair_marginals([_clamp_alpha2(x) for x in values], branch, pairs, s.beta_phase)
    verdict = ppt_verdict(stack)
    conc = concurrence(stack)
    rows: list[SweepRow] = []
    for pair in pairs:
        for i, x in enumerate(values, start=runs[pair].start):
            rows.append(
                SweepRow(
                    alpha2=x,
                    pair=pair,
                    min_pt_eigenvalue=float(verdict.min_pt_eigenvalue[i]),
                    w3=float(verdict.w3[i]),
                    w4=float(verdict.w4[i]),
                    concurrence=float(conc[i]),
                    eof=eof(float(conc[i])),
                    entangled=int(verdict.entangled[i]),
                )
            )
    rows.sort(key=lambda r: (r.alpha2, r.pair))

    if args.format == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(
                ",".join(
                    (
                        _fmt(r.alpha2),
                        r.pair,
                        _fmt(r.min_pt_eigenvalue),
                        _fmt(r.w3),
                        _fmt(r.w4),
                        _fmt(r.concurrence),
                        _fmt(r.eof),
                        str(r.entangled),
                    )
                )
            )
        text = "\n".join(lines) + "\n"
    else:
        payload = [
            {
                "alpha2": r.alpha2,
                "pair": r.pair,
                "min_pt_eigenvalue": r.min_pt_eigenvalue,
                "w3": r.w3,
                "w4": r.w4,
                "concurrence": r.concurrence,
                "eof": r.eof,
                "entangled": r.entangled,
            }
            for r in rows
        ]
        text = _json_text(payload)

    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"sweep: cannot write {args.out}: {exc}") from None
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


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
    scans = branch_scan(branch, rows.values(), s.beta_phase, s.grid, s.tol)
    for key, row in rows.items():
        payload[key] = {"predicate": row.rpartition(":")[2], "intervals": _interval_dicts(scans[row])}
    return _emit_json(payload)


def _cmd_branches(args) -> int:
    s = _settings(args)
    # The outcome distribution depends on the input weight; it is reported at 1/2.
    probabilities = branch_probabilities(0.5, s.beta_phase)
    payload = []
    for branch in OUTCOME_ORDER:
        scans = branch_scan(branch, ("broadcast", "closed-146"), s.beta_phase, s.grid, s.tol)
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


def _cmd_swap(args) -> int:
    s = _settings(args)
    if not 0.0 < args.alpha2 < 1.0:
        raise UsageError(f"swap: --alpha2 must be in (0, 1), got {args.alpha2}")
    source = "published" if args.corrections in ("paper", "published") else "derived"
    rho325 = branch_marginal(args.alpha2, ("Q0", "Q0"), "325", s.beta_phase)
    outcomes = bsm(swap_extend(rho325))
    plans = correction_plans(rho325, (source,), outcomes)[source]
    rows = []
    for outcome in outcomes:
        plan = plans[outcome.label]
        row = {"label": outcome.label, "probability": outcome.probability, "fidelity": plan.achieved_fidelity}
        if source == "derived":
            row["word"] = plan.word
        rows.append(row)
    return _emit_json({"alpha2": args.alpha2, "corrections": source, "outcomes": rows})


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
    pattern = [i % 2 for i in range(args.bits)]
    res = transmit_bits(pattern, strategy, config)
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


def _near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _truncates(published: float, value: float) -> bool:
    """published is value cut (not rounded) to two decimals."""
    return math.floor(value * 100.0) / 100.0 == published


def _fmt_ivs(intervals) -> str:
    if not intervals:
        return "none"
    return " union ".join(f"({iv.lo:.6f}, {iv.hi:.6f})" for iv in intervals)


# Rows the report reads from each branch's scan. After the broadcast row,
# the asymmetric branches list the separable original-clone pair, the
# entangled original-clone pair and the entangled clone-clone pair.
_REPORT_ROWS = {
    "Q0Q0": ("broadcast", "16:entangled", "46:entangled", "12:separable"),
    "Q1Q1": ("broadcast",),
    "Q0Q1": ("broadcast", "12:separable", "34:entangled", "46:entangled"),
    "Q1Q0": ("broadcast", "34:separable", "12:entangled", "25:entangled"),
}


def _cmd_report(args) -> int:
    s = _settings(args)
    out: list[str] = []
    say = out.append

    say(f"reproduction report (grid={s.grid}, tol={s.tol}, beta_phase={s.beta_phase})")
    say("")

    # Single-stage baseline.
    lo, hi = buzek_baseline(grid=s.grid, tol=s.tol)
    pub_lo, pub_hi = PUBLISHED["baseline"]
    marker = "ok" if _near(lo, pub_lo, 0.002) and _near(hi, pub_hi, 0.002) else "DIFFERS"
    say(_line("baseline inseparability interval", f"({lo:.6f}, {hi:.6f})",
              f"({pub_lo}, {pub_hi})", f"{marker} (tol 0.002)"))

    # One scan per branch: the main-branch pair thresholds, every branch's
    # broadcast verdict, and the asymmetric branches' per-pair crossings the
    # published split ranges correspond to.
    scans = {
        name: branch_scan(_parse_branch(name), rows, s.beta_phase, s.grid, s.tol)
        for name, rows in _REPORT_ROWS.items()
    }
    branch = ("Q0", "Q0")

    # 0.61 is the rho46 threshold (9 + 8 sqrt 3)/37 = 0.6177 cut, not
    # rounded, to two decimals
    near = (lambda pub, got: _near(got, pub, 0.005), "tol 0.005")
    cut = (_truncates, "truncated")
    for row, pub_key, (same, how) in (
        ("16:entangled", "rho16_lo", near),
        ("46:entangled", "rho46_lo", cut),
        ("12:separable", "rho12_sep_lo", near),
    ):
        pair, _, predicate = row.partition(":")
        what = f"rho{pair} {predicate} above"
        ivs = scans["Q0Q0"][row]
        pub = PUBLISHED[pub_key]
        if ivs:
            got = ivs[0].lo
            marker = "ok" if same(pub, got) else "DIFFERS"
            say(_line(what, f"{got:.6f}", f"{pub}", f"{marker} ({how})"))
        else:
            say(_line(what, "no interval", f"{pub}", "DIFFERS"))

    q0q0 = scans["Q0Q0"]["broadcast"]
    pub = PUBLISHED["broadcast_q0q0"]
    if len(q0q0) == 1 and _truncates(pub[0], q0q0[0].lo) and q0q0[0].hi == pub[1]:
        marker = "ok"
    else:
        marker = "DIFFERS"
    say(_line("broadcast interval, branch Q0Q0", _fmt_ivs(q0q0),
              f"({pub[0]}, {pub[1]})", f"{marker} (truncated)"))

    q1q1 = scans["Q1Q1"]["broadcast"]
    pub = PUBLISHED["broadcast_q1q1"]
    if q1q1 and _near(q1q1[0].lo, pub[0], 0.01) and _near(q1q1[0].hi, pub[1], 0.01):
        marker = "ok"
    else:
        marker = "DIFFERS"
    say(_line("broadcast interval, branch Q1Q1", _fmt_ivs(q1q1),
              f"({pub[0]}, {pub[1]})", f"{marker} (tol 0.01)"))

    asymmetric = ("Q0Q1", "Q1Q0")
    for name in asymmetric:
        ivs = scans[name]["broadcast"]
        lo_r = PUBLISHED["asym_low_range"]
        hi_r = PUBLISHED["asym_high_range"]
        marker = "DIFFERS" if not ivs else "check"
        say(_line(f"broadcast interval, branch {name}", _fmt_ivs(ivs),
                  f"({lo_r[0]}, {lo_r[1]}) u ({hi_r[0]}, {hi_r[1]})", marker))

    for name in asymmetric:
        for row, boundary in zip(_REPORT_ROWS[name][1:], ("0.60", "0.40", "0.14")):
            pair, _, predicate = row.partition(":")
            say(_line(f"  {name} rho{pair} {predicate} range", _fmt_ivs(scans[name][row]),
                      f"boundary {boundary}", "info"))

    # Concurrence / EoF ranges over the computed rho46 entangled interval.
    rho46 = scans["Q0Q0"]["46:entangled"]
    if rho46:
        r_lo, r_hi = rho46[0].lo, rho46[0].hi
        values = [r_lo + (r_hi - r_lo) * k / 102 for k in range(1, 102)]
        for pair, c_key, e_key in (("16", "c16_range", "eof16_range"), ("46", "c46_range", "eof46_range")):
            samples = concurrence(branch_marginal(values, branch, pair, s.beta_phase))
            c_min, c_max = float(samples.min()), float(samples.max())
            e_min, e_max = eof(c_min), eof(c_max)
            pub_c = PUBLISHED[c_key]
            pub_e = PUBLISHED[e_key]
            say(_line(f"concurrence(rho{pair}) over computed interval",
                      f"[{c_min:.4f}, {c_max:.4f}]", f"[{pub_c[0]}, {pub_c[1]}]", "report"))
            say(_line(f"eof(rho{pair}) over computed interval",
                      f"[{e_min:.4f}, {e_max:.4f}]", f"[{pub_e[0]}, {pub_e[1]}]", "report"))

    # Swapping: outcome statistics and both correction sets.
    for alpha2 in (0.3, 0.5, 0.8):
        rho325 = branch_marginal(alpha2, branch, "325", s.beta_phase)
        outcomes = bsm(swap_extend(rho325))
        p_str = ", ".join(f"{o.label} {o.probability:.6f}" for o in outcomes)
        say(_line(f"bell outcome probabilities at alpha2={alpha2}", p_str, "0.25 each", "info"))
        plans = correction_plans(rho325, ("derived", "published"), outcomes)
        # correction_plans raises unless every derived plan reaches fidelity 1.
        for source, marker in (("derived", "ok"), ("published", "report")):
            fids = ", ".join(f"{k} {p.achieved_fidelity:.6f}" for k, p in plans[source].items())
            say(_line(f"  {source}-correction fidelities", fids, "1.0 each", marker))

    # Channel statistics.
    res = transmit_bits([i % 2 for i in range(10000)], "intercept_resend", GvConfig(seed=s.seed))
    rate = res.detection_events / res.bits_sent
    say(_line("channel per-bit detection rate (10^4 bits)", f"{rate:.4f}",
              f"{ANALYTIC_DETECTION_RATE}", "info"))

    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    main()
