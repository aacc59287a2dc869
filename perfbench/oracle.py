"""Output checks from closed forms, never from the program's own output.

`check(op, text)` returns the list of problems found in one operation's
stdout; an empty list means the output is accepted. Values are compared
within the command's bisection tolerance (plus print rounding for the text
report). Sweep rows are checked only away from thresholds, where a verdict
is not decided by roundoff.

Closed forms (alpha^2 is the input weight, T46 = (9 + 8*sqrt(3))/37):
- branch Q0Q0: rho46 entangled above T46, rho16 and rho14 above 9/49,
  rho12 separable above 3/11, broadcast on (T46, 1);
- branch Q1Q1 mirrors Q0Q0 under alpha^2 -> 1 - alpha^2: rho46 below
  1 - T46, rho16 and rho14 below 40/49, rho12 separable below 8/11;
- the asymmetric branches never broadcast;
- the single-stage baseline interval is 1/2 -+ sqrt(39)/16 (Buzek-Hillery);
- Bell outcomes are uniform (qubit 8 of the singlet is maximally mixed),
  derived corrections reach fidelity 1, and the intercept-resend detection
  rate is 5/8.
"""
from __future__ import annotations

import json
import math
import re

from workloads import BRANCHES

SCAN_GRID = 200
SCAN_TOL = 1e-4

T46 = (9.0 + 8.0 * math.sqrt(3.0)) / 37.0
BASELINE = (0.5 - math.sqrt(39.0) / 16.0, 0.5 + math.sqrt(39.0) / 16.0)
DETECTION_RATE = 5.0 / 8.0
BELL_LABELS = ("B1+", "B1-", "B2+", "B2-")

# alpha^2 intervals on which a pair marginal is entangled.
_ENTANGLED = {
    ("Q0Q0", "46"): ((T46, 1.0),),
    ("Q0Q0", "16"): ((9.0 / 49.0, 1.0),),
    ("Q0Q0", "14"): ((9.0 / 49.0, 1.0),),
    ("Q0Q0", "12"): ((0.0, 3.0 / 11.0),),
    ("Q1Q1", "46"): ((0.0, 1.0 - T46),),
    ("Q1Q1", "16"): ((0.0, 40.0 / 49.0),),
    ("Q1Q1", "14"): ((0.0, 40.0 / 49.0),),
    ("Q1Q1", "12"): ((8.0 / 11.0, 1.0),),
}
# The symmetric branches are invariant under the Alice <-> Bob relabelling
# 1 <-> 3, 2 <-> 4, 5 <-> 6, which maps each pair above onto another one.
for (_branch, _pair), _ivs in list(_ENTANGLED.items()):
    _ENTANGLED[(_branch, {"46": "25", "16": "35", "14": "23", "12": "34"}[_pair])] = _ivs

_BROADCAST = {
    "Q0Q0": ((T46, 1.0),),
    "Q0Q1": (),
    "Q1Q0": (),
    "Q1Q1": ((0.0, 1.0 - T46),),
}

# Sweep rows closer than this (in alpha^2) to a closed-form threshold, or
# with a PT minimum eigenvalue smaller than PT_AWAY in magnitude, sit on a
# threshold and are not held to a verdict.
ALPHA_AWAY = 1e-5
PT_AWAY = 1e-7


def check(op, text: str) -> list[str]:
    """Problems in the stdout `text` of operation `op` (empty if none)."""
    checker = {
        "report": _check_report,
        "branches": _check_branches,
        "thresholds": _check_thresholds,
        "sweep": _check_sweep,
    }.get(op.command)
    if checker is None:
        return [f"no oracle for command {op.command!r}"]
    problems: list[str] = []
    try:
        checker(op, text, problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def eof_of(c: float) -> float:
    """Entanglement of formation of a two-qubit state with concurrence c."""
    if c <= 0.0:
        return 0.0
    x = (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    if x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entangled_intervals(branch: str, pair: str):
    """Closed-form entangled set of a pair marginal, or None if unknown."""
    return _ENTANGLED.get((branch, pair))


def _complement(ivs):
    out, lo = [], 0.0
    for a, b in ivs:
        if a > lo:
            out.append((lo, a))
        lo = b
    if lo < 1.0:
        out.append((lo, 1.0))
    return tuple(out)


def _intersect(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return tuple(sorted(out))


def _inside(x: float, ivs) -> bool:
    return any(lo < x < hi for lo, hi in ivs)


def _near_edge(x: float, ivs) -> bool:
    return any(abs(x - e) < ALPHA_AWAY for iv in ivs for e in iv if 0.0 < e < 1.0)


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


def _flag(argv, name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _scan_settings(op) -> tuple[int, float]:
    return int(_flag(op.argv, "--grid", str(SCAN_GRID))), float(_flag(op.argv, "--tol", str(SCAN_TOL)))


def _compare_intervals(what: str, got, want, tol: float, problems: list) -> None:
    if len(got) != len(want):
        problems.append(f"{what}: {len(got)} intervals, expected {len(want)}")
        return
    for (lo, hi), (wlo, whi) in zip(got, want):
        if abs(lo - wlo) > tol or abs(hi - whi) > tol:
            problems.append(f"{what}: ({lo}, {hi}) is not ({wlo:.7f}, {whi:.7f}) within {tol}")


def _json_intervals(entries, predicate: str, tol: float, what: str, problems: list):
    out = []
    for iv in entries:
        if iv["predicate"] != predicate or iv["tolerance"] != tol:
            problems.append(f"{what}: interval labelled {iv['predicate']!r}/{iv['tolerance']}")
        out.append((float(iv["lo"]), float(iv["hi"])))
    return out


# ------------------------------------------------------------ scan commands


def _check_thresholds(op, text, problems):
    grid, tol = _scan_settings(op)
    branch = _flag(op.argv, "--branch", "Q0Q0")
    d = _strict_json(text)
    if (d["branch"], d["grid"], d["tol"]) != (branch, grid, tol):
        problems.append(f"thresholds: settings echo {d['branch']}/{d['grid']}/{d['tol']}")
    if d["beta_phase"] != op.params.get("beta_phase", 0.0):
        problems.append(f"thresholds: beta_phase {d['beta_phase']} was not the configured one")
    for key, predicate in (("rho14", "entangled"), ("rho16", "entangled"),
                           ("rho46", "entangled"), ("rho12", "separable")):
        ent = entangled_intervals(branch, key[3:])
        if ent is None:
            continue
        want = ent if predicate == "entangled" else _complement(ent)
        got = _json_intervals(d[key]["intervals"], predicate, tol, key, problems)
        _compare_intervals(f"thresholds {branch} {key}", got, want, tol, problems)
    got = _json_intervals(d["broadcast"]["intervals"], "broadcast", tol, "broadcast", problems)
    _compare_intervals(f"thresholds {branch} broadcast", got, _BROADCAST[branch], tol, problems)


def _check_branches(op, text, problems):
    _, tol = _scan_settings(op)
    rows = _strict_json(text)
    if [r["branch"] for r in rows] != list(BRANCHES):
        problems.append(f"branches: branch order {[r['branch'] for r in rows]}")
        return
    total = sum(float(r["probability"]) for r in rows)
    if abs(total - 1.0) > 1e-9:
        problems.append(f"branches: outcome probabilities sum to {total}")
    for r in rows:
        name = r["branch"]
        if r["reference_alpha2"] != 0.5:
            problems.append(f"branches {name}: reference_alpha2 {r['reference_alpha2']}")
        got = _json_intervals(r["broadcast_intervals"], "broadcast", tol, name, problems)
        _compare_intervals(f"branches {name} broadcast", got, _BROADCAST[name], tol, problems)
        triple = [entangled_intervals(name, p) for p in ("14", "46", "16")]
        if None not in triple:
            want = _intersect(_intersect(triple[0], triple[1]), triple[2])
            got = _json_intervals(r["closed_146_intervals"], "closed-146", tol, name, problems)
            _compare_intervals(f"branches {name} closed-146", got, want, tol, problems)


# Report lines are "<name padded to 46> computed <value> published <ref> <marker>".
_NAME_WIDTH = 46
_FLOAT = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_PAIR_RE = re.compile(rf"^[(\[]({_FLOAT}), ({_FLOAT})[)\]]$")
_LABELLED_RE = re.compile(rf"(B[12][+-]) ({_FLOAT})")
_HEADER_RE = re.compile(rf"^reproduction report \(grid=(\d+), tol=({_FLOAT}), beta_phase=({_FLOAT})\)$")
# Values in the report carry 6 decimals (4 for the measure ranges).
_ROUND6 = 5e-7
_ROUND4 = 5e-5


def _report_entries(text: str):
    entries: dict[str, list[str]] = {}
    for line in text.splitlines()[2:]:
        name = line[:_NAME_WIDTH].rstrip()
        rest = line[_NAME_WIDTH:]
        if not rest.startswith(" computed ") or " published " not in rest:
            raise ValueError(f"unparseable report line {line!r}")
        computed = rest[len(" computed "):].split(" published ", 1)[0].strip()
        entries.setdefault(name, []).append(computed)
    return entries


def _pair(s: str) -> tuple[float, float]:
    m = _PAIR_RE.match(s)
    if not m:
        raise ValueError(f"expected an interval, got {s!r}")
    return float(m.group(1)), float(m.group(2))


def _labelled(s: str) -> dict[str, float]:
    found = dict((k, float(v)) for k, v in _LABELLED_RE.findall(s))
    if tuple(found) != BELL_LABELS:
        raise ValueError(f"expected values for {BELL_LABELS}, got {s!r}")
    return found


def _one(entries, name: str, count: int = 1) -> list[str]:
    got = entries.get(name, [])
    if len(got) != count:
        raise ValueError(f"report line {name!r} appears {len(got)} times, expected {count}")
    return got


def _check_report(op, text, problems):
    grid, tol = _scan_settings(op)
    header = _HEADER_RE.match(text.splitlines()[0])
    if not header:
        raise ValueError("report header missing")
    if (int(header.group(1)), float(header.group(2))) != (grid, tol):
        problems.append(f"report: settings echo grid={header.group(1)} tol={header.group(2)}")
    if float(header.group(3)) != op.params.get("beta_phase", 0.0):
        problems.append(f"report: beta_phase {header.group(3)} was not the configured one")
    entries = _report_entries(text)
    ptol = tol + _ROUND6

    lo, hi = _pair(_one(entries, "baseline inseparability interval")[0])
    _compare_intervals("report baseline", [(lo, hi)], [BASELINE], ptol, problems)
    for name, want in (("rho16 entangled above", 9.0 / 49.0), ("rho46 entangled above", T46),
                       ("rho12 separable above", 3.0 / 11.0)):
        got = float(_one(entries, name)[0])
        if abs(got - want) > ptol:
            problems.append(f"report {name}: {got} is not {want:.7f} within {tol}")
    for branch in BRANCHES:
        got_s = _one(entries, f"broadcast interval, branch {branch}")[0]
        got = [] if got_s == "none" else [_pair(p) for p in got_s.split(" union ")]
        _compare_intervals(f"report {branch} broadcast", got, _BROADCAST[branch], ptol, problems)

    for pair in ("16", "46"):
        c_lo, c_hi = _pair(_one(entries, f"concurrence(rho{pair}) over computed interval")[0])
        e_lo, e_hi = _pair(_one(entries, f"eof(rho{pair}) over computed interval")[0])
        if not 0.0 < c_lo <= c_hi <= 1.0:
            problems.append(f"report rho{pair}: concurrence range [{c_lo}, {c_hi}] on an entangled interval")
        for c, e in ((c_lo, e_lo), (c_hi, e_hi)):
            lo_e = eof_of(max(0.0, c - _ROUND4)) - _ROUND4
            hi_e = eof_of(min(1.0, c + _ROUND4)) + _ROUND4
            if not lo_e <= e <= hi_e:
                problems.append(f"report rho{pair}: eof {e} does not match concurrence {c}")

    for alpha2 in ("0.3", "0.5", "0.8"):
        for label, p in _labelled(_one(entries, f"bell outcome probabilities at alpha2={alpha2}")[0]).items():
            if abs(p - 0.25) > _ROUND6:
                problems.append(f"report: Bell outcome {label} probability {p} at alpha2={alpha2}")
    for s in _one(entries, "  derived-correction fidelities", 3):
        for label, f in _labelled(s).items():
            if abs(f - 1.0) > _ROUND6:
                problems.append(f"report: derived correction {label} fidelity {f}")
    for s in _one(entries, "  published-correction fidelities", 3):
        for label, f in _labelled(s).items():
            if not 0.0 <= f <= 1.0 + _ROUND6:
                problems.append(f"report: published correction {label} fidelity {f}")

    rate = float(_one(entries, "channel per-bit detection rate (10^4 bits)")[0])
    _check_rate("report detection rate", rate, DETECTION_RATE, 10_000, _ROUND4, problems)


def _check_rate(what: str, got: float, p: float, n: int, slack: float, problems: list) -> None:
    sigma = math.sqrt(p * (1.0 - p) / n)
    if abs(got - p) > 5.0 * sigma + slack:
        problems.append(f"{what}: {got} is more than 5 sigma from {p}")


# -------------------------------------------------------------------- sweep


def _check_sweep(op, text, problems):
    p = op.params
    rows = _strict_json(text)
    steps, span = p["steps"], p["to"] - p["from"]
    # The points as the CLI spaces them (the workloads use steps >= 2).
    xs = [p["from"] + i * span / (steps - 1) for i in range(steps)]
    want = sorted((x, pair) for x in xs for pair in p["pairs"])
    got = [(r["alpha2"], r["pair"]) for r in rows]
    if got != want:
        problems.append(f"sweep: {len(got)} rows do not match the {len(want)} requested (alpha2, pair) points")
        return
    keys = {"alpha2", "pair", "min_pt_eigenvalue", "w3", "w4", "concurrence", "eof", "entangled"}
    for r in rows:
        where = f"sweep {p['branch']} rho{r['pair']} at {r['alpha2']}"
        if set(r) != keys or r["entangled"] not in (0, 1):
            problems.append(f"{where}: malformed row {r}")
            continue
        lam, c, ent = r["min_pt_eigenvalue"], r["concurrence"], bool(r["entangled"])
        if not 0.0 <= c <= 1.0 or abs(r["eof"] - eof_of(c)) > 1e-9:
            problems.append(f"{where}: eof {r['eof']} does not match concurrence {c}")
        if abs(lam) > PT_AWAY:
            if ent != (lam < 0.0):
                problems.append(f"{where}: verdict {int(ent)} disagrees with PT eigenvalue {lam}")
            if ent != (c > 0.0):
                problems.append(f"{where}: verdict {int(ent)} disagrees with concurrence {c}")
        ivs = entangled_intervals(p["branch"], r["pair"])
        if ivs is not None and not _near_edge(r["alpha2"], ivs) and ent != _inside(r["alpha2"], ivs):
            problems.append(f"{where}: verdict {int(ent)} contradicts the closed-form threshold")

