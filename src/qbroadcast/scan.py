"""Threshold scans on exact signs: the alpha^2 intervals on which a pair
of a branch is entangled or separable, the branch broadcasts, or rho146 is
closed, and the single-round baseline interval.

branch_scan is the package's one scan. A pair's verdict at a float x is the
exact sign of two integer quadratics of the pair tables
(tables._pair_signs), read on Python integers. The scan finds where each
quadratic flips along a grid (_sign_changes, searched once per quadratic
and grid in a process), bisects each edge of a row on its own (_bisect) and
builds each row's intervals (_intervals). No verdict reads the input phase.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple

from .constants import SCAN_GRID, SCAN_TOL
from .errors import ContractError
from .measures import _broadcast_pairs
from .tables import _as_branch, _pair_signs

__all__ = ["ThresholdInterval", "branch_scan", "buzek_baseline"]


class ThresholdInterval(NamedTuple):
    """alpha^2 interval on which a row of branch_scan holds.

    Inner endpoints are the midpoints _bisect ends on, within `tolerance`
    (the setting, or float spacing where that is wider) of where the row
    changes. An end of 0.0 or 1.0 is the domain end, not a located change:
    the scan sees no change between its outermost grid point and the
    domain end. A pair row's predicate is "lowest PT eigenvalue <
    -PPT_TOL", and that dead band moves the change off the algebraic
    threshold: at tol 1e-300 Q0Q0's pair 12 turns separable at
    0.27272727205289..., 6.7e-10 below 3/11, and Q0Q0's broadcast and pair
    14 rows, printed up to 1.0, fail within 1e-9 of it.
    """

    lo: float
    hi: float
    tolerance: float
    predicate_name: str


def _scan_row(name: str, keys) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The pairs that must be entangled and those that must be separable
    for the row named `name` to hold; ValueError for an unknown row or one
    that reads other pairs than `keys`."""
    if name == "broadcast":
        separable, entangled = _broadcast_pairs(("1", "2", "5"), ("3", "4", "6"))
        row = tuple(x + y for x, y in entangled), tuple(x + y for x, y in separable)
    elif name == "closed-146":
        # rho146 is closed when its pairs (1,4), (4,6) and (1,6) are all entangled
        row = ("14", "46", "16"), ()
    else:
        key, _, predicate = name.partition(":")
        if predicate not in ("entangled", "separable"):
            raise ValueError(f"branch_scan: unknown row {name!r}")
        row = ((key,), ()) if predicate == "entangled" else ((), (key,))
    if not set(row[0] + row[1]) <= set(keys):
        raise ValueError(f"branch_scan: unknown row {name!r}")
    return row


def _negative(f: tuple[int, int, int], x: float) -> bool:
    """Whether c0 + c1*x + c2*x^2 < 0 at the float x, exactly: with
    x = m/e, the sign of c0*e^2 + c1*m*e + c2*m^2."""
    m, e = x.as_integer_ratio()
    return (f[0] * e + f[1] * m) * e + f[2] * m * m < 0


# Bounded: the pair tables hold 23 distinct quadratics (and the first round
# two more), searched at each grid a process scans at.
@lru_cache(maxsize=256)
def _sign_changes(f: tuple[int, int, int], grid: int) -> tuple[bool, tuple[int, ...], int]:
    """Where f < 0 flips along the grid x_k = k / (grid + 1), k = 1..grid:
    (f < 0 at x_1, the k whose flag differs at k + 1, and the vertex cell
    s, the last k with x_k at or left of f's vertex; grid for a line).

    f is monotone on 1..s and on s + 1..grid, so each side flips at most
    once, and a binary search finds where: O(log grid) exact signs. Each
    (f, grid) is searched once per process; the result is immutable.
    """
    c0, c1, c2 = f
    s = grid
    if c2:
        # the vertex num/den, den > 0; x_k <= num/den is m*den <= num*e
        num, den = (-c1, 2 * c2) if c2 > 0 else (c1, -2 * c2)

        def left(k):
            m, e = (k / (grid + 1)).as_integer_ratio()
            return m * den <= num * e

        s = min(max(num * (grid + 1) // den, 0), grid)
        while s > 0 and not left(s):
            s -= 1
        while s < grid and left(s + 1):
            s += 1
    value: dict[int, bool] = {}

    def negative(k):
        if k not in value:
            value[k] = _negative(f, k / (grid + 1))
        return value[k]

    ends = sorted({k for k in (1, s, s + 1, grid) if 1 <= k <= grid})
    flips = []
    for lo, hi in zip(ends, ends[1:]):
        start = negative(lo)
        if negative(hi) != start:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if negative(mid) == start else (lo, mid)
            flips.append(lo)
    return negative(1), tuple(flips), s


def _bisect(a: float, b: float, start: bool, tol: float, holds) -> float:
    """Where a row changes between a and b (start its value at a): the
    midpoint (a + b) / 2.0 a one-step bisection ends on. Each step reads
    holds(mid) and keeps the half whose ends differ; the edge closes when
    it is no wider than tol, or when its midpoint is one of its ends (a and
    b are adjacent floats), so every positive tol ends."""
    mid = (a + b) / 2.0
    while b - a > tol and a < mid < b:
        if holds(mid) == start:
            a = mid
        else:
            b = mid
        mid = (a + b) / 2.0
    return mid


def _intervals(first: bool, cuts: list[float], tol: float, name: str) -> list[ThresholdInterval]:
    """A row's intervals from its edges in order, which alternate between
    entries and exits, starting with an exit when the row holds (`first`)
    at the first grid point. A row with no edge has (0, 1) when it holds
    at every grid point and no interval when it holds at none."""
    cuts = [0.0, *cuts, 1.0]
    start = 0 if first else 1
    return [ThresholdInterval(lo, hi, tol, name) for lo, hi in zip(cuts[start::2], cuts[start + 1::2])]


def _require_scan_settings(grid, tol: float) -> int:
    """grid as an int; ContractError unless it is an integer >= 50 (through
    operator.index, so no float gets in) and tol is a positive, finite
    number (a string or None compares with no float)."""
    try:
        number = operator.index(grid)
        valid = number >= 50 and 0.0 < tol < float("inf")
    except TypeError:
        valid = False
    if not valid:
        raise ContractError(f"scan: grid {grid!r} must be an integer >= 50 and tol {tol!r} positive and finite")
    return number


def branch_scan(
    branch,
    names,
    grid: int = SCAN_GRID,
    tol: float = SCAN_TOL,
) -> dict[str, list[ThresholdInterval]]:
    """alpha^2 intervals of one branch for each named row, from one scan.

    A row is "<pair>:entangled" or "<pair>:separable" for a pair in
    PAIR_KEYS, "broadcast" (broadcast_holds) or "closed-146" (pairs 14, 46
    and 16 all entangled); branch None, the first round with the machines
    traced out, has the pair rows on qubits 1 to 4. All rows are checked
    before any point is tested. Pair rows' intervals are named by their
    predicate ("entangled" or "separable"). No verdict depends on the input
    phase.

    The grid is the points k / (grid + 1), k = 1..grid; each flip of a row
    between grid neighbours is an edge, which _bisect refines to tol. The
    verdicts are exact signs of the pairs' quadratics (_pair_signs) at
    those floats. Between the quadratics' flips along the grid
    (_sign_changes) every row is constant, so only the cells where some
    quadratic flips are visited.
    """
    quads, pairs = _pair_signs(_as_branch(branch))
    names = tuple(names)
    rows = [tuple(tuple(pairs[key] for key in keys) for keys in _scan_row(name, pairs)) for name in names]
    grid = _require_scan_settings(grid, tol)

    def holds(row, value) -> bool:
        entangled, separable = row
        return all(value[i] or value[j] for i, j in entangled) and not any(value[i] or value[j] for i, j in separable)

    # value[q]: whether quadratic q is negative at the grid point reached
    value, flips, live = [], {}, {}
    for q, f in enumerate(quads):
        negative, changes, s = _sign_changes(f, grid)
        value.append(negative)
        for k in changes:
            flips.setdefault(k, []).append(q)
        if f[2] and 0 < s < grid:
            live.setdefault(s, []).append(q)
    # Each probe lies strictly inside one cell, so x alone keys its values.
    probed: dict[float, list[bool]] = {}

    def values(x, cell, at_k):
        """Every quadratic's sign at x in the cell of x_k: those in `cell`
        (they flip or have their vertex in it) evaluated, the rest as at x_k."""
        if x not in probed:
            probed[x] = [_negative(quads[q], x) if q in cell else v for q, v in enumerate(at_k)]
        return probed[x]

    first = was = [holds(row, value) for row in rows]
    per_row: list[list[float]] = [[] for _ in rows]
    for k in sorted(flips):
        cell = set(flips[k] + live.get(k, []))
        at_k = value[:]
        for q in flips[k]:
            value[q] = not value[q]
        now = [holds(row, value) for row in rows]
        for row, cuts, held, changed in zip(rows, per_row, was, now):
            if held != changed:
                cuts.append(_bisect(k / (grid + 1), (k + 1) / (grid + 1), held, tol,
                                    lambda x: holds(row, values(x, cell, at_k))))
        was = now
    return {name: _intervals(held, c, tol, name.rpartition(":")[2]) for name, held, c in zip(names, first, per_row)}


def buzek_baseline(grid: int = SCAN_GRID, tol: float = SCAN_TOL) -> tuple[float, float]:
    """(lo, hi) in alpha^2 of the one inseparability interval of the
    single-stage nonlocal pair (1,4): the first-round row "14:entangled" of
    branch_scan, whose machines are traced out rather than measured, the
    convention the two-qubit broadcasting bound is stated in."""
    intervals = branch_scan(None, ("14:entangled",), grid, tol)["14:entangled"]
    if len(intervals) != 1:
        raise ContractError(f"buzek_baseline: expected one inseparability interval, found {len(intervals)}")
    return (intervals[0].lo, intervals[0].hi)
