"""Separability tests and entanglement measures for two-qubit operators,
plus threshold scanning over the input weight alpha^2.

The partial-transpose eigenvalue test is the authoritative verdict
(ppt_entangled, which scans use). ppt_verdict computes the W3 and W4
determinants of the transposed operator alongside it as a cross-check; for
two qubits a negative W4 is equivalent to a negative eigenvalue, while W3
can only go negative when the state is entangled.

The tests and measures take one operator or a stack of them (a DensityOp
with a leading stack axis) and answer with numbers or with arrays of the
same length. Scans evaluate their predicate on whole arrays of alpha^2
values, so a grid is one stacked evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import PPT_TOL, SCAN_GRID, SCAN_TOL
from .errors import ContractError
from .linalg import dagger, det_complex, eig_hermitian, sqrt_psd
from .qstate import DensityOp, partial_trace, partial_transpose

__all__ = [
    "PPTVerdict",
    "MeasureReport",
    "ThresholdInterval",
    "ppt_entangled",
    "ppt_verdict",
    "ppt_verdicts",
    "concurrence",
    "eof",
    "measure_report",
    "scan_predicate",
    "scan_predicates",
    "scan_threshold",
    "classify_triple",
    "broadcast_holds",
    "broadcast_verdict",
]

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# Largest number of alpha^2 points a scan tests in one call, so that the
# stacks a fine grid builds stay a few megabytes.
_SCAN_CHUNK = 4096


@dataclass(frozen=True)
class PPTVerdict:
    """Separability verdict for one two-qubit operator; for a stack, each
    field is an array with one entry per member."""

    min_pt_eigenvalue: float
    w3: float
    w4: float
    entangled: bool


@dataclass(frozen=True)
class MeasureReport:
    concurrence: float
    eof: float


@dataclass(frozen=True)
class ThresholdInterval:
    """Maximal alpha^2 interval on which a predicate holds.

    Endpoints are bisection midpoints accurate to `tolerance` (the setting,
    or float spacing where that is wider); 0.0 and 1.0 mark the domain edge.
    """

    lo: float
    hi: float
    tolerance: float
    predicate_name: str


def _require_two_qubits(rho: DensityOp, op: str) -> None:
    if rho.register.dims != (2, 2):
        raise ContractError(f"{op}: expected a two-qubit operator, got dims {rho.register.dims}")


def _real_det(mats: np.ndarray, what: str) -> np.ndarray:
    d = det_complex(mats)
    residue = float(np.max(np.abs(d.imag))) if d.size else 0.0
    if residue > 1e-10:
        raise ContractError(f"ppt_verdict: {what} has imaginary residue {residue:.3e}")
    return d.real


def _pt_rule(rhos: Sequence[DensityOp]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The PPT verdict rule for two-qubit operators, or stacks of one length:
    their partial transposes over the second subsystem, stacked (m, 4, 4);
    the smallest eigenvalue of each, from one eigen-solve; and whether it
    lies below -PPT_TOL. The last two are shaped (len(rhos),) + stack shape.
    """
    for rho in rhos:
        _require_two_qubits(rho, "ppt_verdict")
    lead = rhos[0].matrix.shape[:-2]
    if any(rho.matrix.shape[:-2] != lead for rho in rhos):
        raise ContractError("ppt_verdict: operators stacked together must share one stack length")
    pts = np.stack([partial_transpose(rho, rho.register.labels[1]) for rho in rhos]).reshape(-1, 4, 4)
    min_eig = eig_hermitian(pts).values[:, 0].reshape((len(rhos),) + lead)
    return pts, min_eig, min_eig < -PPT_TOL


def ppt_entangled(rho: DensityOp):
    """The PPT verdict alone: whether the partial transpose of a two-qubit
    operator has an eigenvalue below -PPT_TOL (a bool), or of each member
    of a stack (a boolean array). ppt_verdict adds the W3/W4 witnesses."""
    entangled = _pt_rule([rho])[2][0]
    return bool(entangled) if entangled.ndim == 0 else entangled


def ppt_verdict(rho: DensityOp) -> PPTVerdict:
    """Eigenvalue PPT test plus the W3/W4 determinants of the transposed
    operator (transpose taken over the second subsystem)."""
    return ppt_verdicts([rho])[0]


def ppt_verdicts(rhos: Sequence[DensityOp]) -> list[PPTVerdict]:
    """ppt_verdict of several two-qubit operators, or stacks of one length,
    solved as one stack (one eigen-solve and two determinant calls)."""
    if not rhos:
        return []
    pts, min_eig, entangled = _pt_rule(rhos)
    w3 = _real_det(pts[:, :3, :3], "W3").reshape(min_eig.shape)
    w4 = _real_det(pts, "W4").reshape(min_eig.shape)
    if min_eig.ndim == 1:
        return [
            PPTVerdict(float(m), float(a), float(b), bool(e))
            for m, a, b, e in zip(min_eig, w3, w4, entangled)
        ]
    return [PPTVerdict(*fields) for fields in zip(min_eig, w3, w4, entangled)]


def concurrence(rho: DensityOp):
    """Wootters concurrence of a two-qubit operator (a float), or of each
    member of a stack (an array).

    Uses the Hermitian form: the lambda_i are the decreasing square roots of
    the eigenvalues of sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho).
    """
    _require_two_qubits(rho, "concurrence")
    yy = np.kron(_SIGMA_Y, _SIGMA_Y)
    tilde = yy @ rho.matrix.conj() @ yy
    root = sqrt_psd(rho.matrix)
    m = root @ tilde @ root
    m = (m + dagger(m)) / 2.0
    vals = np.clip(eig_hermitian(m).values.real, 0.0, None)
    # Eigenvalues below the solver's relative resolution are roundoff; their
    # square roots (~1e-9 from ~1e-18) would otherwise leak into the sum.
    floor = vals[..., -1:] * 1e-13
    vals = np.where(vals < floor, 0.0, vals)
    lam = np.sqrt(vals)[..., ::-1]
    c = np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)
    return float(c) if c.ndim == 0 else c


def eof(c: float) -> float:
    """Entanglement of formation as a function of concurrence."""
    if c < -1e-12 or c > 1.0 + 1e-12:
        raise ContractError(f"eof: concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    if c == 0.0:
        return 0.0
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    if x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def measure_report(rho: DensityOp) -> MeasureReport:
    c = concurrence(rho)
    return MeasureReport(concurrence=c, eof=eof(c))


def _flags(test: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, rows: int) -> np.ndarray:
    flags = np.asarray(test(xs), dtype=bool)
    if flags.shape != (rows,) + xs.shape:
        raise ContractError(f"scan: predicates gave shape {flags.shape} for {rows} rows of {xs.shape} points")
    return flags


def _bisect_edges(
    test, rows: int, row: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray, tol: float
) -> np.ndarray:
    """Midpoints of the flips of predicate row[i] between a[i] and b[i]
    (fa[i] is its value at a[i]), all edges refined together: each step
    tests the midpoints of the edges still open in one call.

    An edge closes when it is no wider than tol, or when its midpoint is one
    of its endpoints (a and b are adjacent floats), so every tol ends.
    """
    a, b = a.copy(), b.copy()
    while True:
        mid = (a + b) / 2.0
        live = np.nonzero((b - a > tol) & (mid > a) & (mid < b))[0]
        if not live.size:
            return mid
        same = _flags(test, mid[live], rows)[row[live], np.arange(live.size)] == fa[live]
        a[live[same]] = mid[live[same]]
        b[live[~same]] = mid[live[~same]]


def scan_predicates(
    test: Callable[[np.ndarray], np.ndarray],
    names: Sequence[str],
    grid: int = SCAN_GRID,
    tol: float = SCAN_TOL,
) -> dict[str, list[ThresholdInterval]]:
    """Locate all maximal alpha^2 intervals on (0,1) where each of several
    predicates holds, keyed by predicate name.

    test maps a 1-D array of n alpha^2 values to booleans of shape
    (len(names), n), one row per name. A coarse grid of `grid` interior
    points, tested as one array (in chunks of _SCAN_CHUNK points), finds
    each row's sign structure; bisection refines the interior edges of all
    rows together to `tol`, one test call per step. A row that is constant
    across the whole grid yields no crossings and an empty list.
    """
    if grid < 50:
        raise ContractError(f"scan: grid {grid} is too coarse (need >= 50)")
    if not 0.0 < tol < float("inf"):
        raise ContractError("scan: tolerance must be positive and finite")
    names = tuple(names)
    pts = np.arange(1, grid + 1) / (grid + 1)
    flags = np.concatenate(
        [_flags(test, pts[i:i + _SCAN_CHUNK], len(names)) for i in range(0, grid, _SCAN_CHUNK)], axis=1
    )
    row, left = np.nonzero(flags[:, 1:] != flags[:, :-1])
    edges = _bisect_edges(test, len(names), row, pts[left], pts[left + 1], flags[row, left], tol)
    out = {}
    for r, name in enumerate(names):
        # Cut points alternate between the row's entries and exits, starting
        # with an exit when the row holds at the first grid point.
        cuts = [0.0, *edges[row == r].tolist(), 1.0]
        start = 0 if flags[r, 0] else 1
        out[name] = [] if len(cuts) == 2 else [
            ThresholdInterval(lo=lo, hi=hi, tolerance=tol, predicate_name=name)
            for lo, hi in zip(cuts[start::2], cuts[start + 1::2])
        ]
    return out


def scan_predicate(
    test: Callable[[np.ndarray], np.ndarray],
    grid: int = SCAN_GRID,
    tol: float = SCAN_TOL,
    name: str = "predicate",
) -> list[ThresholdInterval]:
    """scan_predicates for one predicate: test maps a 1-D array of alpha^2
    values to booleans of the same length."""

    def one_row(xs: np.ndarray) -> np.ndarray:
        return np.asarray(test(xs))[None]

    return scan_predicates(one_row, (name,), grid, tol)[name]


def scan_threshold(
    family: Callable[[np.ndarray], DensityOp],
    predicate: str,
    grid: int = SCAN_GRID,
    tol: float = SCAN_TOL,
) -> list[ThresholdInterval]:
    """Scan a two-qubit family alpha^2 -> rho for PPT-based thresholds.

    family maps a 1-D array of alpha^2 values to the stacked operators.
    predicate is "entangled" or "separable"; the boolean tested on the grid
    is the PPT verdict (ppt_entangled, or its negation) of each member.
    """
    if predicate not in ("entangled", "separable"):
        raise ContractError(f"scan_threshold: unknown predicate {predicate!r}")
    want = predicate == "entangled"

    def test(xs: np.ndarray) -> np.ndarray:
        return ppt_entangled(family(xs)) == want

    return scan_predicate(test, grid=grid, tol=tol, name=predicate)


def classify_triple(rho: DensityOp) -> tuple[str, dict[str, PPTVerdict]]:
    """Closed/open classification of a three-qubit operator.

    Closed means all three pairwise marginals are PPT-entangled; the
    verdicts are returned keyed by concatenated pair labels.
    """
    if rho.register.dims != (2, 2, 2):
        raise ContractError(
            f"classify_triple: expected a three-qubit operator, got dims {rho.register.dims}"
        )
    a, b, c = rho.register.labels
    report = _pair_report(rho, ((a, b), (b, c), (a, c)))
    kind = "closed" if all(v.entangled for v in report.values()) else "open"
    return kind, report


def _pair_report(rho: DensityOp, pairs) -> dict[str, PPTVerdict]:
    """Verdicts of the pair marginals of rho, solved as one stack, keyed by
    concatenated labels."""
    verdicts = ppt_verdicts([partial_trace(rho, [x, y]) for x, y in pairs])
    return {f"{x}{y}": v for (x, y), v in zip(pairs, verdicts)}


def _broadcast_pairs(alice, bob):
    a1, a2, a3 = (str(x) for x in alice)
    b1, b2, b3 = (str(x) for x in bob)
    separable = ((a1, a2), (a1, a3), (b1, b2), (b1, b3))
    entangled = ((a2, a3), (b2, b3), (a2, b1), (b1, a3), (a1, b2), (a1, b3))
    return separable, entangled


def broadcast_holds(
    entangled: dict,
    alice: tuple[str, str, str] = ("1", "2", "5"),
    bob: tuple[str, str, str] = ("3", "4", "6"),
):
    """The broadcasting verdict from per-pair PPT verdicts keyed by
    concatenated labels (the `entangled` flag of each pair: a bool, or a
    boolean array for stacked verdicts), as a bool or a boolean array.

    Each party holds one original qubit (first label) and two clones. The
    verdict is true when both parties' original-clone pairs are separable
    while the clone-clone pairs and the four original-to-remote-clone pairs
    are all entangled.
    """
    separable, pairs = _broadcast_pairs(alice, bob)
    ok = np.logical_and.reduce(
        [~np.asarray(entangled[x + y]) for x, y in separable]
        + [np.asarray(entangled[x + y]) for x, y in pairs]
    )
    return bool(ok) if ok.ndim == 0 else ok


def broadcast_verdict(
    six: DensityOp,
    alice: tuple[str, str, str] = ("1", "2", "5"),
    bob: tuple[str, str, str] = ("3", "4", "6"),
) -> tuple[bool, dict[str, PPTVerdict]]:
    """Three-qubit broadcasting test on a six-qubit state (see
    broadcast_holds). Returns (verdict, per-pair reports)."""
    separable, entangled = _broadcast_pairs(alice, bob)
    report = _pair_report(six, separable + entangled)
    flags = {key: verdict.entangled for key, verdict in report.items()}
    return broadcast_holds(flags, alice, bob), report
