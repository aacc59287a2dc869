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
from .linalg import _psd_roots, _singular_values, dagger, det_complex, eig_hermitian
from .qstate import PAIR_REGISTER, DensityOp, partial_trace, partial_transpose

__all__ = [
    "PPTVerdict",
    "ThresholdInterval",
    "ppt_entangled",
    "ppt_verdict",
    "concurrence",
    "eof",
    "scan_predicates",
    "broadcast_holds",
    "broadcast_verdict",
]

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

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


def _pt_rule(rho: DensityOp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The PPT verdict rule for a two-qubit operator or a stack of them: the
    partial transposes over the second subsystem, stacked (m, 4, 4); the
    smallest eigenvalue of each, from one eigen-solve; and whether it lies
    below -PPT_TOL.
    """
    _require_two_qubits(rho, "ppt_verdict")
    pts = partial_transpose(rho, rho.register.labels[1]).reshape(-1, 4, 4)
    min_eig = eig_hermitian(pts).values[:, 0]
    return pts, min_eig, min_eig < -PPT_TOL


def ppt_entangled(rho: DensityOp):
    """The PPT verdict alone: whether the partial transpose of a two-qubit
    operator has an eigenvalue below -PPT_TOL (a bool), or of each member
    of a stack (a boolean array). ppt_verdict adds the W3/W4 witnesses."""
    entangled = _pt_rule(rho)[2]
    return entangled if rho.stacked else bool(entangled[0])


def ppt_verdict(rho: DensityOp) -> PPTVerdict:
    """Eigenvalue PPT test plus the W3/W4 determinants of the transposed
    operator (transpose taken over the second subsystem), for one operator
    or, as arrays, for each member of a stack (one eigen-solve and two
    determinant calls)."""
    pts, min_eig, entangled = _pt_rule(rho)
    w3 = _real_det(pts[:, :3, :3], "W3")
    w4 = _real_det(pts, "W4")
    if rho.stacked:
        return PPTVerdict(min_eig, w3, w4, entangled)
    return PPTVerdict(float(min_eig[0]), float(w3[0]), float(w4[0]), bool(entangled[0]))


def concurrence(rho: DensityOp):
    """Wootters concurrence of a two-qubit operator (a float), or of each
    member of a stack (an array).

    The lambda_i are the singular values of sqrt(rho) sqrt(rho~), with
    rho~ = (sy x sy) rho* (sy x sy). From one eigen-solve rho = V diag(p)
    V^dagger, rho~ has eigenvectors (sy x sy) V* and the same p, so they are
    the singular values of diag(sqrt p) V^dagger (sy x sy) V* diag(sqrt p),
    each to its own relative accuracy (linalg._psd_roots); then
    C = max(0, 2 max lambda - sum lambda).
    """
    _require_two_qubits(rho, "concurrence")
    m = rho.matrix
    v, r = _psd_roots(m if m.ndim == 3 else m[None], "concurrence: rho")
    lam = _singular_values(r[:, :, None] * (dagger(v) @ _YY @ v.conj()) * r[:, None, :])
    c = np.clip(2.0 * np.max(lam, axis=1) - np.sum(lam, axis=1), 0.0, 1.0)
    return float(c[0]) if m.ndim == 2 else c


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
    """Three-qubit broadcasting test on a six-qubit state, or on each member
    of a stack (see broadcast_holds). Returns (verdict, per-pair reports
    keyed by concatenated labels).

    The ten pair marginals are solved as one stack of PAIR_REGISTER
    operators, pair by pair, with one ppt_verdict call.
    """
    separable, entangled = _broadcast_pairs(alice, bob)
    pairs = separable + entangled
    mats = np.stack([partial_trace(six, [x, y]).matrix for x, y in pairs])
    verdict = ppt_verdict(DensityOp(PAIR_REGISTER, mats.reshape((-1,) + mats.shape[-2:])))
    fields = [
        np.reshape(field, mats.shape[:-2])
        for field in (verdict.min_pt_eigenvalue, verdict.w3, verdict.w4, verdict.entangled)
    ]
    report = {
        f"{x}{y}": PPTVerdict(*(f[i] if six.stacked else f[i].item() for f in fields))
        for i, (x, y) in enumerate(pairs)
    }
    flags = {key: v.entangled for key, v in report.items()}
    return broadcast_holds(flags, alice, bob), report
