"""Separability tests and entanglement measures for two-qubit operators,
plus threshold scanning over the input weight alpha^2.

The partial-transpose eigenvalue test is the verdict (ppt_verdict, and
its closed form for X-states, which sweeps use). The W3 and W4 determinants of the transposed
operator are printed beside it; they are not an independent check. For two
qubits a negative W4 is equivalent to a negative eigenvalue, while W3 can
only go negative when the state is entangled.

ppt_verdict and concurrence take any two-qubit operator through the
in-package Jacobi eigen-solve. The pipeline's pair marginals are X-states,
0.0 off the diagonal and the anti-diagonal; protocol.pair_verdicts reads
their six real entries and evaluates the closed forms here (_x_verdict),
with no eigen-solve.

The tests and measures take one operator or a stack of them (a DensityOp
with a leading stack axis) and answer with numbers or with arrays of the
same length. scan_predicates evaluates its predicates on whole arrays of
alpha^2 values, so a grid is one stacked evaluation; the pipeline's own
scans (protocol.branch_scan) read exact signs instead. Both bisect their
edges in _bisect and build their intervals in _intervals.
"""
from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .constants import PPT_TOL, SCAN_GRID, SCAN_TOL
from .errors import ContractError
from .linalg import _psd_roots, _require_psd, _singular_values, dagger, eig_hermitian
from .qstate import PAIR_REGISTER, DensityOp, partial_trace, partial_transpose

__all__ = [
    "PPTVerdict",
    "ThresholdInterval",
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


class PPTVerdict(NamedTuple):
    """Separability verdict for one two-qubit operator; for a stack, each
    field is an array with one entry per member."""

    min_pt_eigenvalue: float
    w3: float
    w4: float
    entangled: bool


class ThresholdInterval(NamedTuple):
    """Maximal alpha^2 interval on which a predicate holds.

    Endpoints are _bisect's midpoints, within `tolerance` (the setting, or
    float spacing where that is wider) of where the predicate changes; 0.0
    and 1.0 mark the domain edge. For protocol.branch_scan's rows the
    predicate is "lowest PT eigenvalue < -PPT_TOL", and that dead band moves
    the change off the algebraic threshold: at tol 1e-300 Q0Q0's pair 12
    turns separable at 0.27272727205289..., 6.7e-10 below 3/11.
    """

    lo: float
    hi: float
    tolerance: float
    predicate_name: str


def _require_two_qubits(rho: DensityOp, op: str) -> None:
    if len(rho.register.labels) != 2:
        raise ContractError(f"{op}: expected a two-qubit operator, got labels {rho.register.labels}")


def _block_roots(p: np.ndarray, q: np.ndarray, u2: np.ndarray):
    """Determinant and smaller eigenvalue of each Hermitian 2 x 2 block
    [[p, u], [u*, q]] with |u|^2 = u2. Where the larger eigenvalue
    mean + rad is positive the smaller is det / (mean + rad), so an
    eigenvalue near 0 keeps its relative accuracy."""
    det = p * q - u2
    mean = (p + q) / 2.0
    rad = np.sqrt(((p - q) / 2.0) ** 2 + u2)
    high = mean + rad
    up = high > 0.0
    return det, np.where(up, det / np.where(up, high, 1.0), mean - rad)


def _pt_witnesses(t: np.ndarray):
    """Smallest eigenvalue, W3 and W4 of partial transposes T, from one
    eigen-solve T = V diag(l) V^dagger.

    W4 = det T is the product of the l_k. W3, the leading 3x3 minor of T,
    is the last diagonal entry of adj T = V diag(prod_{j != k} l_j) V^dagger,
    so it is sum_k |V[3, k]|^2 prod_{j != k} l_j: real by construction.
    """
    eig = eig_hermitian(t)
    l0, l1, l2, l3 = eig.values.T
    last = eig.vectors[:, 3, :]
    p0, p1, p2, p3 = (last.real ** 2 + last.imag ** 2).T
    low, high = l0 * l1, l2 * l3
    return l0, (p0 * l1 + p1 * l0) * high + (p2 * l3 + p3 * l2) * low, low * high


def ppt_verdict(rho: DensityOp) -> PPTVerdict:
    """Eigenvalue PPT test plus the W3/W4 determinants of the transposed
    operator (transpose taken over the second subsystem), for one operator
    or, as arrays, for each member of a stack, from one Jacobi eigen-solve.
    """
    _require_two_qubits(rho, "ppt_verdict")
    t = partial_transpose(rho, rho.register.labels[1]).reshape(-1, 4, 4)
    l0, w3, w4 = _pt_witnesses(t)
    entangled = l0 < -PPT_TOL
    if rho.stacked:
        return PPTVerdict(l0, w3, w4, entangled)
    return PPTVerdict(float(l0[0]), float(w3[0]), float(w4[0]), bool(entangled[0]))


def _x_verdict(a, b, c, d, z2, w2) -> tuple[PPTVerdict, np.ndarray]:
    """The PPT verdict and the concurrence of X-states rho, from arrays of
    their diagonal a, b, c, d and the squared moduli z2 = |rho[1,2]|^2 and
    w2 = |rho[0,3]|^2; each field an array of their shape.

    The partial transpose splits into the blocks [[a, z], [z*, d]] and
    [[b, w], [w*, c]]: its smallest eigenvalue is the smaller of their lower
    roots, W3 = a (bc - |w|^2) its leading 3 x 3 minor and W4 the product of
    the block determinants. C = 2 max(0, |z| - sqrt(ad), |w| - sqrt(bc))
    (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)), after the PSD check
    on rho's blocks [[a, w], [w*, d]] and [[b, z], [z*, c]].
    """
    det_z, low_z = _block_roots(a, d, z2)
    det_w, low_w = _block_roots(b, c, w2)
    _require_psd(np.minimum(_block_roots(a, d, w2)[1], _block_roots(b, c, z2)[1]), "concurrence: rho")
    # A diagonal entry at roundoff below 0 counts as 0, as the eigenvalues
    # of the Jacobi route do.
    edge = np.maximum(np.sqrt(z2) - np.sqrt(np.maximum(a * d, 0.0)),
                      np.sqrt(w2) - np.sqrt(np.maximum(b * c, 0.0)))
    l0 = np.minimum(low_z, low_w)
    return PPTVerdict(l0, a * det_w, det_z * det_w, l0 < -PPT_TOL), np.clip(2.0 * edge, 0.0, 1.0)


def _wootters(m: np.ndarray):
    """The lambda_i are the singular values of sqrt(rho) sqrt(rho~), with
    rho~ = (sy x sy) rho* (sy x sy). From one eigen-solve rho = V diag(p)
    V^dagger, rho~ has eigenvectors (sy x sy) V* and the same p, so they are
    the singular values of diag(sqrt p) V^dagger (sy x sy) V* diag(sqrt p),
    each to its own relative accuracy (linalg._psd_roots); then
    C = 2 max lambda - sum lambda."""
    ((v, r),) = _psd_roots(("concurrence: rho", m))
    lam = _singular_values(r[:, :, None] * (dagger(v) @ _YY @ v.conj()) * r[:, None, :])
    return 2.0 * np.max(lam, axis=1) - np.sum(lam, axis=1)


def concurrence(rho: DensityOp):
    """Wootters concurrence of a two-qubit operator (a float), or of each
    member of a stack (an array), clipped to [0, 1], from one eigen-solve
    and one singular-value solve. A member with an eigenvalue below
    -PSD_FAIL raises.
    """
    _require_two_qubits(rho, "concurrence")
    m = rho.matrix
    c = np.clip(_wootters(m.reshape(-1, 4, 4)), 0.0, 1.0)
    return float(c[0]) if m.ndim == 2 else c


def eof(c):
    """Entanglement of formation as a function of concurrence: of a float
    (returns a float) or of each entry of an array (returns an array)."""
    c = np.asarray(c, dtype=float)
    # Written so that NaN, which fails every comparison, is rejected too.
    bad = ~((-1e-12 <= c) & (c <= 1.0 + 1e-12))
    if bad.any():
        raise ContractError(f"eof: concurrence {c[bad].flat[0]} outside [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    # x = 1 (C = 0) has no entropy; 0 * log2(0) is NaN and is masked.
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(x >= 1.0, 0.0, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))
    return float(e) if e.ndim == 0 else e


def _flags(test: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, rows: int) -> np.ndarray:
    flags = np.asarray(test(xs), dtype=bool)
    if flags.shape != (rows,) + xs.shape:
        raise ContractError(f"scan: predicates gave shape {flags.shape} for {rows} rows of {xs.shape} points")
    return flags


def _bisect(a: list[float], b: list[float], start: list[bool], tol: float, probe) -> list[float]:
    """Where edge i's predicate changes between a[i] and b[i] (start[i] its
    value at a[i]; a and b are narrowed in place): the midpoint a one-step
    bisection ends on, all edges refined together in Python floats.

    Each probe(live, mids) call takes one step of up to _SCAN_CHUNK open
    edges (`live`, in index order): it gives each one's predicate at its
    midpoint (a + b) / 2.0, and the edge keeps the half whose ends differ.
    An edge closes when it is no wider than tol, or when its midpoint is
    one of its ends (a and b are adjacent floats), so every tol ends.
    """
    mid = [(x + y) / 2.0 for x, y in zip(a, b)]
    # live: the edges stepped last (all, at first), which may have closed;
    # rest: open edges not yet stepped, all after them in index order
    live, rest = range(len(mid)), []
    while True:
        live = [i for i in live if b[i] - a[i] > tol and a[i] < mid[i] < b[i]] + rest
        if not live:
            return mid
        live, rest = live[:_SCAN_CHUNK], live[_SCAN_CHUNK:]
        for i, held in zip(live, probe(live, [mid[i] for i in live])):
            (a if held == start[i] else b)[i] = mid[i]
            mid[i] = (a[i] + b[i]) / 2.0


def _intervals(first: bool, cuts: list[float], tol: float, name: str) -> list[ThresholdInterval]:
    """A row's intervals from its edges in order, which alternate between
    entries and exits, starting with an exit when the row holds (`first`)
    at the first grid point; none for a row with no edge."""
    cuts = [0.0, *cuts, 1.0] if cuts else []
    start = 0 if first else 1
    return [ThresholdInterval(lo, hi, tol, name) for lo, hi in zip(cuts[start::2], cuts[start + 1::2])]


def _require_scan_settings(grid, tol: float) -> int:
    """grid as an int; ContractError unless it is an integer >= 50 (through
    operator.index, so no float gets in) and tol is positive and finite."""
    try:
        number = operator.index(grid)
    except TypeError:
        number = None
    if number is None or number < 50 or not 0.0 < tol < float("inf"):
        raise ContractError(f"scan: grid {grid!r} must be an integer >= 50 and tol {tol!r} positive and finite")
    return number


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
    each row's sign structure; _bisect refines the interior edges of all
    rows together to `tol`, one test call per step. A row that is constant
    across the whole grid yields no crossings and an empty list.
    protocol.branch_scan finds its rows' edges at the same points from
    exact signs instead; this is the scan for any other predicate, and the
    float cross-check of that route.
    """
    grid = _require_scan_settings(grid, tol)
    names = tuple(names)
    pts = np.arange(1, grid + 1) / (grid + 1)
    flags = np.concatenate(
        [_flags(test, pts[i:i + _SCAN_CHUNK], len(names)) for i in range(0, grid, _SCAN_CHUNK)], axis=1
    )
    row, left = np.nonzero(flags[:, 1:] != flags[:, :-1])

    def probe(live, mids):
        return _flags(test, np.array(mids), len(names))[row[live], np.arange(len(live))].tolist()

    edges = np.array(_bisect(pts[left].tolist(), pts[left + 1].tolist(), flags[row, left].tolist(), tol, probe))
    return {name: _intervals(flags[r, 0], edges[row == r].tolist(), tol, name) for r, name in enumerate(names)}


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
