"""Separability tests and entanglement measures for two-qubit operators,
and the record of a threshold scan's alpha^2 intervals.

The partial-transpose eigenvalue test is the verdict (ppt_verdict, and
its closed form for X-states, which sweeps use). The W3 and W4 determinants of the transposed
operator are printed beside it; they are not an independent check. For two
qubits a negative W4 is equivalent to a negative eigenvalue, while W3 can
only go negative when the state is entangled.

ppt_verdict and concurrence take any two-qubit operator through the
in-package Jacobi eigen-solve. The pipeline's pair marginals are X-states,
0.0 off the diagonal and the anti-diagonal; their closed forms, with no
eigen-solve, are measures.x_verdict and measures.eof on Python floats, and
_x_verdict and eof here are their array fronts, entry by entry.

The tests and measures take one operator or a stack of them (a DensityOp
with a leading stack axis) and answer with numbers or with arrays of the
same length. The scan itself is scan.branch_scan, which reads exact signs;
ThresholdInterval, the record it returns, is exported here too.
"""
from __future__ import annotations

import numpy as np

from . import measures
from .constants import PPT_TOL
from .errors import ContractError
from .linalg import _psd_roots, _singular_values, dagger, eig_hermitian
from .measures import PPTVerdict, _broadcast_pairs
from .qstate import PAIR_REGISTER, DensityOp, partial_trace, partial_transpose
from .scan import ThresholdInterval

__all__ = [
    "PPTVerdict",
    "ThresholdInterval",
    "ppt_verdict",
    "concurrence",
    "eof",
    "broadcast_holds",
    "broadcast_verdict",
]

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _require_two_qubits(rho: DensityOp, op: str) -> None:
    if len(rho.register.labels) != 2:
        raise ContractError(f"{op}: expected a two-qubit operator, got labels {rho.register.labels}")


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
    """measures.x_verdict of arrays of X-state entries (the diagonal a, b,
    c, d and the squared moduli z2, w2), entry by entry: each field of the
    verdict, and the concurrence, an array of their shape."""
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c, d, z2, w2)))
    points = [measures.x_verdict(*entry) for entry in zip(*(v.ravel().tolist() for v in args))]
    shape = args[0].shape
    fields = [np.array([point[k] for point in points], dtype=bool if k == 3 else float).reshape(shape)
              for k in range(5)]
    return PPTVerdict(*fields[:4]), fields[4]


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
    (returns a float, measures.eof) or of each entry of an array (returns
    an array of measures.eof of its entries)."""
    if isinstance(c, (int, float)):
        return measures.eof(float(c))
    c = np.asarray(c, dtype=float)
    e = np.array([measures.eof(v) for v in c.ravel().tolist()], dtype=float).reshape(c.shape)
    return float(e) if e.ndim == 0 else e


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
