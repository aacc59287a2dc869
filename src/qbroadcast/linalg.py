"""Dense complex linear algebra for small operators.

Matrices are numpy complex128 arrays in row-major layout; nothing here is
tuned for size (the largest operator in the pipeline is the 64 x 64
six-qubit branch state; the eight-qubit basis images are vectors). The
eigensolver and the singular-value solver are threshold Jacobi iterations
written in-package so results are deterministic across platforms; numpy is
used for array plumbing only. Each sweep screens every stack member's planes
once and visits only the planes some member still needs, so the block-sparse
operators of the pipeline cost a few rotations, not n(n-1)/2 per sweep.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .constants import HERM_TOL, PSD_FAIL
from .errors import ContractError

__all__ = [
    "EigenDecomposition",
    "eig_hermitian",
    "fidelity",
    "dagger",
    "hermitian_defect",
]


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each member of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of a (or of any stack member) from its
    conjugate transpose."""
    return float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0


class EigenDecomposition(NamedTuple):
    """Eigensystem of a Hermitian matrix, or of each member of a stack.

    values are real and ascending along the last axis; vectors holds the
    matching orthonormal eigenvectors as columns, so
    a = vectors @ diag(values) @ vectors^dagger (member by member).
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) @ dagger(self.vectors)


def _check_square(a: np.ndarray, op: str) -> np.ndarray:
    """A square matrix (n, n) or a stack of them (G, n, n), finite."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ContractError(f"{op}: expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractError(f"{op}: matrix has non-finite entries")
    return a


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Diagonalize Hermitian matrices by threshold Jacobi rotations.

    Args:
        a: square Hermitian matrix (n, n), or a stack of them (G, n, n)
           solved together (defect above HERM_TOL is rejected; symmetrize
           with (a + a^dagger)/2 before calling if needed).

    Returns:
        EigenDecomposition with ascending real eigenvalues, shaped like the
        input: values (n,) or (G, n), vectors (n, n) or (G, n, n).

    Each sweep starts with a screen: the planes (p, q) whose entry is above
    the member's own stopping threshold, the same magnitudes that decide
    convergence. Only the planes some member's screen selected are
    visited, in cyclic order, and a member is rotated on a visited plane
    only if its own screen selected it and its (p, q) entry is still above
    the threshold. So each member goes through the same rotations it would
    get alone. The sweeps end when no member's screen selects a plane.
    """
    a = _check_square(a, "eig_hermitian")
    single = a.ndim == 2
    if single:
        a = a[None]
    defect = hermitian_defect(a)
    if defect > HERM_TOL:
        raise ContractError(f"eig_hermitian: matrix is not Hermitian (defect {defect:.3e})")
    g, n, _ = a.shape
    # Work on an exactly Hermitian copy so roundoff cannot accumulate a drift.
    w = (a + dagger(a)) / 2.0
    v = np.broadcast_to(np.eye(n, dtype=complex), w.shape).copy()
    if n > 1 and g:
        scale = np.maximum(1.0, np.max(np.abs(w.diagonal(axis1=1, axis2=2).real), axis=1))
        stop = 1e-15 * scale
        rows, cols = np.triu_indices(n, 1)
        for _ in range(100):
            # need[m, k]: plane k of member m is above its stop value at the
            # start of the sweep (w stays exactly Hermitian, so the upper
            # triangle is the whole check). A NaN counts as not converged.
            need = ~(np.abs(w[:, rows, cols]) <= stop[:, None])
            if not need.any():
                break
            for k in np.flatnonzero(need.any(axis=0)):
                _rotate(w, v, rows[k], cols[k], stop, need[:, k])
        else:
            raise ContractError("eig_hermitian: Jacobi sweep limit reached without convergence")

    values = w.diagonal(axis1=1, axis2=2).real
    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(v, order[:, None, :], axis=2)
    if single:
        return EigenDecomposition(values=values[0], vectors=vectors[0])
    return EigenDecomposition(values=values, vectors=vectors)


def _plane(x: np.ndarray, gap: np.ndarray, live: np.ndarray):
    """Cosine, sine and phase, as (G, 1) columns, of the Jacobi rotation
    that zeroes a coupling x between two planes whose diagonal weights
    differ by gap (q minus p); the identity for members not live."""
    safe_r = np.where(live, np.abs(x), 1.0)
    phase = np.where(live, x / safe_r, 1.0)
    tau = gap / (2.0 * safe_r)
    t = np.where(tau != 0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)), 1.0)
    c = np.where(live, 1.0 / np.hypot(1.0, t), 1.0)[:, None]
    s = np.where(live, t * c[:, 0], 0.0)[:, None]
    return c, s, phase[:, None]


def _rotate(w: np.ndarray, v: np.ndarray, p: int, q: int, stop: np.ndarray, screened: np.ndarray) -> None:
    """One Jacobi rotation on plane (p, q) of the screened stack members, in
    place.

    Members not screened, or whose |w[p, q]| is now at or below their stop
    value, get the identity (c = 1, s = 0) and keep their (p, q) entry.
    """
    apq = w[:, p, q].copy()
    live = screened & (np.abs(apq) > stop)
    if not live.any():
        return
    c, s, phase = _plane(apq.conjugate(), w[:, q, q].real - w[:, p, p].real, live)
    # Plane unitary J = [[c, s], [-phase*s, phase*c]] on (p, q).
    colp = w[:, :, p].copy()
    colq = w[:, :, q].copy()
    w[:, :, p] = c * colp - phase * s * colq
    w[:, :, q] = s * colp + phase * c * colq
    rowp = w[:, p, :].copy()
    rowq = w[:, q, :].copy()
    w[:, p, :] = c * rowp - phase.conjugate() * s * rowq
    w[:, q, :] = s * rowp + phase.conjugate() * c * rowq
    w[:, p, q] = np.where(live, 0.0, apq)
    w[:, q, p] = np.where(live, 0.0, apq.conjugate())
    w[:, p, p] = w[:, p, p].real
    w[:, q, q] = w[:, q, q].real
    colp = v[:, :, p].copy()
    colq = v[:, :, q].copy()
    v[:, :, p] = c * colp - phase * s * colq
    v[:, :, q] = s * colp + phase * c * colq


def _singular_values(g: np.ndarray) -> np.ndarray:
    """Singular values of each member of a stack (G, n, n), in no order,
    by one-sided Jacobi: column pairs are rotated until orthogonal to 1e-15
    of their norms, and the column norms are the singular values, each to
    its own relative accuracy. A column below 1e-15 of the member's norm
    counts as converged, or a null column would be rotated until it
    underflows.

    Each sweep first screens every member's column pairs with one Gram
    product g^dagger g, and visits only the pairs some member needs; a
    member is rotated only on the pairs its own screen selected, and
    _rotate_columns decides each rotation from the current columns. The
    sweeps end when one makes no rotation.
    """
    g = g.copy()
    negligible = 1e-30 * np.sum(np.abs(g) ** 2, axis=(1, 2))
    rows, cols = np.triu_indices(g.shape[-1], 1)
    for _ in range(100):
        gram = dagger(g) @ g
        norms = gram.diagonal(axis1=1, axis2=2).real
        a, b = norms[:, rows], norms[:, cols]
        need = (np.abs(gram[:, rows, cols]) > 1e-15 * np.sqrt(a * b)) & (np.minimum(a, b) > negligible[:, None])
        rotated = False
        for k in np.flatnonzero(need.any(axis=0)):
            rotated |= _rotate_columns(g, rows[k], cols[k], negligible, need[:, k])
        if not rotated:
            return np.sqrt(np.sum(np.abs(g) ** 2, axis=1))
    raise ContractError("singular values: Jacobi sweep limit reached without convergence")


def _rotate_columns(g: np.ndarray, p: int, q: int, negligible: np.ndarray, screened: np.ndarray) -> bool:
    """One one-sided Jacobi rotation on columns (p, q) of the screened stack
    members whose two columns are both above negligible and not orthogonal
    to 1e-15 of their norms, in place; the others keep their columns.
    Returns whether any member was rotated."""
    gp = g[:, :, p].copy()
    gq = g[:, :, q].copy()
    a = np.sum(np.abs(gp) ** 2, axis=1)
    b = np.sum(np.abs(gq) ** 2, axis=1)
    overlap = np.sum(gp.conj() * gq, axis=1)
    live = screened & (np.abs(overlap) > 1e-15 * np.sqrt(a * b)) & (np.minimum(a, b) > negligible)
    if not live.any():
        return False
    c, s, phase = _plane(overlap, b - a, live)
    g[:, :, p] = c * gp - s * phase.conjugate() * gq
    g[:, :, q] = s * phase * gp + c * gq
    return True


def _require_psd(lowest: np.ndarray, what: str) -> None:
    """Raise unless every smallest eigenvalue in `lowest` is at least
    -PSD_FAIL (an eigenvalue above it is roundoff of a PSD matrix)."""
    lo = float(np.min(lowest, initial=np.inf))
    if lo < -PSD_FAIL:
        raise ContractError(f"{what} is not PSD (min eigenvalue {lo:.3e})")


def _psd_roots(*named: tuple[str, np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenvectors V and square roots r of the eigenvalues of each member
    of each (what, stack) pair, from one eigen-solve: a = V diag(r^2) V^dagger.

    The singular values of diag(r) V^dagger W diag(t), for another such
    pair (W, t), are those of sqrt(a) sqrt(b), each to its own relative
    accuracy: an eigenvalue p ~ 1e-10 shared by a and b counts as p, and a
    zero stays at roundoff, not at its square root (~1e-8). Eigenvalues
    below 1e-15 of the largest are roundoff of a rank-deficient state and
    count as 0; one below -PSD_FAIL raises "<what> is not PSD" (stacks in
    the order given): the input was not PSD.
    """
    eig = eig_hermitian(np.concatenate([a for _, a in named]))
    cuts = np.cumsum([len(a) for _, a in named])[:-1]
    for (what, _), lowest in zip(named, np.split(eig.values[:, 0], cuts)):
        _require_psd(lowest, what)
    floor = eig.values[:, -1:] * 1e-15
    roots = np.sqrt(np.where(eig.values < floor, 0.0, eig.values))
    return list(zip(np.split(eig.vectors, cuts), np.split(roots, cuts)))


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    rho (n, n) takes sigma (n, n) (returns a float) or (K, n, n) (returns
    (K,)); rho (G, n, n) takes sigma (G, K, n, n), K states per rho (returns
    (G, K)), in one eigen-solve and one singular-value solve.
    """
    rho = _check_square(rho, "fidelity")
    sigma = np.asarray(sigma, dtype=complex)
    n, lead = rho.shape[-1], sigma.shape[:-2]
    fits = len(lead) <= 1 if rho.ndim == 2 else len(lead) == 2 and lead[0] == len(rho)
    if sigma.shape[-2:] != (n, n) or not fits:
        raise ContractError(f"fidelity: expected sigma shaped for rho {rho.shape}, got {sigma.shape}")
    rho = rho.reshape(-1, n, n)
    g, k = len(rho), lead[-1] if lead else 1
    sigma = _check_square(sigma.reshape(-1, n, n), "fidelity")
    # F is the squared sum of the singular values of sqrt(rho) sqrt(sigma),
    # here diag(sqrt p) V^dagger W diag(sqrt s) in the eigenbases of both.
    (v, p), (w, s) = _psd_roots(("fidelity: rho", rho), ("fidelity: sigma", sigma))
    w, s = w.reshape(g, k, n, n), s.reshape(g, k, 1, n)
    products = p[:, None, :, None] * (dagger(v)[:, None] @ w) * s
    f = np.sum(_singular_values(products.reshape(-1, n, n)), axis=-1) ** 2
    return float(f[0]) if not lead else f.reshape(lead)
