"""Dense complex linear algebra for small operators.

Matrices are numpy complex128 arrays in row-major layout; nothing here is
tuned for size (the largest operator in the pipeline is 256 x 256). The
eigensolver is a cyclic Jacobi iteration written in-package so results are
deterministic across platforms; numpy is used for array plumbing only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HERM_TOL, PSD_FAIL
from .errors import ContractError

__all__ = [
    "EigenDecomposition",
    "eig_hermitian",
    "det_complex",
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


@dataclass(frozen=True)
class EigenDecomposition:
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


def _stacked(op: str, a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Checked input with a leading stack axis, and whether one was added."""
    a = _check_square(a, op)
    return (a[None], True) if a.ndim == 2 else (a, False)


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Diagonalize Hermitian matrices by cyclic Jacobi rotations.

    Args:
        a: square Hermitian matrix (n, n), or a stack of them (G, n, n)
           solved together (defect above HERM_TOL is rejected; symmetrize
           with (a + a^dagger)/2 before calling if needed).

    Returns:
        EigenDecomposition with ascending real eigenvalues, shaped like the
        input: values (n,) or (G, n), vectors (n, n) or (G, n, n).

    Each member goes through the same rotations it would get alone: a
    rotation is skipped for the members whose (p, q) entry is already below
    their own stopping threshold, and the sweeps end when every member has
    converged.
    """
    a, single = _stacked("eig_hermitian", a)
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
        off_diagonal = ~np.eye(n, dtype=bool)
        for _ in range(100):
            if np.all(np.max(np.abs(w[:, off_diagonal]), axis=1) <= stop):
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _rotate(w, v, p, q, stop)
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


def _rotate(w: np.ndarray, v: np.ndarray, p: int, q: int, stop: np.ndarray) -> None:
    """One Jacobi rotation on plane (p, q) of every stack member, in place.

    Members whose |w[p, q]| is at or below their stop value get the identity
    (c = 1, s = 0) and keep their (p, q) entry.
    """
    apq = w[:, p, q].copy()
    live = np.abs(apq) > stop
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


def det_complex(a: np.ndarray):
    """Determinant by Gaussian elimination with partial pivoting.

    a is a square matrix (returns a complex) or a stack of them (returns a
    complex array with one determinant per member).
    """
    a, single = _stacked("det_complex", a)
    a = a.copy()
    g, n, _ = a.shape
    rows = np.arange(g)
    det = np.ones(g, dtype=complex)
    singular = np.zeros(g, dtype=bool)
    for k in range(n):
        piv = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        # A zero pivot column makes the determinant 0; later steps divide by
        # a unit pivot for those members so they stay finite.
        singular |= np.abs(a[rows, piv, k]) == 0.0
        swap = piv != k
        if swap.any():
            top = a[rows, k, :].copy()
            a[rows, k, :] = a[rows, piv, :]
            a[rows, piv, :] = top
            det[swap] = -det[swap]
        pivot = a[:, k, k]
        # In real arithmetic: numpy's complex multiply rounds a length-1
        # array otherwise than a longer one, and a matrix must get the same
        # bits alone as inside a stack.
        det = (det.real * pivot.real - det.imag * pivot.imag) + 1j * (
            det.real * pivot.imag + det.imag * pivot.real
        )
        pivot = np.where(pivot == 0.0, 1.0, pivot)
        col = a[:, k + 1:, k]
        # numpy's complex division overflows when the divisor is subnormal
        # (its reciprocal is not finite), so those members divide after
        # scaling the pivot and its column, no larger by the pivoting, by
        # the exact factor 2^600.
        tiny = np.abs(pivot) < 2.0 ** -600
        ratio = col / np.where(tiny, 1.0, pivot)[:, None]
        if tiny.any():
            ratio[tiny] = (col[tiny] * 2.0 ** 600) / (pivot[tiny] * 2.0 ** 600)[:, None]
        a[:, k + 1:, k:] -= ratio[:, :, None] * a[:, None, k, k:]
    det[singular] = 0.0
    return complex(det[0]) if single else det


def _singular_values(g: np.ndarray) -> np.ndarray:
    """Singular values of each member of a stack (G, n, n), in no order,
    by one-sided Jacobi: column pairs are rotated until orthogonal to 1e-15
    of their norms, and the column norms are the singular values, each to
    its own relative accuracy. A column below 1e-15 of the member's norm
    counts as converged, or a null column would be rotated until it
    underflows. Members are rotated together, as in eig_hermitian.
    """
    g = g.copy()
    n = g.shape[-1]
    negligible = 1e-30 * np.sum(np.abs(g) ** 2, axis=(1, 2))
    for _ in range(100):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                gp = g[:, :, p].copy()
                gq = g[:, :, q].copy()
                a = np.sum(np.abs(gp) ** 2, axis=1)
                b = np.sum(np.abs(gq) ** 2, axis=1)
                overlap = np.sum(gp.conj() * gq, axis=1)
                live = (np.abs(overlap) > 1e-15 * np.sqrt(a * b)) & (np.minimum(a, b) > negligible)
                if not live.any():
                    continue
                rotated = True
                c, s, phase = _plane(overlap, b - a, live)
                g[:, :, p] = c * gp - s * phase.conjugate() * gq
                g[:, :, q] = s * phase * gp + c * gq
        if not rotated:
            return np.sqrt(np.sum(np.abs(g) ** 2, axis=1))
    raise ContractError("singular values: Jacobi sweep limit reached without convergence")


def _psd_roots(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors V and square roots r of the eigenvalues of a positive
    semidefinite matrix, or of each member of a stack: a = V diag(r^2) V^dagger.

    The singular values of diag(r) V^dagger W diag(t), for another such
    pair (W, t), are those of sqrt(a) sqrt(b), each to its own relative
    accuracy: an eigenvalue p ~ 1e-10 shared by a and b counts as p, and a
    zero stays at roundoff, not at its square root (~1e-8). Eigenvalues
    below 1e-15 of the largest are roundoff of a rank-deficient state and
    count as 0; one below -PSD_FAIL raises, the input was not PSD.
    """
    eig = eig_hermitian(a)
    lo = float(np.min(eig.values[..., 0]))
    if lo < -PSD_FAIL:
        raise ContractError(f"{what} is not PSD (min eigenvalue {lo:.3e})")
    floor = eig.values[..., -1:] * 1e-15
    return eig.vectors, np.sqrt(np.where(eig.values < floor, 0.0, eig.values))


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    rho is one matrix; sigma is a matrix of the same shape (returns a
    float) or a stack of them (returns one fidelity per member).
    """
    rho = _check_square(rho, "fidelity")
    sigma = _check_square(sigma, "fidelity")
    if rho.ndim != 2 or sigma.shape[-2:] != rho.shape:
        raise ContractError(
            f"fidelity: expected a matrix and matrices of its shape, got {rho.shape} and {sigma.shape}"
        )
    # F is the squared sum of the singular values of sqrt(rho) sqrt(sigma),
    # here diag(sqrt p) V^dagger W diag(sqrt s) in the eigenbases of both.
    v, p = _psd_roots(rho, "fidelity: rho")
    w, s = _psd_roots(sigma if sigma.ndim == 3 else sigma[None], "fidelity: sigma")
    f = np.sum(_singular_values(p[:, None] * (dagger(v) @ w) * s[:, None, :]), axis=-1) ** 2
    return float(f[0]) if sigma.ndim == 2 else f
