"""Closed forms for two-qubit X-states on Python floats: the PPT verdict
with its W3 and W4 witnesses, the concurrence, the entanglement of
formation, and the pairs the broadcasting verdict reads.

An X-state is 0.0 off the diagonal and the anti-diagonal, so it is fixed by
its diagonal a, b, c, d and the moduli of z = rho[1,2] and w = rho[0,3].
Every pair marginal of the pipeline is one. These are the one copy of each
closed form: the CLI calls them point by point, and entanglement's and
protocol's array functions evaluate them entry by entry. Squares are
written x*x, as numpy squares, so the arithmetic is the same as on arrays.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .constants import PPT_TOL, PSD_FAIL
from .errors import ContractError

__all__ = ["PPTVerdict", "x_verdict", "eof"]


class PPTVerdict(NamedTuple):
    """Separability verdict for one two-qubit operator; for a stack, each
    field is an array with one entry per member."""

    min_pt_eigenvalue: float
    w3: float
    w4: float
    entangled: bool


def _lower_root(p: float, q: float, u2: float) -> float:
    """The smaller eigenvalue of the Hermitian 2 x 2 block [[p, u], [u*, q]]
    with |u|^2 = u2, as x_verdict writes it."""
    mean, half = (p + q) / 2.0, (p - q) / 2.0
    rad = math.sqrt(half * half + u2)
    return (p * q - u2) / (mean + rad) if mean + rad > 0.0 else mean - rad


def x_verdict(a: float, b: float, c: float, d: float, z2: float, w2: float) -> tuple:
    """The PPT verdict and the concurrence of the X-state with diagonal a,
    b, c, d and squared moduli z2 = |rho[1,2]|^2, w2 = |rho[0,3]|^2, as
    (min_pt_eigenvalue, w3, w4, entangled, concurrence): PPTVerdict's
    fields, then C.

    The partial transpose splits into the blocks [[a, z], [z*, d]] and
    [[b, w], [w*, c]]: its smallest eigenvalue is the smaller of their lower
    roots, W3 = a (bc - |w|^2) its leading 3 x 3 minor and W4 the product of
    the block determinants. C = 2 max(0, |z| - sqrt(ad), |w| - sqrt(bc))
    (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)), clipped to 1,
    after the PSD check on rho's blocks [[a, w], [w*, d]] and
    [[b, z], [z*, c]]: ContractError for an eigenvalue below -PSD_FAIL.

    A block [[p, u], [u*, q]] has the lower root mean - rad, mean = (p + q)/2
    and rad = sqrt(((p - q)/2)^2 + |u|^2); where mean + rad is positive it
    is written det / (mean + rad), so a root near 0 keeps its relative
    accuracy. A block of rho with p + q > 0 and det >= 0 has that root
    >= 0, so it passes the check unsolved. The partial transpose's blocks
    are written out, as are min, max and the clip, since this runs once
    per pair and point of every sweep.
    """
    sqrt = math.sqrt
    ad, bc = a * d, b * c
    if not (ad - w2 >= 0.0 and a + d > 0.0 and bc - z2 >= 0.0 and b + c > 0.0):
        lowest = min(_lower_root(a, d, w2), _lower_root(b, c, z2))
        if lowest < -PSD_FAIL:
            raise ContractError(f"concurrence: rho is not PSD (min eigenvalue {lowest:.3e})")
    mean, half = (a + d) / 2.0, (a - d) / 2.0
    det_z = ad - z2
    rad = sqrt(half * half + z2)
    low_z = det_z / (mean + rad) if mean + rad > 0.0 else mean - rad
    mean, half = (b + c) / 2.0, (b - c) / 2.0
    det_w = bc - w2
    rad = sqrt(half * half + w2)
    low_w = det_w / (mean + rad) if mean + rad > 0.0 else mean - rad
    # A diagonal entry at roundoff below 0 counts as 0, as the eigenvalues
    # of the Jacobi route do.
    edge = sqrt(z2) - sqrt(0.0 if ad < 0.0 else ad)
    other = sqrt(w2) - sqrt(0.0 if bc < 0.0 else bc)
    conc = 2.0 * (other if other > edge else edge)
    l0 = low_w if low_w < low_z else low_z
    return l0, a * det_w, det_z * det_w, l0 < -PPT_TOL, 0.0 if conc < 0.0 else (1.0 if conc > 1.0 else conc)


def eof(c: float) -> float:
    """Entanglement of formation of a concurrence c in [0, 1] (to 1e-12,
    clipped): the binary entropy of (1 + sqrt(1 - c^2)) / 2, by libm's
    log2. ContractError for a c outside, NaN included."""
    # Written so that NaN, which fails every comparison, is rejected too.
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ContractError(f"eof: concurrence {c} outside [0, 1]")
    c = 0.0 if c < 0.0 else min(c, 1.0)
    x = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    # x = 1 (C = 0) has no entropy.
    if x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _broadcast_pairs(alice, bob):
    """The pairs broadcasting needs separable (each party's original and
    its clones) and entangled (the clones, and each original with the
    other party's clones), as label pairs."""
    a1, a2, a3 = (str(x) for x in alice)
    b1, b2, b3 = (str(x) for x in bob)
    separable = ((a1, a2), (a1, a3), (b1, b2), (b1, b3))
    entangled = ((a2, a3), (b2, b3), (a2, b1), (b1, a3), (a1, b2), (a1, b3))
    return separable, entangled
