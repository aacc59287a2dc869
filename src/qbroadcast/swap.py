"""Third-party extension: adjoin a singlet shared with Carol on qubits
(8, 7), Bell-measure qubits (2, 8), and correct Carol's qubit to hand her
qubit 2's role, for one rho325 or for a stack of them in one call per step.

The stage is evaluated by the teleportation identity (Bennett et al., PRL
70, 1895 (1993)), not simulated. Through the singlet, every Bell outcome
has probability exactly 1/4 for any rho325, and its post state on (3, 5, 7)
is sigma T sigma^dagger, with T the recovery target and sigma the Pauli
word SIGMA[outcome]. A Pauli word conjugates an operator by moving its
entries and negating some of them, so every post state and every
corrected state here is exact in floats.

The correction plans come in two flavors: the published set of four
Pauli words, and an independently derived set found by searching all
three-qubit Pauli words. The derived set is authoritative for the
recovery claim; the published one is measured and reported. The simulated
stage (the singlet extension, the Bell measurement of the five-qubit joint
state, and a fidelity for every plan) is kept in tests/reference.py, which
the tests hold this module to.

This module is the numpy front of the standard-library module plans: a
Pauli word conjugates by a signed permutation (plans._conjugate), and
plans._scored_plans is the one search of the correction words, here on any
rho325, with the inexact plans scored by linalg.fidelity. The CLI's route,
plans._swap_plans, runs the same search on branch Q0Q0's targets from the
rho325 table and scores in closed form, with no DensityOp, no eigen-solve
and no numpy.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import plans
from .errors import ContractError
from .linalg import fidelity
from .plans import BELL_ORDER, PUBLISHED_WORDS, SIGMA, WORDS
from .qstate import DensityOp, Register

__all__ = [
    "BELL_ORDER",
    "BellOutcome",
    "CorrectionPlan",
    "bell_outcomes",
    "recovery_target",
    "published_corrections",
    "correction_plans",
]

# The Bell vectors on (2, 8), one row per label of BELL_ORDER.
_BELL = (1.0 / np.sqrt(2.0)) * np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex)

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# The Paulis in the search order of plans.WORDS.
_PAULI = (("i", _I2), ("x", _SX), ("y", _SY), ("z", _SZ))


class BellOutcome(NamedTuple):
    """One Bell-measurement result on qubits (2, 8); for a stack, probability
    is an array and post_state a stack, one entry per member."""

    label: str
    projector: np.ndarray
    probability: float
    post_state: DensityOp


class CorrectionPlan(NamedTuple):
    """Correction unitary on qubits (3, 5, 7) for one Bell outcome."""

    outcome: str
    unitary: np.ndarray
    source: str
    achieved_fidelity: float
    word: str


def _on_325(rho325: DensityOp, order: str) -> np.ndarray:
    """The matrix (or stack) of rho325 with its qubits in `order`, a
    permutation of "325"."""
    if set(rho325.register.labels) != {"3", "2", "5"}:
        raise ContractError(
            f"expected a three-qubit operator on labels 3,2,5, got {rho325.register.labels}"
        )
    return rho325.register.front(rho325.matrix, order).reshape(rho325.matrix.shape)


def recovery_target(rho325: DensityOp) -> DensityOp:
    """The state the corrections aim for: qubit 2's role moves to qubit 7.

    Carol's qubit 7 inherits the teleported qubit, so the target is the
    input operator with register (3, 2, 5) read as (3, 7, 5), presented in
    label order (3, 5, 7).
    """
    return DensityOp(Register.qubits("3", "5", "7"), _on_325(rho325, "352"))


def published_corrections() -> dict[str, np.ndarray]:
    """The published correction set, one unitary on (3, 5, 7) per outcome."""
    names, unitaries = _pauli_words()
    return {label: unitaries[names.index(word)] for label, word in PUBLISHED_WORDS.items()}


@functools.cache
def _pauli_words() -> tuple[tuple[str, ...], np.ndarray]:
    """All 64 Pauli words on (3, 5, 7) in search order (plans.WORDS), with
    their unitaries (built once, read-only): word (a, b, c) is the kron of
    paulis a, b, c."""
    names = WORDS
    paulis = np.stack([p for _, p in _PAULI])
    unitaries = np.einsum("aij,bkl,cmn->abcikmjln", paulis, paulis, paulis).reshape(64, 8, 8)
    unitaries.flags.writeable = False
    return names, unitaries


def bell_outcomes(rho325: DensityOp) -> list[BellOutcome]:
    """The four Bell outcomes on qubits (2, 8), in BELL_ORDER, of rho325
    with the singlet (|01> - |10>)/sqrt(2) on (8, 7) adjoined, by the
    teleportation identity: probability exactly 0.25 (for a stack, an array
    of them), and post state SIGMA[label] T SIGMA[label]^dagger on (3, 5, 7)
    for T = recovery_target(rho325), exact in floats."""
    target = recovery_target(rho325)
    flat = target.matrix.reshape(-1, 64).tolist()
    posts = np.array([[plans._conjugate(t, WORDS.index(SIGMA[label])) for label in BELL_ORDER] for t in flat])
    posts = posts.reshape(len(flat), len(BELL_ORDER), 8, 8)
    lead = rho325.matrix.shape[:-2]
    return [
        BellOutcome(
            label=label,
            projector=np.outer(vec, vec.conj()),
            probability=np.full(lead, 0.25) if lead else 0.25,
            post_state=DensityOp(target.register, posts[:, k].reshape(target.matrix.shape)),
        )
        for k, (label, vec) in enumerate(zip(BELL_ORDER, _BELL))
    ]


def correction_plans(rho325: DensityOp, sources=("derived",)):
    """The plan of each source ("derived" or "published") for each Bell
    outcome, with the fidelity it reaches against the recovery target T:
    words and the 1.0 of exact plans by plans._scored_plans, and every
    other plan scored by linalg.fidelity in one call. (The CLI finds the
    same plans from the rho325 table and scores them in closed form:
    plans._swap_plans.)

    Returns {source: {outcome label: plan}}; for a stack of G operators, a
    list of G such dicts.
    """
    lead = rho325.matrix.shape[:-2]
    targets = recovery_target(rho325).matrix.reshape(-1, 64).tolist()

    def score(ts, ss):
        return fidelity(np.array(ts).reshape(-1, 8, 8), np.array(ss).reshape(-1, 1, 8, 8))[:, 0].tolist()

    _, unitaries = _pauli_words()
    points = [
        {
            source: {
                label: CorrectionPlan(label, unitaries[WORDS.index(word)], source, f, word)
                for label, (word, f) in point[source].items()
            }
            for source in point
        }
        for point in plans._scored_plans(targets, tuple(sources), score)
    ]
    return points if lead else points[0]
