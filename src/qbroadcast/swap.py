"""Third-party extension: adjoin a singlet shared with Carol, Bell-measure
qubits (2, 8), and correct Carol's qubit to hand her qubit 2's role.

The correction plans come in two flavors: the published set of four
Pauli words, and an independently derived set found by searching all
three-qubit Pauli words. The derived set is authoritative for the
recovery claim; the published one is measured and reported.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .constants import PROB_FLOOR
from .errors import ContractError
from .linalg import dagger, fidelity
from .qstate import DensityOp, PureState, Register, permute_subsystems, tensor, to_density

__all__ = [
    "BELL_ORDER",
    "BellOutcome",
    "CorrectionPlan",
    "swap_extend",
    "bsm",
    "recovery_target",
    "published_corrections",
    "correction_plans",
]

BELL_ORDER = ("B1+", "B1-", "B2+", "B2-")

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Lexicographic Pauli order used for tie-breaking in the search.
_PAULI = (("i", _I2), ("x", _SX), ("y", _SY), ("z", _SZ))


@dataclass(frozen=True)
class BellOutcome:
    """One Bell-measurement result on qubits (2, 8)."""

    label: str
    projector: np.ndarray
    probability: float
    post_state: DensityOp


@dataclass(frozen=True)
class CorrectionPlan:
    """Correction unitary on qubits (3, 5, 7) for one Bell outcome."""

    outcome: str
    unitary: np.ndarray
    source: str
    achieved_fidelity: float
    word: str


def _bell_vectors() -> dict[str, np.ndarray]:
    s = 1.0 / np.sqrt(2.0)
    return {
        "B1+": s * np.array([1, 0, 0, 1], dtype=complex),
        "B1-": s * np.array([1, 0, 0, -1], dtype=complex),
        "B2+": s * np.array([0, 1, 1, 0], dtype=complex),
        "B2-": s * np.array([0, 1, -1, 0], dtype=complex),
    }


def _as_325(rho325: DensityOp) -> DensityOp:
    if set(rho325.register.labels) != {"3", "2", "5"}:
        raise ContractError(
            f"expected a three-qubit operator on labels 3,2,5, got {rho325.register.labels}"
        )
    return permute_subsystems(rho325, ["3", "2", "5"])


def swap_extend(rho325: DensityOp) -> DensityOp:
    """Adjoin the singlet (|01> - |10>)/sqrt(2) on (8, 7): labels (3,2,5,8,7)."""
    rho = _as_325(rho325)
    s = 1.0 / np.sqrt(2.0)
    singlet = PureState(
        Register.qubits("8", "7"),
        np.array([0.0, s, -s, 0.0], dtype=complex),
    )
    return tensor(rho, to_density(singlet))


def bsm(joint: DensityOp) -> list[BellOutcome]:
    """Bell-measure qubits (2, 8) of the five-qubit joint state.

    Returns the four outcomes in fixed order with renormalized post states
    on (3, 5, 7). The probabilities must sum to 1.
    """
    work = permute_subsystems(joint, ["3", "5", "7", "2", "8"])
    t = work.matrix.reshape(8, 4, 8, 4)
    out = []
    total = 0.0
    for label, vec in _bell_vectors().items():
        mat = np.einsum("aibj,i,j->ab", t, vec.conj(), vec)
        p = float(np.trace(mat).real)
        if p < PROB_FLOOR:
            raise ContractError(f"bsm: outcome {label} has vanishing probability")
        total += p
        out.append(
            BellOutcome(
                label=label,
                projector=np.outer(vec, vec.conj()),
                probability=p,
                post_state=DensityOp(Register.qubits("3", "5", "7"), mat / p),
            )
        )
    if abs(total - 1.0) > 1e-10:
        raise ContractError(f"bsm: outcome probabilities sum to {total}, not 1")
    return out


def recovery_target(rho325: DensityOp) -> DensityOp:
    """The state the corrections aim for: qubit 2's role moves to qubit 7.

    Carol's qubit 7 inherits the teleported qubit, so the target is the
    input operator with register (3, 2, 5) read as (3, 7, 5), presented in
    label order (3, 5, 7).
    """
    rho = _as_325(rho325)
    reordered = permute_subsystems(rho, ["3", "5", "2"])
    return DensityOp(Register.qubits("3", "5", "7"), reordered.matrix)


# The published correction set, as Pauli words on (3, 5, 7).
PUBLISHED_WORDS = {"B1+": "izx", "B1-": "iix", "B2+": "iiz", "B2-": "iii"}


def published_corrections() -> dict[str, np.ndarray]:
    """The published correction set, one unitary on (3, 5, 7) per outcome."""
    names, unitaries = _pauli_words()
    return {label: unitaries[names.index(word)] for label, word in PUBLISHED_WORDS.items()}


@functools.cache
def _pauli_words() -> tuple[tuple[str, ...], np.ndarray]:
    """All 64 Pauli words on (3, 5, 7) in search order, with their unitaries
    (built once, read-only)."""
    words = list(itertools.product(_PAULI, repeat=3))
    names = tuple(n3 + n5 + n7 for (n3, _), (n5, _), (n7, _) in words)
    unitaries = np.stack([np.kron(p3, np.kron(p5, p7)) for (_, p3), (_, p5), (_, p7) in words])
    unitaries.flags.writeable = False
    return names, unitaries


def _searched_words(posts: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Index of the word with the smallest entrywise residual
    max|U post U^dagger - target| for each post state, over all 64 words.

    Each post state is a Pauli conjugate of the target, so that residual is
    roundoff. Residuals within 1e-12 of the smallest tie (the parity
    symmetry of rho325 makes two words exact), and ties go to the first
    word in lexicographic order (i < x < y < z, qubit order 3, 5, 7).
    """
    _, unitaries = _pauli_words()
    corrected = unitaries[None] @ posts[:, None] @ dagger(unitaries)[None]
    residual = np.max(np.abs(corrected - target), axis=(-2, -1))
    return np.argmax(residual <= residual.min(axis=1, keepdims=True) + 1e-12, axis=1)


def correction_plans(
    rho325: DensityOp, sources=("derived",), outcomes: list[BellOutcome] | None = None
) -> dict[str, dict[str, CorrectionPlan]]:
    """The plan of each source ("derived" or "published") for each Bell
    outcome, with the fidelity it reaches against the recovery target.

    Derived words are searched by residual, with no fidelity (see
    _searched_words). Only the chosen words of every source are scored, in
    one fidelity call, and every derived word must reach fidelity 1, since
    the shared resource is a maximally entangled pair. outcomes is
    bsm(swap_extend(rho325)), measured here unless the caller passes it.
    """
    if not set(sources) <= {"derived", "published"}:
        raise ValueError(f"correction_plans: unknown sources in {sources!r}")
    target = recovery_target(rho325).matrix
    if outcomes is None:
        outcomes = bsm(swap_extend(rho325))
    names, unitaries = _pauli_words()
    posts = np.stack([outcome.post_state.matrix for outcome in outcomes])
    words = np.array(
        [
            _searched_words(posts, target)
            if source == "derived"
            else [names.index(PUBLISHED_WORDS[outcome.label]) for outcome in outcomes]
            for source in sources
        ]
    )
    chosen = unitaries[words]
    scores = fidelity(target, (chosen @ posts @ dagger(chosen)).reshape(-1, 8, 8)).reshape(words.shape)
    plans = {
        source: {
            outcome.label: CorrectionPlan(outcome.label, unitaries[w], source, float(f), names[w])
            for outcome, w, f in zip(outcomes, row.tolist(), fids)
        }
        for source, row, fids in zip(sources, words, scores)
    }
    for plan in plans.get("derived", {}).values():
        if plan.achieved_fidelity < 1.0 - 1e-9:
            raise ContractError(
                f"correction_plans: outcome {plan.outcome} only reaches "
                f"fidelity {plan.achieved_fidelity:.12f}"
            )
    return plans
