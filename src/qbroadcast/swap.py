"""Third-party extension: adjoin a singlet shared with Carol, Bell-measure
qubits (2, 8), and correct Carol's qubit to hand her qubit 2's role, for
one rho325 or for a stack of them in one call per step.

The correction plans come in two flavors: the published set of four
Pauli words, and an independently derived set found by searching all
three-qubit Pauli words. The derived set is authoritative for the
recovery claim; the published one is measured and reported.
"""
from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .constants import PROB_FLOOR
from .errors import ContractError
from .linalg import dagger, fidelity
from .qstate import DensityOp, PureState, Register, tensor, to_density

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

# The Bell vectors on (2, 8), one row per label of BELL_ORDER.
_BELL = (1.0 / np.sqrt(2.0)) * np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex)

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Lexicographic Pauli order used for tie-breaking in the search.
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


def swap_extend(rho325: DensityOp) -> DensityOp:
    """Adjoin the singlet (|01> - |10>)/sqrt(2) on (8, 7): labels (3,2,5,8,7)."""
    rho = DensityOp(Register.qubits("3", "2", "5"), _on_325(rho325, "325"))
    s = 1.0 / np.sqrt(2.0)
    singlet = PureState(
        Register.qubits("8", "7"),
        np.array([0.0, s, -s, 0.0], dtype=complex),
    )
    return tensor(rho, to_density(singlet))


def bsm(joint: DensityOp) -> list[BellOutcome]:
    """Bell-measure qubits (2, 8) of the five-qubit joint state, or of each
    member of a stack.

    Returns the four outcomes in BELL_ORDER with renormalized post states
    on (3, 5, 7). Each member's probabilities must sum to 1.
    """
    if set(joint.register.labels) != set("32587"):
        raise ContractError(f"bsm: expected an operator on labels 3,2,5,8,7, got {joint.register.labels}")
    lead = joint.matrix.shape[:-2]
    t = joint.register.front(joint.matrix, "35728").reshape(lead + (8, 4, 8, 4))
    out = []
    total = 0.0
    for label, vec in zip(BELL_ORDER, _BELL):
        mat = np.einsum("...aibj,i,j->...ab", t, vec.conj(), vec)
        p = np.trace(mat, axis1=-2, axis2=-1).real
        if np.any(p < PROB_FLOOR):
            raise ContractError(f"bsm: outcome {label} has vanishing probability")
        total += p
        out.append(
            BellOutcome(
                label=label,
                projector=np.outer(vec, vec.conj()),
                probability=float(p) if not lead else p,
                post_state=DensityOp(Register.qubits("3", "5", "7"), mat / p[..., None, None]),
            )
        )
    off = np.abs(total - 1.0)
    if np.any(off > 1e-10):
        raise ContractError(f"bsm: outcome probabilities sum to {np.ravel(total)[np.argmax(off)]}, not 1")
    return out


def recovery_target(rho325: DensityOp) -> DensityOp:
    """The state the corrections aim for: qubit 2's role moves to qubit 7.

    Carol's qubit 7 inherits the teleported qubit, so the target is the
    input operator with register (3, 2, 5) read as (3, 7, 5), presented in
    label order (3, 5, 7).
    """
    return DensityOp(Register.qubits("3", "5", "7"), _on_325(rho325, "352"))


# The published correction set, as Pauli words on (3, 5, 7).
PUBLISHED_WORDS = {"B1+": "izx", "B1-": "iix", "B2+": "iiz", "B2-": "iii"}


def published_corrections() -> dict[str, np.ndarray]:
    """The published correction set, one unitary on (3, 5, 7) per outcome."""
    names, unitaries = _pauli_words()
    return {label: unitaries[names.index(word)] for label, word in PUBLISHED_WORDS.items()}


@functools.cache
def _pauli_words() -> tuple[tuple[str, ...], np.ndarray]:
    """All 64 Pauli words on (3, 5, 7) in search order, with their unitaries
    (built once, read-only): word (a, b, c) is the kron of paulis a, b, c."""
    names = tuple("".join(word) for word in itertools.product([n for n, _ in _PAULI], repeat=3))
    paulis = np.stack([p for _, p in _PAULI])
    unitaries = np.einsum("aij,bkl,cmn->abcikmjln", paulis, paulis, paulis).reshape(64, 8, 8)
    unitaries.flags.writeable = False
    return names, unitaries


def _searched_words(posts: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Index of the word with the smallest entrywise residual
    max|U post U^dagger - target| for each post state, over all 64 words;
    posts (..., K, 8, 8) against targets (..., 8, 8) give indices (..., K).

    Each post state is a Pauli conjugate of the target, so that residual is
    roundoff. Residuals within 1e-12 of the smallest tie (the parity
    symmetry of rho325 makes two words exact), and ties go to the first
    word in lexicographic order (i < x < y < z, qubit order 3, 5, 7).
    A word moves entries and multiplies them by 1, -1, i or -i, exactly, so
    the residual is read as max|post - U^dagger target U|, which conjugates
    each target, not each post, 64 times.
    """
    _, unitaries = _pauli_words()
    moved = dagger(unitaries) @ target[..., None, :, :] @ unitaries
    residual = np.max(np.abs(posts[..., None, :, :] - moved[..., None, :, :, :]), axis=(-2, -1))
    return np.argmax(residual <= residual.min(axis=-1, keepdims=True) + 1e-12, axis=-1)


def correction_plans(rho325: DensityOp, sources=("derived",), outcomes: list | None = None):
    """The plan of each source ("derived" or "published") for each Bell
    outcome, with the fidelity it reaches against the recovery target.

    Derived words are searched by residual, with no fidelity (see
    _searched_words). Only the chosen words of every source are scored, in
    one fidelity call, and every derived word must reach fidelity 1, since
    the shared resource is a maximally entangled pair. outcomes is
    bsm(swap_extend(rho325)), measured here unless the caller passes it.

    Returns {source: {outcome label: plan}}; for a stack of G operators, a
    list of G such dicts, from one search and one fidelity call.
    """
    if not set(sources) <= {"derived", "published"}:
        raise ValueError(f"correction_plans: unknown sources in {sources!r}")
    if outcomes is None:
        outcomes = bsm(swap_extend(rho325))
    lead = rho325.matrix.shape[:-2]
    posts = np.stack([o.post_state.matrix for o in outcomes], axis=-3)
    if posts.shape[:-3] != lead:
        raise ContractError(f"correction_plans: outcomes shaped {posts.shape[:-3]} for operators shaped {lead}")
    targets = recovery_target(rho325).matrix.reshape(-1, 8, 8)
    posts = posts.reshape(len(targets), len(outcomes), 8, 8)
    names, unitaries = _pauli_words()
    published = np.broadcast_to([names.index(PUBLISHED_WORDS[o.label]) for o in outcomes], posts.shape[:2])
    derived = _searched_words(posts, targets) if "derived" in sources else None
    # words[g, j, k]: the word of source j for outcome k of point g.
    words = np.stack([derived if source == "derived" else published for source in sources], axis=1)
    chosen = unitaries[words]
    corrected = chosen @ posts[:, None] @ dagger(chosen)
    # Explicit sizes, so that an empty stack reshapes too.
    corrected = corrected.reshape(len(targets), len(sources) * len(outcomes), 8, 8)
    scores = fidelity(targets, corrected).reshape(words.shape)
    plans = [
        {
            source: {
                outcome.label: CorrectionPlan(outcome.label, unitaries[w], source, float(f), names[w])
                for outcome, w, f in zip(outcomes, row.tolist(), fids)
            }
            for source, row, fids in zip(sources, point_words, point_scores)
        }
        for point_words, point_scores in zip(words, scores)
    ]
    for plan in (plan for point in plans for plan in point.get("derived", {}).values()):
        if plan.achieved_fidelity < 1.0 - 1e-9:
            raise ContractError(
                f"correction_plans: outcome {plan.outcome} only reaches "
                f"fidelity {plan.achieved_fidelity:.12f}"
            )
    return plans if lead else plans[0]
