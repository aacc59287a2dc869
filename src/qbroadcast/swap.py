"""Third-party extension: adjoin a singlet shared with Carol on qubits
(8, 7), Bell-measure qubits (2, 8), and correct Carol's qubit to hand her
qubit 2's role, for one rho325 or for a stack of them in one call per step.

The stage is evaluated by the teleportation identity (Bennett et al., PRL
70, 1895 (1993)), not simulated. Through the singlet, every Bell outcome
has probability exactly 1/4 for any rho325, and its post state on (3, 5, 7)
is sigma T sigma^dagger, with T the recovery target and sigma the Pauli
word SIGMA[outcome]. A Pauli word conjugates an operator by moving its
entries and multiplying them by 1, -1, i or -i, so every post state and
every corrected state here is exact in floats.

The correction plans come in two flavors: the published set of four
Pauli words, and an independently derived set found by searching all
three-qubit Pauli words. The derived set is authoritative for the
recovery claim; the published one is measured and reported. The simulated
stage (the singlet extension, the Bell measurement of the five-qubit joint
state, and a fidelity for every plan) is kept in tests/reference.py, which
the tests hold this module to.

The library route (bell_outcomes, correction_plans) takes any rho325 and
scores inexact plans with linalg.fidelity. The CLI's route, _swap_plans,
takes branch Q0Q0's targets straight from protocol's rho325 table, with no
DensityOp and no eigen-solve. There T is block diagonal on {0, 5, 6},
{7, 1, 2}, {3} and {4}, with rows 5 and 6, and rows 1 and 2, equal: each
3 x 3 block has rank 2, on e_i and (e_j + e_k)/sqrt 2. The only inexact
plan, published B1+, is a diagonal sign conjugate of T with the same
blocks, so its fidelity sums closed forms of 2 x 2 blocks (_block_fidelity).
"""
from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .linalg import fidelity
from .protocol import _amplitudes, _rho325_blocks
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

BELL_ORDER = ("B1+", "B1-", "B2+", "B2-")

# The Bell vectors on (2, 8), one row per label of BELL_ORDER.
_BELL = (1.0 / np.sqrt(2.0)) * np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex)

# The Pauli word on (3, 5, 7) that each outcome's post state is the target
# conjugated by.
SIGMA = {"B1+": "iiy", "B1-": "iix", "B2+": "iiz", "B2-": "iii"}

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Lexicographic Pauli order used for tie-breaking in the search.
_PAULI = (("i", _I2), ("x", _SX), ("y", _SY), ("z", _SZ))

# The (x, z) bits of each Pauli: up to a phase, a product of Paulis is the
# Pauli of the XOR of their bits.
_BITS = {"i": 0, "z": 1, "x": 2, "y": 3}

# A residual max|V T V^dagger - T| at or below this makes V T V^dagger the
# target to roundoff: fidelity 1.0, with no solve.
_EXACT = 1e-12


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


@functools.cache
def _word_moves() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each word V as a signed permutation of an 8 x 8 operator's entries,
    and the words after each Bell outcome's sigma, built once.

    Row r of V has one nonzero, V[r, p(r)], so (V T V^dagger)[r, c] is
    signs[v, r, c] * T[p(r), p(c)], with signs in {1, -1, i, -i}, and
    sources[v, r, c] = 8 p(r) + p(c) is where that entry comes from in the
    flat T. after[k, w] is the word W * SIGMA[k] up to a phase, for
    outcome k of BELL_ORDER: the words' (x, z) bits XOR.
    """
    names, unitaries = _pauli_words()
    p = np.argmax(np.abs(unitaries), axis=-1)
    phases = np.take_along_axis(unitaries, p[..., None], axis=-1)[..., 0]
    signs = phases[:, :, None] * phases.conj()[:, None, :]
    bits = np.array([_BITS[c] for name in names for c in name]).reshape(64, 3) @ [16, 4, 1]
    sigma = bits[[names.index(SIGMA[label]) for label in BELL_ORDER]]
    return 8 * p[:, :, None] + p[:, None, :], signs, np.argsort(bits)[bits ^ sigma[:, None]]


def _conjugates(targets: np.ndarray, words) -> np.ndarray:
    """V T V^dagger for each target T of (G, 8, 8) and each word V of
    `words` (indices in search order, or a slice of them), shaped
    (G, len(words), 8, 8): entries moved and multiplied by signs, exactly."""
    sources, signs, _ = _word_moves()
    return signs[words] * np.take(targets.reshape(len(targets), 64), sources[words], axis=1)


def bell_outcomes(rho325: DensityOp) -> list[BellOutcome]:
    """The four Bell outcomes on qubits (2, 8), in BELL_ORDER, of rho325
    with the singlet (|01> - |10>)/sqrt(2) on (8, 7) adjoined, by the
    teleportation identity: probability exactly 0.25 (for a stack, an array
    of them), and post state SIGMA[label] T SIGMA[label]^dagger on (3, 5, 7)
    for T = recovery_target(rho325), exact in floats."""
    target = recovery_target(rho325)
    names, _ = _pauli_words()
    posts = _conjugates(target.matrix.reshape(-1, 8, 8), [names.index(SIGMA[label]) for label in BELL_ORDER])
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


def _scored_plans(targets: np.ndarray, sources: tuple[str, ...], score) -> list[dict]:
    """{source: {outcome label: plan}} at each target T of (G, 8, 8): the
    word of each source for each Bell outcome, with the fidelity it reaches.

    Outcome k's post state is sigma_k T sigma_k^dagger (bell_outcomes), so
    a word W corrects it to V T V^dagger with V = W sigma_k. Each point's
    64 word residuals r(V) = max|V T V^dagger - T| are computed once. The
    derived word of outcome k is the first word W, in search order
    (i < x < y < z, qubit order 3, 5, 7), whose r(W sigma_k) lies within
    1e-12 of the smallest: the parity symmetry of rho325 makes two words
    exact, and the tie goes to the first. A plan whose r is at most 1e-12
    has fidelity 1.0, since then F >= 1 - 8 sqrt(8) r > 1 - 2.3e-11
    (Fuchs-van de Graaf, with the trace norm of an 8 x 8 difference at
    most 8 sqrt(8) times its largest entry); the others are scored in one
    call score(T, V T V^dagger) on two (K, 8, 8) stacks. A derived word
    with r above 1e-12 is a ContractError, since the shared resource is a
    maximally entangled pair.
    """
    if not set(sources) <= {"derived", "published"}:
        raise ValueError(f"correction_plans: unknown sources in {sources!r}")
    names, unitaries = _pauli_words()
    _, _, after = _word_moves()
    moved = _conjugates(targets, slice(None))
    residuals = np.max(np.abs(moved - targets[:, None]), axis=(-2, -1))
    # per_outcome[g, k, w]: r(W sigma_k) at point g
    per_outcome = residuals[:, after]
    derived = np.argmax(per_outcome <= per_outcome.min(axis=-1, keepdims=True) + _EXACT, axis=-1)
    published = np.broadcast_to([names.index(PUBLISHED_WORDS[label]) for label in BELL_ORDER], derived.shape)
    # words[g, j, k]: the word of source j for outcome k of point g; moves
    # its V = W sigma_k, and off the residual r(V)
    words = np.stack([derived if source == "derived" else published for source in sources], axis=1)
    moves = after[np.arange(len(BELL_ORDER)), words]
    off = residuals[np.arange(len(targets))[:, None, None], moves]
    exact = off <= _EXACT
    j = sources.index("derived") if "derived" in sources else None
    if j is not None and not exact[:, j].all():
        g, k = np.argwhere(~exact[:, j])[0]
        raise ContractError(
            f"correction_plans: outcome {BELL_ORDER[k]}'s best word {names[derived[g, k]]} leaves "
            f"a residual {off[g, j, k]:.3e}, above {_EXACT}"
        )
    scores = np.ones(words.shape)
    if not exact.all():
        g = np.nonzero(~exact)[0]
        scores[~exact] = score(targets[g], moved[g, moves[~exact]])
    return [
        {
            source: {
                label: CorrectionPlan(label, unitaries[w], source, f, names[w])
                for label, w, f in zip(BELL_ORDER, row.tolist(), fids.tolist())
            }
            for source, row, fids in zip(sources, point_words, point_scores)
        }
        for point_words, point_scores in zip(words, scores)
    ]


def correction_plans(rho325: DensityOp, sources=("derived",)):
    """The plan of each source ("derived" or "published") for each Bell
    outcome, with the fidelity it reaches against the recovery target T:
    words and the 1.0 of exact plans by _scored_plans, and every other plan
    scored by linalg.fidelity in one call. (The CLI finds the same plans
    from the rho325 table and scores them in closed form: _swap_plans.)

    Returns {source: {outcome label: plan}}; for a stack of G operators, a
    list of G such dicts.
    """
    lead = rho325.matrix.shape[:-2]
    targets = recovery_target(rho325).matrix.reshape(-1, 8, 8)
    plans = _scored_plans(targets, tuple(sources), lambda t, s: fidelity(t, s[:, None])[:, 0])
    return plans if lead else plans[0]


# The recovery target T on (3, 5, 7) is rho325 with qubit 2's role moved to
# qubit 7: T's index 4a + 2b + c is rho325's 4a + 2c + b on (3, 2, 5).
_TARGET_ORDER = [0, 2, 1, 3, 4, 6, 5, 7]

# T's blocks {0, 5, 6}, {7, 1, 2}, {3} and {4}, as a block number per index,
# and the rank-2 ones as (i, j, k), with rows j and k equal.
_BLOCK_OF = np.array([0, 1, 1, 2, 3, 0, 0, 1])
_PAIRED = ((0, 5, 6), (7, 1, 2))


def _has_blocks(m: np.ndarray) -> bool:
    """Whether every 8 x 8 matrix of the stack m is 0.0 off T's blocks and
    has rows j and k equal in each block (i, j, k) of _PAIRED."""
    return not np.any(m[..., _BLOCK_OF[:, None] != _BLOCK_OF]) and all(
        np.array_equal(m[..., j, :], m[..., k, :]) for _, j, k in _PAIRED
    )


@functools.cache
def _target_blocks() -> np.ndarray:
    """1296 times G00, G11 and G01 + G01^T of the rho325 table in T's index
    order, as one (3, 8, 8) float array, read-only. ContractError unless
    all three have T's block structure, which _block_fidelity relies on."""
    g00, g01, g11 = _rho325_blocks()[:, _TARGET_ORDER][:, :, _TARGET_ORDER]
    blocks = np.stack([g00, g11, g01 + g01.T])
    if not _has_blocks(blocks):
        raise ContractError("rho325 table: the recovery target must be block diagonal with equal paired rows")
    blocks.flags.writeable = False
    return blocks


def _block_fidelity(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity F(T, S) of two (K, 8, 8) stacks with T's block
    structure, in closed form: the square root of F adds over blocks, and
    a 2 x 2 pair A, B has F = tr AB + 2 sqrt(det A det B) (Jozsa, J. Mod.
    Opt. 41, 2315 (1994)). So, with A_b and B_b the rank-2 blocks of T and
    S compressed onto e_i and (e_j + e_k)/sqrt 2,

        F = (sum_b sqrt(tr A_b B_b + 2 sqrt(det A_b det B_b))
             + sqrt(T_33 S_33) + sqrt(T_44 S_44))^2.

    ContractError if S lacks the structure (T has it by _target_blocks).
    """
    if not _has_blocks(s):
        raise ContractError("swap plans: a corrected state leaves the recovery target's blocks")
    roots = np.sqrt(t[:, 3, 3].real * s[:, 3, 3].real) + np.sqrt(t[:, 4, 4].real * s[:, 4, 4].real)
    for i, j, _ in _PAIRED:
        # A = [[T_ii, sqrt2 T_ij], [., 2 T_jj]], and B likewise from S
        (ti, tij, tj), (si, sij, sj) = ((m[:, i, i].real, m[:, i, j], m[:, j, j].real) for m in (t, s))
        trace = ti * si + 4.0 * ((tij * sij.conjugate()).real + tj * sj)
        dets = 4.0 * (ti * tj - abs(tij) ** 2) * (si * sj - abs(sij) ** 2)
        roots += np.sqrt(trace + 2.0 * np.sqrt(np.maximum(dets, 0.0)))
    return roots**2


def _table_targets(alpha2) -> np.ndarray:
    """The recovery targets at each alpha^2 of the 1-D alpha2: the rho325
    table's combination taken in T's index order, bitwise
    recovery_target(protocol._rho325(alpha2)).matrix."""
    alpha, beta = (v[..., None, None] for v in _amplitudes(alpha2))
    g00, g11, g01 = _target_blocks()
    mat = (alpha * alpha) * g00 + (beta * beta) * g11 + (alpha * beta) * g01
    return mat / np.trace(mat, axis1=-2, axis2=-1)[..., None, None]


def _swap_plans(alpha2, sources) -> list[dict]:
    """The CLI's swap stage: correction_plans(protocol._rho325(alpha2),
    sources) for a 1-D alpha2, with no DensityOp and no eigen-solve:
    _scored_plans on _table_targets, scoring the inexact plans by
    _block_fidelity. Every Bell outcome has probability 0.25, as in
    bell_outcomes."""
    return _scored_plans(_table_targets(alpha2), tuple(sources), _block_fidelity)
