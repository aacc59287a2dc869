"""End-to-end pipeline: initial two-qubit state, two rounds of local
cloning with machine-outcome selection in between, six-qubit state assembly,
marginal extraction, and per-branch scans of the pair verdicts.

Labels: Alice holds qubits 1, 2, 5 (1 is her original, 2 and 5 its clones);
Bob holds 3, 4, 6. Machine registers A1/B1 belong to the first cloning round
and are measured; A2/B2 belong to the second round and are traced out.

Every stage is linear in the input alpha|00> + beta|11>, so each branch's
unnormalized eight-qubit state is alpha*v00 + beta*v11, where v00 and v11
are the pipeline's outputs for the basis inputs |00> and |11> (weighted by
the square root of their branch probability). A marginal on any labels is
then, with x = alpha^2 and beta = sqrt(1 - x) e^{i phi},

    x*G00 + (1 - x)*G11 + sqrt(x(1 - x)) * (e^{-i phi}*G01 + h.c.)

divided by its trace, where Gij is the partial trace of |vi><vj| over the
other labels. The vectors are built on first use and the Gram blocks are
kept per (branch, labels), so an alpha^2 family costs one small linear
combination per point, evaluated for a whole array of points at once.
The ten pair marginals of a branch share one stack of blocks in which
bitwise-equal blocks are kept once (pair_marginals), so a scan step forms
and solves each distinct pair once. The per-point routes the tests hold
this map to are kept in tests/reference.py.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from .cloner import OUTCOME_ORDER, BranchOutcome, clone_subsystem, machine_branches
from .constants import SCAN_GRID, SCAN_TOL
from .entanglement import (
    ThresholdInterval,
    broadcast_holds,
    ppt_verdict,
    scan_predicates,
)
from .errors import ContractError
from .gvchannel import DeliveryRecord, GvConfig, secure_send
from .linalg import dagger
from .qstate import PAIR_REGISTER, DensityOp, PureState, Register

__all__ = [
    "ProtocolRun",
    "PAIR_KEYS",
    "build_initial",
    "run_first_stage",
    "six_qubit_branch",
    "branch_marginal",
    "PAIR_REGISTER",
    "pair_marginals",
    "machine_traced_marginal",
    "branch_scan",
    "run_protocol",
]

# Marginals the sweep and report tooling works with, in report order.
PAIR_KEYS = ("12", "15", "34", "36", "25", "46", "23", "35", "14", "16")

SIX_LABELS = ("1", "2", "5", "3", "4", "6")


@dataclass(frozen=True)
class ProtocolRun:
    """One full protocol execution for a fixed machine branch."""

    alpha2: float
    beta_phase: float
    branch: tuple[str, str]
    six_qubit_state: DensityOp
    message_log: tuple[tuple[str, str, DeliveryRecord], ...]
    compromised: bool


def build_initial(alpha: float, beta_phase: float = 0.0) -> PureState:
    """The shared two-qubit state alpha|00> + beta|11> on labels (1, 3)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"build_initial: alpha must be in (0, 1), got {alpha}")
    beta = np.sqrt(1.0 - alpha * alpha) * np.exp(1j * beta_phase)
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = alpha
    amps[0b11] = beta
    return PureState(Register.qubits("1", "3"), amps)


def run_first_stage(psi13: PureState) -> tuple[PureState, list[BranchOutcome]]:
    """Clone qubit 1 -> (1,2) and qubit 3 -> (3,4), then measure machines.

    Returns the four-qubit-plus-machines state on (1,2,A1,3,4,B1) and the
    four machine branches.
    """
    if psi13.register.labels != ("1", "3"):
        raise ContractError(
            f"run_first_stage: expected labels (1, 3), got {psi13.register.labels}"
        )
    chi = clone_subsystem(psi13, "1", ("1", "2"), "A1")
    chi = clone_subsystem(chi, "3", ("3", "4"), "B1")
    return chi, machine_branches(chi, ["A1", "B1"])


def _as_branch(branch) -> tuple[str, str]:
    pair = tuple(str(x) for x in branch)
    if pair not in OUTCOME_ORDER:
        raise ValueError(f"unknown machine branch {branch!r}")
    return pair


def _basis_input(index: int) -> PureState:
    amps = np.zeros(4, dtype=complex)
    amps[index] = 1.0
    return PureState(Register.qubits("1", "3"), amps)


@cache
def _first_stage_runs() -> tuple[tuple[PureState, list[BranchOutcome]], ...]:
    """run_first_stage for the basis inputs |00> and |11>, in that order."""
    return tuple(run_first_stage(_basis_input(index)) for index in (0b00, 0b11))


@cache
def _basis_images(branch: tuple[str, str] | None) -> tuple[Register, np.ndarray, np.ndarray]:
    """Register and images v00, v11 of the basis inputs |00>, |11>.

    For a branch: the unnormalized eight-qubit states sqrt(p)*state after
    the branch's selection and the second cloning round. For None: the
    first-round state with the machines A1, B1 left unmeasured.
    """
    runs = _first_stage_runs()
    if branch is None:
        return runs[0][0].register, runs[0][0].amplitudes, runs[1][0].amplitudes
    images = []
    for _, branches in runs:
        sel = next(b for b in branches if b.machine_labels == branch)
        phi = clone_subsystem(sel.state, "2", ("2", "5"), "A2")
        phi = clone_subsystem(phi, "4", ("4", "6"), "B2")
        images.append(np.sqrt(sel.probability) * phi.amplitudes)
    return phi.register, images[0], images[1]


@lru_cache(maxsize=128)
def _gram_blocks(branch: tuple[str, str] | None, labels: tuple[str, ...]):
    """Register of the kept labels and the blocks G00, G01, G11."""
    reg, v00, v11 = _basis_images(branch)
    if not labels or len(set(labels)) != len(labels):
        raise ContractError(f"marginal: labels {list(labels)} are empty or repeat")
    axes = [reg.axis(label) for label in labels]
    rest = [i for i in range(len(reg.labels)) if i not in axes]
    kept = Register(labels, tuple(reg.dims[a] for a in axes))

    def rows(v: np.ndarray) -> np.ndarray:
        return v.reshape(reg.dims).transpose(axes + rest).reshape(kept.dim, -1)

    a, b = rows(v00), rows(v11)
    g00 = a @ dagger(a)
    g11 = b @ dagger(b)
    return kept, (g00 + dagger(g00)) / 2.0, a @ dagger(b), (g11 + dagger(g11)) / 2.0


def _alpha2_values(alpha2) -> np.ndarray:
    x = np.asarray(alpha2, dtype=float)
    if x.ndim > 1 or not np.all((x > 0.0) & (x < 1.0)):
        raise ValueError(f"alpha2 must be a number or a 1-D array in (0, 1), got {alpha2!r}")
    return x


def _combine(g00, g01, g11, x: np.ndarray, beta_phase: float) -> np.ndarray:
    """The normalized marginals of blocks stacked (E, d, d) at x, a number
    or a 1-D array of n values: shape (E, d, d) or (E, n, d, d)."""
    if x.ndim:
        g00, g01, g11 = g00[:, None], g01[:, None], g11[:, None]
    # The amplitudes as build_initial forms them, so both routes share the
    # input's rounding: alpha*alpha + beta*beta is 1 only to roundoff.
    alpha = np.sqrt(x)[..., None, None]
    beta = np.sqrt(1.0 - alpha * alpha)
    cross = (alpha * beta) * (np.exp(-1j * float(beta_phase)) * g01)
    mat = (alpha * alpha) * g00 + (beta * beta) * g11 + (cross + dagger(cross))
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]


def _marginal(branch: tuple[str, str] | None, labels, alpha2, beta_phase: float) -> DensityOp:
    x = _alpha2_values(alpha2)
    kept, *blocks = _gram_blocks(branch, tuple(str(label) for label in labels))
    return DensityOp(kept, _combine(*(g[None] for g in blocks), x, beta_phase)[0])


def branch_marginal(alpha2, branch, labels, beta_phase: float = 0.0) -> DensityOp:
    """Marginal on `labels` of one branch's six-qubit state.

    alpha2 is a number (one operator) or a 1-D array (a stack with one
    member per value). labels is a sequence of labels; a string such as
    "46" or "325" lists single-character labels.
    """
    return _marginal(_as_branch(branch), labels, alpha2, beta_phase)


def machine_traced_marginal(alpha2, labels, beta_phase: float = 0.0) -> DensityOp:
    """Marginal on `labels` (from 1, 2, 3, 4) after the first cloning round
    with both machines traced out instead of measured; alpha2 as in
    branch_marginal."""
    return _marginal(None, labels, alpha2, beta_phase)


@cache
def _pair_blocks(branch: tuple[str, str]) -> tuple[tuple[np.ndarray, ...], dict[str, int]]:
    """The Gram blocks of a branch's PAIR_KEYS marginals, one entry per set
    of bitwise-equal blocks, stacked (E, 4, 4) as G00, G01, G11, and the
    entry of each key.

    The symmetric second cloning round makes clones 2, 5 and 4, 6
    interchangeable, so several pairs share their blocks exactly (5 entries
    on Q0Q0 and Q1Q1, 7 on Q0Q1 and Q1Q0); equal blocks give equal
    marginals and equal verdicts, so each is formed and solved once.
    """
    entries: list[list[np.ndarray]] = []
    entry: dict[str, int] = {}
    for key in PAIR_KEYS:
        _, *blocks = _gram_blocks(branch, tuple(key))
        same = [j for j, other in enumerate(entries) if all(map(np.array_equal, blocks, other))]
        if not same:
            entries.append(blocks)
        entry[key] = same[0] if same else len(entries) - 1
    g00, g01, g11 = (np.stack(g) for g in zip(*entries))
    return (g00, g01, g11), entry


def pair_marginals(alpha2, branch, keys, beta_phase: float = 0.0) -> tuple[DensityOp, dict[str, slice]]:
    """The distinct marginals among the pairs `keys` (from PAIR_KEYS) of one
    branch, as one stack, and the slice of that stack that holds each key.

    alpha2 is a number or a 1-D array of n values; the stack holds one run
    of n members (one for a number) per distinct marginal, and the run of
    key k, stack.matrix[runs[k]], equals branch_marginal(alpha2, branch, k,
    beta_phase).matrix bitwise. Its members sit on different pairs, so the
    stack's register names the positions in a pair, PAIR_REGISTER.
    """
    x = _alpha2_values(alpha2)
    (g00, g01, g11), entry = _pair_blocks(_as_branch(branch))
    keys = [str(key) for key in keys]
    unknown = [key for key in keys if key not in entry]
    if unknown:
        raise ValueError(f"pair_marginals: unknown pairs {unknown} (choose from {', '.join(PAIR_KEYS)})")
    used = list(dict.fromkeys(entry[key] for key in keys))
    mats = _combine(g00[used], g01[used], g11[used], x, beta_phase).reshape(-1, 4, 4)
    start = {e: j * x.size for j, e in enumerate(used)}
    runs = {key: slice(start[entry[key]], start[entry[key]] + x.size) for key in keys}
    return DensityOp(PAIR_REGISTER, mats), runs


def six_qubit_branch(
    alpha2: float, branch=("Q0", "Q0"), beta_phase: float = 0.0
) -> DensityOp:
    """Six-qubit state of one machine branch, on SIX_LABELS."""
    return branch_marginal(alpha2, branch, SIX_LABELS, beta_phase)


def branch_probabilities(alpha2: float, beta_phase: float = 0.0) -> dict[tuple[str, str], float]:
    """Machine outcome distribution at the given input weight."""
    psi = build_initial(float(np.sqrt(alpha2)), beta_phase)
    _, branches = run_first_stage(psi)
    return {b.machine_labels: b.probability for b in branches}


def _scan_row(name: str):
    """The predicate named `name` over the entangled flags of the pairs."""
    if name == "broadcast":
        return broadcast_holds
    if name == "closed-146":
        # rho146 is closed when its pairs (1,4), (4,6) and (1,6) are all entangled
        return lambda entangled: entangled["14"] & entangled["46"] & entangled["16"]
    key, _, predicate = name.partition(":")
    if key not in PAIR_KEYS or predicate not in ("entangled", "separable"):
        raise ValueError(f"branch_scan: unknown row {name!r}")
    want = predicate == "entangled"
    return lambda entangled: entangled[key] == want


def branch_scan(
    branch,
    names,
    beta_phase: float = 0.0,
    grid: int = SCAN_GRID,
    tol: float = SCAN_TOL,
) -> dict[str, list[ThresholdInterval]]:
    """alpha^2 intervals of one branch for each named row, from one scan.

    A row is "<pair>:entangled" or "<pair>:separable" for a pair in
    PAIR_KEYS, "broadcast" (broadcast_holds) or "closed-146" (pairs 14, 46
    and 16 all entangled). Each test call forms the distinct pair marginals
    as one pair_marginals stack and solves their PPT verdicts
    (ppt_verdict) at once, and the edges of all rows are bisected
    together. Pair rows' intervals are named by their predicate
    ("entangled" or "separable").
    """
    pair = _as_branch(branch)
    names = tuple(names)
    rows = [_scan_row(name) for name in names]

    def test(xs: np.ndarray) -> np.ndarray:
        stack, runs = pair_marginals(xs, pair, PAIR_KEYS, beta_phase)
        flags = ppt_verdict(stack).entangled
        entangled = {key: flags[run] for key, run in runs.items()}
        return np.stack([row(entangled) for row in rows])

    scans = scan_predicates(test, names, grid, tol)
    return {
        name: [replace(iv, predicate_name=name.rpartition(":")[2]) for iv in ivs]
        for name, ivs in scans.items()
    }


def _message_seeds(seed: int | None) -> tuple[int, int]:
    base = 0 if seed is None else int(seed)
    return (base * 1000003 + 1) % 2**63, (base * 1000003 + 2) % 2**63


def run_protocol(
    alpha2: float,
    beta_phase: float = 0.0,
    branch_policy: str = "fixed",
    branch=("Q0", "Q0"),
    seed: int | None = None,
    eve_strategy: str = "none",
) -> ProtocolRun:
    """Execute the full protocol once.

    branch_policy "fixed" keeps the requested branch; "sampled" draws one
    from the machine-outcome distribution (seed required). The two outcome
    announcements travel through the secret channel and are logged.
    """
    if not 0.0 < alpha2 < 1.0:
        raise ValueError(f"run_protocol: alpha2 must be in (0, 1), got {alpha2}")
    if branch_policy not in ("fixed", "sampled"):
        raise ValueError(f"run_protocol: unknown branch policy {branch_policy!r}")

    if branch_policy == "sampled":
        if seed is None:
            raise ValueError("run_protocol: sampled branch policy requires a seed")
        probs = branch_probabilities(alpha2, beta_phase)
        order = list(probs)
        weights = np.array([probs[b] for b in order])
        rng = np.random.default_rng(seed)
        pair = order[int(rng.choice(len(order), p=weights / weights.sum()))]
    else:
        pair = _as_branch(branch)

    six = six_qubit_branch(alpha2, pair, beta_phase)
    alice_seed, bob_seed = _message_seeds(seed)
    alice_msg = secure_send(pair[0], eve_strategy, GvConfig(seed=alice_seed))
    bob_msg = secure_send(pair[1], eve_strategy, GvConfig(seed=bob_seed))
    log = (("Alice", "Bob", alice_msg), ("Bob", "Alice", bob_msg))
    return ProtocolRun(
        alpha2=float(alpha2),
        beta_phase=float(beta_phase),
        branch=pair,
        six_qubit_state=six,
        message_log=log,
        compromised=alice_msg.compromised or bob_msg.compromised,
    )
