"""End-to-end pipeline: initial two-qubit state, two rounds of local
cloning with machine-outcome selection in between, six-qubit state assembly,
marginal extraction, and per-branch scans of the pair verdicts, the first
round's (machines traced out) giving the single-round buzek_baseline.

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
other labels. The vectors are built on first use and the Gram blocks once
per call, so an alpha^2 family costs one small linear combination per
point, evaluated for a whole array of points at once.

Every pair marginal is an X-state: G00 and G11 are 0.0 off the diagonal
and the real entry (1,2), and G01 is 0.0 off (0,3). So a pair marginal is
fixed by six reals, the diagonal a, b, c, d and z = rho[1,2], each linear
in x over the trace, and |w|^2 = x(1 - x)|G01[0,3]|^2 / trace^2 for
w = rho[0,3]. pair_verdicts evaluates a per-branch table of these
coefficients, certified once, and the closed forms of
entanglement._x_verdict: no complex matrix and no eigen-solve per point.
The phase enters only through the phase of w, which no verdict or measure
reads. The per-point routes the tests hold this map to are kept in
tests/reference.py.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .cloner import OUTCOME_ORDER, BranchOutcome, clone_subsystem, machine_branches
from .constants import SCAN_GRID, SCAN_TOL
from .entanglement import PPTVerdict, ThresholdInterval, _x_verdict, broadcast_holds, scan_predicates
from .errors import ContractError
from .gvchannel import DeliveryRecord, GvConfig, _integer_at_least, secure_send
from .linalg import dagger
from .qstate import DensityOp, PureState, Register

__all__ = [
    "ProtocolRun",
    "PAIR_KEYS",
    "build_initial",
    "run_first_stage",
    "six_qubit_branch",
    "branch_marginal",
    "pair_verdicts",
    "branch_scan",
    "buzek_baseline",
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


def _as_branch(branch) -> tuple[str, str] | None:
    """A machine branch as a pair of outcome names; None, the first round
    with the machines traced out, stays None."""
    if branch is None:
        return None
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


def _gram_blocks(branch: tuple[str, str] | None, labels: tuple[str, ...]):
    """Register of the kept labels and the blocks G00, G01, G11."""
    reg, v00, v11 = _basis_images(branch)
    if not labels or len(set(labels)) != len(labels):
        raise ContractError(f"marginal: labels {list(labels)} are empty or repeat")
    a, b = reg.front(v00, labels, 1), reg.front(v11, labels, 1)
    g00 = a @ dagger(a)
    g11 = b @ dagger(b)
    return Register(labels), (g00 + dagger(g00)) / 2.0, a @ dagger(b), (g11 + dagger(g11)) / 2.0


def _amplitudes(alpha2) -> tuple[np.ndarray, np.ndarray]:
    """alpha and |beta| at alpha2, a number or a 1-D array in [0, 1], as
    build_initial forms them, so that every route shares the input's
    rounding: alpha*alpha + beta*beta is 1 only to roundoff."""
    x = np.asarray(alpha2, dtype=float)
    if x.ndim > 1 or not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"alpha2 must be a number or a 1-D array in [0, 1], got {alpha2!r}")
    alpha = np.sqrt(x)
    return alpha, np.sqrt(1.0 - alpha * alpha)


def branch_marginal(alpha2, branch, labels, beta_phase: float = 0.0) -> DensityOp:
    """Marginal on `labels` of one branch's six-qubit state; branch None is
    the first round with the machines traced out, on qubits 1 to 4.

    alpha2 is a number (one operator) or a 1-D array (a stack with one
    member per value). labels is a sequence of labels; a string such as
    "46" or "325" lists single-character labels.
    """
    alpha, beta = (v[..., None, None] for v in _amplitudes(alpha2))
    kept, g00, g01, g11 = _gram_blocks(_as_branch(branch), tuple(str(label) for label in labels))
    cross = (alpha * beta) * (np.exp(-1j * float(beta_phase)) * g01)
    mat = (alpha * alpha) * g00 + (beta * beta) * g11 + (cross + dagger(cross))
    return DensityOp(kept, mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None])


# Where a pair's Gram blocks may be non-zero: G00 and G11 on the diagonal
# and at (1,2), (2,1); G01 at (0,3) alone.
_SAME = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[[0, 2, 1, 3]]
_CROSS = np.zeros((4, 4), dtype=bool)
_CROSS[0, 3] = True


def _x_coefficients(g00, g01, g11) -> tuple[np.ndarray, float]:
    """The X-state coefficients of one pair's Gram blocks: the rows
    [diag G00, G00[1,2]] and [diag G11, G11[1,2]], shape (2, 5), and
    |G01[0,3]|^2. Raises ContractError unless the blocks are 0.0 off the
    positions _SAME and _CROSS allow and each (1,2) entry is real, since
    only then do these six numbers fix the marginal's verdict and measures.
    """
    if (np.any(g00[~_SAME]) or np.any(g11[~_SAME]) or np.any(g01[~_CROSS])
            or g00[1, 2].imag or g11[1, 2].imag):
        raise ContractError("pair table: a Gram block is not 0.0 off the X pattern with a real (1,2) entry")
    lin = np.array([[*g.diagonal().real, g[1, 2].real] for g in (g00, g11)])
    return lin, g01[0, 3].real ** 2 + g01[0, 3].imag ** 2


@cache
def _pair_table(branch: tuple[str, str] | None) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """The row of each pair key and the X-state coefficients of all rows:
    (K, 2, 5) from _x_coefficients and (K,) |G01[0,3]|^2. The keys are
    PAIR_KEYS for a branch and those on qubits 1 to 4 for None."""
    keys = PAIR_KEYS if branch else tuple(key for key in PAIR_KEYS if set(key) <= set("1234"))
    lin, g2 = zip(*(_x_coefficients(*_gram_blocks(branch, tuple(key))[1:]) for key in keys))
    return {key: row for row, key in enumerate(keys)}, np.stack(lin), np.array(g2)


def pair_verdicts(alpha2, branch, keys) -> tuple[PPTVerdict, np.ndarray]:
    """PPT verdicts and concurrences of the pair marginals `keys` (from
    PAIR_KEYS) of one branch; branch None is the first round with the
    machines traced out, whose pairs are those on qubits 1 to 4.

    alpha2 is a number or a 1-D array; every field of the verdict and the
    concurrence has shape (len(keys),) + its shape, row k for keys[k]. They
    equal ppt_verdict and concurrence of branch_marginal(alpha2, branch,
    key) to roundoff, at any phase, from closed forms with no eigen-solve.
    """
    alpha, beta = _amplitudes(alpha2)
    row, lin, g2 = _pair_table(_as_branch(branch))
    keys = [str(key) for key in keys]
    unknown = [key for key in keys if key not in row]
    if unknown:
        raise ValueError(f"pair_verdicts: unknown pairs {unknown} (choose from {', '.join(row)})")
    rows = [row[key] for key in keys]
    a, b, c, d, z = (np.multiply.outer(lin[rows, 0].T, alpha * alpha)
                     + np.multiply.outer(lin[rows, 1].T, beta * beta))
    trace = a + b + c + d
    w2 = np.multiply.outer(g2[rows], (alpha * beta) ** 2) / (trace * trace)
    z = z / trace
    return _x_verdict(a / trace, b / trace, c / trace, d / trace, z * z, w2)


def six_qubit_branch(
    alpha2: float, branch=("Q0", "Q0"), beta_phase: float = 0.0
) -> DensityOp:
    """Six-qubit state of one machine branch, on SIX_LABELS."""
    if branch is None:
        raise ValueError("six_qubit_branch: unknown machine branch None (the first round has no qubit 5 or 6)")
    return branch_marginal(alpha2, branch, SIX_LABELS, beta_phase)


def branch_probabilities(alpha2: float, beta_phase: float = 0.0) -> dict[tuple[str, str], float]:
    """Machine outcome distribution at the given input weight."""
    psi = build_initial(float(np.sqrt(alpha2)), beta_phase)
    _, branches = run_first_stage(psi)
    return {b.machine_labels: b.probability for b in branches}


def _scan_row(name: str, keys):
    """The predicate named `name` over the entangled flags of the pairs
    `keys`; ValueError for an unknown row or one that reads other pairs."""
    if name == "broadcast":
        reads, row = PAIR_KEYS, broadcast_holds
    elif name == "closed-146":
        # rho146 is closed when its pairs (1,4), (4,6) and (1,6) are all entangled
        reads, row = ("14", "46", "16"), lambda entangled: entangled["14"] & entangled["46"] & entangled["16"]
    else:
        key, _, predicate = name.partition(":")
        if predicate not in ("entangled", "separable"):
            raise ValueError(f"branch_scan: unknown row {name!r}")
        want = predicate == "entangled"
        reads, row = (key,), lambda entangled: entangled[key] == want
    if not set(reads) <= set(keys):
        raise ValueError(f"branch_scan: unknown row {name!r}")
    return row


def branch_scan(
    branch,
    names,
    grid: int = SCAN_GRID,
    tol: float = SCAN_TOL,
) -> dict[str, list[ThresholdInterval]]:
    """alpha^2 intervals of one branch for each named row, from one scan.

    A row is "<pair>:entangled" or "<pair>:separable" for a pair in
    PAIR_KEYS, "broadcast" (broadcast_holds) or "closed-146" (pairs 14, 46
    and 16 all entangled); branch None, the first round with the machines
    traced out, has the pair rows on qubits 1 to 4. All rows are checked
    before any point is tested. Each test call takes the pairs' verdicts
    from one pair_verdicts call, and the edges of all rows are bisected
    together. Pair rows' intervals are named by their predicate
    ("entangled" or "separable"). No verdict depends on the input phase.
    """
    pair = _as_branch(branch)
    keys = tuple(_pair_table(pair)[0])
    names = tuple(names)
    rows = [_scan_row(name, keys) for name in names]

    def test(xs: np.ndarray) -> np.ndarray:
        entangled = dict(zip(keys, pair_verdicts(xs, pair, keys)[0].entangled))
        return np.stack([row(entangled) for row in rows])

    scans = scan_predicates(test, names, grid, tol)
    return {
        name: [replace(iv, predicate_name=name.rpartition(":")[2]) for iv in ivs]
        for name, ivs in scans.items()
    }


def buzek_baseline(grid: int = SCAN_GRID, tol: float = SCAN_TOL) -> tuple[float, float]:
    """(lo, hi) in alpha^2 of the one inseparability interval of the
    single-stage nonlocal pair (1,4): the first-round row "14:entangled" of
    branch_scan, whose machines are traced out rather than measured, the
    convention the two-qubit broadcasting bound is stated in."""
    intervals = branch_scan(None, ("14:entangled",), grid, tol)["14:entangled"]
    if len(intervals) != 1:
        raise ContractError(f"buzek_baseline: expected one inseparability interval, found {len(intervals)}")
    return (intervals[0].lo, intervals[0].hi)


def _message_seeds(seed: int | None) -> tuple[int, int]:
    base = 0 if seed is None else seed
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
    from the machine-outcome distribution with random.Random(seed) (seed
    required). seed is None or an integer >= 0. The two outcome
    announcements travel through the secret channel and are logged.
    """
    if not 0.0 < alpha2 < 1.0:
        raise ValueError(f"run_protocol: alpha2 must be in (0, 1), got {alpha2}")
    if branch_policy not in ("fixed", "sampled"):
        raise ValueError(f"run_protocol: unknown branch policy {branch_policy!r}")
    if seed is not None:
        seed = _integer_at_least("run_protocol: seed", seed, 0)

    if branch_policy == "sampled":
        if seed is None:
            raise ValueError("run_protocol: sampled branch policy requires a seed")
        probs = branch_probabilities(alpha2, beta_phase)
        (pair,) = random.Random(seed).choices(list(probs), list(probs.values()))
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
