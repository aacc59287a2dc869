"""End-to-end pipeline: initial two-qubit state, two rounds of local
cloning with machine-outcome selection in between, six-qubit state assembly,
marginal extraction, and the array front of the pair tables.

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
other labels. branch_marginal builds the vectors on first use and the
Gram blocks once per call, so an alpha^2 family costs one small linear
combination per point, evaluated for a whole array of points at once.

The cloner's amplitudes are rational, so 1296 times every Gram entry the
CLI needs is an integer, checked in as the tables of the standard-library
module tables (which tests/test_pair_tables.py derives from the Gram blocks
here). pair_verdicts is the numpy front of tables.table_verdicts, and the
scans (scan.branch_scan, scan.buzek_baseline) and branch_probabilities are
re-exported from there: none of them runs the cloner, an eigen-solve or
numpy. _rho325 is the swap stage's input as an operator, from its table.
The input phase is a local diagonal unitary on Alice's qubits, and the
cloner is covariant, so it only turns w: no verdict, measure, probability
or fidelity reads it, and the CLI computes at phase 0. The per-point
routes the tests hold this map to are kept in tests/reference.py.
"""
from __future__ import annotations

import random
from functools import cache
from typing import NamedTuple

import numpy as np

from .cloner import BranchOutcome, clone_subsystem, machine_branches
from .errors import ContractError
from .gvchannel import DeliveryRecord, GvConfig, _integer_at_least, secure_send
from .linalg import dagger
from .measures import PPTVerdict
from .qstate import DensityOp, PureState, Register
from .scan import branch_scan, buzek_baseline
from .tables import PAIR_KEYS, _as_branch, _rho325_entries, branch_probabilities, table_verdicts

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

SIX_LABELS = ("1", "2", "5", "3", "4", "6")


class ProtocolRun(NamedTuple):
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


@cache
def _first_stage_runs() -> tuple[tuple[PureState, list[BranchOutcome]], ...]:
    """run_first_stage for the basis inputs |00> and |11>, in that order."""
    return tuple(run_first_stage(PureState(Register.qubits("1", "3"), np.eye(4)[index])) for index in (0b00, 0b11))


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


@cache
def _rho325_blocks() -> np.ndarray:
    """1296 times G00, G01 and G11 of the rho325 table
    (tables._rho325_entries) as one (3, 8, 8) float array (exact integers),
    read-only."""
    blocks = np.zeros((3, 8, 8))
    for k, block in enumerate(("00", "01", "11")):
        for (i, j), n in _rho325_entries()[block].items():
            blocks[k, i, j] = n
    blocks.flags.writeable = False
    return blocks


def _rho325(alpha2) -> DensityOp:
    """branch_marginal(alpha2, ("Q0", "Q0"), "325") at phase 0, from the
    checked-in rho325 table, with no cloner: the same combination of the
    blocks over its trace, to roundoff."""
    alpha, beta = (v[..., None, None] for v in _amplitudes(alpha2))
    g00, g01, g11 = _rho325_blocks()
    mat = (alpha * alpha) * g00 + (beta * beta) * g11 + (alpha * beta) * (g01 + g01.T)
    return DensityOp(Register.qubits("3", "2", "5"), mat / np.trace(mat, axis1=-2, axis2=-1)[..., None, None])


def pair_verdicts(alpha2, branch, keys) -> tuple[PPTVerdict, np.ndarray]:
    """PPT verdicts and concurrences of the pair marginals `keys` (from
    PAIR_KEYS) of one branch; branch None is the first round with the
    machines traced out, whose pairs are those on qubits 1 to 4.

    alpha2 is a number or a 1-D array; every field of the verdict and the
    concurrence has shape (len(keys),) + its shape, row k for keys[k]. They
    are tables.table_verdicts as arrays, the closed forms of
    measures.x_verdict with no eigen-solve, and equal ppt_verdict and
    concurrence of branch_marginal(alpha2, branch, key) to roundoff, at any
    phase.
    """
    x = np.asarray(alpha2, dtype=float)
    if x.ndim > 1:
        raise ValueError(f"alpha2 must be a number or a 1-D array in [0, 1], got {alpha2!r}")
    verdict, conc = table_verdicts(x.reshape(-1).tolist(), branch, keys)
    shape = (len(verdict.w3),) + x.shape
    fields = [np.array(field, dtype=bool if name == "entangled" else float).reshape(shape)
              for name, field in zip(PPTVerdict._fields, verdict)]
    return PPTVerdict(*fields), np.array(conc, dtype=float).reshape(shape)


def six_qubit_branch(
    alpha2: float, branch=("Q0", "Q0"), beta_phase: float = 0.0
) -> DensityOp:
    """Six-qubit state of one machine branch, on SIX_LABELS."""
    if branch is None:
        raise ValueError("six_qubit_branch: unknown machine branch None (the first round has no qubit 5 or 6)")
    return branch_marginal(alpha2, branch, SIX_LABELS, beta_phase)


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
        probs = branch_probabilities(alpha2)
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
