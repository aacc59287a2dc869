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
other labels. branch_marginal builds the vectors on first use and the
Gram blocks once per call, so an alpha^2 family costs one small linear
combination per point, evaluated for a whole array of points at once.

Every pair marginal is an X-state: G00 and G11 are 0.0 off the diagonal
and the real entry (1,2), and G01 is 0.0 off (0,3). So a pair marginal is
fixed by six reals, the diagonal a, b, c, d and z = rho[1,2], each linear
in x over the trace, and |w|^2 = x(1 - x)|G01[0,3]|^2 / trace^2 for
w = rho[0,3]. The cloner's amplitudes are rational, so these coefficients
are integers over 1296 (over 1296^2 for |G01[0,3]|^2): the module keeps
them as checked-in integers, one table per branch, which the Tier-1 tests
derive from the Gram blocks, parsed once and checked to be a state at
every x in [0, 1]. pair_verdicts evaluates a table with the closed forms
of entanglement._x_verdict, branch_scan reads each pair's verdict as the
exact sign of two integer quadratics, and branch_probabilities sums the
diagonals, so scans, sweeps and branch probabilities run no cloner, no
complex matrix and no eigen-solve, and scans no numpy. The swap stage's
input, branch Q0Q0's marginal on (3, 2, 5), is a checked-in integer table
too (_RHO325_INTEGERS, read by _rho325), so no CLI command runs the
cloner. branch_scan is the package's one scan: it finds where each row
flips along a grid, bisects each such edge on its own (_bisect) and builds
each row's intervals (_intervals). The input phase is a local diagonal
unitary on Alice's qubits, and the cloner is covariant, so it only turns
w: no verdict, measure, probability or fidelity reads it, and the CLI
computes at phase 0. The per-point routes the tests hold this map to are
kept in tests/reference.py.
"""
from __future__ import annotations

import operator
import random
from functools import cache
from typing import NamedTuple

import numpy as np

from .cloner import OUTCOME_ORDER, BranchOutcome, clone_subsystem, machine_branches
from .constants import PPT_TOL, SCAN_GRID, SCAN_TOL
from .entanglement import PPTVerdict, ThresholdInterval, _broadcast_pairs, _x_verdict
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


def _as_branch(branch) -> tuple[str, str] | None:
    """A machine branch as a pair of outcome names; None, the first round
    with the machines traced out, stays None."""
    if branch is None:
        return None
    pair = tuple(str(x) for x in branch)
    if pair not in OUTCOME_ORDER:
        raise ValueError(f"unknown machine branch {branch!r}")
    return pair


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


# The X-state coefficients of every pair marginal, as exact integers: the
# cloner's amplitudes are rational and 36*v00, 36*v11 are integer vectors,
# so 1296 = 36^2 times each Gram entry is an integer. One line per pair
# key, in the table's row order: the key, 1296*(diag G00, G00[1,2]),
# 1296*(diag G11, G11[1,2]) and 1296^2*|G01[0,3]|^2. Every other entry of
# the pair's blocks is 0. tests/test_pair_tables.py derives each number
# from _basis_images.
_PAIR_INTEGERS = {
    ("Q0", "Q0"): """
        12   480  96   0   0   0    12  60  60  12  48        0
        15   480  96   0   0   0    12  60  60  12  48        0
        34   480  96   0   0   0    12  60  60  12  48        0
        36   480  96   0   0   0    12  60  60  12  48        0
        25   384  96  96   0  96    48  24  24  48  24        0
        46   384  96  96   0  96    48  24  24  48  24        0
        23   480   0  96   0   0    36  36  36  36   0     9216
        35   480  96   0   0   0    36  36  36  36   0     9216
        14   480  96   0   0   0    36  36  36  36   0     9216
        16   480  96   0   0   0    36  36  36  36   0     9216
    """,
    ("Q0", "Q1"): """
        12   240  48   0   0   0    24 120 120  24  96        0
        15   240  48   0   0   0    24 120 120  24  96        0
        34    24 120 120  24  96     0   0  48 240   0        0
        36    24 120 120  24  96     0   0  48 240   0        0
        25   192  48  48   0  48    96  48  48  96  48        0
        46    96  48  48  96  48     0  48  48 192  48        0
        23   120 120  24  24   0     0 144   0 144   0     9216
        35   120  24 120  24   0     0   0 144 144   0     9216
        14   144 144   0   0   0    24 120  24 120   0     9216
        16   144 144   0   0   0    24 120  24 120   0     9216
    """,
    ("Q1", "Q0"): """
        12    24 120 120  24  96     0   0  48 240   0        0
        15    24 120 120  24  96     0   0  48 240   0        0
        34   240  48   0   0   0    24 120 120  24  96        0
        36   240  48   0   0   0    24 120 120  24  96        0
        25    96  48  48  96  48     0  48  48 192  48        0
        46   192  48  48   0  48    96  48  48  96  48        0
        23   144   0 144   0   0    24  24 120 120   0     9216
        35   144 144   0   0   0    24 120  24 120   0     9216
        14   120  24 120  24   0     0   0 144 144   0     9216
        16   120  24 120  24   0     0   0 144 144   0     9216
    """,
    ("Q1", "Q1"): """
        12    12  60  60  12  48     0   0  96 480   0        0
        15    12  60  60  12  48     0   0  96 480   0        0
        34    12  60  60  12  48     0   0  96 480   0        0
        36    12  60  60  12  48     0   0  96 480   0        0
        25    48  24  24  48  24     0  96  96 384  96        0
        46    48  24  24  48  24     0  96  96 384  96        0
        23    36  36  36  36   0     0  96   0 480   0     9216
        35    36  36  36  36   0     0   0  96 480   0     9216
        14    36  36  36  36   0     0   0  96 480   0     9216
        16    36  36  36  36   0     0   0  96 480   0     9216
    """,
    None: """
        12   864 216 216   0 216     0 216 216 864 216        0
        34   864 216 216   0 216     0 216 216 864 216        0
        23   900 180 180  36   0    36 180 180 900   0   331776
        14   900 180 180  36   0    36 180 180 900   0   331776
    """,
}


# The swap stage's input, branch Q0Q0's marginal on qubits (3, 2, 5), as
# exact integers: 1296 times every nonzero entry of its Gram blocks G00,
# G01 and G11, which are all real. Each entry is four tokens: the block, the
# row, the column and the integer; a line holds entries of one block.
# tests/test_pair_tables.py derives every entry from _gram_blocks.
_RHO325_INTEGERS = """
    00 0 0 384    00 1 1  96    00 1 2  96    00 2 1  96    00 2 2  96
    01 0 5  48    01 0 6  48    01 1 7  48    01 2 7  48
    11 0 0  24    11 1 1  12    11 1 2  12    11 2 1  12    11 2 2  12    11 3 3  24
    11 4 4  24    11 5 5  12    11 5 6  12    11 6 5  12    11 6 6  12    11 7 7  24
"""


@cache
def _rho325_blocks() -> np.ndarray:
    """1296 times G00, G01 and G11 of _RHO325_INTEGERS as one (3, 8, 8)
    float array (exact integers), read-only: the one parse of the table.
    ContractError unless G00 and G11 are symmetric with the traces of the
    branch's pair table, 1296 tr G00 and 1296 tr G11."""
    tokens = _RHO325_INTEGERS.split()
    blocks = np.zeros((3, 8, 8))
    for i in range(0, len(tokens), 4):
        blocks[("00", "01", "11").index(tokens[i]), int(tokens[i + 1]), int(tokens[i + 2])] = int(tokens[i + 3])
    row = next(iter(_pair_integers(("Q0", "Q0")).values()))
    traces = [float(sum(row[:4])), float(sum(row[5:9]))]
    if not (np.array_equal(blocks[::2], blocks[::2].transpose(0, 2, 1))
            and np.trace(blocks[::2], axis1=1, axis2=2).tolist() == traces):
        raise ContractError("rho325 table: G00 and G11 must be symmetric with the pair table's traces")
    blocks.flags.writeable = False
    return blocks


def _rho325(alpha2) -> DensityOp:
    """branch_marginal(alpha2, ("Q0", "Q0"), "325") at phase 0, from the
    checked-in _RHO325_INTEGERS, with no cloner: the same combination of
    the blocks over its trace, to roundoff."""
    alpha, beta = (v[..., None, None] for v in _amplitudes(alpha2))
    g00, g01, g11 = _rho325_blocks()
    mat = (alpha * alpha) * g00 + (beta * beta) * g11 + (alpha * beta) * (g01 + g01.T)
    return DensityOp(Register.qubits("3", "2", "5"), mat / np.trace(mat, axis1=-2, axis2=-1)[..., None, None])


def _x_forms(row) -> tuple[tuple[int, ...], ...]:
    """A table row's a, b, c, d as linear forms (u, v), u + v*x, and |z|^2,
    |w|^2 as quadratics (c0, c1, c2), c0 + c1*x + c2*x^2: the entries of
    the marginal times 1296 times its trace."""
    a, b, c, d, z = ((g11, g00 - g11) for g00, g11 in zip(row[:5], row[5:10]))
    return a, b, c, d, _times(z, z), (0, row[10], -row[10])


def _times(p, q) -> tuple[int, int, int]:
    """The product of linear forms, a quadratic."""
    return p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1]


def _minus(f, g) -> tuple[int, int, int]:
    return f[0] - g[0], f[1] - g[1], f[2] - g[2]


def _nonnegative(f) -> bool:
    """Whether the quadratic f is >= 0 on all of [0, 1]: at both ends, and
    at its vertex -c1 / (2 c2) where that is a minimum inside."""
    c0, c1, c2 = f
    if c0 < 0 or c0 + c1 + c2 < 0:
        return False
    return not 0 < -c1 < 2 * c2 or 4 * c0 * c2 >= c1 * c1


def _is_state(row) -> bool:
    """Whether a table row is a state at every x in [0, 1]: its diagonal
    nonnegative, its trace positive, and rho's blocks [[a, w], [w*, d]] and
    [[b, z], [z, c]] of nonnegative determinant."""
    a, b, c, d, z2, w2 = _x_forms(row)
    return (min(row[:4] + row[5:9] + row[10:]) >= 0 and sum(row[:4]) > 0 and sum(row[5:9]) > 0
            and _nonnegative(_minus(_times(a, d), w2)) and _nonnegative(_minus(_times(b, c), z2)))


@cache
def _pair_integers(branch: tuple[str, str] | None) -> dict[str, tuple[int, ...]]:
    """The eleven integers of each pair key of _PAIR_INTEGERS[branch], in
    line order: the one parse of the tables. ContractError unless every
    row is a state on all of [0, 1] (_is_state)."""
    tokens = _PAIR_INTEGERS[branch].split()
    numbers = list(map(int, tokens))
    rows = {tokens[i]: tuple(numbers[i + 1:i + 12]) for i in range(0, len(tokens), 12)}
    for row in set(rows.values()):
        if not _is_state(row):
            key = next(key for key, other in rows.items() if other == row)
            raise ContractError(f"pair table {branch}: row {key} is not a state on all of [0, 1]")
    return rows


@cache
def _pair_table(branch: tuple[str, str] | None) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """The row of each pair key and the X-state coefficients of all rows,
    from _pair_integers: (K, 2, 5) rows [diag G00, G00[1,2]] and
    [diag G11, G11[1,2]], and (K,) |G01[0,3]|^2. The keys are PAIR_KEYS for
    a branch and those on qubits 1 to 4 for None."""
    table = _pair_integers(branch)
    numbers = np.array(list(table.values()), dtype=float)
    return {key: k for k, key in enumerate(table)}, numbers[:, :10].reshape(-1, 2, 5) / 1296.0, numbers[:, 10] / 1679616.0


@cache
def _pair_signs(branch: tuple[str, str] | None) -> tuple[tuple[tuple[int, int, int], ...], dict[str, tuple[int, int]]]:
    """The distinct integer quadratics (c0, c1, c2) of a branch's partial
    transpose blocks, and each pair key's two, as indices into them.

    A pair is entangled at x where either is negative: a block
    [[P, U], [U*, Q]] of 1296*T times the partial transpose (T the trace)
    has an eigenvalue below -t*T, t = PPT_TOL, exactly when
    (P + t*T)(Q + t*T) < |U|^2, since P, Q >= 0. With t = tn/td, td^2 times
    that difference is the quadratic.
    """
    tn, td = PPT_TOL.as_integer_ratio()
    quads: dict[tuple[int, int, int], int] = {}
    pairs = {}
    for key, row in _pair_integers(branch).items():
        a, b, c, d, z2, w2 = _x_forms(row)
        t = [tn * (a[i] + b[i] + c[i] + d[i]) for i in (0, 1)]
        a, b, c, d = ((td * p[0] + t[0], td * p[1] + t[1]) for p in (a, b, c, d))
        fz = _minus(_times(a, d), [td * td * k for k in z2])
        fw = _minus(_times(b, c), [td * td * k for k in w2])
        pairs[key] = tuple(quads.setdefault(f, len(quads)) for f in (fz, fw))
    return tuple(quads), pairs


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


def branch_probabilities(alpha2: float) -> dict[tuple[str, str], float]:
    """Machine outcome distribution at the input weight alpha2 in [0, 1]:
    x*tr G00 + (1 - x)*tr G11 at x = alpha2, which no phase moves. 1296
    times each trace is the diagonal sum of a half row of the branch's pair
    table (every row has the same), an integer, and the integers meet
    before the one division: 5/18 or 2/9, correctly rounded, at 1/2."""
    x = float(alpha2)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"alpha2 must be in [0, 1], got {alpha2!r}")
    rows = {b: next(iter(_pair_integers(b).values())) for b in OUTCOME_ORDER}
    return {b: (x * sum(row[:4]) + (1.0 - x) * sum(row[5:9])) / 1296 for b, row in rows.items()}


def _scan_row(name: str, keys) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The pairs that must be entangled and those that must be separable
    for the row named `name` to hold; ValueError for an unknown row or one
    that reads other pairs than `keys`."""
    if name == "broadcast":
        separable, entangled = _broadcast_pairs(("1", "2", "5"), ("3", "4", "6"))
        row = tuple(x + y for x, y in entangled), tuple(x + y for x, y in separable)
    elif name == "closed-146":
        # rho146 is closed when its pairs (1,4), (4,6) and (1,6) are all entangled
        row = ("14", "46", "16"), ()
    else:
        key, _, predicate = name.partition(":")
        if predicate not in ("entangled", "separable"):
            raise ValueError(f"branch_scan: unknown row {name!r}")
        row = ((key,), ()) if predicate == "entangled" else ((), (key,))
    if not set(row[0] + row[1]) <= set(keys):
        raise ValueError(f"branch_scan: unknown row {name!r}")
    return row


def _negative(f: tuple[int, int, int], x: float) -> bool:
    """Whether c0 + c1*x + c2*x^2 < 0 at the float x, exactly: with
    x = m/e, the sign of c0*e^2 + c1*m*e + c2*m^2."""
    m, e = x.as_integer_ratio()
    return (f[0] * e + f[1] * m) * e + f[2] * m * m < 0


def _sign_changes(f: tuple[int, int, int], grid: int) -> tuple[bool, list[int], int]:
    """Where f < 0 flips along the grid x_k = k / (grid + 1), k = 1..grid:
    (f < 0 at x_1, the k whose flag differs at k + 1, and the vertex cell
    s, the last k with x_k at or left of f's vertex; grid for a line).

    f is monotone on 1..s and on s + 1..grid, so each side flips at most
    once, and a binary search finds where: O(log grid) exact signs.
    """
    c0, c1, c2 = f
    s = grid
    if c2:
        # the vertex num/den, den > 0; x_k <= num/den is m*den <= num*e
        num, den = (-c1, 2 * c2) if c2 > 0 else (c1, -2 * c2)

        def left(k):
            m, e = (k / (grid + 1)).as_integer_ratio()
            return m * den <= num * e

        s = min(max(num * (grid + 1) // den, 0), grid)
        while s > 0 and not left(s):
            s -= 1
        while s < grid and left(s + 1):
            s += 1
    value: dict[int, bool] = {}

    def negative(k):
        if k not in value:
            value[k] = _negative(f, k / (grid + 1))
        return value[k]

    ends = sorted({k for k in (1, s, s + 1, grid) if 1 <= k <= grid})
    flips = []
    for lo, hi in zip(ends, ends[1:]):
        start = negative(lo)
        if negative(hi) != start:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if negative(mid) == start else (lo, mid)
            flips.append(lo)
    return negative(1), flips, s


def _bisect(a: float, b: float, start: bool, tol: float, holds) -> float:
    """Where a row changes between a and b (start its value at a): the
    midpoint (a + b) / 2.0 a one-step bisection ends on. Each step reads
    holds(mid) and keeps the half whose ends differ; the edge closes when
    it is no wider than tol, or when its midpoint is one of its ends (a and
    b are adjacent floats), so every positive tol ends."""
    mid = (a + b) / 2.0
    while b - a > tol and a < mid < b:
        if holds(mid) == start:
            a = mid
        else:
            b = mid
        mid = (a + b) / 2.0
    return mid


def _intervals(first: bool, cuts: list[float], tol: float, name: str) -> list[ThresholdInterval]:
    """A row's intervals from its edges in order, which alternate between
    entries and exits, starting with an exit when the row holds (`first`)
    at the first grid point. A row with no edge has (0, 1) when it holds
    at every grid point and no interval when it holds at none."""
    cuts = [0.0, *cuts, 1.0]
    start = 0 if first else 1
    return [ThresholdInterval(lo, hi, tol, name) for lo, hi in zip(cuts[start::2], cuts[start + 1::2])]


def _require_scan_settings(grid, tol: float) -> int:
    """grid as an int; ContractError unless it is an integer >= 50 (through
    operator.index, so no float gets in) and tol is a positive, finite
    number (a string or None compares with no float)."""
    try:
        number = operator.index(grid)
        valid = number >= 50 and 0.0 < tol < float("inf")
    except TypeError:
        valid = False
    if not valid:
        raise ContractError(f"scan: grid {grid!r} must be an integer >= 50 and tol {tol!r} positive and finite")
    return number


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
    before any point is tested. Pair rows' intervals are named by their
    predicate ("entangled" or "separable"). No verdict depends on the input
    phase.

    The grid is the points k / (grid + 1), k = 1..grid; each flip of a row
    between grid neighbours is an edge, which _bisect refines to tol. The
    verdicts are exact signs of the pairs' quadratics (_pair_signs) at
    those floats. Between the quadratics' flips along the grid
    (_sign_changes) every row is constant, so only the cells where some
    quadratic flips are visited.
    """
    quads, pairs = _pair_signs(_as_branch(branch))
    names = tuple(names)
    rows = [tuple(tuple(pairs[key] for key in keys) for keys in _scan_row(name, pairs)) for name in names]
    grid = _require_scan_settings(grid, tol)

    def holds(row, value) -> bool:
        entangled, separable = row
        return all(value[i] or value[j] for i, j in entangled) and not any(value[i] or value[j] for i, j in separable)

    # value[q]: whether quadratic q is negative at the grid point reached
    value, flips, live = [], {}, {}
    for q, f in enumerate(quads):
        negative, changes, s = _sign_changes(f, grid)
        value.append(negative)
        for k in changes:
            flips.setdefault(k, []).append(q)
        if f[2] and 0 < s < grid:
            live.setdefault(s, []).append(q)
    # Each probe lies strictly inside one cell, so x alone keys its values.
    probed: dict[float, list[bool]] = {}

    def values(x, cell, at_k):
        """Every quadratic's sign at x in the cell of x_k: those in `cell`
        (they flip or have their vertex in it) evaluated, the rest as at x_k."""
        if x not in probed:
            probed[x] = [_negative(quads[q], x) if q in cell else v for q, v in enumerate(at_k)]
        return probed[x]

    first = was = [holds(row, value) for row in rows]
    per_row: list[list[float]] = [[] for _ in rows]
    for k in sorted(flips):
        cell = set(flips[k] + live.get(k, []))
        at_k = value[:]
        for q in flips[k]:
            value[q] = not value[q]
        now = [holds(row, value) for row in rows]
        for row, cuts, held, changed in zip(rows, per_row, was, now):
            if held != changed:
                cuts.append(_bisect(k / (grid + 1), (k + 1) / (grid + 1), held, tol,
                                    lambda x: holds(row, values(x, cell, at_k))))
        was = now
    return {name: _intervals(held, c, tol, name.rpartition(":")[2]) for name, held, c in zip(names, first, per_row)}


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
