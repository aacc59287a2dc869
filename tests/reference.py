"""Per-point references the stacked pipeline is tested against.

Each function builds a state for one input through the protocol's stages,
with the package's public operations only: cloning on explicit registers,
partial traces of full density operators, and no Gram blocks. The tests
hold branch_marginal (of a branch, and of the first round with the machines
traced out) and six_qubit_branch to these routes entrywise, and tests/golden/ holds CLI output they produced.

`sweep_text` is the sweep table formatted one row at a time, each row
through a whole-row template from its own pair's numbers; the CLI's
`sweep` output is held to it byte for byte.

`scan_points` is the reference scan: it tests the whole grid in one call,
then one bisection step of every open edge per call. `exact_scan` runs it
on each pair's verdict in Fraction arithmetic, and `float_scan` is the
float route, scan_points over pair_verdicts: scan.branch_scan is held
to the first bit for bit at every grid and tol, and the second to it at
tol >= 1e-12.

`pipeline_pair_integers` and `pipeline_rho325_integers` are the routes
here that read Gram blocks: they build a branch's integer pair table, and
the entries of rho325's table, from protocol's basis images; the
checked-in integer tables of the module tables are held to them.

`swap_extend`, `bsm` and `simulated_plans` are the simulated swap stage:
the singlet adjoined as a 32 x 32 joint state, the Bell measurement of it,
the residual search over the measured post states (`searched_words`), and
a fidelity solve for every plan. The swap module's teleportation identity
is held to them.

The rest is the numpy code the standard-library kernels replaced, kept as
their references: `x_verdict_arrays` and `eof_array` (the X-state closed
forms and the entanglement of formation on arrays, by numpy's log2),
`numpy_pair_verdicts` (the pair tables evaluated on arrays),
`numpy_swap_plans` with `numpy_table_targets` and `numpy_block_fidelity`
(the plan search over signed-permutation arrays), and `numpy_transmit_bits`
(the channel on bool arrays from unpacked getrandbits bytes).
"""
import collections
import random
from fractions import Fraction
from functools import cache

import numpy as np

from qbroadcast import (
    ContractError, CorrectionPlan, DensityOp, PureState, Register, ThresholdInterval, broadcast_holds,
    clone_subsystem, partial_trace, recovery_target, run_first_stage, tensor, to_density,
)
from qbroadcast.cli import CSV_HEADER
from qbroadcast.constants import PPT_TOL, PROB_FLOOR, PSD_FAIL
from qbroadcast.entanglement import eof
from qbroadcast.gvchannel import GvResult
from qbroadcast.linalg import dagger, fidelity
from qbroadcast.measures import PPTVerdict
from qbroadcast.plans import SIGMA
from qbroadcast.protocol import PAIR_KEYS, SIX_LABELS, _basis_images, _gram_blocks, _rho325_blocks, pair_verdicts
from qbroadcast.scan import _require_scan_settings
from qbroadcast.swap import BELL_ORDER, PUBLISHED_WORDS, BellOutcome, _on_325, _pauli_words
from qbroadcast.tables import _PAIR_INTEGERS, _pair_integers

TRIPLE_KEYS = ("146", "325")

# One sweep row, a tuple in CSV_HEADER order, as CSV: reals to 12
# significant digits. As JSON: the row's lines in json.dumps(rows, indent=2);
# reals and the verdict go through repr, as json writes floats and ints.
CSV_ROW = "%.12g,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%d"
JSON_ROW = "  {\n" + ",\n".join(
    f'    "{name}": ' + ('"%s"' if name == "pair" else "%r") for name in CSV_HEADER.split(",")
) + "\n  }"


def run_second_stage(zeta: PureState) -> DensityOp:
    """Clone qubit 2 -> (2,5) and qubit 4 -> (4,6), trace out both machines.

    Input is a branch state on qubits (1,2,3,4); output is the six-qubit
    operator on labels (1,2,5,3,4,6).
    """
    if set(zeta.register.labels) != {"1", "2", "3", "4"}:
        raise ContractError(
            f"run_second_stage: expected qubits 1-4, got {zeta.register.labels}"
        )
    phi = clone_subsystem(zeta, "2", ("2", "5"), "A2")
    phi = clone_subsystem(phi, "4", ("4", "6"), "B2")
    return partial_trace(to_density(phi), list(SIX_LABELS))


def machine_traced_six(psi13: PureState) -> DensityOp:
    """Six-qubit state when the first-round machines are traced out instead
    of measured (no branch selection). Used by the total-probability check:
    the branch mixture weighted by outcome probabilities must equal this.
    """
    chi, _ = run_first_stage(psi13)
    rho4 = partial_trace(to_density(chi), ["1", "2", "3", "4"])
    rho = clone_subsystem(rho4, "2", ("2", "5"), "A2")
    rho = clone_subsystem(rho, "4", ("4", "6"), "B2")
    return partial_trace(rho, list(SIX_LABELS))


def extract_marginals(six: DensityOp) -> dict[str, DensityOp]:
    """All report marginals of the six-qubit state, keyed by label string."""
    out: dict[str, DensityOp] = {}
    for key in PAIR_KEYS + TRIPLE_KEYS:
        out[key] = partial_trace(six, list(key))
    return out


def sweep_text(values, branch, pairs, fmt, verdicts=pair_verdicts) -> str:
    """The `sweep` output at the alpha^2 points `values`, one row per
    (point, pair) in (alpha^2, pair) order with repeats kept, each row
    formatted through CSV_ROW or JSON_ROW from its own pair's numbers.
    `verdicts` is pair_verdicts, tables.table_verdicts or a stand-in with
    their signature."""
    counts = sorted(collections.Counter(values).items())
    keys = sorted(set(pairs))
    verdict, conc = verdicts([x for x, _ in counts], branch, keys)
    conc = np.asarray(conc, dtype=float)
    cols = [np.asarray(verdict.min_pt_eigenvalue), np.asarray(verdict.w3), np.asarray(verdict.w4), conc, eof(conc),
            np.asarray(verdict.entangled)]
    template = CSV_ROW if fmt == "csv" else JSON_ROW
    rows = []
    for j, (x, n) in enumerate(counts):
        for pair in sorted(pairs):
            k = keys.index(pair)
            fields = [float(col[k, j]) for col in cols[:5]] + [int(cols[5][k, j])]
            rows += [template % (x, pair, *fields)] * n
    if fmt == "csv":
        return CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    return "[\n" + ",\n".join(rows) + "\n]\n"


# Where a pair's Gram blocks may be non-zero: G00 and G11 on the diagonal
# and at (1,2), (2,1); G01 at (0,3) alone.
SAME = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[[0, 2, 1, 3]]
CROSS = np.zeros((4, 4), dtype=bool)
CROSS[0, 3] = True


def x_coefficients(g00, g01, g11):
    """The X-state coefficients of one pair's Gram blocks: the rows
    [diag G00, G00[1,2]] and [diag G11, G11[1,2]], shape (2, 5), and
    |G01[0,3]|^2. Raises ContractError unless the blocks are 0.0 off the
    positions SAME and CROSS allow and each (1,2) entry is real, since
    only then do these six numbers fix the marginal's verdict and measures.
    """
    if (np.any(g00[~SAME]) or np.any(g11[~SAME]) or np.any(g01[~CROSS])
            or g00[1, 2].imag or g11[1, 2].imag):
        raise ContractError("pair table: a Gram block is not 0.0 off the X pattern with a real (1,2) entry")
    lin = np.array([[*g.diagonal().real, g[1, 2].real] for g in (g00, g11)])
    return lin, g01[0, 3].real ** 2 + g01[0, 3].imag ** 2


def stored_integers(branch) -> dict[str, list[int]]:
    """The stored integers of each key of one table, in its line order:
    1296*(a, b, c, d, z) of G00, the same of G11, and 1296^2*|G01[0,3]|^2."""
    lines = (line.split() for line in _PAIR_INTEGERS[branch].strip().splitlines())
    return {key: [int(n) for n in numbers] for key, *numbers in lines}


def pipeline_pair_integers(branch) -> dict[str, tuple[int, ...]]:
    """tables._pair_integers for `branch`, from the pipeline: 36 times each
    basis image rounded to an integer vector (ContractError above 1e-9),
    and each pair's Gram entries of those vectors, its float Gram blocks
    certified by x_coefficients."""
    reg, *images = _basis_images(branch)
    ints = []
    for v in images:
        scaled = 36.0 * v
        rounded = np.rint(scaled.real)
        if np.max(np.abs(scaled - rounded)) > 1e-9:
            raise ContractError(f"pair table: 36 times a basis image of {branch} is not an integer vector")
        ints.append(rounded.astype(np.int64))
    keys = PAIR_KEYS if branch else tuple(key for key in PAIR_KEYS if set(key) <= set("1234"))
    table = {}
    for key in keys:
        x_coefficients(*_gram_blocks(branch, tuple(key))[1:])
        a, b = (reg.front(v, tuple(key), 1) for v in ints)
        g00, g01, g11 = a @ a.T, a @ b.T, b @ b.T
        table[key] = tuple(int(n) for n in (*g00.diagonal(), g00[1, 2], *g11.diagonal(), g11[1, 2], g01[0, 3] ** 2))
    return table


def _flags(test, xs, rows) -> list[list[bool]]:
    """test at the points xs, as one list of flags per row."""
    flags = np.asarray(test(np.array(xs)), dtype=bool)
    if flags.shape != (rows, len(xs)):
        raise ContractError(f"scan: test gave shape {flags.shape} for {rows} rows of {len(xs)} points")
    return flags.tolist()


def scan_points(test, names, grid, tol) -> dict[str, list[ThresholdInterval]]:
    """Intervals where each row holds, test mapping a 1-D array of n
    alpha^2 values to booleans of shape (len(names), n), one row per name.
    The grid points k / (grid + 1) are tested in one call. Each flip of a
    row between grid neighbours is an edge, and each later call takes one
    step of every open edge: it tests the edge's midpoint (a + b) / 2.0
    and keeps the half whose ends differ. An edge ends on the midpoint at
    which it is no wider than tol or the midpoint is one of its ends.
    Intervals alternate from the row's value at the first grid point; a
    row that holds at every grid point has (0, 1), and one that holds at
    none has no interval. ContractError for the settings
    branch_scan refuses, or for a test result of another shape."""
    _require_scan_settings(grid, tol)
    xs = [k / (grid + 1) for k in range(1, grid + 1)]
    flags = _flags(test, xs, len(names))
    # each edge as [row, a, b, the row's value at a]; a and b narrow in place
    edges = [[r, xs[k], xs[k + 1], flags[r][k]] for r in range(len(names))
             for k in range(grid - 1) if flags[r][k + 1] != flags[r][k]]
    mids = [(a + b) / 2.0 for _, a, b, _ in edges]
    while live := [i for i, (_, a, b, _) in enumerate(edges) if b - a > tol and a < mids[i] < b]:
        got = _flags(test, [mids[i] for i in live], len(names))
        for j, i in enumerate(live):
            edge = edges[i]
            edge[1 if got[edge[0]][j] == edge[3] else 2] = mids[i]
            mids[i] = (edge[1] + edge[2]) / 2.0
    out = {}
    for r, name in enumerate(names):
        cuts = [0.0, *(mid for edge, mid in zip(edges, mids) if edge[0] == r), 1.0]
        first = 0 if flags[r][0] else 1
        out[name] = [ThresholdInterval(lo, hi, tol, name) for lo, hi in zip(cuts[first::2], cuts[first + 1::2])]
    return out


def _rows(names):
    """Each named row of branch_scan as a function of the pairs' entangled
    flags: a pair row reads its pair, "broadcast" is broadcast_holds and
    "closed-146" needs pairs 14, 46 and 16 entangled."""
    def row(name):
        if name == "broadcast":
            return broadcast_holds
        if name == "closed-146":
            return lambda entangled: entangled["14"] & entangled["46"] & entangled["16"]
        key, _, predicate = name.partition(":")
        return lambda entangled: entangled[key] == (predicate == "entangled")

    return [row(name) for name in names]


def _below(p, q, u2, t) -> bool:
    """Whether the Hermitian block [[p, u], [u*, q]], |u|^2 = u2 and p, q
    >= 0, has an eigenvalue below -t: its lower root
    (p + q)/2 - sqrt(((p - q)/2)^2 + u2) < -t, squared, since (p + q)/2 + t
    > 0."""
    assert p >= 0 and q >= 0
    return ((p - q) / 2) ** 2 + u2 > ((p + q) / 2 + t) ** 2


@cache
def _entangled(row: tuple[int, ...], alpha2: float) -> bool:
    """One stored row's PPT verdict at the float alpha2, in Fraction
    arithmetic: the partial transpose's lowest eigenvalue is below
    -PPT_TOL. The blocks are scaled by the trace, which is positive."""
    x = Fraction(alpha2)
    a, b, c, d, z = (v + (u - v) * x for u, v in zip(row[:5], row[5:10]))
    t = Fraction(PPT_TOL) * (a + b + c + d)
    return _below(a, d, z * z, t) or _below(b, c, x * (1 - x) * row[10], t)


def _renamed(scans):
    return {name: [iv._replace(predicate_name=name.rpartition(":")[2]) for iv in ivs] for name, ivs in scans.items()}


def _exact_rows(branch, names):
    """Each named row at one float alpha^2 from the pairs' exact verdicts
    (_entangled), each point's rows evaluated once."""
    table = {key: tuple(row) for key, row in stored_integers(branch).items()}
    rows = _rows(names)

    @cache
    def test(x):
        entangled = {key: _entangled(row, x) for key, row in table.items()}
        return tuple(row(entangled) for row in rows)

    return test


def exact_scan(branch, names, grid, tol):
    """branch_scan's intervals from scan_points over the pairs' exact
    verdicts (_exact_rows), lifted to arrays point by point."""
    test = _exact_rows(branch, names)
    return _renamed(scan_points(lambda xs: np.array([test(x) for x in xs.tolist()]).T, names, grid, tol))


def float_scan(branch, names, grid, tol):
    """branch_scan's intervals from scan_points over pair_verdicts, the
    float route: each call's verdicts from one pair_verdicts call."""
    keys = list(stored_integers(branch))
    rows = _rows(names)

    def test(xs):
        entangled = dict(zip(keys, pair_verdicts(xs, branch, keys)[0].entangled))
        return np.stack([row(entangled) for row in rows])

    return _renamed(scan_points(test, names, grid, tol))


def pipeline_rho325_integers() -> dict[str, dict[tuple[int, int], int]]:
    """tables._RHO325_INTEGERS from the pipeline: 1296 times each nonzero
    entry of branch Q0Q0's Gram blocks G00, G01 and G11 on (3, 2, 5), keyed
    by (row, column) per block. ContractError unless every entry is a real
    integer to 1e-9."""
    blocks = {}
    for name, g in zip(("00", "01", "11"), _gram_blocks(("Q0", "Q0"), ("3", "2", "5"))[1:]):
        scaled = 1296.0 * g
        rounded = np.rint(scaled.real)
        if np.max(np.abs(scaled - rounded)) > 1e-9:
            raise ContractError(f"rho325 table: 1296 G{name} is not a real integer matrix")
        blocks[name] = {(int(i), int(j)): int(rounded[i, j]) for i, j in zip(*np.nonzero(rounded))}
    return blocks


# The Bell vectors on (2, 8), one row per label of BELL_ORDER.
_BELL = (1.0 / np.sqrt(2.0)) * np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex)


def swap_extend(rho325: DensityOp) -> DensityOp:
    """Adjoin the singlet (|01> - |10>)/sqrt(2) on (8, 7): labels (3,2,5,8,7)."""
    rho = DensityOp(Register.qubits("3", "2", "5"), _on_325(rho325, "325"))
    s = 1.0 / np.sqrt(2.0)
    singlet = PureState(Register.qubits("8", "7"), np.array([0.0, s, -s, 0.0], dtype=complex))
    return tensor(rho, to_density(singlet))


def bsm(joint: DensityOp) -> list[BellOutcome]:
    """Bell-measure qubits (2, 8) of the five-qubit joint state, or of each
    member of a stack: the four outcomes in BELL_ORDER with renormalized
    post states on (3, 5, 7). ContractError for another register, an
    outcome below probability PROB_FLOOR, or probabilities that do not sum to 1
    within 1e-10."""
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
        out.append(BellOutcome(label, np.outer(vec, vec.conj()), float(p) if not lead else p,
                               DensityOp(Register.qubits("3", "5", "7"), mat / p[..., None, None])))
    off = np.abs(total - 1.0)
    if np.any(off > 1e-10):
        raise ContractError(f"bsm: outcome probabilities sum to {np.ravel(total)[np.argmax(off)]}, not 1")
    return out


def searched_words(posts: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Index of the word with the smallest entrywise residual
    max|U post U^dagger - target| for each post state, over all 64 words;
    posts (..., K, 8, 8) against targets (..., 8, 8) give indices (..., K).
    Residuals within 1e-12 of the smallest tie, and ties go to the first
    word in search order. The residual is read as
    max|post - U^dagger target U|, which conjugates each target 64 times."""
    _, unitaries = _pauli_words()
    moved = dagger(unitaries) @ target[..., None, :, :] @ unitaries
    residual = np.max(np.abs(posts[..., None, :, :] - moved[..., None, :, :, :]), axis=(-2, -1))
    return np.argmax(residual <= residual.min(axis=-1, keepdims=True) + 1e-12, axis=-1)


def simulated_plans(rho325: DensityOp, sources=("derived",), outcomes=None):
    """correction_plans by simulation: outcomes (bsm(swap_extend(rho325))
    unless given), the derived words by searched_words over the measured
    post states, and every plan of every source scored in one fidelity
    call. ContractError when a derived plan reaches less than 1 - 1e-9.
    Returns what correction_plans returns."""
    if not set(sources) <= {"derived", "published"}:
        raise ValueError(f"simulated_plans: unknown sources in {sources!r}")
    if outcomes is None:
        outcomes = bsm(swap_extend(rho325))
    lead = rho325.matrix.shape[:-2]
    posts = np.stack([o.post_state.matrix for o in outcomes], axis=-3)
    if posts.shape[:-3] != lead:
        raise ContractError(f"simulated_plans: outcomes shaped {posts.shape[:-3]} for operators shaped {lead}")
    targets = recovery_target(rho325).matrix.reshape(-1, 8, 8)
    posts = posts.reshape(len(targets), len(outcomes), 8, 8)
    names, unitaries = _pauli_words()
    published = np.broadcast_to([names.index(PUBLISHED_WORDS[o.label]) for o in outcomes], posts.shape[:2])
    derived = searched_words(posts, targets) if "derived" in sources else None
    words = np.stack([derived if source == "derived" else published for source in sources], axis=1)
    chosen = unitaries[words]
    corrected = (chosen @ posts[:, None] @ dagger(chosen)).reshape(len(targets), len(sources) * len(outcomes), 8, 8)
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
            raise ContractError(f"simulated_plans: outcome {plan.outcome} only reaches fidelity {plan.achieved_fidelity:.12f}")
    return plans if lead else plans[0]


# ------------------------------------------------- numpy routes replaced


def _block_roots(p, q, u2):
    """Determinant and smaller eigenvalue of each Hermitian 2 x 2 block
    [[p, u], [u*, q]] with |u|^2 = u2, on arrays."""
    det = p * q - u2
    mean = (p + q) / 2.0
    rad = np.sqrt(((p - q) / 2.0) ** 2 + u2)
    high = mean + rad
    up = high > 0.0
    return det, np.where(up, det / np.where(up, high, 1.0), mean - rad)


def x_verdict_arrays(a, b, c, d, z2, w2):
    """The PPT verdict and the concurrence of X-states from arrays of their
    diagonal and squared moduli, in numpy: the array route measures.x_verdict
    replaced. ContractError for a member below -PSD_FAIL."""
    det_z, low_z = _block_roots(a, d, z2)
    det_w, low_w = _block_roots(b, c, w2)
    lowest = float(np.min(np.minimum(_block_roots(a, d, w2)[1], _block_roots(b, c, z2)[1]), initial=np.inf))
    if lowest < -PSD_FAIL:
        raise ContractError(f"concurrence: rho is not PSD (min eigenvalue {lowest:.3e})")
    edge = np.maximum(np.sqrt(z2) - np.sqrt(np.maximum(a * d, 0.0)),
                      np.sqrt(w2) - np.sqrt(np.maximum(b * c, 0.0)))
    l0 = np.minimum(low_z, low_w)
    return PPTVerdict(l0, a * det_w, det_z * det_w, l0 < -PPT_TOL), np.clip(2.0 * edge, 0.0, 1.0)


def eof_array(c):
    """Entanglement of formation of each entry of an array of concurrences,
    by numpy's log2 (which may be a SIMD routine that differs from libm's
    in the last bit)."""
    c = np.clip(np.asarray(c, dtype=float), 0.0, 1.0)
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x >= 1.0, 0.0, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def numpy_pair_verdicts(alpha2, branch, keys):
    """pair_verdicts as numpy evaluated the pair tables: the coefficients
    of every row as one (K, 2, 5) array and one (K,) array, combined for
    all points at once, then x_verdict_arrays."""
    table = _pair_integers(branch)
    numbers = np.array([table[key] for key in keys], dtype=float)
    lin, g2 = numbers[:, :10].reshape(-1, 2, 5) / 1296.0, numbers[:, 10] / 1679616.0
    alpha = np.sqrt(np.asarray(alpha2, dtype=float))
    beta = np.sqrt(1.0 - alpha * alpha)
    a, b, c, d, z = np.multiply.outer(lin[:, 0].T, alpha * alpha) + np.multiply.outer(lin[:, 1].T, beta * beta)
    trace = a + b + c + d
    w2 = np.multiply.outer(g2, (alpha * beta) ** 2) / (trace * trace)
    z = z / trace
    return x_verdict_arrays(a / trace, b / trace, c / trace, d / trace, z * z, w2)


# The (x, z) bits of each Pauli: up to a phase, a product of Paulis is the
# Pauli of the XOR of their bits.
_BITS = {"i": 0, "z": 1, "x": 2, "y": 3}


@cache
def _word_moves():
    """Each word V as a signed permutation of an 8 x 8 operator's entries
    (sources and complex signs from the unitaries), and the words after
    each Bell outcome's sigma."""
    names, unitaries = _pauli_words()
    p = np.argmax(np.abs(unitaries), axis=-1)
    phases = np.take_along_axis(unitaries, p[..., None], axis=-1)[..., 0]
    signs = phases[:, :, None] * phases.conj()[:, None, :]
    bits = np.array([_BITS[c] for name in names for c in name]).reshape(64, 3) @ [16, 4, 1]
    sigma = bits[[names.index(SIGMA[label]) for label in BELL_ORDER]]
    return 8 * p[:, :, None] + p[:, None, :], signs, np.argsort(bits)[bits ^ sigma[:, None]]


def numpy_conjugates(targets, words):
    """V T V^dagger for each target of (G, 8, 8) and each word of `words`."""
    sources, signs, _ = _word_moves()
    return signs[words] * np.take(targets.reshape(len(targets), 64), sources[words], axis=1)


_TARGET_ORDER = [0, 2, 1, 3, 4, 6, 5, 7]


def numpy_table_targets(alpha2):
    """The recovery targets at each alpha^2 of alpha2 from the rho325
    table's blocks, as a (G, 8, 8) float array."""
    alpha = np.sqrt(np.asarray(alpha2, dtype=float))[..., None, None]
    beta = np.sqrt(1.0 - alpha * alpha)
    g00, g01, g11 = _rho325_blocks()[:, _TARGET_ORDER][:, :, _TARGET_ORDER]
    mat = (alpha * alpha) * g00 + (beta * beta) * g11 + (alpha * beta) * (g01 + g01.T)
    return mat / np.trace(mat, axis1=-2, axis2=-1)[..., None, None]


def numpy_block_fidelity(t, s):
    """The closed-form block fidelity of two (K, 8, 8) stacks."""
    roots = np.sqrt(t[:, 3, 3].real * s[:, 3, 3].real) + np.sqrt(t[:, 4, 4].real * s[:, 4, 4].real)
    for i, j in ((0, 5), (7, 1)):
        (ti, tij, tj), (si, sij, sj) = ((m[:, i, i].real, m[:, i, j], m[:, j, j].real) for m in (t, s))
        trace = ti * si + 4.0 * ((tij * sij.conjugate()).real + tj * sj)
        dets = 4.0 * (ti * tj - abs(tij) ** 2) * (si * sj - abs(sij) ** 2)
        roots += np.sqrt(trace + 2.0 * np.sqrt(np.maximum(dets, 0.0)))
    return roots**2


def numpy_swap_plans(targets, sources, score=numpy_block_fidelity):
    """{source: {label: (word, fidelity)}} at each target of (G, 8, 8): the
    residual search on arrays, the inexact plans scored by `score` in one
    call on two (K, 8, 8) stacks."""
    names, _ = _pauli_words()
    _, _, after = _word_moves()
    moved = numpy_conjugates(targets, slice(None))
    residuals = np.max(np.abs(moved - targets[:, None]), axis=(-2, -1))
    per_outcome = residuals[:, after]
    derived = np.argmax(per_outcome <= per_outcome.min(axis=-1, keepdims=True) + 1e-12, axis=-1)
    published = np.broadcast_to([names.index(PUBLISHED_WORDS[label]) for label in BELL_ORDER], derived.shape)
    words = np.stack([derived if source == "derived" else published for source in sources], axis=1)
    moves = after[np.arange(len(BELL_ORDER)), words]
    off = residuals[np.arange(len(targets))[:, None, None], moves]
    exact = off <= 1e-12
    scores = np.ones(words.shape)
    if not exact.all():
        g = np.nonzero(~exact)[0]
        scores[~exact] = score(targets[g], moved[g, moves[~exact]])
    return [
        {
            source: {label: (names[w], f) for label, w, f in zip(BELL_ORDER, row.tolist(), fids.tolist())}
            for source, row, fids in zip(sources, point_words, point_scores)
        }
        for point_words, point_scores in zip(words, scores)
    ]


def _coins(rng: random.Random, n: int) -> np.ndarray:
    """n fair coins from one getrandbits(n) draw, as a bool array."""
    raw = rng.getrandbits(n).to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little").view(bool)


def numpy_transmit_bits(bits, strategy, config) -> GvResult:
    """transmit_bits on bool arrays: the sequence tiled config.trials times
    and each coin stream unpacked from its getrandbits bytes."""
    sent = np.tile(np.asarray(bits).astype(bool), config.trials)
    n = sent.shape[0]
    if strategy == "none":
        return GvResult(bits_sent=n, bit_errors=0, eve_detected=False, detection_events=0)
    rng = random.Random(config.seed)
    late = _coins(rng, n)
    errors = _coins(rng, n) != sent
    detected = errors | (late & _coins(rng, n))
    return GvResult(n, int(np.count_nonzero(errors)), bool(detected.any()), int(np.count_nonzero(detected)))
