"""Per-point references the stacked pipeline is tested against.

Each function builds a state for one input through the protocol's stages,
with the package's public operations only: cloning on explicit registers,
partial traces of full density operators, and no Gram blocks. The tests
hold branch_marginal (of a branch, and of the first round with the machines
traced out) and six_qubit_branch to these routes entrywise, and tests/golden/ holds CLI output they produced.

`sweep_text` is the sweep table formatted one row at a time, each row
through a whole-row template from its own pair's numbers; the CLI's
`sweep` output is held to it byte for byte.

`bisect_edges` is the scans' bisection one step per test call; the
package's _bisect_edges takes several of its steps per call. `on_reference`
runs a scan with it, and the package's scans are held to those edges bit
for bit.

`pipeline_pair_table` is the one route here that reads Gram blocks: it
builds a branch's table of X-state coefficients from protocol's float
blocks, each pair certified by `x_coefficients`, the float route that
protocol's checked-in integer tables are held to.
"""
import collections

import numpy as np
import pytest

from qbroadcast import ContractError, DensityOp, PureState, clone_subsystem, partial_trace, run_first_stage, to_density
from qbroadcast.cli import CSV_HEADER
import qbroadcast.entanglement as entanglement
from qbroadcast.entanglement import _flags, eof
from qbroadcast.protocol import PAIR_KEYS, SIX_LABELS, _gram_blocks, pair_verdicts

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
    `verdicts` is pair_verdicts or a stand-in with its signature."""
    counts = sorted(collections.Counter(values).items())
    keys = sorted(set(pairs))
    verdict, conc = verdicts([x for x, _ in counts], branch, keys)
    cols = [verdict.min_pt_eigenvalue, verdict.w3, verdict.w4, conc, eof(conc), verdict.entangled]
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


def pipeline_pair_table(branch):
    """protocol._pair_table's (row, lin, g2) for `branch`, built from the
    float Gram blocks of the pipeline and certified pair by pair."""
    keys = PAIR_KEYS if branch else tuple(key for key in PAIR_KEYS if set(key) <= set("1234"))
    lin, g2 = zip(*(x_coefficients(*_gram_blocks(branch, tuple(key))[1:]) for key in keys))
    return {key: row for row, key in enumerate(keys)}, np.stack(lin), np.array(g2)


def bisect_edges(test, rows, row, a, b, fa, tol):
    """entanglement._bisect_edges one step per test call: each call tests
    the midpoints of all edges still open. An edge closes when it is no
    wider than tol, or when its midpoint is one of its endpoints."""
    a, b = a.copy(), b.copy()
    while True:
        mid = (a + b) / 2.0
        live = np.nonzero((b - a > tol) & (mid > a) & (mid < b))[0]
        if not live.size:
            return mid
        same = _flags(test, mid[live], rows)[row[live], np.arange(live.size)] == fa[live]
        a[live[same]] = mid[live[same]]
        b[live[~same]] = mid[live[~same]]


def on_reference(scan, *args):
    """scan(*args) with every scan inside bisecting through bisect_edges."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entanglement, "_bisect_edges", bisect_edges)
        return scan(*args)
