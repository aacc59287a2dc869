"""Per-point references the stacked pipeline is tested against.

Each function builds a state for one input through the protocol's stages,
with the package's public operations only: cloning on explicit registers,
partial traces of full density operators, and no Gram blocks. The tests
hold branch_marginal (of a branch, and of the first round with the machines
traced out) and six_qubit_branch to these routes entrywise, and tests/golden/ holds CLI output they produced.

`sweep_text` is the sweep table formatted one row at a time, each row
through a whole-row template from its own pair's numbers; the CLI's
`sweep` output is held to it byte for byte.

`scan_points` is a scan one point at a time: it tests every grid point,
and bisects each edge of each row one step per test call. `exact_scan` runs
it on each pair's verdict in Fraction arithmetic, and `float_scan` is the
float route, scan_predicates over pair_verdicts: protocol.branch_scan is
held to the first bit for bit at every grid and tol, and the second to it
at tol >= 1e-12.

`pipeline_pair_integers` is the one route here that reads Gram blocks: it
builds a branch's integer table from protocol's basis images, each pair's
float blocks certified by `x_coefficients`; protocol's checked-in integer
tables are held to it.
"""
import collections
from fractions import Fraction
from functools import cache

import numpy as np

from qbroadcast import (
    ContractError, DensityOp, PureState, ThresholdInterval, broadcast_holds, clone_subsystem, partial_trace,
    run_first_stage, scan_predicates, to_density,
)
from qbroadcast.cli import CSV_HEADER
from qbroadcast.constants import PPT_TOL
from qbroadcast.entanglement import eof
from qbroadcast.protocol import _PAIR_INTEGERS, PAIR_KEYS, SIX_LABELS, _basis_images, _gram_blocks, pair_verdicts

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


def stored_integers(branch) -> dict[str, list[int]]:
    """The stored integers of each key of one table, in its line order:
    1296*(a, b, c, d, z) of G00, the same of G11, and 1296^2*|G01[0,3]|^2."""
    lines = (line.split() for line in _PAIR_INTEGERS[branch].strip().splitlines())
    return {key: [int(n) for n in numbers] for key, *numbers in lines}


def pipeline_pair_integers(branch) -> dict[str, tuple[int, ...]]:
    """protocol._pair_integers for `branch`, from the pipeline: 36 times each
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


def scan_points(test, names, grid, tol) -> dict[str, list[ThresholdInterval]]:
    """Intervals where each row holds, test mapping one alpha^2 float to a
    bool per name: every grid point k / (grid + 1) tested, and each flip of
    a row between grid neighbours bisected one step per test call, to the
    midpoint (a + b) / 2.0 at which the edge is no wider than tol or the
    midpoint is one of its ends. Intervals alternate from the row's value
    at the first grid point; a row constant over the grid has none."""
    xs = [k / (grid + 1) for k in range(1, grid + 1)]
    flags = [tuple(test(x)) for x in xs]
    out = {}
    for r, name in enumerate(names):
        cuts = [0.0]
        for k in range(grid - 1):
            start = flags[k][r]
            if flags[k + 1][r] == start:
                continue
            a, b = xs[k], xs[k + 1]
            mid = (a + b) / 2.0
            while b - a > tol and a < mid < b:
                if test(mid)[r] == start:
                    a = mid
                else:
                    b = mid
                mid = (a + b) / 2.0
            cuts.append(mid)
        cuts.append(1.0)
        first = 0 if flags[0][r] else 1
        out[name] = [] if len(cuts) == 2 else [
            ThresholdInterval(lo, hi, tol, name) for lo, hi in zip(cuts[first::2], cuts[first + 1::2])
        ]
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
    verdicts (_exact_rows)."""
    return _renamed(scan_points(_exact_rows(branch, names), names, grid, tol))


def exact_array_scan(branch, names, grid, tol):
    """branch_scan's intervals from scan_predicates over the pairs' exact
    verdicts (_exact_rows), lifted to arrays point by point."""
    test = _exact_rows(branch, names)
    return _renamed(scan_predicates(lambda xs: np.array([test(x) for x in xs.tolist()]).T, names, grid, tol))


def float_scan(branch, names, grid, tol):
    """branch_scan's intervals from scan_predicates over pair_verdicts, the
    float route: each call's verdicts from one pair_verdicts call."""
    keys = list(stored_integers(branch))
    rows = _rows(names)

    def test(xs):
        entangled = dict(zip(keys, pair_verdicts(xs, branch, keys)[0].entangled))
        return np.stack([row(entangled) for row in rows])

    return _renamed(scan_predicates(test, names, grid, tol))
