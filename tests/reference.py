"""Per-point references the stacked pipeline is tested against.

Each function builds a state for one input through the protocol's stages,
with the package's public operations only: cloning on explicit registers,
partial traces of full density operators, and no Gram blocks. The tests
hold branch_marginal (of a branch, and of the first round with the machines
traced out) and six_qubit_branch to these routes entrywise, and tests/golden/ holds CLI output they produced.

`sweep_text` is the sweep table formatted one row at a time, each row
through a whole-row template from its own pair's numbers; the CLI's
`sweep` output is held to it byte for byte.
"""
import collections

from qbroadcast import ContractError, DensityOp, PureState, clone_subsystem, partial_trace, run_first_stage, to_density
from qbroadcast.cli import CSV_HEADER
from qbroadcast.entanglement import eof
from qbroadcast.protocol import PAIR_KEYS, SIX_LABELS, pair_verdicts

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
