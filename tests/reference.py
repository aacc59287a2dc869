"""Per-point references the stacked pipeline is tested against.

Each function builds a state for one input through the protocol's stages,
with the package's public operations only: cloning on explicit registers,
partial traces of full density operators, and no Gram blocks. The tests
hold branch_marginal, six_qubit_branch and machine_traced_marginal to these
routes entrywise, and tests/golden/ holds CLI output they produced.
"""
from qbroadcast import ContractError, DensityOp, PureState, clone_subsystem, partial_trace, run_first_stage, to_density
from qbroadcast.protocol import PAIR_KEYS, SIX_LABELS

TRIPLE_KEYS = ("146", "325")


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
