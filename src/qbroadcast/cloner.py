"""Symmetric universal 1 -> 2 qubit cloning as a concrete isometry.

The cloner maps one qubit to two approximate copies plus a two-level machine
register. Measuring the machine in its {|Q0>, |Q1>} basis selects one of four
branches when two parties clone locally; tracing the machine out instead
gives the plain broadcasting channel used for the two-qubit baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SCAN_GRID, SCAN_TOL
from .errors import ContractError
from .qstate import MeasureBranch, PureState, apply_isometry, projective_measure

__all__ = [
    "BranchOutcome",
    "OUTCOME_ORDER",
    "bh_isometry",
    "clone_subsystem",
    "machine_branches",
    "buzek_baseline",
]

# Machine-measurement outcomes in fixed report order: (Alice, Bob).
OUTCOME_ORDER: tuple[tuple[str, str], ...] = (
    ("Q0", "Q0"),
    ("Q0", "Q1"),
    ("Q1", "Q0"),
    ("Q1", "Q1"),
)


@dataclass(frozen=True)
class BranchOutcome:
    """One joint machine outcome: labels, probability, postselected state."""

    machine_labels: tuple[str, str]
    probability: float
    state: PureState | None


def bh_isometry() -> np.ndarray:
    """The 2 -> 8 cloning isometry, columns = images of |0> and |1>.

    Output order is (copy 1, copy 2, machine). |0> maps to
    sqrt(2/3)|00>|Q0> + sqrt(1/3)|psi+>|Q1> and |1> to the bit-flipped
    counterpart, so both clones carry fidelity 5/6 for any input.
    """
    a = np.sqrt(2.0 / 3.0)
    b = np.sqrt(1.0 / 6.0)  # sqrt(1/3) * (1/sqrt(2)) from the |psi+> split
    v = np.zeros((8, 2), dtype=complex)
    v[0b000, 0] = a
    v[0b011, 0] = b
    v[0b101, 0] = b
    v[0b111, 1] = a
    v[0b010, 1] = b
    v[0b100, 1] = b
    return v


def clone_subsystem(state, label, copy_labels, machine_label):
    """Clone one labeled qubit in place: label -> (copy1, copy2) + machine."""
    c1, c2 = copy_labels
    return apply_isometry(state, bh_isometry(), label, [c1, c2, machine_label])


def machine_branches(state: PureState, machine_labels) -> list[BranchOutcome]:
    """Measure both machine registers; return the four (Q_i, Q_j) branches.

    machine_labels lists Alice's machine first; the branch order is
    (Q0,Q0), (Q0,Q1), (Q1,Q0), (Q1,Q1). Measured machines are removed from
    the branch states.
    """
    if len(machine_labels) != 2:
        raise ContractError("machine_branches: expected exactly two machine labels")
    projectors = []
    for ia, ib in ((0, 0), (0, 1), (1, 0), (1, 1)):
        v = np.zeros(4, dtype=complex)
        v[2 * ia + ib] = 1.0
        projectors.append((f"Q{ia}Q{ib}", np.outer(v, v.conj())))
    measured: list[MeasureBranch] = projective_measure(state, projectors, machine_labels)
    out = []
    for (ia, ib), br in zip(((0, 0), (0, 1), (1, 0), (1, 1)), measured):
        out.append(BranchOutcome((f"Q{ia}", f"Q{ib}"), br.probability, br.state))
    return out


def buzek_baseline(grid: int = SCAN_GRID, tol: float = SCAN_TOL) -> tuple[float, float]:
    """Inseparability interval of the single-stage nonlocal pair (1,4).

    The machines are traced out rather than measured, which is the
    convention the two-qubit broadcasting bound is stated in. Returns the
    (lo, hi) endpoints in alpha^2, located by scan plus bisection.
    """
    from .entanglement import scan_predicates
    from .protocol import pair_verdicts

    def entangled(xs: np.ndarray) -> np.ndarray:
        return pair_verdicts(xs, None, ["14"])[0].entangled

    intervals = scan_predicates(entangled, ("entangled",), grid, tol)["entangled"]
    if len(intervals) != 1:
        raise ContractError(
            f"buzek_baseline: expected one inseparability interval, found {len(intervals)}"
        )
    return (intervals[0].lo, intervals[0].hi)
