"""Symmetric universal 1 -> 2 qubit cloning as a concrete isometry, and
the four branches of measuring two cloning machines.

The cloner maps one qubit to two approximate copies plus a two-level machine
register. Measuring both parties' machines in their {|Q0>, |Q1>} basis
selects one of four branches: a branch is the slice of the amplitudes at
machine indices (i, j). Tracing the machines out instead gives the plain
broadcasting channel of the two-qubit baseline (protocol.buzek_baseline).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .constants import PROB_FLOOR
from .errors import ContractError
from .qstate import PureState, apply_isometry

__all__ = [
    "BranchOutcome",
    "OUTCOME_ORDER",
    "bh_isometry",
    "clone_subsystem",
    "machine_branches",
]

# Machine-measurement outcomes in fixed report order: (Alice, Bob).
OUTCOME_ORDER: tuple[tuple[str, str], ...] = (
    ("Q0", "Q0"),
    ("Q0", "Q1"),
    ("Q1", "Q0"),
    ("Q1", "Q1"),
)


class BranchOutcome(NamedTuple):
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
    OUTCOME_ORDER. Branch (Q_i, Q_j) is the slice of the amplitudes at
    machine indices (i, j): p is its squared norm, and state is the slice
    over sqrt(p) without the machines, or None for p below PROB_FLOOR.
    """
    labels = [str(label) for label in machine_labels]
    reg = state.register
    axes = [reg.axis(label) for label in labels]
    if len(axes) != 2 or axes[0] == axes[1]:
        raise ContractError(f"machine_branches: expected two distinct machines, got {labels}")
    # Row 2i + j holds the amplitudes at machine indices (i, j).
    rows = reg.front(state.amplitudes, labels, 1)
    rest = reg.drop(labels)
    out = []
    for outcome, branch in zip(OUTCOME_ORDER, rows):
        p = float(np.vdot(branch, branch).real)
        out.append(BranchOutcome(outcome, p, PureState(rest, branch / np.sqrt(p)) if p >= PROB_FLOOR else None))
    return out
