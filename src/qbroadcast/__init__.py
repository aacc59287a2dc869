"""Secret broadcasting of three-qubit entanglement: local cloning of a
shared two-qubit state, machine-outcome selection, separability analysis of
the six-qubit output, entanglement swapping to a third party, and a secret
classical channel for the outcome announcements.
"""
from .cloner import BranchOutcome, bh_isometry, clone_subsystem, machine_branches
from .entanglement import (
    PPTVerdict,
    ThresholdInterval,
    broadcast_holds,
    broadcast_verdict,
    concurrence,
    eof,
    ppt_verdict,
)
from .errors import ContractError
from .gvchannel import ANALYTIC_DETECTION_RATE, GvConfig, GvResult, secure_send, transmit_bits
from .protocol import (
    ProtocolRun,
    branch_marginal,
    branch_probabilities,
    branch_scan,
    build_initial,
    buzek_baseline,
    pair_verdicts,
    run_first_stage,
    run_protocol,
    six_qubit_branch,
)
from .qstate import (
    DensityOp,
    PureState,
    Register,
    apply_isometry,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
    to_density,
)
from .swap import (
    BellOutcome,
    CorrectionPlan,
    bsm,
    correction_plans,
    published_corrections,
    recovery_target,
    swap_extend,
)

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_DETECTION_RATE",
    "BellOutcome",
    "BranchOutcome",
    "ContractError",
    "CorrectionPlan",
    "DensityOp",
    "GvConfig",
    "GvResult",
    "PPTVerdict",
    "ProtocolRun",
    "PureState",
    "Register",
    "ThresholdInterval",
    "apply_isometry",
    "bh_isometry",
    "branch_marginal",
    "branch_probabilities",
    "branch_scan",
    "broadcast_holds",
    "broadcast_verdict",
    "bsm",
    "build_initial",
    "buzek_baseline",
    "clone_subsystem",
    "concurrence",
    "correction_plans",
    "eof",
    "machine_branches",
    "pair_verdicts",
    "partial_trace",
    "partial_transpose",
    "permute_subsystems",
    "ppt_verdict",
    "published_corrections",
    "recovery_target",
    "run_first_stage",
    "run_protocol",
    "secure_send",
    "six_qubit_branch",
    "swap_extend",
    "tensor",
    "to_density",
    "transmit_bits",
]
