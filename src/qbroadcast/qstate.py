"""Labeled multi-qubit registers: pure states, density operators, and the
operations the cloning pipeline needs (tensoring, isometries, partial trace,
partial transpose, projective measurement).

Convention: the leftmost register label is the most significant tensor
factor, so amplitudes reshape to (d1, ..., dn) in label order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import EQ_TOL, HERM_TOL, ISOMETRY_TOL, PROB_FLOOR
from .errors import ContractError
from .linalg import dagger, eig_hermitian, hermitian_defect

__all__ = [
    "Register",
    "PAIR_REGISTER",
    "PureState",
    "DensityOp",
    "MeasureBranch",
    "tensor",
    "apply_isometry",
    "partial_trace",
    "partial_transpose",
    "projective_measure",
    "permute_subsystems",
    "to_density",
]

Label = str


def _norm_label(x) -> Label:
    return str(x)


@dataclass(frozen=True)
class Register:
    """Ordered subsystem labels with their dimensions."""

    labels: tuple[Label, ...]
    dims: tuple[int, ...]

    @staticmethod
    def qubits(*labels) -> "Register":
        names = tuple(_norm_label(x) for x in labels)
        return Register(names, (2,) * len(names))

    def __post_init__(self):
        if len(self.labels) != len(self.dims):
            raise ContractError("Register: labels and dims length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ContractError(f"Register: duplicate labels in {self.labels}")
        if any(d < 1 for d in self.dims):
            raise ContractError("Register: dimensions must be positive")

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def axis(self, label) -> int:
        name = _norm_label(label)
        try:
            return self.labels.index(name)
        except ValueError:
            raise ContractError(f"Register: no subsystem labeled {name!r} in {self.labels}") from None

    def drop(self, names: Sequence[Label]) -> "Register":
        gone = set(names)
        kept = [(l, d) for l, d in zip(self.labels, self.dims) if l not in gone]
        return Register(tuple(l for l, _ in kept), tuple(d for _, d in kept))


# Register of a stack of two-qubit marginals taken on different pairs: the
# first and second qubit of a pair.
PAIR_REGISTER = Register.qubits("first", "second")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a labeled register."""

    register: Register
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != self.register.dim:
            raise ContractError(
                f"PureState: {amps.shape[0]} amplitudes for register of dim {self.register.dim}"
            )
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise ContractError("PureState: non-finite amplitudes")
        n = float(np.linalg.norm(amps))
        if abs(n - 1.0) > 1e-8:
            raise ContractError(f"PureState: norm {n} is not 1")
        object.__setattr__(self, "amplitudes", amps)

    def tensorized(self) -> np.ndarray:
        return self.amplitudes.reshape(self.register.dims)

    def amplitude(self, bits: str) -> complex:
        """Amplitude of a computational basis state given as a bit string."""
        if len(bits) != len(self.register.labels):
            raise ContractError("amplitude: bit string length does not match register")
        idx = int(bits, 2) if set(bits) <= {"0", "1"} else None
        if idx is None:
            raise ContractError(f"amplitude: bad bit string {bits!r}")
        return complex(self.amplitudes[idx])


@dataclass(frozen=True)
class DensityOp:
    """Density operator over a labeled register, or a stack of them.

    matrix is (d, d) for one operator, or (G, d, d) for G operators on the
    same register that are evaluated together (an alpha^2 family on a
    grid). Stacks go through partial_trace, partial_transpose and the
    entanglement tests; apply_isometry and permute_subsystems take one
    operator.

    Construction checks Hermiticity, unit trace and finiteness of every
    member; the PSD spectrum check is available separately via
    validate_psd (it costs a full eigendecomposition, which the 64 x 64
    pipeline states do not need on every construction).
    """

    register: Register
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.register.dim
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (d, d):
            raise ContractError(f"DensityOp: matrix shape {mat.shape} is not ({d}, {d}) or (G, {d}, {d})")
        if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
            raise ContractError("DensityOp: non-finite entries")
        defect = hermitian_defect(mat)
        if defect > HERM_TOL:
            raise ContractError(f"DensityOp: not Hermitian (defect {defect:.3e})")
        tr = np.trace(mat, axis1=-2, axis2=-1).reshape(-1)
        if tr.size:
            worst = complex(tr[np.argmax(np.abs(tr - 1.0))])
            if abs(worst - 1.0) > 1e-8:
                raise ContractError(f"DensityOp: trace {worst} is not 1")
        object.__setattr__(self, "matrix", mat)

    @property
    def stacked(self) -> bool:
        return self.matrix.ndim == 3

    def validate_psd(self, tol: float = 1e-9) -> float:
        """Return the minimum eigenvalue (over all members); raise if below -tol."""
        lo = float(np.min(eig_hermitian(self.matrix).values[..., 0]))
        if lo < -tol:
            raise ContractError(f"DensityOp: negative eigenvalue {lo:.3e}")
        return lo

    def tensorized(self) -> np.ndarray:
        return self.matrix.reshape(self.matrix.shape[:-2] + self.register.dims * 2)


@dataclass(frozen=True)
class MeasureBranch:
    """One projective-measurement outcome: label, probability, post state.

    state is None for zero-probability branches (p below the floor).
    """

    outcome: str
    probability: float
    state: PureState | None


def to_density(state: PureState) -> DensityOp:
    """|psi><psi| as a DensityOp on the same register."""
    return DensityOp(state.register, np.outer(state.amplitudes, state.amplitudes.conj()))


def tensor(a, b):
    """Tensor product of two PureStates or two DensityOps; a is most significant."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        reg = _join(a.register, b.register)
        return PureState(reg, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOp) and isinstance(b, DensityOp):
        reg = _join(a.register, b.register)
        return DensityOp(reg, np.kron(a.matrix, b.matrix))
    raise ContractError("tensor: operands must be two PureStates or two DensityOps")


def _join(r1: Register, r2: Register) -> Register:
    overlap = set(r1.labels) & set(r2.labels)
    if overlap:
        raise ContractError(f"tensor: duplicate labels {sorted(overlap)}")
    return Register(r1.labels + r2.labels, r1.dims + r2.dims)


def permute_subsystems(obj, new_order) -> "PureState | DensityOp":
    """Reorder register labels; the underlying state is unchanged physically."""
    names = [_norm_label(x) for x in new_order]
    reg = obj.register
    if sorted(names) != sorted(reg.labels):
        raise ContractError(f"permute: {names} is not a permutation of {list(reg.labels)}")
    perm = [reg.axis(n) for n in names]
    new_reg = Register(tuple(names), tuple(reg.dims[p] for p in perm))
    if isinstance(obj, PureState):
        t = obj.tensorized().transpose(perm)
        return PureState(new_reg, t.reshape(-1))
    if isinstance(obj, DensityOp):
        _require_single(obj, "permute")
        n = len(reg.labels)
        t = obj.tensorized().transpose(perm + [p + n for p in perm])
        return DensityOp(new_reg, t.reshape(new_reg.dim, new_reg.dim))
    raise ContractError("permute: expected PureState or DensityOp")


def _new_dims(v: np.ndarray, new_labels: Sequence[Label]) -> tuple[int, ...]:
    d_out = v.shape[0]
    k = len(new_labels)
    if d_out == 2 ** k:
        return (2,) * k
    if k == 1:
        return (d_out,)
    raise ContractError(
        f"apply_isometry: cannot split output dim {d_out} over {k} labels"
    )


def _contract_axis(t: np.ndarray, v: np.ndarray, axis: int, new_dims: tuple[int, ...]) -> np.ndarray:
    """Replace axis of t with the axes of v's output (v: (prod(new_dims), d_axis))."""
    moved = np.moveaxis(t, axis, 0)
    rest = moved.shape[1:]
    flat = v @ moved.reshape(moved.shape[0], -1)
    out = flat.reshape(new_dims + rest)
    k = len(new_dims)
    # New axes sit at the front; walk them back to the original position.
    perm = list(range(k, k + axis)) + list(range(k)) + list(range(k + axis, out.ndim))
    return out.transpose(perm)


def apply_isometry(obj, v: np.ndarray, target, new_labels) -> "PureState | DensityOp":
    """Map the target subsystem through isometry v, replacing it in place with
    new_labels (for a 2 -> 8 cloning isometry: one qubit out, three in).

    Args:
        obj: PureState or DensityOp.
        v: (d_out, d_target) matrix with v^dagger v = I.
        target: label of the subsystem v consumes.
        new_labels: labels for the subsystems v produces, in v's basis order.

    Pure states map as amplitudes; density operators evolve by conjugation.
    """
    v = np.asarray(v, dtype=complex)
    reg = obj.register
    axis = reg.axis(target)
    names = [_norm_label(x) for x in new_labels]
    if v.ndim != 2 or v.shape[1] != reg.dims[axis]:
        raise ContractError(f"apply_isometry: shape {v.shape} does not consume dim {reg.dims[axis]}")
    gram_defect = float(np.max(np.abs(dagger(v) @ v - np.eye(v.shape[1]))))
    if gram_defect > ISOMETRY_TOL:
        raise ContractError(f"apply_isometry: v is not an isometry (defect {gram_defect:.3e})")
    clash = (set(names) & set(reg.labels)) - {reg.labels[axis]}
    if clash or len(set(names)) != len(names):
        raise ContractError(f"apply_isometry: new labels {names} collide with {reg.labels}")
    new_dims = _new_dims(v, names)
    pieces = list(zip(reg.labels, reg.dims))
    pieces[axis:axis + 1] = list(zip(names, new_dims))
    new_reg = Register(tuple(l for l, _ in pieces), tuple(d for _, d in pieces))

    if isinstance(obj, PureState):
        t = _contract_axis(obj.tensorized(), v, axis, new_dims)
        return PureState(new_reg, t.reshape(-1))
    if isinstance(obj, DensityOp):
        _require_single(obj, "apply_isometry")
        n = len(reg.labels)
        t = _contract_axis(obj.tensorized(), v, axis, new_dims)
        # After the ket-side contraction the bra-side target has shifted by k-1.
        t = _contract_axis(t, v.conj(), n + axis + len(new_dims) - 1, new_dims)
        return DensityOp(new_reg, t.reshape(new_reg.dim, new_reg.dim))
    raise ContractError("apply_isometry: expected PureState or DensityOp")


def partial_trace(rho: DensityOp, keep) -> DensityOp:
    """Reduced operator on the kept labels, ordered as listed (member by
    member for a stack)."""
    names = [_norm_label(x) for x in keep]
    if not names:
        raise ContractError("partial_trace: keep list is empty")
    if len(set(names)) != len(names):
        raise ContractError(f"partial_trace: duplicate labels {names}")
    reg = rho.register
    axes_keep = [reg.axis(n) for n in names]
    axes_tr = [i for i in range(len(reg.labels)) if i not in axes_keep]
    n = len(reg.labels)
    lead = rho.matrix.shape[:-2]
    k = len(lead)
    perm = list(range(k)) + [k + a for a in axes_keep + axes_tr + [a + n for a in axes_keep + axes_tr]]
    t = rho.tensorized().transpose(perm)
    dk = 1
    for a in axes_keep:
        dk *= reg.dims[a]
    dt = reg.dim // dk
    t = t.reshape(lead + (dk, dt, dk, dt))
    out = np.einsum("...aibi->...ab", t)
    new_reg = Register(tuple(names), tuple(reg.dims[a] for a in axes_keep))
    return DensityOp(new_reg, out)


def partial_transpose(rho: DensityOp, over) -> np.ndarray:
    """Partial transpose of a two-subsystem operator (or of each member of a
    stack), as a plain matrix or stack."""
    reg = rho.register
    if len(reg.labels) != 2:
        raise ContractError(
            f"partial_transpose: register must have exactly two subsystems, got {list(reg.labels)}"
        )
    axis = reg.axis(over)
    t = rho.tensorized()  # (..., d1, d2, d1, d2)
    t = np.swapaxes(t, -4, -2) if axis == 0 else np.swapaxes(t, -3, -1)
    return t.reshape(rho.matrix.shape)


def _require_single(rho: DensityOp, op: str) -> None:
    if rho.stacked:
        raise ContractError(f"{op}: expected one density operator, got a stack of {len(rho.matrix)}")


def _rank_one_vector(p: np.ndarray, name: str) -> np.ndarray:
    """Unit vector v with p = |v><v|, or raise."""
    tr = complex(np.trace(p))
    if abs(tr - 1.0) > 1e-8 or float(np.max(np.abs(p @ p - p))) > 1e-8:
        raise ContractError(f"projective_measure: projector {name!r} is not rank-1")
    j = int(np.argmax(np.linalg.norm(p, axis=0)))
    v = p[:, j]
    return v / np.linalg.norm(v)


def projective_measure(state: PureState, projectors, targets) -> list[MeasureBranch]:
    """Measure the target subsystems with a complete rank-1 projector set.

    Args:
        state: pure state to measure.
        projectors: list of (outcome_label, matrix) over the joint target space.
        targets: labels of the measured subsystems, most significant first.

    Returns:
        One MeasureBranch per projector. Post states are renormalized and the
        measured subsystems are removed from the register; branches with
        probability below the floor carry state=None.
    """
    reg = state.register
    names = [_norm_label(x) for x in targets]
    axes = [reg.axis(n) for n in names]
    d_t = 1
    for a in axes:
        d_t *= reg.dims[a]
    total = np.zeros((d_t, d_t), dtype=complex)
    vecs = []
    for label, p in projectors:
        p = np.asarray(p, dtype=complex)
        if p.shape != (d_t, d_t):
            raise ContractError(f"projective_measure: projector {label!r} has shape {p.shape}")
        total += p
        vecs.append((str(label), _rank_one_vector(p, str(label))))
    if float(np.max(np.abs(total - np.eye(d_t)))) > EQ_TOL * d_t:
        raise ContractError("projective_measure: projectors do not sum to identity")

    t = state.tensorized()
    rest_axes = [i for i in range(len(reg.labels)) if i not in axes]
    moved = t.transpose(axes + rest_axes).reshape(d_t, -1)
    new_reg = reg.drop(names)
    out = []
    for label, v in vecs:
        branch = v.conj() @ moved
        p = float(np.vdot(branch, branch).real)
        if p < PROB_FLOOR:
            out.append(MeasureBranch(label, p, None))
            continue
        amps = (branch / np.sqrt(p)).reshape(-1)
        out.append(MeasureBranch(label, p, PureState(new_reg, amps)))
    return out
