"""Labeled multi-qubit registers: pure states, density operators, and the
operations the cloning pipeline needs (tensoring, isometries, partial trace,
partial transpose).

Every subsystem is a qubit, so a register is its labels alone, and it owns
their axis layout: Register.front brings chosen qubits to the front of
amplitudes or operators, and every permute, partial trace, isometry and
slice goes through it. Convention: the leftmost label is the most
significant tensor factor.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .constants import HERM_TOL, ISOMETRY_TOL, NORM_TOL
from .errors import ContractError
from .linalg import dagger, eig_hermitian, hermitian_defect

__all__ = [
    "Register",
    "PAIR_REGISTER",
    "PureState",
    "DensityOp",
    "tensor",
    "apply_isometry",
    "partial_trace",
    "partial_transpose",
    "permute_subsystems",
    "to_density",
]

Label = str


def _norm_label(x) -> Label:
    return str(x)


# The three records below are named tuples whose __new__ checks (and
# coerces) the fields. The namedtuple's own _make, which _replace calls,
# builds through tuple.__new__, so each class routes it through __new__;
# copy and pickle rebuild through __new__ already.


class Register(NamedTuple("Register", [("labels", tuple[Label, ...])])):
    """Ordered qubit labels. Every subsystem of the pipeline is a qubit, so
    n labels have dim 2**n."""

    __slots__ = ()

    def __new__(cls, labels: Sequence[Label]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ContractError(f"Register: duplicate labels in {labels}")
        return tuple.__new__(cls, (labels,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @staticmethod
    def qubits(*labels) -> "Register":
        return Register(tuple(_norm_label(x) for x in labels))

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def axis(self, label) -> int:
        name = _norm_label(label)
        try:
            return self.labels.index(name)
        except ValueError:
            raise ContractError(f"Register: no subsystem labeled {name!r} in {self.labels}") from None

    def front(self, a: np.ndarray, first: Sequence[Label], sides: int = 2) -> np.ndarray:
        """Amplitudes (..., 2**n) (sides=1) or operators (..., 2**n, 2**n)
        (sides=2) on this register, shaped (..., 2**k, 2**(n-k)) per side:
        the k qubits `first` in front, in the order given, and the rest in
        register order."""
        n = len(self.labels)
        axes = [self.axis(label) for label in first]
        if len(set(axes)) != len(axes):
            raise ContractError(f"Register.front: repeated labels in {list(first)}")
        order = axes + [i for i in range(n) if i not in axes]
        lead = a.shape[: a.ndim - sides]
        m = len(lead)
        t = a.reshape(lead + (2,) * (n * sides))
        t = t.transpose(list(range(m)) + [m + side * n + i for side in range(sides) for i in order])
        return t.reshape(lead + (2 ** len(axes), 2 ** (n - len(axes))) * sides)

    def drop(self, names: Sequence[Label]) -> "Register":
        gone = set(names)
        return Register(tuple(l for l in self.labels if l not in gone))


# Register of a stack of two-qubit marginals taken on different pairs: the
# first and second qubit of a pair.
PAIR_REGISTER = Register.qubits("first", "second")


class PureState(NamedTuple("PureState", [("register", Register), ("amplitudes", np.ndarray)])):
    """Normalized state vector over a labeled register."""

    __slots__ = ()

    def __new__(cls, register: Register, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != register.dim:
            raise ContractError(f"PureState: {amps.shape[0]} amplitudes for register of dim {register.dim}")
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise ContractError("PureState: non-finite amplitudes")
        n = float(np.linalg.norm(amps))
        if abs(n - 1.0) > NORM_TOL:
            raise ContractError(f"PureState: norm {n} is not 1")
        return tuple.__new__(cls, (register, amps))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def amplitude(self, bits: str) -> complex:
        """Amplitude of a computational basis state given as a bit string."""
        if len(bits) != len(self.register.labels):
            raise ContractError("amplitude: bit string length does not match register")
        idx = int(bits, 2) if set(bits) <= {"0", "1"} else None
        if idx is None:
            raise ContractError(f"amplitude: bad bit string {bits!r}")
        return complex(self.amplitudes[idx])


class DensityOp(NamedTuple("DensityOp", [("register", Register), ("matrix", np.ndarray)])):
    """Density operator over a labeled register, or a stack of them.

    matrix is (d, d) for one operator, or (G, d, d) for G operators on the
    same register that are evaluated together (an alpha^2 family on a
    grid). Stacks go through partial_trace, partial_transpose,
    permute_subsystems and the entanglement tests; apply_isometry takes one
    operator.

    Construction checks Hermiticity, unit trace and finiteness of every
    member; the PSD spectrum check is available separately via
    validate_psd (it costs a full eigendecomposition, which the 64 x 64
    pipeline states do not need on every construction).
    """

    __slots__ = ()

    def __new__(cls, register: Register, matrix: np.ndarray):
        self = tuple.__new__(cls, (register, np.asarray(matrix, dtype=complex)))
        # Looked up on the class at each call, so a wrapper set there (the
        # perfbench tracer's) sees every construction.
        cls.__post_init__(self)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __post_init__(self):
        """The construction checks on the coerced matrix."""
        mat = self.matrix
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
            if abs(worst - 1.0) > NORM_TOL:
                raise ContractError(f"DensityOp: trace {worst} is not 1")

    @property
    def stacked(self) -> bool:
        return self.matrix.ndim == 3

    def validate_psd(self, tol: float = 1e-9) -> float:
        """Return the minimum eigenvalue (over all members); raise if below -tol."""
        lo = float(np.min(eig_hermitian(self.matrix).values[..., 0]))
        if lo < -tol:
            raise ContractError(f"DensityOp: negative eigenvalue {lo:.3e}")
        return lo


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
    return Register(r1.labels + r2.labels)


def permute_subsystems(obj, new_order) -> "PureState | DensityOp":
    """Reorder register labels (member by member for a stack); the
    underlying state is unchanged physically."""
    names = [_norm_label(x) for x in new_order]
    reg = obj.register
    if sorted(names) != sorted(reg.labels):
        raise ContractError(f"permute: {names} is not a permutation of {list(reg.labels)}")
    new_reg = Register(tuple(names))
    if isinstance(obj, PureState):
        return PureState(new_reg, reg.front(obj.amplitudes, names, 1).reshape(-1))
    if isinstance(obj, DensityOp):
        return DensityOp(new_reg, reg.front(obj.matrix, names).reshape(obj.matrix.shape))
    raise ContractError("permute: expected PureState or DensityOp")


def apply_isometry(obj, v: np.ndarray, target, new_labels) -> "PureState | DensityOp":
    """Map the target qubit through isometry v, replacing it in place with
    the qubits new_labels (for a 2 -> 8 cloning isometry: one qubit out,
    three in).

    Args:
        obj: PureState or DensityOp.
        v: (2**len(new_labels), 2) matrix with v^dagger v = I.
        target: label of the qubit v consumes.
        new_labels: labels for the qubits v produces, in v's basis order.

    Pure states map as amplitudes; density operators evolve by conjugation.
    """
    v = np.asarray(v, dtype=complex)
    reg = obj.register
    axis = reg.axis(target)
    names = [_norm_label(x) for x in new_labels]
    k = len(names)
    if v.shape != (2 ** k, 2):
        raise ContractError(f"apply_isometry: shape {v.shape} is not (2**{k}, 2) for new labels {names}")
    gram_defect = float(np.max(np.abs(dagger(v) @ v - np.eye(2))))
    if gram_defect > ISOMETRY_TOL:
        raise ContractError(f"apply_isometry: v is not an isometry (defect {gram_defect:.3e})")
    clash = (set(names) & set(reg.labels)) - {reg.labels[axis]}
    if clash or len(set(names)) != k:
        raise ContractError(f"apply_isometry: new labels {names} collide with {reg.labels}")
    new_reg = Register(reg.labels[:axis] + tuple(names) + reg.labels[axis + 1:])
    # v puts its qubits in front: `inner` is that layout, which front
    # reorders into new_reg.
    inner = Register(tuple(names) + reg.labels[:axis] + reg.labels[axis + 1:])

    if isinstance(obj, PureState):
        t = v @ reg.front(obj.amplitudes, [target], 1)
        return PureState(new_reg, inner.front(t.reshape(-1), new_reg.labels, 1).reshape(-1))
    if isinstance(obj, DensityOp):
        if obj.stacked:
            raise ContractError(f"apply_isometry: expected one operator, got a stack of {len(obj.matrix)}")
        t = v @ reg.front(obj.matrix, [target]).reshape(2, -1)
        t = (v.conj() @ t.reshape(-1, 2, reg.dim // 2)).reshape(inner.dim, inner.dim)
        return DensityOp(new_reg, inner.front(t, new_reg.labels).reshape(new_reg.dim, new_reg.dim))
    raise ContractError("apply_isometry: expected PureState or DensityOp")


def partial_trace(rho: DensityOp, keep) -> DensityOp:
    """Reduced operator on the kept labels, ordered as listed (member by
    member for a stack)."""
    names = [_norm_label(x) for x in keep]
    if not names:
        raise ContractError("partial_trace: keep list is empty")
    if len(set(names)) != len(names):
        raise ContractError(f"partial_trace: duplicate labels {names}")
    out = np.einsum("...aibi->...ab", rho.register.front(rho.matrix, names))
    return DensityOp(Register(tuple(names)), out)


def partial_transpose(rho: DensityOp, over) -> np.ndarray:
    """Partial transpose of a two-subsystem operator (or of each member of a
    stack), as a plain matrix or stack."""
    reg = rho.register
    if len(reg.labels) != 2:
        raise ContractError(
            f"partial_transpose: register must have exactly two subsystems, got {list(reg.labels)}"
        )
    axis = reg.axis(over)
    t = rho.matrix.reshape(rho.matrix.shape[:-2] + (2, 2, 2, 2))
    t = np.swapaxes(t, -4, -2) if axis == 0 else np.swapaxes(t, -3, -1)
    return t.reshape(rho.matrix.shape)
