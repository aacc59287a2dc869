import numpy as np
import pytest

from qbroadcast import (
    ContractError,
    DensityOp,
    PureState,
    Register,
    apply_isometry,
    machine_branches,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
    to_density,
)

_S = 1.0 / np.sqrt(2.0)


def _bell():
    return PureState(Register.qubits("a", "b"), np.array([_S, 0.0, 0.0, _S]))


def _random_pure(rng, labels):
    reg = Register.qubits(*labels)
    v = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
    return PureState(reg, v / np.linalg.norm(v))


# ------------------------------------------------------------- containers


def test_register_basics():
    reg = Register.qubits("1", "2", "5")
    assert reg.labels == ("1", "2", "5")
    assert reg.dim == 8
    assert reg.axis("2") == 1
    assert reg.drop(["2"]).labels == ("1", "5")


def test_register_rejects_duplicates_and_unknown_axis():
    with pytest.raises(ContractError):
        Register.qubits("x", "x")
    with pytest.raises(ContractError):
        Register.qubits("x", "y").axis("z")


def _front_reference(a, axes, n, sides):
    # move each qubit axis on its own: the chosen qubits, in order, to the
    # front of each side, the rest after them in register order
    lead = a.shape[: a.ndim - sides]
    m, k = len(lead), len(axes)
    t = a.reshape(lead + (2,) * (n * sides))
    source = [m + side * n + ax for side in range(sides) for ax in axes]
    dest = [m + side * n + i for side in range(sides) for i in range(k)]
    return np.moveaxis(t, source, dest).reshape(lead + (2**k, 2 ** (n - k)) * sides)


@pytest.mark.parametrize("n", range(1, 7))
def test_register_front_matches_per_axis_moves(n):
    rng = np.random.default_rng(100 + n)
    reg = Register.qubits(*(f"q{i}" for i in range(n)))
    subsets = [list(rng.permutation(n)[: rng.integers(0, n + 1)]) for _ in range(4)] + [list(rng.permutation(n))]
    for lead in ((), (3,)):
        for sides in (1, 2):
            a = rng.standard_normal(lead + (reg.dim,) * sides) + 1j * rng.standard_normal(lead + (reg.dim,) * sides)
            for axes in subsets:
                got = reg.front(a, [reg.labels[i] for i in axes], sides)
                assert np.array_equal(got, _front_reference(a, axes, n, sides))
    with pytest.raises(ContractError):
        reg.front(np.eye(reg.dim), ["q0", "nope"])
    with pytest.raises(ContractError):
        reg.front(np.eye(reg.dim), [reg.labels[-1]] * 2)


def test_pure_state_validation():
    reg = Register.qubits("q")
    with pytest.raises(ContractError):
        PureState(reg, np.array([1.0, 0.0, 0.0]))  # wrong length
    with pytest.raises(ContractError):
        PureState(reg, np.array([1.0, 1.0]))  # norm sqrt(2)
    with pytest.raises(ContractError):
        PureState(reg, np.array([np.nan, 0.0]))


def test_amplitude_lookup():
    psi = _bell()
    assert psi.amplitude("00") == pytest.approx(_S)
    assert psi.amplitude("11") == pytest.approx(_S)
    assert psi.amplitude("01") == 0.0
    with pytest.raises(ContractError):
        psi.amplitude("0")
    with pytest.raises(ContractError):
        psi.amplitude("0x")


def test_density_validation():
    reg = Register.qubits("q")
    with pytest.raises(ContractError):
        DensityOp(reg, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ContractError):
        DensityOp(reg, np.eye(2))  # trace 2
    ok = DensityOp(reg, np.eye(2) / 2.0)
    assert ok.validate_psd() == pytest.approx(0.5)


def test_validate_psd_catches_negative_spectrum():
    mat = np.diag([1.5, -0.5]).astype(complex)
    rho = DensityOp(Register.qubits("q"), mat)
    with pytest.raises(ContractError):
        rho.validate_psd()


def test_to_density_is_projector():
    rho = to_density(_bell())
    assert np.trace(rho.matrix) == pytest.approx(1.0)
    assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-12


# ----------------------------------------------------------------- tensor


def test_tensor_pure_and_density():
    zero = PureState(Register.qubits("x"), np.array([1.0, 0.0]))
    one = PureState(Register.qubits("y"), np.array([0.0, 1.0]))
    joint = tensor(zero, one)
    assert joint.register.labels == ("x", "y")
    assert joint.amplitude("01") == pytest.approx(1.0)
    rho = tensor(to_density(zero), to_density(one))
    assert np.allclose(rho.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_rejects_duplicates_and_mixed_types():
    zero = PureState(Register.qubits("x"), np.array([1.0, 0.0]))
    with pytest.raises(ContractError):
        tensor(zero, zero)
    with pytest.raises(ContractError):
        tensor(zero, to_density(PureState(Register.qubits("y"), np.array([1.0, 0.0]))))


# ---------------------------------------------------------------- permute


def test_permute_roundtrip_and_swap():
    rng = np.random.default_rng(3)
    psi = _random_pure(rng, ("a", "b", "c"))
    back = permute_subsystems(permute_subsystems(psi, ["c", "a", "b"]), ["a", "b", "c"])
    assert np.allclose(back.amplitudes, psi.amplitudes)
    # |01> under swap becomes |10>
    psi01 = PureState(Register.qubits("a", "b"), np.array([0.0, 1.0, 0.0, 0.0]))
    swapped = permute_subsystems(psi01, ["b", "a"])
    assert swapped.amplitude("10") == pytest.approx(1.0)


def test_permute_density_matches_pure():
    rng = np.random.default_rng(4)
    psi = _random_pure(rng, ("a", "b", "c"))
    lhs = to_density(permute_subsystems(psi, ["b", "c", "a"]))
    rhs = permute_subsystems(to_density(psi), ["b", "c", "a"])
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12


def test_permute_rejects_non_permutation():
    psi = _bell()
    with pytest.raises(ContractError):
        permute_subsystems(psi, ["a", "a"])
    with pytest.raises(ContractError):
        permute_subsystems(psi, ["a", "z"])


# ----------------------------------------------------------- apply_isometry


def _embed_isometry():
    # |0> -> |00>, |1> -> |11>: a 2 -> 4 isometry
    v = np.zeros((4, 2), dtype=complex)
    v[0b00, 0] = 1.0
    v[0b11, 1] = 1.0
    return v


def test_apply_isometry_identity_is_noop():
    psi = _bell()
    out = apply_isometry(psi, np.eye(2), "b", ["b"])
    assert out.register.labels == ("a", "b")
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_apply_isometry_embeds_middle_qubit():
    rng = np.random.default_rng(7)
    psi = _random_pure(rng, ("a", "b", "c"))
    out = apply_isometry(psi, _embed_isometry(), "b", ["b1", "b2"])
    assert out.register.labels == ("a", "b1", "b2", "c")
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)
    # the two new qubits are perfectly correlated
    rho = partial_trace(to_density(out), ["b1", "b2"])
    assert rho.matrix[0b01, 0b01] == pytest.approx(0.0, abs=1e-12)
    assert rho.matrix[0b10, 0b10] == pytest.approx(0.0, abs=1e-12)


def test_apply_isometry_pure_density_consistency():
    # conjugating the density operator must match mapping the vector,
    # including when the target sits on an interior axis
    rng = np.random.default_rng(8)
    v = _embed_isometry()
    for labels, target in ((("a", "b"), "a"), (("a", "b", "c"), "b"), (("a", "b", "c"), "c")):
        psi = _random_pure(rng, labels)
        lhs = to_density(apply_isometry(psi, v, target, [target + "1", target + "2"]))
        rhs = apply_isometry(to_density(psi), v, target, [target + "1", target + "2"])
        assert lhs.register.labels == rhs.register.labels
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12


def test_apply_isometry_qutrit_output():
    # every subsystem is a qubit: a 3-level output is not a register
    v = np.eye(3, dtype=complex)[:, :2]
    with pytest.raises(ContractError):
        apply_isometry(_bell(), v, "b", ["b"])


def test_apply_isometry_rejects_bad_inputs():
    psi = _bell()
    with pytest.raises(ContractError):
        apply_isometry(psi, np.ones((4, 2)), "b", ["x", "y"])  # not an isometry
    with pytest.raises(ContractError):
        apply_isometry(psi, _embed_isometry(), "z", ["x", "y"])  # unknown target
    with pytest.raises(ContractError):
        apply_isometry(psi, _embed_isometry(), "b", ["a", "y"])  # label collision
    with pytest.raises(ContractError):
        apply_isometry(psi, _embed_isometry(), "b", ["x", "x"])  # duplicate new label
    with pytest.raises(ContractError):
        apply_isometry(psi, np.eye(3)[:, :2], "b", ["x", "y"])  # 3 does not split over 2 qubits


# ------------------------------------------------------------ partial trace


def test_partial_trace_bell_marginal():
    rho = to_density(_bell())
    red = partial_trace(rho, ["a"])
    assert np.allclose(red.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_recovers_product_factor():
    rng = np.random.default_rng(9)
    psi = _random_pure(rng, ("x",))
    phi = _random_pure(rng, ("y", "z"))
    joint = to_density(tensor(psi, phi))
    assert np.max(np.abs(partial_trace(joint, ["x"]).matrix - to_density(psi).matrix)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, ["y", "z"]).matrix - to_density(phi).matrix)) < 1e-12


def test_partial_trace_keep_order_is_output_order():
    rng = np.random.default_rng(10)
    rho = to_density(_random_pure(rng, ("a", "b", "c")))
    ab = partial_trace(rho, ["a", "b"])
    ba = partial_trace(rho, ["b", "a"])
    assert ba.register.labels == ("b", "a")
    flipped = permute_subsystems(ba, ["a", "b"])
    assert np.max(np.abs(flipped.matrix - ab.matrix)) < 1e-12


def test_partial_trace_rejects_bad_keep():
    rho = to_density(_bell())
    with pytest.raises(ContractError):
        partial_trace(rho, [])
    with pytest.raises(ContractError):
        partial_trace(rho, ["a", "a"])
    with pytest.raises(ContractError):
        partial_trace(rho, ["nope"])


# -------------------------------------------------------- partial transpose


def test_partial_transpose_bell():
    rho = to_density(_bell())
    pt = partial_transpose(rho, "b")
    vals = np.linalg.eigvalsh(pt)
    assert vals[0] == pytest.approx(-0.5, abs=1e-12)
    # transposing the other subsystem gives the full transpose of the first
    pt_a = partial_transpose(rho, "a")
    assert np.max(np.abs(pt_a - pt.T)) < 1e-12


def test_partial_transpose_product_stays_psd():
    zero = to_density(PureState(Register.qubits("x"), np.array([1.0, 0.0])))
    plus = to_density(PureState(Register.qubits("y"), np.array([_S, _S])))
    rho = tensor(zero, plus)
    vals = np.linalg.eigvalsh(partial_transpose(rho, "y"))
    assert vals[0] > -1e-12


def test_partial_transpose_needs_two_subsystems():
    rng = np.random.default_rng(12)
    rho = to_density(_random_pure(rng, ("a", "b", "c")))
    with pytest.raises(ContractError):
        partial_transpose(rho, "a")


# ---------------------------------------------------------------- measure
#
# The package measures only the two cloning machines, by slicing the
# amplitudes at each pair of machine indices (cloner.machine_branches).


def test_measure_deterministic_outcome():
    # machines already in |Q0 Q0>: that branch is certain, the others are null
    psi = PureState(Register.qubits("a", "m1", "m2"), np.array([_S, 0, 0, 0, _S, 0, 0, 0]))
    branches = machine_branches(psi, ["m1", "m2"])
    assert branches[0].probability == pytest.approx(1.0)
    assert branches[0].state.register.labels == ("a",)
    assert branches[0].state.amplitude("0") == pytest.approx(_S)
    assert branches[0].state.amplitude("1") == pytest.approx(_S)
    for b in branches[1:]:
        assert b.probability == 0.0
        assert b.state is None


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    psi = _random_pure(rng, ("a", "m1", "b", "m2", "c"))
    branches = machine_branches(psi, ["m1", "m2"])
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for b in branches:
        assert np.linalg.norm(b.state.amplitudes) == pytest.approx(1.0)
        assert b.state.register.labels == ("a", "b", "c")


def test_measure_branch_states_reassemble_the_input():
    # sum_k p_k |k><k| (machines) tensored with |psi_k><psi_k| equals the
    # input operator dephased in the machine basis
    rng = np.random.default_rng(14)
    psi = _random_pure(rng, ("a", "m1", "m2"))
    rebuilt = np.zeros((8, 8), dtype=complex)
    for k, b in enumerate(machine_branches(psi, ["m1", "m2"])):
        outer = np.zeros((4, 4), dtype=complex)
        outer[k, k] = 1.0
        rebuilt += b.probability * np.kron(outer, np.outer(b.state.amplitudes, b.state.amplitudes.conj()))
    dephased = permute_subsystems(to_density(psi), ["m1", "m2", "a"]).matrix.copy()
    for k in range(4):
        for j in range(4):
            if j != k:
                dephased[2 * k:2 * k + 2, 2 * j:2 * j + 2] = 0.0
    assert np.max(np.abs(rebuilt - dephased)) < 1e-12


# ------------------------------------------------------------------ stacks


def test_density_stack_checks_every_member():
    reg = Register.qubits("a", "b")
    good = np.stack([np.eye(4) / 4.0, np.diag([1.0, 0.0, 0.0, 0.0])]).astype(complex)
    stack = DensityOp(reg, good)
    assert stack.stacked and not DensityOp(reg, good[0]).stacked
    assert stack.validate_psd() == pytest.approx(0.0)
    bad = good.copy()
    bad[1, 0, 0] = 2.0  # trace 2 in one member
    with pytest.raises(ContractError):
        DensityOp(reg, bad)
    bad = good.copy()
    bad[0, 0, 1] = 0.1  # not Hermitian in one member
    with pytest.raises(ContractError):
        DensityOp(reg, bad)
    bad = good.copy()
    bad[1, 2, 2] = np.nan
    with pytest.raises(ContractError):
        DensityOp(reg, bad)
    with pytest.raises(ContractError):
        DensityOp(reg, good[None])  # two stack axes


def test_partial_trace_and_transpose_act_member_by_member():
    rng = np.random.default_rng(9)
    members = [to_density(_random_pure(rng, ["a", "b", "c"])) for _ in range(3)]
    stack = DensityOp(members[0].register, np.stack([m.matrix for m in members]))
    traced = partial_trace(stack, ["c", "a"])
    assert traced.register.labels == ("c", "a")
    for i, m in enumerate(members):
        alone = partial_trace(m, ["c", "a"])
        assert np.max(np.abs(traced.matrix[i] - alone.matrix)) < 1e-15
        for label in ("c", "a"):
            assert np.max(np.abs(partial_transpose(traced, label)[i] - partial_transpose(alone, label))) < 1e-15
    # permute_subsystems reorders every member as it would reorder it alone
    permuted = permute_subsystems(stack, ["c", "b", "a"])
    assert permuted.register.labels == ("c", "b", "a")
    for i, m in enumerate(members):
        assert np.array_equal(permuted.matrix[i], permute_subsystems(m, ["c", "b", "a"]).matrix)
    with pytest.raises(ContractError):
        apply_isometry(stack, np.eye(2), "a", ["a"])
