import numpy as np
import pytest

from qbroadcast import (
    ContractError,
    PureState,
    Register,
    bh_isometry,
    buzek_baseline,
    clone_subsystem,
    machine_branches,
    partial_trace,
    tensor,
    to_density,
)
from qbroadcast.cloner import OUTCOME_ORDER


def _pair_state(alpha, beta=None):
    beta = np.sqrt(1.0 - alpha * alpha) if beta is None else beta
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = alpha
    amps[0b11] = beta
    return PureState(Register.qubits("1", "3"), amps)


def _cloned_pair(alpha):
    chi = clone_subsystem(_pair_state(alpha), "1", ("1", "2"), "A1")
    return clone_subsystem(chi, "3", ("3", "4"), "B1")


def test_isometry_matrix():
    v = bh_isometry()
    assert v.shape == (8, 2)
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12
    a = np.sqrt(2.0 / 3.0)
    b = np.sqrt(1.0 / 6.0)
    assert v[0b000, 0] == pytest.approx(a)
    assert v[0b011, 0] == pytest.approx(b)
    assert v[0b101, 0] == pytest.approx(b)
    assert v[0b111, 1] == pytest.approx(a)
    assert v[0b010, 1] == pytest.approx(b)
    assert v[0b100, 1] == pytest.approx(b)
    # no other entries
    assert np.count_nonzero(v) == 6


def test_clone_marginal_of_basis_state():
    zero = PureState(Register.qubits("q"), np.array([1.0, 0.0]))
    out = clone_subsystem(zero, "q", ("c1", "c2"), "m")
    assert out.register.labels == ("c1", "c2", "m")
    for copy in ("c1", "c2"):
        red = partial_trace(to_density(out), [copy])
        assert np.allclose(red.matrix, np.diag([5.0 / 6.0, 1.0 / 6.0]), atol=1e-12)


def test_clone_fidelity_is_universal():
    # every input qubit comes out with fidelity 5/6 on both copies
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        psi = PureState(Register.qubits("q"), v)
        out = to_density(clone_subsystem(psi, "q", ("c1", "c2"), "m"))
        r1 = partial_trace(out, ["c1"]).matrix
        r2 = partial_trace(out, ["c2"]).matrix
        assert np.max(np.abs(r1 - r2)) < 1e-12
        assert np.vdot(v, r1 @ v).real == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_machine_measurement_of_single_clone():
    # cloning |0> twice and finding both machines in their 0 state leaves
    # all four copies in |0>; each machine reads Q0 with probability 2/3
    p = clone_subsystem(PureState(Register.qubits("p"), np.array([1.0, 0.0])), "p", ("c1", "c2"), "m")
    q = clone_subsystem(PureState(Register.qubits("q"), np.array([1.0, 0.0])), "q", ("d1", "d2"), "n")
    out = tensor(p, q)
    branches = machine_branches(out, ["m", "n"])
    want = {("Q0", "Q0"): 4.0 / 9.0, ("Q0", "Q1"): 2.0 / 9.0, ("Q1", "Q0"): 2.0 / 9.0, ("Q1", "Q1"): 1.0 / 9.0}
    for branch in branches:
        assert branch.probability == pytest.approx(want[branch.machine_labels], abs=1e-12)
        assert branch.state.register.labels == ("c1", "c2", "d1", "d2")
    assert branches[0].state.amplitude("0000") == pytest.approx(1.0)


def _expected_branch_amplitudes(alpha):
    # unnormalized four-qubit amplitudes (q1 q2 q3 q4) after the machines
    # are projected out, one table per joint outcome
    beta = np.sqrt(1.0 - alpha * alpha)
    return {
        ("Q0", "Q0"): {"0000": 2.0 * alpha / 3.0, "0101": beta / 6.0, "0110": beta / 6.0,
                       "1001": beta / 6.0, "1010": beta / 6.0},
        ("Q0", "Q1"): {"0001": alpha / 3.0, "0010": alpha / 3.0,
                       "0111": beta / 3.0, "1011": beta / 3.0},
        ("Q1", "Q0"): {"0100": alpha / 3.0, "1000": alpha / 3.0,
                       "1101": beta / 3.0, "1110": beta / 3.0},
        ("Q1", "Q1"): {"0101": alpha / 6.0, "0110": alpha / 6.0, "1001": alpha / 6.0,
                       "1010": alpha / 6.0, "1111": 2.0 * beta / 3.0},
    }


def test_branch_states_match_amplitude_tables():
    alpha = np.sqrt(0.37)
    chi = _cloned_pair(alpha)
    assert chi.register.labels == ("1", "2", "A1", "3", "4", "B1")
    expected = _expected_branch_amplitudes(alpha)
    for branch in machine_branches(chi, ["A1", "B1"]):
        table = expected[branch.machine_labels]
        want_p = sum(v * v for v in table.values())
        assert branch.probability == pytest.approx(want_p, abs=1e-12)
        scale = np.sqrt(want_p)
        for bits in (f"{k:04b}" for k in range(16)):
            want = table.get(bits, 0.0) / scale
            assert branch.state.amplitude(bits) == pytest.approx(want, abs=1e-12)


def test_branch_probability_formulas_on_grid():
    for alpha2 in np.linspace(0.02, 0.98, 11):
        chi = _cloned_pair(np.sqrt(alpha2))
        probs = {b.machine_labels: b.probability for b in machine_branches(chi, ["A1", "B1"])}
        assert probs[("Q0", "Q0")] == pytest.approx((3.0 * alpha2 + 1.0) / 9.0, abs=1e-12)
        assert probs[("Q0", "Q1")] == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert probs[("Q1", "Q0")] == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert probs[("Q1", "Q1")] == pytest.approx((4.0 - 3.0 * alpha2) / 9.0, abs=1e-12)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_branch_order_is_fixed():
    chi = _cloned_pair(np.sqrt(0.5))
    got = tuple(b.machine_labels for b in machine_branches(chi, ["A1", "B1"]))
    assert got == OUTCOME_ORDER


def test_machine_branches_needs_two_labels():
    # two distinct machines of the state
    chi = _cloned_pair(np.sqrt(0.5))
    for labels in (["A1"], ["A1", "A1"], ["A1", "A2"], ["A1", "B1", "B1"]):
        with pytest.raises(ContractError):
            machine_branches(chi, labels)


def test_baseline_interval_endpoints():
    # the machine-traced nonlocal pair is inseparable on an interval
    # symmetric about 1/2 with half-width sqrt(39)/16
    lo, hi = buzek_baseline(grid=80, tol=1e-4)
    assert lo == pytest.approx(0.5 - np.sqrt(39.0) / 16.0, abs=2.5e-4)
    assert hi == pytest.approx(0.5 + np.sqrt(39.0) / 16.0, abs=2.5e-4)
    assert lo + hi == pytest.approx(1.0, abs=5e-4)
