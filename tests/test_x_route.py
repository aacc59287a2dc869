"""The closed-form X-state route of ppt_verdict and concurrence, held to the
Jacobi route it replaces for those members.

An X-state is 0.0 everywhere off the diagonal and the anti-diagonal. Every
pair marginal the pipeline forms is one, so scans and sweeps take the closed
forms; any other operator still goes through the eigen-solve. The Jacobi
route is called here directly on the same matrices as the reference.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import qbroadcast.entanglement as entanglement_module  # noqa: E402
import qbroadcast.linalg as linalg_module  # noqa: E402
from qbroadcast import ContractError, DensityOp, Register, concurrence, partial_transpose, ppt_verdict  # noqa: E402
from qbroadcast.cloner import OUTCOME_ORDER  # noqa: E402
from qbroadcast.linalg import eig_hermitian  # noqa: E402
from qbroadcast.protocol import PAIR_KEYS, pair_marginals  # noqa: E402

CHECKS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

_PAIR = Register.qubits("A", "B")
_S = 1.0 / np.sqrt(2.0)


def _jacobi(m):
    """PT-min, W3, W4 and the clipped concurrence of a stack by the Jacobi
    route, whatever its pattern."""
    l0, w3, w4 = entanglement_module._pt_witnesses(partial_transpose(DensityOp(_PAIR, m), "B"))
    return l0, w3, w4, np.clip(entanglement_module._wootters(m)[0], 0.0, 1.0)


def _assert_routes_agree(m):
    assert not np.any(m[:, entanglement_module._OFF_X])
    verdict = ppt_verdict(DensityOp(_PAIR, m))
    l0, w3, w4, c = _jacobi(m)
    assert np.max(np.abs(verdict.min_pt_eigenvalue - l0)) <= 1e-15
    assert np.max(np.abs(verdict.w3 - w3)) <= 1e-15
    assert np.max(np.abs(verdict.w4 - w4)) <= 1e-15
    assert np.max(np.abs(concurrence(DensityOp(_PAIR, m)) - c)) <= 1e-14


def _x_state(block03, block12):
    """The X-state with block03 on the {|00>, |11>} rows and columns and
    block12 on {|01>, |10>}, scaled to unit trace."""
    m = np.zeros((4, 4), dtype=complex)
    m[np.ix_([0, 3], [0, 3])] = block03
    m[np.ix_([1, 2], [1, 2])] = block12
    return m / np.trace(m).real


_COMPLEX = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@st.composite
def _psd_block(draw, rank):
    """g g^dagger for a 2 x rank complex g; its coherence zeroed on some draws."""
    if rank == 0:
        return np.zeros((2, 2), dtype=complex)
    g = np.array(draw(st.lists(_COMPLEX, min_size=2 * rank, max_size=2 * rank))).reshape(2, rank)
    block = g @ g.conj().T
    if draw(st.booleans()) and draw(st.booleans()):
        block = np.diag(block.diagonal())
    return block


@st.composite
def _x_states(draw):
    """Random X-states of rank 1 to 4: a PSD block of rank 0, 1 or 2 on each
    of the two X subspaces."""
    r03, r12 = draw(st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)]))
    b03, b12 = draw(_psd_block(r03)), draw(_psd_block(r12))
    assume(np.trace(b03).real + np.trace(b12).real > 1e-3)
    return _x_state(b03, b12)


@CHECKS
@given(_x_states())
def test_closed_forms_match_jacobi_on_random_x_states(m):
    _assert_routes_agree(m[None])


@pytest.mark.parametrize("p", [1.0 / 3.0 - 1e-9, 1.0 / 3.0, 1.0 / 3.0 + 1e-9])
def test_closed_forms_match_jacobi_on_werner_states_at_the_edge(p):
    phi = np.array([_S, 0.0, 0.0, _S])
    m = (p * np.outer(phi, phi) + (1.0 - p) * np.eye(4) / 4.0).astype(complex)
    _assert_routes_agree(m[None])
    assert ppt_verdict(DensityOp(_PAIR, m)).entangled == (p > 1.0 / 3.0)


@pytest.mark.parametrize("phase", [0.0, 4.71])
@pytest.mark.parametrize("branch", OUTCOME_ORDER)
def test_closed_forms_match_jacobi_on_pipeline_stacks(branch, phase):
    stack, _ = pair_marginals(np.linspace(0.0005, 0.9995, 400), branch, PAIR_KEYS, phase)
    _assert_routes_agree(stack.matrix)


def _counted(monkeypatch):
    """Shapes of the eig_hermitian calls either route makes from here on."""
    solves = []

    def eig(a):
        solves.append(a.shape)
        return eig_hermitian(a)

    monkeypatch.setattr(entanglement_module, "eig_hermitian", eig)
    monkeypatch.setattr(linalg_module, "eig_hermitian", eig)
    return solves


def _off_pattern(m):
    """m with a 1e-300 coupling off the X pattern, which sends it to the
    general route without changing any number it has."""
    m = m.copy()
    m[0, 1] = m[1, 0] = 1e-300
    return m


def test_one_tiny_entry_off_the_pattern_takes_the_general_route(monkeypatch):
    phi = np.array([_S, 0.0, 0.0, _S])
    x = (0.6 * np.outer(phi, phi) + 0.4 * np.eye(4) / 4.0).astype(complex)
    off = _off_pattern(x)
    solves = _counted(monkeypatch)
    want = ppt_verdict(DensityOp(_PAIR, x)), concurrence(DensityOp(_PAIR, x))
    assert solves == []
    got = ppt_verdict(DensityOp(_PAIR, off)), concurrence(DensityOp(_PAIR, off))
    assert solves == [(1, 4, 4), (1, 4, 4)]
    assert got[0].min_pt_eigenvalue == pytest.approx(want[0].min_pt_eigenvalue, abs=1e-15)
    assert got[0].w3 == pytest.approx(want[0].w3, abs=1e-15)
    assert got[0].w4 == pytest.approx(want[0].w4, abs=1e-15)
    assert got[1] == pytest.approx(want[1], abs=1e-14)
    concurrence(DensityOp(_PAIR, np.stack([x, off, x])))
    assert solves[2:] == [(1, 4, 4)]


def _not_psd():
    # The {|00>, |11>} block [[0.4, 0.45], [0.45, 0.4]] has eigenvalue -0.05.
    return _x_state(np.array([[0.4, 0.45], [0.45, 0.4]]), np.diag([0.1, 0.1]))


def test_concurrence_rejects_a_state_that_is_not_psd_on_both_routes():
    messages = []
    for m in (_not_psd(), _off_pattern(_not_psd())):
        with pytest.raises(ContractError) as err:
            concurrence(DensityOp(_PAIR, m))
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "concurrence: rho is not PSD (min eigenvalue -5.000e-02)"
    good = _x_state(np.eye(2), np.eye(2))
    for stack in ([good, _not_psd()], [_off_pattern(good), _not_psd()], [good, _off_pattern(_not_psd())]):
        with pytest.raises(ContractError, match="not PSD"):
            concurrence(DensityOp(_PAIR, np.stack(stack)))


def test_concurrence_accepts_roundoff_below_zero_on_both_routes():
    # A Bell state whose coherence is 1e-12 too large (eigenvalue -1e-12),
    # and a diagonal entry at -1e-13, are PSD up to roundoff.
    bell = _x_state(np.array([[0.5, 0.5 + 1e-12], [0.5 + 1e-12, 0.5]]), np.zeros((2, 2)))
    tilted = _x_state(np.array([[0.5, 0.3], [0.3, 0.5]]), np.diag([-1e-13, 1e-13]))
    for m, want in ((bell, 1.0), (tilted, 0.6)):
        for route in (m, _off_pattern(m)):
            assert concurrence(DensityOp(_PAIR, route)) == pytest.approx(want, abs=1e-12)
