"""The closed-form X-state verdict and concurrence (entanglement._x_verdict,
which protocol.pair_verdicts evaluates on its table of pair coefficients),
held to the Jacobi routes of ppt_verdict and concurrence.

An X-state is 0.0 everywhere off the diagonal and the anti-diagonal. Every
pair marginal the pipeline forms is one, as reference.x_coefficients
certifies for the pair tables; any other operator goes through the
eigen-solve. The closed forms are fed the entries of the same matrices the
Jacobi routes solve.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import qbroadcast.entanglement as entanglement_module  # noqa: E402
import qbroadcast.protocol as protocol_module  # noqa: E402
from qbroadcast import (  # noqa: E402
    ContractError,
    DensityOp,
    Register,
    branch_marginal,
    concurrence,
    pair_verdicts,
    ppt_verdict,
)
from qbroadcast.cloner import OUTCOME_ORDER  # noqa: E402
from qbroadcast.protocol import PAIR_KEYS  # noqa: E402
import reference  # noqa: E402

CHECKS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

_PAIR = Register.qubits("A", "B")
_S = 1.0 / np.sqrt(2.0)


def _closed(m):
    """The closed forms on the diagonal and the squared moduli of the
    entries (1,2) and (0,3) of a stack of X matrices."""
    a, b, c, d = m.diagonal(axis1=1, axis2=2).real.T
    z, w = m[:, 1, 2], m[:, 0, 3]
    return entanglement_module._x_verdict(a, b, c, d, z.real ** 2 + z.imag ** 2, w.real ** 2 + w.imag ** 2)


def _assert_routes_agree(m):
    verdict, conc = _closed(m)
    want = ppt_verdict(DensityOp(_PAIR, m))
    assert np.max(np.abs(verdict.min_pt_eigenvalue - want.min_pt_eigenvalue)) <= 1e-15
    assert np.max(np.abs(verdict.w3 - want.w3)) <= 1e-15
    assert np.max(np.abs(verdict.w4 - want.w4)) <= 1e-15
    assert np.array_equal(verdict.entangled, want.entangled)
    assert np.max(np.abs(conc - concurrence(DensityOp(_PAIR, m)))) <= 1e-14


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
    # the table route against the Jacobi routes on the complex marginals,
    # which carry the phase the table leaves out
    xs = np.linspace(0.0005, 0.9995, 400)
    verdict, conc = pair_verdicts(xs, branch, PAIR_KEYS)
    for k, key in enumerate(PAIR_KEYS):
        rho = branch_marginal(xs, branch, key, phase)
        want = ppt_verdict(rho)
        for field in ("min_pt_eigenvalue", "w3", "w4"):
            assert np.max(np.abs(getattr(verdict, field)[k] - getattr(want, field))) <= 1e-15, (key, field)
        assert np.array_equal(verdict.entangled[k], want.entangled), key
        assert np.max(np.abs(conc[k] - concurrence(rho))) <= 1e-14, key


def test_table_certification_rejects_a_tiny_entry_off_the_pattern():
    # a 1e-300 entry changes no number the table holds, but the six reals
    # would no longer fix the marginal, so certification refuses the blocks
    _, *blocks = protocol_module._gram_blocks(("Q0", "Q0"), ("1", "4"))
    lin, g2 = reference.x_coefficients(*blocks)
    assert lin.shape == (2, 5) and g2 > 0.0
    for block, (i, j) in [(0, (0, 1)), (0, (0, 3)), (1, (1, 2)), (1, (0, 0)), (2, (2, 3)), (2, (3, 0))]:
        off = [g.copy() for g in blocks]
        off[block][i, j] = 1e-300
        if block != 1:
            off[block][j, i] = 1e-300
        with pytest.raises(ContractError, match="X pattern"):
            reference.x_coefficients(*off)
    for block in (0, 2):
        off = [g.copy() for g in blocks]
        off[block][1, 2] += 1e-300j
        off[block][2, 1] -= 1e-300j
        with pytest.raises(ContractError, match="real"):
            reference.x_coefficients(*off)


def _not_psd():
    # The {|00>, |11>} block [[0.4, 0.45], [0.45, 0.4]] has eigenvalue -0.05.
    return _x_state(np.array([[0.4, 0.45], [0.45, 0.4]]), np.diag([0.1, 0.1]))


def test_concurrence_rejects_a_state_that_is_not_psd_on_both_routes():
    messages = []
    for route in (_closed, lambda m: concurrence(DensityOp(_PAIR, m))):
        with pytest.raises(ContractError) as err:
            route(_not_psd()[None])
        messages.append(str(err.value))
        with pytest.raises(ContractError, match="not PSD"):
            route(np.stack([_x_state(np.eye(2), np.eye(2)), _not_psd()]))
    assert messages[0] == messages[1] == "concurrence: rho is not PSD (min eigenvalue -5.000e-02)"


def test_concurrence_accepts_roundoff_below_zero_on_both_routes():
    # A Bell state whose coherence is 1e-12 too large (eigenvalue -1e-12),
    # and a diagonal entry at -1e-13, are PSD up to roundoff.
    bell = _x_state(np.array([[0.5, 0.5 + 1e-12], [0.5 + 1e-12, 0.5]]), np.zeros((2, 2)))
    tilted = _x_state(np.array([[0.5, 0.3], [0.3, 0.5]]), np.diag([-1e-13, 1e-13]))
    for m, want in ((bell, 1.0), (tilted, 0.6)):
        assert _closed(m[None])[1][0] == pytest.approx(want, abs=1e-12)
        assert concurrence(DensityOp(_PAIR, m)) == pytest.approx(want, abs=1e-12)
