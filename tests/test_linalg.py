import numpy as np
import pytest

from qbroadcast import ContractError, DensityOp, Register, branch_marginal, concurrence, correction_plans, ppt_verdict
from qbroadcast import linalg as linalg_module
from qbroadcast.linalg import (
    dagger,
    eig_hermitian,
    fidelity,
    hermitian_defect,
)

_PAIR = Register.qubits("A", "B")


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _unit_trace(h):
    """h shifted by a multiple of the identity to unit trace (stacks too)."""
    shift = (np.trace(h, axis1=-2, axis2=-1).real - 1.0) / h.shape[-1]
    return h - shift[..., None, None] * np.eye(h.shape[-1])


def _pt(t):
    """Partial transpose over the second qubit of a 4 x 4 matrix or a stack."""
    return t.reshape(t.shape[:-2] + (2, 2, 2, 2)).swapaxes(-1, -3).reshape(t.shape)


def _dets(t):
    """The W4 and W3 determinants ppt_verdict reads for a 4 x 4 Hermitian t
    of unit trace (or a stack of them): det t and its leading 3 x 3 minor.
    The partial transpose is an involution, so ppt_verdict is handed the
    partial transpose of t."""
    v = ppt_verdict(DensityOp(_PAIR, _pt(t)))
    return v.w4, v.w3


def test_dagger_and_defect():
    a = np.array([[1.0, 2.0 + 1j], [0.5, 3.0]], dtype=complex)
    assert np.allclose(dagger(a), a.conj().T)
    assert hermitian_defect(a) > 0.1
    h = (a + dagger(a)) / 2.0
    assert hermitian_defect(h) == 0.0


def test_eig_agrees_with_numpy_across_sizes():
    rng = np.random.default_rng(11)
    for n in range(2, 17):
        h = _random_hermitian(rng, n)
        got = eig_hermitian(h)
        want = np.linalg.eigvalsh(h)
        assert np.allclose(got.values, want, atol=1e-10)
        # ascending order and matching orthonormal vectors
        assert np.all(np.diff(got.values) >= -1e-12)
        assert np.max(np.abs(dagger(got.vectors) @ got.vectors - np.eye(n))) < 1e-10
        assert np.max(np.abs(got.reconstruct() - h)) < 1e-10


def test_eig_diagonal_and_degenerate():
    d = np.diag([3.0, -1.0, -1.0, 2.0]).astype(complex)
    got = eig_hermitian(d)
    assert np.allclose(got.values, [-1.0, -1.0, 2.0, 3.0])
    assert np.max(np.abs(got.reconstruct() - d)) < 1e-12
    # fully degenerate: identity times a scalar
    got = eig_hermitian(4.0 * np.eye(3, dtype=complex))
    assert np.allclose(got.values, [4.0, 4.0, 4.0])


def test_eig_size_one():
    got = eig_hermitian(np.array([[2.5]], dtype=complex))
    assert got.values[0] == 2.5
    assert got.vectors[0, 0] == 1.0


def test_eig_rejects_non_hermitian():
    with pytest.raises(ContractError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ContractError):
        eig_hermitian(np.ones((2, 3)))


def test_eig_rejects_non_finite():
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ContractError):
        eig_hermitian(bad)


# The W3/W4 determinants are read from the eigensystem of the partial
# transpose (entanglement.ppt_verdict); numpy.linalg.det is the reference.


def test_det_known_values():
    assert _dets(np.eye(4, dtype=complex) / 4.0) == (1.0 / 256.0, 1.0 / 64.0)
    assert _dets(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)) == (0.0, 0.0)
    w4, w3 = _dets(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
    assert w4 == pytest.approx(0.0024, abs=1e-17)
    assert w3 == pytest.approx(0.006, abs=1e-17)
    # swap / 2 is the partial transpose of the Bell state |phi+><phi+|
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex) / 2.0
    w4, w3 = _dets(swap)
    assert w4 == pytest.approx(-1.0 / 16.0, abs=1e-14)
    assert w3 == pytest.approx(-1.0 / 8.0, abs=1e-14)


def test_det_agrees_with_numpy_on_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = _unit_trace(_random_hermitian(rng, 4))
        w4, w3 = _dets(t)
        assert isinstance(w4, float) and isinstance(w3, float)
        assert w4 == pytest.approx(np.linalg.det(t).real, rel=1e-12, abs=1e-12)
        assert w3 == pytest.approx(np.linalg.det(t[:3, :3]).real, rel=1e-12, abs=1e-12)


def test_fidelity_examples():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2.0
    assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(zero, mixed) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_symmetric_on_random_states():
    rng = np.random.default_rng(31)
    for _ in range(5):
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g1 @ g1.conj().T
        rho /= np.trace(rho).real
        sig = g2 @ g2.conj().T
        sig /= np.trace(sig).real
        f1 = fidelity(rho, sig)
        f2 = fidelity(sig, rho)
        assert f1 == pytest.approx(f2, abs=1e-10)
        assert 0.0 <= f1 <= 1.0 + 1e-12


def test_fidelity_shape_mismatch():
    with pytest.raises(ContractError):
        fidelity(np.eye(2) / 2.0, np.eye(4) / 4.0)


# ------------------------------------------------------------------ stacks
#
# numpy.linalg is used here only as a reference; the package solves with its
# own Jacobi iteration and elimination.


def _hermitian_stack(rng, g, n):
    a = rng.standard_normal((g, n, n)) + 1j * rng.standard_normal((g, n, n))
    return (a + np.swapaxes(a.conj(), 1, 2)) / 2.0


def _degenerate_stack(rng, n):
    """Random unitary conjugates of spectra with repeated eigenvalues."""
    out = []
    for spectrum in ([1.0] * n, [0.0] * (n // 2) + [2.0] * (n - n // 2), [-1.0, -1.0] + [3.0] * (n - 2)):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        out.append(q @ np.diag(spectrum[:n]) @ q.conj().T)
    return np.stack(out)


def test_stacked_eig_matches_numpy():
    rng = np.random.default_rng(101)
    for n in (1, 2, 3, 4, 8):
        stacks = [_hermitian_stack(rng, 16, n), np.stack([np.diag(rng.standard_normal(n))] * 3)]
        if n >= 2:
            stacks.append(_degenerate_stack(rng, n))
        for stack in stacks:
            got = eig_hermitian(stack)
            assert got.values.shape == stack.shape[:2]
            assert got.vectors.shape == stack.shape
            assert np.max(np.abs(got.values - np.linalg.eigvalsh(stack))) < 1e-12
            assert np.all(np.diff(got.values, axis=1) >= -1e-12)
            eye = np.eye(n)
            assert np.max(np.abs(dagger(got.vectors) @ got.vectors - eye)) < 1e-12
            assert np.max(np.abs(got.reconstruct() - stack)) < 1e-12


def test_stacked_eig_leaves_diagonal_inputs_exact():
    d = np.stack([np.diag([3.0, -1.0, 2.0, 0.5]), np.diag([1.0, 1.0, 1.0, 1.0])]).astype(complex)
    got = eig_hermitian(d)
    assert np.array_equal(got.values, [[-1.0, 0.5, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]])
    assert np.array_equal(np.abs(got.reconstruct() - d), np.zeros_like(d, dtype=float))


def test_stack_equals_members_solved_one_at_a_time():
    rng = np.random.default_rng(202)
    for n in (3, 4, 8):
        stack = np.concatenate([_hermitian_stack(rng, 12, n), _degenerate_stack(rng, n)])
        together = eig_hermitian(stack)
        for i, member in enumerate(stack):
            alone = eig_hermitian(member)
            assert np.max(np.abs(together.values[i] - alone.values)) < 1e-12
            assert np.max(np.abs(together.reconstruct()[i] - alone.reconstruct())) < 1e-12


def _boundary_stack(rng):
    """Unit-trace Hermitian 4 x 4 matrices on or near det = 0: rank-deficient
    states (pure, rank 2 and rank 3) and Werner partial transposes around
    the separability edge p = 1/3, where the smallest eigenvalue crosses 0."""
    out = []
    for rank in (1, 2, 3):
        for _ in range(4):
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            out.append(_unit_trace(g @ g.conj().T / np.sum(np.abs(g) ** 2)))
    swap = np.eye(4)[[0, 2, 1, 3]] / 2.0
    for p in (1.0 / 3.0 - 1e-9, 1.0 / 3.0, 1.0 / 3.0 + 1e-9, 1.0):
        out.append(p * swap + (1.0 - p) * np.eye(4) / 4.0)
    return np.stack(out).astype(complex)


def test_stacked_det_matches_numpy():
    rng = np.random.default_rng(303)
    stack = np.concatenate([_unit_trace(_hermitian_stack(rng, 16, 4)), _boundary_stack(rng)])
    w4, w3 = _dets(stack)
    assert w4.shape == w3.shape == (len(stack),)
    for got, want in ((w4, np.linalg.det(stack).real), (w3, np.linalg.det(stack[:, :3, :3]).real)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    # the boundary members, determinants 1e-9 or below, to absolute accuracy
    assert np.max(np.abs(w4[16:] - np.linalg.det(stack[16:]).real)) <= 1e-15
    assert np.max(np.abs(w3[16:] - np.linalg.det(stack[16:, :3, :3]).real)) <= 1e-15


def test_stacked_det_of_singular_members():
    # two exact zero eigenvalues make that member's W4 and W3 exactly 0
    # (every product of three eigenvalues holds a zero) and leave the other
    # members alone
    t = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    singular = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    w4, w3 = _dets(np.stack([t, singular, t]))
    assert list(w4) == [pytest.approx(0.0024, abs=1e-17), 0.0, pytest.approx(0.0024, abs=1e-17)]
    assert list(w3) == [pytest.approx(0.006, abs=1e-17), 0.0, pytest.approx(0.006, abs=1e-17)]


def test_det_of_subnormal_members_stays_finite():
    # subnormal diagonal weights and couplings, alone and beside a normal
    # member; the determinants are products of these and may underflow
    diag = np.diag([1e-320, 0.5, 0.25, 0.25]).astype(complex)
    coupled = diag.copy()
    coupled[0, 1] = coupled[1, 0] = 1e-320
    coupled[2, 3], coupled[3, 2] = 1e-320j, -1e-320j
    normal = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    stack = np.stack([diag, coupled, normal])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        w4, w3 = _dets(stack)
        alone = _dets(diag)
    assert np.all(np.isfinite(w4)) and np.all(np.isfinite(w3))
    assert np.max(np.abs(w4[:2] - np.linalg.det(stack[:2]).real)) <= 1e-300
    assert np.max(np.abs(w3[:2] - np.linalg.det(stack[:2, :3, :3]).real)) <= 1e-300
    assert alone == (w4[0], w3[0])
    assert (w4[2], w3[2]) == (pytest.approx(0.0024, abs=1e-17), pytest.approx(0.006, abs=1e-17))


# Entries off the diagonal and the anti-diagonal of a 4 x 4 matrix.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def _x_stack(rng, g):
    """Unit-trace Hermitian 4 x 4 matrices that are 0.0 off the X pattern,
    as every pair marginal of the pipeline is; ppt_verdict takes its closed
    form for these members (their partial transposes are X-shaped too)."""
    return _unit_trace(_hermitian_stack(rng, g, 4) * ~_OFF_X)


def test_det_of_a_matrix_alone_has_the_bits_it_has_in_a_stack():
    # X members (closed form) alternate with general members (eigen-solve),
    # so the stack and each pair of neighbours mix the two routes
    rng = np.random.default_rng(808)
    general = np.concatenate([_unit_trace(_hermitian_stack(rng, 48, 4)), _boundary_stack(rng)])
    stack = np.stack([general, _x_stack(rng, len(general))], axis=1).reshape(-1, 4, 4)
    assert np.any(stack[:48, _OFF_X], axis=1).tolist() == [True, False] * 24
    w4, w3 = _dets(stack)
    for i, m in enumerate(stack):
        assert _dets(m) == (w4[i], w3[i])
        assert _dets(m[None]) == ([w4[i]], [w3[i]])
        assert _dets(stack[i:i + 2])[0][0] == w4[i]
    empty = _dets(stack[:0])
    assert empty[0].shape == empty[1].shape == (0,)


def _factor(rng, n, rank):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g / np.linalg.norm(g)


def _reference_fidelity(a, b):
    # F(a a^dagger, b b^dagger) is the squared trace norm of a^dagger b,
    # which has the singular values of sqrt(rho) sqrt(sigma): LAPACK finds
    # them to absolute accuracy from the exact-rank factors, so no roundoff
    # eigenvalue of a rank-deficient state enters
    return float(np.sum(np.linalg.svd(a.conj().T @ b, compute_uv=False)) ** 2)


def test_fidelity_keeps_small_eigenvalues_of_near_equal_states():
    # eigenvalues 1e-7 .. 1e-9 of rho square to 1e-14 .. 1e-18 in
    # sqrt(rho) sigma sqrt(rho); F(rho, sigma) for sigma equal to rho up to
    # roundoff once lost their square roots and read 1 - 2e-7
    rng = np.random.default_rng(909)
    for small in (1e-7, 3e-8, 1e-9):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        p = np.array([0.0, 0.0, small, 1e-4, 2e-4, 2e-4, 0.3, 0.0])
        p[-1] = 1.0 - p.sum()
        rho = (q * p) @ q.conj().T
        sigma = rho + 1e-17 * _random_hermitian(rng, 8)
        assert abs(fidelity(rho, sigma) - 1.0) <= 1e-12
        assert abs(fidelity(rho, np.stack([rho, sigma]))[0] - 1.0) <= 1e-12


def test_fidelity_matches_the_singular_value_route():
    # rho of every rank against a full-rank, a pure and a rank-2 sigma, and
    # one that shares part of rho's support: zero singular values must stay
    # zero, where their square roots once added ~1e-8 to F
    rng = np.random.default_rng(1010)
    for _ in range(40):
        n = int(rng.choice([2, 4, 8]))
        a = _factor(rng, n, int(rng.integers(1, n + 1)))
        shared = np.concatenate([a[:, :1], _factor(rng, n, 1)], axis=1)
        for b in (_factor(rng, n, n), _factor(rng, n, 1), _factor(rng, n, 2), shared / np.linalg.norm(shared)):
            want = _reference_fidelity(a, b)
            assert abs(fidelity(a @ a.conj().T, b @ b.conj().T) - want) <= 1e-12
            assert abs(fidelity(a @ a.conj().T, np.stack([b @ b.conj().T] * 2))[1] - want) <= 1e-12


def test_fidelity_rejects_inputs_that_are_not_psd():
    rho = np.diag([0.7, 0.3]).astype(complex)
    with pytest.raises(ContractError, match="rho is not PSD"):
        fidelity(-rho, rho)
    with pytest.raises(ContractError, match="sigma is not PSD"):
        fidelity(rho, np.stack([rho, -rho]))


def test_stack_checks_every_member():
    rng = np.random.default_rng(404)
    stack = _hermitian_stack(rng, 5, 4)
    bad = stack.copy()
    bad[3, 0, 1] += 1e-6
    with pytest.raises(ContractError):
        eig_hermitian(bad)
    bad = stack.copy()
    bad[2, 1, 1] = np.inf
    with pytest.raises(ContractError):
        eig_hermitian(bad)
    with pytest.raises(ContractError):
        eig_hermitian(np.zeros((2, 2, 4, 4)))
    psd = stack @ stack
    states = psd / np.trace(psd, axis1=1, axis2=2).real[:, None, None]
    states[4] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ContractError, match="concurrence: rho is not PSD"):
        concurrence(DensityOp(Register.qubits("A", "B"), states))


def test_non_contiguous_inputs_are_accepted():
    # transposed, Fortran-ordered and axis-swapped views hold the same
    # numbers as their contiguous copies and must give the same results
    rng = np.random.default_rng(505)
    h = _hermitian_stack(rng, 1, 4)[0]
    got = eig_hermitian(h.T)
    assert np.array_equal(got.values, eig_hermitian(np.ascontiguousarray(h.T)).values)
    fortran = ppt_verdict(DensityOp(_PAIR, np.asfortranarray(_pt(_unit_trace(h)))))
    assert (fortran.w4, fortran.w3) == _dets(_unit_trace(h))
    stack = _hermitian_stack(rng, 3, 4)
    psd = stack @ stack
    view = np.swapaxes(psd, 1, 2)
    contiguous = np.ascontiguousarray(view)
    assert np.array_equal(fidelity(view[0], view), fidelity(contiguous[0], contiguous))


def test_fidelity_against_an_empty_stack_is_empty():
    # no member means no smallest eigenvalue to check against -PSD_FAIL
    assert fidelity(np.eye(4, dtype=complex) / 4.0, np.zeros((0, 4, 4))).shape == (0,)


def _rank_two_state(rng, n):
    g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_fidelity_of_a_state_with_itself_stays_at_one():
    # a rank-2 state has n - 2 roundoff eigenvalues; their square roots
    # must not push F(r, r) above 1
    rng = np.random.default_rng(606)
    for _ in range(50):
        r = _rank_two_state(rng, 8)
        assert abs(fidelity(r, r) - 1.0) <= 1e-12


def test_stacked_fidelity_equals_the_per_rho_calls():
    # G targets with K states each: one eigen-solve and one singular-value
    # solve give every pair the bits of its own single-rho call
    rng = np.random.default_rng(808)
    for n, g, k in ((8, 3, 8), (4, 2, 5), (2, 1, 1)):
        rhos = np.stack([_rank_two_state(rng, n) for _ in range(g)])
        sigmas = np.stack([[_rank_two_state(rng, n) for _ in range(k - 1)] + [rho] for rho in rhos])
        together = fidelity(rhos, sigmas)
        assert together.shape == (g, k)
        for rho, row, want in zip(rhos, sigmas, together):
            assert np.array_equal(fidelity(rho, row), want)
            assert [fidelity(rho, sigma) for sigma in row] == want.tolist()
    assert fidelity(np.zeros((0, 4, 4)), np.zeros((0, 3, 4, 4))).shape == (0, 3)


# The diagonal blocks of rho325, and of the swap targets report scores.
_RHO325_BLOCKS = ((0, 5, 6), (1, 2, 7), (3,), (4,))


def _block_state(rng, blocks, n=8):
    """A random full-rank state that is 0.0 outside the diagonal blocks."""
    rho = np.zeros((n, n), dtype=complex)
    for block in blocks:
        g = rng.standard_normal((len(block),) * 2) + 1j * rng.standard_normal((len(block),) * 2)
        rho[np.ix_(block, block)] = g @ g.conj().T
    return rho / np.trace(rho).real


def _mixed_stack(rng, g):
    """g 8 x 8 states cycling through rho325-like, diagonal, rank-two and
    dense members, so that each sweep screens the members to different
    planes."""
    makers = (
        lambda: _block_state(rng, _RHO325_BLOCKS),
        lambda: _block_state(rng, [(k,) for k in range(8)]),
        lambda: _rank_two_state(rng, 8),
        lambda: _block_state(rng, [tuple(range(8))]),
    )
    return np.stack([makers[i % len(makers)]() for i in range(g)])


def test_screened_solves_give_each_member_the_bits_it_gets_alone():
    # a member is rotated only on the planes its own screen selected, so
    # its bits do not depend on which planes its neighbours still need
    rng = np.random.default_rng(1212)
    stack = _mixed_stack(rng, 16)
    together = eig_hermitian(stack)
    assert np.max(np.abs(together.values - np.linalg.eigvalsh(stack))) <= 1e-12
    for i, member in enumerate(stack):
        alone = eig_hermitian(member)
        assert np.array_equal(together.values[i], alone.values)
        assert np.array_equal(together.vectors[i], alone.vectors)
    rhos = stack[:4]
    sigmas = np.stack([np.concatenate([np.roll(stack, -k - 1, axis=0)[:5], rhos[k:k + 1]]) for k in range(4)])
    together = fidelity(rhos, sigmas)
    for rho, row, want in zip(rhos, sigmas, together):
        assert np.array_equal(fidelity(rho, row), want)
        assert [fidelity(rho, sigma) for sigma in row] == want.tolist()
        assert abs(want[-1] - 1.0) <= 1e-12


def test_report_swap_scores_visit_few_planes(monkeypatch):
    # report scores its three swap points' published B1+ plans, the only
    # plans that miss the target, in one fidelity call: a 6-member
    # eigen-solve and a 3-member singular-value solve of block-sparse
    # operators, which cyclic sweeps visited in 84 planes each
    visits = dict.fromkeys(("_rotate", "_rotate_columns"), 0)
    for name in visits:

        def counted(*args, _helper=getattr(linalg_module, name), _name=name):
            visits[_name] += 1
            return _helper(*args)

        monkeypatch.setattr(linalg_module, name, counted)
    rho325 = branch_marginal(np.array([0.3, 0.5, 0.8]), ("Q0", "Q0"), "325", 0.0)
    assert len(correction_plans(rho325, ("derived", "published"))) == 3
    assert 0 < visits["_rotate"] <= 20 and 0 < visits["_rotate_columns"] <= 20


def test_stacked_fidelity_checks_shapes_and_both_psd_messages():
    rho = np.diag([0.7, 0.3]).astype(complex)
    rhos = np.stack([rho, rho[::-1, ::-1]])
    for sigma in (np.stack([rhos] * 3), np.stack([rhos]), rhos, rho, np.stack([[rho] * 2] * 2)[..., :1]):
        # the sigma stack's G must equal rho's, and rho (G, n, n) takes (G, K, n, n) only
        with pytest.raises(ContractError, match="fidelity: expected"):
            fidelity(rhos, sigma)
    with pytest.raises(ContractError, match="fidelity: rho is not PSD"):
        fidelity(np.stack([rho, -rho]), np.stack([[rho], [rho]]))
    with pytest.raises(ContractError, match="fidelity: sigma is not PSD"):
        fidelity(rhos, np.stack([[rho, rho], [rho, -rho]]))
    # rho is checked first when both fail
    with pytest.raises(ContractError, match="fidelity: rho is not PSD"):
        fidelity(np.stack([rho, -rho]), np.stack([[-rho], [rho]]))


def test_fidelity_against_a_stack_equals_its_members():
    rng = np.random.default_rng(707)
    rho = _rank_two_state(rng, 8)
    sigmas = np.stack([_rank_two_state(rng, 8) for _ in range(5)] + [rho])
    together = fidelity(rho, sigmas)
    assert together.shape == (6,)
    for f, sigma in zip(together, sigmas):
        alone = fidelity(rho, sigma)
        assert isinstance(alone, float)
        assert abs(f - alone) <= 1e-12
    with pytest.raises(ContractError):
        fidelity(sigmas, rho)
    with pytest.raises(ContractError):
        fidelity(rho, np.stack([np.eye(4) / 4.0]))
