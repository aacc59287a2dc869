import numpy as np
import pytest

from qbroadcast import ContractError
from qbroadcast.linalg import (
    dagger,
    det_complex,
    eig_hermitian,
    fidelity,
    hermitian_defect,
    kron,
    sqrt_psd,
)


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def test_dagger_and_defect():
    a = np.array([[1.0, 2.0 + 1j], [0.5, 3.0]], dtype=complex)
    assert np.allclose(dagger(a), a.conj().T)
    assert hermitian_defect(a) > 0.1
    h = (a + dagger(a)) / 2.0
    assert hermitian_defect(h) == 0.0


def test_kron_matches_numpy():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.eye(2)
    assert np.array_equal(kron(a, b), np.kron(a, b))
    assert kron(a, b).dtype == complex


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


def test_det_known_values():
    assert det_complex(np.eye(4)) == pytest.approx(1.0)
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert det_complex(a) == pytest.approx(-2.0)
    assert det_complex(np.zeros((3, 3))) == 0.0
    # partial transpose of |phi+><phi+| has determinant -1/16
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(phi, phi.conj())
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert det_complex(pt).real == pytest.approx(-1.0 / 16.0, abs=1e-14)


def test_det_agrees_with_numpy_on_random():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert det_complex(a) == pytest.approx(complex(np.linalg.det(a)), rel=1e-10)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(23)
    for n in (2, 4, 8):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        psd = g @ g.conj().T
        root = sqrt_psd(psd)
        assert hermitian_defect(root) < 1e-12
        assert np.max(np.abs(root @ root - psd)) < 1e-9 * max(1.0, np.abs(psd).max())


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ContractError):
        sqrt_psd(np.diag([1.0, -0.5]).astype(complex))


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
        dets = det_complex(stack)
        for i, member in enumerate(stack):
            alone = eig_hermitian(member)
            assert np.max(np.abs(together.values[i] - alone.values)) < 1e-12
            assert np.max(np.abs(together.reconstruct()[i] - alone.reconstruct())) < 1e-12
            single = det_complex(member)
            assert isinstance(single, complex)
            assert abs(dets[i] - single) <= 1e-12 * max(1.0, abs(single))


def test_stacked_det_matches_numpy():
    rng = np.random.default_rng(303)
    for n in (1, 2, 3, 4, 8):
        stack = rng.standard_normal((10, n, n)) + 1j * rng.standard_normal((10, n, n))
        stack = np.concatenate([stack, _hermitian_stack(rng, 4, n), np.zeros((1, n, n))])
        got = det_complex(stack)
        want = np.linalg.det(stack)
        assert got.shape == (15,)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert got[-1] == 0.0


def test_stacked_det_of_singular_members():
    # a zero pivot column makes that member's determinant exactly 0 and
    # leaves the other members alone
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    singular = np.array([[0.0, 1.0], [0.0, 5.0]], dtype=complex)
    got = det_complex(np.stack([a, singular, a]))
    assert list(got) == [pytest.approx(-2.0), 0.0, pytest.approx(-2.0)]


def test_det_with_subnormal_pivots_stays_finite():
    # dividing by a subnormal pivot overflowed numpy's complex division and
    # gave nan; the determinants here are exact
    diag = np.diag([1e-320, 1.0, 1.0]).astype(complex)
    lower = np.array([[1e-320, 1.0, 0.0], [1e-320, 3.0, 0.0], [0.0, 0.0, 2.0]], dtype=complex)
    normal = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with np.errstate(over="raise", invalid="raise"):
        got = det_complex(np.stack([diag, lower, normal]))
    assert list(got) == [1e-320, 4 * 1e-320, -2.0]
    assert det_complex(diag) == 1e-320


def test_det_of_a_matrix_alone_has_the_bits_it_has_in_a_stack():
    # numpy multiplies complex arrays of length one in a loop that rounds
    # otherwise; about two thirds of these differed in the last bit
    rng = np.random.default_rng(808)
    stack = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
    together = det_complex(stack)
    for i, m in enumerate(stack):
        assert det_complex(m) == together[i]
        assert det_complex(m[None])[0] == together[i]
        assert det_complex(stack[i:i + 2])[0] == together[i]
    assert det_complex(stack[:0]).shape == (0,)


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
        det_complex(bad)
    with pytest.raises(ContractError):
        eig_hermitian(np.zeros((2, 2, 4, 4)))
    psd = stack @ stack
    psd[4] = -psd[4]
    with pytest.raises(ContractError):
        sqrt_psd(psd)


def test_non_contiguous_inputs_are_accepted():
    # transposed, Fortran-ordered and axis-swapped views hold the same
    # numbers as their contiguous copies and must give the same results
    rng = np.random.default_rng(505)
    h = _hermitian_stack(rng, 1, 4)[0]
    got = eig_hermitian(h.T)
    assert np.array_equal(got.values, eig_hermitian(np.ascontiguousarray(h.T)).values)
    assert det_complex(np.asfortranarray(h)) == det_complex(h)
    stack = _hermitian_stack(rng, 3, 4)
    psd = stack @ stack
    view = np.swapaxes(psd, 1, 2)
    assert np.array_equal(sqrt_psd(view), sqrt_psd(np.ascontiguousarray(view)))


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
