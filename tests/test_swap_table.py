"""The CLI's swap stage, plans._swap_plans: recovery targets taken from
the rho325 table in their own index order, and every inexact plan scored by
the closed-form block fidelity, held to the library route
(swap.correction_plans on protocol._rho325, scored by linalg.fidelity), to
the numpy search it replaced (reference.numpy_swap_plans) and to a 40-digit
reference.
"""
import numpy as np
import pytest

import qbroadcast.plans as plans_module
import qbroadcast.swap as swap_module
import qbroadcast.tables as tables_module
from qbroadcast import ContractError, correction_plans, recovery_target
from qbroadcast.plans import SIGMA, _block_fidelity, _swap_plans, _table_targets
from qbroadcast.protocol import _rho325
from qbroadcast.swap import _pauli_words
from reference import numpy_block_fidelity, numpy_conjugates, numpy_swap_plans, numpy_table_targets

SOURCES = ("derived", "published")

# The corpus's swap points, and the two ends of the float range in (0, 1).
EDGES = [1e-300, 0.3, 0.5, 0.8, 0.999, 0.99999999, 5e-324, 1.0 - 2.0**-53]


def _targets(xs):
    return np.array(_table_targets(xs)).reshape(-1, 8, 8)


def test_table_targets_are_the_library_targets_bitwise():
    xs = np.concatenate([np.linspace(0.0, 1.0, 2001), EDGES])
    assert np.array_equal(_targets(xs), recovery_target(_rho325(xs)).matrix)
    assert np.array_equal(_targets(xs), numpy_table_targets(xs))


def _flat(plans):
    """(word, fidelity) of every plan of every source, per point."""
    return [[(p.word, p.achieved_fidelity) for s in SOURCES for p in point[s].values()] for point in plans]


def _table(xs):
    return [[plan for s in SOURCES for plan in point[s].values()] for point in _swap_plans(xs, SOURCES)]


def test_table_route_equals_the_numpy_search_bitwise():
    # the same words, and the same bits of every fidelity, as the numpy
    # search over signed-permutation arrays with the numpy closed form
    xs = np.concatenate([np.linspace(0.0, 1.0, 2001), EDGES])
    want = [[plan for s in SOURCES for plan in point[s].values()]
            for point in numpy_swap_plans(numpy_table_targets(xs), SOURCES)]
    assert _table(xs) == want
    # the residuals of every word, the search's one comparison, are the
    # numpy residuals bit for bit
    targets = numpy_table_targets(xs[::50])
    residuals = np.max(np.abs(numpy_conjugates(targets, slice(None)) - targets[:, None]), axis=(-2, -1))
    assert np.array_equal(np.array([plans_module._residuals(t.ravel().tolist()) for t in targets]), residuals)


def _library(xs):
    return _flat(correction_plans(_rho325(xs), SOURCES))


def test_table_route_equals_the_library_route(monkeypatch):
    # the same words at every point, and the closed form agrees with the
    # Jacobi fidelity to roundoff
    xs = np.concatenate([np.linspace(0.0, 1.0, 2001), EDGES])
    got, want = _table(xs), _library(xs)
    assert len(got) == len(want) == len(xs)
    for x, g, w in zip(xs, got, want):
        assert [word for word, _ in g] == [word for word, _ in w], x
        assert max(abs(a - b) for (_, a), (_, b) in zip(g, w)) <= 1e-14, x
    # the same plans scored (the rest are exact, 1.0): with both scorers
    # marking what they score, the marks fall on the same plans
    monkeypatch.setattr(plans_module, "_block_fidelity", lambda t, s: -1.0)
    monkeypatch.setattr(swap_module, "fidelity", lambda t, s: np.full(s.shape[:2], -1.0))
    got, want = _table(xs), _library(xs)
    assert got == want
    # the published B1+ plan is scored everywhere but near the ends
    assert 1900 < sum(f == -1.0 for plans in got for _, f in plans) <= len(xs)


def _reference_fidelity(target: np.ndarray, word: str, outcome: str):
    """F(T, V T V^dagger) for V = word * SIGMA[outcome], at 40 digits from
    the float T: the full 8 x 8 Uhlmann fidelity by mpmath's eigensolver."""
    mpmath = pytest.importorskip("mpmath")
    names, unitaries = _pauli_words()
    v = unitaries[names.index(word)] @ unitaries[names.index(SIGMA[outcome])]
    with mpmath.workdps(40):
        t = mpmath.matrix(target.real.tolist())
        u = mpmath.matrix(v.tolist())
        s = u * t * u.H
        # at phase 0, T and the Pauli conjugate are real symmetric
        s = mpmath.matrix([[mpmath.re(s[i, j]) for j in range(8)] for i in range(8)])
        values, vectors = mpmath.eigsy(t)
        root = vectors * mpmath.diag([mpmath.sqrt(max(e, 0)) for e in values]) * vectors.T
        m = root * s * root
        inner = mpmath.eigsy((m + m.T) / 2, eigvals_only=True)
        return mpmath.fsum(mpmath.sqrt(max(e, 0)) for e in inner) ** 2


def test_closed_form_is_within_1e_15_of_a_40_digit_reference():
    pytest.importorskip("mpmath")
    xs = [k / 102 for k in range(1, 102)] + EDGES
    worst = 0.0
    for target, plans in zip(_targets(xs), _swap_plans(xs, ("published",))):
        word, f = plans["published"]["B1+"]
        if f == 1.0:
            continue  # residual at most 1e-12: no score is computed
        worst = max(worst, float(abs(f - _reference_fidelity(target, word, "B1+"))))
    assert worst <= 1e-15


def test_unequal_paired_rows_in_the_table_are_a_contract_error(monkeypatch):
    # rows 5 and 6 of G11 differ, though G11 stays symmetric with its
    # trace: the target's {0, 5, 6} block has rank 3, which the closed form
    # cannot score
    doctored = tables_module._RHO325_INTEGERS.replace("11 5 6  12    11 6 5  12", "11 5 6  11    11 6 5  11")
    assert doctored != tables_module._RHO325_INTEGERS
    for cached in (tables_module._rho325_entries, plans_module._target_blocks):
        cached.cache_clear()
    monkeypatch.setattr(tables_module, "_RHO325_INTEGERS", doctored)
    try:
        with pytest.raises(ContractError, match="equal paired rows"):
            _swap_plans([0.3], SOURCES)
    finally:
        for cached in (tables_module._rho325_entries, plans_module._target_blocks):
            cached.cache_clear()


def test_block_fidelity_refuses_states_off_the_blocks():
    # a bit flip on qubit 3 moves the {0, 5, 6} block onto {4, 1, 2}
    (target,) = _table_targets([0.3])
    moved = plans_module._conjugate(target, plans_module.WORDS.index("xii"))
    with pytest.raises(ContractError, match="blocks"):
        _block_fidelity(target, moved)
    assert _block_fidelity(target, target) == pytest.approx(1.0, abs=1e-15)
    # the scalar closed form has the bits of the numpy one on arrays
    t = np.array(target).reshape(1, 8, 8)
    s = np.array(plans_module._conjugate(target, plans_module.WORDS.index("izz"))).reshape(1, 8, 8)
    assert _block_fidelity(target, s.ravel().tolist()) == numpy_block_fidelity(t, s.astype(complex))[0]
