import dataclasses
import itertools

import numpy as np
import pytest

from qbroadcast import (
    ContractError,
    DensityOp,
    Register,
    branch_marginal,
    bsm,
    correction_plans,
    partial_trace,
    permute_subsystems,
    published_corrections,
    recovery_target,
    six_qubit_branch,
    swap_extend,
)
from qbroadcast.linalg import fidelity
from qbroadcast.swap import BELL_ORDER
from published_forms import published_b1p_post as _published_b1p_post
from stacks import pointwise, scan_family

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _rho325(alpha2, phi=0.0):
    return partial_trace(six_qubit_branch(alpha2, ("Q0", "Q0"), phi), ["3", "2", "5"])


def _random_325(seed, rank=8):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    mat = g @ g.conj().T
    return DensityOp(Register.qubits("3", "2", "5"), mat / np.trace(mat).real)


def _fidelity_route(rho325, outcomes):
    """Reference search: every outcome scored against every one of the 64
    Pauli words by Uhlmann fidelity; the first word reaching the best
    fidelity (within 1e-12) wins, and every outcome must reach 1."""
    paulis = (("i", _I2), ("x", _SX), ("y", _SY), ("z", _SZ))
    words = list(itertools.product(paulis, repeat=3))
    names = [a + b + c for (a, _), (b, _), (c, _) in words]
    unitaries = [np.kron(p, np.kron(q, r)) for (_, p), (_, q), (_, r) in words]
    target = recovery_target(rho325).matrix
    chosen = {}
    for outcome in outcomes:
        post = outcome.post_state.matrix
        fids = fidelity(target, np.stack([u @ post @ u.conj().T for u in unitaries]))
        best, best_f = 0, -1.0
        for i, f in enumerate(fids.tolist()):
            if f > best_f + 1e-12:
                best, best_f = i, f
        if best_f < 1.0 - 1e-9:
            raise ContractError(f"outcome {outcome.label} only reaches fidelity {best_f}")
        chosen[outcome.label] = (names[best], best_f)
    return chosen


# ----------------------------------------------------------------- extend


def test_swap_extend_structure():
    rho = _rho325(0.37)
    joint = swap_extend(rho)
    assert joint.register.labels == ("3", "2", "5", "8", "7")
    assert np.trace(joint.matrix).real == pytest.approx(1.0, abs=1e-12)
    back = partial_trace(joint, ["3", "2", "5"])
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12
    singlet = partial_trace(joint, ["8", "7"])
    s = 1.0 / np.sqrt(2.0)
    vec = np.array([0.0, s, -s, 0.0])
    assert np.max(np.abs(singlet.matrix - np.outer(vec, vec))) < 1e-12


def test_swap_extend_accepts_any_label_order():
    rho = _rho325(0.37)
    shuffled = permute_subsystems(rho, ["5", "3", "2"])
    a = swap_extend(rho)
    b = swap_extend(shuffled)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


def test_swap_extend_rejects_other_registers():
    with pytest.raises(ContractError):
        swap_extend(_rho325(0.37).__class__(Register.qubits("a", "b", "c"), np.eye(8) / 8.0))


# -------------------------------------------------------------------- bsm


def test_bsm_outcomes_are_uniform():
    for alpha2 in (0.3, 0.5, 0.8):
        outcomes = bsm(swap_extend(_rho325(alpha2)))
        assert tuple(o.label for o in outcomes) == BELL_ORDER
        for o in outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-9)
            assert o.post_state.register.labels == ("3", "5", "7")
            assert np.trace(o.post_state.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_bsm_uniform_for_any_input():
    # the measured pair contains one half of a maximally entangled state,
    # so every Bell outcome is equally likely whatever the input
    outcomes = bsm(swap_extend(_random_325(99)))
    for o in outcomes:
        assert o.probability == pytest.approx(0.25, abs=1e-9)


def test_bsm_projectors_are_bell_states():
    outcomes = bsm(swap_extend(_rho325(0.5)))
    for o in outcomes:
        p = o.projector
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.trace(p).real == pytest.approx(1.0)


def test_published_b1p_post_state_matches_computed():
    for x, phi in ((0.37, 0.6), (0.37, 0.0), (0.8, 0.0)):
        outcomes = bsm(swap_extend(_rho325(x, phi)))
        got = outcomes[0].post_state.matrix
        assert np.max(np.abs(got - _published_b1p_post(x, phi))) < 1e-12


# ------------------------------------------------------------- corrections


def test_recovery_target_relabels_the_teleported_qubit():
    rho = _rho325(0.37)
    target = recovery_target(rho)
    assert target.register.labels == ("3", "5", "7")
    want = permute_subsystems(rho, ["3", "5", "2"]).matrix
    assert np.max(np.abs(target.matrix - want)) < 1e-12


def test_published_corrections_structure():
    pub = published_corrections()
    assert set(pub) == set(BELL_ORDER)
    assert np.array_equal(pub["B1+"], np.kron(_I2, np.kron(_SZ, _SX)))
    assert np.array_equal(pub["B1-"], np.kron(_I2, np.kron(_I2, _SX)))
    assert np.array_equal(pub["B2+"], np.kron(_I2, np.kron(_I2, _SZ)))
    assert np.array_equal(pub["B2-"], np.eye(8))
    for u in pub.values():
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12


def _derived(rho325):
    return correction_plans(rho325)["derived"]


def test_derived_correction_words():
    plans = _derived(_rho325(0.5))
    words = {label: plan.word for label, plan in plans.items()}
    assert words == {"B1+": "iiy", "B1-": "iix", "B2+": "iiz", "B2-": "iii"}
    for plan in plans.values():
        assert plan.word[:2] == "ii"  # support on the teleported qubit only
        assert plan.achieved_fidelity >= 1.0 - 1e-9
        assert plan.source == "derived"
        assert np.max(np.abs(plan.unitary.conj().T @ plan.unitary - np.eye(8))) < 1e-12


def test_derived_words_do_not_depend_on_input_weight():
    baseline = {l: p.word for l, p in _derived(_rho325(0.5)).items()}
    for alpha2 in (0.1, 0.3, 0.65, 0.9):
        words = {l: p.word for l, p in _derived(_rho325(alpha2)).items()}
        assert words == baseline


def _search_cases():
    rng = np.random.default_rng(2024)
    for branch in (("Q0", "Q0"), ("Q0", "Q1"), ("Q1", "Q0"), ("Q1", "Q1")):
        for _ in range(3):
            alpha2, phi = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
            yield branch_marginal(alpha2, branch, "325", phi)
    for seed, rank in ((1, 8), (2, 8), (3, 2), (4, 1), (5, 1)):
        yield _random_325(seed, rank)


@pytest.mark.parametrize("rho", list(_search_cases()))
def test_residual_search_picks_the_fidelity_routes_words(rho):
    outcomes = bsm(swap_extend(rho))
    want = _fidelity_route(rho, outcomes)
    plans = correction_plans(rho, ("derived",), outcomes)["derived"]
    assert {label: plan.word for label, plan in plans.items()} == {k: w for k, (w, _) in want.items()}
    for label, plan in plans.items():
        assert plan.achieved_fidelity == pytest.approx(want[label][1], abs=1e-12)


@pytest.mark.parametrize("seed", [6, 7])
def test_residual_search_fails_where_the_fidelity_route_fails(seed):
    # outcomes of another state are no Pauli conjugates of this target
    rho, other = _random_325(seed), _random_325(seed + 100, rank=2)
    outcomes = bsm(swap_extend(other))
    with pytest.raises(ContractError):
        _fidelity_route(rho, outcomes)
    with pytest.raises(ContractError, match="only reaches fidelity"):
        correction_plans(rho, ("derived",), outcomes)
    # the published set is measured, not held to fidelity 1
    assert set(correction_plans(rho, ("published",), outcomes)["published"]) == set(BELL_ORDER)


def test_words_exact_up_to_roundoff_tie_to_the_first():
    # iiy and zzx both correct B1+ (rho325 is invariant under ZZZ). Break
    # that symmetry at 1e-14 and let zzx be the bitwise-exact word: iiy is
    # off by roundoff only, so the tie still goes to it, the earlier word.
    rng = np.random.default_rng(11)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    noise = (g + g.conj().T) / 2.0
    noise -= np.trace(noise).real / 8.0 * np.eye(8)
    rho = _rho325(0.5)
    rho = DensityOp(rho.register, rho.matrix + 1e-14 * noise)
    zzx = np.kron(_SZ, np.kron(_SZ, _SX))
    post = zzx.conj().T @ recovery_target(rho).matrix @ zzx
    outcomes = bsm(swap_extend(rho))
    outcomes[0] = dataclasses.replace(outcomes[0], post_state=DensityOp(Register.qubits("3", "5", "7"), post))
    assert correction_plans(rho, ("derived",), outcomes)["derived"]["B1+"].word == "iiy"
    assert _fidelity_route(rho, outcomes)["B1+"][0] == "iiy"


def test_correction_plans_score_both_sets_like_their_own_calls():
    rho = _rho325(0.3, 4.71)
    outcomes = bsm(swap_extend(rho))
    plans = correction_plans(rho, ("derived", "published"), outcomes)
    alone = _derived(rho)
    for label in BELL_ORDER:
        assert plans["derived"][label].word == alone[label].word
        assert plans["derived"][label].achieved_fidelity == pytest.approx(
            alone[label].achieved_fidelity, abs=1e-12
        )
    published = correction_plans(rho, ("published",))["published"]
    assert {k: p.word for k, p in plans["published"].items()} == {
        "B1+": "izx", "B1-": "iix", "B2+": "iiz", "B2-": "iii"
    }
    for label, plan in plans["published"].items():
        assert plan.source == "published"
        assert np.array_equal(plan.unitary, published_corrections()[label])
        assert plan.achieved_fidelity == pytest.approx(published[label].achieved_fidelity, abs=1e-12)
    with pytest.raises(ValueError):
        correction_plans(rho, ("paper",), outcomes)


def _fidelities(rho325, source):
    return {label: plan.achieved_fidelity for label, plan in correction_plans(rho325, (source,))[source].items()}


def test_verify_recovery_derived_is_exact():
    for alpha2 in (0.3, 0.5, 0.8):
        fids = _fidelities(_rho325(alpha2), "derived")
        assert set(fids) == set(BELL_ORDER)
        for f in fids.values():
            assert f >= 1.0 - 1e-9


def test_verify_recovery_published_set():
    # three of the published corrections recover the target exactly; the
    # first outcome's does not, and its shortfall shrinks with alpha^2
    want_b1p = {0.3: 0.740587, 0.5: 0.830177, 0.8: 0.943670}
    for alpha2, want in want_b1p.items():
        fids = _fidelities(_rho325(alpha2), "published")
        for label in ("B1-", "B2+", "B2-"):
            assert fids[label] >= 1.0 - 1e-9
        assert fids["B1+"] == pytest.approx(want, abs=1e-5)


def test_verify_recovery_rejects_unknown_source():
    for sources in (("guess",), ("derived", "guess")):
        with pytest.raises(ValueError):
            correction_plans(_rho325(0.5), sources)


# ------------------------------------------------- thresholds after recovery


def test_recovered_state_reproduces_pair_thresholds():
    # after the derived correction the teleported triple carries the same
    # pair entanglement boundaries as the triple it replaces
    u = _derived(_rho325(0.5))["B1+"].unitary

    def recovered(x):
        post = bsm(swap_extend(_rho325(x)))[0].post_state
        return DensityOp(post.register, u @ post.matrix @ u.conj().T)

    def pair_family(pair):
        def f(x):
            return partial_trace(recovered(x), list(pair))

        return f

    ivs = scan_family(pointwise(pair_family("37")), "entangled", grid=60, tol=1e-4)
    assert len(ivs) == 1
    assert ivs[0].lo == pytest.approx(9.0 / 49.0, abs=2e-4)
    assert ivs[0].hi == 1.0
    ivs = scan_family(pointwise(pair_family("57")), "entangled", grid=60, tol=1e-4)
    assert len(ivs) == 1
    assert ivs[0].lo == pytest.approx((9.0 + 8.0 * np.sqrt(3.0)) / 37.0, abs=2e-4)
    assert ivs[0].hi == 1.0
