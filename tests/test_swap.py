"""The swap stage: the teleportation identity of bell_outcomes and
correction_plans, held to the simulated stage of tests/reference.py (the
singlet extension, the Bell measurement and a fidelity for every plan),
which is tested here too.
"""
import itertools

import numpy as np
import pytest

import qbroadcast.plans as plans_module
from qbroadcast import (
    ContractError,
    DensityOp,
    Register,
    bell_outcomes,
    branch_marginal,
    correction_plans,
    partial_trace,
    permute_subsystems,
    published_corrections,
    recovery_target,
    six_qubit_branch,
)
from qbroadcast.linalg import fidelity
from qbroadcast.protocol import _rho325 as _table_rho325
from qbroadcast.swap import BELL_ORDER, SIGMA, _pauli_words
from published_forms import published_b1p_post as _published_b1p_post
from reference import bsm, simulated_plans, swap_extend
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


def _kron_words():
    """The 64 Pauli words on (3, 5, 7) in lexicographic order, each built by
    nested np.kron."""
    paulis = (("i", _I2), ("x", _SX), ("y", _SY), ("z", _SZ))
    words = list(itertools.product(paulis, repeat=3))
    names = [a + b + c for (a, _), (b, _), (c, _) in words]
    return names, [np.kron(p, np.kron(q, r)) for (_, p), (_, q), (_, r) in words]


def _fidelity_route(rho325, outcomes):
    """Reference search: every outcome scored against every one of the 64
    Pauli words by Uhlmann fidelity; the first word reaching the best
    fidelity (within 1e-12) wins, and every outcome must reach 1."""
    names, unitaries = _kron_words()
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


def _identity_cases():
    """rho325 from its table at alpha^2 1e-6, 0.3, 0.5, 0.8, 1 - 1e-6 and
    five random weights, as one stack, and 20 random states of rank 8, 2
    and 1."""
    rng = np.random.default_rng(30)
    weights = np.concatenate([[1e-6, 0.3, 0.5, 0.8, 1.0 - 1e-6], rng.uniform(0.0, 1.0, 5)])
    yield _table_rho325(weights)
    for seed in range(20):
        yield _random_325(100 + seed, (8, 2, 1)[seed % 3])


@pytest.mark.parametrize("rho", list(_identity_cases()))
def test_the_identity_equals_the_simulated_stage(rho):
    # probabilities 1/4 and post states sigma T sigma^dagger, against the
    # Bell measurement of the 32 x 32 joint state; the derived words equal
    # the simulated search's, and every fidelity the one solved there
    lead = rho.matrix.shape[:-2]
    for got, want in zip(bell_outcomes(rho), bsm(swap_extend(rho)), strict=True):
        assert got.label == want.label
        assert np.array_equal(got.projector, want.projector)
        assert np.shape(got.probability) == lead
        assert np.all(np.asarray(got.probability) == 0.25)
        assert np.max(np.abs(got.probability - want.probability)) <= 1e-12
        assert got.post_state.register == want.post_state.register
        assert np.max(np.abs(got.post_state.matrix - want.post_state.matrix)) <= 1e-12
    sources = ("derived", "published")
    got, want = correction_plans(rho, sources), simulated_plans(rho, sources)
    for g, w in zip(*((p,) if not lead else p for p in (got, want)), strict=True):
        for source in sources:
            for label in BELL_ORDER:
                a, b = g[source][label], w[source][label]
                assert (a.word, a.source, a.outcome) == (b.word, b.source, b.outcome)
                assert np.array_equal(a.unitary, b.unitary)
                assert abs(a.achieved_fidelity - b.achieved_fidelity) <= 1e-12, (source, label)


def test_bell_outcome_post_states_are_exact_pauli_conjugates():
    # each post state holds the target's entries, moved and multiplied by
    # 1, -1, i or -i, with no roundoff: the same multiset of absolute values
    rho = _random_325(7)
    target = recovery_target(rho).matrix
    names, unitaries = _pauli_words()
    for o in bell_outcomes(rho):
        u = unitaries[names.index(SIGMA[o.label])]
        post = o.post_state.matrix
        assert np.max(np.abs(post - u @ target @ u.conj().T)) <= 1e-15
        assert np.array_equal(np.sort(np.abs(post).ravel()), np.sort(np.abs(target).ravel()))


def test_bell_outcomes_reject_other_registers():
    with pytest.raises(ContractError, match="labels 3,2,5"):
        bell_outcomes(DensityOp(Register.qubits("a", "b", "c"), np.eye(8) / 8.0))


def test_bsm_projectors_are_bell_states():
    outcomes = bsm(swap_extend(_rho325(0.5)))
    for o in outcomes:
        p = o.projector
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.trace(p).real == pytest.approx(1.0)


def _stack_members():
    rng = np.random.default_rng(47)
    for members in range(1, 7):
        branch = ("Q0", "Q0") if members % 2 else ("Q1", "Q0")
        yield branch_marginal(rng.uniform(0.0, 1.0, members), branch, "325", rng.uniform(0.0, 2.0 * np.pi))
    for phi in (0.0, 4.71):
        yield branch_marginal(np.array([1e-300, 0.3, 0.99999999]), ("Q0", "Q0"), "325", phi)
    randoms = [_random_325(seed, rank) for seed, rank in ((8, 8), (9, 2), (10, 1))]
    yield DensityOp(randoms[0].register, np.stack([rho.matrix for rho in randoms]))


@pytest.mark.parametrize("stack", list(_stack_members()))
@pytest.mark.parametrize("outcomes", [bell_outcomes, lambda rho: bsm(swap_extend(rho))], ids=["identity", "simulated"])
def test_stacked_outcomes_equal_the_per_member_calls(stack, outcomes):
    # one call on a stack gives each member the bits of its own call
    stacked = outcomes(stack)
    assert tuple(o.label for o in stacked) == BELL_ORDER
    for g, m in enumerate(stack.matrix):
        for alone, o in zip(outcomes(DensityOp(stack.register, m)), stacked):
            assert isinstance(alone.probability, float)
            assert o.probability.shape == (len(stack.matrix),)
            assert o.probability[g] == alone.probability
            assert np.array_equal(o.post_state.matrix[g], alone.post_state.matrix)
            assert np.array_equal(o.projector, alone.projector)
            assert o.post_state.register == alone.post_state.register


def test_bsm_checks_every_member():
    # (3, 5, 7) in |000> and (2, 8) in the Bell state B1-: outcome B1+ never
    # occurs, and a stack holding that member fails like the member alone
    s = 1.0 / np.sqrt(2.0)
    ket = np.kron(np.eye(8)[0], np.array([s, 0.0, 0.0, -s]))
    null = DensityOp(Register.qubits("3", "5", "7", "2", "8"), np.outer(ket, ket))
    good = permute_subsystems(swap_extend(_rho325(0.5)), ["3", "5", "7", "2", "8"])
    with pytest.raises(ContractError, match="B1\\+ has vanishing probability"):
        bsm(null)
    with pytest.raises(ContractError, match="B1\\+ has vanishing probability"):
        bsm(DensityOp(good.register, np.stack([good.matrix, null.matrix])))
    assert len(bsm(DensityOp(good.register, good.matrix[None]))) == 4


def test_published_b1p_post_state_matches_computed():
    for x, phi in ((0.37, 0.6), (0.37, 0.0), (0.8, 0.0)):
        for outcomes in (bell_outcomes(_rho325(x, phi)), bsm(swap_extend(_rho325(x, phi)))):
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


def test_pauli_table_equals_the_kron_construction():
    names, unitaries = _kron_words()
    table_names, table = _pauli_words()
    assert list(table_names) == names
    assert np.array_equal(table, np.stack(unitaries))


def _plan_bits(plans):
    return {
        source: {label: (p.word, p.achieved_fidelity, p.unitary.tobytes()) for label, p in by_label.items()}
        for source, by_label in plans.items()
    }


def _stack_cases():
    rng = np.random.default_rng(31)
    for _ in range(6):
        yield rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 2.0 * np.pi)
    for phi in (0.0, 4.71):
        yield np.array([1e-300, 0.999, 0.99999999]), phi
    # an empty stack gives an empty list of plans
    yield np.array([]), 0.0


@pytest.mark.parametrize("alpha2,phi", list(_stack_cases()))
def test_stacked_correction_plans_equal_the_per_point_calls(alpha2, phi):
    # one residual table and one fidelity call over G points give each
    # point the words and the fidelity bits of its own call
    sources = ("derived", "published")
    stack = branch_marginal(alpha2, ("Q0", "Q0"), "325", phi)
    alone = [correction_plans(branch_marginal(float(x), ("Q0", "Q0"), "325", phi), sources) for x in alpha2]
    stacked = correction_plans(stack, sources)
    assert len(stacked) == len(alpha2)
    for point, in_stack in zip(alone, stacked):
        assert _plan_bits(in_stack) == _plan_bits(point)


@pytest.mark.parametrize("phi", [0.0, 4.71])
def test_swap_functions_read_labels_not_positions(phi):
    # rho325 on (5, 3, 2), and the joint relabeled to (8, 7, 3, 2, 5), give
    # the bits of the canonical order
    rho = branch_marginal(np.array([1e-300, 0.3, 0.8, 0.99999999]), ("Q0", "Q0"), "325", phi)
    shuffled = permute_subsystems(rho, ["5", "3", "2"])
    joint = swap_extend(rho)
    for outcomes, canonical in (
        (bell_outcomes(shuffled), bell_outcomes(rho)),
        (bsm(swap_extend(shuffled)), bsm(joint)),
        (bsm(permute_subsystems(joint, ["8", "7", "3", "2", "5"])), bsm(joint)),
    ):
        for o, c in zip(outcomes, canonical, strict=True):
            assert o.label == c.label
            assert np.array_equal(o.probability, c.probability)
            assert np.array_equal(o.post_state.matrix, c.post_state.matrix)
            assert o.post_state.register == c.post_state.register
    assert np.array_equal(recovery_target(shuffled).matrix, recovery_target(rho).matrix)
    sources = ("derived", "published")
    got, want = correction_plans(shuffled, sources), correction_plans(rho, sources)
    assert [_plan_bits(p) for p in got] == [_plan_bits(p) for p in want]


def test_bsm_rejects_other_registers():
    joint = swap_extend(_rho325(0.37))
    with pytest.raises(ContractError):
        bsm(DensityOp(Register.qubits("3", "2", "5", "8", "9"), joint.matrix))
    with pytest.raises(ContractError):
        bsm(partial_trace(joint, ["3", "2", "8", "7"]))


def test_simulated_plans_reject_outcomes_of_another_member_count():
    stack = branch_marginal(np.array([0.3, 0.5, 0.8]), ("Q0", "Q0"), "325")
    one = branch_marginal(0.3, ("Q0", "Q0"), "325")
    for rho, other in ((stack, stack.matrix[:2]), (stack, stack.matrix[0]), (one, stack.matrix[:1])):
        outcomes = bsm(swap_extend(DensityOp(stack.register, other)))
        with pytest.raises(ContractError, match="outcomes shaped"):
            simulated_plans(rho, ("derived",), outcomes)


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
    want = _fidelity_route(rho, bsm(swap_extend(rho)))
    plans = correction_plans(rho, ("derived",))["derived"]
    assert {label: plan.word for label, plan in plans.items()} == {k: w for k, (w, _) in want.items()}
    for label, plan in plans.items():
        assert plan.achieved_fidelity == pytest.approx(want[label][1], abs=1e-12)


@pytest.mark.parametrize("seed", [6, 7])
def test_simulated_search_fails_where_the_fidelity_route_fails(seed):
    # outcomes of another state are no Pauli conjugates of this target
    rho, other = _random_325(seed), _random_325(seed + 100, rank=2)
    outcomes = bsm(swap_extend(other))
    with pytest.raises(ContractError):
        _fidelity_route(rho, outcomes)
    with pytest.raises(ContractError, match="only reaches fidelity"):
        simulated_plans(rho, ("derived",), outcomes)
    # the published set is measured, not held to fidelity 1
    assert set(simulated_plans(rho, ("published",), outcomes)["published"]) == set(BELL_ORDER)


def test_a_derived_word_above_the_residual_bound_is_a_contract_error(monkeypatch):
    # every derived word leaves residual 0 (W = sigma makes V the identity),
    # so the check only fires with the bound below 0: then no word ties,
    # the first word iii is taken, and B1+'s V = iiy leaves 0.4167
    rho = _rho325(0.5)
    assert {p.achieved_fidelity for p in _derived(rho).values()} == {1.0}
    monkeypatch.setattr(plans_module, "_EXACT", -1.0)
    with pytest.raises(ContractError, match="B1\\+'s best word iii leaves a residual 4.167e-01"):
        correction_plans(rho, ("published", "derived"))
    assert set(correction_plans(rho, ("published",))["published"]) == set(BELL_ORDER)


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
    outcomes[0] = outcomes[0]._replace(post_state=DensityOp(Register.qubits("3", "5", "7"), post))
    assert simulated_plans(rho, ("derived",), outcomes)["derived"]["B1+"].word == "iiy"
    assert _fidelity_route(rho, outcomes)["B1+"][0] == "iiy"
    # by the identity, iiy leaves residual 0 and zzx that of zzz, about
    # 1e-14: a tie, which goes to iiy; both plans count as exact
    plans = correction_plans(rho, ("derived",))["derived"]
    assert plans["B1+"].word == "iiy" and plans["B1+"].achieved_fidelity == 1.0
    zzz = np.kron(_SZ, np.kron(_SZ, _SZ))
    target = recovery_target(rho).matrix
    assert 1e-15 < np.max(np.abs(zzz @ target @ zzz - target)) <= 1e-12


def test_correction_plans_score_both_sets_like_their_own_calls():
    rho = _rho325(0.3, 4.71)
    plans = correction_plans(rho, ("derived", "published"))
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
        correction_plans(rho, ("paper",))


def _fidelities(rho325, source):
    return {label: plan.achieved_fidelity for label, plan in correction_plans(rho325, (source,))[source].items()}


def test_verify_recovery_derived_is_exact():
    for alpha2 in (0.3, 0.5, 0.8):
        fids = _fidelities(_rho325(alpha2), "derived")
        assert fids == dict.fromkeys(BELL_ORDER, 1.0)


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
        # the simulated measurement: by the identity, this is the target
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
