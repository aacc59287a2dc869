import math
from collections import Counter
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest

from qbroadcast import (
    ContractError,
    PureState,
    Register,
    branch_marginal,
    branch_probabilities,
    branch_scan,
    broadcast_holds,
    broadcast_verdict,
    build_initial,
    buzek_baseline,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    run_first_stage,
    run_protocol,
    six_qubit_branch,
    to_density,
)
import qbroadcast.entanglement as entanglement_module
import qbroadcast.protocol as protocol_module
from qbroadcast.cloner import OUTCOME_ORDER
from qbroadcast.entanglement import concurrence, ppt_verdict
from qbroadcast.protocol import PAIR_KEYS, SIX_LABELS, pair_verdicts
from reference import TRIPLE_KEYS, extract_marginals, machine_traced_six, run_second_stage, scan_points
from stacks import scan_family, scan_row
from published_forms import (
    published_rho12 as _published_rho12,
    published_rho146 as _published_rho146,
    published_rho16 as _published_rho16,
    published_rho46 as _published_rho46,
)

_S2 = np.sqrt(2.0)


# ---------------------------------------------------------------- stages


def test_build_initial():
    bell = build_initial(np.sqrt(0.5))
    assert bell.register.labels == ("1", "3")
    assert bell.amplitude("00") == pytest.approx(1.0 / _S2)
    assert bell.amplitude("11") == pytest.approx(1.0 / _S2)
    with pytest.raises(ValueError):
        build_initial(0.0)
    with pytest.raises(ValueError):
        build_initial(1.0)
    psi = build_initial(0.3, beta_phase=0.7)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)
    assert np.angle(psi.amplitude("11")) == pytest.approx(0.7)


def test_first_stage_register_and_amplitudes():
    alpha = np.sqrt(0.37)
    beta = np.sqrt(0.63)
    chi, branches = run_first_stage(build_initial(alpha))
    assert chi.register.labels == ("1", "2", "A1", "3", "4", "B1")
    assert chi.amplitude("000000") == pytest.approx(2.0 * alpha / 3.0, abs=1e-12)
    assert chi.amplitude("111111") == pytest.approx(2.0 * beta / 3.0, abs=1e-12)
    assert len(branches) == 4
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)


def test_first_stage_rejects_other_registers():
    psi = PureState(Register.qubits("1", "9"), np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ContractError):
        run_first_stage(psi)


def test_second_stage_rejects_other_registers():
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ContractError):
        run_second_stage(PureState(Register.qubits("1", "2", "3", "9"), amps))


def test_six_qubit_branch_register_and_trace():
    six = six_qubit_branch(0.37)
    assert six.register.labels == SIX_LABELS
    assert np.trace(six.matrix).real == pytest.approx(1.0, abs=1e-12)
    six.validate_psd()


def test_branch_probabilities_formulas():
    probs = branch_probabilities(0.37)
    assert probs[("Q0", "Q0")] == pytest.approx((3 * 0.37 + 1) / 9.0, abs=1e-12)
    assert probs[("Q0", "Q1")] == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert probs[("Q1", "Q0")] == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert probs[("Q1", "Q1")] == pytest.approx((4 - 3 * 0.37) / 9.0, abs=1e-12)


def test_branch_mixture_equals_machine_traced_state():
    # measuring the machines and forgetting the outcome is the same channel
    # as tracing the machines out
    for alpha2, phi in ((0.37, 0.0), (0.8, 0.6)):
        probs = branch_probabilities(alpha2)
        mix = sum(
            p * six_qubit_branch(alpha2, branch, phi).matrix for branch, p in probs.items()
        )
        direct = machine_traced_six(build_initial(np.sqrt(alpha2), phi))
        assert np.max(np.abs(mix - direct.matrix)) < 1e-10


# ------------------------------------------------------------- linear map


def _reference_six(alpha2, branch, phi):
    """The branch's six-qubit state through the per-point pipeline."""
    _, branches = run_first_stage(build_initial(np.sqrt(alpha2), phi))
    sel = next(b for b in branches if b.machine_labels == branch)
    return run_second_stage(sel.state)


def _map_points(seed):
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[1e-6, 1.0 - 1e-6], rng.uniform(0.0, 1.0, 4)])
    return xs, [0.0] + list(rng.uniform(0.0, 2.0 * np.pi, 2))


@pytest.mark.parametrize("branch", OUTCOME_ORDER)
def test_linear_map_matches_the_per_point_pipeline(branch):
    xs, phases = _map_points(314)
    for phi in phases:
        refs = [_reference_six(x, branch, phi) for x in xs]
        for x, ref in zip(xs, refs):
            got = six_qubit_branch(x, branch, phi)
            assert got.register.labels == SIX_LABELS
            assert np.max(np.abs(got.matrix - ref.matrix)) < 1e-12
        for key in PAIR_KEYS + TRIPLE_KEYS:
            stack = branch_marginal(xs, branch, key, phi)
            assert stack.register.labels == tuple(key)
            assert stack.matrix.shape[0] == len(xs)
            for member, ref in zip(stack.matrix, refs):
                assert np.max(np.abs(member - partial_trace(ref, list(key)).matrix)) < 1e-12


def test_first_round_marginal_matches_the_first_stage():
    xs, phases = _map_points(2718)
    for phi in phases:
        for key in ("14", ["1", "2", "3", "4"], ["1", "A1"]):
            stack = branch_marginal(xs, None, key, phi)
            for x, member in zip(xs, stack.matrix):
                chi, _ = run_first_stage(build_initial(np.sqrt(x), phi))
                want = partial_trace(to_density(chi), list(key)).matrix
                assert np.max(np.abs(member - want)) < 1e-12


def test_branch_marginal_checks_its_inputs():
    for bad in (-5e-324, 1.0 + 2.2e-16, -0.1, float("nan"), [0.5, 1.0 + 2.2e-16], [[0.5]]):
        with pytest.raises(ValueError):
            branch_marginal(bad, ("Q0", "Q0"), "46")
    with pytest.raises(ValueError):
        branch_marginal(0.5, ("Q0", "Q2"), "46")
    with pytest.raises(ContractError):
        branch_marginal(0.5, ("Q0", "Q0"), "47")
    with pytest.raises(ContractError):
        branch_marginal(0.5, ("Q0", "Q0"), "44")
    with pytest.raises(ContractError):
        branch_marginal(0.5, ("Q0", "Q0"), "")


@pytest.mark.parametrize("branch", OUTCOME_ORDER)
def test_pair_stack_runs_equal_branch_marginal(branch):
    # each key's row is the same bits whatever other keys are asked for, and
    # equals the Jacobi verdict and concurrence of branch_marginal at every
    # phase to roundoff
    xs, phases = _map_points(1618)
    verdict, conc = pair_verdicts(xs, branch, PAIR_KEYS)
    fields = ("min_pt_eigenvalue", "w3", "w4", "entangled")
    for k, key in enumerate(PAIR_KEYS):
        alone, alone_conc = pair_verdicts(xs, branch, [key, "12"])
        for field in fields:
            assert np.array_equal(getattr(alone, field)[0], getattr(verdict, field)[k]), (key, field)
        assert np.array_equal(alone_conc[0], conc[k]), key
        for phi in phases:
            rho = branch_marginal(xs, branch, key, phi)
            want = ppt_verdict(rho)
            for field in fields[:3]:
                assert np.max(np.abs(getattr(verdict, field)[k] - getattr(want, field))) <= 1e-15, (key, field)
            assert np.array_equal(verdict.entangled[k], want.entangled), key
            assert np.max(np.abs(conc[k] - concurrence(rho))) <= 1e-14, key


@pytest.mark.parametrize("branch", OUTCOME_ORDER)
def test_pair_stack_witnesses_are_the_determinants_numpy_finds(branch):
    # W4 = det T and W3 = its leading 3 x 3 minor, for T the partial
    # transpose of each pipeline pair marginal
    xs = np.concatenate([[1e-9, 1e-6, 0.5, 1.0 - 1e-6], np.random.default_rng(2025).uniform(0.0, 1.0, 60)])
    verdict, _ = pair_verdicts(xs, branch, PAIR_KEYS)
    for phi in (0.0, 4.71):
        for k, key in enumerate(PAIR_KEYS):
            pts = partial_transpose(branch_marginal(xs, branch, key, phi), key[1])
            assert np.max(np.abs(verdict.w4[k] - np.linalg.det(pts).real)) <= 1e-15
            assert np.max(np.abs(verdict.w3[k] - np.linalg.det(pts[:, :3, :3]).real)) <= 1e-15


def _alice_phases(labels, phi):
    """Diagonal of U_phi on a register: diag(1, e^{i phi}) on each of
    Alice's qubits 1, 2 and 5, the identity on Bob's 3, 4 and 6."""
    return reduce(np.kron, [np.array([1.0, np.exp(1j * phi)]) if lab in "125" else np.ones(2) for lab in labels])


@pytest.mark.parametrize("branch", OUTCOME_ORDER)
def test_input_phase_is_a_local_diagonal_unitary(branch):
    # rho(x, phi) = U_phi rho(x, 0) U_phi^dagger: the cloner is phase
    # covariant and its machine phase is diagonal in the Q0/Q1 basis, so
    # no verdict, witness or measure the CLI prints depends on phi
    xs, phases = _map_points(4242)
    phases = phases[1:] + [4.71]
    marginals = [(key, partial(branch_marginal, xs, branch, key)) for key in PAIR_KEYS + ("146", "325")]
    marginals.append(("14", partial(branch_marginal, xs, None, "14")))
    for key, marginal in marginals:
        at_zero = marginal(0.0)
        for phi in phases:
            u = _alice_phases(key, phi)
            got = marginal(phi)
            assert np.max(np.abs(got.matrix - u[:, None] * at_zero.matrix * u.conj())) <= 1e-15, (key, phi)
            if len(key) == 2:
                want, have = ppt_verdict(at_zero), ppt_verdict(got)
                for field in ("min_pt_eigenvalue", "w3", "w4"):
                    assert np.max(np.abs(getattr(have, field) - getattr(want, field))) <= 1e-15, (key, field)
                assert np.array_equal(have.entangled, want.entangled)
                assert np.max(np.abs(concurrence(got) - concurrence(at_zero))) <= 1e-15, key


def test_pair_table_rows_are_equal_for_interchangeable_clones():
    # the symmetric second cloning round makes clones 2, 5 and 4, 6
    # interchangeable, so these pairs share their table rows exactly; a
    # change to the cloner arithmetic that breaks the symmetry shows here
    xs = np.array([0.2, 0.5, 0.7])
    for branch in OUTCOME_ORDER:
        row, lin, g2 = protocol_module._pair_table(branch)
        assert list(row) == list(PAIR_KEYS) and lin.shape == (10, 2, 5) and g2.shape == (10,)
        for one, other in (("12", "15"), ("34", "36"), ("14", "16")):
            assert np.array_equal(lin[row[one]], lin[row[other]]) and g2[row[one]] == g2[row[other]], (branch, one)
        verdict, conc = pair_verdicts(xs, branch, ["12", "15", "34", "36", "14", "16"])
        assert verdict.entangled.shape == conc.shape == (6, 3)
        for field in (verdict.min_pt_eigenvalue, verdict.w3, verdict.w4, verdict.entangled, conc):
            assert np.array_equal(field[0::2], field[1::2])
    # a number gives one entry per key, repeats kept
    verdict, conc = pair_verdicts(0.4, ("Q0", "Q0"), ["46", "23", "46"])
    assert verdict.w3.shape == conc.shape == (3,)
    assert verdict.w3[0] == verdict.w3[2] and conc[0] == conc[2]
    # the machine-traced first round holds the pairs on qubits 1 to 4
    assert list(protocol_module._pair_table(None)[0]) == ["12", "34", "23", "14"]


def test_pair_verdicts_checks_its_inputs():
    for bad in (-5e-324, 1.0 + 2.2e-16, float("nan"), [0.5, 1.0 + 2.2e-16], [[0.5]]):
        with pytest.raises(ValueError):
            pair_verdicts(bad, ("Q0", "Q0"), ["46"])
    with pytest.raises(ValueError):
        pair_verdicts(0.5, ("Q0", "Q2"), ["46"])
    for keys in (["47"], ["46", "146"], ["64"]):
        with pytest.raises(ValueError):
            pair_verdicts(0.5, ("Q0", "Q0"), keys)
    with pytest.raises(ValueError, match="choose from 12, 34, 23, 14"):
        pair_verdicts(0.5, None, ["16"])


def test_pair_verdicts_at_the_domain_edges():
    # at alpha^2 = 0 the input is the product state |11>: on Q1Q1 the cross
    # pairs 14, 16, 23 and 35 are separable there, with concurrence 0, and
    # entangled just inside; -0.0 is the edge 0, and the Jacobi route of
    # branch_marginal gives the same verdicts
    keys = ["14", "16", "23", "35"]
    verdict, conc = pair_verdicts([0.0, -0.0, 1e-9], ("Q1", "Q1"), keys)
    assert not verdict.entangled[:, :2].any() and np.all(conc[:, :2] == 0.0)
    assert verdict.entangled[:, 2].all() and np.all(conc[:, 2] > 0.0)
    for key in keys:
        rho = branch_marginal(0.0, ("Q1", "Q1"), key)
        assert not ppt_verdict(rho).entangled and concurrence(rho) <= 1e-12
    for x in (0.0, 1.0):
        for branch in OUTCOME_ORDER:
            verdict, conc = pair_verdicts(x, branch, PAIR_KEYS)
            assert np.isfinite(verdict.min_pt_eigenvalue).all() and np.isfinite(conc).all()


def _refuse(*args, **kwargs):
    raise AssertionError("a float verdict or the float scan ran")


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was called")


def _all_rows(branch):
    keys = PAIR_KEYS if branch else ("12", "34", "23", "14")
    names = [f"{key}:{p}" for key in keys for p in ("entangled", "separable")]
    return names + (["broadcast", "closed-146"] if branch else [])


def test_branch_scan_makes_no_float_verdict_and_no_numpy_call(monkeypatch):
    # the scans read exact signs of the tables' integers: with the float
    # verdicts and protocol's numpy refused, from cold caches, every
    # branch's rows and the baseline still come out
    want = {branch: branch_scan(branch, _all_rows(branch)) for branch in (*OUTCOME_ORDER, None)}
    baseline = buzek_baseline()
    for cached in (protocol_module._pair_integers, protocol_module._pair_table, protocol_module._pair_signs):
        cached.cache_clear()
    for module, name in ((protocol_module, "pair_verdicts"), (protocol_module, "_x_verdict"),
                         (entanglement_module, "_x_verdict")):
        monkeypatch.setattr(module, name, _refuse)
    monkeypatch.setattr(protocol_module, "np", _NoNumpy())
    assert {branch: branch_scan(branch, _all_rows(branch)) for branch in want} == want
    assert buzek_baseline() == baseline
    assert buzek_baseline(grid=100000, tol=1e-300)[0] == pytest.approx(baseline[0], abs=1e-4)


@pytest.mark.parametrize("grid,tol", [(50, 1e-4), (200, 1e-4), (2999, 1e-12), (100000, 1e-300), (100000, 5e-324)])
def test_branch_scan_makes_few_exact_evaluations(monkeypatch, grid, tol):
    # O(roots log grid + edges steps) exact signs, not one per grid point:
    # each distinct quadratic's search evaluates its ends and vertex cell
    # and binary-searches each flip; each bisection step of a flip's cell
    # evaluates the one or two quadratics that can change inside it
    count = [0]
    negative = protocol_module._negative

    def counted(f, x):
        count[0] += 1
        return negative(f, x)

    monkeypatch.setattr(protocol_module, "_negative", counted)
    steps = min(64, math.ceil(-math.log2(grid + 1) - math.log2(tol)))
    for branch in (*OUTCOME_ORDER, None):
        quads, _ = protocol_module._pair_signs(branch)
        flips = sum(len(protocol_module._sign_changes(f, grid)[1]) for f in quads)
        count[0] = 0
        branch_scan(branch, _all_rows(branch), grid, tol)
        assert 0 < count[0] <= 4 * len(quads) + 2 * flips * (math.ceil(math.log2(grid)) + 1 + steps), branch
        assert count[0] < 1000


def test_branch_scan_sees_a_dip_between_grid_points(monkeypatch):
    # pair 12 of a made-up table: a line that turns negative at 0.505 and a
    # parabola negative only on 0.5 +- 0.0032, both inside the grid cell
    # (25/51, 26/51); the bisection must read the parabola there, though
    # its sign is the same at both grid points
    quads = ((1010, -2000, 0), (24999, -100000, 100000))
    monkeypatch.setattr(protocol_module, "_pair_signs", lambda branch: (quads, {"12": (0, 1)}))

    def test(xs):
        return [[any(c0 + c1 * x + c2 * x * x < 0 for c0, c1, c2 in quads) for x in map(Fraction, xs.tolist())]]

    for tol in (1e-4, 1e-12, 5e-324):
        (scan,) = branch_scan(("Q0", "Q0"), ["12:entangled"], 50, tol).values()
        (expected,) = scan_points(test, ["12:entangled"], 50, tol).values()
        assert [(iv.lo, iv.hi) for iv in scan] == [(iv.lo, iv.hi) for iv in expected]
        assert abs(scan[0].lo - (0.5 - 1e-5**0.5)) <= max(tol, 1e-16)


def test_branch_scan_broadcast_agrees_with_the_per_point_verdict():
    # the stacked scan and broadcast_verdict on six-qubit states built one
    # point at a time must flip at the same places
    for branch in (("Q0", "Q0"), ("Q0", "Q1")):
        ivs = branch_scan(branch, ("broadcast",), grid=60, tol=1e-4)["broadcast"]
        for x in np.linspace(0.01, 0.99, 25):
            inside = any(iv.lo < x < iv.hi for iv in ivs)
            near = any(abs(x - e) < 1e-3 for iv in ivs for e in (iv.lo, iv.hi))
            if not near:
                assert broadcast_verdict(six_qubit_branch(x, branch, 0.4))[0] == inside


# ------------------------------------------------- published marginal forms


@pytest.mark.parametrize("alpha2,phi", [(0.37, 0.0), (0.37, 0.6), (0.8, 0.0)])
def test_published_rho146_matches_computed(alpha2, phi):
    six = six_qubit_branch(alpha2, ("Q0", "Q0"), phi)
    got = partial_trace(six, ["1", "4", "6"]).matrix
    assert np.max(np.abs(got - _published_rho146(alpha2, phi))) < 1e-12


@pytest.mark.parametrize("alpha2,phi", [(0.37, 0.0), (0.37, 0.6), (0.8, 0.0)])
def test_published_rho16_matches_computed(alpha2, phi):
    six = six_qubit_branch(alpha2, ("Q0", "Q0"), phi)
    assert np.max(np.abs(partial_trace(six, ["1", "6"]).matrix - _published_rho16(alpha2, phi))) < 1e-12
    assert np.max(np.abs(partial_trace(six, ["1", "4"]).matrix - _published_rho16(alpha2, phi))) < 1e-12


@pytest.mark.parametrize("alpha2", [0.37, 0.8])
def test_published_rho46_matches_computed(alpha2):
    six = six_qubit_branch(alpha2, ("Q0", "Q0"))
    assert np.max(np.abs(partial_trace(six, ["4", "6"]).matrix - _published_rho46(alpha2))) < 1e-12


@pytest.mark.parametrize("alpha2", [0.37, 0.8])
def test_published_rho12_matches_computed(alpha2):
    six = six_qubit_branch(alpha2, ("Q0", "Q0"))
    assert np.max(np.abs(partial_trace(six, ["1", "2"]).matrix - _published_rho12(alpha2))) < 1e-12


# -------------------------------------------------------------- marginals


def test_extract_marginals_keys_and_degeneracies():
    six = six_qubit_branch(0.37)
    marg = extract_marginals(six)
    assert set(marg) == set(PAIR_KEYS) | set(TRIPLE_KEYS)
    # original-to-remote-clone pairs agree, as do all original-to-own-clone pairs
    assert np.max(np.abs(marg["16"].matrix - marg["14"].matrix)) < 1e-12
    for key in ("15", "34", "36"):
        assert np.max(np.abs(marg["12"].matrix - marg[key].matrix)) < 1e-12
    # (3,5) lists original first and (2,3) clone first: equal after a swap,
    # and both match the original-to-remote-clone pair on the other side
    assert np.max(np.abs(marg["35"].matrix - marg["16"].matrix)) < 1e-12
    flipped = permute_subsystems(marg["35"], ["5", "3"])
    assert np.max(np.abs(marg["23"].matrix - flipped.matrix)) < 1e-12


def test_triple_marginals_mirror_each_other():
    # party exchange maps (1,4,6) onto (3,2,5) positionwise on symmetric branches
    for branch in (("Q0", "Q0"), ("Q1", "Q1")):
        marg = extract_marginals(six_qubit_branch(0.37, branch))
        assert np.max(np.abs(marg["146"].matrix - marg["325"].matrix)) < 1e-12


def test_asymmetric_branches_swap_into_each_other():
    # exchanging the parties (1<->3, 2<->4, 5<->6) turns one mixed outcome
    # into the other at the same input weight
    six_a = six_qubit_branch(0.37, ("Q0", "Q1"))
    six_b = six_qubit_branch(0.37, ("Q1", "Q0"))
    swapped = permute_subsystems(six_a, ["3", "4", "6", "1", "2", "5"])
    assert np.max(np.abs(swapped.matrix - six_b.matrix)) < 1e-12


@pytest.mark.parametrize("branch,dual", [(("Q1", "Q1"), ("Q0", "Q0")), (("Q0", "Q1"), ("Q1", "Q0"))])
def test_bit_flip_maps_branches_onto_their_duals(branch, dual):
    # the cloner commutes with X on input, both copies and machine, so X on
    # all six qubits exchanges Q0 and Q1 and sends alpha^2 -> 1 - alpha^2,
    # phi -> -phi (up to a global phase)
    flip = reduce(np.kron, [np.array([[0.0, 1.0], [1.0, 0.0]])] * 6)
    for alpha2 in (0.2, 0.37, 0.8):
        for phi in (0.0, 0.9):
            got = six_qubit_branch(alpha2, branch, phi).matrix
            want = flip @ six_qubit_branch(1.0 - alpha2, dual, -phi).matrix @ flip
            assert np.max(np.abs(got - want)) < 1e-12


def test_beta_phase_leaves_thresholds_alone():
    # the relative phase of the input amplitudes is a local rotation, so
    # separability boundaries cannot move
    def family(phi):
        def f(x):
            return partial_trace(six_qubit_branch(x, ("Q0", "Q0"), phi), ["4", "6"])

        return f

    base = scan_family(family(0.0), "entangled", grid=60, tol=1e-4)
    for phi in (np.pi / 4.0, np.pi / 2.0):
        moved = scan_family(family(phi), "entangled", grid=60, tol=1e-4)
        assert len(moved) == len(base) == 1
        assert moved[0].lo == pytest.approx(base[0].lo, abs=2e-4)
        assert moved[0].hi == base[0].hi == 1.0


# ------------------------------------------------------------- branch scan


def test_branch_scan_main_branch():
    scans = branch_scan(("Q0", "Q0"), ("broadcast", "closed-146"), grid=60, tol=1e-3)
    assert list(scans) == ["broadcast", "closed-146"]
    assert branch_probabilities(0.5)[("Q0", "Q0")] == pytest.approx((3 * 0.5 + 1) / 9.0, abs=1e-12)
    assert len(scans["broadcast"]) == 1
    assert scans["broadcast"][0].lo == pytest.approx(0.6177, abs=3e-3)
    assert scans["broadcast"][0].hi == 1.0
    assert scans["broadcast"][0].predicate_name == "broadcast"
    assert len(scans["closed-146"]) == 1
    assert scans["closed-146"][0].lo == pytest.approx(0.6177, abs=3e-3)
    assert scans["closed-146"][0].predicate_name == "closed-146"


def test_branch_scan_rejects_unknown_branches_and_rows():
    with pytest.raises(ValueError):
        branch_scan(("Q0", "Q2"), ("broadcast",))
    for name in ("47:entangled", "46:closed", "46", "closed-325", "entangled", ""):
        with pytest.raises(ValueError):
            branch_scan(("Q0", "Q0"), ("broadcast", name), grid=60, tol=1e-3)
    # branch None, the first round with the machines traced out, has only
    # the pairs on qubits 1 to 4
    for name in ("broadcast", "closed-146", "16:entangled"):
        with pytest.raises(ValueError):
            branch_scan(None, ("14:entangled", name), grid=60, tol=1e-3)


def test_baseline_is_the_first_round_row():
    (interval,) = branch_scan(None, ("14:entangled",))["14:entangled"]
    assert buzek_baseline() == (interval.lo, interval.hi)


def _bisect_probes(a, b, threshold, tol):
    """protocol._bisect on the step x > threshold from a to b, with the
    points it probed in order."""
    probes = []

    def holds(x):
        probes.append(x)
        return x > threshold

    return protocol_module._bisect(a, b, a > threshold, tol, holds), probes


def test_bisect_halves_the_edge_once_per_probe_until_tol():
    # 0.25 and 0.5 are dyadic, so every halving is exact: n probes leave a
    # cell 0.25 / 2**n wide, and the loop stops at the first n where that
    # is no wider than tol, returning the cell's midpoint
    for tol in (0.25, 0.1, 1e-3, 1e-6, 2.0**-20):
        mid, probes = _bisect_probes(0.25, 0.5, 1.0 / 3.0, tol)
        assert len(probes) == max(0, math.ceil(math.log2(0.25 / tol))), tol
        assert abs(mid - 1.0 / 3.0) <= 0.25 / 2.0 ** len(probes) / 2.0, tol
        assert all(0.25 < x < 0.5 for x in probes) and len(set(probes)) == len(probes)
    # a tol as wide as the edge probes nothing and returns the midpoint
    assert _bisect_probes(0.25, 0.5, 1.0 / 3.0, 1.0) == (0.375, [])
    # a row that holds at a and exits at the threshold bisects the same cells
    exit_mid = protocol_module._bisect(0.25, 0.5, True, 1e-6, lambda x: x < 1.0 / 3.0)
    assert exit_mid == _bisect_probes(0.25, 0.5, 1.0 / 3.0, 1e-6)[0]


def test_bisect_below_float_spacing_ends_on_adjacent_floats():
    # a tol under the spacing of the floats near the edge stops when the
    # midpoint is one of the cell's ends, one ulp from the threshold
    third = 1.0 / 3.0
    for tol in (5e-324, 1e-300):
        mid, probes = _bisect_probes(0.25, 0.5, third, tol)
        assert abs(mid - third) <= math.ulp(third), tol
        assert len(probes) <= 60 and len(set(probes)) == len(probes)


def test_intervals_alternate_entries_and_exits():
    def ends(first, cuts):
        ivs = protocol_module._intervals(first, cuts, 1e-4, "row")
        assert all(iv.tolerance == 1e-4 and iv.predicate_name == "row" for iv in ivs)
        return [(iv.lo, iv.hi) for iv in ivs]

    # a row that holds at the first grid point opens at 0.0 and its first
    # edge is an exit; otherwise its first edge is an entry
    assert ends(True, [0.2, 0.5]) == [(0.0, 0.2), (0.5, 1.0)]
    assert ends(False, [0.2, 0.5]) == [(0.2, 0.5)]
    assert ends(False, [0.2]) == [(0.2, 1.0)]
    assert ends(True, [0.7]) == [(0.0, 0.7)]
    # a row with no edge is the whole domain when it holds at every grid
    # point, and empty when it holds at none
    assert ends(True, []) == [(0.0, 1.0)] and ends(False, []) == []


def test_package_has_one_scan_route():
    # branch_scan is the one scan: entanglement keeps verdicts, measures and
    # the ThresholdInterval record, and the bisection helpers live beside
    # branch_scan in protocol
    import qbroadcast

    for name in ("scan_predicates", "_flags", "_SCAN_CHUNK", "_bisect", "_intervals", "_require_scan_settings"):
        assert not hasattr(entanglement_module, name), name
        assert not hasattr(qbroadcast, name), name
    assert "branch_scan" in qbroadcast.__all__ and "scan_predicates" not in qbroadcast.__all__
    assert protocol_module.ThresholdInterval is entanglement_module.ThresholdInterval
    for name in ("_bisect", "_intervals", "_require_scan_settings"):
        assert getattr(protocol_module, name).__module__ == protocol_module.__name__, name


@pytest.mark.parametrize("branch", OUTCOME_ORDER)
def test_branch_scan_rows_equal_their_own_scans(branch):
    # one scan of all rows must give exactly what each row's own scan gives
    phi = 0.4
    rows = [f"{key}:{predicate}" for key in PAIR_KEYS for predicate in ("entangled", "separable")]
    scans = branch_scan(branch, rows + ["broadcast"], grid=60, tol=1e-4)
    for row in rows:
        key, _, predicate = row.partition(":")

        def family(xs, key=key):
            return branch_marginal(xs, branch, key, phi)

        assert scans[row] == scan_family(family, predicate, grid=60, tol=1e-4), row

    def broadcast(xs):
        return broadcast_holds({key: ppt_verdict(branch_marginal(xs, branch, key, phi)).entangled for key in PAIR_KEYS})

    assert scans["broadcast"] == scan_row(broadcast, grid=60, tol=1e-4, name="broadcast")


# ------------------------------------------------------------ run_protocol


def test_run_protocol_fixed_is_deterministic():
    a = run_protocol(0.37, branch=("Q0", "Q1"), seed=5)
    b = run_protocol(0.37, branch=("Q0", "Q1"), seed=5)
    assert a.branch == b.branch == ("Q0", "Q1")
    assert a.message_log == b.message_log
    assert np.max(np.abs(a.six_qubit_state.matrix - b.six_qubit_state.matrix)) == 0.0


def test_run_protocol_message_log_structure():
    run = run_protocol(0.37, branch=("Q1", "Q0"), seed=3)
    assert len(run.message_log) == 2
    (s1, r1, m1), (s2, r2, m2) = run.message_log
    assert (s1, r1) == ("Alice", "Bob")
    assert (s2, r2) == ("Bob", "Alice")
    assert m1.payload == "Q1"
    assert m2.payload == "Q0"
    assert not run.compromised
    assert m1.delivered and m2.delivered


def test_first_round_is_not_a_six_qubit_branch():
    # None names the first round, which has no qubits 5 and 6
    for call in (partial(six_qubit_branch, 0.5, None), partial(run_protocol, 0.5, branch=None)):
        with pytest.raises(ValueError, match="unknown machine branch None"):
            call()


def test_run_protocol_sampled_needs_and_uses_seed():
    with pytest.raises(ValueError):
        run_protocol(0.37, branch_policy="sampled")
    a = run_protocol(0.37, branch_policy="sampled", seed=12)
    b = run_protocol(0.37, branch_policy="sampled", seed=12)
    assert a.branch == b.branch
    assert a.message_log == b.message_log


def test_run_protocol_samples_branches_at_their_probabilities():
    # at alpha2 = 0.1 the branches weigh 0.144, 0.222, 0.222 and 0.411, so
    # an ignored or misordered weight moves a frequency by many sigma
    runs = 1000
    probs = branch_probabilities(0.1)
    drawn = Counter(run_protocol(0.1, branch_policy="sampled", seed=s).branch for s in range(runs))
    assert set(drawn) <= set(probs)
    for pair, p in probs.items():
        assert abs(drawn[pair] / runs - p) < 3.0 * np.sqrt(p * (1.0 - p) / runs), pair


@pytest.mark.parametrize("policy", ["fixed", "sampled"])
@pytest.mark.parametrize("seed", [-1, 1.7, "3"])
def test_run_protocol_rejects_a_seed_that_is_not_a_count(policy, seed):
    with pytest.raises(ValueError, match="run_protocol: seed must be an integer >= 0"):
        run_protocol(0.37, branch_policy=policy, seed=seed)


def test_run_protocol_intercepted_messages_are_flagged():
    # per-bit detection fires often, so a detecting seed is nearby
    for seed in range(40):
        run = run_protocol(0.37, seed=seed, eve_strategy="intercept_resend")
        if run.compromised:
            assert any(not rec.delivered for _, _, rec in run.message_log)
            break
    else:
        pytest.fail("no detecting seed in range")


def test_run_protocol_validates_inputs():
    with pytest.raises(ValueError):
        run_protocol(0.0)
    with pytest.raises(ValueError):
        run_protocol(0.5, branch_policy="guess")
    with pytest.raises(ValueError):
        run_protocol(0.5, branch=("Q0", "QX"))
