import numpy as np
import pytest

from qbroadcast import (
    ContractError,
    DensityOp,
    PureState,
    Register,
    ThresholdInterval,
    broadcast_holds,
    broadcast_verdict,
    buzek_baseline,
    concurrence,
    eof,
    pair_verdicts,
    partial_trace,
    ppt_verdict,
    six_qubit_branch,
    tensor,
    to_density,
)
import qbroadcast.entanglement as entanglement_module
from qbroadcast.linalg import eig_hermitian
from qbroadcast.protocol import PAIR_KEYS, branch_scan
from reference import exact_scan, float_scan
from stacks import pointwise, scan_family, scan_row

_S = 1.0 / np.sqrt(2.0)


def _pair_pure(alpha, labels=("L", "R")):
    beta = np.sqrt(1.0 - alpha * alpha)
    return to_density(PureState(Register.qubits(*labels), np.array([alpha, 0.0, 0.0, beta])))


def _werner(p):
    phi = np.array([_S, 0.0, 0.0, _S])
    mat = p * np.outer(phi, phi) + (1.0 - p) * np.eye(4) / 4.0
    return DensityOp(Register.qubits("L", "R"), mat)


def _random_two_qubit(rng, kind):
    reg = Register.qubits("L", "R")
    if kind == 0:  # full rank
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = g @ g.conj().T
    elif kind == 1:  # pure
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mat = np.outer(v, v.conj())
    else:  # rank 2
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        mat = g @ g.conj().T
    return DensityOp(reg, mat / np.trace(mat).real)


# -------------------------------------------------------------------- ppt


def test_ppt_bell_state():
    v = ppt_verdict(_pair_pure(_S))
    assert v.entangled
    assert v.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert v.w4 == pytest.approx(-1.0 / 16.0, abs=1e-12)
    assert v.w3 == pytest.approx(-1.0 / 8.0, abs=1e-12)


def test_ppt_maximally_mixed_and_product():
    v = ppt_verdict(DensityOp(Register.qubits("L", "R"), np.eye(4) / 4.0))
    assert not v.entangled
    assert v.min_pt_eigenvalue == pytest.approx(0.25, abs=1e-12)
    zero = to_density(PureState(Register.qubits("L"), np.array([1.0, 0.0])))
    plus = to_density(PureState(Register.qubits("R"), np.array([_S, _S])))
    assert not ppt_verdict(tensor(zero, plus)).entangled


def test_ppt_requires_two_qubits():
    ghz = PureState(Register.qubits("a", "b", "c"), np.array([_S, 0, 0, 0, 0, 0, 0, _S]))
    with pytest.raises(ContractError):
        ppt_verdict(to_density(ghz))


# ------------------------------------------------------------ concurrence


def test_concurrence_of_pure_pair():
    for alpha2 in np.linspace(0.05, 0.95, 10):
        alpha = np.sqrt(alpha2)
        beta = np.sqrt(1.0 - alpha2)
        got = concurrence(_pair_pure(alpha))
        assert got == pytest.approx(2.0 * alpha * beta, abs=1e-10)
    assert concurrence(_pair_pure(_S)) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_of_product_is_zero():
    zero = to_density(PureState(Register.qubits("L"), np.array([1.0, 0.0])))
    plus = to_density(PureState(Register.qubits("R"), np.array([_S, _S])))
    assert concurrence(tensor(zero, plus)) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_of_werner_family():
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(_werner(p)) == pytest.approx(want, abs=1e-10)


def test_concurrence_is_local_unitary_invariant():
    rng = np.random.default_rng(41)
    for kind in (0, 1, 2):
        rho = _random_two_qubit(rng, kind)
        c0 = concurrence(rho)
        for _ in range(3):
            g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u = np.kron(np.linalg.qr(g1)[0], np.linalg.qr(g2)[0])
            rotated = DensityOp(rho.register, u @ rho.matrix @ u.conj().T)
            assert concurrence(rotated) == pytest.approx(c0, abs=1e-9)


_YY = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])


def _hermitian_form_concurrence(mat):
    """Reference route: the lambda_i as the decreasing square roots of the
    eigenvalues of sqrt(rho) rho~ sqrt(rho), those below 1e-13 of the
    largest taken as roundoff, with numpy's eigensolver throughout."""
    vals, vecs = np.linalg.eigh(mat)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    m = root @ _YY @ mat.conj() @ _YY @ root
    lam2 = np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2.0), 0.0, None)
    lam = np.sqrt(np.where(lam2 < lam2[-1] * 1e-13, 0.0, lam2))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _exact_rank_concurrence(a):
    """Reference route for rho = a a^dagger of unit trace: the lambda_i are
    the singular values of a^dagger (sy x sy) a*, by LAPACK."""
    lam = np.linalg.svd(a.conj().T @ _YY @ a.conj(), compute_uv=False)
    return max(0.0, 2.0 * lam.max() - lam.sum())


@pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9, 1e-12])
def test_concurrence_keeps_a_small_weight_beside_a_bell_state(eps):
    # lambda = (1 - eps, eps, 0, 0), so C = 1 - 2 eps: a floor on the
    # squared lambda_i relative to the largest would lose eps
    phi = np.array([_S, 0.0, 0.0, _S])
    psi = np.array([0.0, _S, _S, 0.0])
    mat = (1.0 - eps) * np.outer(phi, phi) + eps * np.outer(psi, psi)
    assert abs(concurrence(DensityOp(Register.qubits("L", "R"), mat)) - (1.0 - 2.0 * eps)) <= 1e-14


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_concurrence_matches_independent_routes(rank):
    rng = np.random.default_rng(707 + rank)
    reg = Register.qubits("L", "R")
    factors = []
    for i in range(20):
        a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        # every other state leans on a Bell state, so most of them are entangled
        a[:, 0] += (i % 2) * 2.0 * np.array([_S, 0.0, 0.0, _S])
        factors.append(a / np.linalg.norm(a))
    mats = np.stack([a @ a.conj().T for a in factors])
    stacked = concurrence(DensityOp(reg, mats))
    for a, mat, c in zip(factors, mats, stacked):
        want = _exact_rank_concurrence(a)
        assert abs(c - want) <= 1e-12
        assert abs(concurrence(DensityOp(reg, mat)) - want) <= 1e-12
        if rank == 1:
            assert abs(c - 2.0 * abs(a[0, 0] * a[3, 0] - a[1, 0] * a[2, 0])) <= 1e-12
        if rank == 4:
            assert abs(c - _hermitian_form_concurrence(mat)) <= 1e-10
    assert np.count_nonzero(stacked) >= 10


# -------------------------------------------------------------------- eof


def test_eof_endpoints_and_interior():
    assert eof(0.0) == 0.0
    assert eof(1.0) == pytest.approx(1.0, abs=1e-12)
    # C = 0.6 gives x = 0.9 and the binary entropy of 0.9
    want = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    assert eof(0.6) == pytest.approx(want, abs=1e-12)
    assert eof(0.6) == pytest.approx(0.468996, abs=1e-4)


def test_eof_monotone_and_zero_only_at_zero():
    cs = np.linspace(0.0, 1.0, 40)
    es = [eof(c) for c in cs]
    assert all(b >= a - 1e-12 for a, b in zip(es, es[1:]))
    assert all(e > 0.0 for c, e in zip(cs, es) if c > 1e-6)


def test_eof_domain():
    with pytest.raises(ContractError):
        eof(-0.1)
    with pytest.raises(ContractError):
        eof(1.1)
    # roundoff excursions just outside [0, 1] are clamped, not rejected
    assert eof(1.0 + 1e-13) == pytest.approx(1.0, abs=1e-6)
    # an array is rejected when any one entry is out of range
    for bad in (-0.1, 1.1, -2e-12, 1.0 + 2e-12):
        with pytest.raises(ContractError, match="outside"):
            eof(np.array([0.5, 0.1, bad]))


@pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
def test_eof_rejects_non_finite_concurrence(c):
    with pytest.raises(ContractError, match="outside"):
        eof(c)
    with pytest.raises(ContractError):
        eof(np.float64(c))
    with pytest.raises(ContractError, match="outside"):
        eof(np.array([0.2, c, 0.4]))


def _scalar_eof(c):
    # eof as it was written for one float at a time
    c = min(max(c, 0.0), 1.0)
    if c == 0.0:
        return 0.0
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    if x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def test_eof_of_an_array_has_the_bits_of_each_entry_alone():
    rng = np.random.default_rng(1729)
    cs = np.concatenate([
        [0.0, 1.0, 1e-300, 5e-324, 1e-12, 1e-8, 0.5, 1.0 - 1e-16, -1e-13, 1.0 + 1e-13],
        rng.uniform(0.0, 1.0, 20000),
        10.0 ** rng.uniform(-320.0, 0.0, 2000),
    ])
    got = eof(cs)
    assert isinstance(got, np.ndarray) and got.shape == cs.shape
    want = np.array([_scalar_eof(float(c)) for c in cs])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    alone = np.array([eof(float(c)) for c in cs[:2000]])
    assert np.array_equal(alone.view(np.int64), got[:2000].view(np.int64))
    assert isinstance(eof(0.3), float)
    assert eof(cs.reshape(2, -1)).shape == (2, cs.size // 2)


# ----------------------------------------- concurrence vs ppt, determinants


def test_concurrence_ppt_and_determinant_agree_on_random_states():
    # three generation recipes, cycled; the eigenvalue verdict, the
    # concurrence, and the sign of the full determinant of the transposed
    # operator must tell one story
    rng = np.random.default_rng(20250821)
    c_ppt_violations = 0
    w4_disagreements = 0
    for i in range(500):
        rho = _random_two_qubit(rng, i % 3)
        v = ppt_verdict(rho)
        c = concurrence(rho)
        if (c > 1e-9) != (v.min_pt_eigenvalue < -1e-9):
            c_ppt_violations += 1
        if abs(v.w4) > 1e-14 and abs(v.min_pt_eigenvalue) > 1e-10:
            if (v.w4 < 0.0) != (v.min_pt_eigenvalue < 0.0):
                w4_disagreements += 1
    assert c_ppt_violations == 0
    assert w4_disagreements == 0


# ------------------------------------------------------------------- scans


def test_scan_predicate_locates_known_window():
    ivs = scan_row(pointwise(lambda x: 0.3 < x < 0.7), grid=100, tol=1e-5, name="window")
    assert len(ivs) == 1
    assert ivs[0].lo == pytest.approx(0.3, abs=2e-5)
    assert ivs[0].hi == pytest.approx(0.7, abs=2e-5)
    assert ivs[0].tolerance == 1e-5
    assert ivs[0].predicate_name == "window"


def test_scan_predicate_edge_intervals_and_unions():
    ivs = scan_row(pointwise(lambda x: x < 0.3 or x > 0.7), grid=100, tol=1e-5)
    assert len(ivs) == 2
    assert ivs[0].lo == 0.0
    assert ivs[0].hi == pytest.approx(0.3, abs=2e-5)
    assert ivs[1].lo == pytest.approx(0.7, abs=2e-5)
    assert ivs[1].hi == 1.0


def test_scan_predicate_constant_yields_the_domain_or_nothing():
    # a row that holds at every grid point is (0, 1); one that holds at none
    # has no interval
    assert scan_row(pointwise(lambda x: True), grid=60, tol=1e-4) == [ThresholdInterval(0.0, 1.0, 1e-4, "predicate")]
    assert scan_row(pointwise(lambda x: False), grid=60, tol=1e-4) == []


def test_scan_predicate_rejects_bad_settings():
    with pytest.raises(ContractError):
        scan_row(lambda x: x > 0.5, grid=10, tol=1e-4)
    with pytest.raises(ContractError):
        scan_row(lambda x: x > 0.5, grid=100, tol=0.0)


def test_scan_threshold_on_werner_family():
    # Werner states are entangled exactly above p = 1/3
    ivs = scan_family(pointwise(_werner), "entangled", grid=100, tol=1e-5)
    assert len(ivs) == 1
    assert ivs[0].lo == pytest.approx(1.0 / 3.0, abs=2e-5)
    assert ivs[0].hi == 1.0
    seps = scan_family(pointwise(_werner), "separable", grid=100, tol=1e-5)
    assert len(seps) == 1
    assert seps[0].lo == 0.0
    assert seps[0].hi == pytest.approx(1.0 / 3.0, abs=2e-5)


def test_baseline_scan_is_grid_stable():
    a = buzek_baseline(grid=100, tol=1e-4)
    b = buzek_baseline(grid=200, tol=1e-4)
    assert a[0] == pytest.approx(b[0], abs=2e-4)
    assert a[1] == pytest.approx(b[1], abs=2e-4)


# ----------------------------------------------------------------- triples


# A triple is closed when all three of its pair marginals are PPT-entangled
# (branch_scan's "closed-146" row), and open otherwise.


def _pair_flags(rho):
    return [ppt_verdict(partial_trace(rho, pair)).entangled for pair in (["a", "b"], ["b", "c"], ["a", "c"])]


def test_classify_triple_ghz_is_open():
    ghz = PureState(Register.qubits("a", "b", "c"), np.array([_S, 0, 0, 0, 0, 0, 0, _S]))
    assert _pair_flags(to_density(ghz)) == [False, False, False]


def test_classify_triple_w_state_is_closed():
    w = np.zeros(8, dtype=complex)
    w[0b001] = w[0b010] = w[0b100] = 1.0 / np.sqrt(3.0)
    assert _pair_flags(to_density(PureState(Register.qubits("a", "b", "c"), w))) == [True, True, True]


# --------------------------------------------------------------- broadcast


def test_broadcast_verdict_on_product_state():
    # a fully product six-qubit state fails every entanglement requirement
    amps = np.zeros(64, dtype=complex)
    amps[0] = 1.0
    six = to_density(PureState(Register.qubits("1", "2", "5", "3", "4", "6"), amps))
    ok, report = broadcast_verdict(six)
    assert not ok
    assert set(report) == {"12", "15", "34", "36", "25", "46", "23", "35", "14", "16"}
    assert not any(v.entangled for v in report.values())


def test_broadcast_verdict_on_a_stack_equals_its_members():
    # the ten pairs of every member are solved as one stack; each member's
    # verdict and reports are those of its own call, bit for bit
    xs = [0.3, 0.8, 0.65]
    ok, report = broadcast_verdict(six_qubit_branch(np.array(xs), ("Q0", "Q0"), 0.4))
    assert list(ok) == [False, True, True]
    for i, x in enumerate(xs):
        alone_ok, alone = broadcast_verdict(six_qubit_branch(x, ("Q0", "Q0"), 0.4))
        assert alone_ok == ok[i]
        for key, verdict in alone.items():
            assert isinstance(verdict.min_pt_eigenvalue, float) and isinstance(verdict.entangled, bool)
            for field in ("min_pt_eigenvalue", "w3", "w4", "entangled"):
                assert getattr(report[key], field)[i] == getattr(verdict, field), (key, field)


def test_broadcast_verdict_rejects_missing_labels():
    amps = np.zeros(64, dtype=complex)
    amps[0] = 1.0
    six = to_density(PureState(Register.qubits("1", "2", "5", "3", "4", "9"), amps))
    with pytest.raises(ContractError):
        broadcast_verdict(six)


# ------------------------------------------------------------------ stacks


def _stack(rhos):
    return DensityOp(rhos[0].register, np.stack([rho.matrix for rho in rhos]))


def test_stacked_verdicts_and_concurrence_match_members():
    rng = np.random.default_rng(606)
    rhos = [_random_two_qubit(rng, i % 3) for i in range(30)] + [_werner(0.2), _pair_pure(_S)]
    stacked = ppt_verdict(_stack(rhos))
    conc = concurrence(_stack(rhos))
    assert stacked.min_pt_eigenvalue.shape == conc.shape == (len(rhos),)
    for i, rho in enumerate(rhos):
        alone = ppt_verdict(rho)
        assert isinstance(alone.min_pt_eigenvalue, float) and isinstance(alone.entangled, bool)
        assert stacked.min_pt_eigenvalue[i] == pytest.approx(alone.min_pt_eigenvalue, abs=1e-12)
        assert stacked.w3[i] == pytest.approx(alone.w3, abs=1e-12)
        assert stacked.w4[i] == pytest.approx(alone.w4, abs=1e-12)
        assert stacked.entangled[i] == alone.entangled
        assert conc[i] == pytest.approx(concurrence(rho), abs=1e-12)


def test_ppt_verdict_makes_one_eigen_solve_per_call(monkeypatch):
    # the verdict and both witnesses of every member, X-state or not, come
    # from one eig_hermitian call on their partial transposes per call
    rng = np.random.default_rng(707)
    general = [_random_two_qubit(rng, i % 3) for i in range(12)]
    werner = [_werner(0.2), _werner(0.9)]
    solves = []

    def eig(a):
        solves.append(a.shape)
        return eig_hermitian(a)

    monkeypatch.setattr(entanglement_module, "eig_hermitian", eig)
    rhos = general + werner
    alone = [ppt_verdict(rho) for rho in rhos]
    assert solves == [(1, 4, 4)] * len(rhos)
    assert all(isinstance(v.entangled, bool) for v in alone)
    order = np.random.default_rng(708).permutation(len(rhos))
    together = ppt_verdict(_stack([rhos[i] for i in order]))
    assert solves[len(rhos):] == [(len(rhos), 4, 4)]
    assert list(together.entangled) == [alone[i].entangled for i in order]
    assert ppt_verdict(_stack(werner * 3)).w4.shape == (6,)
    with pytest.raises(ContractError):
        ppt_verdict(tensor(_werner(0.5), to_density(PureState(Register.qubits("X"), np.array([1.0, 0.0])))))
    assert len(solves) == len(rhos) + 2


def test_measures_of_an_empty_stack_are_empty():
    empty = DensityOp(Register.qubits("A", "B"), np.zeros((0, 4, 4), dtype=complex))
    assert concurrence(empty).shape == (0,)
    verdict = ppt_verdict(empty)
    assert verdict.min_pt_eigenvalue.shape == verdict.w3.shape == verdict.entangled.shape == (0,)
    assert eof(concurrence(empty)).shape == (0,)
    verdict, conc = pair_verdicts([], ("Q0", "Q0"), ["12"])
    assert verdict.min_pt_eigenvalue.shape == verdict.entangled.shape == conc.shape == (1, 0)


def test_ppt_verdicts_solve_several_operators_together():
    rhos = [_werner(p) for p in (0.1, 0.5, 0.9)]
    together = ppt_verdict(_stack(rhos + rhos[::-1]))
    assert list(together.entangled) == [False, True, True, True, True, False]
    assert together.w4.shape == together.w3.shape == (6,)


def test_broadcast_holds_on_stacked_reports():
    entangled = ppt_verdict(_stack([_werner(0.9), _werner(0.9)])).entangled
    separable = ppt_verdict(_stack([_werner(0.1), _werner(0.9)])).entangled
    report = {key: entangled for key in ("25", "46", "23", "35", "14", "16")}
    report.update({key: separable for key in ("12", "15", "34", "36")})
    assert list(broadcast_holds(report)) == [True, False]


def test_scan_predicate_ends_below_the_float_spacing():
    # adjacent floats cannot be split further; bisection stops there
    calls = []

    def test(xs):
        calls.append(len(xs))
        if len(calls) > 1000:
            raise AssertionError("bisection does not end")
        return xs > 0.3

    ivs = scan_row(test, grid=60, tol=1e-300)
    assert len(ivs) == 1
    assert abs(ivs[0].lo - 0.3) <= np.spacing(0.3)
    assert ivs[0].hi == 1.0
    assert len(calls) < 100


@pytest.mark.parametrize("grid,tol", [(200.5, 1e-4), (1e3, 1e-4), (49, 1e-4), (200, 0.0), (200, -1e-3),
                                      (200, float("nan")), (200, float("inf")), (200, "1e-4"), (200, None)])
def test_every_scan_rejects_a_grid_that_is_no_integer_and_a_bad_tol(grid, tol):
    # a float grid would put the points k / (grid + 1) off the lattice the
    # grid names
    for scan in (lambda: branch_scan(("Q0", "Q0"), ["46:entangled"], grid, tol),
                 lambda: buzek_baseline(grid, tol)):
        with pytest.raises(ContractError):
            scan()


def test_every_scan_takes_a_numpy_integer_grid():
    # the scans take a numpy integer as an int: branch_scan's exact signs
    # stay in Python integers, which do not overflow, and ends are floats
    got = branch_scan(("Q0", "Q0"), ["46:entangled"], np.int64(200))
    want = branch_scan(("Q0", "Q0"), ["46:entangled"], 200)
    assert _ends(got) == _ends(want) and got == want
    assert all(type(end) is float for ivs in got.values() for iv in ivs for end in (iv.lo, iv.hi))
    assert buzek_baseline(np.int64(200)) == buzek_baseline(200)


def test_scan_predicate_rejects_non_finite_tol_and_bad_shapes():
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ContractError):
            scan_row(pointwise(lambda x: x > 0.5), grid=60, tol=tol)
    with pytest.raises(ContractError):
        scan_row(lambda xs: True, grid=60, tol=1e-4)


def _ends(scans):
    """Each row's intervals as the hex of their ends, which tells any two
    floats apart."""
    return {name: [(iv.lo.hex(), iv.hi.hex()) for iv in ivs] for name, ivs in scans.items()}


_BRANCHES = [("Q0", "Q0"), ("Q0", "Q1"), ("Q1", "Q0"), ("Q1", "Q1"), None]


def _all_rows(branch):
    keys = PAIR_KEYS if branch else [key for key in PAIR_KEYS if set(key) <= set("1234")]
    names = [f"{key}:{p}" for key in keys for p in ("entangled", "separable")]
    return names + (["broadcast", "closed-146"] if branch else [])


@pytest.mark.parametrize("branch", _BRANCHES)
def test_branch_scans_bisect_to_the_one_step_edges(branch):
    # the exact route against the reference exact scan (every grid point,
    # one bisection step per open edge, Fraction verdicts), bit for bit at any tol,
    # on grids that hold roots (54: k/55, 59: k/60) and below float spacing
    names = _all_rows(branch)
    for grid, tol in ((200, 1e-4), (54, 1e-12), (59, 1e-9), (59, 5e-324), (60, 1e-300), (3000, 5e-324)):
        scans = branch_scan(branch, names, grid, tol)
        expected = exact_scan(branch, names, grid, tol)
        assert _ends(scans) == _ends(expected) and scans == expected, (grid, tol)
        if tol >= 1e-12:
            assert _ends(float_scan(branch, names, grid, tol)) == _ends(expected), (grid, tol)
        assert any(scans.values())


@pytest.mark.parametrize("branch", _BRANCHES)
def test_float_scan_finds_the_exact_edges_down_to_1e_12(branch):
    # the reference scan over pair_verdicts, the float cross-check, against
    # branch_scan (held to the exact reference above): the float verdicts
    # differ from the exact ones only inside roundoff of the dead band
    names = _all_rows(branch)
    for grid in (50, 54, 59, 60, 200, 299, 2000, 2999):
        for tol in (1e-3, 1e-4, 1e-6, 1e-9, 1e-12):
            assert _ends(float_scan(branch, names, grid, tol)) == _ends(branch_scan(branch, names, grid, tol)), (grid, tol)
