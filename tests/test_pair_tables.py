"""The checked-in integer tables: the pair tables (tables._PAIR_INTEGERS)
and the swap stage's rho325 (tables._RHO325_INTEGERS).

Every number in them is re-derived from the float pipeline
(reference.pipeline_pair_integers): the basis images times 36 must round
to integer vectors, each pair's float Gram blocks must be 0.0 off the X
pattern, and the Gram entries of the integer vectors must equal the stored
integers exactly. The symmetries of the protocol are then checked on the
integers, with no tolerance, and the parse's check that each row is a
state on all of [0, 1]. rho325's entries are 1296 times its float Gram
blocks, which must round to real integers within 1e-9
(reference.pipeline_rho325_integers).
"""
import numpy as np
import pytest

from qbroadcast import ContractError
import qbroadcast.protocol as protocol_module
import qbroadcast.tables as tables_module
from qbroadcast.cloner import OUTCOME_ORDER
from qbroadcast.protocol import PAIR_KEYS
import reference

BRANCHES = (*OUTCOME_ORDER, None)
BRANCH_IDS = ["".join(branch) if branch else "first-round" for branch in BRANCHES]


_stored = reference.stored_integers


@pytest.mark.parametrize("branch", BRANCHES, ids=BRANCH_IDS)
def test_stored_integers_are_the_pipelines_gram_entries(branch):
    # 36 times each basis image is an integer vector, each pair's float
    # blocks are an X-state, and the Gram entries of the integer vectors
    # are the stored integers, exactly (reference.pipeline_pair_integers)
    stored = tables_module._pair_integers(branch)
    assert stored == reference.pipeline_pair_integers(branch)
    assert tuple(stored) == (PAIR_KEYS if branch else ("12", "34", "23", "14"))
    assert {key: list(row) for key, row in stored.items()} == _stored(branch)
    coefficients = tables_module._pair_coefficients(branch)
    assert set(coefficients) == set(stored.values())
    for row in stored.values():
        # the table divides each integer once, so it holds the nearest float
        assert list(coefficients[row][:10]) == [n / 1296 for n in row[:10]]
        assert coefficients[row][10] == row[10] / 1296**2


@pytest.mark.parametrize(
    "field,value", [(0, -1), (10, 10**6), (4, 500)], ids=["negative diagonal", "large |w|", "large z"]
)
def test_the_parse_rejects_a_row_that_is_no_state(monkeypatch, field, value):
    # every row must be a state at every x in [0, 1]: diagonal >= 0, trace
    # > 0 and both 2 x 2 blocks of rho of determinant >= 0, exactly; a
    # large |w| fails only inside, at x = 1/2
    table = tables_module._PAIR_INTEGERS[("Q0", "Q0")]
    line = table.strip().splitlines()[0]
    key, *numbers = line.split()
    numbers[field] = str(value)
    monkeypatch.setitem(tables_module._PAIR_INTEGERS, ("Q0", "Q0"), table.replace(line, " ".join([key, *numbers])))
    tables_module._pair_integers.cache_clear()
    try:
        with pytest.raises(ContractError, match="row 12 is not a state"):
            tables_module._pair_integers(("Q0", "Q0"))
    finally:
        tables_module._pair_integers.cache_clear()


def _reversed(row):
    """A pair's integers read with its two qubits swapped: |01> and |10>
    trade places, so each diagonal reads (a, c, b, d); z and |G01[0,3]|^2
    stay."""
    a, b, c, d, z, a1, b1, c1, d1, z1, g = row
    return [a, c, b, d, z, a1, c1, b1, d1, z1, g]


def test_stored_integers_hold_the_protocols_symmetries():
    tables = {branch: _stored(branch) for branch in OUTCOME_ORDER}
    # the symmetric second round makes clones 2, 5 and 4, 6 interchangeable
    for branch, table in tables.items():
        for one, other in (("12", "15"), ("34", "36"), ("14", "16")):
            assert table[one] == table[other], (branch, one)
    # Q1Q0 is Q0Q1 with Alice and Bob exchanged: qubits 1<->3, 2<->4, 5<->6
    mirror = str.maketrans("123456", "341265")
    for key, row in tables[("Q1", "Q0")].items():
        image = key.translate(mirror)
        want = tables[("Q0", "Q1")].get(image) or _reversed(tables[("Q0", "Q1")][image[::-1]])
        assert row == want, key
    # Q1Q1 is Q0Q0 with every bit flipped: |00> and |11> inputs trade places,
    # so G00 and G11 do, each diagonal reversed
    for key, row in tables[("Q1", "Q1")].items():
        flipped = tables[("Q0", "Q0")][key]
        g00, g11 = flipped[:5], flipped[5:10]
        assert row == [*g11[3::-1], g11[4], *g00[3::-1], g00[4], flipped[10]], key


def test_every_row_holds_its_branchs_probability():
    # 1296 tr G00 and 1296 tr G11 are the diagonal sums of each half row; a
    # branch has one of each, whichever pair is kept, and the four branches
    # split each basis input's whole weight, 1296
    sums = {}
    for branch in OUTCOME_ORDER:
        rows = {(sum(row[:4]), sum(row[5:9])) for row in _stored(branch).values()}
        assert len(rows) == 1, branch
        sums[branch] = rows.pop()
    assert [sum(t[i] for t in sums.values()) for i in (0, 1)] == [1296, 1296]
    # branch_probabilities reads them: at alpha^2 = 1 and 0 it is each sum
    # over 1296
    for branch, (t00, t11) in sums.items():
        probs = [protocol_module.branch_probabilities(x)[branch] for x in (1.0, 0.0)]
        assert probs == [t00 / 1296, t11 / 1296], branch


def _rho325_entries(text):
    """The entries of an _RHO325_INTEGERS text, {block: {(row, column): n}}."""
    entries = {}
    for block, row, col, value in zip(*[iter(text.split())] * 4):
        entries.setdefault(block, {})[(int(row), int(col))] = int(value)
    return entries


def test_rho325_integers_are_the_pipelines_gram_entries():
    # 1296 times each Gram block of branch Q0Q0's rho325 is a real integer
    # matrix, and its nonzero entries are the stored ones, exactly: 5 in
    # G00, 4 in G01 and 12 in G11
    stored = _rho325_entries(tables_module._RHO325_INTEGERS)
    assert stored == reference.pipeline_rho325_integers()
    assert [len(stored[block]) for block in ("00", "01", "11")] == [5, 4, 12]
    assert tables_module._rho325_entries() == stored
    blocks = protocol_module._rho325_blocks()
    assert not blocks.flags.writeable
    for k, block in enumerate(("00", "01", "11")):
        want = np.zeros((8, 8))
        for (i, j), n in stored[block].items():
            want[i, j] = n
        assert np.array_equal(blocks[k], want), block


def test_rho325_from_the_table_is_the_pipelines_marginal():
    # the marginal the CLI's swap stage reads, against branch_marginal's
    # float Gram blocks, at the edges and at random weights
    rng = np.random.default_rng(29)
    weights = np.concatenate([[0.0, 1e-300, 1e-6, 0.3, 0.5, 0.8, 1.0 - 1e-6, 1.0], rng.uniform(0.0, 1.0, 20)])
    got = protocol_module._rho325(weights)
    want = protocol_module.branch_marginal(weights, ("Q0", "Q0"), "325")
    assert got.register == want.register
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-15
    one = protocol_module._rho325(0.3)
    assert one.matrix.shape == (8, 8) and np.array_equal(one.matrix, got.matrix[3])


@pytest.mark.parametrize(
    "old,new", [("00 1 2  96", "00 1 2  97"), ("11 7 7  24", "11 7 7  25"), ("00 0 0 384", "00 0 0 385")],
    ids=["asymmetric G00", "G11 trace", "G00 trace"],
)
def test_the_rho325_parse_rejects_a_broken_table(monkeypatch, old, new):
    # G00 and G11 must be symmetric, and their traces the pair table's
    # 1296 tr G00 = 576 and 1296 tr G11 = 144
    assert tables_module._RHO325_INTEGERS.count(old) == 1
    monkeypatch.setattr(tables_module, "_RHO325_INTEGERS", tables_module._RHO325_INTEGERS.replace(old, new))
    tables_module._rho325_entries.cache_clear()
    try:
        with pytest.raises(ContractError, match="rho325 table"):
            tables_module._rho325_entries()
    finally:
        tables_module._rho325_entries.cache_clear()
