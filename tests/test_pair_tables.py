"""The checked-in integer pair tables (protocol._PAIR_INTEGERS).

Every number in them is re-derived from the float pipeline
(reference.pipeline_pair_integers): the basis images times 36 must round
to integer vectors, each pair's float Gram blocks must be 0.0 off the X
pattern, and the Gram entries of the integer vectors must equal the stored
integers exactly. The symmetries of the protocol are then checked on the
integers, with no tolerance, and the parse's check that each row is a
state on all of [0, 1].
"""
import pytest

from qbroadcast import ContractError
import qbroadcast.protocol as protocol_module
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
    stored = protocol_module._pair_integers(branch)
    assert stored == reference.pipeline_pair_integers(branch)
    assert tuple(stored) == (PAIR_KEYS if branch else ("12", "34", "23", "14"))
    assert {key: list(row) for key, row in stored.items()} == _stored(branch)
    _, lin, g2 = protocol_module._pair_table(branch)
    for k, row in enumerate(stored.values()):
        # the table divides each integer once, so it holds the nearest float
        assert lin[k].ravel().tolist() == [n / 1296 for n in row[:10]]
        assert g2[k] == row[10] / 1296**2


@pytest.mark.parametrize(
    "field,value", [(0, -1), (10, 10**6), (4, 500)], ids=["negative diagonal", "large |w|", "large z"]
)
def test_the_parse_rejects_a_row_that_is_no_state(monkeypatch, field, value):
    # every row must be a state at every x in [0, 1]: diagonal >= 0, trace
    # > 0 and both 2 x 2 blocks of rho of determinant >= 0, exactly; a
    # large |w| fails only inside, at x = 1/2
    table = protocol_module._PAIR_INTEGERS[("Q0", "Q0")]
    line = table.strip().splitlines()[0]
    key, *numbers = line.split()
    numbers[field] = str(value)
    monkeypatch.setitem(protocol_module._PAIR_INTEGERS, ("Q0", "Q0"), table.replace(line, " ".join([key, *numbers])))
    protocol_module._pair_integers.cache_clear()
    try:
        with pytest.raises(ContractError, match="row 12 is not a state"):
            protocol_module._pair_integers(("Q0", "Q0"))
    finally:
        protocol_module._pair_integers.cache_clear()


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
