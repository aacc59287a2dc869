"""The checked-in integer pair tables (protocol._PAIR_INTEGERS).

Every number in them is re-derived here from the float pipeline: the basis
images times 36 must round to integer vectors, each pair's float Gram
blocks must be 0.0 off the X pattern, and the Gram entries of the integer
vectors must equal the stored integers exactly. The symmetries of the
protocol are then checked on the integers, with no tolerance.
"""
import numpy as np
import pytest

import qbroadcast.protocol as protocol_module
from qbroadcast.cloner import OUTCOME_ORDER
from qbroadcast.protocol import PAIR_KEYS
import reference

BRANCHES = (*OUTCOME_ORDER, None)
BRANCH_IDS = ["".join(branch) if branch else "first-round" for branch in BRANCHES]


def _stored(branch) -> dict[str, list[int]]:
    """The stored integers of each key of one table, in its line order:
    1296*(a, b, c, d, z) of G00, the same of G11, and 1296^2*|G01[0,3]|^2."""
    lines = (line.split() for line in protocol_module._PAIR_INTEGERS[branch].strip().splitlines())
    return {key: [int(n) for n in numbers] for key, *numbers in lines}


def _integer_images(branch):
    """The register and 36*v00, 36*v11 rounded to integers; fails when
    either is further than 1e-9 from its integer vector."""
    reg, *images = protocol_module._basis_images(branch)
    out = []
    for v in images:
        scaled = 36.0 * v
        ints = np.rint(scaled.real)
        assert np.max(np.abs(scaled - ints)) <= 1e-9, branch
        out.append(ints.astype(np.int64))
    return reg, out


@pytest.mark.parametrize("branch", BRANCHES, ids=BRANCH_IDS)
def test_stored_integers_are_the_pipelines_gram_entries(branch):
    reg, (i00, i11) = _integer_images(branch)
    stored = _stored(branch)
    keys = PAIR_KEYS if branch else ("12", "34", "23", "14")
    assert tuple(stored) == keys
    _, lin, g2 = protocol_module._pair_table(branch)
    for k, key in enumerate(keys):
        # the float blocks are an X-state exactly, or x_coefficients raises
        reference.x_coefficients(*protocol_module._gram_blocks(branch, tuple(key))[1:])
        a, b = (reg.front(v, tuple(key), 1) for v in (i00, i11))
        g00, g01, g11 = a @ a.T, a @ b.T, b @ b.T
        want = [*g00.diagonal(), g00[1, 2], *g11.diagonal(), g11[1, 2], g01[0, 3] ** 2]
        assert stored[key] == [int(n) for n in want], (branch, key)
        # the table divides each integer once, so it holds the nearest float
        assert lin[k].ravel().tolist() == [n / 1296 for n in stored[key][:10]]
        assert g2[k] == stored[key][10] / 1296**2


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
