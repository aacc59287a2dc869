"""The checked-in integer tables of the pipeline's marginals, and what is
computed from them on Python numbers.

Every stage of the pipeline is linear in the input alpha|00> + beta|11>, so
a marginal on any labels is, with x = alpha^2 and beta = sqrt(1 - x) e^{i phi},

    x*G00 + (1 - x)*G11 + sqrt(x(1 - x)) * (e^{-i phi}*G01 + h.c.)

over its trace, where Gij is the partial trace of |vi><vj| over the other
labels and v00, v11 are the pipeline's outputs for the basis inputs
(protocol.branch_marginal builds them). The cloner's amplitudes are
rational and 36*v00, 36*v11 are integer vectors, so 1296 = 36^2 times every
Gram entry is an integer. This module keeps those integers, checked in:

- _PAIR_INTEGERS: every pair marginal is an X-state, fixed by six reals
  (the diagonal a, b, c, d and z = rho[1,2], each linear in x over the
  trace, and |w|^2 = x(1 - x)|G01[0,3]|^2 / trace^2 for w = rho[0,3]);
- _RHO325_INTEGERS: branch Q0Q0's marginal on (3, 2, 5), the swap stage's
  input.

tests/test_pair_tables.py derives every number from the pipeline. Each
table is parsed once and checked: every pair row is a state at every x in
[0, 1], and rho325's diagonal blocks are symmetric with the pair table's
traces. table_verdicts evaluates the pair rows with the closed forms of
measures.x_verdict, and branch_probabilities sums their diagonals. The
input phase only turns w, so no number here reads it.
"""
from __future__ import annotations

import math
from functools import cache

from .constants import PPT_TOL
from .errors import ContractError
from .measures import PPTVerdict, x_verdict

__all__ = ["OUTCOME_ORDER", "PAIR_KEYS", "branch_probabilities", "table_verdicts"]

# Machine-measurement outcomes in fixed report order: (Alice, Bob).
OUTCOME_ORDER: tuple[tuple[str, str], ...] = (
    ("Q0", "Q0"),
    ("Q0", "Q1"),
    ("Q1", "Q0"),
    ("Q1", "Q1"),
)

# Marginals the sweep and report tooling works with, in report order.
PAIR_KEYS = ("12", "15", "34", "36", "25", "46", "23", "35", "14", "16")


# The X-state coefficients of every pair marginal, as exact integers. One
# line per pair key, in the table's row order: the key, 1296*(diag G00,
# G00[1,2]), 1296*(diag G11, G11[1,2]) and 1296^2*|G01[0,3]|^2. Every other
# entry of the pair's blocks is 0. Branch None is the first round with the
# machines traced out, whose pairs are those on qubits 1 to 4.
_PAIR_INTEGERS = {
    ("Q0", "Q0"): """
        12   480  96   0   0   0    12  60  60  12  48        0
        15   480  96   0   0   0    12  60  60  12  48        0
        34   480  96   0   0   0    12  60  60  12  48        0
        36   480  96   0   0   0    12  60  60  12  48        0
        25   384  96  96   0  96    48  24  24  48  24        0
        46   384  96  96   0  96    48  24  24  48  24        0
        23   480   0  96   0   0    36  36  36  36   0     9216
        35   480  96   0   0   0    36  36  36  36   0     9216
        14   480  96   0   0   0    36  36  36  36   0     9216
        16   480  96   0   0   0    36  36  36  36   0     9216
    """,
    ("Q0", "Q1"): """
        12   240  48   0   0   0    24 120 120  24  96        0
        15   240  48   0   0   0    24 120 120  24  96        0
        34    24 120 120  24  96     0   0  48 240   0        0
        36    24 120 120  24  96     0   0  48 240   0        0
        25   192  48  48   0  48    96  48  48  96  48        0
        46    96  48  48  96  48     0  48  48 192  48        0
        23   120 120  24  24   0     0 144   0 144   0     9216
        35   120  24 120  24   0     0   0 144 144   0     9216
        14   144 144   0   0   0    24 120  24 120   0     9216
        16   144 144   0   0   0    24 120  24 120   0     9216
    """,
    ("Q1", "Q0"): """
        12    24 120 120  24  96     0   0  48 240   0        0
        15    24 120 120  24  96     0   0  48 240   0        0
        34   240  48   0   0   0    24 120 120  24  96        0
        36   240  48   0   0   0    24 120 120  24  96        0
        25    96  48  48  96  48     0  48  48 192  48        0
        46   192  48  48   0  48    96  48  48  96  48        0
        23   144   0 144   0   0    24  24 120 120   0     9216
        35   144 144   0   0   0    24 120  24 120   0     9216
        14   120  24 120  24   0     0   0 144 144   0     9216
        16   120  24 120  24   0     0   0 144 144   0     9216
    """,
    ("Q1", "Q1"): """
        12    12  60  60  12  48     0   0  96 480   0        0
        15    12  60  60  12  48     0   0  96 480   0        0
        34    12  60  60  12  48     0   0  96 480   0        0
        36    12  60  60  12  48     0   0  96 480   0        0
        25    48  24  24  48  24     0  96  96 384  96        0
        46    48  24  24  48  24     0  96  96 384  96        0
        23    36  36  36  36   0     0  96   0 480   0     9216
        35    36  36  36  36   0     0   0  96 480   0     9216
        14    36  36  36  36   0     0   0  96 480   0     9216
        16    36  36  36  36   0     0   0  96 480   0     9216
    """,
    None: """
        12   864 216 216   0 216     0 216 216 864 216        0
        34   864 216 216   0 216     0 216 216 864 216        0
        23   900 180 180  36   0    36 180 180 900   0   331776
        14   900 180 180  36   0    36 180 180 900   0   331776
    """,
}


# The swap stage's input, branch Q0Q0's marginal on qubits (3, 2, 5), as
# exact integers: 1296 times every nonzero entry of its Gram blocks G00,
# G01 and G11, which are all real. Each entry is four tokens: the block, the
# row, the column and the integer; a line holds entries of one block.
_RHO325_INTEGERS = """
    00 0 0 384    00 1 1  96    00 1 2  96    00 2 1  96    00 2 2  96
    01 0 5  48    01 0 6  48    01 1 7  48    01 2 7  48
    11 0 0  24    11 1 1  12    11 1 2  12    11 2 1  12    11 2 2  12    11 3 3  24
    11 4 4  24    11 5 5  12    11 5 6  12    11 6 5  12    11 6 6  12    11 7 7  24
"""


def _as_branch(branch) -> tuple[str, str] | None:
    """A machine branch as a pair of outcome names; None, the first round
    with the machines traced out, stays None."""
    if branch is None:
        return None
    pair = tuple(str(x) for x in branch)
    if pair not in OUTCOME_ORDER:
        raise ValueError(f"unknown machine branch {branch!r}")
    return pair


def _x_forms(row) -> tuple[tuple[int, ...], ...]:
    """A table row's a, b, c, d as linear forms (u, v), u + v*x, and |z|^2,
    |w|^2 as quadratics (c0, c1, c2), c0 + c1*x + c2*x^2: the entries of
    the marginal times 1296 times its trace."""
    a, b, c, d, z = ((g11, g00 - g11) for g00, g11 in zip(row[:5], row[5:10]))
    return a, b, c, d, _times(z, z), (0, row[10], -row[10])


def _times(p, q) -> tuple[int, int, int]:
    """The product of linear forms, a quadratic."""
    return p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1]


def _minus(f, g) -> tuple[int, int, int]:
    return f[0] - g[0], f[1] - g[1], f[2] - g[2]


def _nonnegative(f) -> bool:
    """Whether the quadratic f is >= 0 on all of [0, 1]: at both ends, and
    at its vertex -c1 / (2 c2) where that is a minimum inside."""
    c0, c1, c2 = f
    if c0 < 0 or c0 + c1 + c2 < 0:
        return False
    return not 0 < -c1 < 2 * c2 or 4 * c0 * c2 >= c1 * c1


def _is_state(row) -> bool:
    """Whether a table row is a state at every x in [0, 1]: its diagonal
    nonnegative, its trace positive, and rho's blocks [[a, w], [w*, d]] and
    [[b, z], [z, c]] of nonnegative determinant."""
    a, b, c, d, z2, w2 = _x_forms(row)
    return (min(row[:4] + row[5:9] + row[10:]) >= 0 and sum(row[:4]) > 0 and sum(row[5:9]) > 0
            and _nonnegative(_minus(_times(a, d), w2)) and _nonnegative(_minus(_times(b, c), z2)))


@cache
def _pair_integers(branch: tuple[str, str] | None) -> dict[str, tuple[int, ...]]:
    """The eleven integers of each pair key of _PAIR_INTEGERS[branch], in
    line order: the one parse of the tables. ContractError unless every
    row is a state on all of [0, 1] (_is_state)."""
    tokens = _PAIR_INTEGERS[branch].split()
    numbers = list(map(int, tokens))
    rows = {tokens[i]: tuple(numbers[i + 1:i + 12]) for i in range(0, len(tokens), 12)}
    for row in set(rows.values()):
        if not _is_state(row):
            key = next(key for key, other in rows.items() if other == row)
            raise ContractError(f"pair table {branch}: row {key} is not a state on all of [0, 1]")
    return rows


@cache
def _pair_coefficients(branch: tuple[str, str] | None) -> dict[tuple[int, ...], tuple[float, ...]]:
    """The X-state coefficients of each distinct row of a branch's table,
    each integer divided once: diag G00 and G00[1,2] over 1296, the same of
    G11, and |G01[0,3]|^2 over 1296^2."""
    return {
        row: tuple(n / 1296.0 for n in row[:10]) + (row[10] / 1679616.0,)
        for row in _pair_integers(branch).values()
    }


@cache
def _rho325_entries() -> dict[str, dict[tuple[int, int], int]]:
    """The entries of _RHO325_INTEGERS as {block: {(row, column): integer}}
    for the blocks "00", "01" and "11": the one parse of the table.
    ContractError unless G00 and G11 are symmetric with the traces of the
    branch's pair table, 1296 tr G00 and 1296 tr G11."""
    tokens = _RHO325_INTEGERS.split()
    entries: dict[str, dict[tuple[int, int], int]] = {"00": {}, "01": {}, "11": {}}
    for i in range(0, len(tokens), 4):
        entries[tokens[i]][int(tokens[i + 1]), int(tokens[i + 2])] = int(tokens[i + 3])
    row = next(iter(_pair_integers(("Q0", "Q0")).values()))
    for block, trace in (("00", sum(row[:4])), ("11", sum(row[5:9]))):
        g = entries[block]
        if any(g.get((j, i), 0) != n for (i, j), n in g.items()) or sum(g.get((i, i), 0) for i in range(8)) != trace:
            raise ContractError("rho325 table: G00 and G11 must be symmetric with the pair table's traces")
    return entries


def _amplitudes(alpha2) -> tuple[float, float]:
    """alpha and |beta| at the alpha^2 value alpha2 in [0, 1], as
    build_initial forms them, so that every route shares the input's
    rounding: alpha*alpha + beta*beta is 1 only to roundoff."""
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError(f"alpha2 must be a number or a 1-D array in [0, 1], got {alpha2!r}")
    alpha = math.sqrt(alpha2)
    return alpha, math.sqrt(1.0 - alpha * alpha)


def _row_verdicts(coefficients, points) -> tuple[tuple, ...]:
    """x_verdict of one table row at each point (alpha^2, beta^2,
    (alpha beta)^2), as five tuples: the verdict's four fields and the
    concurrence."""
    a0, b0, c0, d0, z0, a1, b1, c1, d1, z1, g2 = coefficients
    out = []
    for aa, bb, ab2 in points:
        a = a0 * aa + a1 * bb
        b = b0 * aa + b1 * bb
        c = c0 * aa + c1 * bb
        d = d0 * aa + d1 * bb
        trace = a + b + c + d
        z = (z0 * aa + z1 * bb) / trace
        out.append(x_verdict(a / trace, b / trace, c / trace, d / trace, z * z, g2 * ab2 / (trace * trace)))
    return tuple(zip(*out)) if out else ((),) * 5


def table_verdicts(alpha2, branch, keys) -> tuple[PPTVerdict, list]:
    """PPT verdicts and concurrences of the pair marginals `keys` (from
    PAIR_KEYS) of one branch at each alpha^2 of the sequence alpha2, in
    [0, 1]; branch None is the first round with the machines traced out,
    whose pairs are those on qubits 1 to 4.

    Each field of the verdict, and the concurrences, is a list with one
    sequence per key of one entry per point. Keys with the same table row
    share one evaluation, and so their sequences. Every entry is
    measures.x_verdict of the marginal's six X-state reals, which equal the
    entries of branch_marginal(alpha2, branch, key) to roundoff, at any
    phase.
    """
    coefficients = _pair_coefficients(_as_branch(branch))
    table = _pair_integers(_as_branch(branch))
    keys = [str(key) for key in keys]
    unknown = [key for key in keys if key not in table]
    if unknown:
        raise ValueError(f"pair_verdicts: unknown pairs {unknown} (choose from {', '.join(table)})")
    points = []
    for x in alpha2:
        alpha, beta = _amplitudes(float(x))
        ab = alpha * beta
        points.append((alpha * alpha, beta * beta, ab * ab))
    rows = {row: _row_verdicts(coefficients[row], points) for row in {table[key] for key in keys}}
    columns = [[rows[table[key]][i] for key in keys] for i in range(5)]
    return PPTVerdict(*columns[:4]), columns[4]


def branch_probabilities(alpha2: float) -> dict[tuple[str, str], float]:
    """Machine outcome distribution at the input weight alpha2 in [0, 1]:
    x*tr G00 + (1 - x)*tr G11 at x = alpha2, which no phase moves. 1296
    times each trace is the diagonal sum of a half row of the branch's pair
    table (every row has the same), an integer, and the integers meet
    before the one division: 5/18 or 2/9, correctly rounded, at 1/2."""
    x = float(alpha2)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"alpha2 must be in [0, 1], got {alpha2!r}")
    rows = {b: next(iter(_pair_integers(b).values())) for b in OUTCOME_ORDER}
    return {b: (x * sum(row[:4]) + (1.0 - x) * sum(row[5:9])) / 1296 for b, row in rows.items()}


@cache
def _pair_signs(branch: tuple[str, str] | None) -> tuple[tuple[tuple[int, int, int], ...], dict[str, tuple[int, int]]]:
    """The distinct integer quadratics (c0, c1, c2) of a branch's partial
    transpose blocks, and each pair key's two, as indices into them.

    A pair is entangled at x where either is negative: a block
    [[P, U], [U*, Q]] of 1296*T times the partial transpose (T the trace)
    has an eigenvalue below -t*T, t = PPT_TOL, exactly when
    (P + t*T)(Q + t*T) < |U|^2, since P, Q >= 0. With t = tn/td, td^2 times
    that difference is the quadratic.
    """
    tn, td = PPT_TOL.as_integer_ratio()
    quads: dict[tuple[int, int, int], int] = {}
    pairs = {}
    for key, row in _pair_integers(branch).items():
        a, b, c, d, z2, w2 = _x_forms(row)
        t = [tn * (a[i] + b[i] + c[i] + d[i]) for i in (0, 1)]
        a, b, c, d = ((td * p[0] + t[0], td * p[1] + t[1]) for p in (a, b, c, d))
        fz = _minus(_times(a, d), [td * td * k for k in z2])
        fw = _minus(_times(b, c), [td * td * k for k in w2])
        pairs[key] = tuple(quads.setdefault(f, len(quads)) for f in (fz, fw))
    return tuple(quads), pairs
