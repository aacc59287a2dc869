"""The swap stage's correction plans: the Pauli word that hands Carol
qubit 2's role after each Bell outcome, searched over all 64 three-qubit
words, and the fidelity each plan reaches, on Python numbers.

By the teleportation identity (swap.bell_outcomes) outcome k leaves the
recovery target T conjugated by the Pauli word SIGMA[k], so a correction
word W turns it into V T V^dagger with V = W SIGMA[k]. Up to a phase, a
product of Pauli words is the word of the XOR of their (x, z) bits, and a
word with x bits X and z bits Z moves entry (r, c) of an operator from
(r ^ X, c ^ X) and multiplies it by (-1)^|(r ^ c) & Z|: a signed
permutation, exact in floats. So every residual max|V T V^dagger - T| is
exact, and only an inexact plan needs a fidelity.

_scored_plans is the one search: swap.correction_plans runs it on any
rho325 and scores the inexact plans with linalg.fidelity. The CLI's route,
_swap_plans, takes branch Q0Q0's targets straight from the rho325 table
(tables._RHO325_INTEGERS). There T is block diagonal on {0, 5, 6},
{7, 1, 2}, {3} and {4}, with rows 5 and 6, and rows 1 and 2, equal: each
3 x 3 block has rank 2, on e_i and (e_j + e_k)/sqrt 2. The only inexact
plan, published B1+, is a diagonal sign conjugate of T with the same
blocks, so its fidelity sums closed forms of 2 x 2 blocks (_block_fidelity).
"""
from __future__ import annotations

import itertools
import math
from functools import cache

from .errors import ContractError
from .tables import _amplitudes, _rho325_entries

__all__ = ["BELL_ORDER", "SIGMA", "PUBLISHED_WORDS", "WORDS"]

BELL_ORDER = ("B1+", "B1-", "B2+", "B2-")

# The Pauli word on (3, 5, 7) that each outcome's post state is the target
# conjugated by.
SIGMA = {"B1+": "iiy", "B1-": "iix", "B2+": "iiz", "B2-": "iii"}

# The published correction set, as Pauli words on (3, 5, 7).
PUBLISHED_WORDS = {"B1+": "izx", "B1-": "iix", "B2+": "iiz", "B2-": "iii"}

# All 64 words on (3, 5, 7) in search order: lexicographic in i < x < y < z,
# qubit 3 first, which is also the most significant bit of an index.
WORDS = tuple("".join(word) for word in itertools.product("ixyz", repeat=3))

# The (x, z) bits of each word as the masks X and Z of the indices it acts
# on (qubit 3 the most significant bit), the word of each (X, Z), and
# whether (-1)^|d & Z| is -1 for each d. Words multiply, up to a phase, by
# XOR of their masks.
_MASKS = tuple(
    tuple(sum((letter in bits) << (2 - q) for q, letter in enumerate(word)) for bits in ("xy", "yz"))
    for word in WORDS
)
_BY_MASKS = {masks: w for w, masks in enumerate(_MASKS)}
_ODD = tuple(tuple(bin(d & z).count("1") % 2 == 1 for d in range(8)) for z in range(8))


def _times(w: int, v: int) -> int:
    """The word of WORDS[w] WORDS[v], up to a phase."""
    (x, z), (y, u) = _MASKS[w], _MASKS[v]
    return _BY_MASKS[x ^ y, z ^ u]


# A residual max|V T V^dagger - T| at or below this makes V T V^dagger the
# target to roundoff: fidelity 1.0, with no solve.
_EXACT = 1e-12


def _conjugate(t: list, w: int) -> list:
    """V T V^dagger for the word V = WORDS[w], T a row-major list of 64
    entries: each entry moved, and negated where its sign is -1."""
    x, z = _MASKS[w]
    odd = _ODD[z]
    out = []
    for e in range(64):
        r, c = e >> 3, e & 7
        v = t[(r ^ x) << 3 | (c ^ x)]
        out.append(-v if odd[r ^ c] else v)
    return out


def _residuals(t: list) -> list[float]:
    """r(V) = max|V T V^dagger - T| for each word V, in search order.

    Words with the same X move T's entries alike; at an entry (r, c) the
    sign is fixed by r ^ c and Z. So for each X the largest |P - T| and
    |P + T| (P the moved T) of each class r ^ c are found once, over the
    entries where T or P is nonzero, and each Z takes the maximum of its
    classes' values."""
    support = [e for e in range(64) if t[e]]
    out = [0.0] * 64
    for x in range(8):
        moves = {(e >> 3 ^ x) << 3 | (e & 7 ^ x) for e in support}
        even, odd = [0.0] * 8, [0.0] * 8
        for e in moves.union(support):
            p, v, d = t[(e >> 3 ^ x) << 3 | (e & 7 ^ x)], t[e], e >> 3 ^ e & 7
            plus, minus = abs(p - v), abs(p + v)
            if plus > even[d]:
                even[d] = plus
            if minus > odd[d]:
                odd[d] = minus
        for z in range(8):
            out[_BY_MASKS[x, z]] = max([odd[d] if sign else even[d] for d, sign in enumerate(_ODD[z])])
    return out


def _scored_plans(targets, sources: tuple[str, ...], score) -> list[dict]:
    """{source: {outcome label: (word, fidelity)}} at each target T, a
    row-major list of 64 entries: the word of each source for each Bell
    outcome, with the fidelity it reaches.

    Each point's 64 word residuals r(V) = max|V T V^dagger - T| are
    computed once. The derived word of outcome k is the first word W, in
    search order, whose r(W SIGMA[k]) lies within 1e-12 of the smallest
    (the first word when none does, as with a negative bound):
    the parity symmetry of rho325 makes two words exact, and the tie goes
    to the first. A plan whose r is at most 1e-12 has fidelity 1.0, since
    then F >= 1 - 8 sqrt(8) r > 1 - 2.3e-11 (Fuchs-van de Graaf, with the
    trace norm of an 8 x 8 difference at most 8 sqrt(8) times its largest
    entry); the others are scored in one call score(targets, states) on
    two lists of them. A derived word with r above 1e-12 is a
    ContractError, since the shared resource is a maximally entangled pair.
    """
    if not set(sources) <= {"derived", "published"}:
        raise ValueError(f"correction_plans: unknown sources in {sources!r}")
    sigma = [WORDS.index(SIGMA[label]) for label in BELL_ORDER]
    published = [WORDS.index(PUBLISHED_WORDS[label]) for label in BELL_ORDER]
    points, inexact = [], []
    for g, t in enumerate(targets):
        residuals = _residuals(t)
        cut = min(residuals) + _EXACT
        point = {}
        for source in sources:
            plans = point[source] = {}
            for label, s, fixed in zip(BELL_ORDER, sigma, published):
                if source == "derived":
                    word = next((w for w in range(64) if residuals[_times(w, s)] <= cut), 0)
                else:
                    word = fixed
                move = _times(word, s)
                if residuals[move] > _EXACT:
                    if source == "derived":
                        raise ContractError(
                            f"correction_plans: outcome {label}'s best word {WORDS[word]} leaves "
                            f"a residual {residuals[move]:.3e}, above {_EXACT}"
                        )
                    inexact.append((g, source, label, move))
                plans[label] = (WORDS[word], 1.0)
        points.append(point)
    if inexact:
        scores = score([targets[g] for g, *_ in inexact], [_conjugate(targets[g], move) for g, *_, move in inexact])
        for (g, source, label, _), f in zip(inexact, scores):
            points[g][source][label] = (points[g][source][label][0], f)
    return points


# The recovery target T on (3, 5, 7) is rho325 with qubit 2's role moved to
# qubit 7: T's index 4a + 2b + c is rho325's 4a + 2c + b on (3, 2, 5).
_TARGET_ORDER = (0, 2, 1, 3, 4, 6, 5, 7)

# T's blocks {0, 5, 6}, {7, 1, 2}, {3} and {4}, as a block number per index,
# and the rank-2 ones as (i, j, k), with rows j and k equal.
_BLOCK_OF = (0, 1, 1, 2, 3, 0, 0, 1)
_PAIRED = ((0, 5, 6), (7, 1, 2))
_OFF_BLOCKS = tuple(e for e in range(64) if _BLOCK_OF[e >> 3] != _BLOCK_OF[e & 7])


def _has_blocks(m: list) -> bool:
    """Whether the row-major 8 x 8 m is 0.0 off T's blocks and has rows j
    and k equal in each block (i, j, k) of _PAIRED."""
    return not any(m[e] for e in _OFF_BLOCKS) and all(
        m[8 * j:8 * j + 8] == m[8 * k:8 * k + 8] for _, j, k in _PAIRED
    )


@cache
def _target_blocks() -> tuple[tuple[float, ...], ...]:
    """1296 times G00, G11 and G01 + G01^T of the rho325 table in T's index
    order, each a row-major tuple of 64 floats (exact integers).
    ContractError unless all three have T's block structure, which
    _block_fidelity relies on."""
    entries = _rho325_entries()
    g01 = entries["01"]
    sym = {(i, j): g01.get((i, j), 0) + g01.get((j, i), 0) for i in range(8) for j in range(8)}
    blocks = tuple(
        tuple(float(g.get((_TARGET_ORDER[e >> 3], _TARGET_ORDER[e & 7]), 0)) for e in range(64))
        for g in (entries["00"], entries["11"], sym)
    )
    if not all(map(_has_blocks, blocks)):
        raise ContractError("rho325 table: the recovery target must be block diagonal with equal paired rows")
    return blocks


def _table_targets(alpha2) -> list[list[float]]:
    """The recovery targets at each alpha^2 of the sequence alpha2, as
    row-major lists of 64 floats: the rho325 table's combination taken in
    T's index order over its trace, bitwise
    recovery_target(protocol._rho325(alpha2)).matrix."""
    g00, g11, g01 = _target_blocks()
    targets = []
    for x in alpha2:
        alpha, beta = _amplitudes(float(x))
        aa, bb, ab = alpha * alpha, beta * beta, alpha * beta
        mat = [aa * u + bb * v + ab * w for u, v, w in zip(g00, g11, g01)]
        d = mat[::9]
        # the diagonal summed in numpy's pairwise order for eight entries
        trace = ((d[0] + d[1]) + (d[2] + d[3])) + ((d[4] + d[5]) + (d[6] + d[7]))
        targets.append([m / trace for m in mat])
    return targets


def _block_fidelity(t: list, s: list) -> float:
    """Uhlmann fidelity F(T, S) of two row-major 8 x 8 operators with T's
    block structure, in closed form: the square root of F adds over
    blocks, and a 2 x 2 pair A, B has F = tr AB + 2 sqrt(det A det B)
    (Jozsa, J. Mod. Opt. 41, 2315 (1994)). So, with A_b and B_b the rank-2
    blocks of T and S compressed onto e_i and (e_j + e_k)/sqrt 2,

        F = (sum_b sqrt(tr A_b B_b + 2 sqrt(det A_b det B_b))
             + sqrt(T_33 S_33) + sqrt(T_44 S_44))^2.

    ContractError if S lacks the structure (T has it by _target_blocks).
    """
    if not _has_blocks(s):
        raise ContractError("swap plans: a corrected state leaves the recovery target's blocks")
    roots = math.sqrt(t[27].real * s[27].real) + math.sqrt(t[36].real * s[36].real)
    for i, j, _ in _PAIRED:
        # A = [[T_ii, sqrt2 T_ij], [., 2 T_jj]], and B likewise from S
        (ti, tij, tj), (si, sij, sj) = ((m[9 * i].real, m[8 * i + j], m[9 * j].real) for m in (t, s))
        trace = ti * si + 4.0 * ((tij * sij.conjugate()).real + tj * sj)
        ht, hs = abs(tij), abs(sij)
        dets = 4.0 * (ti * tj - ht * ht) * (si * sj - hs * hs)
        roots += math.sqrt(trace + 2.0 * math.sqrt(max(dets, 0.0)))
    return roots * roots


def _swap_plans(alpha2, sources) -> list[dict]:
    """The CLI's swap stage: the plans correction_plans finds for
    protocol._rho325(alpha2), {source: {label: (word, fidelity)}} at each
    alpha^2 of the sequence alpha2, from the rho325 table with no operator
    and no eigen-solve: _scored_plans on _table_targets, scoring the
    inexact plans by _block_fidelity. Every Bell outcome has probability
    0.25, as in bell_outcomes."""
    def score(targets, states):
        return [_block_fidelity(t, s) for t, s in zip(targets, states)]

    return _scored_plans(_table_targets(alpha2), tuple(sources), score)
