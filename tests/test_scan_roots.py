"""What a printed scan edge locates, checked with sympy: the root of a
pair's partial-transpose quadratic shifted by PPT_TOL's dead band, within
tol, and so an algebraic threshold of the protocol within tol + 1e-9."""
import pytest

import qbroadcast.scan as scan_module
import qbroadcast.tables as tables_module
from qbroadcast.cloner import OUTCOME_ORDER
from qbroadcast.protocol import branch_scan

sp = pytest.importorskip("sympy")

X = sp.Symbol("x")

# The thresholds the printed rows cross: the published forms, and rho46's
# on the branches Q0Q1, Q1Q0 and Q1Q1.
FORMS = [
    sp.Rational(3, 11), sp.Rational(9, 49), sp.Rational(1, 3), sp.Rational(2, 3), sp.Rational(2, 5),
    sp.Rational(3, 5), sp.Rational(8, 11), sp.Rational(40, 49), (9 + 8 * sp.sqrt(3)) / 37,
    sp.Rational(1, 2) - sp.sqrt(39) / 16, sp.Rational(1, 2) + sp.sqrt(39) / 16,
    sp.sqrt(3) / 2, 1 - sp.sqrt(3) / 2, (28 - 8 * sp.sqrt(3)) / 37,
]

# The rows thresholds, branches, baseline and report print.
PRINTED = ("14:entangled", "16:entangled", "46:entangled", "12:separable", "broadcast", "closed-146")


def _roots(poly) -> list:
    """The real roots in (0, 1) of a polynomial in X, exactly."""
    return [r for r in sp.Poly(poly, X).real_roots() if 0 < r < 1]


def _algebraic(row) -> list:
    """The roots of the pair's two block determinants at PPT_TOL = 0:
    A*D - Z^2 and B*C - x(1 - x)g from the row's integers."""
    a, b, c, d, z = (g11 + (g00 - g11) * X for g00, g11 in zip(row[:5], row[5:10]))
    return _roots(sp.expand(a * d - z * z)) + _roots(sp.expand(b * c - X * (1 - X) * row[10]))


@pytest.mark.parametrize("branch", [*OUTCOME_ORDER, None])
def test_printed_edges_are_shifted_roots_of_the_algebraic_thresholds(branch):
    tol = 1e-12
    names = PRINTED if branch else ("14:entangled",)
    quads, pairs = tables_module._pair_signs(branch)
    table = tables_module._pair_integers(branch)
    forms = [sp.N(f, 30) for f in FORMS]
    checked = 0
    for name, intervals in branch_scan(branch, names, tol=tol).items():
        keys = sum(scan_module._scan_row(name, pairs), ())
        shifted = [sp.N(r, 30) for key in keys for q in pairs[key] for r in _roots(sum(
            c * X**i for i, c in enumerate(quads[q])))]
        algebraic = [sp.N(r, 30) for key in keys for r in _algebraic(table[key])]
        edges = [e for iv in intervals for e in (iv.lo, iv.hi) if e not in (0.0, 1.0)]
        checked += len(edges)
        for e in edges:
            assert min(abs(e - r) for r in shifted) <= tol, (name, e)
            near = min(algebraic, key=lambda r: abs(e - r))
            assert abs(e - near) <= tol + 1e-9, (name, e)
            assert min(abs(near - f) for f in forms) < 1e-25, (name, near)
    assert checked
