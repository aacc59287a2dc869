"""Property test of the scan's bisection: on random interval predicates,
scan_predicates finds the edges the one-step reference loop finds, bit for
bit, at any grid and tolerance."""
import numpy as np
import pytest

from qbroadcast import scan_predicates
from reference import on_reference

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CHECKS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def _interval_rows(draw):
    """Rows that flip at cut points drawn from one shared pool, so that rows
    can share edges; a row with no cuts is constant."""
    pool = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=8))
    rows = draw(st.lists(st.tuples(st.booleans(), st.sets(st.sampled_from(pool), max_size=6)), min_size=1, max_size=5))
    return [(start, np.array(sorted(cuts))) for start, cuts in rows]


@CHECKS
@given(
    rows=_interval_rows(),
    grid=st.integers(50, 5000),
    tol=st.sampled_from([5e-324, 1e-300, 1e-9, 1e-4, 0.5]),
)
def test_scans_find_the_one_step_edges(rows, grid, tol):
    def test(xs):
        return np.stack([(np.searchsorted(cuts, xs) % 2 == 1) != start for start, cuts in rows])

    names = [f"row{i}" for i in range(len(rows))]
    scans = scan_predicates(test, names, grid, tol)
    expected = on_reference(scan_predicates, test, names, grid, tol)
    assert {name: [(iv.lo.hex(), iv.hi.hex()) for iv in ivs] for name, ivs in scans.items()} == {
        name: [(iv.lo.hex(), iv.hi.hex()) for iv in ivs] for name, ivs in expected.items()
    }
