"""Property test of the scan: on any of the five pair tables, at any grid
and tolerance, scan.branch_scan finds the edges the reference exact
scan finds, bit for bit."""
import pytest

from qbroadcast.protocol import PAIR_KEYS, branch_scan
from reference import exact_scan

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CHECKS = settings(max_examples=20, deadline=None, database=None, derandomize=True)


def _ends(scans):
    return {name: [(iv.lo.hex(), iv.hi.hex()) for iv in ivs] for name, ivs in scans.items()}


@CHECKS
@given(
    branch=st.sampled_from([("Q0", "Q0"), ("Q0", "Q1"), ("Q1", "Q0"), ("Q1", "Q1"), None]),
    grid=st.integers(50, 600),
    tol=st.sampled_from([5e-324, 1e-300, 1e-12, 1e-9, 1e-4, 0.5]),
)
def test_branch_scan_finds_the_reference_edges(branch, grid, tol):
    keys = PAIR_KEYS if branch else [key for key in PAIR_KEYS if set(key) <= set("1234")]
    names = [f"{key}:{p}" for key in keys for p in ("entangled", "separable")]
    names += ["broadcast", "closed-146"] if branch else []
    assert _ends(branch_scan(branch, names, grid, tol)) == _ends(exact_scan(branch, names, grid, tol))
