"""Adapters from per-point test helpers to the stacked scan contract.

scan_predicates calls its test with a 1-D array of alpha^2 values. A helper
written for one value at a time is lifted with `pointwise`: it is called
once per value, and its results are stacked. scan_row and scan_family scan
one predicate as a one-row scan_predicates call.
"""
import numpy as np

from qbroadcast import DensityOp, ppt_verdict, scan_predicates
from qbroadcast.constants import SCAN_GRID, SCAN_TOL


def pointwise(f):
    """Stacked form of f, which maps one alpha^2 to a bool or a DensityOp."""

    def stacked(xs):
        out = [f(float(x)) for x in xs]
        if isinstance(out[0], DensityOp):
            return DensityOp(out[0].register, np.stack([rho.matrix for rho in out]))
        return np.array(out, dtype=bool)

    return stacked


def scan_row(test, grid=SCAN_GRID, tol=SCAN_TOL, name="predicate"):
    """Intervals where test, which maps alpha^2 values to booleans, holds."""
    return scan_predicates(lambda xs: np.asarray(test(xs))[None], (name,), grid, tol)[name]


def scan_family(family, predicate, grid=SCAN_GRID, tol=SCAN_TOL):
    """Intervals where the members of the two-qubit stack family(xs) are
    PPT-entangled (predicate "entangled") or not ("separable")."""
    return scan_row(lambda xs: ppt_verdict(family(xs)).entangled == (predicate == "entangled"), grid, tol, predicate)
