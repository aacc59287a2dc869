"""Adapter from per-point test helpers to the stacked scan contract.

scan_predicate and scan_threshold call their argument with a 1-D array of
alpha^2 values. A helper written for one value at a time is lifted with
`pointwise`: it is called once per value, and its results are stacked.
"""
import numpy as np

from qbroadcast import DensityOp


def pointwise(f):
    """Stacked form of f, which maps one alpha^2 to a bool or a DensityOp."""

    def stacked(xs):
        out = [f(float(x)) for x in xs]
        if isinstance(out[0], DensityOp):
            return DensityOp(out[0].register, np.stack([rho.matrix for rho in out]))
        return np.array(out, dtype=bool)

    return stacked
