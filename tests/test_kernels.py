"""The numpy fronts of the library and the standard-library kernels the CLI
runs: each front gives the kernel's bits, and each kernel the bits of the
numpy route it replaced (kept in tests/reference.py), where the arithmetic
is the same. The one exception is eof, on libm's log2 now.
"""
import math

import numpy as np
import pytest

import qbroadcast.scan as scan_module
from qbroadcast import GvConfig, eof, pair_verdicts, transmit_bits
from qbroadcast.cli import run_command
from qbroadcast.entanglement import _x_verdict
from qbroadcast.measures import eof as scalar_eof
from qbroadcast.measures import x_verdict
from qbroadcast.tables import OUTCOME_ORDER, _pair_integers, table_verdicts
from reference import eof_array, numpy_pair_verdicts, numpy_transmit_bits, x_verdict_arrays

BRANCHES = (*OUTCOME_ORDER, None)
XS = np.concatenate([np.linspace(0.0, 1.0, 101), [5e-324, 1e-300, 1e-9, 0.5, 1.0 - 2.0**-53]])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: "".join(b) if b else "first-round")
def test_pair_verdicts_are_the_per_point_kernel_bit_for_bit(branch):
    keys = list(_pair_integers(branch))
    verdict, conc = pair_verdicts(XS, branch, keys)
    listed, listed_conc = table_verdicts(XS.tolist(), branch, keys)
    for k, key in enumerate(keys):
        for j, x in enumerate(XS.tolist()):
            # the pair's six X-state reals, formed as the table route forms them
            row = _pair_integers(branch)[key]
            alpha = math.sqrt(x)
            beta = math.sqrt(1.0 - alpha * alpha)
            a, b, c, d, z = (u / 1296.0 * (alpha * alpha) + v / 1296.0 * (beta * beta)
                             for u, v in zip(row[:5], row[5:10]))
            t = a + b + c + d
            z = z / t
            l0, w3, w4, entangled, point_conc = x_verdict(
                a / t, b / t, c / t, d / t, z * z, row[10] / 1679616.0 * ((alpha * beta) * (alpha * beta)) / (t * t))
            got = (verdict.min_pt_eigenvalue[k, j], verdict.w3[k, j], verdict.w4[k, j], conc[k, j])
            assert _bits(got).tolist() == _bits((l0, w3, w4, point_conc)).tolist(), (key, x)
            assert verdict.entangled[k, j] == entangled
            assert listed.w4[k][j] == w4 and listed_conc[k][j] == point_conc


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: "".join(b) if b else "first-round")
def test_pair_verdicts_have_the_bits_of_the_numpy_route(branch):
    keys = list(_pair_integers(branch))
    verdict, conc = pair_verdicts(XS, branch, keys)
    want, want_conc = numpy_pair_verdicts(XS, branch, keys)
    for got, expected in zip((*verdict, conc), (*want, want_conc)):
        assert np.array_equal(_bits(got), _bits(expected))


def test_x_verdict_front_has_the_bits_of_the_numpy_arrays():
    # random X-states, and ones with zero entries and equal diagonals
    rng = np.random.default_rng(7)
    a, b, c, d = rng.uniform(0.0, 1.0, (4, 2000))
    a[:100] = 0.0
    b[100:200] = c[100:200]
    z2 = rng.uniform(0.0, 1.0, 2000) * b * c
    w2 = rng.uniform(0.0, 1.0, 2000) * a * d
    z2[200:300] = 0.0
    got, got_conc = _x_verdict(a, b, c, d, z2, w2)
    want, want_conc = x_verdict_arrays(a, b, c, d, z2, w2)
    for g, w in zip((*got, got_conc), (*want, want_conc)):
        assert np.array_equal(_bits(g), _bits(w))


def test_eof_front_is_the_scalar_kernel_and_numpy_log2_within_an_ulp():
    cs = np.concatenate([[0.0, 1.0, 5e-324, 1e-8, 0.5], np.random.default_rng(3).uniform(0.0, 1.0, 5000)])
    got = eof(cs)
    assert np.array_equal(_bits(got), _bits([scalar_eof(c) for c in cs.tolist()]))
    assert eof(0.3) == scalar_eof(0.3) and isinstance(eof(np.float64(0.3)), float)
    # numpy's log2 may be a SIMD routine that differs from libm's in the
    # last bit; the entropies agree to a few ulps
    assert np.max(np.abs(got - eof_array(cs))) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 7, 63, 257, 1001])
@pytest.mark.parametrize("trials", [1, 2, 5, 1000])
def test_transmit_bits_equals_the_numpy_channel(n, trials):
    pattern = np.random.default_rng(n * trials).integers(0, 2, n)
    for seed in (0, 5, 2**40):
        config = GvConfig(trials=trials, seed=seed)
        want = numpy_transmit_bits(pattern, "intercept_resend", config)
        for bits in (pattern, pattern.astype(bool), pattern.tolist(), bytes(pattern.tolist())):
            assert transmit_bits(bits, "intercept_resend", config) == want
        assert transmit_bits(pattern, "none", config) == numpy_transmit_bits(pattern, "none", config)


def test_transmit_bits_equals_the_numpy_channel_on_a_million_bits():
    pattern = (np.arange(10**6) % 2).astype(bool)
    config = GvConfig(seed=11)
    want = numpy_transmit_bits(pattern, "intercept_resend", config)
    assert want.bits_sent == 10**6
    assert transmit_bits(pattern, "intercept_resend", config) == want
    assert transmit_bits((b"\x00\x01" * 500000), "intercept_resend", config) == want


def test_branches_searches_each_distinct_quadratic_once(capsys):
    # the four branches' tables hold 34 quadratics, 23 of them distinct
    # (Q0Q1 and Q1Q0 share 11): a cold `branches` makes 23 searches, and a
    # second run none, with the same bytes
    scan_module._sign_changes.cache_clear()
    assert run_command(["branches"]) == 0
    first = capsys.readouterr().out
    info = scan_module._sign_changes.cache_info()
    assert (info.misses, info.hits) == (23, 11)
    assert run_command(["branches"]) == 0
    assert capsys.readouterr().out == first
    assert scan_module._sign_changes.cache_info().misses == 23
