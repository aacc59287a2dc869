"""Per-layer tracing from outside the package.

`install` rebinds the public functions of the traced modules to wrappers
that open a span around each call. Every `qbroadcast.*` namespace holding
the function object is rebound, because `from .linalg import eig_hermitian`
makes a binding of its own and intra-module calls go through the defining
module's globals. Self time of a span is its duration minus the time its
child spans cover, kept on a span stack.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "qstate", "cloner", "protocol", "entanglement", "swap", "gvchannel", "cli")
# Trivial helpers stay unwrapped: wrapping them roughly doubles the cost of
# the calls they sit in and tells nothing about where time goes.
UNWRAPPED = frozenset({"dagger", "kron", "bh_isometry"})


class SpanStats:
    """Call counts, self times and extra counters accumulated from spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []  # [name, start, time covered by children]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def as_dict(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}


def _eig_span(args, kwargs) -> str:
    a = args[0] if args else kwargs["a"]
    return f"linalg.eig_hermitian.n{len(a)}"


def _count_points(stats: SpanStats, args, kwargs):
    """Wrap the `test` argument of scan_predicate to count scan points."""
    if args:
        test, rest = args[0], args[1:]
    else:
        test, rest = kwargs.pop("test"), ()

    def counted(x):
        stats.counts["entanglement.scan.points"] += 1
        return test(x)

    return (counted,) + tuple(rest), kwargs


def _count_bytes_in(stats: SpanStats, args, kwargs):
    rho = args[0] if args else kwargs["rho"]
    stats.counts["qstate.partial_trace.bytes_in"] += rho.matrix.nbytes
    return args, kwargs


def _count_bits(stats: SpanStats, result) -> None:
    stats.counts["gvchannel.transmit_bits.bits"] += result.bits_sent


_SPAN_NAME = {"linalg.eig_hermitian": _eig_span}
_BEFORE = {"entanglement.scan_predicate": _count_points, "qstate.partial_trace": _count_bytes_in}
_AFTER = {"gvchannel.transmit_bits": _count_bits}


def _wrap(stats: SpanStats, name: str, fn):
    span_name = _SPAN_NAME.get(name)
    before = _BEFORE.get(name)
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(stats, args, kwargs)
        stats.enter(span_name(args, kwargs) if span_name else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            stats.exit()
        if after is not None:
            after(stats, result)
        return result

    return traced


def install(stats: SpanStats) -> list[str]:
    """Wrap the traced functions in every loaded qbroadcast namespace.

    Returns the span names installed. DensityOp construction is traced by
    wrapping `DensityOp.__post_init__`, so the class itself is untouched.
    """
    modules = {layer: importlib.import_module(f"qbroadcast.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items() if n == "qbroadcast" or n.startswith("qbroadcast.")]
    installed = []
    for layer, mod in modules.items():
        for fname in mod.__all__:
            fn = getattr(mod, fname)
            if fname in UNWRAPPED or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{fname}"
            wrapped = _wrap(stats, name, fn)
            for ns in namespaces:
                for attr in [a for a, v in vars(ns).items() if v is fn]:
                    setattr(ns, attr, wrapped)
            installed.append(name)
    density = modules["qstate"].DensityOp
    density.__post_init__ = _wrap(stats, "qstate.DensityOp", density.__post_init__)
    installed.append("qstate.DensityOp")
    return installed
