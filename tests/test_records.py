"""The record types: immutable named tuples, the four validating ones
checked through every construction route, and no dataclass machinery in the
package (a frozen dataclass execs generated code for each class at every
import).
"""
import ast
import copy
import inspect
import pickle
import pkgutil
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import qbroadcast
from qbroadcast.entanglement import ThresholdInterval
from qbroadcast.errors import ContractError
from qbroadcast.gvchannel import GvConfig, GvResult
from qbroadcast.qstate import DensityOp, PureState, Register, tensor

PACKAGE = Path(qbroadcast.__file__).parent
MODULES = [import_module(f"qbroadcast.{m.name}") for m in pkgutil.iter_modules([str(PACKAGE)])]

RECORDS = {
    "Settings", "Published", "BranchOutcome", "PPTVerdict", "ThresholdInterval", "GvResult",
    "DeliveryRecord", "EigenDecomposition", "ProtocolRun", "BellOutcome", "CorrectionPlan",
    "Register", "PureState", "DensityOp", "GvConfig",
}

PAIR = Register(("a", "b"))
_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
_MIXED = np.eye(4) / 4.0


def _records() -> dict:
    """Every named-tuple class the package defines, by name."""
    return {
        name: cls
        for mod in MODULES
        for name, cls in vars(mod).items()
        if inspect.isclass(cls) and cls.__module__ == mod.__name__ and issubclass(cls, tuple)
    }


# (type, good fields, bad fields, error): each bad field list differs from
# the good one in the field the check reads.
VALIDATING = [
    pytest.param(Register, (("a", "b"),), (("a", "a"),), ContractError, id="Register-duplicate-labels"),
    pytest.param(PureState, (PAIR, _BELL), (PAIR, 2.0 * _BELL), ContractError, id="PureState-norm"),
    pytest.param(
        DensityOp, (PAIR, _MIXED), (PAIR, _MIXED + 0.1j * np.triu(np.ones((4, 4)), 1)), ContractError,
        id="DensityOp-not-Hermitian",
    ),
    pytest.param(DensityOp, (PAIR, _MIXED), (PAIR, 2.0 * _MIXED), ContractError, id="DensityOp-trace"),
    pytest.param(GvConfig, (3, 5), (0, 5), ValueError, id="GvConfig-trials-0"),
    pytest.param(GvConfig, (3, 5), (3, -1), ValueError, id="GvConfig-seed-negative"),
    pytest.param(GvConfig, (3, 5), (3, 1.0), ValueError, id="GvConfig-seed-float"),
]

# Each route builds an instance of cls from the field values fields; good
# holds the valid field values, for the routes that start from an instance.
ROUTES = {
    "positional": lambda cls, good, fields: cls(*fields),
    "keyword": lambda cls, good, fields: cls(**dict(zip(cls._fields, fields))),
    "_replace": lambda cls, good, fields: cls(*good)._replace(**dict(zip(cls._fields, fields))),
    "_make": lambda cls, good, fields: cls._make(fields),
    # An instance put together without the checks, then copied or round
    # tripped: the copy is rebuilt through the constructor.
    "copy": lambda cls, good, fields: copy.copy(tuple.__new__(cls, fields)),
    "pickle": lambda cls, good, fields: pickle.loads(pickle.dumps(tuple.__new__(cls, fields))),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("cls,good,bad,error", VALIDATING)
def test_validating_records_check_every_construction_route(route, cls, good, bad, error):
    build = ROUTES[route]
    made = build(cls, good, good)
    assert type(made) is cls and len(made) == len(good)
    with pytest.raises(error):
        build(cls, good, bad)


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_coerces_the_fields(route):
    build = ROUTES[route]
    assert build(PureState, (PAIR, _BELL), (PAIR, [[1, 0], [0, 0]])).amplitudes.dtype == complex
    assert build(PureState, (PAIR, _BELL), (PAIR, [[1, 0], [0, 0]])).amplitudes.shape == (4,)
    assert build(DensityOp, (PAIR, _MIXED), (PAIR, _MIXED.tolist())).matrix.dtype == complex
    config = build(GvConfig, (3, 5), (np.int64(2), np.uint8(7)))
    assert config == (2, 7) and all(type(x) is int for x in config)


def test_the_package_defines_exactly_the_known_records():
    assert set(_records()) == RECORDS


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    cls = _records()[name]
    good = {
        "Register": PAIR,
        "PureState": PureState(PAIR, _BELL),
        "DensityOp": DensityOp(PAIR, _MIXED),
        "GvConfig": GvConfig(),
    }
    record = good.get(name) or cls(*range(len(cls._fields)))
    for attr in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)


def test_records_compare_by_value():
    assert GvConfig() == GvConfig(trials=1, seed=0) and hash(GvConfig()) == hash(GvConfig(1, 0))
    assert GvConfig(2, 3) != GvConfig(3, 2)
    assert GvResult(10, 1, True, 4) == GvResult(bits_sent=10, bit_errors=1, eve_detected=True, detection_events=4)
    assert GvResult(10, 1, True, 4) != GvResult(10, 1, True, 5)
    assert Register.qubits(1, 3) == Register(("1", "3")) and len({Register.qubits(1, 3), PAIR, PAIR}) == 2
    assert Register.qubits(1, 3) != Register.qubits(3, 1)
    iv = ThresholdInterval(0.25, 0.75, 1e-4, "broadcast")
    assert iv == ThresholdInterval(lo=0.25, hi=0.75, tolerance=1e-4, predicate_name="broadcast")
    assert iv._replace(hi=0.5) != iv and iv._replace(hi=0.5).hi == 0.5


def test_register_built_from_a_list_holds_a_tuple():
    listed = Register(["1", "3"])
    assert listed == Register(("1", "3")) and hash(listed) == hash(Register(("1", "3")))
    assert isinstance(listed.labels, tuple)
    zero = PureState(Register(["a"]), [1.0, 0.0])
    assert tensor(zero, PureState(listed, np.eye(4)[0])).register == Register(("a", "1", "3"))
    with pytest.raises(ContractError, match="duplicate labels"):
        Register(["1", "1"])


def test_density_op_runs_a_hook_set_on_its_class_once_per_construction(monkeypatch):
    seen = []
    check = DensityOp.__post_init__

    def counted(self):
        seen.append(self)
        return check(self)

    monkeypatch.setattr(DensityOp, "__post_init__", counted)
    rho = DensityOp(PAIR, _MIXED)
    made = [
        rho,
        DensityOp(register=PAIR, matrix=_MIXED),
        rho._replace(matrix=_MIXED),
        DensityOp._make((PAIR, _MIXED)),
        copy.copy(rho),
        pickle.loads(pickle.dumps(rho)),
    ]
    assert len(seen) == len(made) and all(a is b for a, b in zip(seen, made))


def test_no_module_uses_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(alias.name.partition(".")[0] != "dataclasses" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").partition(".")[0] != "dataclasses", path.name
    for mod in MODULES:
        for cls in vars(mod).values():
            assert not (inspect.isclass(cls) and hasattr(cls, "__dataclass_fields__")), (mod.__name__, cls)
