"""The value classes behave as the frozen dataclasses they replace, and importing
hhcert generates no code."""

from __future__ import annotations

import ast
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hhcert
from hhcert import cli  # noqa: F401  (imports every module, so every value class exists)
from hhcert.convexity import AlphaM, CheckResult, GridSpec, RConvex, Witness
from hhcert.expr import (Abs, Add, Const, Div, Exp, Interval, Log, Mul, Pow, Sqrt, Sub, Value,
                         Var, X, _linear, _shape, evaluate, parse)
from hhcert.hh import HypothesisStatus, IneqReport, _Row
from hhcert.means import MeanBranch, MeanBranchTag
from hhcert.quadrature import IntegralResult
from hhcert.search import ScanRow, StressConfig, StressSummary, TheoremStats

SRC = Path(hhcert.__file__).parents[1]
W = Witness(0.0, 1.0, 0.5, 2.0, 1.0)

# two instances of each class, unequal in one field
SAMPLES = {
    Const: ((1.5,), (2.0,)),
    Var: ((), None),
    Add: ((X, Const(1.0)), (X, Const(2.0))),
    Sub: ((X, Const(1.0)), (Const(1.0), X)),
    Mul: ((Const(2.0), X), (Const(3.0), X)),
    Div: ((Const(1.0), X), (X, X)),
    Pow: ((X, 2.0), (X, -1.0)),
    Exp: ((X,), (Const(1.0),)),
    Log: ((X,), (Exp(X),)),
    Sqrt: ((X,), (Abs(X),)),
    Abs: ((X,), (Const(-1.0),)),
    Interval: ((0.0, 1.0), (0.0, 2.0)),
    AlphaM: ((0.5, 1.0), (0.5, 0.75)),
    RConvex: ((2.0,), (-1.0,)),
    GridSpec: ((9, 17, 1e-6), (9, 17, 1e-7)),
    Witness: ((0.0, 1.0, 0.5, 2.0, 1.0), (0.0, 1.0, 0.5, 2.0, 1.5)),
    CheckResult: ((W, W, 100, True), (W, None, 100, True)),
    HypothesisStatus: (("violation", W, "d"), ("pass", None, None)),
    IneqReport: (("t2", {"m": 1.0}, 1.0, 2.0, 1.0, 1e-8, True, 0.0, {}),
                 ("t2", {"m": 0.5}, 1.0, 2.0, 1.0, 1e-8, True, 0.0, {})),
    _Row: ((("m",), abs, round, True, "convex", None, True),
           (("m",), abs, round, True, "convex", 2, True)),
    IntegralResult: ((1.0, 1e-12, 3), (1.0, 1e-12, 5)),
    StressConfig: ((3, 7, (Interval(0.0, 2.0),), (0.5,), (1.0,), (1.0,), 2, GridSpec(9, 17)),
                   (3, 8)),
    TheoremStats: ((1, 2, 3, None), (1, 2, 3, -0.5)),
    StressSummary: ((5, 1, 2, {"t2": TheoremStats(1, 0, 0, 0.5)}, None), (5, 1, 2, {}, None)),
    ScanRow: ((0.5, 1.0, "t2", 0.25, True), (0.5, 1.0, "t2", 0.25, True, True)),
    MeanBranch: ((MeanBranchTag.DIAGONAL, 2.0), (MeanBranchTag.LOG_MEAN, 2.0)),
}


def _value_classes(cls=Value):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("hhcert."):
            yield sub
        yield from _value_classes(sub)


def _twin(cls):
    """cls as a frozen dataclass: its fields, in order, with its defaults."""
    spec = [(name, object, dataclasses.field(default=getattr(cls, name)))
            if hasattr(cls, name) else (name, object) for name in cls.__match_args__]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as e:     # a field holds a dict, as in the dataclass
        return type(e)


def test_samples_cover_every_value_class():
    shared_bases = {"_Binary", "_Unary"}
    assert {c.__name__ for c in _value_classes()} - shared_bases == {c.__name__ for c in SAMPLES}
    assert len(SAMPLES) == 26


def test_no_module_uses_dataclass():
    for path in (SRC / "hhcert").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                assert not node.decorator_list, (path.name, node.name)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_value_class_behaves_as_its_frozen_dataclass(cls):
    twin = _twin(cls)
    args, other_args = SAMPLES[cls]
    names = cls.__match_args__
    obj, twin_obj = cls(*args), twin(*args)
    assert names == twin.__match_args__
    assert [getattr(obj, n) for n in names] == [getattr(twin_obj, n) for n in names]
    assert repr(obj) == repr(twin_obj)
    assert _hash(obj) == _hash(twin_obj) == _hash(cls(*args))
    assert obj == cls(*args) and not obj != cls(*args)
    assert obj != twin_obj and not obj == twin_obj      # another class
    if other_args is not None:
        other = cls(*other_args)
        assert obj != other and not obj == other
        assert (other == twin(*other_args)) is False
        assert repr(other) == repr(twin(*other_args))
    # keywords, and the defaults of the fields left out
    assert cls(**dict(zip(names, args))) == obj
    required = [n for n in names if not hasattr(cls, n)]
    short = cls(*args[:len(required)])
    assert repr(short) == repr(twin(*args[:len(required)]))
    for name in names[len(required):]:
        assert getattr(short, name) == getattr(twin_obj.__class__, name)
    # bad calls raise TypeError, as the dataclass's do
    too_many = args + (None,) * (len(names) + 1 - len(args))
    bad_calls = [(too_many, {}), (args, {"no_such_field": 1})]
    if required:
        bad_calls += [(args[:len(required) - 1], {}), (args, {required[0]: args[0]})]
    for bad_args, bad_kw in bad_calls:
        with pytest.raises(TypeError):
            twin(*bad_args, **bad_kw)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kw)
    # frozen, to fields and to new names alike
    for name in (*names, "no_such_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert repr(obj) == repr(twin_obj)
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(copied) is cls
        assert copied == obj and _hash(copied) == _hash(obj) and repr(copied) == repr(obj)


def test_value_class_validates_after_construction():
    # __post_init__ runs on every construction, positional or keyword
    with pytest.raises(ValueError, match="alpha"):
        AlphaM(alpha=1.5, m=1.0)
    with pytest.raises(ValueError, match="trials"):
        StressConfig(trials=0)
    with pytest.raises(ValueError, match="lo < hi"):
        Interval(hi=0.0, lo=1.0)
    assert Interval(hi=2.0, lo=1.0) == Interval(1.0, 2.0)


def test_match_statements_read_fields_in_order():
    match parse("2*x^3"):
        case Mul(Const(c), Pow(Var(), p)):
            assert (c, p) == (2.0, 3.0)
        case _:
            pytest.fail("no match")
    match AlphaM(0.5, 0.75):
        case AlphaM(a, m):
            assert (a, m) == (0.5, 0.75)


@pytest.mark.parametrize("text", ["exp(x) + 1/(x + 1)", "x", "sqrt(log(x + 2))*3 - abs(x)^2"])
def test_node_with_kept_results_acts_as_a_fresh_one(text):
    f, fresh = parse(text), parse(text)
    evaluate(f, 0.5)
    _shape(f, Interval(0.0, 1.0))
    _linear(f)
    assert {"_compile", "_shape", "_linear"} <= set(vars(f))
    assert f == fresh and fresh == f
    assert hash(f) == hash(fresh)
    assert repr(f) == repr(fresh)
    # a kept linear form may hold the node itself as a key; the copies carry the fields alone
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert copied == fresh and repr(copied) == repr(fresh)
        assert evaluate(copied, 0.5) == evaluate(fresh, 0.5)


def test_import_generates_no_code():
    """Importing hhcert.cli, after every module it imports from outside hhcert, raises no
    compile audit event for source that is not a file on disk: @dataclass and namedtuple
    raise one for each method they generate (156 at the last dataclass version)."""
    child = """if True:
        import ast, importlib, os, pathlib, sys
        for path in pathlib.Path(sys.argv[1]).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        importlib.import_module(alias.name)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    importlib.import_module(node.module)
        events = []
        sys.addaudithook(lambda event, args: event == "compile"
                         and not os.path.isfile(str(args[1])) and events.append(str(args[1])))
        import hhcert.cli
        print(len(events), sorted(set(events)))
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child, str(SRC / "hhcert")],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "0 []\n"
