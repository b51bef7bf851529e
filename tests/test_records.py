"""Framekit dataclasses: one shared __init__, frozen guard and repr, and records' ==, hash.

Every framekit dataclass is declared with numerics._frozen on the shared
base numerics._Frozen, which writes __init__, __setattr__, __delattr__ and
the field-based __repr__ once, so dataclass generates no code at import.
The value records derive from _Record, which adds == and hash over the
fields; the pairs, tables and representations compare by identity.  Each
class is checked against its stock @dataclass(frozen=True) twin
(oracles.stock_twin) on seeded instances: ==, !=, hash, repr,
dataclasses.replace, asdict and astuple, the frozen guards, copies and
pickle round trips, the order of vars(obj) and the TypeError of a bad
call agree, including comparisons with other classes and array fields
whose == raises.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import sys

import numpy as np
import pytest

from framekit import Tolerance, constructors, frames, ovf, pframes
from framekit.numerics import PNormInterval, _Frozen, _Record, _frozen

from oracles import stock_twin

MODULES = ["numerics", "frames", "analysis", "constructors", "ovf", "pframes", "io", "cli",
           "errors"]
IDENTITY_EQ = {"_StackedPair", "FramePair", "OvfPair", "PFramePair", "GroupTable",
               "Representation"}


def framekit_dataclasses():
    """Every dataclass defined in a framekit module, in module and definition order."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"framekit.{name}")
        found += [obj for obj in vars(module).values()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)]
    return found


RECORDS = [cls for cls in framekit_dataclasses() if issubclass(cls, _Record)]

# shared value objects, so a record and its twin hold the very same ones
POOL = [0, 1, -0.0, 0.0, 1.5, float("nan"), float("inf"), True, False, None, "x", (1, "tau"),
        1 + 2j, np.float64(2.0), np.arange(3), np.arange(3), np.array([1.0]), [1, 2]]
TOLERANCES = [0, 0.0, 1e-9, 0.5, np.float64(2.0), True]  # Tolerance checks its values


def outcome(call):
    """The value call returns, or the type and message of what it raises."""
    try:
        return "value", call()
    except Exception as exc:  # noqa: BLE001 - the comparison is of whatever is raised
        return "raised", type(exc), str(exc)


def draws(cls, rng, count):
    """count seeded value lists for cls's init fields; each second one repeats
    the previous one with at most one field redrawn."""
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    pool = TOLERANCES if cls is Tolerance else POOL
    values = []
    for k in range(count):
        if k % 2 and values:
            row = dict(values[-1])
            if rng.integers(2):
                row[names[rng.integers(len(names))]] = pool[rng.integers(len(pool))]
        else:
            row = {n: pool[rng.integers(len(pool))] for n in names}
        values.append(row)
    return values


def test_the_records_are_the_frozen_value_classes():
    every = {cls.__name__ for cls in framekit_dataclasses()}
    assert len(every) == 36
    assert every - {cls.__name__ for cls in RECORDS} == IDENTITY_EQ
    assert len(RECORDS) == 30
    for cls in RECORDS:
        assert all(getattr(cls, method) is getattr(_Frozen, method)
                   for method in ("__init__", "__setattr__", "__delattr__")), cls
        for method in ("__eq__", "__hash__", "__repr__"):
            assert getattr(cls, method) is getattr(_Record, method), (cls, method)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics_match_the_stock_dataclass(cls):
    twin = stock_twin(cls)
    rng = np.random.default_rng(22000 + len(cls.__name__))
    rows = draws(cls, rng, 40)
    made = [(cls(**row), twin(**row)) for row in rows]
    other_cls = RECORDS[(RECORDS.index(cls) + 1) % len(RECORDS)]
    other_row = draws(other_cls, rng, 1)[0]
    other = (other_cls(**other_row), stock_twin(other_cls)(**other_row))
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    pool = TOLERANCES if cls is Tolerance else POOL
    for (a, ta), (b, tb) in zip(made, made[1:] + [other, (object(), object())]):
        assert outcome(lambda: a == b) == outcome(lambda: ta == tb)
        assert outcome(lambda: a != b) == outcome(lambda: ta != tb)
        assert outcome(lambda: a == a) == outcome(lambda: ta == ta)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
        assert repr(a) == repr(ta)
        name = names[rng.integers(len(names))]
        value = pool[rng.integers(len(pool))]
        replaced, twin_replaced = (dataclasses.replace(a, **{name: value}),
                                   dataclasses.replace(ta, **{name: value}))
        assert type(replaced) is cls and repr(replaced) == repr(twin_replaced)
        assert all(getattr(replaced, f) is getattr(twin_replaced, f) for f in names)
        assert outcome(lambda: setattr(a, name, value)) == outcome(lambda: setattr(ta, name, value))
        assert outcome(lambda: delattr(a, name)) == outcome(lambda: delattr(ta, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, value)


def test_a_record_repr_guards_against_recursion():
    record, twin = PNormInterval([], []), stock_twin(PNormInterval)([], [])
    for r in (record, twin):
        r.lower.append(r)
    assert repr(record) == repr(twin) == "PNormInterval(lower=[...], upper=[])"


def test_tolerance_message_embeds_its_repr():
    with pytest.raises(ValueError) as err:
        Tolerance(float("nan"))
    assert str(err.value) == ("tolerances must be finite and nonnegative, "
                              "got Tolerance(abs_tol=nan, rel_tol=1e-09)")


@pytest.mark.parametrize("cls", framekit_dataclasses(), ids=lambda cls: cls.__name__)
def test_every_dataclass_has_a_written_docstring(cls):
    # dataclass writes Name(signature) when a class has none, calling inspect.signature at import
    generated = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    assert cls.__doc__ and cls.__doc__ != generated


def identity_instances():
    """One instance of each identity-== class, built through its public constructor."""
    eye, swap = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    table = constructors.GroupTable.cyclic(2)
    return [frames._StackedPair._stacked(eye, swap, (1, 1), Tolerance()),
            frames.FramePair(eye, swap, "real"),
            ovf.OvfPair.from_members([eye], [swap]),
            pframes.PFramePair(eye, swap, 3.0, "real"),
            table,
            constructors.Representation(table, (eye, swap))]


def twin_of(obj):
    """obj's stock twin, built from obj's init fields, with the non-init fields obj's
    __post_init__ set (Representation's index rows)."""
    twin = stock_twin(type(obj))(**{f.name: getattr(obj, f.name)
                                    for f in dataclasses.fields(obj) if f.init})
    for f in dataclasses.fields(obj):
        if not f.init:
            object.__setattr__(twin, f.name, getattr(obj, f.name))
    return twin


def instances():
    """(instance, its stock twin) for seeded draws of every record, then each identity class."""
    rng = np.random.default_rng(23000)
    made = [(cls(**row), stock_twin(cls)(**row)) for cls in RECORDS for row in draws(cls, rng, 4)]
    return made + [(obj, twin_of(obj)) for obj in identity_instances()]


def test_every_dataclass_is_checked_with_its_twin():
    assert {type(obj) for obj, _ in instances()} == set(framekit_dataclasses())
    for cls in framekit_dataclasses():
        assert issubclass(cls, _Frozen)
        for method in ("__setattr__", "__delattr__", "__repr__"):
            assert getattr(cls, method) is getattr(_Frozen, method), (cls, method)


def pickled_twin(twin, protocol):
    """What unpickling twin would give: the stock twin class is not importable, so its
    state, vars(twin), makes the round trip that pickle gives a dataclass's state."""
    made = object.__new__(type(twin))
    vars(made).update(pickle.loads(pickle.dumps(vars(twin), protocol)))
    return made


def test_copies_pickles_and_field_order_match_the_stock_dataclass():
    for obj, twin in instances():
        names = [f.name for f in dataclasses.fields(obj)]
        assert list(vars(obj)) == list(vars(twin)) == names, type(obj)
        made = [("copy", copy.copy(obj), copy.copy(twin)),
                ("deepcopy", copy.deepcopy(obj), copy.deepcopy(twin))]
        made += [(f"pickle {protocol}", pickle.loads(pickle.dumps(obj, protocol)),
                  pickled_twin(twin, protocol))
                 for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for kind, copied, twin_copied in made:
            assert type(copied) is type(obj), kind
            assert repr(copied) == repr(twin_copied), kind
            assert list(vars(copied)) == names, kind
            if isinstance(obj, _Record):
                assert outcome(lambda: copied == obj) == outcome(lambda: twin_copied == twin), kind
            else:
                assert copied is not obj and copied != obj, kind  # identity ==
            assert (outcome(lambda: setattr(copied, names[0], 0))
                    == outcome(lambda: setattr(twin_copied, names[0], 0))), kind
        assert repr(dataclasses.asdict(obj)) == repr(dataclasses.asdict(twin))
        assert repr(dataclasses.astuple(obj)) == repr(dataclasses.astuple(twin))


def test_bad_calls_raise_type_error_as_the_stock_dataclass():
    for obj, twin in instances():
        cls, twin_cls = type(obj), type(twin)
        init = [f.name for f in dataclasses.fields(obj) if f.init]
        values = [getattr(obj, n) for n in init]
        calls = {"extra": (values + [None], {}),
                 "duplicate": (values[:1], {init[0]: values[0]}),
                 "unknown": (values, {"not_a_field": None})}
        if any(f.init and f.default is dataclasses.MISSING for f in dataclasses.fields(obj)):
            calls["missing"] = ((), {})
        for kind, (args, kwargs) in calls.items():
            got = outcome(lambda: cls(*args, **kwargs))
            stock = outcome(lambda: twin_cls(*args, **kwargs))
            assert got[:2] == stock[:2] == ("raised", TypeError), (cls, kind, got)


def test_keywords_defaults_and_non_init_fields_bind_as_the_stock_dataclass():
    @_frozen
    class Bound(_Record):
        """A record with every kind of field."""

        a: int
        b: list = dataclasses.field(default_factory=list)
        c: int = 3
        d: int = dataclasses.field(default=4, init=False)
        e: int = dataclasses.field(default=5, init=False, repr=False)
        f: int = 6

    twin = stock_twin(Bound)
    in_order, reordered = {"a": 1, "b": [], "c": 3, "f": 0}, {"f": 0, "c": 3, "b": [], "a": 1}
    for args, kwargs in [((1,), {}), ((1, [2]), {}), ((1, [2], 7), {}), ((1, [2], 7, 8), {}),
                         ((), {"a": 1}), ((), {"c": 9, "a": 1}), ((1,), {"f": 9}),
                         ((), in_order), ((), reordered)]:
        made, stock = Bound(*args, **kwargs), twin(*args, **kwargs)
        assert repr(made) == repr(stock) and list(vars(made)) == list(vars(stock))
        assert vars(made) == vars(stock)
    assert Bound(1).b is not Bound(1).b  # a fresh default per call
    for args, kwargs in [((1, [], 3, 6, 0), {}), ((1,), {"a": 1}), ((1,), {"d": 4}),
                         ((1,), {"z": 0})]:
        assert outcome(lambda: Bound(*args, **kwargs))[:2] == ("raised", TypeError)
        assert outcome(lambda: twin(*args, **kwargs))[:2] == ("raised", TypeError)
    with pytest.raises(TypeError, match=r"^test_.*Bound\(\) missing required arguments: 'a'$"):
        Bound(c=1)


def test_a_record_subclass_is_declared_with_frozen():
    @_frozen
    class Noted(PNormInterval):
        """An interval with a note."""

        note: str = ""

    made, stock = Noted(1.0, 2.0, note="x"), stock_twin(Noted)(1.0, 2.0, note="x")
    assert repr(made) == repr(stock) and vars(made) == vars(stock)
    assert made == Noted(1.0, 2.0, "x") != PNormInterval(1.0, 2.0)
    assert outcome(lambda: setattr(made, "note", "y")) == outcome(lambda: setattr(stock, "note", "y"))
    # __dataclass_params__.frozen reads False, so dataclass declares neither kind of subclass
    with pytest.raises(TypeError, match="cannot inherit frozen dataclass from a non-frozen one"):
        dataclasses.dataclass(frozen=True)(type("Frozen", (PNormInterval,), {}))
    plain = dataclasses.dataclass(type("Plain", (PNormInterval,), {}))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plain(1.0, 2.0)


def test_no_framekit_class_carries_generated_code():
    # dataclass compiles what it generates from source text, so its functions' file is "<string>"
    for name in ["cli", "frames", "ovf", "pframes", "analysis", "constructors"]:
        importlib.import_module(f"framekit.{name}")
    generated = []
    for module in [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "framekit"]:
        for cls in [c for c in vars(module).values()
                    if inspect.isclass(c) and c.__module__ == module.__name__]:
            for attr, value in vars(cls).items():
                func = inspect.unwrap(getattr(value, "__func__", value))
                code = getattr(func, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    generated.append(f"{cls.__qualname__}.{attr}")
    assert generated == []
