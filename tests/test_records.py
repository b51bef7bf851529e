"""Result records: one shared ==, hash and repr with the generated semantics.

Every frozen result record is declared @dataclass(frozen=True, eq=False,
repr=False) on numerics._Record, which writes __eq__, __hash__ and __repr__
once over the dataclass fields.  Each record is checked against its stock
@dataclass(frozen=True) twin (oracles.stock_twin) on seeded instances:
==, !=, hash, repr, dataclasses.replace and the frozen guards agree,
including comparisons with other classes and array fields whose == raises.
"""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

from framekit import Tolerance
from framekit.numerics import PNormInterval, _Record

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
        params = cls.__dataclass_params__
        assert params.frozen and not params.eq and not params.repr, cls
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
