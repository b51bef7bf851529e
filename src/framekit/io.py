"""Text file formats for frame pairs, operator pairs, p-frame pairs and
group tables.

Every file is a single JSON document.  Real scalars are plain numbers;
complex scalars are two-element arrays [re, im].  Numbers are written via
Python's shortest round-trip repr, so read(write(obj)) reproduces every
float bit for bit.

frame pair:    {"field", "dim", "count", "x", "tau"}     x[j] = vector x_j
ovf pair:      {"field", "m", "d", "n", "A", "psi"}      A[j] = d_j x m rows
p-frame pair:  {"p", "field", "dim", "count", "f", "tau"}
group table:   {"order", "identity", "mul"}
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch
from .frames import COMPLEX, REAL, FramePair
from .numerics import Tolerance

if TYPE_CHECKING:  # the domain layers load only where their pairs are built
    from .constructors import GroupTable
    from .ovf import OvfPair
    from .pframes import PFramePair


def _matrix_out(M, field: str):
    """Nested lists of Python floats; a complex scalar becomes [re, im]."""
    M = np.asarray(M)
    if field == COMPLEX:
        M = M.astype(complex, copy=False)
        return np.stack([M.real, M.imag], axis=-1).tolist()
    return np.asarray(M.real, dtype=float).tolist()


def _matrix_in(rows, field: str) -> np.ndarray:
    """One array from nested lists; a complex scalar [re, im] is read bit for bit.

    Ragged rows and entries that are not numbers raise ValueError or
    TypeError, an integer beyond the float range ValueError.  A null entry
    reads as NaN, which the pair then rejects as non-finite.
    """
    try:
        a = np.asarray(rows, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"matrix entry out of float range: {exc}") from exc
    if field == COMPLEX:
        if a.ndim != 3 or a.shape[-1] != 2:
            raise ValueError("complex scalars are [re, im] pairs")
        return np.ascontiguousarray(a).view(complex)[..., 0]
    return a


def _check_field(field) -> str:
    if field not in (REAL, COMPLEX):
        raise ValueError(f'field must be "real" or "complex", got {field!r}')
    return field


def frame_pair_to_dict(fp: FramePair) -> dict:
    return {
        "field": fp.field,
        "dim": fp.m,
        "count": fp.n,
        "x": _matrix_out(fp.theta_A.conj(), fp.field),
        "tau": _matrix_out(fp.theta_Psi.conj(), fp.field),
    }


def frame_pair_from_dict(doc: dict, tol: Tolerance = Tolerance()) -> FramePair:
    field = _check_field(doc["field"])
    X = _matrix_in(doc["x"], field).T
    T = _matrix_in(doc["tau"], field).T
    if X.shape != (int(doc["dim"]), int(doc["count"])):
        raise ValueError("x does not match the declared dim/count")
    if T.shape != X.shape:
        raise ValueError("tau does not match the shape of x")
    return FramePair(X, T, field, tol)


def ovf_pair_to_dict(op: OvfPair) -> dict:
    d = op.d if op.d is not None else list(op.codims)
    return {
        "field": op.field,
        "m": op.m,
        "d": d,
        "n": op.n,
        "A": [_matrix_out(Aj, op.field) for Aj in op.A],
        "psi": [_matrix_out(Pj, op.field) for Pj in op.Psi],
    }


def ovf_pair_from_dict(doc: dict, tol: Tolerance = Tolerance()) -> OvfPair:
    from .ovf import OvfPair

    field = _check_field(doc["field"])
    A = tuple(_matrix_in(Mj, field) for Mj in doc["A"])
    Psi = tuple(_matrix_in(Mj, field) for Mj in doc["psi"])
    try:
        op = OvfPair(A, Psi, field, tol)
    except ShapeMismatch as exc:
        raise ValueError(f"inconsistent member shapes: {exc}") from exc
    declared = doc["d"]
    codims = list(op.codims)
    if isinstance(declared, list):
        if codims != [int(x) for x in declared]:
            raise ValueError("member codomains do not match the declared d")
    elif codims != [int(declared)] * op.n:
        raise ValueError("member codomains do not match the declared d")
    if op.m != int(doc["m"]) or op.n != int(doc["n"]):
        raise ValueError("members do not match the declared m/n")
    return op


def pframe_pair_to_dict(pf: PFramePair) -> dict:
    return {
        "p": pf.p,
        "field": pf.field,
        "dim": pf.m,
        "count": pf.n,
        "f": _matrix_out(pf.F, pf.field),
        "tau": _matrix_out(pf.T.T, pf.field),
    }


def pframe_pair_from_dict(doc: dict, tol: Tolerance = Tolerance()) -> PFramePair:
    from .pframes import PFramePair

    field = _check_field(doc["field"])
    F = _matrix_in(doc["f"], field)
    T = _matrix_in(doc["tau"], field).T
    try:
        p = float(doc["p"])
    except OverflowError as exc:
        raise ValueError(f"p out of float range: {exc}") from exc
    try:
        pf = PFramePair(F, T, p, field, tol)
    except ShapeMismatch as exc:
        raise ValueError(f"inconsistent member shapes: {exc}") from exc
    if pf.m != int(doc["dim"]) or pf.n != int(doc["count"]):
        raise ValueError("members do not match the declared dim/count")
    return pf


def group_table_from_dict(doc: dict) -> GroupTable:
    from .constructors import GroupTable

    table = GroupTable(np.asarray(doc["mul"]), doc["identity"])
    if table.order != int(doc["order"]):
        raise ValueError("mul does not match the declared order")
    return table


_KIND_KEYS = {
    "frame": {"field", "dim", "count", "x", "tau"},
    "ovf": {"field", "m", "d", "n", "A", "psi"},
    "pframe": {"p", "field", "dim", "count", "f", "tau"},
    "group": {"order", "identity", "mul"},
}


def detect_kind(doc: dict) -> str:
    keys = set(doc)
    for kind, expected in _KIND_KEYS.items():
        if keys == expected:
            return kind
    raise ValueError(f"unrecognised document keys {sorted(keys)}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def save(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
