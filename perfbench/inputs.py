"""Seeded inputs whose answers are known by construction.

Every generator draws from a numpy Generator, so one seed gives one set of
inputs.  Frame operators are built with a chosen spectrum, which fixes the
optimal bounds (a, b) and the canonical dual's bounds (1/b, 1/a) before
framekit sees anything.  Files are written with the standard library's json
module in framekit's documented formats, never with framekit.io, so a change
to framekit's writer cannot change the inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def gaussian(rng, shape, complex_field=False):
    M = rng.standard_normal(shape)
    if complex_field:
        M = M + 1j * rng.standard_normal(shape)
    return M


def unitary(rng, m, complex_field=False):
    """Haar-distributed orthogonal (or unitary) m x m matrix."""
    Q, R = np.linalg.qr(gaussian(rng, (m, m), complex_field))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def spectrum(rng, m):
    """Ascending eigenvalues whose extremes a < b are the optimal bounds."""
    a = rng.uniform(0.5, 1.0)
    b = rng.uniform(2.0, 4.0)
    return np.sort(np.concatenate([[a, b], rng.uniform(a, b, m - 2)]))


def operator(rng, eigenvalues, complex_field=False):
    """Q diag(eigenvalues) Q^*; real orthogonal Q unless complex_field."""
    Q = unitary(rng, len(eigenvalues), complex_field)
    return (Q * eigenvalues) @ Q.conj().T


def dual_pair(rng, S, n, complex_field=False):
    """Families X, T (m x n) with T X^* = S exactly up to rounding.

    T = S G^-1 X + W (I - X^* G^-1 X) with G = X X^*, so tau_j differs from
    any multiple of x_j while the frame operator is the chosen S.
    """
    m = S.shape[0]
    X = gaussian(rng, (m, n), complex_field)
    W = 0.3 * gaussian(rng, (m, n), complex_field)
    GiX = np.linalg.solve(X @ X.conj().T, X)
    T = S @ GiX + W - (W @ X.conj().T) @ GiX
    return X, T


def signed_permutation(rng, m):
    """A p-orthonormal basis of K^m for every p != 2 (an lp isometry)."""
    P = np.eye(m)[rng.permutation(m)]
    return P * rng.choice([-1.0, 1.0], m)


def _rows(M):
    M = np.asarray(M)
    if np.iscomplexobj(M):
        return np.stack([M.real, M.imag], axis=-1).tolist()
    return M.astype(float).tolist()


def _field(*arrays):
    return "complex" if any(np.iscomplexobj(a) for a in arrays) else "real"


def frame_doc(X, T):
    return {"field": _field(X, T), "dim": X.shape[0], "count": X.shape[1],
            "x": _rows(X.T), "tau": _rows(T.T)}


def ovf_doc(A, Psi):
    codims = [Aj.shape[0] for Aj in A]
    d = codims[0] if len(set(codims)) == 1 else codims
    return {"field": _field(*A, *Psi), "m": A[0].shape[1], "d": d, "n": len(A),
            "A": [_rows(Aj) for Aj in A], "psi": [_rows(Pj) for Pj in Psi]}


def pframe_doc(F, T, p):
    return {"p": p, "field": _field(F, T), "dim": T.shape[0], "count": T.shape[1],
            "f": _rows(F), "tau": _rows(T.T)}


def group_doc(mul):
    return {"order": int(mul.shape[0]), "identity": 0, "mul": mul.tolist()}


def write(path: Path, doc) -> str:
    """Write one document the way framekit lays its files out (indent 1)."""
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def read_frame(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return _matrix(doc["x"], doc["field"]).T, _matrix(doc["tau"], doc["field"]).T


def read_ovf(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return ([_matrix(M, doc["field"]) for M in doc["A"]],
            [_matrix(M, doc["field"]) for M in doc["psi"]])


def read_pframe(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return _matrix(doc["f"], doc["field"]), _matrix(doc["tau"], doc["field"]).T


def _matrix(rows, field):
    M = np.asarray(rows, dtype=float)
    if field == "complex":
        return M[..., 0] + 1j * M[..., 1]
    return M
