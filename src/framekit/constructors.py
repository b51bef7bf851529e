"""Frame factories: circular tight frames on R^2 and group-generated frames.

Group elements are indexed 0..order-1 with the identity at its declared
index; the left regular representation acts by lambda_g chi_q = chi_{gq},
i.e. permutation matrices built from the multiplication table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadGroupTable,
    BadKL,
    CountMismatch,
    DimMismatch,
    NegativeRadius,
    NotARepresentation,
    NotInvariant,
    NotParseval,
)
from .frames import FramePair, FrameReport, REAL, infer_field, verify
from .numerics import Tolerance, entry_max


@dataclass(frozen=True)
class GroupTable:
    """Multiplication table of a finite group; mul[g, h] = g*h."""

    mul: np.ndarray
    identity: int

    def __post_init__(self):
        mul = np.asarray(self.mul, dtype=int)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] < 1:
            raise BadGroupTable("mul must be a square table of positive order")
        n = mul.shape[0]
        e = self.identity
        if not 0 <= e < n:
            raise BadGroupTable("identity index out of range")
        if np.any(mul < 0) or np.any(mul >= n):
            raise BadGroupTable("table entries must be element indices")
        idx = np.arange(n)
        if np.any(np.sort(mul, axis=1) != idx) or np.any(np.sort(mul, axis=0) != idx[:, None]):
            raise BadGroupTable("rows and columns must be permutations")
        if np.any(mul[e, :] != idx) or np.any(mul[:, e] != idx):
            raise BadGroupTable("identity does not act trivially")
        if np.any(np.count_nonzero(mul == e, axis=1) != 1):
            raise BadGroupTable("inverses must exist and be unique")
        # associativity (gh)q = g(hq), one g at a time to keep temporaries O(order^2)
        for g in range(n):
            if np.any(mul[mul[g], :] != mul[g, mul]):
                raise BadGroupTable("table is not associative")
        mul.setflags(write=False)
        object.__setattr__(self, "mul", mul)

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        idx = np.arange(n)
        return cls((idx[:, None] + idx[None, :]) % n, 0)

    def left_translation(self, g: int) -> np.ndarray:
        """Permutation matrix of q -> g*q."""
        n = self.order
        L = np.zeros((n, n))
        L[self.mul[g], np.arange(n)] = 1.0
        return L


@dataclass(frozen=True)
class Representation:
    """Unitary representation: a matrix per group element, validated."""

    group: GroupTable
    mats: tuple
    tol: Tolerance = Tolerance()

    def __post_init__(self):
        mats = tuple(np.asarray(M) for M in self.mats)
        if len(mats) != self.group.order:
            raise NotARepresentation("need one matrix per group element")
        m = mats[0].shape[0]
        tol = self.tol
        mul = self.group.mul
        order = self.group.order
        # Products of 0/1 permutation matrices are exact and unitarity holds
        # exactly; once a unit entry difference exceeds the margin, two such
        # matrices are tol-close iff they are equal, so the law runs on indices.
        perms = _permutation_indices(mats, m) if tol.margin(1.0) < 1.0 else None
        if perms is not None:
            law = all(np.array_equal(perms[g][perms], perms[mul[g]]) for g in range(order))
        else:
            for M in mats:
                if M.ndim != 2 or M.shape != (m, m):
                    raise NotARepresentation("matrices must be square of equal size")
                if not tol.is_identity(M @ M.conj().T) or not tol.is_identity(M.conj().T @ M):
                    raise NotARepresentation("matrices must be unitary")
            law = all(tol.mat_close(mats[g] @ mats[h], mats[mul[g, h]])
                      for g in range(order) for h in range(order))
        if not law:
            raise NotARepresentation("matrices do not respect the group law")
        object.__setattr__(self, "mats", mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]


def _permutation_indices(mats, m: int) -> Optional[np.ndarray]:
    """perm[g, q] = i with mats[g] e_q = e_i, when every matrix is an exact
    m x m 0/1 permutation matrix; None otherwise."""
    perms = np.empty((len(mats), m), dtype=np.intp)
    for g, M in enumerate(mats):
        if M.ndim != 2 or M.shape != (m, m) or M.dtype.kind not in "iufc":
            return None
        ones = M == 1
        if not (np.all(ones | (M == 0)) and np.all(ones.sum(axis=0) == 1)
                and np.all(ones.sum(axis=1) == 1)):
            return None
        perms[g] = np.argmax(ones, axis=0)
    return perms


def left_regular(g: GroupTable, tol: Tolerance = Tolerance()) -> Representation:
    """Left regular representation by permutation matrices, dim = order."""
    return Representation(g, tuple(g.left_translation(idx) for idx in range(g.order)), tol)


@dataclass(frozen=True)
class CircularResult:
    fp: FramePair
    tight: bool
    constant: float
    residual: np.ndarray  # the 3-vector whose vanishing characterises tightness


def circular_general(a, theta, b, phi, tol: Tolerance = Tolerance()) -> CircularResult:
    """Planar pair x_j = a_j (cos t_j, sin t_j), tau_j = b_j (cos p_j, sin p_j).

    Tight exactly when the compound-angle sums
    sum a_j b_j (cos(t+p), sin(t+p), sin(t-p)) vanish, with tight constant
    (1/2) sum a_j b_j cos(t_j - p_j); a vanishing constant means S = 0 and
    is reported as not tight.
    """
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    b = np.asarray(b, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not (a.shape == theta.shape == b.shape == phi.shape) or a.ndim != 1 or a.size < 1:
        raise ValueError("a, theta, b, phi must be equal-length nonempty vectors")
    if np.any(a < 0) or np.any(b < 0):
        raise NegativeRadius("radii must be nonnegative")
    X = np.vstack([a * np.cos(theta), a * np.sin(theta)])
    T = np.vstack([b * np.cos(phi), b * np.sin(phi)])
    fp = FramePair(X, T, REAL, tol)
    w = a * b
    residual = np.array([
        float(np.sum(w * np.cos(theta + phi))),
        float(np.sum(w * np.sin(theta + phi))),
        float(np.sum(w * np.sin(theta - phi))),
    ])
    constant = 0.5 * float(np.sum(w * np.cos(theta - phi)))
    scale = float(np.sum(w)) if a.size else 0.0
    tight = bool(np.linalg.norm(residual) <= tol.margin(scale) and constant > tol.margin(scale))
    return CircularResult(fp, tight, constant, residual)


def circular_kl(k: int, l: int, tol: Tolerance = Tolerance()) -> CircularResult:
    """The kl-member family with angles 2 pi j / k against 2 pi j / l."""
    if k < 1 or l < 1 or k * l < 3:
        raise BadKL("need k, l >= 1 with k*l >= 3")
    j = np.arange(k * l, dtype=float)
    ones = np.ones(k * l)
    return circular_general(ones, 2.0 * np.pi * j / k, ones, 2.0 * np.pi * j / l, tol)


@dataclass(frozen=True)
class GroupFrameResult:
    fp: FramePair
    report: FrameReport
    generator_bound_ok: Optional[bool]  # None when <x, tau> is not real


def group_frame(rep: Representation, x, tau, tol: Tolerance = Tolerance()) -> GroupFrameResult:
    """Orbit pair x_g = pi_g x, tau_g = pi_g tau in group-element order.

    For a frame, (order/dim) <x, tau> must sit between the optimal bounds;
    the check is skipped (None) when <x, tau> is not real within tolerance.
    """
    x = np.asarray(x).ravel()
    tau = np.asarray(tau).ravel()
    if x.shape != (rep.dim,) or tau.shape != (rep.dim,):
        raise DimMismatch("generator vectors must match the representation dimension")
    X = np.column_stack([rep.mats[g] @ x for g in range(rep.group.order)])
    T = np.column_stack([rep.mats[g] @ tau for g in range(rep.group.order)])
    fp = FramePair(X, T, infer_field(X, T), tol)
    report = verify(fp)
    if not report.is_frame:
        return GroupFrameResult(fp, report, True)
    inner = complex(np.vdot(tau, x))  # <x, tau>
    if abs(inner.imag) > tol.margin(abs(inner)):
        return GroupFrameResult(fp, report, None)
    value = (rep.group.order / rep.dim) * inner.real
    margin = tol.margin(report.lower_a, report.upper_b, abs(value))
    ok = report.lower_a - margin <= value <= report.upper_b + margin
    return GroupFrameResult(fp, report, bool(ok))


def check_group_invariance(fp: FramePair, g: GroupTable) -> bool:
    """All three Gram invariances <v_{gp}, w_{gq}> = <v_p, w_q>."""
    if fp.n != g.order:
        raise CountMismatch("pair count must equal the group order")
    tol = fp.tol
    grams = (
        fp.X.conj().T @ fp.X,  # [p, q] = <x_q, x_p>
        fp.T.conj().T @ fp.X,  # [p, q] = <x_q, tau_p>
        fp.T.conj().T @ fp.T,
    )
    for G in grams:
        scale = entry_max(G)
        for gg in range(g.order):
            perm = g.mul[gg, :]
            if entry_max(G[np.ix_(perm, perm)] - G) > tol.margin(scale):
                return False
    return True


@dataclass(frozen=True)
class RepresentationSynthesis:
    rep: Representation
    pi_reproduces: bool


def synthesize_representation(fp: FramePair, g: GroupTable) -> RepresentationSynthesis:
    """Recover pi_g = T lambda_g X^* from a Parseval group-invariant pair.

    pi_reproduces records whether x_g = pi_g x_e and tau_g = pi_g tau_e
    hold for every element.
    """
    if not verify(fp).parseval:
        raise NotParseval("synthesis needs a Parseval pair")
    if not check_group_invariance(fp, g):
        raise NotInvariant("pair is not group invariant")
    mats = []
    for idx in range(g.order):
        lam = g.left_translation(idx)
        mats.append(fp.T @ lam @ fp.X.conj().T)
    rep = Representation(g, tuple(mats), fp.tol)
    e = g.identity
    ok = True
    for idx in range(g.order):
        if not fp.tol.mat_close(rep.mats[idx] @ fp.X[:, e], fp.X[:, idx]) or \
                not fp.tol.mat_close(rep.mats[idx] @ fp.T[:, e], fp.T[:, idx]):
            ok = False
            break
    return RepresentationSynthesis(rep, ok)
