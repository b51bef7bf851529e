"""Operator-valued frame pairs at finite dimension.

Members A_j, Psi_j map K^m to K^(d_j) and are stored as d_j x m arrays.
The frame operator S = sum_j Psi_j^* A_j is m x m; the stacked analysis
operator theta_A (all members vertically) lives on the coefficient space
K^(sum d_j), where the frame idempotent P = theta_A S^-1 theta_Psi^* acts.

Codomain dimensions are usually uniform, but a pair may carry one
odd-sized member (the tight-extension construction appends an m x m
block), so every operation that genuinely needs a single codomain checks
for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CodomainNotOneDim,
    IdempotentNotProjection,
    LambdaTooSmall,
    NotAFrame,
    NotBessel,
    NotOnb,
    NotParseval,
    NotWeightedOnb,
    RangesDiffer,
    ShapeMismatch,
    WeightTooLarge,
)
from .frames import (
    COMPLEX,
    REAL,
    FramePair,
    FrameReport,
    _as_matrix,
    frame_flags,
    infer_field,
    range_basis,
    _same_column_space,
)
from .numerics import (
    Tolerance,
    entry_max,
    hermitian_part,
    herm_sqrt,
    smallest_singular_value,
    spectral,
)


@dataclass(frozen=True)
class OvfPair:
    A: tuple
    Psi: tuple
    field: str
    tol: Tolerance = Tolerance()

    def __post_init__(self):
        A = tuple(_as_matrix(M, self.field) for M in self.A)
        Psi = tuple(_as_matrix(M, self.field) for M in self.Psi)
        if len(A) != len(Psi) or not A:
            raise ShapeMismatch("need equally many (and at least one) A and Psi members")
        m = A[0].shape[1]
        for Aj, Pj in zip(A, Psi):
            if Aj.shape != Pj.shape:
                raise ShapeMismatch("each A_j and Psi_j must share shape")
            if Aj.shape[1] != m:
                raise ShapeMismatch("all members must share the domain dimension")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Psi", Psi)

    @classmethod
    def from_members(cls, A: Sequence, Psi: Sequence, field: Optional[str] = None,
                     tol: Tolerance = Tolerance()) -> "OvfPair":
        field = field or infer_field(*A, *Psi)
        return cls(tuple(np.asarray(M) for M in A), tuple(np.asarray(M) for M in Psi), field, tol)

    @property
    def m(self) -> int:
        return self.A[0].shape[1]

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def codims(self) -> tuple:
        return tuple(M.shape[0] for M in self.A)

    @property
    def d(self) -> Optional[int]:
        """Common codomain dimension, or None when members disagree."""
        dims = set(self.codims)
        return dims.pop() if len(dims) == 1 else None


def _stack(members) -> np.ndarray:
    return np.vstack(members)


@dataclass(frozen=True)
class OvfOperators:
    S: np.ndarray
    thetaA: np.ndarray
    thetaPsi: np.ndarray
    P: Optional[np.ndarray]


def ovf_operators(op: OvfPair) -> OvfOperators:
    """S = theta_Psi^* theta_A and, when S is invertible, the idempotent P."""
    thetaA = _stack(op.A)
    thetaPsi = _stack(op.Psi)
    S = thetaPsi.conj().T @ thetaA
    P = None
    if smallest_singular_value(S) > op.tol.abs_tol:
        P = thetaA @ np.linalg.solve(S, thetaPsi.conj().T)
    return OvfOperators(S, thetaA, thetaPsi, P)


@dataclass(frozen=True)
class OvfReport(FrameReport):
    riesz_ovf: bool = False
    orthonormal_ovf: bool = False


def _cross_identities_ok(op: OvfPair, left, right, tol: Tolerance) -> bool:
    """max_jk || left_j right_k^* - delta_jk I || <= tol; needs a common codomain.

    All blocks come from one stacked product; each d x d block keeps its
    own margin, tol.margin(1.0, entry_max(block)).
    """
    if op.d is None:
        return False
    n, d = len(left), op.d
    prod = _stack(left) @ _stack(right).conj().T
    blocks = (n, d, n, d)
    deviation = np.abs(prod - np.eye(n * d)).reshape(blocks).max(axis=(1, 3))
    scale = np.abs(prod).reshape(blocks).max(axis=(1, 3))
    return bool(np.all(deviation <= tol.abs_tol + tol.rel_tol * np.maximum(scale, 1.0)))


def verify_ovf(op: OvfPair) -> OvfReport:
    """Frame verdict on S plus the Riesz / orthonormal OVF refinements."""
    ops = ovf_operators(op)
    base = frame_flags(ops.S, op.tol)
    riesz = bool(base.is_frame and ops.P is not None and op.tol.is_identity(ops.P))
    orthonormal = bool(
        riesz and base.parseval and _cross_identities_ok(op, op.A, op.Psi, op.tol)
    )
    return OvfReport(**vars(base), riesz_ovf=riesz, orthonormal_ovf=orthonormal)


def _require_ovf_frame(op: OvfPair) -> np.ndarray:
    S = ovf_operators(op).S
    if not frame_flags(S, op.tol).is_frame:
        raise NotAFrame("operation requires an operator-valued frame")
    return S


def canonical_dual_ovf(op: OvfPair) -> OvfPair:
    """(A_j S^-1, Psi_j S^-1)."""
    S = _require_ovf_frame(op)
    Sinv = np.linalg.inv(S)
    return OvfPair(
        tuple(Aj @ Sinv for Aj in op.A),
        tuple(Pj @ Sinv for Pj in op.Psi),
        op.field,
        op.tol,
    )


@dataclass(frozen=True)
class DualityRelation:
    dual: bool
    orthogonal: bool


def duality_relation(op1: OvfPair, op2: OvfPair) -> DualityRelation:
    """Mixed sums sum Phi_j^* A_j and sum B_j^* Psi_j against I and 0."""
    if op1.m != op2.m or op1.n != op2.n or op1.codims != op2.codims:
        raise ShapeMismatch("pairs must share member shapes")
    sum1 = sum(Pj.conj().T @ Aj for Pj, Aj in zip(op2.Psi, op1.A))
    sum2 = sum(Bj.conj().T @ Pj for Bj, Pj in zip(op2.A, op1.Psi))
    tol = op1.tol
    scale = max(entry_max(sum1), entry_max(sum2), 1.0)
    dual = tol.is_identity(sum1) and tol.is_identity(sum2)
    orthogonal = tol.is_zero(sum1, scale) and tol.is_zero(sum2, scale)
    return DualityRelation(dual, orthogonal)


def onb_blocks(n: int, d: int, tol: Tolerance = Tolerance()) -> OvfPair:
    """Coordinate-block orthonormal basis pair: A_j = rows [jd, (j+1)d) of I_nd."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    eye = np.eye(n * d)
    blocks = tuple(eye[j * d:(j + 1) * d, :] for j in range(n))
    return OvfPair(blocks, blocks, REAL, tol)


def _is_onb_family(op: OvfPair) -> bool:
    tol = op.tol
    if op.d is None or op.m != op.n * op.d:
        return False
    for Aj, Pj in zip(op.A, op.Psi):
        if not tol.mat_close(Aj, Pj):
            return False
    if not _cross_identities_ok(op, op.A, op.A, tol):
        return False
    total = sum(Aj.conj().T @ Aj for Aj in op.A)
    return tol.is_identity(total)


_LABEL_ORDER = ("none", "bessel", "frame", "riesz_ovf", "riesz_basis",
                "orthonormal_ovf", "onb_pair")


@dataclass(frozen=True)
class FactorizationResult:
    U: np.ndarray
    V: np.ndarray
    label: str
    flags: dict


def factorize_against_onb(op: OvfPair, F: OvfPair) -> FactorizationResult:
    """Factor A_j = F_j U, Psi_j = F_j V against an orthonormal basis pair.

    The label is the strongest class whose defining condition on (U, V)
    holds; the full flag set is reported alongside since the classes do
    not form a chain (an onb pair with unequal weights is not an
    orthonormal OVF).
    """
    if not _is_onb_family(F):
        raise NotOnb("F must be an orthonormal basis pair (m = n*d with block identities)")
    if op.d != F.d or op.m != F.m or op.n != F.n:
        raise ShapeMismatch("op and F must share member shapes")
    U = sum(Fj.conj().T @ Aj for Fj, Aj in zip(F.A, op.A))
    V = sum(Fj.conj().T @ Pj for Fj, Pj in zip(F.A, op.Psi))
    tol = op.tol

    VhU = V.conj().T @ U
    rep = spectral(VhU, tol)
    bessel = rep.is_hermitian and rep.is_psd
    frame = rep.is_hermitian and rep.is_pd
    u_inv = smallest_singular_value(U) > tol.abs_tol
    v_inv = smallest_singular_value(V) > tol.abs_tol
    riesz_ovf = bool(frame and tol.is_identity(U @ np.linalg.solve(VhU, V.conj().T)))
    orthonormal_ovf = bool(tol.is_identity(VhU) and tol.is_identity(U @ V.conj().T))
    riesz_basis = bool(frame and u_inv and v_inv)

    unitary = tol.is_identity(U @ U.conj().T) and tol.is_identity(U.conj().T @ U)
    onb_pair = False
    if unitary:
        onb_pair = True
        for Aj, Pj in zip(op.A, op.Psi):
            denom = float(np.vdot(Aj, Aj).real)
            if denom <= tol.abs_tol:
                onb_pair = False
                break
            c = np.vdot(Aj, Pj) / denom
            if abs(c.imag) > tol.margin(abs(c)) or c.real <= tol.abs_tol \
                    or not tol.mat_close(Pj, c.real * Aj):
                onb_pair = False
                break

    flags = {
        "bessel": bool(bessel),
        "frame": bool(frame),
        "riesz_ovf": riesz_ovf,
        "riesz_basis": riesz_basis,
        "orthonormal_ovf": orthonormal_ovf,
        "onb_pair": bool(onb_pair),
    }
    label = "none"
    for name in _LABEL_ORDER[1:]:
        if flags[name]:
            label = name
    return FactorizationResult(U, V, label, flags)


@dataclass(frozen=True)
class WeightedBesselResult:
    holds: bool
    deficiency: np.ndarray


def weighted_onb_bessel_check(op: OvfPair, c) -> WeightedBesselResult:
    """deficiency = I - sum (2 - c_j) Psi_j^* A_j for Psi_j = c_j A_j.

    Requires {A_j} to satisfy the orthonormal-set cross identities and
    all weights <= 2; holds iff the deficiency is Hermitian psd.
    """
    weights = np.asarray(c, dtype=float)
    if weights.shape != (op.n,):
        raise ShapeMismatch("need one weight per member")
    tol = op.tol
    if np.any(weights > 2.0 + tol.abs_tol):
        raise WeightTooLarge("weights must not exceed 2")
    if not _cross_identities_ok(op, op.A, op.A, tol):
        raise NotWeightedOnb("members must satisfy the orthonormal-set identities")
    thetaA, thetaPsi = _stack(op.A), _stack(op.Psi)
    scaled = np.repeat(weights, op.d)[:, None] * thetaA  # member j is c_j A_j

    def block_max(M):  # entry_max of each member's d x m block
        return np.abs(M).reshape(op.n, -1).max(axis=1)

    margin = tol.abs_tol + tol.rel_tol * np.maximum(block_max(thetaPsi), block_max(scaled))
    if np.any(block_max(thetaPsi - scaled) > margin):
        raise NotWeightedOnb("Psi_j must equal c_j A_j")
    eye = np.eye(op.m, dtype=complex if op.field == COMPLEX else float)
    deficiency = eye - thetaPsi.conj().T @ (np.repeat(2.0 - weights, op.d)[:, None] * thetaA)
    rep = spectral(deficiency, tol)
    return WeightedBesselResult(bool(rep.is_hermitian and rep.is_psd), deficiency)


@dataclass(frozen=True)
class RightSimilarityTransforms:
    RAB: np.ndarray
    RPsiPhi: np.ndarray


def right_similarity_detect(op1: OvfPair, op2: OvfPair) -> Optional[RightSimilarityTransforms]:
    """Invertible right factors with B_j = A_j R, Phi_j = Psi_j R', if any."""
    S = _require_ovf_frame(op1)
    _require_ovf_frame(op2)
    if op1.m != op2.m or op1.n != op2.n or op1.codims != op2.codims:
        raise ShapeMismatch("pairs must share member shapes")
    ops1, ops2 = ovf_operators(op1), ovf_operators(op2)
    RAB = np.linalg.solve(S, ops1.thetaPsi.conj().T @ ops2.thetaA)
    RPsiPhi = np.linalg.solve(S, ops1.thetaA.conj().T @ ops2.thetaPsi)
    tol = op1.tol
    if smallest_singular_value(RAB) <= tol.abs_tol or \
            smallest_singular_value(RPsiPhi) <= tol.abs_tol:
        return None
    for Aj, Bj in zip(op1.A, op2.A):
        if not tol.mat_close(Aj @ RAB, Bj):
            return None
    for Pj, Fj in zip(op1.Psi, op2.Psi):
        if not tol.mat_close(Pj @ RPsiPhi, Fj):
            return None
    return RightSimilarityTransforms(RAB, RPsiPhi)


def compose_ovf(outer: OvfPair, inner: OvfPair) -> OvfPair:
    """Members B_l A_j indexed (l, j) with l outer-major."""
    if inner.d is None or outer.m != inner.d:
        raise ShapeMismatch("inner codomain must equal outer domain")
    A = []
    Psi = []
    for Bl, Fl in zip(outer.A, outer.Psi):
        for Aj, Pj in zip(inner.A, inner.Psi):
            A.append(Bl @ Aj)
            Psi.append(Fl @ Pj)
    field = outer.field if outer.field == inner.field else COMPLEX
    return OvfPair(tuple(A), tuple(Psi), field, inner.tol)


def tensor_ovf(op1: OvfPair, op2: OvfPair) -> OvfPair:
    """Members A_j (x) B_l indexed (j, l) row-major; S = S1 (x) S2."""
    A = []
    Psi = []
    for Aj, Pj in zip(op1.A, op1.Psi):
        for Bl, Fl in zip(op2.A, op2.Psi):
            A.append(np.kron(Aj, Bl))
            Psi.append(np.kron(Pj, Fl))
    field = op1.field if op1.field == op2.field else COMPLEX
    return OvfPair(tuple(A), tuple(Psi), field, op1.tol)


def tensor_shuffle_permutation(n1: int, d1: int, n2: int, d2: int) -> np.ndarray:
    """Row permutation carrying kron(theta_A, theta_B) onto the stacked
    member-major layout used by tensor_ovf: (j, a, l, b) -> (j, l, a, b)."""
    size = n1 * d1 * n2 * d2
    perm = np.zeros(size, dtype=int)
    for j in range(n1):
        for a in range(d1):
            for l in range(n2):
                for b in range(d2):
                    src = ((j * d1 + a) * n2 + l) * d2 + b
                    dst = ((j * n2 + l) * d1 + a) * d2 + b
                    perm[dst] = src
    return perm


def extend_tight_ovf(op: OvfPair, lam: float) -> OvfPair:
    """Append the member B = (lam I - S)^(1/2) to both families.

    The appended block maps K^m to K^m regardless of the other members'
    codomains, so the output may be codomain-heterogeneous.
    """
    S = ovf_operators(op).S
    flags = frame_flags(S, op.tol)
    if not flags.is_bessel:
        raise NotBessel("tight extension starts from a Bessel pair")
    top = float(spectral(S, op.tol).eigenvalues.real.max())
    if lam <= top + op.tol.abs_tol:
        raise LambdaTooSmall(f"lambda must exceed the top eigenvalue {top}")
    B = herm_sqrt(lam * np.eye(op.m) - S, op.tol)
    return OvfPair(op.A + (B,), op.Psi + (B,), op.field, op.tol)


def dilate_ovf(op: OvfPair) -> OvfPair:
    """Extend a Parseval OVF pair to an orthonormal OVF on K^(m + nd - r)."""
    tol = op.tol
    if op.d is None:
        raise ShapeMismatch("dilation needs a uniform codomain")
    report = verify_ovf(op)
    if not report.parseval:
        raise NotParseval("dilation starts from a Parseval pair")
    ops = ovf_operators(op)
    if not _same_column_space(ops.thetaA, ops.thetaPsi, tol):
        raise RangesDiffer("theta_A and theta_Psi must have equal ranges")
    P = ops.P
    if P is None or entry_max(P - P.conj().T) > tol.margin(entry_max(P)) or \
            entry_max(P @ P - P) > tol.margin(entry_max(P)):
        raise IdempotentNotProjection("frame idempotent is not an orthogonal projection")
    nd = op.n * op.d
    Q = range_basis(ops.thetaA, tol)
    r = Q.shape[1]
    Pperp = np.eye(nd, dtype=P.dtype) - hermitian_part(P)
    Qperp = range_basis(np.eye(nd, dtype=P.dtype) - Q @ Q.conj().T, tol)
    ext = Pperp @ Qperp  # nd x (nd - r)
    if op.field == REAL:
        ext = ext.real
    d = op.d
    A = tuple(np.hstack([Aj, ext[j * d:(j + 1) * d, :]]) for j, Aj in enumerate(op.A))
    Psi = tuple(np.hstack([Pj, ext[j * d:(j + 1) * d, :]]) for j, Pj in enumerate(op.Psi))
    return OvfPair(A, Psi, op.field, tol)


def ovf_bridge(fp: FramePair) -> OvfPair:
    """Frame pair -> rank-one OVF pair: A_j = x_j^*, Psi_j = tau_j^*."""
    A = tuple(fp.X[:, j].conj().reshape(1, -1) for j in range(fp.n))
    Psi = tuple(fp.T[:, j].conj().reshape(1, -1) for j in range(fp.n))
    return OvfPair(A, Psi, fp.field, fp.tol)


def ovf_bridge_inverse(op: OvfPair) -> FramePair:
    """Rank-one OVF pair -> frame pair; requires codomain dimension one."""
    if op.d != 1:
        raise CodomainNotOneDim("the inverse bridge needs d = 1")
    X = np.column_stack([Aj.conj().ravel() for Aj in op.A])
    T = np.column_stack([Pj.conj().ravel() for Pj in op.Psi])
    return FramePair(X, T, op.field, op.tol)
