"""Operator-valued frame pairs at finite dimension.

Members A_j, Psi_j map K^m to K^(d_j).  A pair is stored as its stacked
analysis operators theta_A and theta_Psi (all members vertically, read-only
(sum d_j) x m arrays) plus the member codomain sizes; the per-member d_j x m
arrays A and Psi are views into them.  The frame operator is
S = theta_Psi^* theta_A = sum_j Psi_j^* A_j, and the frame idempotent
P = theta_A S^-1 theta_Psi^* acts on the coefficient space K^(sum d_j).

A vector pair is the rank-one case: frames.FramePair stores the same
stacked operators (theta_A = X^*, theta_Psi = T^*, codims = (1,) * n) in
the same base class, so ovf_bridge and its inverse hand the frozen arrays
across without a copy.  The frame operator, the Riesz / orthonormal
refinements, duality, the tensor product, dilation, tight extension, the
weighted-ONB check, similarity, the canonical dual and the frame
idempotent have one body each in frames.py, which takes a pair of either
class and returns the caller's.

Codomain dimensions are usually uniform, but a pair may carry one
odd-sized member (the tight-extension construction appends an m x m
block), so every operation that genuinely needs a single codomain checks
for it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import CodomainNotOneDim, NotOnb, ShapeMismatch
from .frames import (
    REAL,
    FramePair,
    FrameReport,
    _StackedPair,
    _as_matrix,
    _block_identities_ok,
    _canonical_dual,
    _dilate,
    _duality,
    _extend_tight,
    _idempotent,
    _members_close,
    _pair_flags,
    _pair_rows,
    _refinements,
    _require_frame,
    _right_similarity,
    _tensor,
    _weighted_onb,
    frame_operator,
    infer_field,
)
from .numerics import (Tolerance, _Record, _frozen, _hermitian_eig, _invertible, _margins, _pd, _psd,
                       _require_square)

_NEEDS_AN_OVF = "operation requires an operator-valued frame"


@_frozen
class OvfPair(_StackedPair):
    """Members A_j, Psi_j stored as the stacked analysis operators theta_A, theta_Psi."""

    def __init__(self, A, Psi, field: str, tol: Tolerance = Tolerance()):
        A = [np.asarray(M) for M in A]
        Psi = [np.asarray(M) for M in Psi]
        if any(M.ndim != 2 for M in A + Psi):
            raise ValueError("expected a matrix")
        if len(A) != len(Psi) or not A:
            raise ShapeMismatch("need equally many (and at least one) A and Psi members")
        m = A[0].shape[1]
        for Aj, Pj in zip(A, Psi):
            if Aj.shape != Pj.shape:
                raise ShapeMismatch("each A_j and Psi_j must share shape")
            if Aj.shape[1] != m:
                raise ShapeMismatch("all members must share the domain dimension")
        # np.vstack makes the one copy of the caller's members
        theta_A, theta_Psi = (_as_matrix(np.vstack(M), field, copy=False) for M in (A, Psi))
        self._store(theta_A, theta_Psi, tuple(Aj.shape[0] for Aj in A), field, tol)

    @classmethod
    def from_members(cls, A: Sequence, Psi: Sequence, field: Optional[str] = None,
                     tol: Tolerance = Tolerance()) -> "OvfPair":
        field = field or infer_field(*A, *Psi)
        return cls(tuple(np.asarray(M) for M in A), tuple(np.asarray(M) for M in Psi), field, tol)

    @cached_property
    def A(self) -> tuple:
        return tuple(np.split(self.theta_A, np.cumsum(self.codims[:-1])))

    @cached_property
    def Psi(self) -> tuple:
        return tuple(np.split(self.theta_Psi, np.cumsum(self.codims[:-1])))

    @property
    def d(self) -> Optional[int]:
        """Common codomain dimension, or None when members disagree."""
        dims = set(self.codims)
        return dims.pop() if len(dims) == 1 else None


@_frozen
class OvfOperators(_Record):
    """Frame operator S of an OVF pair, its stacked operators and, lazily, P."""

    S: np.ndarray
    thetaA: np.ndarray
    thetaPsi: np.ndarray
    tol: Tolerance

    @cached_property
    def P(self) -> Optional[np.ndarray]:
        """The idempotent theta_A S^-1 theta_Psi^* when sigma_min(S) > abs_tol, else None.

        Computed on first access, so a caller that needs only S pays for
        neither the SVD nor the solve.  When _frame_flags calls S a frame,
        the Hermitian part H of S has lambda_min(H) > abs_tol, and
        sigma_min(S) >= lambda_min(H) because the rest of S is
        skew-Hermitian; so this gate holds and a caller holding those flags
        may skip the SVD and call frames._idempotent directly.
        """
        if _invertible(self.S, self.tol):
            return _idempotent(self.thetaA, self.thetaPsi, self.S)
        return None


def ovf_operators(op: OvfPair) -> OvfOperators:
    """S = theta_Psi^* theta_A and, when S is invertible, the idempotent P.

    NumericalOverflow when S overflows.
    """
    return OvfOperators(frame_operator(op), op.theta_A, op.theta_Psi, op.tol)


@_frozen
class OvfReport(FrameReport):
    """Frame verdicts on an OVF pair with its Riesz and orthonormal refinements."""

    riesz_ovf: bool = False
    orthonormal_ovf: bool = False


def verify_ovf(op: OvfPair) -> OvfReport:
    """Frame verdict on S plus the Riesz / orthonormal OVF refinements.

    riesz_ovf asks whether the N x N idempotent P (N = sum d_j) is the
    identity, orthonormal_ovf adds Parseval and the block identities; one
    body (frames._refinements) shared with frames.classify.  Counting rows
    decides riesz_ovf without forming P: a frame with N = m is Riesz, and
    for N > m neither holds.  Only a tolerance too loose for that rank
    rule forms P.
    """
    S, base = _pair_flags(op)
    riesz, orthonormal = _refinements(op, S, base)
    # an OvfReport's fields are base's, in field order, then the two refinements
    return OvfReport(*vars(base).values(), riesz, orthonormal)


def canonical_dual_ovf(op: OvfPair) -> OvfPair:
    """(A_j S^-1, Psi_j S^-1), one body with frames.canonical_dual (_canonical_dual)."""
    return _canonical_dual(op, _NEEDS_AN_OVF)


@_frozen
class DualityRelation(_Record):
    """Whether two OVF pairs are dual and whether they are orthogonal."""

    dual: bool
    orthogonal: bool


def duality_relation(op1: OvfPair, op2: OvfPair) -> DualityRelation:
    """Mixed sums sum Phi_j^* A_j and sum B_j^* Psi_j against I and 0.

    One body with frames.is_dual and frames.is_orthogonal (_duality).
    """
    if op1.m != op2.m or op1.codims != op2.codims:
        raise ShapeMismatch("pairs must share member shapes")
    return DualityRelation(*_duality(op1, op2))


def onb_blocks(n: int, d: int, tol: Tolerance = Tolerance()) -> OvfPair:
    """Coordinate-block orthonormal basis pair: A_j = rows [jd, (j+1)d) of I_nd."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    eye = np.eye(n * d)
    blocks = tuple(eye[j * d:(j + 1) * d, :] for j in range(n))
    return OvfPair(blocks, blocks, REAL, tol)


def _is_onb_family(op: OvfPair) -> bool:
    tol = op.tol
    return (op.d is not None and op.m == op.n * op.d
            and _members_close(op.theta_A, op.theta_Psi, op.codims, tol)
            and _block_identities_ok(op.theta_A, op.theta_A, op.codims, tol)
            and tol.is_identity(op.theta_A.conj().T @ op.theta_A))


_LABEL_ORDER = ("none", "bessel", "frame", "riesz_ovf", "riesz_basis",
                "orthonormal_ovf", "onb_pair")


@_frozen
class FactorizationResult(_Record):
    """Factors U, V of an OVF pair against an orthonormal basis, and its label."""

    U: np.ndarray
    V: np.ndarray
    label: str
    flags: dict


def factorize_against_onb(op: OvfPair, F: OvfPair) -> FactorizationResult:
    """Factor A_j = F_j U, Psi_j = F_j V against an orthonormal basis pair.

    The label is the strongest class whose defining condition on (U, V)
    holds; the full flag set is reported alongside since the classes do
    not form a chain (an onb pair with unequal weights is not an
    orthonormal OVF).  The factored pair has N = m = n d stacked rows, so
    riesz_ovf is the frame verdict, by the count rule that verify_ovf
    applies to the same pair.
    """
    if not _is_onb_family(F):
        raise NotOnb("F must be an orthonormal basis pair (m = n*d with block identities)")
    if op.d != F.d or op.m != F.m or op.n != F.n:
        raise ShapeMismatch("op and F must share member shapes")
    U = F.theta_A.conj().T @ op.theta_A
    V = F.theta_A.conj().T @ op.theta_Psi
    tol = op.tol

    VhU = V.conj().T @ U
    w = _hermitian_eig(_require_square(VhU), tol)
    bessel, frame = _psd(w, tol), _pd(w, tol)
    riesz_ovf = bool(frame)  # N = m = n d rows: the count rule of frames._refinements
    orthonormal_ovf = bool(tol.is_identity(VhU) and tol.is_identity(U @ V.conj().T))
    riesz_basis = bool(frame and _invertible(U, tol) and _invertible(V, tol))

    unitary = tol.is_identity(U @ U.conj().T) and tol.is_identity(U.conj().T @ U)
    A_rows = op.theta_A.reshape(op.n, -1)  # row j holds member j's entries
    denom = np.einsum("jk,jk->j", A_rows.conj(), A_rows).real
    onb_pair = False
    if unitary and np.all(denom > tol.abs_tol):  # Psi_j = c_j A_j with every c_j > 0
        c = np.einsum("jk,jk->j", A_rows.conj(), op.theta_Psi.reshape(op.n, -1)) / denom
        onb_pair = (np.all(np.abs(c.imag) <= _margins(tol, np.abs(c)))
                    and np.all(c.real > tol.abs_tol)
                    and _members_close(op.theta_Psi, np.repeat(c.real, op.d)[:, None] * op.theta_A,
                                       op.codims, tol))

    flags = {
        "bessel": bool(bessel),
        "frame": bool(frame),
        "riesz_ovf": riesz_ovf,
        "riesz_basis": riesz_basis,
        "orthonormal_ovf": orthonormal_ovf,
        "onb_pair": bool(onb_pair),
    }
    label = max((name for name in flags if flags[name]), key=_LABEL_ORDER.index, default="none")
    return FactorizationResult(U, V, label, flags)


@_frozen
class WeightedBesselResult(_Record):
    """Whether the weighted OVF pair is Bessel, and its deficiency operator."""

    holds: bool
    deficiency: np.ndarray


def weighted_onb_bessel_check(op: OvfPair, c) -> WeightedBesselResult:
    """deficiency = I - sum (2 - c_j) Psi_j^* A_j for Psi_j = c_j A_j.

    Requires {A_j} to satisfy the orthonormal-set cross identities and
    all weights <= 2; holds iff the deficiency is Hermitian psd.
    """
    return WeightedBesselResult(*_weighted_onb(op, c))


@_frozen
class RightSimilarityTransforms(_Record):
    """Invertible right factors with B_j = A_j RAB and Phi_j = Psi_j RPsiPhi."""

    RAB: np.ndarray
    RPsiPhi: np.ndarray


def right_similarity_detect(op1: OvfPair, op2: OvfPair) -> Optional[RightSimilarityTransforms]:
    """Invertible right factors with B_j = A_j R, Phi_j = Psi_j R', if any."""
    S = _require_frame(op1, _NEEDS_AN_OVF)
    _require_frame(op2, _NEEDS_AN_OVF)
    if op1.m != op2.m or op1.codims != op2.codims:
        raise ShapeMismatch("pairs must share member shapes")
    found = _right_similarity(op1, S, op2)
    return None if found is None else RightSimilarityTransforms(*found)


def compose_ovf(outer: OvfPair, inner: OvfPair) -> OvfPair:
    """Members B_l A_j indexed (l, j) with l outer-major.

    One product per family: row r of the outer operator times every A_j
    at once, then the rows regrouped by member pair.
    """
    if inner.d is None or outer.m != inner.d:
        raise ShapeMismatch("inner codomain must equal outer domain")
    rows = _pair_rows(outer.codims, (1,) * inner.n)

    def stacked(theta_outer, theta_inner):  # (r, j) rows of theta_outer[r] A_j, regrouped
        per_member = theta_inner.reshape(inner.n, inner.d, inner.m).transpose(1, 0, 2)
        return (theta_outer @ per_member.reshape(inner.d, -1)).reshape(-1, inner.m)[rows]

    codims = tuple(d for d in outer.codims for _ in range(inner.n))
    return OvfPair._stacked(stacked(outer.theta_A, inner.theta_A),
                            stacked(outer.theta_Psi, inner.theta_Psi), codims, inner.tol)


def tensor_ovf(op1: OvfPair, op2: OvfPair) -> OvfPair:
    """Members A_j (x) B_l indexed (j, l) row-major; S = S1 (x) S2.

    One body with frames.tensor_product (_tensor).
    """
    return _tensor(op1, op2)


def extend_tight_ovf(op: OvfPair, lam: float) -> OvfPair:
    """Append the member B = (lam I - S)^(1/2) to both families.

    The appended block maps K^m to K^m regardless of the other members'
    codomains, so the output may be codomain-heterogeneous.  One body with
    analysis.extend_tight_append (frames._extend_tight).
    """
    return _extend_tight(op, lam)


def dilate_ovf(op: OvfPair) -> OvfPair:
    """Extend a Parseval OVF pair to an orthonormal OVF on K^(m + nd - r).

    One body with frames.dilate (_dilate).
    """
    if op.d is None:
        raise ShapeMismatch("dilation needs a uniform codomain")
    return _dilate(op)


def ovf_bridge(fp: FramePair) -> OvfPair:
    """Frame pair -> rank-one OVF pair: A_j = x_j^*, Psi_j = tau_j^*."""
    return OvfPair._stacked(fp.theta_A, fp.theta_Psi, fp.codims, fp.tol)


def ovf_bridge_inverse(op: OvfPair) -> FramePair:
    """Rank-one OVF pair -> frame pair; requires codomain dimension one."""
    if op.d != 1:
        raise CodomainNotOneDim("the inverse bridge needs d = 1")
    return FramePair._stacked(op.theta_A, op.theta_Psi, op.codims, op.tol)
