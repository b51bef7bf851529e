"""Dual-pair frames for K^m.

A FramePair holds two families {x_j}, {tau_j} of n vectors in K^m as the
columns of X and T.  The frame operator is S = T X^* = sum_j tau_j x_j^*;
the pair is a frame when S is self-adjoint, positive and invertible, and
the optimal frame bounds are then the extreme eigenvalues of S.

Analysis operators are theta_x = X^*, theta_tau = T^* (vectors to
coefficients); the frame idempotent P = X^* S^-1 T acts on coefficient
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    BadCoefficients,
    CountMismatch,
    IdempotentNotProjection,
    LambdaTooSmall,
    NotAFrame,
    NotBessel,
    NotOrthogonal,
    NotParseval,
    NotWeightedOnb,
    ParamNotAdmissible,
    RangesDiffer,
    ShapeMismatch,
    WeightTooLarge,
)
from .numerics import (
    Tolerance,
    _finite_product,
    _hermitian,
    _hermitian_eig,
    _invertible,
    _pd,
    _psd,
    _require_square,
    entry_max,
    hermitian_part,
    herm_sqrt,
)

REAL = "real"
COMPLEX = "complex"


def _as_matrix(entries, field: str) -> np.ndarray:
    A = np.asarray(entries)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if field == REAL:
        if np.iscomplexobj(A):
            if entry_max(A.imag) != 0.0:
                raise ValueError("real field requires exactly zero imaginary parts")
            A = A.real
        A = A.astype(np.float64)
    elif field == COMPLEX:
        A = A.astype(np.complex128)
    else:
        raise ValueError(f"unknown field tag {field!r}")
    if not np.all(np.isfinite(A)):
        raise ValueError("entries must be finite")
    A.setflags(write=False)
    return A


def infer_field(*arrays) -> str:
    return COMPLEX if any(np.iscomplexobj(np.asarray(a)) for a in arrays) else REAL


@dataclass(frozen=True)
class FramePair:
    """Columns of X are the x_j, columns of T are the tau_j."""

    X: np.ndarray
    T: np.ndarray
    field: str
    tol: Tolerance = Tolerance()

    def __post_init__(self):
        X = _as_matrix(self.X, self.field)
        T = _as_matrix(self.T, self.field)
        if X.shape != T.shape:
            raise ShapeMismatch(f"X {X.shape} and T {T.shape} must share shape")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("dimension and count must be positive")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "T", T)

    @classmethod
    def from_columns(cls, x_cols, tau_cols, field: Optional[str] = None,
                     tol: Tolerance = Tolerance()) -> "FramePair":
        X = np.column_stack([np.asarray(v).ravel() for v in x_cols])
        T = np.column_stack([np.asarray(v).ravel() for v in tau_cols])
        return cls(X, T, field or infer_field(X, T), tol)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def x(self, j: int) -> np.ndarray:
        return self.X[:, j]

    def tau(self, j: int) -> np.ndarray:
        return self.T[:, j]

    def with_tol(self, tol: Tolerance) -> "FramePair":
        return replace(self, tol=tol)


@dataclass(frozen=True)
class FrameReport:
    self_adjoint: bool
    psd: bool
    invertible: bool
    is_bessel: bool
    is_frame: bool
    lower_a: float
    upper_b: float
    tight: bool
    parseval: bool


def frame_operator(fp: FramePair) -> np.ndarray:
    """S = T X^* = sum_j tau_j x_j^*  (m x m); NumericalOverflow when it overflows."""
    return _finite_product(fp.T, fp.X.conj().T, "frame operator")


def frame_flags(S, tol: Tolerance) -> FrameReport:
    """Verdicts for a would-be frame operator, as _frame_flags decides them.

    An S that is not square raises NonSquare, one that is not finite
    ValueError; degenerate but valid input yields is_frame=False.
    """
    return _frame_flags(_require_square(S), tol)


def _frame_flags(S: np.ndarray, tol: Tolerance) -> FrameReport:
    """frame_flags for a finite square S, such as the one frame_operator forms.

    One decomposition decides everything.  A Hermitian S (within
    tolerance) pays one eigvalsh of its Hermitian part: invertible reads
    min |lambda| > abs_tol, and is_frame is the pd rule, lambda_min >
    abs_tol.  A non-Hermitian S, which is never a frame, pays one SVD to
    report invertible as sigma_min(S) > abs_tol.
    """
    w = _hermitian_eig(S, tol)
    psd, is_frame = bool(_psd(w, tol)), bool(_pd(w, tol))
    a, b = (float(w[0]), float(w[-1])) if is_frame else (0.0, 0.0)
    tight = is_frame and (b - a) <= tol.margin(b)
    parseval = tight and abs(b - 1.0) <= tol.margin(1.0, b)
    invertible = _invertible(S if w is None else w, tol)
    return FrameReport(w is not None, psd, invertible, psd, is_frame, a, b, tight, parseval)


def verify(fp: FramePair) -> FrameReport:
    """Full verdict on the pair; degenerate input yields is_frame=False.

    Costs one S and one Hermitian eigendecomposition; see _frame_flags for
    the invertibility rule.  Weak-frame verification coincides with this
    predicate: at finite dimension the coordinatewise Bessel conditions
    hold automatically, so only the frame-operator conditions remain to be
    checked.
    """
    return _frame_flags(frame_operator(fp), fp.tol)


def _require_frame(fp: FramePair, message: str = "operation requires a frame") -> np.ndarray:
    S = frame_operator(fp)
    _require_frame_flags(S, fp.tol, message)
    return S


def _require_frame_flags(S: np.ndarray, tol: Tolerance,
                         message: str = "operation requires a frame") -> FrameReport:
    """_frame_flags(S, tol) for an S that must be a frame's, else NotAFrame(message)."""
    report = _frame_flags(S, tol)
    if not report.is_frame:
        raise NotAFrame(message)
    return report


def _frame_eigh(S: np.ndarray, tol: Tolerance, message: str = "operation requires a frame"):
    """Eigenpairs (w ascending, V) of S's Hermitian part, for an S that must be a frame's.

    One eigh both gates and decomposes: _frame_flags' rules on its own
    eigenvalues (S Hermitian within tolerance and the pd rule), else
    NotAFrame(message).
    """
    eig = _hermitian_eig(S, tol, vectors=True)
    if eig is None or not _pd(eig[0], tol):
        raise NotAFrame(message)
    return eig


def canonical_dual(fp: FramePair) -> FramePair:
    """(S^-1 x_j, S^-1 tau_j); its frame operator is S^-1.

    The d = 1 case of ovf.canonical_dual_ovf: one S^-1 and two products
    (_canonical_dual), returned as the conjugate transposes of the dual
    analysis operators, so the bridged results agree bit for bit.
    """
    S = _require_frame(fp)
    theta_A, theta_Psi = _canonical_dual(*_thetas(fp), S)
    return FramePair(theta_A.conj().T, theta_Psi.conj().T, fp.field, fp.tol)


def _check_shapes(fp: FramePair, gq: FramePair):
    if fp.m != gq.m or fp.n != gq.n:
        raise ShapeMismatch(
            f"pairs must share dimension and count, got ({fp.m},{fp.n}) vs ({gq.m},{gq.n})"
        )


def is_dual(fp: FramePair, gq: FramePair) -> bool:
    """True iff Omega X^* = I and Y T^* = I, gq = (Y, Omega)."""
    _check_shapes(fp, gq)
    return _duality(*_thetas(fp), *_thetas(gq), fp.tol)[0]


def is_orthogonal(fp: FramePair, gq: FramePair) -> bool:
    """True iff Omega X^* = 0 and Y T^* = 0 (bilinear condition only)."""
    _check_shapes(fp, gq)
    return _duality(*_thetas(fp), *_thetas(gq), fp.tol)[1]


def make_dual_from_params(fp: FramePair, U, V) -> FramePair:
    """Dual pair from free parameters U, V (operators l2(n) -> K^m).

    y_j = S^-1 x_j + V e_j - V theta_tau S^-1 x_j and the mirrored omega_j;
    admissible exactly when S^-1 + U V^* - U theta_x S^-1 theta_tau^* V^*
    is Hermitian positive definite (this matrix is the frame operator of
    the produced pair).  Products are grouped through m x m factors
    (V T^*, U X^*), so the cost is O(m^2 n), never O(m n^2).
    """
    S = _require_frame(fp)
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != (fp.m, fp.n) or V.shape != (fp.m, fp.n):
        raise ShapeMismatch("U and V must be m x n")
    Sinv = np.linalg.inv(S)
    SiX = Sinv @ fp.X
    SiT = Sinv @ fp.T
    UXSiT = (U @ fp.X.conj().T) @ SiT
    Y = SiX + V - (V @ fp.T.conj().T) @ SiX
    Om = SiT + U - UXSiT
    W = _require_square(Sinv + U @ V.conj().T - UXSiT @ V.conj().T)
    if not _pd(_hermitian_eig(W, fp.tol), fp.tol):
        raise ParamNotAdmissible("parameters fail the positivity/invertibility condition")
    field = infer_field(Y, Om) if fp.field == REAL else fp.field
    return FramePair(Y, Om, field, fp.tol)


def common_dual(fp: FramePair, gq: FramePair) -> FramePair:
    """z_j = S_fp^-1 x_j + S_gq^-1 y_j; dual to both orthogonal frames."""
    S1 = _require_frame(fp)
    S2 = _require_frame(gq)
    if not is_orthogonal(fp, gq):
        raise NotOrthogonal("common dual needs orthogonal frames")
    Z = np.linalg.solve(S1, fp.X) + np.linalg.solve(S2, gq.X)
    R = np.linalg.solve(S1, fp.T) + np.linalg.solve(S2, gq.T)
    return FramePair(Z, R, fp.field if fp.field == gq.field else COMPLEX, fp.tol)


def _thetas(fp: FramePair):
    """The analysis operators (theta_x, theta_tau) = (X^*, T^*)."""
    return fp.X.conj().T, fp.T.conj().T


def frame_idempotent(fp: FramePair) -> np.ndarray:
    """P = X^* S^-1 T  (n x n), idempotent on coefficient space."""
    S = _require_frame(fp)
    return _idempotent(*_thetas(fp), S)


@dataclass(frozen=True)
class ClassifyResult:
    riesz_frame: bool
    orthonormal_frame: bool
    _pair: FramePair = dataclass_field(repr=False, compare=False)

    @cached_property
    def cross_gram(self) -> np.ndarray:
        """Entry [k, j] = <x_j, tau_k>; computed on first access, since no verdict reads it."""
        return self._pair.T.conj().T @ self._pair.X


def classify(fp: FramePair) -> ClassifyResult:
    """Riesz frame: P = I.  Orthonormal frame: Riesz, Parseval and <x_j, tau_k> = delta_jk.

    The d = 1 case of ovf.verify_ovf's refinements (_refinements): for
    n > m neither holds, decided without forming P.
    """
    S = frame_operator(fp)
    return _classify(fp, S, _require_frame_flags(S, fp.tol))


def _classify(fp: FramePair, S: np.ndarray, report: FrameReport) -> ClassifyResult:
    """classify for a frame whose S and flags the caller already holds."""
    return ClassifyResult(*_refinements(*_thetas(fp), S, report, (1,) * fp.n, fp.tol), fp)


def direct_sum(fp: FramePair, gq: FramePair) -> FramePair:
    """Stack the members: (x_j + y_j, tau_j + omega_j) in K^(m1+m2)."""
    if fp.n != gq.n:
        raise CountMismatch(f"counts differ: {fp.n} vs {gq.n}")
    field = fp.field if fp.field == gq.field else COMPLEX
    return FramePair(np.vstack([fp.X, gq.X]), np.vstack([fp.T, gq.T]), field, fp.tol)


def tensor_product(fp: FramePair, gq: FramePair) -> FramePair:
    """Columns x_j (x) y_l, index (j, l) row-major; S = S1 (x) S2.

    The d = 1 case of ovf.tensor_ovf (_tensor); kron commutes exactly with
    the conjugate transpose, so the columns are those of kron(X, Y).
    """
    field = fp.field if fp.field == gq.field else COMPLEX
    theta_A, theta_Psi, _ = _tensor(*_thetas(fp), (1,) * fp.n, *_thetas(gq), (1,) * gq.n)
    return FramePair(theta_A.conj().T, theta_Psi.conj().T, field, fp.tol)


def interpolate_parseval(fp: FramePair, gq: FramePair, A, B, C, D) -> FramePair:
    """({A x_j + B y_j}, {C tau_j + D omega_j}) for A C^* + B D^* = I."""
    _check_shapes(fp, gq)
    if not (verify(fp).parseval and verify(gq).parseval):
        raise NotParseval("both pairs must be Parseval")
    if not is_orthogonal(fp, gq):
        raise NotOrthogonal("pairs must be orthogonal")
    A, B, C, D = (np.asarray(M) for M in (A, B, C, D))
    if not fp.tol.is_identity(A @ C.conj().T + B @ D.conj().T):
        raise BadCoefficients("A C^* + B D^* must be the identity")
    X = A @ fp.X + B @ gq.X
    T = C @ fp.T + D @ gq.T
    return FramePair(X, T, infer_field(X, T) if fp.field == REAL == gq.field else COMPLEX, fp.tol)


@dataclass(frozen=True)
class SimilarityTransforms:
    Txy: np.ndarray
    Ttw: np.ndarray


def similarity_detect(fp: FramePair, gq: FramePair) -> Optional[SimilarityTransforms]:
    """Invertible (Txy, Ttw) with y_j = Txy x_j, omega_j = Ttw tau_j, if any.

    The candidates Txy = Y T^* S^-* and Ttw = Omega X^* S^-* are the unique
    possible transforms; similarity holds exactly when the two frame
    idempotents coincide.
    """
    S = _require_frame(fp)
    _require_frame(gq)
    _check_shapes(fp, gq)
    found = _right_similarity(*_thetas(fp), S, *_thetas(gq), (1,) * fp.n, fp.tol)
    if found is None:
        return None
    return SimilarityTransforms(found[0].conj().T, found[1].conj().T)


LEFT_ON_X = "left_on_x"
SPLIT = "split"
LEFT_ON_T = "left_on_t"


def parsevalize(fp: FramePair, mode: str = SPLIT) -> FramePair:
    """Similar Parseval pair: (S^-1 X, T), (S^-1/2 X, S^-1/2 T) or (X, S^-1 T).

    The split mode takes S^-1/2 = V diag(w^-1/2) V^* from the one eigh
    that also decides whether S is a frame's (_frame_eigh).
    """
    if mode == SPLIT:
        w, V = _frame_eigh(frame_operator(fp), fp.tol)
        Rinv = (V / np.sqrt(w)) @ V.conj().T
        return FramePair(Rinv @ fp.X, Rinv @ fp.T, fp.field, fp.tol)
    S = _require_frame(fp)
    if mode == LEFT_ON_X:
        return FramePair(np.linalg.solve(S, fp.X), fp.T, fp.field, fp.tol)
    if mode == LEFT_ON_T:
        return FramePair(fp.X, np.linalg.solve(S, fp.T), fp.field, fp.tol)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class DilationResult:
    big: FramePair
    embed_dim: int


def range_basis(A: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis of the column space of A."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol.abs_tol + tol.rel_tol * smax))
    return U[:, :rank]


def _shared_range_basis(A: np.ndarray, B: np.ndarray, tol: Tolerance) -> Optional[np.ndarray]:
    """range_basis(A) when A and B have the same column space, else None."""
    # mutual projection residuals below tol * norm
    QA = range_basis(A, tol)
    QB = range_basis(B, tol)
    if QA.shape[1] != QB.shape[1]:
        return None
    resB = entry_max(B - QA @ (QA.conj().T @ B))
    resA = entry_max(A - QB @ (QB.conj().T @ A))
    if resB <= tol.margin(entry_max(B)) and resA <= tol.margin(entry_max(A)):
        return QA
    return None


def dilate(fp: FramePair) -> DilationResult:
    """Extend a Parseval pair to an orthonormal frame of K^(m + n - r).

    The new members are y_j = x_j + P_perp e_j (coordinates of the
    orthogonal complement of ran(theta_x) appended below the originals),
    so projecting onto the first m coordinates recovers the input.
    """
    rows = _dilation_rows(*_thetas(fp), frame_operator(fp), fp.tol)
    big = FramePair(np.vstack([fp.X, rows]), np.vstack([fp.T, rows]), fp.field, fp.tol)
    return DilationResult(big, fp.m + rows.shape[0])


# --- one body per operation for both layers ---------------------------------------
#
# These take stacked analysis operators: theta_A and theta_Psi are N x m, the
# members' d_j x m blocks in order, and codims lists the d_j.  A vector pair
# is the case theta_A = X^*, theta_Psi = T^*, every d_j = 1.


def _idempotent(theta_A: np.ndarray, theta_Psi: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The frame idempotent theta_A S^-1 theta_Psi^* (N x N), for an invertible S."""
    return theta_A @ np.linalg.solve(S, theta_Psi.conj().T)


def _rank_excludes_identity(N: int, m: int, tol: Tolerance) -> bool:
    """Whether no N x N product of N x m and m x N factors passes tol.is_identity.

    Such a product M (the frame idempotent) has rank at most
    m.  For N > m, Eckart-Young gives ||M - I||_2 >= 1, hence
    entry_max(M - I) >= 1/N.  A matrix that passes is_identity has
    entry_max(M) <= (1 + abs_tol) / (1 - rel_tol) when rel_tol < 1, so its
    deviation is at most mu = abs_tol + rel_tol (1 + abs_tol) / (1 - rel_tol).
    When 1/N > mu the Riesz verdict, and with it the orthonormal one, is
    False, decided in exact arithmetic, without the N x N product;
    otherwise callers form it.
    A computed product is a rank-m one plus rounding error, so it could
    pass only through a rounding error of 2-norm at least 1 - N mu.
    """
    if N <= m or tol.rel_tol >= 1.0:
        return False
    mu = tol.abs_tol + tol.rel_tol * (1.0 + tol.abs_tol) / (1.0 - tol.rel_tol)
    return 1.0 / N > mu


def _refinements(theta_A: np.ndarray, theta_Psi: np.ndarray, S: np.ndarray,
                 report: FrameReport, codims, tol: Tolerance):
    """(riesz, orthonormal) for a pair whose S and frame_flags report the caller holds.

    riesz: a frame whose idempotent P passes tol.is_identity; for N > m the
    rank rule decides it without forming P (_rank_excludes_identity).
    orthonormal: riesz, Parseval, and the block identities
    A_j Psi_k^* = delta_jk I, each block at its own scale.
    """
    riesz = bool(report.is_frame
                 and not _rank_excludes_identity(theta_A.shape[0], S.shape[0], tol)
                 and tol.is_identity(_idempotent(theta_A, theta_Psi, S)))
    orthonormal = bool(riesz and report.parseval
                       and _block_identities_ok(theta_A, theta_Psi, codims, tol))
    return riesz, orthonormal


def _duality(theta_A1: np.ndarray, theta_Psi1: np.ndarray, theta_A2: np.ndarray,
             theta_Psi2: np.ndarray, tol: Tolerance):
    """(dual, orthogonal): theta_Psi2^* theta_A1 and theta_A2^* theta_Psi1 against I and 0.

    Each sum adds N products of one entry of each factor, so
    N entry_max(left) entry_max(right) bounds its entries and scales its
    zero test; the verdict is then invariant under positive scaling of
    either pair.
    """
    N = theta_A1.shape[0]
    sums = [(left.conj().T @ right, N * entry_max(left) * entry_max(right))
            for left, right in ((theta_Psi2, theta_A1), (theta_A2, theta_Psi1))]
    dual = all(tol.is_identity(M) for M, _ in sums)
    orthogonal = all(tol.is_zero(M, scale) for M, scale in sums)
    return dual, orthogonal


def _pair_rows(codims1, codims2) -> np.ndarray:
    """Row order taking a product layout to member-major stacked rows.

    The layout has one row per (r1, r2), r1 a row of a pair with member
    sizes codims1 and r2 one of codims2, r1-major.  The order lists the
    rows of member pair (j, l) together, j-major, each block keeping its
    (r1, r2) order.
    """
    n2 = len(codims2)
    key = np.repeat(np.arange(len(codims1)) * n2, codims1)[:, None] + np.repeat(np.arange(n2), codims2)
    return np.argsort(key.ravel(), kind="stable")


def _tensor(theta_A1: np.ndarray, theta_Psi1: np.ndarray, codims1,
            theta_A2: np.ndarray, theta_Psi2: np.ndarray, codims2):
    """(theta_A, theta_Psi, codims) of the members A_j (x) B_l, (j, l) row-major.

    One kron of the stacked operators, with its rows regrouped by member
    pair; every entry is the same single product as in kron(A_j, B_l).
    """
    rows = _pair_rows(codims1, codims2)
    codims = tuple(d1 * d2 for d1 in codims1 for d2 in codims2)
    return np.kron(theta_A1, theta_A2)[rows], np.kron(theta_Psi1, theta_Psi2)[rows], codims


def _canonical_dual(theta_A: np.ndarray, theta_Psi: np.ndarray, S: np.ndarray):
    """The dual analysis operators (theta_A S^-1, theta_Psi S^-1), for an invertible S.

    S^-1 is taken once, by a solve against the identity, so the two
    products share it.
    """
    Sinv = np.linalg.solve(S, np.eye(S.shape[0], dtype=S.dtype))
    return theta_A @ Sinv, theta_Psi @ Sinv


def _members_close(M: np.ndarray, N: np.ndarray, codims, tol: Tolerance) -> bool:
    """tol.mat_close on each member's row block of two stacked operators."""
    starts = np.cumsum((0,) + codims[:-1])

    def block_max(B):  # entry_max of each block, 0 for an empty one
        rows = np.append(np.abs(B).max(axis=1, initial=0.0), 0.0)
        return np.where(np.asarray(codims) > 0, np.maximum.reduceat(rows, starts), 0.0)

    margin = tol.abs_tol + tol.rel_tol * np.maximum(block_max(M), block_max(N))
    return bool(np.all(block_max(M - N) <= margin))


def _block_identities_ok(L: np.ndarray, R: np.ndarray, codims, tol: Tolerance) -> bool:
    """max_jk || L_j R_k^* - delta_jk I || within tolerance; needs equal member sizes.

    Each d x d block keeps its own margin abs_tol + rel_tol * max(block max, 1),
    so the block reductions run only when some entry exceeds abs_tol + rel_tol.
    """
    if len(set(codims)) != 1:
        return False
    blocks = (len(codims), codims[0], len(codims), codims[0])
    prod = L @ R.conj().T
    dev = np.abs(prod)
    np.fill_diagonal(dev, np.abs(np.diagonal(prod) - 1.0))
    if dev.max(initial=0.0) <= tol.abs_tol + tol.rel_tol:
        return True
    deviation = dev.reshape(blocks).max(axis=(1, 3))
    scale = np.abs(prod).reshape(blocks).max(axis=(1, 3))
    return bool(np.all(deviation <= tol.abs_tol + tol.rel_tol * np.maximum(scale, 1.0)))


def _dilation_rows(theta_A: np.ndarray, theta_Psi: np.ndarray, S: np.ndarray,
                   tol: Tolerance) -> np.ndarray:
    """Rows W = Qperp^* P_perp ((N - r) x N) that dilate a Parseval pair to an orthonormal one.

    The vector layer appends W below X and T, the operator layer W^* as new
    columns of theta_A and theta_Psi.
    """
    if not _frame_flags(S, tol).parseval:
        raise NotParseval("dilation starts from a Parseval pair")
    Q = _shared_range_basis(theta_A, theta_Psi, tol)
    if Q is None:
        raise RangesDiffer("theta_A and theta_Psi must have equal ranges")
    P = theta_A @ theta_Psi.conj().T  # S = I for a Parseval pair
    if not _hermitian(P, tol) or entry_max(P @ P - P) > tol.margin(entry_max(P)):
        raise IdempotentNotProjection("frame idempotent is not an orthogonal projection")
    N = theta_A.shape[0]
    Pperp = np.eye(N, dtype=P.dtype) - hermitian_part(P)
    Qperp = range_basis(np.eye(N, dtype=P.dtype) - Q @ Q.conj().T, tol)
    return Qperp.conj().T @ Pperp


def _tight_block(S: np.ndarray, lam: float, tol: Tolerance) -> np.ndarray:
    """The block B = (lam I - S)^(1/2) whose appending makes a Bessel pair lam-tight.

    The vector layer appends its columns to X and T, the operator layer its
    rows to theta_A and theta_Psi; herm_sqrt's B is exactly Hermitian, so
    these are the same pair.
    """
    w = _hermitian_eig(S, tol)
    if not _psd(w, tol):
        raise NotBessel("tight extension starts from a Bessel pair")
    top = float(w[-1])
    if lam <= top + tol.abs_tol:
        raise LambdaTooSmall(f"lambda must exceed the top eigenvalue {top}")
    return herm_sqrt(lam * np.eye(S.shape[0]) - S, tol)


def _weighted_onb(theta_A: np.ndarray, theta_Psi: np.ndarray, codims, c, tol: Tolerance):
    """(holds, deficiency) of ovf.weighted_onb_bessel_check."""
    weights = np.asarray(c, dtype=float)
    if weights.shape != (len(codims),):
        raise ShapeMismatch("need one weight per member")
    if np.any(weights > 2.0 + tol.abs_tol):
        raise WeightTooLarge("weights must not exceed 2")
    if not _block_identities_ok(theta_A, theta_A, codims, tol):
        raise NotWeightedOnb("members must satisfy the orthonormal-set identities")
    if not _members_close(theta_Psi, np.repeat(weights, codims)[:, None] * theta_A, codims, tol):
        raise NotWeightedOnb("Psi_j must equal c_j A_j")
    eye = np.eye(theta_A.shape[1], dtype=theta_A.dtype)
    deficiency = eye - theta_Psi.conj().T @ (np.repeat(2.0 - weights, codims)[:, None] * theta_A)
    w = _hermitian_eig(_require_square(deficiency), tol)
    return bool(_psd(w, tol)), deficiency


def _right_similarity(theta_A: np.ndarray, theta_Psi: np.ndarray, S: np.ndarray,
                      theta_B: np.ndarray, theta_Phi: np.ndarray, codims, tol: Tolerance):
    """Invertible (R, R') with B_j = A_j R and Phi_j = Psi_j R', or None; S is (A, Psi)'s."""
    R = np.linalg.solve(S, theta_Psi.conj().T @ theta_B)
    R2 = np.linalg.solve(S, theta_A.conj().T @ theta_Phi)
    if not (_invertible(R, tol) and _invertible(R2, tol)):
        return None
    if not (_members_close(theta_A @ R, theta_B, codims, tol)
            and _members_close(theta_Psi @ R2, theta_Phi, codims, tol)):
        return None
    return R, R2
