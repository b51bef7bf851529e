"""Dual-pair frames for K^m.

A FramePair holds two families {x_j}, {tau_j} of n vectors in K^m, the
columns of X and T.  The frame operator is S = T X^* = sum_j tau_j x_j^*;
the pair is a frame when S is self-adjoint, positive and invertible, and
the optimal frame bounds are then the extreme eigenvalues of S.  The frame
idempotent P = X^* S^-1 T acts on coefficient space.

A vector pair is the rank-one operator-valued pair (Kaftal-Larson-Zhang),
and both pair classes share one storage (_StackedPair): the read-only
analysis operators theta_A and theta_Psi, here theta_x = X^* and
theta_tau = T^* with codims = (1,) * n.  Every body reads those stacked
operators and builds its pair through type(pair)._stacked, adopting the
arrays it has just computed, whose dtype sets the pair's field.  X and T
are caller-side adjoints, a fresh conjugate copy on each read of a
complex pair, and only FramePair and io know that layout.  Each
operation both layers share has one body below, which takes a pair of
either class and returns the caller's class.
"""

from __future__ import annotations

from dataclasses import field as dataclass_field
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
    _Frozen,
    _Record,
    _frozen,
    _block_identities_ok,
    _certifiable,
    _checked_hermitian_part,
    _decompose,
    _finite_eigenvalues,
    _finite_product,
    _gate,
    _hermitian,
    _hermitian_deviation,
    _hermitian_eig,
    _invertible,
    _margins,
    _members_close,
    _not_tight_certified,
    _overflow,
    _pd,
    _pd_certified,
    _psd,
    _rank_excludes_identity,
    _require_square,
    entry_max,
    herm_sqrt,
)

REAL = "real"
COMPLEX = "complex"


def _as_matrix(entries, field: str, copy: bool = True) -> np.ndarray:
    """entries as a finite matrix of field's dtype: a copy, or with copy=False
    the array itself when it already has that dtype."""
    A = np.asarray(entries)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if field == REAL:
        if np.iscomplexobj(A):
            if entry_max(A.imag) != 0.0:
                raise ValueError("real field requires exactly zero imaginary parts")
            A = A.real
        A = A.astype(np.float64, copy=copy)
    elif field == COMPLEX:
        A = A.astype(np.complex128, copy=copy)
    else:
        raise ValueError(f"unknown field tag {field!r}")
    if not np.all(np.isfinite(A)):
        raise ValueError("entries must be finite")
    return A


def infer_field(*arrays) -> str:
    return COMPLEX if any(np.iscomplexobj(np.asarray(a)) for a in arrays) else REAL


@_frozen
class _StackedPair(_Frozen):
    """A pair of either layer, stored as its stacked analysis operators.

    theta_A and theta_Psi are read-only N x m arrays, the members' d_j x m
    blocks in order, and codims lists the d_j; a FramePair's members are
    its rows, so its codims is always (1,) * N.  Pairs compare and hash by
    identity.
    """

    theta_A: np.ndarray
    theta_Psi: np.ndarray
    codims: tuple
    field: str
    tol: Tolerance

    _rank_one = False  # True: every row is a member; _store sets codims = (1,) * N, N and m >= 1

    @classmethod
    def _stacked(cls, theta_A, theta_Psi, codims: tuple, tol: Tolerance):
        """The pair of cls whose members are the row blocks of sizes codims.

        The pair takes its field from the arrays' dtype: complex exactly
        when either array is complex (infer_field).  Its callers pass
        arrays no one else writes: a body's fresh result or another pair's
        frozen operators.  So they are adopted, cast without a copy when
        they already have the field's dtype, checked finite and frozen.
        """
        pair = object.__new__(cls)
        field = infer_field(theta_A, theta_Psi)
        theta_A, theta_Psi = (_as_matrix(M, field, copy=False) for M in (theta_A, theta_Psi))
        pair._store(theta_A, theta_Psi, codims, field, tol)
        return pair

    def _store(self, theta_A, theta_Psi, codims, field, tol):
        if self._rank_one:
            if 0 in theta_A.shape:
                raise ValueError("dimension and count must be positive")
            codims = (1,) * theta_A.shape[0]
        theta_A.setflags(write=False)
        theta_Psi.setflags(write=False)
        vars(self).update(theta_A=theta_A, theta_Psi=theta_Psi, codims=codims, field=field, tol=tol)

    @property
    def m(self) -> int:
        return self.theta_A.shape[1]

    @property
    def n(self) -> int:
        return len(self.codims)


def _adjoint(M: np.ndarray) -> np.ndarray:
    """M^*, read-only: a view of a real M, a conjugate copy of a complex one."""
    Mh = M.conj().T
    Mh.setflags(write=False)
    return Mh


@_frozen
class FramePair(_StackedPair):
    """Columns of X are the x_j, columns of T are the tau_j.

    The pair keeps theta_A = X^* and theta_Psi = T^*, each the one copy made
    of the caller's array (conjugated on the way for a complex pair); X and
    T are their adjoints.
    """

    _rank_one = True

    def __init__(self, X, T, field: str, tol: Tolerance = Tolerance()):
        X = _as_matrix(X, field, copy=False)
        T = _as_matrix(T, field, copy=False)
        if X.shape != T.shape:
            raise ShapeMismatch(f"X {X.shape} and T {T.shape} must share shape")
        self._store(np.conjugate(X).T, np.conjugate(T).T, (), field, tol)

    @classmethod
    def from_columns(cls, x_cols, tau_cols, field: Optional[str] = None,
                     tol: Tolerance = Tolerance()) -> "FramePair":
        X = np.column_stack([np.asarray(v).ravel() for v in x_cols])
        T = np.column_stack([np.asarray(v).ravel() for v in tau_cols])
        return cls(X, T, field or infer_field(X, T), tol)

    @property
    def X(self) -> np.ndarray:
        """theta_A^*: a view for a real pair, a conjugate copy for a complex one."""
        return _adjoint(self.theta_A)

    @property
    def T(self) -> np.ndarray:
        """theta_Psi^*, as X."""
        return _adjoint(self.theta_Psi)

    def x(self, j: int) -> np.ndarray:
        return _adjoint(self.theta_A[j])

    def tau(self, j: int) -> np.ndarray:
        return _adjoint(self.theta_Psi[j])

    def with_tol(self, tol: Tolerance) -> "FramePair":
        return self._stacked(self.theta_A, self.theta_Psi, self.codims, tol)


@_frozen
class FrameReport(_Record):
    """Verdicts on a pair's frame operator S, with its optimal bounds a and b."""

    self_adjoint: bool
    psd: bool
    invertible: bool
    is_bessel: bool
    is_frame: bool
    lower_a: float
    upper_b: float
    tight: bool
    parseval: bool


def frame_operator(pair) -> np.ndarray:
    """S = theta_Psi^* theta_A = sum_j Psi_j^* A_j  (m x m) of a pair of either layer.

    For a vector pair this is T X^* = sum_j tau_j x_j^*.  NumericalOverflow
    when an entry is not finite, or its modulus is not
    (_frame_operator_scale).
    """
    return _frame_operator_scale(pair)[0]


def _frame_operator_scale(pair):
    """(S, max |S|) of a pair of either layer: S is frame_operator's.

    One pass over S gives both its finiteness and the scale of the
    Hermitian rule: max |S| is below inf unless an entry overflowed to
    +-inf or is NaN (inf - inf), and then NumericalOverflow names the
    largest input magnitude, as numerics._finite_product does.  The
    product runs with numpy's overflow and invalid warnings off.
    """
    L, R = pair.theta_Psi.conj().T, pair.theta_A
    with np.errstate(over="ignore", invalid="ignore"):
        S = L @ R
    scale = np.abs(S).max(initial=0.0)
    if not scale < np.inf:  # NaN fails it too
        raise _overflow("frame operator", L, R)
    return S, scale


def frame_flags(S, tol: Tolerance) -> FrameReport:
    """Verdicts for a would-be frame operator, as _frame_flags decides them.

    An S that is not square raises NonSquare, one that is not finite
    ValueError; degenerate but valid input yields is_frame=False.  A bare S
    carries no member count, so the spectral rules alone decide; a pair's
    verdicts also count its rows (_pair_flags).
    """
    return _frame_flags(_require_square(S), tol)


def _frame_flags(S: np.ndarray, tol: Tolerance, short: bool = False, scale=None,
                 H=None) -> FrameReport:
    """frame_flags for a finite square S, such as the one frame_operator forms.

    One decomposition decides everything.  A Hermitian S (within
    tolerance) pays one eigvalsh of its Hermitian part, which does not
    overflow for a finite S: is_frame is the pd rule, lambda_min >
    abs_tol, and invertible reads min |lambda| > abs_tol, which a frame
    meets at once: its ascending lambda have lambda_min > abs_tol >= 0, so
    min |lambda| = lambda_min.  A non-Hermitian S, which is never a frame,
    pays one SVD to report invertible as sigma_min(S) > abs_tol.  A short
    S (_short) is neither a frame's nor invertible, whatever its
    eigenvalues.  scale is max |S| when the caller holds it
    (_frame_operator_scale), for the Hermitian rule and the Hermitian
    part; without it they read S for it.  H is that Hermitian part when
    the caller has already found S Hermitian.  tight and parseval compare
    with numerics._margins at b and at max(1, b); an infinite b (S finite,
    its largest eigenvalue overflowed) is never tight.
    """
    w = _hermitian_eig(S, tol, scale=scale) if H is None else _decompose(np.linalg.eigvalsh, H)
    psd, is_frame = bool(_psd(w, tol)), not short and bool(_pd(w, tol))
    if not is_frame:
        invertible = not short and _invertible(S if w is None else w, tol)
        return FrameReport(w is not None, psd, invertible, psd, False, 0.0, 0.0, False, False)
    a, b = float(w[0]), float(w[-1])
    tight = b < np.inf and b - a <= _margins(tol, b)  # b > abs_tol >= 0, so |b| = b
    parseval = tight and abs(b - 1.0) <= _margins(tol, max(1.0, b))
    return FrameReport(True, True, True, True, True, a, b, tight, parseval)


def _short(pair, S: np.ndarray) -> bool:
    """Whether the pair has fewer stacked rows N than m = S.shape[0].

    Then rank S <= N < m: S is singular and the pair no frame, decided by
    counting (a frame needs rank S = m <= N), however rounding leaves
    lambda_min and sigma_min.  Every verdict on a pair reads this rule.
    """
    return pair.theta_A.shape[0] < S.shape[0]


def _pair_flags(pair):
    """(S, flags) of a pair of either layer: _frame_flags with the count rule (_short)."""
    S, scale = _frame_operator_scale(pair)
    return S, _frame_flags(S, pair.tol, _short(pair, S), scale)


def verify(fp: FramePair) -> FrameReport:
    """Full verdict on the pair; degenerate input yields is_frame=False.

    Costs one S and one Hermitian eigendecomposition; see _frame_flags for
    the invertibility rule and _short for n < m.  Weak-frame verification
    coincides with this predicate: at finite dimension the coordinatewise
    Bessel conditions hold automatically, so only the frame-operator
    conditions remain to be checked.
    """
    return _pair_flags(fp)[1]


def _tight_report(pair):
    """(S, report) of a pair of either layer, for a verdict that reads a bound
    only from a tight pair (analysis.formulas_report).

    report is _pair_flags' report, or None where the pair is proved not
    tight without eigenvalues: by the count (_short), by the Hermitian
    rule, or, where it applies (numerics._certifiable), by the diagonal of
    S's Hermitian part (numerics._not_tight_certified).  Every pair with
    report None has tight and parseval False in _pair_flags' report too;
    it pays neither the eigvalsh nor the SVD that reports invertible.
    """
    S, scale = _frame_operator_scale(pair)
    tol = pair.tol
    if _short(pair, S):
        return S, None
    H = _checked_hermitian_part(S, tol, scale)
    if H is None or (_certifiable(H, scale) and _not_tight_certified(H, scale, tol)):
        return S, None
    return S, _frame_flags(S, tol, False, scale, H)


def _frame_reason(rows: int, S: np.ndarray, scale, tol: Tolerance, w=None) -> Optional[str]:
    """The first frame rule that an S of rows stacked rows fails, with its numbers, or None.

    The rules go in the order the gates read them: the count (_short), the
    Hermitian rule, then the pd rule on lambda_min, taken from w when the
    caller holds the eigenvalues.  scale is max |S|, or None.
    """
    if rows < S.shape[0]:
        return f"N = {rows} stacked rows < m = {S.shape[0]}"
    if scale is None:
        scale = np.abs(S).max(initial=0.0)
    w = _hermitian_eig(S, tol, scale=scale) if w is None else w
    if w is None:
        deviation, margin = _hermitian_deviation(S, S.conj().T, scale, tol)
        return f"S not Hermitian: deviation {float(deviation)!r} > margin {float(margin)!r}"
    if not w.size:
        return "S is 0 x 0"
    if not _pd(w, tol):
        return f"lambda_min {float(w[0])!r} <= abs_tol {tol.abs_tol!r}"
    return None


def _not_a_frame(pair, S: np.ndarray, scale, message: str, w=None) -> NotAFrame:
    """NotAFrame(message), naming the rule the pair's S failed and its numbers
    (_frame_reason).  Only the raising path builds it."""
    return NotAFrame(f"{message}: {_frame_reason(pair.theta_A.shape[0], S, scale, pair.tol, w)}")


def _require_parseval(rows: int, S: np.ndarray, tol: Tolerance, message: str, scale=None) -> None:
    """Nothing when an S of rows stacked rows passes _frame_flags' Parseval
    verdict, else NotParseval(message) naming the first rule it failed.

    The reasons go in the order the verdict reads its rules: those of
    _frame_reason, then b - a against the margin at b (tight), then
    |b - 1| against the margin at max(1, b), their numbers from the
    report.  Only the raising path builds them.
    """
    report = _frame_flags(S, tol, rows < S.shape[0], scale)
    if report.parseval:
        return
    if not report.is_frame:
        reason = _frame_reason(rows, S, scale, tol)
    else:
        a, b = report.lower_a, report.upper_b
        if not report.tight:
            reason = f"b - a = {b - a!r} > margin {float(_margins(tol, b))!r}"
        else:
            reason = f"|b - 1| = {abs(b - 1.0)!r} > margin {float(_margins(tol, max(1.0, b)))!r}"
    raise NotParseval(f"{message}: {reason}")


def _require_parseval_pair(pair, message: str) -> None:
    """_require_parseval on a pair of either layer: its S and its stacked rows."""
    S, scale = _frame_operator_scale(pair)
    _require_parseval(pair.theta_A.shape[0], S, pair.tol, message, scale)


def _require_frame(pair, message: str = "operation requires a frame") -> np.ndarray:
    """S of a pair of either layer that must be a frame, else NotAFrame(message).

    The gate reports no bound, so where it applies (numerics._certifiable)
    one Cholesky that proves lambda_min > abs_tol (numerics._pd_certified)
    decides it.  Otherwise, and whenever the certificate fails, the
    eigenvalue rule of _frame_flags decides, so NotAFrame still means that
    the count, the Hermitian or the pd rule failed.
    """
    S, scale = _frame_operator_scale(pair)
    w = None
    if not _short(pair, S):
        passed, w = _gate(S, pair.tol, _pd, scale)
        if passed:
            return S
    raise _not_a_frame(pair, S, scale, message, w)


def _require_frame_flags(pair, message: str = "operation requires a frame"):
    """_pair_flags(pair) for a pair that must be a frame, else NotAFrame(message)."""
    S, scale = _frame_operator_scale(pair)
    report = _frame_flags(S, pair.tol, _short(pair, S), scale)
    if not report.is_frame:
        raise _not_a_frame(pair, S, scale, message)
    return S, report


def _frame_eigh(pair, message: str = "operation requires a frame"):
    """Eigenpairs (w ascending, V) of S's Hermitian part, for a pair that must be a frame.

    One eigh both gates and decomposes: _pair_flags' rules on its own
    eigenvalues (not short, S Hermitian within tolerance and the pd rule),
    else NotAFrame(message).  A frame whose largest eigenvalue overflows
    (S finite) raises NumericalOverflow.
    """
    S, scale = _frame_operator_scale(pair)
    eig = None if _short(pair, S) else _hermitian_eig(S, pair.tol, vectors=True, scale=scale)
    if eig is None or not _pd(eig[0], pair.tol):
        raise _not_a_frame(pair, S, scale, message, None if eig is None else eig[0])
    _finite_eigenvalues(eig[0], "frame operator")
    return eig


def canonical_dual(fp: FramePair) -> FramePair:
    """(S^-1 x_j, S^-1 tau_j); its frame operator is S^-1.

    The d = 1 case of ovf.canonical_dual_ovf, one body (_canonical_dual).
    """
    return _canonical_dual(fp)


def _check_shapes(fp: FramePair, gq: FramePair):
    if fp.m != gq.m or fp.n != gq.n:
        raise ShapeMismatch(
            f"pairs must share dimension and count, got ({fp.m},{fp.n}) vs ({gq.m},{gq.n})"
        )


def is_dual(fp: FramePair, gq: FramePair) -> bool:
    """True iff Omega X^* = I and Y T^* = I, gq = (Y, Omega)."""
    _check_shapes(fp, gq)
    return _duality(fp, gq)[0]


def is_orthogonal(fp: FramePair, gq: FramePair) -> bool:
    """True iff Omega X^* = 0 and Y T^* = 0 (bilinear condition only)."""
    _check_shapes(fp, gq)
    return _duality(fp, gq)[1]


def make_dual_from_params(fp: FramePair, U, V) -> FramePair:
    """Dual pair from free parameters U, V (operators l2(n) -> K^m).

    y_j = S^-1 x_j + V e_j - V theta_tau S^-1 x_j and the mirrored omega_j;
    admissible exactly when S^-1 + U V^* - U theta_x S^-1 theta_tau^* V^*
    is Hermitian positive definite (this matrix is the frame operator of
    the produced pair), a bool that numerics._gate decides: one Cholesky
    from 12 rows, and the eigenvalue rule wherever that proves nothing.
    Products are grouped through m x m factors (V theta_tau, U theta_x),
    so the cost is O(m^2 n), never O(m n^2).
    """
    S = _require_frame(fp)
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != (fp.m, fp.n) or V.shape != (fp.m, fp.n):
        raise ShapeMismatch("U and V must be m x n")
    Sinv = np.linalg.inv(S)
    XSi = _times_adjoint(fp.theta_A, Sinv)  # rows (S^-1 x_j)^*
    TSi = _times_adjoint(fp.theta_Psi, Sinv)
    TSiXU = _times_adjoint(TSi, U @ fp.theta_A)  # the adjoint of U theta_x S^-1 T
    theta_Y = XSi + V.conj().T - _times_adjoint(XSi, V @ fp.theta_Psi)
    theta_Om = TSi + U.conj().T - TSiXU
    W = _require_square(Sinv + U @ V.conj().T - (V @ TSiXU).conj().T)
    if not _gate(W, fp.tol, _pd)[0]:
        raise ParamNotAdmissible("parameters fail the positivity/invertibility condition")
    return type(fp)._stacked(theta_Y, theta_Om, (), fp.tol)


def common_dual(fp: FramePair, gq: FramePair) -> FramePair:
    """z_j = S_fp^-1 x_j + S_gq^-1 y_j; dual to both orthogonal frames."""
    S1 = _require_frame(fp)
    S2 = _require_frame(gq)
    if not is_orthogonal(fp, gq):
        raise NotOrthogonal("common dual needs orthogonal frames")
    theta_Z = _solve_adjoint(fp.theta_A, S1) + _solve_adjoint(gq.theta_A, S2)
    theta_R = _solve_adjoint(fp.theta_Psi, S1) + _solve_adjoint(gq.theta_Psi, S2)
    return type(fp)._stacked(theta_Z, theta_R, (), fp.tol)


def frame_idempotent(fp: FramePair) -> np.ndarray:
    """P = X^* S^-1 T  (n x n), idempotent on coefficient space."""
    S = _require_frame(fp)
    return _idempotent(fp.theta_A, fp.theta_Psi, S)


@_frozen
class ClassifyResult(_Record):
    """Riesz-frame and orthonormal-frame verdicts on a frame pair."""

    riesz_frame: bool
    orthonormal_frame: bool
    _pair: FramePair = dataclass_field(repr=False, compare=False)

    @cached_property
    def cross_gram(self) -> np.ndarray:
        """Entry [k, j] = <x_j, tau_k>; computed on first access, since no verdict reads it."""
        return self._pair.theta_Psi @ self._pair.theta_A.conj().T


def classify(fp: FramePair) -> ClassifyResult:
    """Riesz frame: P = I.  Orthonormal frame: Riesz, Parseval and <x_j, tau_k> = delta_jk.

    The d = 1 case of ovf.verify_ovf's refinements (_refinements), decided
    by counting members without forming P: a frame has n >= m, one with
    n = m is Riesz, and for n > m neither holds.  Only a tolerance too
    loose for that rank rule forms P.  When the rank rule alone decides
    (False, False), only the frame gate runs (_require_frame), which reads
    no bound.
    """
    if _rank_excludes_identity(fp.theta_A.shape[0], fp.m, fp.tol):
        _require_frame(fp)
        return ClassifyResult(False, False, fp)
    return _classify(fp, *_require_frame_flags(fp))


def _classify(fp: FramePair, S: np.ndarray, report: FrameReport) -> ClassifyResult:
    """classify for a frame whose S and flags the caller already holds."""
    return ClassifyResult(*_refinements(fp, S, report), fp)


def direct_sum(fp: FramePair, gq: FramePair) -> FramePair:
    """Stack the members: (x_j + y_j, tau_j + omega_j) in K^(m1+m2)."""
    if fp.n != gq.n:
        raise CountMismatch(f"counts differ: {fp.n} vs {gq.n}")
    return type(fp)._stacked(np.hstack([fp.theta_A, gq.theta_A]),
                             np.hstack([fp.theta_Psi, gq.theta_Psi]), (), fp.tol)


def tensor_product(fp: FramePair, gq: FramePair) -> FramePair:
    """Columns x_j (x) y_l, index (j, l) row-major; S = S1 (x) S2.

    The d = 1 case of ovf.tensor_ovf (_tensor); kron commutes exactly with
    the conjugate transpose, so the columns are those of kron(X, Y).
    """
    return _tensor(fp, gq)


def interpolate_parseval(fp: FramePair, gq: FramePair, A, B, C, D) -> FramePair:
    """({A x_j + B y_j}, {C tau_j + D omega_j}) for k x m coefficients with A C^* + B D^* = I."""
    _check_shapes(fp, gq)
    A, B, C, D = (np.asarray(M) for M in (A, B, C, D))
    shapes = [M.shape for M in (A, B, C, D)]
    if A.ndim != 2 or A.shape[1] != fp.m or shapes.count(A.shape) != 4:
        raise ShapeMismatch(f"A, B, C and D must be k x {fp.m} matrices of one shape, "
                            f"got {', '.join(map(str, shapes))}")
    _require_parseval_pair(fp, "both pairs must be Parseval: pair 1")
    _require_parseval_pair(gq, "both pairs must be Parseval: pair 2")
    if not is_orthogonal(fp, gq):
        raise NotOrthogonal("pairs must be orthogonal")
    if not fp.tol.is_identity(A @ C.conj().T + B @ D.conj().T):
        raise BadCoefficients("A C^* + B D^* must be the identity")
    # (A X_fp + B X_gq)^*, formed conjugated as in _times_adjoint and summed before the
    # transpose, so that it broadcasts as A X_fp + B X_gq does
    theta_X = (A.conj() @ fp.theta_A.T + B.conj() @ gq.theta_A.T).T
    theta_T = (C.conj() @ fp.theta_Psi.T + D.conj() @ gq.theta_Psi.T).T
    return type(fp)._stacked(theta_X, theta_T, (), fp.tol)


@_frozen
class SimilarityTransforms(_Record):
    """Invertible Txy, Ttw with y_j = Txy x_j and omega_j = Ttw tau_j."""

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
    found = _right_similarity(fp, S, gq)  # y_j^* = x_j^* R is y_j = R^* x_j
    return None if found is None else SimilarityTransforms(found[0].conj().T, found[1].conj().T)


LEFT_ON_X = "left_on_x"
SPLIT = "split"
LEFT_ON_T = "left_on_t"


def parsevalize(fp: FramePair, mode: str = SPLIT) -> FramePair:
    """Similar Parseval pair: (S^-1 X, T), (S^-1/2 X, S^-1/2 T) or (X, S^-1 T).

    The split mode takes S^-1/2 = V diag(w^-1/2) V^* from the one eigh
    that also decides whether S is a frame's (_frame_eigh).
    """
    if mode == SPLIT:
        w, V = _frame_eigh(fp)
        Rinv = (V / np.sqrt(w)) @ V.conj().T
        theta_A, theta_Psi = _times_adjoint(fp.theta_A, Rinv), _times_adjoint(fp.theta_Psi, Rinv)
    else:
        S = _require_frame(fp)
        if mode not in (LEFT_ON_X, LEFT_ON_T):
            raise ValueError(f"unknown mode {mode!r}")
        theta_A = _solve_adjoint(fp.theta_A, S) if mode == LEFT_ON_X else fp.theta_A
        theta_Psi = _solve_adjoint(fp.theta_Psi, S) if mode == LEFT_ON_T else fp.theta_Psi
    return type(fp)._stacked(theta_A, theta_Psi, fp.codims, fp.tol)


@_frozen
class DilationResult(_Record):
    """Orthonormal frame of K^embed_dim that dilates a Parseval pair."""

    big: FramePair
    embed_dim: int


def range_basis(A: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis of the column space of A."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > tol.margin(s[0] if s.size else 0.0)))
    return U[:, :rank]


def _shared_range_basis(A: np.ndarray, B: np.ndarray, tol: Tolerance) -> Optional[np.ndarray]:
    """range_basis(A) when A and B have the same column space, else None.

    The test is on the mutual projection residuals, each below tol's margin
    at its matrix's scale.  When B equals A entry for entry (every self-dual
    pair), A's basis serves as B's and A's residual as B's: the same input
    gives the same SVD and the same product, so skipping the second of each
    changes no verdict.
    """
    same = np.array_equal(A, B)
    QA = range_basis(A, tol)
    QB = QA if same else range_basis(B, tol)
    if QA.shape[1] != QB.shape[1]:
        return None
    resB = entry_max(B - QA @ (QA.conj().T @ B))
    resA = resB if same else entry_max(A - QB @ (QB.conj().T @ A))
    if resB <= tol.margin(entry_max(B)) and resA <= tol.margin(entry_max(A)):
        return QA
    return None


def dilate(fp: FramePair) -> DilationResult:
    """Extend a Parseval pair to an orthonormal frame of K^(m + n - r).

    The new members are y_j = x_j + P_perp e_j (coordinates of the
    orthogonal complement of ran(theta_x) appended below the originals),
    so projecting onto the first m coordinates recovers the input.
    One body with ovf.dilate_ovf (_dilate).
    """
    big = _dilate(fp, "theta_x and theta_tau must have equal ranges")
    return DilationResult(big, big.m)


# --- one body per operation for both layers ---------------------------------------
#
# The bodies take pairs of either layer and read them through the stacked
# view: theta_A and theta_Psi are N x m, the members' d_j x m blocks in
# order, and codims lists the d_j.  A body that builds a pair returns the
# caller's class through type(pair)._stacked, which reads the field from the
# arrays.  The array kernels among them (_idempotent, _dilation_rows, ...,
# and numerics' _block_identities_ok and _members_close) take the stacked
# operators themselves.


def _times_adjoint(theta: np.ndarray, M: np.ndarray) -> np.ndarray:
    """theta M^*: each stacked row times M^*, so a vector pair's x_j becomes M x_j.

    It is formed as (conj(M) theta^T)^T, which holds each entry of M X
    conjugated, bit for bit, without conjugating theta: the same product
    in the same order, and a misshapen M fails in the same matmul.
    """
    return (M.conj() @ theta.T).T


def _solve_adjoint(theta: np.ndarray, S: np.ndarray) -> np.ndarray:
    """theta S^-*, so a vector pair's x_j becomes S^-1 x_j: one solve against
    conj(S) on theta^T, the conjugate of solve(S, X), as _times_adjoint."""
    return np.linalg.solve(S.conj(), theta.T).T


def _idempotent(theta_A: np.ndarray, theta_Psi: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The frame idempotent theta_A S^-1 theta_Psi^* (N x N), for an invertible S."""
    return theta_A @ np.linalg.solve(S, theta_Psi.conj().T)


def _refinements(pair, S: np.ndarray, report: FrameReport):
    """(riesz, orthonormal) for a pair whose S and _pair_flags report the caller holds.

    riesz is decided by counting rows, N stacked against m = S.shape[0]
    (Christensen, An Introduction to Frames and Riesz Bases, 2016).  A frame
    has N >= m (_short).  A frame with N = m is Riesz: an invertible
    S = theta_Psi^* theta_A makes both square factors invertible, so
    P = theta_A S^-1 theta_Psi^* = I exactly, and neither P nor its solve
    is formed.  For N > m the rank rule decides without forming P
    (_rank_excludes_identity); only tolerances too loose for it
    (1/N <= mu) form P and test it with tol.is_identity.  orthonormal:
    riesz, Parseval, and the block identities A_j Psi_k^* = delta_jk I,
    each block at its own scale.
    """
    tol = pair.tol
    N, m = pair.theta_A.shape[0], S.shape[0]
    if not report.is_frame or _rank_excludes_identity(N, m, tol):
        return False, False
    riesz = N == m or bool(tol.is_identity(_idempotent(pair.theta_A, pair.theta_Psi, S)))
    orthonormal = bool(riesz and report.parseval
                       and _block_identities_ok(pair.theta_A, pair.theta_Psi, pair.codims, tol))
    return riesz, orthonormal


def _duality(pair1, pair2):
    """(dual, orthogonal): theta_Psi2^* theta_A1 and theta_A2^* theta_Psi1 against I and 0.

    Each sum adds N products of one entry of each factor, so
    N entry_max(left) entry_max(right) bounds its entries and scales its
    zero test; the verdict is then invariant under positive scaling of
    either pair.
    """
    N, tol = pair1.theta_A.shape[0], pair1.tol
    sums = [(left.conj().T @ right, N * entry_max(left) * entry_max(right))
            for left, right in ((pair2.theta_Psi, pair1.theta_A), (pair2.theta_A, pair1.theta_Psi))]
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


def _tensor(pair1, pair2):
    """The pair of the members A_j (x) B_l, (j, l) row-major, of pair1's class.

    One kron of the stacked operators, with its rows regrouped by member
    pair; every entry is the same single product as in kron(A_j, B_l).
    """
    rows = _pair_rows(pair1.codims, pair2.codims)
    codims = tuple(d1 * d2 for d1 in pair1.codims for d2 in pair2.codims)
    return type(pair1)._stacked(np.kron(pair1.theta_A, pair2.theta_A)[rows],
                                np.kron(pair1.theta_Psi, pair2.theta_Psi)[rows], codims, pair1.tol)


def _canonical_dual(pair, message: str = "operation requires a frame"):
    """The pair (A_j S^-1, Psi_j S^-1) of pair's class; NotAFrame(message) unless a frame.

    S^-1 is taken once, by a solve against the identity, so the two
    products share it.
    """
    S = _require_frame(pair, message)
    Sinv = np.linalg.solve(S, np.eye(S.shape[0], dtype=S.dtype))
    return type(pair)._stacked(pair.theta_A @ Sinv, pair.theta_Psi @ Sinv, pair.codims, pair.tol)


def _complement_rows(Q: np.ndarray) -> np.ndarray:
    """Rows Qperp^* ((N - r) x N) of an orthonormal basis of ran(Q)'s complement.

    Q = H_1 ... H_r R, H_k = I - tau_k v_k v_k^*, is Q's Householder QR
    (np.linalg.qr's raw mode), and the complete factor is H_1 ... H_r =
    I - V T V^* in compact WY form (Schreiber and Van Loan, SISC 10, 1989),
    T upper triangular r x r by LAPACK larft's forward recurrence.  Its
    columns r.. span the complement, so Qperp^* is rows r.. of
    I - V T^* V^*: O(N^2 r) with no N x N factor formed first.  A zero tau_k
    (a column already in place) makes H_k = I, whatever v_k holds.
    """
    N, r = Q.shape
    h, tau = np.linalg.qr(Q, mode="raw")
    V = np.tril(h.T, -1)  # h is the transpose of LAPACK's N x r array
    np.fill_diagonal(V, 1.0)
    G = V.conj().T @ V
    T = np.zeros((r, r), dtype=V.dtype)
    for k in range(r):
        T[:k, k] = -tau[k] * (T[:k, :k] @ G[:k, k])
        T[k, k] = tau[k]
    W = -(V[r:] @ T.conj().T) @ V.conj().T
    diag = np.arange(N - r)
    W[diag, diag + r] += 1.0
    return W


def _dilation_rows(theta_A: np.ndarray, theta_Psi: np.ndarray, S: np.ndarray, tol: Tolerance,
                   message: str = "theta_A and theta_Psi must have equal ranges") -> np.ndarray:
    """Rows W = Qperp^* ((N - r) x N) that dilate a Parseval pair to an orthonormal one.

    Q (N x r) is the orthonormal basis of ran(theta_A) that the range test
    returns, and Qperp an orthonormal basis of its complement
    (_complement_rows).  No step costs more than O(N^2 m): P^2 - P =
    theta_A (S - I) theta_Psi^* goes through the m x m core S the Parseval
    gate decided, not through the N x N x N product P P.
    _dilate appends W^* as new columns of theta_A and theta_Psi.  Unequal
    ranges raise RangesDiffer(message), which names the operators as the
    caller's layer does.
    """
    _require_parseval(theta_A.shape[0], S, tol, "dilation starts from a Parseval pair")
    Q = _shared_range_basis(theta_A, theta_Psi, tol)
    if Q is None:
        raise RangesDiffer(message)
    P = theta_A @ theta_Psi.conj().T  # S = I for a Parseval pair
    excess = (theta_A @ (S - np.eye(S.shape[0], dtype=S.dtype))) @ theta_Psi.conj().T
    if not _hermitian(P, tol) or entry_max(excess) > tol.margin(entry_max(P)):
        raise IdempotentNotProjection("frame idempotent is not an orthogonal projection")
    return _complement_rows(Q)


def _dilate(pair, message: str = "theta_A and theta_Psi must have equal ranges"):
    """The orthonormal pair of pair's class that a Parseval pair dilates to.

    The rows W of _dilation_rows become new coordinates: W^* is appended as
    columns of both stacked operators, so a vector pair gains W as rows of
    X and T.  Unequal ranges raise RangesDiffer(message).
    """
    theta_A, theta_Psi = pair.theta_A, pair.theta_Psi
    cols = _dilation_rows(theta_A, theta_Psi, frame_operator(pair), pair.tol, message).conj().T
    return type(pair)._stacked(np.hstack([theta_A, cols]), np.hstack([theta_Psi, cols]),
                               pair.codims, pair.tol)


def _extend_tight(pair, lam: float):
    """The lam-tight pair of pair's class: the member B = (lam I - S)^(1/2) appended.

    B is m x m; a vector pair reads its rows as m rank-one members, the
    columns of B^* = B appended to X and T (herm_sqrt's B is exactly
    Hermitian).  Where it applies (numerics._certifiable), a Cholesky
    proves each gate: psd as lambda_min(H) > -abs_tol, and lam > top +
    abs_tol as lambda_min(-H) > abs_tol - lam, for S's Hermitian part H.
    A gate it cannot prove reads the eigenvalues of one eigvalsh, and
    LambdaTooSmall names the top one.
    """
    S, scale = _frame_operator_scale(pair)
    tol = pair.tol
    H = _checked_hermitian_part(S, tol, scale)
    certifiable = H is not None and _certifiable(H, scale)
    w = None
    if not (certifiable and _pd_certified(H, -tol.abs_tol)):
        w = None if H is None else _decompose(np.linalg.eigvalsh, H)
        if not _psd(w, tol):
            raise NotBessel("tight extension starts from a Bessel pair")
    if not (certifiable and _pd_certified(-H, tol.abs_tol - lam)):
        top = float((_decompose(np.linalg.eigvalsh, H) if w is None else w)[-1])
        if lam <= top + tol.abs_tol:
            raise LambdaTooSmall(f"lambda must exceed the top eigenvalue {top}")
    B = herm_sqrt(lam * np.eye(S.shape[0]) - S, tol)
    return type(pair)._stacked(np.vstack([pair.theta_A, B]), np.vstack([pair.theta_Psi, B]),
                               pair.codims + (pair.m,), tol)


def _weighted_onb(pair, c):
    """(holds, deficiency) of ovf.weighted_onb_bessel_check."""
    theta_A, theta_Psi, codims, tol = pair.theta_A, pair.theta_Psi, pair.codims, pair.tol
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
    return _gate(_require_square(deficiency), tol, _psd)[0], deficiency


def _right_similarity(pair1, S: np.ndarray, pair2):
    """Invertible (R, R') with B_j = A_j R and Phi_j = Psi_j R', or None.

    pair1 = (A, Psi) with frame operator S, pair2 = (B, Phi) of the same member shapes.
    NumericalOverflow when theta_Psi^* theta_B or theta_A^* theta_Phi overflows.
    """
    theta_A, theta_Psi, codims, tol = pair1.theta_A, pair1.theta_Psi, pair1.codims, pair1.tol
    theta_B, theta_Phi = pair2.theta_A, pair2.theta_Psi
    R = np.linalg.solve(S, _finite_product(theta_Psi.conj().T, theta_B, "similarity product"))
    R2 = np.linalg.solve(S, _finite_product(theta_A.conj().T, theta_Phi, "similarity product"))
    if not (_invertible(R, tol) and _invertible(R2, tol)):
        return None
    if not (_members_close(theta_A @ R, theta_B, codims, tol)
            and _members_close(theta_Psi @ R2, theta_Phi, codims, tol)):
        return None
    return R, R2
