"""Sequential lp theory on (K^m, ||.||_p).

A PFramePair couples n functionals f_j (rows of F) with n vectors tau_j
(columns of T); the p-frame operator is S_hat = T F, which must have no
spectrum near the closed negative real axis.  Bounds are measured through
the principal power S_hat^(1/p) and reported as certified intervals: the
lp operator norm is only computed exactly at p = 2 (and 1), everywhere
else a witness/interpolation interval is produced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BaseNotOrthonormal,
    NotParseval,
    NotPFrame,
    NumericalOverflow,
    RankDeficient,
    ShapeMismatch,
    SpectrumOnCut,
    ZeroDirection,
)
from .frames import _as_matrix, infer_field
from .numerics import (
    PNormInterval,
    Tolerance,
    _clear_of_cut,
    _finite_product,
    _gaussian_blocks,
    _gaussian_rows,
    _image_lp_norms,
    _invertible,
    _lp_norm,
    _lp_norms,
    _normalized_image_lp_norms,
    _sign_patterns,
    entry_max,
    pnorm_estimate,
    principal_power,
)


@dataclass(frozen=True)
class PFramePair:
    F: np.ndarray  # n x m, row j = functional f_j
    T: np.ndarray  # m x n, column j = tau_j
    p: float
    field: str
    tol: Tolerance = Tolerance()

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        F = _as_matrix(self.F, self.field)
        T = _as_matrix(self.T, self.field)
        if F.shape[0] != T.shape[1] or F.shape[1] != T.shape[0]:
            raise ShapeMismatch("F must be n x m and T must be m x n")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "T", T)

    @classmethod
    def from_members(cls, functionals, vectors, p: float,
                     field: Optional[str] = None, tol: Tolerance = Tolerance()) -> "PFramePair":
        F = np.vstack([np.asarray(f).ravel() for f in functionals])
        T = np.column_stack([np.asarray(v).ravel() for v in vectors])
        return cls(F, T, p, field or infer_field(F, T), tol)

    @property
    def m(self) -> int:
        return self.T.shape[0]

    @property
    def n(self) -> int:
        return self.F.shape[0]


def p_frame_operator(pf: PFramePair) -> np.ndarray:
    """S_hat = T F, the map x -> sum_j f_j(x) tau_j; NumericalOverflow when it overflows."""
    return _finite_product(pf.T, pf.F, "p-frame operator")


@dataclass(frozen=True)
class PReport:
    resolvent_ok: bool
    tight: bool
    parseval: bool
    lower_a: Optional[PNormInterval]
    upper_b: Optional[PNormInterval]


def p_verify(pf: PFramePair, samples: int = 200, seed: int = 0) -> PReport:
    """Resolvent gate plus certified bound intervals through S_hat^(1/p).

    One eig decides both: the gate is principal_power's cut rule on the
    eigenvalues it then powers, so S_hat on the cut reports resolvent_ok
    false.
    """
    S = p_frame_operator(pf)
    tol = pf.tol
    alpha = complex(np.trace(S)) / pf.m
    tight = bool(tol.mat_close(S, alpha * np.eye(pf.m)))
    parseval = bool(tol.is_identity(S))
    try:
        R = principal_power(S, 1.0 / pf.p, tol)
    except SpectrumOnCut:
        return PReport(False, tight, parseval, None, None)
    Rinv = np.linalg.inv(R)
    up = pnorm_estimate(R, pf.p, samples, seed, tol)
    down = pnorm_estimate(Rinv, pf.p, samples, seed + 1, tol)
    upper = PNormInterval(up.lower**pf.p, up.upper**pf.p)
    lower = PNormInterval(1.0 / down.upper**pf.p, 1.0 / down.lower**pf.p)
    return PReport(True, tight, parseval, lower, upper)


@dataclass(frozen=True)
class POrthonormalResult:
    consistent: bool
    witness: Optional[np.ndarray]


def p_orthonormal_check(vectors, p: float, trials: int = 200, seed: int = 0,
                        tol: Tolerance = Tolerance()) -> POrthonormalResult:
    """Falsifier for ||sum c_j x_j||_p^p = sum |c_j|^p.

    Exhausts all +-1 sign patterns for n <= 12 and adds seeded random
    coefficients; consistency is evidence, not a decision.  Candidates are
    evaluated in batches and the first failing one, in the order sign
    patterns (lexicographic, +1 before -1) then draws, is the witness.
    """
    M = np.asarray(vectors)
    if M.ndim != 2:
        raise ValueError("vectors must be the columns of a matrix")
    n = M.shape[1]
    off = np.flatnonzero(np.abs(_lp_norms(M.T, p) - 1.0) > tol.margin(1.0))
    if off.size:
        return POrthonormalResult(False, np.eye(n)[:, off[0]])
    signs = [np.ascontiguousarray(-_sign_patterns(n)[:, ::-1])] if n <= 12 else []
    draws = _gaussian_blocks(np.random.default_rng(seed), trials, n, np.iscomplexobj(M), max(M.shape))
    for C in itertools.chain(signs, draws):
        lhs = _image_lp_norms(M, np.asarray(C, dtype=M.dtype), p) ** p
        rhs = (np.abs(C) ** p).sum(axis=1)
        margin = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(lhs), np.abs(rhs))
        bad = np.flatnonzero(np.abs(lhs - rhs) > margin)
        if bad.size:
            return POrthonormalResult(False, C[bad[0]].copy())
    return POrthonormalResult(True, None)


@dataclass(frozen=True)
class RieszPBounds:
    a: PNormInterval
    b: PNormInterval


def riesz_p_bounds(vectors, p: float, trials: int = 200, seed: int = 0,
                   tol: Tolerance = Tolerance()) -> RieszPBounds:
    """Certified intervals for a sum |c|^p <= ||sum c_j x_j||^p <= b sum |c|^p.

    The upper constant is the p-norm of the synthesis map; the lower one
    is certified through a left inverse (1 / ||L||^p) with a sampled
    minimum as its upper end.  Exact at p = 2 via singular values.
    """
    M = np.asarray(vectors)
    n = M.shape[1]
    if M.shape[1] > M.shape[0] or not _invertible(M, tol):
        raise RankDeficient("columns do not admit a left inverse (a = 0)")
    if p == 2:
        s = np.linalg.svd(M, compute_uv=False)
        a = PNormInterval(float(s[-1]) ** 2, float(s[-1]) ** 2)
        b = PNormInterval(float(s[0]) ** 2, float(s[0]) ** 2)
        return RieszPBounds(a, b)
    up = pnorm_estimate(M, p, trials, seed, tol)
    b = PNormInterval(up.lower**p, up.upper**p)
    L = np.linalg.pinv(M)
    linv = pnorm_estimate(L, p, trials, seed + 1, tol)
    certified = 1.0 / linv.upper**p
    rng = np.random.default_rng(seed + 2)
    draws = _gaussian_rows(rng, trials, n, np.iscomplexobj(M))
    # a unit basis vector maps to its column; the draws are normalised in lp
    sampled = np.concatenate([_lp_norms(M.T, p), _normalized_image_lp_norms(M, draws, p)]) ** p
    sampled_min = float(sampled.min(initial=np.inf))
    # certified <= a <= every sampled witness
    return RieszPBounds(PNormInterval(certified, max(sampled_min, certified)), b)


@dataclass(frozen=True)
class PaleyWienerResult:
    lambda_upper: float
    concluded: bool
    riesz: Optional[bool]


def paley_wiener_check(base, Y, p: float, trials: int = 200, seed: int = 0,
                       tol: Tolerance = Tolerance()) -> PaleyWienerResult:
    """Riesz p-basis via perturbation of a p-orthonormal basis.

    lambda_upper certifies ||sum c_j (x_j - y_j)|| <= lambda ||c||_p; when
    it stays below 1 the coefficient-space difference map has I - D
    invertible and {y_j} is a Riesz p-basis.
    """
    B = np.asarray(base)
    Y = np.asarray(Y)
    if B.shape != Y.shape:
        raise ShapeMismatch("base and perturbed families must share shape")
    if B.shape[0] != B.shape[1]:
        raise BaseNotOrthonormal("a p-orthonormal basis of K^m needs exactly m members")
    if not p_orthonormal_check(B, p, trials, seed, tol).consistent:
        raise BaseNotOrthonormal("base family fails the p-orthonormal falsifier")
    est = pnorm_estimate(B - Y, p, trials, seed, tol)
    concluded = bool(est.upper < 1.0)
    riesz = None
    if concluded:
        D = np.linalg.solve(B.conj().T, (B - Y).conj().T).conj().T  # (B - Y) B^-1
        eye = np.eye(B.shape[0], dtype=D.dtype)
        riesz = _invertible(eye - D, tol)
    return PaleyWienerResult(float(est.upper), concluded, riesz)


@dataclass(frozen=True)
class PDualResult:
    dual: PFramePair
    is_dual: bool


def p_canonical_dual(pf: PFramePair) -> PDualResult:
    """(f_j S^-1, S^-1 tau_j); duality means T~ F = T F~ = I."""
    S = p_frame_operator(pf)
    tol = pf.tol
    if not (_clear_of_cut(S, tol) and _invertible(S, tol)):
        raise NotPFrame("canonical dual needs an invertible p-frame operator")
    Sinv = np.linalg.inv(S)
    dual = PFramePair(pf.F @ Sinv, Sinv @ pf.T, pf.p, pf.field, tol)
    ok = tol.is_identity(dual.T @ pf.F) and tol.is_identity(pf.T @ dual.F)
    return PDualResult(dual, bool(ok))


@dataclass(frozen=True)
class FourLawsResult:
    ineq4_ok: bool
    pl4_ok: bool
    ineq4_lhs: float
    ineq4_rhs: float
    pl4_lhs: float
    pl4_rhs: float


def four_laws_check(x, y, tol: Tolerance = Tolerance()) -> FourLawsResult:
    """The l4 counterparts of Cauchy-Schwarz and the parallelogram law.

    NumericalOverflow when a fourth power of a norm leaves the float range.
    """
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    if x.shape != y.shape:
        raise ShapeMismatch("vectors must share length")
    with np.errstate(over="ignore", invalid="ignore"):
        nx, ny, plus, minus = (_lp_norms(v, 4.0) for v in (x, y, x + y, x - y))
        ineq_lhs = (plus**4 - minus**4) / 8.0
        ineq_rhs = (nx**2 + ny**2) * nx * ny
        pl_lhs = plus**4 + minus**4
        pl_rhs = 2.0 * (nx**4 + ny**4) + 12.0 * nx**2 * ny**2
    if not np.isfinite([ineq_lhs, ineq_rhs, pl_lhs, pl_rhs]).all():
        largest = max(entry_max(x), entry_max(y))
        raise NumericalOverflow(f"l4 fourth powers overflow: largest input magnitude {largest:.6g}")
    margin = tol.margin(abs(ineq_lhs), abs(ineq_rhs), pl_lhs, pl_rhs)
    return FourLawsResult(
        bool(ineq_lhs <= ineq_rhs + margin),
        bool(pl_lhs <= pl_rhs + margin),
        float(ineq_lhs), float(ineq_rhs), float(pl_lhs), float(pl_rhs),
    )


@dataclass(frozen=True)
class LineProjection:
    t_star: float
    dist: float


def project_line_l4(x, y, tol: Tolerance = Tolerance()) -> LineProjection:
    """Closest point to x on the real line {t y} in the l4 norm.

    phi(t) = ||x - t y||_4 is strictly convex and coercive, so golden
    section on a bracket guaranteed to contain the minimiser suffices.
    The bracket shrinks to abs_tol; where phi is quartically flat the
    returned argmin is only meaningful to about eps^(1/4).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ShapeMismatch("vectors must share length")
    ny = _lp_norm(y, 4.0)
    if ny <= tol.abs_tol:
        raise ZeroDirection("direction vector must be nonzero")
    phi = lambda t: _lp_norm(x - t * y, 4.0)
    bracket = 1.0 + 2.0 * _lp_norm(x, 4.0) / ny
    lo, hi = -bracket, bracket
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = phi(c), phi(d)
    while hi - lo > tol.abs_tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = phi(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = phi(d)
    t_star = 0.5 * (lo + hi)
    return LineProjection(float(t_star), float(phi(t_star)))


@dataclass(frozen=True)
class BanachFormulasResult:
    dim_sum: complex
    trace_lhs: Optional[complex]
    trace_rhs: Optional[complex]


def banach_formulas(pf: PFramePair, M=None) -> BanachFormulasResult:
    """dim K^m = sum f_j(tau_j) and Trace(M) = sum f_j(M tau_j), Parseval only."""
    S = p_frame_operator(pf)
    if not pf.tol.is_identity(S):
        raise NotParseval("the Banach identities need a Parseval p-frame")
    dim_sum = complex(np.trace(pf.F @ pf.T))
    lhs = rhs = None
    if M is not None:
        M = np.asarray(M)
        if M.shape != (pf.m, pf.m):
            raise ShapeMismatch("M must be m x m")
        lhs = complex(np.trace(M))
        rhs = complex(np.trace(pf.F @ M @ pf.T))
    return BanachFormulasResult(dim_sum, lhs, rhs)
