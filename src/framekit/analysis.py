"""Reconstruction iteration, tight extensions, worked identities and
perturbation certificates for dual-pair frames.

The quadratic and norm-sum perturbation certificates are sound: when the
hypothesis holds the produced bound window is guaranteed.  The linear and
Bessel forms quantify over all vectors, which no finite procedure can
decide, so those run as seeded falsifiers and say only "not falsified".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadParams,
    HypothesisFails,
    LambdaTooSmall,
    NotAFrame,
    NotBessel,
    NotParseval,
    NotReal,
    NotSelfPair,
    NotWeightedOnb,
    ShapeMismatch,
    TooManyVectors,
    WeightTooLarge,
)
from .frames import COMPLEX, REAL, FramePair, frame_flags, frame_operator, verify
from .numerics import Tolerance, _gaussian_blocks, entry_max, herm_sqrt, opnorm2, spectral

QUADRATIC = "quadratic"
NORMSUM = "normsum"
SAMPLED_LINEAR = "sampled_linear"
SAMPLED_BESSEL = "sampled_bessel"


@dataclass(frozen=True)
class IterationTrace:
    iterates: list
    errors: np.ndarray
    bound_curve: np.ndarray  # ((b - a) / (b + a))^k * ||h||


def iterate_reconstruct(fp: FramePair, h, steps: int) -> IterationTrace:
    """h_k = h_{k-1} + (2/(a+b)) S (h - h_{k-1}) starting from h_0 = 0.

    The error after k steps is bounded by ((b-a)/(b+a))^k ||h||.
    """
    report = verify(fp)
    if not report.is_frame:
        raise NotAFrame("reconstruction iterates on a frame")
    h = np.asarray(h, dtype=complex if fp.field == COMPLEX else float).ravel()
    if h.shape != (fp.m,):
        raise ShapeMismatch("vector must live in the frame's space")
    S = frame_operator(fp)
    a, b = report.lower_a, report.upper_b
    factor = 2.0 / (a + b)
    ratio = (b - a) / (b + a)
    hk = np.zeros_like(h)
    iterates = [hk]
    errors = [float(np.linalg.norm(h))]
    for _ in range(steps):
        hk = hk + factor * (S @ (h - hk))
        iterates.append(hk)
        errors.append(float(np.linalg.norm(hk - h)))
    norm_h = float(np.linalg.norm(h))
    bound = norm_h * ratio ** np.arange(steps + 1)
    return IterationTrace(iterates, np.asarray(errors), bound)


def extend_tight_append(fp: FramePair, lam: float) -> FramePair:
    """Append the m columns of (lam I - S)^(1/2) to both families."""
    S = frame_operator(fp)
    flags = frame_flags(S, fp.tol)
    if not flags.is_bessel:
        raise NotBessel("tight extension starts from a Bessel pair")
    top = float(spectral(S, fp.tol).eigenvalues.real.max())
    if lam <= top + fp.tol.abs_tol:
        raise LambdaTooSmall(f"lambda must exceed the top eigenvalue {top}")
    R = herm_sqrt(lam * np.eye(fp.m) - S, fp.tol)
    if fp.field == REAL:
        R = R.real
    return FramePair(np.hstack([fp.X, R]), np.hstack([fp.T, R]), fp.field, fp.tol)


def extend_tight_minimal(fp: FramePair) -> FramePair:
    """Append sqrt(lam_max - lam_j) v_j for the deficient eigenpairs.

    Needs a self-dual pair (x_j = tau_j); eigenvalues already at the top
    within tolerance are skipped, so a tight input is returned unchanged.
    """
    if not fp.tol.mat_close(fp.X, fp.T):
        raise NotSelfPair("minimal extension needs x_j = tau_j")
    S = frame_operator(fp)
    if not frame_flags(S, fp.tol).is_frame:
        raise NotAFrame("minimal extension starts from a frame")
    w, V = np.linalg.eigh(0.5 * (S + S.conj().T))
    top = float(w[-1])
    cols = []
    for lam_j, v in zip(w, V.T):
        gap = top - float(lam_j)
        if gap > fp.tol.margin(top):
            cols.append(np.sqrt(gap) * v)
    if not cols:
        return fp
    extra = np.column_stack(cols)
    if fp.field == REAL:
        extra = extra.real
    return FramePair(np.hstack([fp.X, extra]), np.hstack([fp.T, extra]), fp.field, fp.tol)


@dataclass(frozen=True)
class SpanCharacterization:
    is_frame: bool
    witness: Optional[tuple]  # per-index choices ("x" or "tau") of a non-spanning selection


def _rank(M: np.ndarray, tol: Tolerance) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = max(tol.abs_tol, max(M.shape) * np.finfo(float).eps * float(s[0]))
    return int(np.sum(s > cutoff))


def _first_misaligned(T: np.ndarray, Y: np.ndarray, tol: Tolerance) -> Optional[int]:
    """First member j whose tau_j y_j^* is not Hermitian psd, or None.

    The verdict on each outer product is numerics.spectral's, taken for
    all members with one batched eigvalsh.
    """
    outer = T.T[:, :, None] * Y.conj().T[:, None, :]  # [j] = tau_j y_j^*
    finite = np.isfinite(outer).all(axis=(1, 2))
    adjoint = outer.conj().transpose(0, 2, 1)
    scale = np.abs(outer).max(axis=(1, 2))
    hermitian = np.abs(outer - adjoint).max(axis=(1, 2)) <= tol.abs_tol + tol.rel_tol * scale
    psd = np.zeros(len(outer), dtype=bool)
    checked = finite & hermitian
    if checked.any():
        lowest = np.linalg.eigvalsh(0.5 * (outer[checked] + adjoint[checked]))[:, 0]
        psd[checked] = lowest >= -tol.abs_tol
    bad = np.flatnonzero(~psd)
    if not bad.size:
        return None
    if not finite[bad[0]]:
        raise ValueError("matrix entries must be finite")
    return int(bad[0])


def span_characterization(fp: FramePair) -> SpanCharacterization:
    """Frame test through the 2^n mixed selections (x_j or tau_j for each j).

    Hypothesis per member: tau_j x_j^* = x_j tau_j^* and tau_j x_j^*
    Hermitian psd.  The pair is a frame exactly when every selection spans
    K^m.  Under the hypothesis tau_j is a positive multiple of x_j or one
    of the two is 0, so a selection fails to span exactly when its worst
    completion does, the one taking the smaller-norm vector of every
    member left open.  The lexicographically first failing selection ("x"
    before "tau") is therefore built greedily with at most n + 1 rank
    tests: keep "x" at j when it still has a failing completion.
    """
    if fp.n > 20:
        raise TooManyVectors("selection enumeration is capped at n = 20")
    tol = fp.tol
    j = _first_misaligned(fp.T, fp.X, tol)
    if j is not None:
        raise HypothesisFails(f"member {j} violates the alignment/positivity hypothesis")
    tau_smaller = np.linalg.norm(fp.T, axis=0) < np.linalg.norm(fp.X, axis=0)
    cols = np.where(tau_smaller, fp.T, fp.X)
    if _rank(cols, tol) >= fp.m:
        return SpanCharacterization(True, None)
    choice = []
    for j in range(fp.n):  # invariant: the prefix chosen so far plus the worst completion fails
        cols[:, j] = fp.X[:, j]
        if _rank(cols, tol) < fp.m:
            choice.append("x")
        else:
            cols[:, j] = fp.T[:, j]
            choice.append("tau")
    return SpanCharacterization(False, tuple(choice))


@dataclass(frozen=True)
class FormulasReport:
    trace_S: complex
    sum_inner: complex
    trace_S2: complex
    double_sum: complex
    variation_ok: Optional[bool]
    dim_formula_ok: Optional[bool]
    equal_diag_b: Optional[float]
    equal_diag_ok: Optional[bool]


def formulas_report(fp: FramePair) -> FormulasReport:
    """Trace, dimension and variation identities evaluated on the pair.

    The raw sums are always computed; the tightness-conditional checks are
    present only when the corresponding hypothesis holds.
    """
    S = frame_operator(fp)
    report = frame_flags(S, fp.tol)
    diag = np.array([complex(np.vdot(fp.T[:, j], fp.X[:, j])) for j in range(fp.n)])
    sum_inner = complex(diag.sum())
    trace_S = complex(np.trace(S))
    trace_S2 = complex(np.trace(S @ S))
    G = fp.X.conj().T @ fp.T  # [k, j] = <tau_j, x_k>
    double_sum = complex(np.sum(G * G.T))
    tol = fp.tol
    variation_ok = None
    dim_ok = None
    equal_b = None
    equal_ok = None
    if report.tight:
        target = sum_inner**2 / fp.m
        variation_ok = bool(abs(double_sum - target) <= tol.margin(abs(double_sum), abs(target)))
        spread = max(abs(d - diag[0]) for d in diag)
        if spread <= tol.margin(max(abs(d) for d in diag)):
            equal_b = report.upper_b * fp.m / fp.n
            equal_ok = bool(abs(equal_b - diag[0]) <= tol.margin(equal_b, abs(diag[0])))
    if report.parseval:
        dim_ok = bool(abs(sum_inner - fp.m) <= tol.margin(fp.m))
    return FormulasReport(trace_S, sum_inner, trace_S2, double_sum,
                          variation_ok, dim_ok, equal_b, equal_ok)


@dataclass(frozen=True)
class TraceFormulaResult:
    lhs: complex
    rhs: complex
    mirrored: complex
    ok: bool


def trace_formula(fp: FramePair, M) -> TraceFormulaResult:
    """Trace(M) against sum_j tau_j^* M x_j on a Parseval pair."""
    if not verify(fp).parseval:
        raise NotParseval("the trace identity needs a Parseval pair")
    M = np.asarray(M)
    if M.shape != (fp.m, fp.m):
        raise ShapeMismatch("M must be m x m")
    lhs = complex(np.trace(M))
    rhs = complex(np.einsum("ij,ik,kj->", fp.T.conj(), M, fp.X))
    mirrored = complex(np.einsum("ij,ik,kj->", fp.X.conj(), M, fp.T))
    tol = fp.tol
    scale = max(1.0, entry_max(M) * fp.m)
    ok = bool(abs(lhs - rhs) <= tol.margin(scale) and abs(lhs - mirrored) <= tol.margin(scale))
    return TraceFormulaResult(lhs, rhs, mirrored, ok)


@dataclass(frozen=True)
class WeightedOnbResult:
    holds: bool


def weighted_onb_check(fp: FramePair, c) -> WeightedOnbResult:
    """I - sum (2 - c_j) c_j x_j x_j^* psd for an orthonormal {x_j}, tau_j = c_j x_j."""
    weights = np.asarray(c, dtype=float)
    if weights.shape != (fp.n,):
        raise ShapeMismatch("need one weight per member")
    tol = fp.tol
    if np.any(weights > 2.0 + tol.abs_tol):
        raise WeightTooLarge("weights must not exceed 2")
    gram = fp.X.conj().T @ fp.X
    if not tol.is_identity(gram):
        raise NotWeightedOnb("the x family must be orthonormal")
    if not tol.mat_close(fp.T, fp.X * weights):
        raise NotWeightedOnb("tau_j must equal c_j x_j")
    eye = np.eye(fp.m, dtype=complex if fp.field == COMPLEX else float)
    M = eye - (fp.X * ((2.0 - weights) * weights)) @ fp.X.conj().T
    rep = spectral(M, tol)
    return WeightedOnbResult(bool(rep.is_hermitian and rep.is_psd))


@dataclass(frozen=True)
class PerturbCertificate:
    kind: str
    hypothesis_ok: bool
    predicted_lower: float
    predicted_upper: float
    actual_lower: float
    actual_upper: float


def _require_frame_report(fp: FramePair):
    report = verify(fp)
    if not report.is_frame:
        raise NotAFrame("perturbation certificates start from a frame")
    return report


def _as_columns(fp: FramePair, Y) -> np.ndarray:
    Y = np.asarray(Y)
    if Y.shape != (fp.m, fp.n):
        raise ShapeMismatch("perturbed family must be m x n")
    return Y


def _alignment_ok(fp: FramePair, Y) -> bool:
    # per member: tau_j y_j^* = y_j tau_j^* and tau_j y_j^* Hermitian psd
    return _first_misaligned(fp.T, Y, fp.tol) is None


def _actual_bounds(fp: FramePair, Y):
    field = COMPLEX if (fp.field == COMPLEX or np.iscomplexobj(Y)) else REAL
    report = verify(FramePair(Y, fp.T, field, fp.tol))
    return report.lower_a, report.upper_b


def perturb_quadratic(fp: FramePair, Y) -> PerturbCertificate:
    """Certificate from sum ||x_j - y_j|| ||S^-1 tau_j|| < 1."""
    _require_frame_report(fp)
    Y = _as_columns(fp, Y)
    S = frame_operator(fp)
    Sinv = np.linalg.inv(S)
    diffs = np.linalg.norm(fp.X - Y, axis=0)
    weights = np.linalg.norm(Sinv @ fp.T, axis=0)
    total = float(diffs @ weights)
    hypothesis = _alignment_ok(fp, Y) and total < 1.0
    lower = (1.0 - total) / opnorm2(Sinv)
    upper = opnorm2(fp.T) * (np.sqrt(float(np.sum(diffs**2))) + opnorm2(fp.X))
    actual_a, actual_b = _actual_bounds(fp, Y)
    return PerturbCertificate(QUADRATIC, bool(hypothesis), lower, upper, actual_a, actual_b)


def perturb_normsum(fp: FramePair, Y) -> PerturbCertificate:
    """Certificate from r = sum ||x_j - y_j||^2 < 1 / ||theta_tau S^-1||^2."""
    _require_frame_report(fp)
    Y = _as_columns(fp, Y)
    S = frame_operator(fp)
    Sinv = np.linalg.inv(S)
    r = float(np.sum(np.linalg.norm(fp.X - Y, axis=0) ** 2))
    theta_tau_Sinv = opnorm2(fp.T.conj().T @ Sinv)
    hypothesis = _alignment_ok(fp, Y) and r < 1.0 / theta_tau_Sinv**2
    lower = (1.0 - np.sqrt(r) * theta_tau_Sinv) / opnorm2(Sinv)
    upper = opnorm2(fp.T) * (opnorm2(fp.X) + np.sqrt(r))
    actual_a, actual_b = _actual_bounds(fp, Y)
    return PerturbCertificate(NORMSUM, bool(hypothesis), lower, upper, actual_a, actual_b)


def perturb_sampled(fp: FramePair, Y, alpha: float, beta: float, gamma: float,
                    samples: int = 1000, seed: int = 0,
                    kind: str = SAMPLED_LINEAR) -> PerturbCertificate:
    """Seeded falsifier for the universally quantified perturbation forms.

    kind sampled_linear tests the coefficient inequality
        ||sum c_j (x_j - y_j)|| <= alpha ||sum c_j x_j|| + gamma ||c|| + beta ||sum c_j y_j||
    and kind sampled_bessel tests, over vectors h,
        |sum <h, x_j - y_j><tau_j, h>|^(1/2)
            <= alpha s_x(h)^(1/2) + beta s_y(h)^(1/2) + gamma ||h||
    together with nonnegativity of s_y(h).  hypothesis_ok means "not
    falsified by any sample" - it is not a proof.
    """
    report = _require_frame_report(fp)
    Y = _as_columns(fp, Y)
    if min(alpha, beta, gamma) < 0:
        raise BadParams("coefficients must be nonnegative")
    S = frame_operator(fp)
    Sinv = np.linalg.inv(S)
    a, b = report.lower_a, report.upper_b

    if kind == SAMPLED_LINEAR:
        gate = alpha + gamma * opnorm2(fp.T.conj().T @ Sinv)
        if max(gate, beta) >= 1.0:
            raise BadParams("need max(alpha + gamma ||theta_tau S^-1||, beta) < 1")
        lower = (1.0 - gate) / ((1.0 + beta) * opnorm2(Sinv))
        upper = opnorm2(fp.T) * ((1.0 + alpha) * opnorm2(fp.X) + gamma) / (1.0 - beta)
    elif kind == SAMPLED_BESSEL:
        if max(alpha + gamma / np.sqrt(a), beta) >= 1.0:
            raise BadParams("need max(alpha + gamma / sqrt(a), beta) < 1")
        lower = a * (1.0 - (alpha + beta + gamma / np.sqrt(a)) / (1.0 + beta)) ** 2
        upper = b * (1.0 + (alpha + beta + gamma / np.sqrt(b)) / (1.0 - beta)) ** 2
    else:
        raise ValueError(f"unknown sampling kind {kind!r}")

    rng = np.random.default_rng(seed)
    blocks = _gaussian_blocks(rng, samples, fp.n if kind == SAMPLED_LINEAR else fp.m,
                              fp.field == COMPLEX, max(fp.m, fp.n))
    falsified = any(_falsifying_samples(fp, Y, V, alpha, beta, gamma, kind).any() for V in blocks)

    actual_a, actual_b = _actual_bounds(fp, Y)
    return PerturbCertificate(kind, not falsified, float(lower), float(upper),
                              actual_a, actual_b)


def _falsifying_samples(fp: FramePair, Y, V, alpha, beta, gamma, kind) -> np.ndarray:
    """Mask of the rows v of V that break perturb_sampled's inequality."""
    tol = fp.tol
    vnorm = np.linalg.norm(V, axis=1)
    slack = tol.margin(1.0) * np.maximum(1.0, vnorm)
    if kind == SAMPLED_LINEAR:
        lhs = np.linalg.norm(V @ (fp.X - Y).T, axis=1)
        rhs = (alpha * np.linalg.norm(V @ fp.X.T, axis=1) + gamma * vnorm
               + beta * np.linalg.norm(V @ Y.T, axis=1))
        return lhs > rhs + slack
    coeff_t = (V @ fp.T.conj()).conj()  # row k = conj(T^* v_k), ready for <., .>
    s_x = (coeff_t * (V @ fp.X.conj())).sum(axis=1)
    s_y = (coeff_t * (V @ Y.conj())).sum(axis=1)
    negative = (s_y.real < -slack) | (np.abs(s_y.imag) > slack)
    lhs = np.sqrt(np.abs(s_x - s_y))  # principal modulus
    rhs = (alpha * np.sqrt(np.maximum(s_x.real, 0.0))
           + beta * np.sqrt(np.maximum(s_y.real, 0.0))
           + gamma * vnorm)
    return negative | (lhs > rhs + slack)


def real_to_complex(fp: FramePair) -> FramePair:
    """Retag a real pair as complex; needs sum tau_j x_j^T symmetric."""
    if fp.field != REAL:
        raise NotReal("input must be over the real field")
    S = frame_operator(fp)
    if not fp.tol.mat_close(S, S.T):
        raise HypothesisFails("sum tau_j x_j^T must be symmetric")
    return FramePair(fp.X.astype(complex), fp.T.astype(complex), COMPLEX, fp.tol)


def complex_to_real(fp: FramePair) -> FramePair:
    """Split into real and imaginary parts: 2n real members, same bounds.

    Needs sum Im(tau_j) Re(x_j)^T = sum Re(tau_j) Im(x_j)^T.
    """
    Xr, Xi = fp.X.real, fp.X.imag
    Tr, Ti = fp.T.real, fp.T.imag
    if not fp.tol.mat_close(Ti @ Xr.T, Tr @ Xi.T):
        raise HypothesisFails("mixed real/imaginary part sums must agree")
    return FramePair(np.hstack([Xr, Xi]), np.hstack([Tr, Ti]), REAL, fp.tol)
