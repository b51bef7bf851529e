"""Reconstruction iteration, tight extensions, worked identities and
perturbation certificates for dual-pair frames.

The quadratic and norm-sum perturbation certificates are sound: when the
hypothesis holds the produced bound window is guaranteed.  The linear and
Bessel forms quantify over all vectors, which no finite procedure can
decide, so those run as seeded falsifiers and say only "not falsified".

Every body reads a pair's stacked operators theta_A = X^* and
theta_Psi = T^* and builds its result through FramePair._stacked,
adopting the arrays it has just computed; X and T are caller-side
adjoints, a fresh conjugate copy on each read of a complex pair.  The
perturbed family Y, which callers pass as m x n columns, is copied once
into its rows Y^*.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import (
    BadParams,
    HypothesisFails,
    NotReal,
    NotSelfPair,
    NumericalOverflow,
    ShapeMismatch,
)
from .frames import (
    COMPLEX,
    REAL,
    FramePair,
    _extend_tight,
    _frame_eigh,
    _require_frame,
    _require_frame_flags,
    _require_parseval_pair,
    _tight_report,
    _times_adjoint,
    _weighted_onb,
    frame_operator,
    verify,
)
from .numerics import (
    Tolerance,
    _Record,
    _blocks,
    _frozen,
    _gaussian_blocks,
    _hermitian,
    _hermitian_part,
    _psd,
    _require_finite,
    entry_max,
    opnorm2,
)

QUADRATIC = "quadratic"
NORMSUM = "normsum"
SAMPLED_LINEAR = "sampled_linear"
SAMPLED_BESSEL = "sampled_bessel"


@_frozen
class IterationTrace(_Record):
    """Iterates of the frame reconstruction, their errors and the error bounds."""

    iterates: list
    errors: np.ndarray
    bound_curve: np.ndarray  # ((b - a) / (b + a))^k * ||h||


def iterate_reconstruct(fp: FramePair, h, steps: int) -> IterationTrace:
    """h_k = h_{k-1} + (2/(a+b)) S (h - h_{k-1}) starting from h_0 = 0.

    The error after k steps is bounded by ((b-a)/(b+a))^k ||h||.  A complex
    h iterates in complex arithmetic, whatever the pair's field.  A
    negative steps or a non-finite h raises ValueError.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    S, report = _require_frame_flags(fp, "reconstruction iterates on a frame")
    h = np.asarray(h)
    h = h.astype(complex if fp.field == COMPLEX or np.iscomplexobj(h) else float).ravel()
    if h.shape != (fp.m,):
        raise ShapeMismatch("vector must live in the frame's space")
    if not np.all(np.isfinite(h)):
        raise ValueError(f"target entries must be finite, got {h}")
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
    """Append the m columns of (lam I - S)^(1/2) to both families.

    One body with ovf.extend_tight_ovf (frames._extend_tight).
    """
    return _extend_tight(fp, lam)


def extend_tight_minimal(fp: FramePair) -> FramePair:
    """Append sqrt(lam_max - lam_j) v_j for the deficient eigenpairs.

    Needs a self-dual pair (x_j = tau_j); eigenvalues already at the top
    within tolerance are skipped, so a tight input is returned unchanged.
    One eigh of S gives both the frame verdict and the eigenpairs.
    """
    if not fp.tol.mat_close(fp.theta_A, fp.theta_Psi):
        raise NotSelfPair("minimal extension needs x_j = tau_j")
    w, V = _frame_eigh(fp, "minimal extension starts from a frame")
    gaps = float(w[-1]) - w
    deficient = gaps > fp.tol.margin(float(w[-1]))
    if not deficient.any():
        return fp
    extra = (V[:, deficient] * np.sqrt(gaps[deficient])).conj().T  # rows (sqrt(gap_j) v_j)^*
    return type(fp)._stacked(np.vstack([fp.theta_A, extra]), np.vstack([fp.theta_Psi, extra]),
                             (), fp.tol)


@_frozen
class SpanCharacterization(_Record):
    """Frame verdict through the mixed selections, with a non-spanning witness."""

    is_frame: bool
    witness: Optional[tuple]  # per-index choices ("x" or "tau") of a non-spanning selection


def _rank(M: np.ndarray, tol: Tolerance) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = max(tol.abs_tol, max(M.shape) * np.finfo(float).eps * float(s[0]))
    return int(np.sum(s > cutoff))


def _first_misaligned(theta_T: np.ndarray, theta_Y: np.ndarray, tol: Tolerance) -> Optional[int]:
    """First member j whose tau_j y_j^* is not Hermitian psd, or None.

    theta_T and theta_Y hold the rows tau_j^* and y_j^*.  The Hermitian and
    psd rules of numerics decide each outer product on its own, and one
    pass reads its scale max |tau_j y_j^*| for the Hermitian rule, the
    Hermitian part and the finiteness test (a scale not below inf).  Members
    go in order, in numerics' blocks of m x m outer products (one member
    at the least) with one batched eigvalsh each, so the temporaries stay
    small however large m and n are, and the first block that holds a
    misaligned member ends the search.
    """
    n, m = theta_T.shape
    for block in _blocks(n, m * m):
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            # [i] = tau_j y_j^*, j = block.start + i: column theta_T[j]^* times row theta_Y[j]
            outer = theta_T[block].conj()[:, :, None] * theta_Y[block][:, None, :]
            scale = np.abs(outer).max(axis=(1, 2))
            finite = scale < np.inf  # NaN fails it too
            checked = finite & _hermitian(outer, tol, scale=scale)
        psd = np.zeros(len(outer), dtype=bool)
        if checked.any():
            kept = outer[checked]
            H = _hermitian_part(kept, kept.swapaxes(-1, -2).conj(), scale[checked].max())
            psd[checked] = _psd(np.linalg.eigvalsh(H), tol)
        bad = np.flatnonzero(~psd)
        if not bad.size:
            continue
        j = block.start + int(bad[0])
        if not finite[bad[0]]:
            largest = max(entry_max(theta_T[j]), entry_max(theta_Y[j]))
            if np.isfinite(largest):
                raise NumericalOverflow(
                    f"tau_j y_j^* of member {j} overflows: largest input magnitude {largest:.6g}")
            raise ValueError("matrix entries must be finite")
        return j
    return None


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
    tol = fp.tol
    j = _first_misaligned(fp.theta_Psi, fp.theta_A, tol)
    if j is not None:
        raise HypothesisFails(f"member {j} violates the alignment/positivity hypothesis")
    tau_smaller = np.linalg.norm(fp.theta_Psi, axis=1) < np.linalg.norm(fp.theta_A, axis=1)
    rows = np.where(tau_smaller[:, None], fp.theta_Psi, fp.theta_A)  # the adjoints of a selection
    if _rank(rows.T, tol) >= fp.m:
        return SpanCharacterization(True, None)
    choice = []
    for j in range(fp.n):  # invariant: the prefix chosen so far plus the worst completion fails
        rows[j] = fp.theta_A[j]
        if _rank(rows.T, tol) < fp.m:
            choice.append("x")
        else:
            rows[j] = fp.theta_Psi[j]
            choice.append("tau")
    return SpanCharacterization(False, tuple(choice))


@_frozen
class FormulasReport(_Record):
    """Trace, variation and dimension identities evaluated on a pair."""

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
    present only when the corresponding hypothesis holds.  double_sum,
    sum_jk <tau_j, x_k><tau_k, x_j>, is tr(X^* T X^* T) = tr(S^2) by the
    cyclic trace, taken as sum_ab S_ab S_ba from the m x m S rather than
    from the n x n Gram X^* T; no conjugate enters, so this holds over C.

    Only a tight pair's checks read a bound (b, for equal_diag_b), so
    "not tight" needs no eigenvalues where frames._tight_report proves it:
    from 12 rows, the spread of S's diagonal beyond the tight margin plus
    eigvalsh's error (numerics._not_tight_certified).  Every other pair
    pays the one eigvalsh of _pair_flags, whose rules decide "tight".
    """
    S, report = _tight_report(fp)
    diag = np.einsum("ji,ji->j", fp.theta_Psi, fp.theta_A.conj())  # [j] = <x_j, tau_j>
    sum_inner = complex(diag.sum())
    trace_S = complex(np.trace(S))
    trace_S2 = complex(np.einsum("ab,ba->", S, S))
    double_sum = complex(np.sum(S * S.T))
    tol = fp.tol
    variation_ok = dim_ok = equal_b = equal_ok = None
    if report is not None and report.tight:
        target = sum_inner**2 / fp.m
        variation_ok = bool(abs(double_sum - target) <= tol.margin(abs(double_sum), abs(target)))
        spread = float(np.abs(diag - diag[0]).max())
        if spread <= tol.margin(float(np.abs(diag).max())):
            equal_b = report.upper_b * fp.m / fp.n
            equal_ok = bool(abs(equal_b - diag[0]) <= tol.margin(equal_b, abs(diag[0])))
    if report is not None and report.parseval:
        dim_ok = bool(abs(sum_inner - fp.m) <= tol.margin(fp.m))
    return FormulasReport(trace_S, sum_inner, trace_S2, double_sum,
                          variation_ok, dim_ok, equal_b, equal_ok)


@_frozen
class TraceFormulaResult(_Record):
    """Trace(M) against sum_j tau_j^* M x_j and its mirror on a Parseval pair."""

    lhs: complex
    rhs: complex
    mirrored: complex
    ok: bool


def trace_formula(fp: FramePair, M) -> TraceFormulaResult:
    """Trace(M) against sum_j tau_j^* M x_j on a Parseval pair."""
    _require_parseval_pair(fp, "the trace identity needs a Parseval pair")
    M = np.asarray(M)
    if M.shape != (fp.m, fp.m):
        raise ShapeMismatch("M must be m x m")
    lhs = complex(np.trace(M))
    rhs = complex(np.einsum("ji,ik,jk->", fp.theta_Psi, M, fp.theta_A.conj()))
    mirrored = complex(np.einsum("ji,ik,jk->", fp.theta_A, M, fp.theta_Psi.conj()))
    tol = fp.tol
    scale = max(1.0, entry_max(M) * fp.m)
    ok = bool(abs(lhs - rhs) <= tol.margin(scale) and abs(lhs - mirrored) <= tol.margin(scale))
    return TraceFormulaResult(lhs, rhs, mirrored, ok)


@_frozen
class WeightedOnbResult(_Record):
    """Whether a weighted orthonormal family is Bessel with bound 1."""

    holds: bool


def weighted_onb_check(fp: FramePair, c) -> WeightedOnbResult:
    """I - sum (2 - c_j) tau_j x_j^* psd for an orthonormal {x_j}, tau_j = c_j x_j.

    The d = 1 case of ovf.weighted_onb_bessel_check.
    """
    return WeightedOnbResult(_weighted_onb(fp, c)[0])


@_frozen
class PerturbCertificate(_Record):
    """Predicted bound window of a perturbed family against its actual bounds."""

    kind: str
    hypothesis_ok: bool
    predicted_lower: float
    predicted_upper: float
    actual_lower: float
    actual_upper: float


_CERTIFICATES_NEED_A_FRAME = "perturbation certificates start from a frame"


def _perturbed_rows(fp: FramePair, Y) -> np.ndarray:
    """The rows y_j^* of the m x n columns Y: a copy, which the caller's Y never shares.

    A NaN or infinite entry of Y raises ValueError, before any product is formed.
    """
    Y = np.asarray(Y)
    if Y.shape != (fp.m, fp.n):
        raise ShapeMismatch("perturbed family must be m x n")
    return np.conjugate(_require_finite(Y)).T


def _actual_bounds(fp: FramePair, theta_Y):
    """The optimal bounds of the pair (Y, T); it adopts theta_Y, which no one writes after."""
    report = verify(type(fp)._stacked(theta_Y, fp.theta_Psi, (), fp.tol))
    return report.lower_a, report.upper_b


def perturb_quadratic(fp: FramePair, Y) -> PerturbCertificate:
    """Certificate from sum ||x_j - y_j|| ||S^-1 tau_j|| < 1."""
    S = _require_frame(fp, _CERTIFICATES_NEED_A_FRAME)
    theta_Y = _perturbed_rows(fp, Y)
    Sinv = np.linalg.inv(S)
    diffs = np.linalg.norm(fp.theta_A - theta_Y, axis=1)
    weights = np.linalg.norm(_times_adjoint(fp.theta_Psi, Sinv), axis=1)  # ||S^-1 tau_j||
    total = float(diffs @ weights)
    hypothesis = _first_misaligned(fp.theta_Psi, theta_Y, fp.tol) is None and total < 1.0
    lower = (1.0 - total) / opnorm2(Sinv)
    upper = opnorm2(fp.theta_Psi) * (np.sqrt(float(np.sum(diffs**2))) + opnorm2(fp.theta_A))
    actual_a, actual_b = _actual_bounds(fp, theta_Y)
    return PerturbCertificate(QUADRATIC, bool(hypothesis), lower, upper, actual_a, actual_b)


def perturb_normsum(fp: FramePair, Y) -> PerturbCertificate:
    """Certificate from r = sum ||x_j - y_j||^2 < 1 / ||theta_tau S^-1||^2."""
    S = _require_frame(fp, _CERTIFICATES_NEED_A_FRAME)
    theta_Y = _perturbed_rows(fp, Y)
    Sinv = np.linalg.inv(S)
    r = float(np.sum(np.linalg.norm(fp.theta_A - theta_Y, axis=1) ** 2))
    theta_tau_Sinv = opnorm2(fp.theta_Psi @ Sinv)
    aligned = _first_misaligned(fp.theta_Psi, theta_Y, fp.tol) is None
    hypothesis = aligned and r < 1.0 / theta_tau_Sinv**2
    lower = (1.0 - np.sqrt(r) * theta_tau_Sinv) / opnorm2(Sinv)
    upper = opnorm2(fp.theta_Psi) * (opnorm2(fp.theta_A) + np.sqrt(r))
    actual_a, actual_b = _actual_bounds(fp, theta_Y)
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
    S, report = _require_frame_flags(fp, _CERTIFICATES_NEED_A_FRAME)
    theta_Y = _perturbed_rows(fp, Y)
    if min(alpha, beta, gamma) < 0:
        raise BadParams("coefficients must be nonnegative")
    Sinv = np.linalg.inv(S)
    a, b = report.lower_a, report.upper_b

    if kind == SAMPLED_LINEAR:
        gate = alpha + gamma * opnorm2(fp.theta_Psi @ Sinv)
        if max(gate, beta) >= 1.0:
            raise BadParams("need max(alpha + gamma ||theta_tau S^-1||, beta) < 1")
        lower = (1.0 - gate) / ((1.0 + beta) * opnorm2(Sinv))
        upper = opnorm2(fp.theta_Psi) * ((1.0 + alpha) * opnorm2(fp.theta_A) + gamma) / (1.0 - beta)
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
    falsified = any(_falsifying_samples(fp, theta_Y, V, alpha, beta, gamma, kind).any()
                    for V in blocks)

    actual_a, actual_b = _actual_bounds(fp, theta_Y)
    return PerturbCertificate(kind, not falsified, float(lower), float(upper),
                              actual_a, actual_b)


def _falsifying_samples(fp: FramePair, theta_Y, V, alpha, beta, gamma, kind) -> np.ndarray:
    """Mask of the rows v of V that break perturb_sampled's inequality."""
    tol = fp.tol
    vnorm = np.linalg.norm(V, axis=1)
    slack = tol.margin(1.0) * np.maximum(1.0, vnorm)
    if kind == SAMPLED_LINEAR:
        # ||sum_j v_j x_j|| is the norm of the row conj(v) theta_x: no conjugate of theta_x is made
        Vbar = V.conj()
        lhs = np.linalg.norm(Vbar @ (fp.theta_A - theta_Y), axis=1)
        rhs = (alpha * np.linalg.norm(Vbar @ fp.theta_A, axis=1) + gamma * vnorm
               + beta * np.linalg.norm(Vbar @ theta_Y, axis=1))
        return lhs > rhs + slack
    coeff_t = (V @ fp.theta_Psi.T).conj()  # row k = conj(T^* v_k), ready for <., .>
    s_x = (coeff_t * (V @ fp.theta_A.T)).sum(axis=1)
    s_y = (coeff_t * (V @ theta_Y.T)).sum(axis=1)
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
    # over C the rows are conj(x_j + 0i), imaginary parts -0.0, as a complex FramePair stores them
    return type(fp)._stacked(np.conjugate(fp.theta_A, dtype=complex),
                             np.conjugate(fp.theta_Psi, dtype=complex), (), fp.tol)


def complex_to_real(fp: FramePair) -> FramePair:
    """Split into real and imaginary parts: 2n real members, same bounds.

    Needs sum Im(tau_j) Re(x_j)^T = sum Re(tau_j) Im(x_j)^T.  The members
    are Re(x_j) for every j, then Im(x_j).
    """
    Ar, Ai = fp.theta_A.real, fp.theta_A.conj().imag  # rows Re(x_j)^T and Im(x_j)^T
    Pr, Pi = fp.theta_Psi.real, fp.theta_Psi.conj().imag
    if not fp.tol.mat_close(Pi.T @ Ar, Pr.T @ Ai):
        raise HypothesisFails("mixed real/imaginary part sums must agree")
    return type(fp)._stacked(np.vstack([Ar, Ai]), np.vstack([Pr, Pi]), (), fp.tol)
