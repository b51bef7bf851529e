"""Dense spectral primitives shared by every other module.

Matrices are plain numpy arrays (real or complex).  All verdicts are made
against a Tolerance, whose comparison rule is

    |a - b| <= abs_tol + rel_tol * max(|a|, |b|)

applied entrywise with the max-magnitude of the operands as scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadExponent,
    EigenFailure,
    InconsistentInterval,
    NonSquare,
    NotDiagonalizable,
    NotPsd,
    NumericalOverflow,
    SpectrumOnCut,
)


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")

    def margin(self, *scales: float) -> float:
        return self.abs_tol + self.rel_tol * max(map(abs, map(float, scales)), default=0.0)

    def close(self, a, b) -> bool:
        return abs(complex(a) - complex(b)) <= self.margin(abs(complex(a)), abs(complex(b)))

    def mat_close(self, A, B) -> bool:
        A = np.asarray(A)
        B = np.asarray(B)
        if A.shape != B.shape:
            return False
        return entry_max(A - B) <= self.margin(entry_max(A), entry_max(B))

    def is_identity(self, A) -> bool:
        """Whether A is the identity within tolerance, scaled by entry_max(A).

        The deviation is entry_max(A - I), taken without building I: |A| in
        the dtype A - I would have, with |a_ii - 1| on the diagonal.
        """
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            return False
        B = A.astype(np.result_type(A.dtype, np.float64), copy=False)
        dev = np.abs(B)
        scale = float(dev.max(initial=0.0)) if B is A else entry_max(A)
        np.fill_diagonal(dev, np.abs(np.diagonal(B) - 1.0))
        return float(dev.max(initial=0.0)) <= self.margin(1.0, scale)

    def is_zero(self, A, scale: float = 1.0) -> bool:
        return entry_max(np.asarray(A)) <= self.margin(scale)


def entry_max(A) -> float:
    """Max-magnitude norm of a matrix or vector (0 for empty input)."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A)))


def opnorm2(A) -> float:
    """Operator 2-norm (largest singular value)."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _finite_product(L: np.ndarray, R: np.ndarray, what: str) -> np.ndarray:
    """L @ R for finite L and R, or NumericalOverflow when an entry overflows.

    The product runs with numpy's overflow and invalid warnings off, so
    stderr stays clean; the message names the largest input magnitude.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = L @ R
    if not np.isfinite(P).all():
        largest = max(entry_max(L), entry_max(R))
        raise NumericalOverflow(f"{what} overflows: largest input magnitude {largest:.6g}")
    return P


def hermitian_part(M) -> np.ndarray:
    """(M + M^*) / 2, for a matrix or each matrix of a stack (..., k, k)."""
    M = np.asarray(M)
    return 0.5 * (M + M.swapaxes(-1, -2).conj())


def _require_square(M) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


# --- the spectral rules ---------------------------------------------------------
#
# Every verdict on a frame operator, an operator-valued or a p-frame
# operator is one of these five rules, applied to the decomposition it
# reads.  They take matrices the caller already holds as finite and square.


def _hermitian(M, tol: Tolerance, Mh=None):
    """Whether M, or each matrix of a stack (..., k, k), is Hermitian within tol.

    The deviation max |M - M^*| is compared with tol's margin at the
    scale max |M|.  Mh is M^* when the caller has formed it already.
    """
    Mh = M.swapaxes(-1, -2).conj() if Mh is None else Mh
    dev = np.abs(M - Mh).max(axis=(-2, -1), initial=0.0)
    return dev <= tol.abs_tol + tol.rel_tol * np.abs(M).max(axis=(-2, -1), initial=0.0)


# In the psd and pd rules, w[..., 0][()] is lambda_min of each matrix: a
# numpy scalar for one w, whose comparison costs a tenth of a 0-d array's.


def _psd(w, tol: Tolerance):
    """The psd rule on ascending eigenvalues w (..., k): lambda_min >= -abs_tol.

    w is None for a matrix that failed the Hermitian rule, which fails this one.
    """
    return w is not None and (w.shape[-1] == 0 or w[..., 0][()] >= -tol.abs_tol)


def _pd(w, tol: Tolerance):
    """The frame (pd) rule on ascending eigenvalues w (..., k): lambda_min > abs_tol.

    w is None for a matrix that failed the Hermitian rule, which fails this one.
    """
    return w is not None and w.shape[-1] > 0 and w[..., 0][()] > tol.abs_tol


def _invertible(M, tol: Tolerance) -> bool:
    """The invertibility rule: sigma_min(M) > abs_tol, from one SVD of M.

    A 1-D M holds the eigenvalues of a Hermitian matrix instead, whose
    singular values are their absolute values, and no SVD runs.
    """
    s = np.abs(M) if M.ndim == 1 else np.linalg.svd(M, compute_uv=False)
    return bool(s.size) and float(s.min()) > tol.abs_tol


def _clear_of_cut(w, tol: Tolerance) -> bool:
    """The cut rule: every eigenvalue lies farther than abs_tol from (-inf, 0].

    w holds the eigenvalues, or is a square matrix whose eigenvalues are taken.
    """
    w = np.linalg.eigvals(w) if w.ndim == 2 else w
    dist = np.where(w.real <= 0.0, np.abs(w.imag), np.abs(w))
    return bool(np.all(dist > tol.abs_tol))


def _decompose(fn, M):
    """fn(M) for a numpy.linalg decomposition fn, raising EigenFailure when LAPACK fails."""
    try:
        return fn(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _hermitian_eig(M, tol: Tolerance, vectors: bool = False):
    """Ascending eigenvalues w of M's Hermitian part, or its eigh (w, V) with
    vectors; None when M fails the Hermitian rule.

    M^* is formed once, for both the rule and the Hermitian part.
    """
    Mh = M.swapaxes(-1, -2).conj()
    if not _hermitian(M, tol, Mh):
        return None
    return _decompose(np.linalg.eigh if vectors else np.linalg.eigvalsh, 0.5 * (M + Mh))


@dataclass(frozen=True)
class SpectralReport:
    is_hermitian: bool
    eigenvalues: np.ndarray  # sorted by real part, ascending
    min_real_eig: float
    is_psd: bool
    is_pd: bool


def spectral(M, tol: Tolerance = Tolerance()) -> SpectralReport:
    """Eigenvalue verdicts: hermiticity, positivity, definiteness.

    Hermitian inputs go through eigvalsh so the returned eigenvalues are
    real up to dtype; general inputs use eigvals.  psd/pd require
    hermiticity first.
    """
    M = _require_square(M)
    vals = _hermitian_eig(M, tol)
    hermitian = vals is not None
    vals = vals.astype(complex) if hermitian else _decompose(np.linalg.eigvals, M)
    vals = vals[np.argsort(vals.real, kind="stable")]
    min_real = float(vals.real.min()) if vals.size else 0.0
    real = vals.real if hermitian else None
    return SpectralReport(hermitian, vals, min_real, bool(_psd(real, tol)), bool(_pd(real, tol)))


def herm_sqrt(M, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Hermitian psd square root via eigendecomposition.

    One eigh of the Hermitian part both gates and builds the root: the
    input must pass the Hermitian and psd rules.  Eigenvalues in
    [-abs_tol, 0] are clipped to 0 so that round-off on an intended-psd
    input does not raise.
    """
    eig = _hermitian_eig(_require_square(M), tol, vectors=True)
    if eig is None or not _psd(eig[0], tol):
        raise NotPsd("herm_sqrt needs a Hermitian positive semidefinite matrix")
    w, V = eig
    R = hermitian_part((V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T)
    return R.real if np.isrealobj(M) else R


def principal_power(M, alpha: float, tol: Tolerance = Tolerance()) -> np.ndarray:
    """V diag(lambda^alpha) V^-1 with the principal branch on each eigenvalue.

    Requires a spectrum clear of the closed negative real axis (the cut
    rule, tested first, so an input failing both raises SpectrumOnCut) and
    a diagonalizable matrix, gated by the condition number of the
    eigenvector matrix.
    """
    M = _require_square(M)
    w, V = _decompose(np.linalg.eig, M)
    if not _clear_of_cut(w, tol):
        raise SpectrumOnCut("an eigenvalue lies within tolerance of (-inf, 0]")
    svals = np.linalg.svd(V, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1.0 / max(tol.abs_tol, 1e-300):
        raise NotDiagonalizable("eigenvector matrix is too ill-conditioned")
    powered = np.asarray(w, dtype=complex) ** alpha
    R = V @ np.diag(powered) @ np.linalg.inv(V)
    if np.isrealobj(M) and entry_max(R.imag) <= tol.margin(entry_max(R)):
        R = R.real
    return R


@dataclass(frozen=True)
class PNormInterval:
    lower: float
    upper: float


# _lp_norms sums unscaled only within [_LP_SUM_MIN, _FLOAT_MAX]; below, the
# round-off of subnormal terms may reach an ulp of the sum.
_FLOAT_MAX = np.finfo(float).max
_LP_SUM_MIN = np.finfo(float).tiny * 2.0**53


def _lp_norms(V, p: float) -> np.ndarray:
    """lp norm of each row of V (of V itself when V is a vector).

    When a sum of p-th powers could overflow, or is small enough to carry
    subnormal round-off, each row is divided by 2^e, the power of two just
    above its largest entry, before the powers, and its norm multiplied
    back by 2^e.  Both scalings are exact, so a norm within the float
    range never overflows; otherwise the rows are summed unscaled.
    """
    V = np.asarray(V)
    V = V.astype(complex if np.iscomplexobj(V) else float, order="C", copy=False)
    A = np.abs(V)
    if p == np.inf:
        return A.max(axis=-1, initial=0.0)
    if A.max(initial=0.0) < (_FLOAT_MAX / max(A.shape[-1], 1)) ** (1.0 / p):
        A **= p
        sums = A.sum(axis=-1)
        if sums.min(initial=np.inf) >= _LP_SUM_MIN:
            return sums ** (1.0 / p)
    A = np.abs(V)
    e = np.frexp(A.max(axis=-1, keepdims=True, initial=0.0))[1]
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return np.ldexp((np.ldexp(A, -e) ** p).sum(axis=-1) ** (1.0 / p), e[..., 0])


def _lp_norm(v, p: float) -> float:
    return float(_lp_norms(np.ravel(v), p))


# Candidates per block times max(rows, cols) stays below this, so the
# temporaries of a witness sweep stay small however tall M is.
_BLOCK_ENTRIES = 1 << 15


def _image_lp_norms(M: np.ndarray, C, p: float) -> np.ndarray:
    """||M c||_p for every row c of C, each block of images one GEMM.

    An image may differ from M @ c in its last bits (another summation
    order), so a witness norm moves only by rounding.
    """
    step = max(1, _BLOCK_ENTRIES // max(*M.shape, 1))
    norms = [_lp_norms(C[k:k + step] @ M.T, p) for k in range(0, len(C), step)]
    return np.concatenate(norms) if norms else np.zeros(0)


def _normalized_image_lp_norms(M: np.ndarray, C, p: float) -> np.ndarray:
    """||M (c / ||c||_p)||_p for every row c of C with ||c||_p > 0.

    Each candidate is cast to M's dtype before it is scaled, so an integer
    M sees integer candidates.
    """
    nc = _lp_norms(C, p)
    keep = nc > 0.0
    if not keep.all():
        C, nc = C[keep], nc[keep]
    return _image_lp_norms(M, np.asarray(C, dtype=M.dtype) / nc[:, None], p)


@functools.lru_cache(maxsize=None)
def _half_sign_patterns(n: int) -> np.ndarray:
    """The 2^(n-1) vectors of +-1 that end in +1, as the rows of a read-only
    array built once per n.

    Row k has +1 in column j exactly when bit j of 2^(n-1) + k is set: the
    second half of all 2^n patterns in bit order.  c and -c have equal
    image norms, so these rows stand for all 2^n; callers ask only for
    n <= 12, whose tables hold about 0.4 MB together.
    """
    bits = np.arange((1 << n) >> 1, 1 << n)[:, None] >> np.arange(n)
    bits &= 1
    signs = bits.astype(float)
    signs *= 2.0
    signs -= 1.0
    signs.setflags(write=False)
    return signs


def _gaussian_rows(rng: np.random.Generator, count: int, n: int, complex_field: bool) -> np.ndarray:
    """count seeded draws of length n as rows.

    Consumes the stream exactly as count successive draws of n normals
    (each followed, for a complex field, by n more for the imaginary part)
    would.
    """
    count = max(count, 0)
    if complex_field:
        draws = rng.standard_normal((count, 2, n))
        return draws[:, 0] + 1j * draws[:, 1]
    return rng.standard_normal((count, n))


def _gaussian_blocks(rng: np.random.Generator, count: int, n: int, complex_field: bool,
                     width: int):
    """The draws of _gaussian_rows(rng, count, n, complex_field), yielded as
    blocks of rows small enough that a (rows, width) temporary per block
    stays below _BLOCK_ENTRIES entries.

    A falsifier that stops at its first failing block then needs bounded
    memory however many samples it is asked for.
    """
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    for start in range(0, max(count, 0), step):
        yield _gaussian_rows(rng, min(step, count - start), n, complex_field)


def pnorm_estimate(
    M,
    p: float,
    samples: int = 200,
    seed: int = 0,
    tol: Tolerance = Tolerance(),
) -> PNormInterval:
    """Certified interval for the lp -> lp operator norm of M.

    lower: best witness among all standard basis vectors, the +-1 sign
    patterns up to a global sign (when cols <= 12), the leading right
    singular vector, and `samples` seeded random directions, each
    normalised in lp; each family of witnesses goes through one matrix
    product per block.  The sign patterns are the 2^(cols-1) that end
    in +1, taken from a read-only table cached once per cols (at most
    about 0.4 MB over all cols <= 12) and divided by their common lp
    norm.
    upper: at p = 2 the largest singular value, taken from the same full
    SVD as the singular-vector witness (a failing SVD raises), else the
    interpolation bound ||M||_1^(1/p) * ||M||_inf^(1-1/p).

    A witness above the upper end by more than round-off
    (8 cols eps relative) means the upper bound is wrong and raises
    InconsistentInterval; smaller overshoot is clamped.  p = inf is the
    max-norm; a p below 1 or NaN raises BadExponent.
    """
    if not p >= 1:
        raise BadExponent(f"p must be >= 1, got {p}")
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("pnorm_estimate expects a matrix")
    rows, cols = M.shape

    try:
        _, sigma, Vh = np.linalg.svd(M)
    except np.linalg.LinAlgError:
        if p == 2:  # no upper end without it
            raise
        Vh = None
    absM = np.abs(M)
    norm1 = float(absM.sum(axis=0).max()) if M.size else 0.0
    norminf = float(absM.sum(axis=1).max()) if M.size else 0.0
    if p == 2:
        upper = float(sigma[0]) if sigma.size else 0.0
    elif norm1 == 0.0 or norminf == 0.0:
        upper = 0.0
    else:
        upper = norm1 ** (1.0 / p) * norminf ** (1.0 - 1.0 / p)

    # a standard basis vector has unit lp norm and maps to its column exactly
    witnesses = [_lp_norms(M.T, p)]
    if 0 < cols <= 12:
        # every pattern has the lp norm _lp_norms gives the first, cols^(1/p),
        # since a sum of cols ones is exact
        signs = _half_sign_patterns(cols)
        scaled = np.asarray(signs, dtype=M.dtype) / _lp_norms(signs[:1], p)
        witnesses.append(_image_lp_norms(M, scaled, p))
    if Vh is not None:
        witnesses.append(_normalized_image_lp_norms(M, Vh[:1].conj(), p))
    rng = np.random.default_rng(seed)
    draws = _gaussian_rows(rng, samples, cols, np.iscomplexobj(M))
    witnesses.append(_normalized_image_lp_norms(M, draws, p))
    lower = max(float(w.max(initial=0.0)) for w in witnesses)

    # every witness is a true lower bound; only round-off may exceed the upper one
    if lower > upper * (1.0 + 8.0 * cols * np.finfo(float).eps):
        raise InconsistentInterval(
            f"lp norm witness {lower!r} exceeds the upper bound {upper!r} beyond round-off")
    return PNormInterval(min(lower, upper), upper)
