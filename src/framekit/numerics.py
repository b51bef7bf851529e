"""Dense spectral primitives shared by every other module.

Matrices are plain numpy arrays (real or complex).  All verdicts are made
against a Tolerance, whose comparison rule is

    |a - b| <= abs_tol + rel_tol * max(|a|, |b|)

applied entrywise with the max-magnitude of the operands as scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadExponent,
    EigenFailure,
    InconsistentInterval,
    NonSquare,
    NotDiagonalizable,
    NotPsd,
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
        scale = max((abs(float(s)) for s in scales), default=0.0)
        return self.abs_tol + self.rel_tol * scale

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


def smallest_singular_value(A) -> float:
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def hermitian_part(M) -> np.ndarray:
    M = np.asarray(M)
    return 0.5 * (M + M.conj().T)


def _require_square(M) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


@dataclass(frozen=True)
class SpectralReport:
    is_hermitian: bool
    eigenvalues: np.ndarray  # sorted by real part, ascending
    min_real_eig: float
    is_psd: bool
    is_pd: bool


def _is_hermitian(M: np.ndarray, tol: Tolerance) -> bool:
    return entry_max(M - M.conj().T) <= tol.margin(entry_max(M))


def spectral(M, tol: Tolerance = Tolerance()) -> SpectralReport:
    """Eigenvalue verdicts: hermiticity, positivity, definiteness.

    Hermitian inputs go through eigh so the returned eigenvalues are real
    up to dtype; general inputs use eig.  psd/pd require hermiticity first.
    """
    M = _require_square(M)
    hermitian = _is_hermitian(M, tol)
    try:
        if hermitian:
            vals = np.linalg.eigvalsh(hermitian_part(M)).astype(complex)
        else:
            vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    order = np.argsort(vals.real, kind="stable")
    vals = vals[order]
    min_real = float(vals.real.min()) if vals.size else 0.0
    is_psd = hermitian and min_real >= -tol.abs_tol
    is_pd = hermitian and min_real > tol.abs_tol
    return SpectralReport(hermitian, vals, min_real, is_psd, is_pd)


def _hermitian_eigh(M, tol: Tolerance):
    """eigh (w ascending, V) of M's Hermitian part, or None when M fails
    spectral's hermiticity test."""
    M = _require_square(M)
    if not _is_hermitian(M, tol):
        return None
    try:
        return np.linalg.eigh(hermitian_part(M))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def herm_sqrt(M, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Hermitian psd square root via eigendecomposition.

    One eigh of the Hermitian part both gates and builds the root: the
    input must pass spectral's hermiticity test and have no eigenvalue
    below -abs_tol.  Eigenvalues in [-abs_tol, 0] are clipped to 0 so that
    round-off on an intended-psd input does not raise.
    """
    eig = _hermitian_eigh(M, tol)
    if eig is None or (eig[0].size and eig[0][0] < -tol.abs_tol):
        raise NotPsd("herm_sqrt needs a Hermitian positive semidefinite matrix")
    w, V = eig
    w = np.clip(w, 0.0, None)
    R = (V * np.sqrt(w)) @ V.conj().T
    R = hermitian_part(R)
    if np.isrealobj(M):
        R = R.real
    return R


def _cut_distance(lam: complex) -> float:
    """Distance of a point from the closed ray (-inf, 0]."""
    if lam.real <= 0.0:
        return abs(lam.imag)
    return abs(lam)


def principal_power(M, alpha: float, tol: Tolerance = Tolerance()) -> np.ndarray:
    """V diag(lambda^alpha) V^-1 with the principal branch on each eigenvalue.

    Requires a diagonalizable matrix whose spectrum stays clear of the
    closed negative real axis; diagonalizability is gated by the condition
    number of the eigenvector matrix.
    """
    M = _require_square(M)
    try:
        w, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    svals = np.linalg.svd(V, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1.0 / max(tol.abs_tol, 1e-300):
        raise NotDiagonalizable("eigenvector matrix is too ill-conditioned")
    if any(_cut_distance(complex(lam)) <= tol.abs_tol for lam in w):
        raise SpectrumOnCut("an eigenvalue lies within tolerance of (-inf, 0]")
    powered = np.asarray(w, dtype=complex) ** alpha
    R = V @ np.diag(powered) @ np.linalg.inv(V)
    if np.isrealobj(M) and entry_max(R.imag) <= tol.margin(entry_max(R)):
        R = R.real
    return R


@dataclass(frozen=True)
class PNormInterval:
    lower: float
    upper: float


def _lp_norms(V, p: float) -> np.ndarray:
    """lp norm of each row of V (of V itself when V is a vector)."""
    V = np.asarray(V)
    A = np.abs(V.astype(complex if np.iscomplexobj(V) else float, order="C", copy=False))
    if p == np.inf:
        return A.max(axis=-1, initial=0.0)
    A **= p
    return A.sum(axis=-1) ** (1.0 / p)


def _lp_norm(v, p: float) -> float:
    return float(_lp_norms(np.ravel(v), p))


# Candidates per block times max(rows, cols) stays below this, so the
# temporaries of a witness sweep stay small however tall M is.
_BLOCK_ENTRIES = 1 << 15


def _image_lp_norms(M: np.ndarray, C, p: float) -> np.ndarray:
    """||M c||_p for every row c of C.

    The stacked matrix-vector product reproduces M @ c of each candidate
    bit for bit, unlike a single matrix-matrix product.
    """
    step = max(1, _BLOCK_ENTRIES // max(*M.shape, 1))
    norms = [_lp_norms((M @ C[k:k + step, :, None])[..., 0], p) for k in range(0, len(C), step)]
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


def _sign_patterns(n: int) -> np.ndarray:
    """All 2^n vectors of +-1 as the rows of a 2^n x n array.

    Row k has +1 in column j exactly when bit j of k is set.
    """
    bits = np.arange(2**n)[:, None] >> np.arange(n)
    bits &= 1
    signs = bits.astype(float)
    signs *= 2.0
    signs -= 1.0
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

    lower: best witness among all standard basis vectors, all +-1 sign
    patterns (when cols <= 12), the leading right singular vector, and
    `samples` seeded random directions, each normalised in lp; each
    family of witnesses goes through one stacked product.
    upper: exact largest singular value at p = 2, else the interpolation
    bound ||M||_1^(1/p) * ||M||_inf^(1-1/p).

    A witness above the upper end by more than round-off
    (8 cols eps relative) means the upper bound is wrong and raises
    InconsistentInterval; smaller overshoot is clamped.
    """
    if p < 1:
        raise BadExponent(f"p must be >= 1, got {p}")
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("pnorm_estimate expects a matrix")
    rows, cols = M.shape

    absM = np.abs(M)
    norm1 = float(absM.sum(axis=0).max()) if M.size else 0.0
    norminf = float(absM.sum(axis=1).max()) if M.size else 0.0
    if p == 2:
        upper = opnorm2(M)
    elif norm1 == 0.0 or norminf == 0.0:
        upper = 0.0
    else:
        upper = norm1 ** (1.0 / p) * norminf ** (1.0 - 1.0 / p)

    # a standard basis vector has unit lp norm and maps to its column exactly
    witnesses = [_lp_norms(M.T, p)]
    if cols <= 12:
        witnesses.append(_normalized_image_lp_norms(M, _sign_patterns(cols), p))
    try:
        _, _, Vh = np.linalg.svd(M)
        witnesses.append(_normalized_image_lp_norms(M, Vh[:1].conj(), p))
    except np.linalg.LinAlgError:
        pass
    rng = np.random.default_rng(seed)
    draws = _gaussian_rows(rng, samples, cols, np.iscomplexobj(M))
    witnesses.append(_normalized_image_lp_norms(M, draws, p))
    lower = max(float(w.max(initial=0.0)) for w in witnesses)

    # every witness is a true lower bound; only round-off may exceed the upper one
    if lower > upper * (1.0 + 8.0 * cols * np.finfo(float).eps):
        raise InconsistentInterval(
            f"lp norm witness {lower!r} exceeds the upper bound {upper!r} beyond round-off")
    return PNormInterval(min(lower, upper), upper)
