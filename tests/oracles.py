"""Independent cross-check routines used by the tests only.

Eigenvalues here are found through the characteristic polynomial
(Faddeev-LeVerrier coefficients, Durand-Kerner root iteration), a path
disjoint from the library's eigendecompositions.  The second half keeps
the per-element loops that the library's batched routines replaced.
"""

import itertools

import numpy as np

from framekit.analysis import SpanCharacterization, _rank
from framekit.errors import (
    BadGroupTable,
    HypothesisFails,
    IdempotentNotProjection,
    LambdaTooSmall,
    NotAFrame,
    NotARepresentation,
    NotBessel,
    NotParseval,
    NotPsd,
    NotSelfPair,
    NotWeightedOnb,
    ParamNotAdmissible,
    RangesDiffer,
    ShapeMismatch,
    WeightTooLarge,
)
from framekit.frames import (
    COMPLEX,
    REAL,
    DilationResult,
    FramePair,
    FrameReport,
    SimilarityTransforms,
    _check_shapes,
    _require_frame,
    frame_flags,
    frame_operator,
    infer_field,
    range_basis,
    verify,
)
from framekit.numerics import (
    _lp_norm,
    entry_max,
    herm_sqrt,
    hermitian_part,
    opnorm2,
    smallest_singular_value,
    spectral,
)
from framekit.ovf import OvfPair


def char_poly_coeffs(M):
    """Monic characteristic polynomial coefficients [1, c1, ..., cm]."""
    M = np.asarray(M, dtype=complex)
    m = M.shape[0]
    coeffs = [1.0 + 0j]
    N = np.zeros_like(M)
    for k in range(1, m + 1):
        N = M @ N + coeffs[-1] * np.eye(m)
        coeffs.append(-np.trace(M @ N) / k)
    return np.asarray(coeffs)


def durand_kerner(coeffs, iterations=400):
    """All roots of a monic polynomial by simultaneous iteration."""
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    if deg == 0:
        return np.array([])
    radius = 1.0 + max(abs(c) for c in coeffs[1:])
    roots = radius * np.exp(2j * np.pi * (np.arange(deg) + 0.25) / deg)
    for _ in range(iterations):
        vals = np.polyval(coeffs, roots)
        new = roots.copy()
        for i in range(deg):
            denom = np.prod(roots[i] - np.delete(roots, i)) if deg > 1 else 1.0
            if denom != 0:
                new[i] = roots[i] - vals[i] / denom
        if np.max(np.abs(new - roots)) < 1e-14 * max(1.0, radius):
            roots = new
            break
        roots = new
    return roots


def eigenvalues_via_charpoly(M):
    return durand_kerner(char_poly_coeffs(M))


def brute_force_is_frame(X, T, herm_tol=1e-9, eig_tol=1e-9):
    """Frame test without eigendecomposing: Hermitian S with all
    characteristic roots positive."""
    S = np.asarray(T) @ np.asarray(X).conj().T
    if np.max(np.abs(S - S.conj().T)) > herm_tol * max(1.0, np.max(np.abs(S))):
        return False
    roots = eigenvalues_via_charpoly(S)
    return bool(np.all(roots.real > eig_tol) and np.all(np.abs(roots.imag) < 1e-7))


def brute_force_extreme_eigs(S):
    roots = eigenvalues_via_charpoly(S)
    return float(roots.real.min()), float(roots.real.max())


# --- loop forms of the library's batched fast paths -------------------------------
#
# Each routine below is the straightforward per-element loop that a batched
# library routine replaced.  The differential tests require the library to
# reach the same verdict, witness and exception as these loops.


class EnumerationCapped(Exception):
    """The exhaustive enumerator gave up before finding or ruling out a failing selection."""


SELECTION_CAP = 2**20


def span_by_enumeration(fp):
    """Frame test by exhausting the 2^n mixed selections in lexicographic order.

    Stops after SELECTION_CAP selections (every selection for n <= 20)
    and raises EnumerationCapped if none of them failed to span.
    """
    tol = fp.tol
    for j in range(fp.n):
        outer = np.outer(fp.T[:, j], fp.X[:, j].conj())
        rep = spectral(outer, tol)
        if not (rep.is_hermitian and rep.is_psd):
            raise HypothesisFails(f"member {j} violates the alignment/positivity hypothesis")
    for count, choice in enumerate(itertools.product(("x", "tau"), repeat=fp.n)):
        if count == SELECTION_CAP:
            raise EnumerationCapped(f"stopped after {SELECTION_CAP} selections")
        cols = [fp.X[:, j] if pick == "x" else fp.T[:, j] for j, pick in enumerate(choice)]
        if _rank(np.column_stack(cols), tol) < fp.m:
            return SpanCharacterization(False, choice)
    return SpanCharacterization(True, None)


def pnorm_by_candidates(M, p, samples=200, seed=0):
    """(lower, upper) of the lp operator norm, one candidate at a time, unclamped."""
    M = np.asarray(M)
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
    candidates = [np.eye(cols, dtype=M.dtype)[:, j] for j in range(cols)]
    if cols <= 12:
        for bits in range(2**cols):
            candidates.append(np.array([1.0 if (bits >> j) & 1 else -1.0 for j in range(cols)]))
    try:
        _, _, Vh = np.linalg.svd(M)
        candidates.append(Vh[0].conj())
    except np.linalg.LinAlgError:
        pass
    rng = np.random.default_rng(seed)
    for _ in range(max(samples, 0)):
        v = rng.standard_normal(cols)
        if np.iscomplexobj(M):
            v = v + 1j * rng.standard_normal(cols)
        candidates.append(v)
    lower = 0.0
    for c in candidates:
        nc = _lp_norm(c, p)
        if nc == 0.0:
            continue
        lower = max(lower, _lp_norm(M @ (np.asarray(c, dtype=M.dtype) / nc), p))
    return lower, upper


def p_orthonormal_by_candidates(vectors, p, trials=200, seed=0, tol=None):
    """(consistent, witness) of the p-orthonormality falsifier, first failure wins."""
    M = np.asarray(vectors)
    n = M.shape[1]
    for j in range(n):
        if abs(_lp_norm(M[:, j], p) - 1.0) > tol.margin(1.0):
            return False, np.eye(n)[:, j]
    candidates = []
    if n <= 12:
        candidates += [np.asarray(bits) for bits in itertools.product((1.0, -1.0), repeat=n)]
    rng = np.random.default_rng(seed)
    for _ in range(max(trials, 0)):
        c = rng.standard_normal(n)
        if np.iscomplexobj(M):
            c = c + 1j * rng.standard_normal(n)
        candidates.append(c)
    for c in candidates:
        lhs = _lp_norm(M @ np.asarray(c, dtype=M.dtype), p) ** p
        rhs = float(np.sum(np.abs(c) ** p))
        if abs(lhs - rhs) > tol.margin(lhs, rhs):
            return False, np.asarray(c)
    return True, None


def riesz_sampled_min(M, p, trials=200, seed=0):
    """Smallest ||M c||_p^p over unit basis vectors and seeded draws (seed + 2 stream)."""
    M = np.asarray(M)
    n = M.shape[1]
    rng = np.random.default_rng(seed + 2)
    candidates = [np.eye(n)[:, j] for j in range(n)]
    for _ in range(max(trials, 0)):
        c = rng.standard_normal(n)
        if np.iscomplexobj(M):
            c = c + 1j * rng.standard_normal(n)
        candidates.append(c)
    sampled_min = np.inf
    for c in candidates:
        nc = _lp_norm(c, p)
        if nc > 0:
            sampled_min = min(sampled_min, _lp_norm(M @ (np.asarray(c, dtype=M.dtype) / nc), p) ** p)
    return sampled_min


def cross_identities_by_pairs(left, right, tol):
    """max_jk || left_j right_k^* - delta_jk I || within tolerance, pair by pair."""
    d = left[0].shape[0]
    eye = np.eye(d)
    for j, Lj in enumerate(left):
        for k, Rk in enumerate(right):
            prod = Lj @ Rk.conj().T
            target = eye if j == k else np.zeros((d, d))
            if np.abs(prod - target).max() > tol.margin(1.0, np.abs(prod).max()):
                return False
    return True


def weighted_deficiency_by_members(A, Psi, weights, m, complex_field):
    """I - sum_j (2 - c_j) Psi_j^* A_j, one member at a time."""
    deficiency = np.eye(m, dtype=complex if complex_field else float)
    for cj, Aj, Pj in zip(weights, A, Psi):
        deficiency = deficiency - (2.0 - cj) * (Pj.conj().T @ Aj)
    return deficiency


def weighted_onb_matrix_by_members(X, weights, complex_field):
    """I - sum_j (2 - c_j) c_j x_j x_j^*, one outer product at a time."""
    M = np.eye(X.shape[0], dtype=complex if complex_field else float)
    for j, cj in enumerate(weights):
        M = M - (2.0 - cj) * cj * np.outer(X[:, j], X[:, j].conj())
    return M


def check_group_table_by_loops(mul, e):
    """The group-table checks in their documented order, element by element."""
    mul = np.asarray(mul, dtype=int)
    n = mul.shape[0]
    full = set(range(n))
    for g in range(n):
        if set(mul[g, :].tolist()) != full or set(mul[:, g].tolist()) != full:
            raise BadGroupTable("rows and columns must be permutations")
    if np.any(mul[e, :] != np.arange(n)) or np.any(mul[:, e] != np.arange(n)):
        raise BadGroupTable("identity does not act trivially")
    for g in range(n):
        if np.count_nonzero(mul[g, :] == e) != 1:
            raise BadGroupTable("inverses must exist and be unique")
    for g in range(n):
        for h in range(n):
            if np.any(mul[mul[g, h], :] != mul[g, mul[h, :]]):
                raise BadGroupTable("table is not associative")


def left_translation_by_loop(mul, g):
    n = mul.shape[0]
    L = np.zeros((n, n))
    for q in range(n):
        L[mul[g, q], q] = 1.0
    return L


def check_representation_by_products(mul, mats, tol):
    """Unitarity of every matrix, then the group law on every dense product."""
    m = mats[0].shape[0]
    for M in mats:
        if M.ndim != 2 or M.shape != (m, m):
            raise NotARepresentation("matrices must be square of equal size")
        if not tol.is_identity(M @ M.conj().T) or not tol.is_identity(M.conj().T @ M):
            raise NotARepresentation("matrices must be unitary")
    order = len(mats)
    for g in range(order):
        for h in range(order):
            if not tol.mat_close(mats[g] @ mats[h], mats[mul[g, h]]):
                raise NotARepresentation("matrices do not respect the group law")


def first_falsifying_sample(X, T, Y, alpha, beta, gamma, samples, seed, linear, complex_field, tol):
    """Index of the first seeded sample that breaks the sampled inequality, or None."""
    rng = np.random.default_rng(seed)
    diff = X - Y
    for k in range(samples):
        v = rng.standard_normal(X.shape[1] if linear else X.shape[0])
        if complex_field:
            v = v + 1j * rng.standard_normal(v.shape[0])
        slack = tol.margin(1.0) * max(1.0, float(np.linalg.norm(v)))
        if linear:
            lhs = np.linalg.norm(diff @ v)
            rhs = (alpha * np.linalg.norm(X @ v) + gamma * np.linalg.norm(v)
                   + beta * np.linalg.norm(Y @ v))
            if lhs > rhs + slack:
                return k
        else:
            coeff_x = X.conj().T @ v
            coeff_y = Y.conj().T @ v
            coeff_t = T.conj().T @ v
            s_x = complex(np.vdot(coeff_t, coeff_x))
            s_y = complex(np.vdot(coeff_t, coeff_y))
            if s_y.real < -slack or abs(s_y.imag) > slack:
                return k
            lhs = np.sqrt(abs(s_x - s_y))
            rhs = (alpha * np.sqrt(max(s_x.real, 0.0))
                   + beta * np.sqrt(max(s_y.real, 0.0))
                   + gamma * np.linalg.norm(v))
            if lhs > rhs + slack:
                return k
    return None


# --- the decompositions one verdict used to pay for -------------------------------
#
# The library now decides a verdict from one Hermitian eigendecomposition.
# These are the earlier forms, with a separate SVD or spectral pass, that
# the differential tests hold it to.


def frame_flags_by_svd(S, tol):
    """Frame verdict with invertibility from a separate SVD: sigma_min(S) > abs_tol."""
    rep = spectral(S, tol)
    invertible = smallest_singular_value(S) > tol.abs_tol
    is_bessel = rep.is_hermitian and rep.is_psd
    is_frame = is_bessel and invertible
    if is_frame:
        a = float(rep.eigenvalues.real.min())
        b = float(rep.eigenvalues.real.max())
    else:
        a = b = 0.0
    tight = is_frame and (b - a) <= tol.margin(b)
    parseval = tight and abs(b - 1.0) <= tol.margin(1.0, b)
    return FrameReport(rep.is_hermitian, rep.is_psd, invertible, is_bessel, is_frame,
                       a, b, tight, parseval)


def herm_sqrt_by_spectral(M, tol):
    """Hermitian psd square root gated by a spectral pass before its eigh."""
    if not spectral(M, tol).is_psd:
        raise NotPsd("herm_sqrt needs a Hermitian positive semidefinite matrix")
    w, V = np.linalg.eigh(hermitian_part(M))
    R = hermitian_part((V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T)
    return R.real if np.isrealobj(M) else R


def dilate_by_range_bases(fp):
    """Dilation that takes the range basis of theta_x once more after the range test."""
    tol = fp.tol
    if not verify(fp).parseval:
        raise NotParseval("dilation starts from a Parseval pair")
    theta_x = fp.X.conj().T
    theta_t = fp.T.conj().T
    QA, QB = range_basis(theta_x, tol), range_basis(theta_t, tol)
    if QA.shape[1] != QB.shape[1] \
            or entry_max(theta_t - QA @ (QA.conj().T @ theta_t)) > tol.margin(entry_max(theta_t)) \
            or entry_max(theta_x - QB @ (QB.conj().T @ theta_x)) > tol.margin(entry_max(theta_x)):
        raise RangesDiffer("theta_x and theta_tau must have equal ranges")
    P = fp.X.conj().T @ fp.T
    if entry_max(P - P.conj().T) > tol.margin(entry_max(P)) or \
            entry_max(P @ P - P) > tol.margin(entry_max(P)):
        raise IdempotentNotProjection("frame idempotent is not an orthogonal projection")
    Q = range_basis(theta_x, tol)
    r = Q.shape[1]
    Pperp = np.eye(fp.n, dtype=P.dtype) - hermitian_part(P)
    Qperp = range_basis(np.eye(fp.n, dtype=P.dtype) - Q @ Q.conj().T, tol)
    bottom = Qperp.conj().T @ Pperp
    if fp.field == REAL:
        bottom = bottom.real
    big = FramePair(np.vstack([fp.X, bottom]), np.vstack([fp.T, bottom]), fp.field, tol)
    return DilationResult(big, fp.m + (fp.n - r))


def tensor_shuffle_permutation(n1, d1, n2, d2):
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


# --- the vector layer's own bodies before it became the d = 1 case of the OVF layer ----
#
# The library now runs one body per operation on stacked analysis operators.
# These are the frame-layer forms it replaced: a global margin where the
# shared body compares each member at its own scale, S^-1 where it takes
# S^-* through a solve.  dilate's is dilate_by_range_bases above.


def frame_idempotent_by_solve(fp):
    """P = X^* S^-1 T."""
    S = _require_frame(fp)
    return fp.X.conj().T @ np.linalg.solve(S, fp.T)


def extend_tight_append_by_columns(fp, lam):
    """Append the m columns of (lam I - S)^(1/2) to both families."""
    S = frame_operator(fp)
    rep = spectral(S, fp.tol)
    if not (rep.is_hermitian and rep.is_psd):
        raise NotBessel("tight extension starts from a Bessel pair")
    top = float(rep.eigenvalues.real.max())
    if lam <= top + fp.tol.abs_tol:
        raise LambdaTooSmall(f"lambda must exceed the top eigenvalue {top}")
    R = herm_sqrt(lam * np.eye(fp.m) - S, fp.tol)
    if fp.field == REAL:
        R = R.real
    return FramePair(np.hstack([fp.X, R]), np.hstack([fp.T, R]), fp.field, fp.tol)


def weighted_onb_check_by_gram(fp, c):
    """holds for I - sum (2 - c_j) c_j x_j x_j^*, with one global margin for each test."""
    weights = np.asarray(c, dtype=float)
    if weights.shape != (fp.n,):
        raise ShapeMismatch("need one weight per member")
    tol = fp.tol
    if np.any(weights > 2.0 + tol.abs_tol):
        raise WeightTooLarge("weights must not exceed 2")
    if not tol.is_identity(fp.X.conj().T @ fp.X):
        raise NotWeightedOnb("the x family must be orthonormal")
    if not tol.mat_close(fp.T, fp.X * weights):
        raise NotWeightedOnb("tau_j must equal c_j x_j")
    eye = np.eye(fp.m, dtype=complex if fp.field == COMPLEX else float)
    M = eye - (fp.X * ((2.0 - weights) * weights)) @ fp.X.conj().T
    rep = spectral(M, tol)
    return bool(rep.is_hermitian and rep.is_psd)


def similarity_detect_by_inverse(fp, gq):
    """Txy = Y T^* S^-1 and Ttw = Omega X^* S^-1, checked with one global margin."""
    S = _require_frame(fp)
    _require_frame(gq)
    _check_shapes(fp, gq)
    Sinv = np.linalg.inv(S)
    Txy = gq.X @ fp.T.conj().T @ Sinv
    Ttw = gq.T @ fp.X.conj().T @ Sinv
    tol = fp.tol
    if smallest_singular_value(Txy) <= tol.abs_tol or smallest_singular_value(Ttw) <= tol.abs_tol:
        return None
    if not (tol.mat_close(Txy @ fp.X, gq.X) and tol.mat_close(Ttw @ fp.T, gq.T)):
        return None
    return SimilarityTransforms(Txy, Ttw)


# --- coefficient-space forms the m x m quantities replaced ---------------------------
#
# For N > m the library decides the Riesz and orthonormal verdicts by the
# rank of the N x N products, takes the double sum as tr(S^2) and takes one
# S^-1 for both canonical duals.  These build the N x N matrices and solve
# once per family, as the library did before.


def classify_by_idempotent(fp):
    """(riesz_frame, orthonormal_frame, cross_gram) from P = X^* S^-1 T and T^* X."""
    S = frame_operator(fp)
    report = frame_flags(S, fp.tol)
    if not report.is_frame:
        raise NotAFrame("operation requires a frame")
    P = fp.X.conj().T @ np.linalg.solve(S, fp.T)
    gram = fp.T.conj().T @ fp.X
    return fp.tol.is_identity(P), report.parseval and fp.tol.is_identity(gram), gram


def verify_ovf_by_idempotent(op):
    """(riesz_ovf, orthonormal_ovf) with riesz_ovf from the N x N idempotent."""
    S = op.theta_Psi.conj().T @ op.theta_A
    report = frame_flags(S, op.tol)
    riesz = bool(report.is_frame
                 and op.tol.is_identity(op.theta_A @ np.linalg.solve(S, op.theta_Psi.conj().T)))
    d = set(op.codims)
    orthonormal = bool(riesz and report.parseval and len(d) == 1
                       and cross_identities_by_pairs(op.A, op.Psi, op.tol))
    return riesz, orthonormal


def double_sum_by_gram(fp):
    """sum_jk <tau_j, x_k><tau_k, x_j> from the n x n Gram G = X^* T."""
    G = fp.X.conj().T @ fp.T
    return complex(np.sum(G * G.T))


def canonical_dual_by_solves(fp):
    """(S^-1 X, S^-1 T), one solve per family."""
    S = _require_frame(fp)
    return FramePair(np.linalg.solve(S, fp.X), np.linalg.solve(S, fp.T), fp.field, fp.tol)


def parsevalize_split_by_inverse_root(fp):
    """(R^-1 X, R^-1 T) for R = herm_sqrt(S), gated by frame_flags."""
    S = _require_frame(fp)
    Rinv = np.linalg.inv(herm_sqrt(S, fp.tol))
    return FramePair(Rinv @ fp.X, Rinv @ fp.T, fp.field, fp.tol)


def extend_tight_minimal_by_flags(fp):
    """extend_tight_minimal gated by frame_flags, then an eigh of the same S."""
    if not fp.tol.mat_close(fp.X, fp.T):
        raise NotSelfPair("minimal extension needs x_j = tau_j")
    S = frame_operator(fp)
    if not frame_flags(S, fp.tol).is_frame:
        raise NotAFrame("minimal extension starts from a frame")
    w, V = np.linalg.eigh(0.5 * (S + S.conj().T))
    top = float(w[-1])
    cols = [np.sqrt(top - float(lam)) * v for lam, v in zip(w, V.T)
            if top - float(lam) > fp.tol.margin(top)]
    if not cols:
        return fp
    extra = np.column_stack(cols)
    return FramePair(np.hstack([fp.X, extra]), np.hstack([fp.T, extra]), fp.field, fp.tol)


def tensor_ovf_by_members(op1, op2):
    """Members A_j (x) B_l indexed (j, l) row-major, one kron per member pair."""
    A = [np.kron(Aj, Bl) for Aj in op1.A for Bl in op2.A]
    Psi = [np.kron(Pj, Fl) for Pj in op1.Psi for Fl in op2.Psi]
    field = op1.field if op1.field == op2.field else COMPLEX
    return OvfPair(tuple(A), tuple(Psi), field, op1.tol)


def compose_ovf_by_members(outer, inner):
    """Members B_l A_j indexed (l, j) outer-major, one product per member pair."""
    if inner.d is None or outer.m != inner.d:
        raise ShapeMismatch("inner codomain must equal outer domain")
    A = [Bl @ Aj for Bl in outer.A for Aj in inner.A]
    Psi = [Fl @ Pj for Fl in outer.Psi for Pj in inner.Psi]
    field = outer.field if outer.field == inner.field else COMPLEX
    return OvfPair(tuple(A), tuple(Psi), field, inner.tol)


# --- forms the shared bodies and the m x m groupings replaced -------------------------


def duality_relation_by_sum_scale(op1, op2):
    """(dual, orthogonal), the zero tests scaled by max(entry_max(sum1), entry_max(sum2), 1)."""
    sum1 = op2.theta_Psi.conj().T @ op1.theta_A
    sum2 = op2.theta_A.conj().T @ op1.theta_Psi
    tol = op1.tol
    scale = max(entry_max(sum1), entry_max(sum2), 1.0)
    dual = tol.is_identity(sum1) and tol.is_identity(sum2)
    return dual, tol.is_zero(sum1, scale) and tol.is_zero(sum2, scale)


def make_dual_from_params_by_cross(fp, U, V):
    """make_dual_from_params through the n x n products T^* S^-1 X and X^* S^-1 T."""
    S = _require_frame(fp)
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != (fp.m, fp.n) or V.shape != (fp.m, fp.n):
        raise ShapeMismatch("U and V must be m x n")
    Sinv = np.linalg.inv(S)
    SiX = Sinv @ fp.X
    SiT = Sinv @ fp.T
    Y = SiX + V - V @ (fp.T.conj().T @ SiX)
    Om = SiT + U - U @ (fp.X.conj().T @ SiT)
    cross = fp.X.conj().T @ Sinv @ fp.T
    W = Sinv + U @ V.conj().T - U @ cross @ V.conj().T
    rep = spectral(W, fp.tol)
    if not (rep.is_hermitian and rep.is_pd):
        raise ParamNotAdmissible("parameters fail the positivity/invertibility condition")
    field = infer_field(Y, Om) if fp.field == REAL else fp.field
    return FramePair(Y, Om, field, fp.tol)


def matrix_out_by_scalars(M, field):
    """The io writer's nested lists, built one scalar at a time."""
    def scalar(z):
        if field == COMPLEX:
            z = complex(z)
            return [z.real, z.imag]
        return float(np.real(z))

    return [[scalar(z) for z in np.asarray(row).ravel()] for row in np.asarray(M)]


def matrix_in_by_scalars(rows, field):
    """The io reader's array, decoded one scalar at a time."""
    def scalar(obj):
        if field == COMPLEX:
            if not (isinstance(obj, list) and len(obj) == 2):
                raise ValueError("complex scalars are [re, im] pairs")
            return complex(float(obj[0]), float(obj[1]))
        return float(obj)

    data = [[scalar(z) for z in row] for row in rows]
    return np.asarray(data, dtype=complex if field == COMPLEX else float)


# --- the spectral gates written out per element -------------------------------------
#
# numerics now holds each spectral rule once, vectorised.  These are the
# per-element forms the verdicts used before, kept as their oracles.


def cut_distance(lam):
    """Distance of a point from the closed ray (-inf, 0]."""
    lam = complex(lam)
    if lam.real <= 0.0:
        return abs(lam.imag)
    return abs(lam)


def resolvent_clear_by_eigvals(S, tol):
    """p_verify's resolvent gate from its own eigvals: every eigenvalue farther than abs_tol from the cut."""
    return all(cut_distance(v) > tol.abs_tol for v in np.linalg.eigvals(S))


def first_misaligned_by_spectral(T, Y, tol):
    """First member j whose tau_j y_j^* fails spectral's Hermitian psd verdict, or None."""
    for j in range(T.shape[1]):
        rep = spectral(np.outer(T[:, j], Y[:, j].conj()), tol)
        if not (rep.is_hermitian and rep.is_psd):
            return j
    return None
