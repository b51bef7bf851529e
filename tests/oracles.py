"""Independent cross-check routines used by the tests only.

Eigenvalues here are found through the characteristic polynomial
(Faddeev-LeVerrier coefficients, Durand-Kerner root iteration), a path
disjoint from the library's eigendecompositions.  The second half keeps
the per-element loops that the library's batched routines replaced.
"""

import dataclasses
import itertools

import numpy as np

from framekit.analysis import FormulasReport, PerturbCertificate, SpanCharacterization, _rank
from framekit.constructors import Representation, RepresentationSynthesis
from framekit.errors import (
    BadCoefficients,
    BadGroupTable,
    BadParams,
    CountMismatch,
    HypothesisFails,
    IdempotentNotProjection,
    LambdaTooSmall,
    NotAFrame,
    NotARepresentation,
    NotBessel,
    NotInvariant,
    NotOrthogonal,
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
    _as_matrix,
    _check_shapes,
    _frame_flags,
    _shared_range_basis,
    frame_flags,
    frame_operator,
    infer_field,
    is_orthogonal,
    range_basis,
    verify,
)
from framekit.numerics import (
    Tolerance,
    _gaussian_rows,
    _hermitian,
    _hermitian_eig,
    _lp_norm,
    _lp_norms,
    _pd,
    entry_max,
    herm_sqrt,
    hermitian_part,
    opnorm2,
    spectral,
)
from framekit.ovf import OvfPair


def smallest_singular_value(A) -> float:
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[-1])


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


def full_svd_upper(M):
    """The p = 2 upper end as pnorm_estimate reads it: the largest singular
    value of the full SVD that also gives its singular-vector witness.  The
    oracles above and below take it from opnorm2's values-only SVD, as the
    library did before; the two differ by a few eps at most."""
    M = np.asarray(M)
    return float(np.linalg.svd(M)[1][0]) if M.size else 0.0


def sign_patterns(n):
    """All 2^n vectors of +-1 as the rows of a 2^n x n array, built on every call.

    Row k has +1 in column j exactly when bit j of k is set.
    """
    bits = np.arange(2**n)[:, None] >> np.arange(n)
    bits &= 1
    signs = bits.astype(float)
    signs *= 2.0
    signs -= 1.0
    return signs


def pnorm_estimate_by_all_signs(M, p, samples=200, seed=0, half=False):
    """(lower, upper) of numerics.pnorm_estimate with all 2^cols sign patterns as
    witnesses (cols <= 12), where the library keeps the half ending in +1.

    With half, the witnesses are that half, built and normalised row by row
    on every call, as the library did before it cached the table.
    """
    M = np.asarray(M)
    cols = M.shape[1]
    absM = np.abs(M)
    norm1 = float(absM.sum(axis=0).max()) if M.size else 0.0
    norminf = float(absM.sum(axis=1).max()) if M.size else 0.0
    if p == 2:
        upper = opnorm2(M)
    elif norm1 == 0.0 or norminf == 0.0:
        upper = 0.0
    else:
        upper = norm1 ** (1.0 / p) * norminf ** (1.0 - 1.0 / p)
    witnesses = [_lp_norms(M.T, p)]
    if cols <= 12:
        signs = sign_patterns(cols)
        signs = signs[(1 << cols) >> 1:] if half else signs
        witnesses.append(normalized_images_by_loop(M, signs, p))
    witnesses.append(normalized_images_by_loop(M, np.linalg.svd(M)[2][:1].conj(), p))
    draws = _gaussian_rows(np.random.default_rng(seed), samples, cols, np.iscomplexobj(M))
    witnesses.append(normalized_images_by_loop(M, draws, p))
    lower = max(float(w.max(initial=0.0)) for w in witnesses)
    return min(lower, upper), upper


def normalized_images_by_loop(M, C, p):
    """||M (c / ||c||_p)||_p for every row c of C with ||c||_p > 0, one
    matrix-vector product per candidate; c is cast to M's dtype before it
    is scaled, as the library does."""
    norms = []
    for c in C:
        nc = _lp_norm(c, p)
        if nc > 0.0:
            norms.append(_lp_norm(M @ (np.asarray(c, dtype=M.dtype) / nc), p))
    return np.asarray(norms, dtype=float)


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
        for h in range(n):
            if np.any(mul[mul[g, h], :] != mul[g, mul[h, :]]):
                raise BadGroupTable("table is not associative")


def closure_by_words(mul, e, generators):
    """The elements reached from e by right multiplication by the
    generators, one product at a time: every product of generators."""
    closure, frontier = {int(e)}, [int(e)]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = int(mul[x, g])
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return closure


def greedy_generators_by_words(mul, e):
    """The greedy generating set of a group table: each generator is the
    first element outside the products of the earlier ones."""
    generators, closure = [], {int(e)}
    while len(closure) < len(mul):
        generators.append(min(set(range(len(mul))) - closure))
        closure = closure_by_words(mul, e, generators)
    return generators


def left_translation_by_loop(mul, g):
    n = mul.shape[0]
    L = np.zeros((n, n))
    for q in range(n):
        L[mul[g, q], q] = 1.0
    return L


def check_representation_by_products(mul, mats, tol):
    """Unitarity of every matrix, then the group law on every dense product."""
    m = mats[0].shape[0] if mats[0].ndim else 0  # a 0-d first matrix fails the shape test below
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


def orbit_by_products(mats, v):
    """The matrix whose column g is mats[g] @ v, one product per element."""
    return np.column_stack([M @ v for M in mats])


def check_group_invariance_by_loops(fp, g):
    """All three Gram invariances, one Gram and one group element at a time."""
    if fp.n != g.order:
        raise CountMismatch("pair count must equal the group order")
    tol = fp.tol
    grams = (fp.X.conj().T @ fp.X, fp.T.conj().T @ fp.X, fp.T.conj().T @ fp.T)
    for G in grams:
        scale = entry_max(G)
        for gg in range(g.order):
            perm = g.mul[gg, :]
            if entry_max(G[np.ix_(perm, perm)] - G) > tol.margin(scale):
                return False
    return True


def synthesize_representation_by_loops(fp, g):
    """pi_g = T lambda_g X^* with the dense left translation lambda_g, and
    pi_reproduces by one pair of products per element."""
    if not verify(fp).parseval:
        raise not_parseval_by_rules(fp.theta_A.shape[0], frame_operator(fp), fp.tol,
                                    "synthesis needs a Parseval pair")
    if not check_group_invariance_by_loops(fp, g):
        raise NotInvariant("pair is not group invariant")
    mats = tuple(fp.T @ left_translation_by_loop(g.mul, idx) @ fp.X.conj().T for idx in range(g.order))
    rep = Representation(g, mats, fp.tol)
    e = g.identity
    ok = all(fp.tol.mat_close(rep.mats[idx] @ fp.X[:, e], fp.X[:, idx])
             and fp.tol.mat_close(rep.mats[idx] @ fp.T[:, e], fp.T[:, idx])
             for idx in range(g.order))
    return RepresentationSynthesis(rep, ok)


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


def margin_by_generator(tol, *scales):
    """Tolerance.margin with its scale taken by a generator."""
    scale = max((abs(float(s)) for s in scales), default=0.0)
    return tol.abs_tol + tol.rel_tol * scale


def hermitian_by_adjoint_copies(M, tol):
    """The Hermitian rule on a matrix or a stack, forming M^* with np.swapaxes."""
    dev = np.abs(M - np.swapaxes(M, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    return dev <= tol.abs_tol + tol.rel_tol * np.abs(M).max(axis=(-2, -1), initial=0.0)


def psd_by_first_column(w, tol):
    """The psd rule on ascending eigenvalues w (..., k), lambda_min read as w[..., 0]."""
    return w is not None and (w.shape[-1] == 0 or w[..., 0] >= -tol.abs_tol)


def pd_by_first_column(w, tol):
    """The pd rule on ascending eigenvalues w (..., k), lambda_min read as w[..., 0]."""
    return w is not None and w.shape[-1] > 0 and w[..., 0] > tol.abs_tol


def frame_flags_by_every_rule(S, tol):
    """Frame verdict that runs every rule: invertible from |lambda|, or from one
    SVD of a non-Hermitian S, also when the pd rule has passed."""
    w = None
    if hermitian_by_adjoint_copies(S, tol):
        w = np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, -1, -2).conj()))
    psd, is_frame = bool(psd_by_first_column(w, tol)), bool(pd_by_first_column(w, tol))
    a, b = (float(w[0]), float(w[-1])) if is_frame else (0.0, 0.0)
    tight = is_frame and (b - a) <= margin_by_generator(tol, b)
    parseval = tight and abs(b - 1.0) <= margin_by_generator(tol, 1.0, b)
    s = np.linalg.svd(S, compute_uv=False) if w is None else np.abs(w)
    invertible = bool(s.size) and float(s.min()) > tol.abs_tol
    return FrameReport(w is not None, psd, invertible, psd, is_frame, a, b, tight, parseval)


def pair_flags_by_every_rule(pair, S, tol):
    """frame_flags_by_every_rule(S, tol) for the S of a pair with N stacked rows.

    For N < m, rank S <= N < m: S is singular and no frame's, whatever its
    rounded spectrum says, so only the self-adjoint, psd and Bessel flags
    stay.
    """
    report = frame_flags_by_every_rule(S, tol)
    if pair.theta_A.shape[0] >= S.shape[0]:
        return report
    return FrameReport(report.self_adjoint, report.psd, False, report.is_bessel, False,
                       0.0, 0.0, False, False)


def failed_frame_rule(rows, S, tol):
    """(reason, w): the first frame rule that an S of rows stacked rows fails
    with its numbers, the count, the Hermitian rule (adjoint copies) or the
    pd rule on eigvalsh's lambda_min; else (None, eigvalsh's spectrum)."""
    if rows < S.shape[0]:
        return f"N = {rows} stacked rows < m = {S.shape[0]}", None
    if not hermitian_by_adjoint_copies(S, tol):
        deviation = float(np.abs(S - S.conj().T).max())
        margin = float(margin_by_generator(tol, np.abs(S).max()))
        return f"S not Hermitian: deviation {deviation!r} > margin {margin!r}", None
    w = np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    if w.size == 0:
        return "S is 0 x 0", w
    if not w[0] > tol.abs_tol:
        return f"lambda_min {float(w[0])!r} <= abs_tol {tol.abs_tol!r}", w
    return None, w


def not_a_frame_by_rules(pair, S, message):
    """NotAFrame(message) naming the first frame rule the pair's S fails."""
    return NotAFrame(f"{message}: {failed_frame_rule(pair.theta_A.shape[0], S, pair.tol)[0]}")


def not_parseval_by_rules(rows, S, tol, message):
    """NotParseval(message) naming the first rule of a Parseval verdict that
    an S of rows stacked rows fails: a frame rule, then on eigvalsh's ends
    a <= b the tight rule, b - a against the margin at b, and the unit
    rule, |b - 1| against the margin at max(1, b)."""
    reason, w = failed_frame_rule(rows, S, tol)
    if reason is None:
        a, b = float(w[0]), float(w[-1])
        margin = margin_by_generator(tol, b)
        if not b - a <= margin:
            reason = f"b - a = {b - a!r} > margin {margin!r}"
        else:
            reason = f"|b - 1| = {abs(b - 1.0)!r} > margin {margin_by_generator(tol, 1.0, b)!r}"
    return NotParseval(f"{message}: {reason}")


def tight_flags_by_eigenvalues(pair):
    """(tight, parseval, b) of a pair by the eigenvalue rules alone: the count,
    the Hermitian rule, and the pd, tight and unit rules on one eigvalsh of
    its whole Hermitian part (b is 0.0 for a pair that is no frame).  The
    reference of every verdict that reads a bound only from a tight pair."""
    S = frame_operator(pair)
    tol = pair.tol
    reason, w = failed_frame_rule(pair.theta_A.shape[0], S, tol)
    if reason is not None:
        return False, False, 0.0
    a, b = float(w[0]), float(w[-1])
    tight = b < np.inf and b - a <= margin_by_generator(tol, b)
    return tight, tight and abs(b - 1.0) <= margin_by_generator(tol, 1.0, b), b


def formulas_report_by_eigenvalues(fp):
    """analysis.formulas_report with its tight and Parseval verdicts from
    tight_flags_by_eigenvalues; the sums are formed as the library forms them."""
    tight, parseval, b = tight_flags_by_eigenvalues(fp)
    S = frame_operator(fp)
    diag = np.einsum("ji,ji->j", fp.theta_Psi, fp.theta_A.conj())
    sum_inner = complex(diag.sum())
    double_sum = complex(np.sum(S * S.T))
    tol = fp.tol
    variation_ok = dim_ok = equal_b = equal_ok = None
    if tight:
        target = sum_inner**2 / fp.m
        variation_ok = bool(abs(double_sum - target) <= tol.margin(abs(double_sum), abs(target)))
        if float(np.abs(diag - diag[0]).max()) <= tol.margin(float(np.abs(diag).max())):
            equal_b = b * fp.m / fp.n
            equal_ok = bool(abs(equal_b - diag[0]) <= tol.margin(equal_b, abs(diag[0])))
    if parseval:
        dim_ok = bool(abs(sum_inner - fp.m) <= tol.margin(fp.m))
    return FormulasReport(complex(np.trace(S)), sum_inner, complex(np.einsum("ab,ba->", S, S)),
                          double_sum, variation_ok, dim_ok, equal_b, equal_ok)


def require_frame_by_eigenvalues(pair, message="operation requires a frame"):
    """S of a pair that must be a frame, decided by the eigenvalue rules alone:
    the count, the Hermitian rule and lambda_min > abs_tol from one eigvalsh.
    This is the gate the library ran before its Cholesky certificate, and the
    reference every "frame required" verdict is checked against."""
    S = frame_operator(pair)
    if not pair_flags_by_every_rule(pair, S, pair.tol).is_frame:
        raise not_a_frame_by_rules(pair, S, message)
    return S


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
        raise not_parseval_by_rules(fp.theta_A.shape[0], frame_operator(fp), tol,
                                    "dilation starts from a Parseval pair")
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


def dilation_rows_by_complete_qr(theta_A, theta_Psi, S, tol,
                                 message="theta_A and theta_Psi must have equal ranges"):
    """frames._dilation_rows as it was before the compact WY complement:
    P P - P formed as an N x N x N product, Qperp from a complete QR, and
    the rows Qperp^* P_perp."""
    if not _frame_flags(S, tol).parseval:
        raise not_parseval_by_rules(theta_A.shape[0], S, tol, "dilation starts from a Parseval pair")
    Q = _shared_range_basis(theta_A, theta_Psi, tol)
    if Q is None:
        raise RangesDiffer(message)
    P = theta_A @ theta_Psi.conj().T
    if not _hermitian(P, tol) or entry_max(P @ P - P) > tol.margin(entry_max(P)):
        raise IdempotentNotProjection("frame idempotent is not an orthogonal projection")
    Pperp = np.eye(theta_A.shape[0], dtype=P.dtype) - hermitian_part(P)
    Qperp = np.linalg.qr(Q, mode="complete")[0][:, Q.shape[1]:]
    return Qperp.conj().T @ Pperp


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
    S = require_frame_by_eigenvalues(fp)
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
    S = require_frame_by_eigenvalues(fp)
    require_frame_by_eigenvalues(gq)
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
        raise not_a_frame_by_rules(fp, S, "operation requires a frame")
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
    S = require_frame_by_eigenvalues(fp)
    return FramePair(np.linalg.solve(S, fp.X), np.linalg.solve(S, fp.T), fp.field, fp.tol)


def parsevalize_split_by_inverse_root(fp):
    """(R^-1 X, R^-1 T) for R = herm_sqrt(S), gated by frame_flags."""
    S = require_frame_by_eigenvalues(fp)
    Rinv = np.linalg.inv(herm_sqrt(S, fp.tol))
    return FramePair(Rinv @ fp.X, Rinv @ fp.T, fp.field, fp.tol)


def extend_tight_minimal_by_flags(fp):
    """extend_tight_minimal gated by frame_flags, then an eigh of the same S."""
    if not fp.tol.mat_close(fp.X, fp.T):
        raise NotSelfPair("minimal extension needs x_j = tau_j")
    S = frame_operator(fp)
    if not frame_flags(S, fp.tol).is_frame:
        raise not_a_frame_by_rules(fp, S, "minimal extension starts from a frame")
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
    S = require_frame_by_eigenvalues(fp)
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


# --- the column forms of bodies that now read the stacked operators ------------------
#
# Each is the library's body as it read X, T and the columns Y before it
# read theta_A = X^* and theta_Psi = T^*.  Where the stacked form takes a
# norm or an SVD in the other orientation, or promotes a real part to
# complex before the conjugate instead of after, these keep the former bits.


def perturbation_certificate_by_columns(fp, Y, kind, alpha=0.0, beta=0.0, gamma=0.0,
                                        samples=1000, seed=0):
    """The four perturbation certificates on X, T and Y as m x n columns.

    ||X|| and ||T|| come from the SVDs of the m x n columns, the alignment
    from first_misaligned_by_spectral and the sampled verdicts from
    first_falsifying_sample.
    """
    S = require_frame_by_eigenvalues(fp, "perturbation certificates start from a frame")
    X, T, tol = fp.X, fp.T, fp.tol
    Y = np.asarray(Y)
    if Y.shape != (fp.m, fp.n):
        raise ShapeMismatch("perturbed family must be m x n")
    Sinv = np.linalg.inv(S)
    if kind in ("quadratic", "normsum"):
        aligned = first_misaligned_by_spectral(T, Y, tol) is None
        diffs = np.linalg.norm(X - Y, axis=0)
        if kind == "quadratic":
            total = float(diffs @ np.linalg.norm(Sinv @ T, axis=0))
            hypothesis = aligned and total < 1.0
            lower = (1.0 - total) / opnorm2(Sinv)
            upper = opnorm2(T) * (np.sqrt(float(np.sum(diffs**2))) + opnorm2(X))
        else:
            r = float(np.sum(diffs**2))
            theta_tau_Sinv = opnorm2(T.conj().T @ Sinv)
            hypothesis = aligned and r < 1.0 / theta_tau_Sinv**2
            lower = (1.0 - np.sqrt(r) * theta_tau_Sinv) / opnorm2(Sinv)
            upper = opnorm2(T) * (opnorm2(X) + np.sqrt(r))
    else:
        if min(alpha, beta, gamma) < 0:
            raise BadParams("coefficients must be nonnegative")
        report = verify(fp)
        a, b = report.lower_a, report.upper_b
        if kind == "sampled_linear":
            gate = alpha + gamma * opnorm2(T.conj().T @ Sinv)
            if max(gate, beta) >= 1.0:
                raise BadParams("need max(alpha + gamma ||theta_tau S^-1||, beta) < 1")
            lower = (1.0 - gate) / ((1.0 + beta) * opnorm2(Sinv))
            upper = opnorm2(T) * ((1.0 + alpha) * opnorm2(X) + gamma) / (1.0 - beta)
        elif kind == "sampled_bessel":
            if max(alpha + gamma / np.sqrt(a), beta) >= 1.0:
                raise BadParams("need max(alpha + gamma / sqrt(a), beta) < 1")
            lower = a * (1.0 - (alpha + beta + gamma / np.sqrt(a)) / (1.0 + beta)) ** 2
            upper = b * (1.0 + (alpha + beta + gamma / np.sqrt(b)) / (1.0 - beta)) ** 2
        else:
            raise ValueError(f"unknown sampling kind {kind!r}")
        hypothesis = first_falsifying_sample(X, T, Y, alpha, beta, gamma, samples, seed,
                                             kind == "sampled_linear", fp.field == COMPLEX,
                                             tol) is None
    field = COMPLEX if (fp.field == COMPLEX or np.iscomplexobj(Y)) else REAL
    actual = verify(FramePair(Y, T, field, tol))
    return PerturbCertificate(kind, bool(hypothesis), float(lower), float(upper),
                              actual.lower_a, actual.upper_b)


def direct_sum_by_columns(fp, gq):
    """(x_j + y_j, tau_j + omega_j): the columns stacked, then conjugated into a new pair."""
    if fp.n != gq.n:
        raise CountMismatch(f"counts differ: {fp.n} vs {gq.n}")
    field = fp.field if fp.field == gq.field else COMPLEX
    return FramePair(np.vstack([fp.X, gq.X]), np.vstack([fp.T, gq.T]), field, fp.tol)


def common_dual_by_columns(fp, gq):
    """(S_fp^-1 x_j + S_gq^-1 y_j), by solves against the columns."""
    S1, S2 = require_frame_by_eigenvalues(fp), require_frame_by_eigenvalues(gq)
    if not is_orthogonal(fp, gq):
        raise NotOrthogonal("common dual needs orthogonal frames")
    Z = np.linalg.solve(S1, fp.X) + np.linalg.solve(S2, gq.X)
    R = np.linalg.solve(S1, fp.T) + np.linalg.solve(S2, gq.T)
    return FramePair(Z, R, fp.field if fp.field == gq.field else COMPLEX, fp.tol)


def interpolate_parseval_by_columns(fp, gq, A, B, C, D):
    """({A x_j + B y_j}, {C tau_j + D omega_j}), the coefficients applied to the columns."""
    _check_shapes(fp, gq)
    for k, pair in enumerate((fp, gq), 1):
        if not verify(pair).parseval:
            raise not_parseval_by_rules(pair.theta_A.shape[0], frame_operator(pair), pair.tol,
                                        f"both pairs must be Parseval: pair {k}")
    if not is_orthogonal(fp, gq):
        raise NotOrthogonal("pairs must be orthogonal")
    A, B, C, D = (np.asarray(M) for M in (A, B, C, D))
    if not fp.tol.is_identity(A @ C.conj().T + B @ D.conj().T):
        raise BadCoefficients("A C^* + B D^* must be the identity")
    X = A @ fp.X + B @ gq.X
    T = C @ fp.T + D @ gq.T
    return FramePair(X, T, infer_field(X, T) if fp.field == REAL == gq.field else COMPLEX, fp.tol)


def make_dual_from_params_by_columns(fp, U, V):
    """make_dual_from_params on the columns X and T, with its m x m groupings."""
    S = require_frame_by_eigenvalues(fp)
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != (fp.m, fp.n) or V.shape != (fp.m, fp.n):
        raise ShapeMismatch("U and V must be m x n")
    Sinv = np.linalg.inv(S)
    SiX = Sinv @ fp.X
    SiT = Sinv @ fp.T
    UXSiT = (U @ fp.theta_A) @ SiT
    Y = SiX + V - (V @ fp.theta_Psi) @ SiX
    Om = SiT + U - UXSiT
    W = Sinv + U @ V.conj().T - UXSiT @ V.conj().T
    if not _pd(_hermitian_eig(W, fp.tol), fp.tol):
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


# --- the comparison kernels numerics' stack and member forms replaced -------------
#
# constructors kept its own stack forms of mat_close and is_identity; numerics
# now holds every comparison once (_members_close on reshaped stacks, and one
# |P - I| kernel behind _identities and Tolerance.is_identity).


def close_by_axes(A, B, tol, axes):
    """tol.mat_close of each pair of slices of A and B that `axes` spans:
    entry_max(A - B) against the margin of the larger entry_max."""
    def entry_maxes(S):
        return np.abs(S).max(axis=axes, initial=0.0)
    margins = tol.abs_tol + tol.rel_tol * np.maximum(entry_maxes(A), entry_maxes(B))
    return entry_maxes(A - B) <= margins


def identities_by_stack(P, tol):
    """tol.is_identity of each matrix of a stack (k, m, m)."""
    P = P.astype(np.result_type(P.dtype, np.float64), copy=False)
    dev = np.abs(P)
    scale = dev.max(axis=(1, 2), initial=0.0)
    diag = np.arange(P.shape[1])
    dev[:, diag, diag] = np.abs(np.diagonal(P, axis1=1, axis2=2) - 1.0)
    return dev.max(axis=(1, 2), initial=0.0) <= tol.abs_tol + tol.rel_tol * np.maximum(1.0, scale)


def members_close_by_loop(M, N, codims, tol):
    """tol.mat_close on each member's row block, one member at a time."""
    starts = np.cumsum((0,) + tuple(codims))
    return all(tol.mat_close(M[a:b], N[a:b]) for a, b in zip(starts[:-1], starts[1:]))


def project_line_l4_by_golden_section(x, y, tol, max_iterations):
    """project_line_l4's golden-section loop as it was, with no stop but the
    bracket width: (t_star, dist), or None after max_iterations iterations."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    phi = lambda t: _lp_norm(x - t * y, 4.0)
    bracket = 1.0 + 2.0 * _lp_norm(x, 4.0) / _lp_norm(y, 4.0)
    lo, hi = -bracket, bracket
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = phi(c), phi(d)
    for _ in range(max_iterations):
        if hi - lo <= tol.abs_tol:
            t_star = 0.5 * (lo + hi)
            return float(t_star), float(phi(t_star))
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = phi(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = phi(d)
    return None


class FramePairByColumns:
    """A vector pair stored as X and T, as frames.FramePair was before it
    stored the stacked view: each a frozen copy of the caller's array,
    theta_A = X^* and theta_Psi = T^* rebuilt on every read, and a pair a
    body builds conjugated back into columns and copied again (_stacked).
    The library's bodies accept it as they accept a FramePair."""

    def __init__(self, X, T, field, tol=Tolerance()):
        X, T = _as_matrix(X, field), _as_matrix(T, field)
        if X.shape != T.shape:
            raise ShapeMismatch(f"X {X.shape} and T {T.shape} must share shape")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("dimension and count must be positive")
        X.setflags(write=False)
        T.setflags(write=False)
        self.X, self.T, self.field, self.tol = X, T, field, tol

    @property
    def m(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def theta_A(self):
        return self.X.conj().T

    @property
    def theta_Psi(self):
        return self.T.conj().T

    @property
    def codims(self):
        return (1,) * self.n

    @classmethod
    def _stacked(cls, theta_A, theta_Psi, codims, tol):
        return cls(theta_A.conj().T, theta_Psi.conj().T, infer_field(theta_A, theta_Psi), tol)



def stock_twin(cls):
    """A framekit dataclass's fields under a stock @dataclass(frozen=True).

    The twin has the same qualname and the same fields, with their defaults
    and their init, repr, hash and compare flags, and dataclass generates
    its __init__, frozen guards, __eq__, __hash__ and __repr__, as it did
    for every framekit dataclass before they shared numerics._Frozen.
    """
    spec = [(f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory,
                                               init=f.init, repr=f.repr, hash=f.hash,
                                               compare=f.compare))
            for f in dataclasses.fields(cls)]
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin
