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
    NotARepresentation,
    TooManyVectors,
)
from framekit.numerics import _lp_norm, opnorm2, spectral


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


def span_by_enumeration(fp):
    """Frame test by exhausting the 2^n mixed selections in lexicographic order."""
    if fp.n > 20:
        raise TooManyVectors("selection enumeration is capped at n = 20")
    tol = fp.tol
    for j in range(fp.n):
        outer = np.outer(fp.T[:, j], fp.X[:, j].conj())
        rep = spectral(outer, tol)
        if not (rep.is_hermitian and rep.is_psd):
            raise HypothesisFails(f"member {j} violates the alignment/positivity hypothesis")
    for choice in itertools.product(("x", "tau"), repeat=fp.n):
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
