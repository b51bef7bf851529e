"""The frame gate of operations that report no bound.

From numerics._CERT_MIN rows, and for max |S| in [2^-500, 2^500], one
Cholesky of a shifted Hermitian part (numerics._pd_certified) may prove
lambda_min > abs_tol; a certificate that fails proves nothing, and the
eigenvalue rule decides.  So every verdict must equal the one the
eigenvalue rule alone gives (tests/oracles.py), on both sides of the gate
and on it; the certificate must never accept a matrix whose exact
lambda_min is at most t; and a NotAFrame names the rule that failed.
"""

from fractions import Fraction

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, OvfPair, Tolerance, frames, numerics
from framekit.errors import NotAFrame

import oracles
from conftest import random_matrix

TOLERANCES = (Tolerance(), Tolerance(0.0, 0.0), Tolerance(1e-6, 1e-6))


def rotated(rng, m, field):
    return np.linalg.qr(random_matrix(rng, m, m, field))[0]


def planted_lambda_min(rng, t, k):
    """lambda_min within a factor 3 of the gate t: below it, on it, above it.
    At t = 0 a factor says nothing, so the values straddle 0 from 1e-13 to 1e-10."""
    side = (-1.0, 0.0, 1.0)[k % 3]
    if t == 0.0:
        return side * 10.0 ** rng.uniform(-13.0, -10.0)
    return t * 3.0 ** (side * rng.uniform(0.0, 1.0))


def passes(call) -> bool:
    try:
        call()
    except NotAFrame:
        return False
    return True


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("tol", TOLERANCES)
def test_the_frame_gate_is_the_eigenvalue_gate_near_abs_tol(rng, field, tol):
    """100 pairs per field and tolerance, m = 12..40 and lambda_min planted
    at the gate: the gate equals verify's is_frame and the eigenvalue-only
    reference; the certificate decides most of those above the gate."""
    certified = fallback_passed = 0
    for k in range(100):
        m = int(rng.integers(numerics._CERT_MIN, 41))
        Q = rotated(rng, m, field)
        lam = rng.uniform(0.5, 2.5, m)
        lam[0] = planted_lambda_min(rng, tol.abs_tol, k)
        S = (Q * lam) @ Q.conj().T
        if k % 2 or tol.rel_tol == 0.0:  # the Hermitian rule at zero tolerance needs exactness
            S = 0.5 * (S + S.conj().T)
        fp = FramePair(np.eye(m), S, field, tol)  # frame operator T X^* = S
        gate = passes(lambda: frames._require_frame(fp))
        assert gate == fk.verify(fp).is_frame == passes(lambda: oracles.require_frame_by_eigenvalues(fp))
        H = 0.5 * (fk.frame_operator(fp) + fk.frame_operator(fp).conj().T)
        by_certificate = numerics._pd_certified(H, tol.abs_tol)
        assert not by_certificate or gate
        certified += by_certificate
        fallback_passed += gate and not by_certificate
    assert certified >= 15 and fallback_passed >= 1


@pytest.mark.parametrize("tol", TOLERANCES)
def test_weighted_holds_is_the_eigenvalue_psd_rule_near_its_gate(rng, tol):
    """The deficiency's lambda_min planted within a factor 3 of the psd gate
    -abs_tol: rows of a rotation scaled by sqrt(1 + delta), and Psi_0 =
    (1 + e) A_0 with weight 1, both within the identity margins, give
    lambda_0 = -(delta + e + delta e).  At zero tolerance the rows are a
    signed permutation, exactly orthonormal, and a weight 1 + sqrt(lambda)
    gives lambda_0 = lambda >= 0, 0 included."""
    t = tol.abs_tol
    certified = held = 0
    for k in range(100):
        field = "complex" if k % 2 and t > 0.0 else "real"
        m = int(rng.integers(numerics._CERT_MIN, 33))
        if t > 0.0:
            Q = rotated(rng, m, field).conj().T
        else:
            Q = np.eye(m)[rng.permutation(m)] * rng.choice([-1.0, 1.0], m)[:, None]
        lam = -planted_lambda_min(rng, t, k) if t > 0.0 else abs(planted_lambda_min(rng, t, k))
        weights = rng.uniform(0.2, 1.8, m)
        delta = e = 0.0
        if lam < 0.0:
            weights[0] = 1.0
            delta = e = -lam / 2.0
        else:
            weights[0] = 1.0 + np.sqrt(lam)
        theta_A = Q * np.sqrt(1.0 + delta * (np.arange(m) == 0))[:, None]
        theta_Psi = theta_A * weights[:, None]
        theta_Psi[0] = (weights[0] + e) * theta_A[0]
        op = OvfPair._stacked(theta_A, theta_Psi, (1,) * m, tol)
        result = fk.weighted_onb_bessel_check(op, weights)
        D = result.deficiency
        by_eigenvalues = bool(oracles.hermitian_by_adjoint_copies(D, tol)) and bool(
            oracles.psd_by_first_column(np.linalg.eigvalsh(0.5 * (D + D.conj().T)), tol))
        assert result.holds == by_eigenvalues
        certified += numerics._pd_certified(numerics.hermitian_part(D), -t)
        held += result.holds
    assert certified >= 25 and (held < 100 if t > 0.0 else held == 100)


def exact_blocks(rng, m, field, t, gap_ulps):
    """Hermitian H with an exactly known lambda_min(H) <= t, and that value.

    H is block diagonal in 2 x 2 blocks [[a, b], [conj(b), a]] (and a 1 x 1
    block [a] for odd m), whose eigenvalues are a +- |b| exactly:
    b = 2^j (3 + 4i) or 2^j 5, so |b| = 5 2^j.  Block 0 has the largest float
    a with a - |b| <= t, lowered by gap_ulps more ulps; the other blocks lie
    above t.  A signed permutation, exact, scrambles rows and columns.
    """
    dtype = complex if field == "complex" else float
    H = np.zeros((m, m), dtype=dtype)
    for i in range(0, m - 1, 2):
        unit = 2.0 ** int(rng.integers(-8, 3))
        size = 5.0 * unit
        b = unit * (3.0 + 4.0j) if field == "complex" else size
        a = size + t + (0.0 if i == 0 else rng.uniform(1e-3, 3.0) * size)
        if i == 0:
            while Fraction(a) - Fraction(size) > Fraction(t):
                a = np.nextafter(a, -np.inf)
            for _ in range(gap_ulps):
                a = np.nextafter(a, -np.inf)
            lowest = Fraction(a) - Fraction(size)
        H[i, i] = H[i + 1, i + 1] = a
        H[i, i + 1], H[i + 1, i] = b, np.conj(b)
    if m % 2:
        H[-1, -1] = t + rng.uniform(1e-3, 3.0)
    P = np.eye(m)[rng.permutation(m)] * rng.choice([-1.0, 1.0], m)[:, None]
    return P @ H @ P.T, lowest


def exact_rank_one(rng, m, field, t, gap_ulps):
    """Dense Hermitian H = (d - beta) I + beta v v^*, beta = -2^j < 0 and v of
    entries +-1 (+-i for a complex field), and its exact lambda_min
    d + (m - 1) beta <= t: every entry (d on the diagonal, +-beta or +-i beta
    off it) is a float, and d is the largest float with that lambda_min <= t,
    lowered by gap_ulps more ulps."""
    beta = -(2.0 ** int(rng.integers(-6, 3)))
    d = t - (m - 1) * beta
    while Fraction(d) + (m - 1) * Fraction(beta) > Fraction(t):
        d = np.nextafter(d, -np.inf)
    for _ in range(gap_ulps):
        d = np.nextafter(d, -np.inf)
    units = (1.0, -1.0, 1j, -1j) if field == "complex" else (1.0, -1.0)
    v = np.array(units)[rng.integers(0, len(units), m)]
    H = beta * np.outer(v, v.conj())
    H[np.diag_indices(m)] = d
    return H, Fraction(d) + (m - 1) * Fraction(beta)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_the_certificate_never_accepts_an_exact_lambda_min_at_or_below_t(rng, field):
    """Planted spectra known exactly, scaled by powers of two across the
    window; the same matrices are accepted for a t lowered by 1% of max |H|."""
    accepted = 0
    for k in range(240):
        m = int(rng.integers(numerics._CERT_MIN, 48))
        t = (1e-9, 0.0, 1e-6, -1e-9, -1e-6, -1.0, 0.5)[k % 7]
        planted = exact_rank_one if k % 2 else exact_blocks
        H, lowest = planted(rng, m, field, t, int(rng.integers(0, 4)))
        assert lowest <= Fraction(t)
        scale = 2.0 ** int(rng.integers(-400, 401))  # exact for these entries and t
        assert not numerics._pd_certified(H, t)
        assert not numerics._pd_certified(H * scale, t * scale)
        accepted += numerics._pd_certified(H, t - 1e-2 * np.abs(H).max())
    assert accepted == 240


@pytest.mark.parametrize("field", ["real", "complex"])
def test_the_certificate_restores_the_diagonal_it_shifts(rng, field):
    """The shift is formed in H's own diagonal, and H is left bit for bit as it was."""
    Q = rotated(rng, 16, field)
    H = numerics.hermitian_part((Q * rng.uniform(0.5, 2.5, 16)) @ Q.conj().T)
    before = H.copy()
    assert numerics._pd_certified(H, 0.25) and not numerics._pd_certified(H, 3.0)
    assert not numerics._pd_certified(H, np.nan)
    assert H.tobytes() == before.tobytes()


def test_the_certificate_proves_nothing_for_nan_or_huge_shifts():
    H = np.eye(numerics._CERT_MIN)
    for t in (np.nan, -np.inf, np.inf, -2.0**1001):
        assert not numerics._pd_certified(H, t)
    assert numerics._pd_certified(H, 0.5) and not numerics._pd_certified(H, 1.0)


# --- NotAFrame names the rule that failed -------------------------------------------

def test_not_a_frame_names_the_count():
    fp = FramePair(np.eye(3)[:, :2], np.eye(3)[:, :2], "real")
    message = "operation requires a frame: N = 2 stacked rows < m = 3"
    for call in (fk.canonical_dual, fk.classify, fk.parsevalize, fk.frame_idempotent):
        with pytest.raises(NotAFrame) as info:
            call(fp)
        assert str(info.value) == message
    with pytest.raises(NotAFrame) as info:
        fk.canonical_dual_ovf(fk.ovf_bridge(fp))
    assert str(info.value) == "operation requires an operator-valued frame: N = 2 stacked rows < m = 3"


def test_not_a_frame_names_an_empty_frame_operator():
    op = OvfPair((np.zeros((1, 0)),), (np.zeros((1, 0)),), "real")
    with pytest.raises(NotAFrame, match="^operation requires an operator-valued frame: S is 0 x 0$"):
        fk.canonical_dual_ovf(op)


@pytest.mark.parametrize("m", [3, 64])
def test_not_a_frame_names_the_hermitian_deviation_and_margin(rng, m):
    T = np.eye(m) + np.triu(0.01 * np.ones((m, m)), 1)  # S = T, not Hermitian
    fp = FramePair(np.eye(m), T, "real")
    S = fk.frame_operator(fp)
    deviation = float(np.abs(S - S.T).max())
    margin = 1e-9 + 1e-9 * float(np.abs(S).max())
    reason = f"S not Hermitian: deviation {deviation!r} > margin {margin!r}"
    for call, message in ((fk.canonical_dual, "operation requires a frame"),
                          (fk.classify, "operation requires a frame"),
                          (fk.parsevalize, "operation requires a frame"),
                          (lambda fp: fk.iterate_reconstruct(fp, np.ones(m), 2),
                           "reconstruction iterates on a frame")):
        with pytest.raises(NotAFrame) as info:
            call(fp)
        assert str(info.value) == f"{message}: {reason}"


@pytest.mark.parametrize("m", [3, 64])
def test_not_a_frame_names_lambda_min_and_abs_tol(rng, m):
    """A singular S, one zero row and column; from the rule's own eigenvalues."""
    X = random_matrix(rng, m, m + 4)
    X[-1] = 0.0
    fp = FramePair(X, X, "real")
    S = fk.frame_operator(fp)
    lam = float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])
    assert lam <= 1e-9
    message = f"operation requires a frame: lambda_min {lam!r} <= abs_tol 1e-09"
    for call in (fk.canonical_dual, fk.classify, fk.frame_idempotent):
        with pytest.raises(NotAFrame) as info:
            call(fp)
        assert str(info.value) == message
    with pytest.raises(NotAFrame, match=r"^operation requires a frame: lambda_min \S+ <= abs_tol 1e-09$"):
        fk.parsevalize(fp)  # from eigh's eigenvalues, which may differ in the last bits
