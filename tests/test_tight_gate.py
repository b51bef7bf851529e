"""Tightness verdicts that read no bound, and the Parseval gates' messages.

From numerics._CERT_MIN rows, and for max |S| in [2^-500, 2^500], the
diagonal of S's Hermitian part may prove a pair not tight
(numerics._not_tight_certified): its spread bounds b - a from below.  A
certificate that fails proves nothing, and the eigenvalue rule decides.
So formulas_report must equal the report its eigenvalue-only reference
builds (tests/oracles.py) on both sides of the tight margin, on it and far
above it; the certificate must never accept a spread that eigvalsh, within
its error model, could read as tight; and a NotParseval names the first
rule that failed.
"""

from fractions import Fraction

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, Tolerance, frames, numerics
from framekit.constructors import GroupTable
from framekit.errors import NotParseval

import oracles
from conftest import random_matrix

TOLERANCES = (Tolerance(), Tolerance(0.0, 0.0), Tolerance(1e-6, 1e-6))
U = Fraction(2) ** -53


def rotated(rng, m, field):
    return np.linalg.qr(random_matrix(rng, m, m, field))[0]


def signed_permutation(rng, m):
    return np.eye(m)[rng.permutation(m)] * rng.choice([-1.0, 1.0], m)[:, None]


def planted_spread(rng, margin, m, k):
    """b - a within a factor 3 of the tight margin (below it, on it, above it),
    or far above it, up to 30 m times the margin.  At margin 0 a factor says
    nothing, so the spreads run from 0 and 1e-16 up to 1e-10 instead."""
    side = k % 4
    if margin == 0.0:
        return 0.0 if side == 0 else 10.0 ** rng.uniform(-16.0, -10.0)
    if side == 3:
        return margin * 3.0 * m * 10.0 ** rng.uniform(0.0, 1.0)
    return margin * 3.0 ** ((side - 1) * rng.uniform(0.0, 1.0))


def planted_operator(rng, m, field, b, spread, family):
    """Hermitian S with extreme eigenvalues b - spread and b.

    rotated: a random unitary turns the spectrum, so the diagonal spreads
    less than the spectrum; aligned: both extremes sit on the diagonal and
    a random unitary turns the rest; equal_diagonal: (d - beta) I + beta v v^*
    with v of +-1 (+-i), whose diagonal is d throughout, so the certificate
    can never decide it.
    """
    a = b - spread
    if family == "equal_diagonal":
        beta = spread / m
        units = (1.0, -1.0, 1j, -1j) if field == "complex" else (1.0, -1.0)
        v = np.array(units)[rng.integers(0, len(units), m)]
        S = beta * np.outer(v, v.conj())
        S[np.diag_indices(m)] = b - (m - 1) * beta
        return S
    lam = np.concatenate([[a, b], rng.uniform(a, b, m - 2)])
    if family == "rotated":
        Q = rotated(rng, m, field)
        return numerics.hermitian_part((Q * lam) @ Q.conj().T)
    S = np.zeros((m, m), dtype=complex if field == "complex" else float)
    S[0, 0], S[1, 1] = a, b
    Q = rotated(rng, m - 2, field)
    S[2:, 2:] = numerics.hermitian_part((Q * lam[2:]) @ Q.conj().T)
    P = signed_permutation(rng, m)
    return P @ S @ P.T


FAMILIES = ("rotated", "aligned", "equal_diagonal")


def certified(fp) -> bool:
    """Whether numerics._not_tight_certified decides the pair, where it applies."""
    S, scale = frames._frame_operator_scale(fp)
    H = numerics._checked_hermitian_part(S, fp.tol, scale)
    return (H is not None and numerics._certifiable(H, scale)
            and numerics._not_tight_certified(H, scale, fp.tol))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("tol", TOLERANCES)
def test_formulas_report_is_the_eigenvalue_report_near_the_tight_margin(rng, field, tol):
    """120 pairs per field and tolerance, m = 12..40, b - a planted at the
    tight margin of b and far above it, every fifth pair scaled by 2^-400
    or 2^400: every field of formulas_report equals the reference's, and
    the certificate decides only pairs the reference calls not tight."""
    decided = tight = fell_back = 0
    for k in range(120):
        m = int(rng.integers(numerics._CERT_MIN, 41))
        family = FAMILIES[k % 3]
        b = rng.uniform(0.5, 2.5)
        S = planted_operator(rng, m, field, b, planted_spread(rng, tol.margin(b), m, k // 3), family)
        if k % 5 == 4:
            S = S * 2.0 ** (400 if k % 10 == 4 else -400)
        fp = FramePair(np.eye(m), S, field, tol)  # frame operator T X^* = S
        assert fk.formulas_report(fp) == oracles.formulas_report_by_eigenvalues(fp)
        is_tight = oracles.tight_flags_by_eigenvalues(fp)[0]
        by_certificate = certified(fp)
        assert not (by_certificate and is_tight)
        assert not (by_certificate and family == "equal_diagonal")
        decided += by_certificate
        tight += is_tight
        fell_back += not (by_certificate or is_tight)
    assert decided >= 10 and tight >= 5 and fell_back >= 10


def exact_spectrum(rng, m, field, a, b):
    """Hermitian H whose exact extreme eigenvalues are the floats a < b, both on
    its diagonal.  The rest are diagonal entries in [a, b] and 2 x 2 blocks
    [[alpha, beta], [conj(beta), alpha]], alpha +- |beta| within [a, b] exactly
    (|beta| = 5 2^j), under a signed permutation, which is exact."""
    dtype = complex if field == "complex" else float
    H = np.zeros((m, m), dtype=dtype)
    H[0, 0], H[1, 1] = a, b
    i = 2
    while i < m:
        alpha = rng.uniform(a, b)
        j = np.frexp((b - a) / 16.0)[1] - 1 if b > a else 0
        beta = 2.0**j * (3.0 + 4.0j if field == "complex" else 5.0)
        inside = (Fraction(a) <= Fraction(alpha) - 5 * Fraction(2.0**j)
                  and Fraction(alpha) + 5 * Fraction(2.0**j) <= Fraction(b))
        if i + 1 < m and inside:
            H[i, i] = H[i + 1, i + 1] = alpha
            H[i, i + 1], H[i + 1, i] = beta, np.conj(beta)
            i += 2
        else:
            H[i, i] = min(max(alpha, a), b)
            i += 1
    P = signed_permutation(rng, m)
    return P @ H @ P.T


def model_allowance(tol, m, b):
    """The largest b - a that an eigvalsh within m u ||H||_2 of the exact
    eigenvalues, ||H||_2 = b, may still read as tight: the margin at the
    largest b it may return, plus twice its error."""
    norm = Fraction(b)
    return (Fraction(tol.abs_tol) + Fraction(tol.rel_tol) * (norm + m * U * norm)
            + 2 * m * U * norm)


def lowest_with_spread_at_most(b, spread):
    """The smallest float a with b - a <= spread, exactly."""
    a = float(Fraction(b) - spread)
    while Fraction(b) - Fraction(a) > spread:
        a = np.nextafter(a, np.inf)
    return a


@pytest.mark.parametrize("field", ["real", "complex"])
def test_the_certificate_never_accepts_a_spread_eigvalsh_may_read_as_tight(rng, field):
    """Spectra known exactly, b - a at or below what eigvalsh may still read
    as tight, also scaled by powers of two with abs_tol: never accepted.
    Such spectra with b - a at 2 m times that allowance: always accepted."""
    tolerances = TOLERANCES + (Tolerance(1e-13, 0.0), Tolerance(0.0, 1e-14))
    for k in range(200):
        m = int(rng.integers(numerics._CERT_MIN, 48))
        tol = tolerances[k % len(tolerances)]
        b = rng.uniform(0.5, 2.5)
        allowance = model_allowance(tol, m, b)
        assert allowance >= Fraction(tol.abs_tol) + Fraction(tol.rel_tol) * Fraction(b)  # the exact rule's margin
        share = Fraction(1) if k % 2 else Fraction(rng.uniform(0.0, 1.0))
        e = int(rng.integers(-400, 401))
        scaled = Tolerance(tol.abs_tol * 2.0**e, tol.rel_tol)
        for spread, accepted in ((allowance * share, False), (2 * m * allowance, True)):
            H = exact_spectrum(rng, m, field, lowest_with_spread_at_most(b, spread), b)
            assert numerics._not_tight_certified(H, np.abs(H).max(), tol) is accepted
            H = H * 2.0**e  # exact for these entries
            assert numerics._not_tight_certified(H, np.abs(H).max(), scaled) is accepted


# --- NotParseval names the rule that failed ------------------------------------------

def raised_message(call) -> str:
    with pytest.raises(NotParseval) as info:
        call()
    return str(info.value)


def test_not_parseval_names_the_count():
    fp = FramePair(np.eye(3)[:, :2], np.eye(3)[:, :2], "real")
    assert raised_message(lambda: fk.dilate(fp)) == (
        "dilation starts from a Parseval pair: N = 2 stacked rows < m = 3")
    assert raised_message(lambda: fk.dilate_ovf(fk.ovf_bridge(fp))) == (
        "dilation starts from a Parseval pair: N = 2 stacked rows < m = 3")


def test_not_parseval_names_the_hermitian_deviation_and_margin():
    T = np.eye(3) + np.triu(0.01 * np.ones((3, 3)), 1)  # S = T, not Hermitian
    fp = FramePair(np.eye(3), T, "real")
    S = fk.frame_operator(fp)
    deviation, margin = float(np.abs(S - S.T).max()), 1e-9 + 1e-9 * float(np.abs(S).max())
    assert raised_message(lambda: fk.trace_formula(fp, np.eye(3))) == (
        f"the trace identity needs a Parseval pair: S not Hermitian: "
        f"deviation {deviation!r} > margin {margin!r}")


def test_not_parseval_names_lambda_min_and_abs_tol(rng):
    X = random_matrix(rng, 3, 3)
    X[-1] = 0.0  # S singular
    fp = FramePair(X, X, "real")
    S = fk.frame_operator(fp)
    lam = float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])
    assert raised_message(lambda: fk.synthesize_representation(fp, GroupTable.cyclic(3))) == (
        f"synthesis needs a Parseval pair: lambda_min {lam!r} <= abs_tol 1e-09")


def test_not_parseval_names_the_spread_and_the_tight_margin():
    fp = FramePair(np.eye(2), np.diag([1.0, 2.0]), "real")
    parseval = FramePair(np.eye(2), np.eye(2), "real")
    margin = 1e-9 + 1e-9 * 2.0
    assert raised_message(lambda: fk.interpolate_parseval(parseval, fp, *[np.eye(2)] * 4)) == (
        f"both pairs must be Parseval: pair 2: b - a = 1.0 > margin {margin!r}")
    assert raised_message(lambda: fk.trace_formula(fp, np.eye(2))) == (
        f"the trace identity needs a Parseval pair: b - a = 1.0 > margin {margin!r}")


def test_not_parseval_names_the_distance_from_one_and_its_margin():
    fp = FramePair(np.sqrt(2.0) * np.eye(2), np.sqrt(2.0) * np.eye(2), "real")  # 2-tight
    b = float(np.linalg.eigvalsh(fk.frame_operator(fp))[-1])
    reason = f"|b - 1| = {abs(b - 1.0)!r} > margin {1e-9 + 1e-9 * b!r}"
    assert raised_message(lambda: fk.dilate(fp)) == f"dilation starts from a Parseval pair: {reason}"
    assert raised_message(lambda: fk.interpolate_parseval(fp, fp, *[np.eye(2)] * 4)) == (
        f"both pairs must be Parseval: pair 1: {reason}")

