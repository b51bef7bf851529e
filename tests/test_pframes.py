import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import framekit as fk
from framekit import PFramePair, Tolerance
from framekit.errors import (
    BadExponent,
    BaseNotOrthonormal,
    NotParseval,
    NotPFrame,
    RankDeficient,
    ZeroDirection,
)

import oracles
from conftest import random_matrix, random_parseval_pframe, random_spd

SRC = Path(__file__).resolve().parent.parent / "src"


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def diag_pair(p):
    return PFramePair(np.eye(2), np.diag([1.0, 2.0]), p, "real")


# --- p_verify ------------------------------------------------------------------

def test_p_verify_standard_pair():
    pf = PFramePair(np.eye(2), np.eye(2), 3.0, "real")
    report = fk.p_verify(pf)
    assert report.resolvent_ok and report.parseval and report.tight
    assert report.lower_a.lower == pytest.approx(1.0, abs=1e-9)
    assert report.upper_b.upper == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
def test_p_verify_diag_exact(p):
    report = fk.p_verify(diag_pair(p))
    assert report.resolvent_ok and not report.tight
    # S^(1/p) is diagonal, so witnesses and interpolation agree exactly
    assert report.lower_a.lower == pytest.approx(1.0, abs=1e-9)
    assert report.lower_a.upper == pytest.approx(1.0, abs=1e-9)
    assert report.upper_b.lower == pytest.approx(2.0, abs=1e-9)
    assert report.upper_b.upper == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.5])
def test_p_frame_pair_needs_a_finite_exponent_of_at_least_one(p):
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        PFramePair(np.eye(2), np.diag([2.0, 1.0]), p, "real")


def test_p_verify_negative_eigenvalue():
    pf = PFramePair(np.eye(2), np.diag([-1.0, 1.0]), 2.0, "real")
    report = fk.p_verify(pf)
    assert not report.resolvent_ok
    assert report.lower_a is None and report.upper_b is None


def test_p_verify_matches_frame_core_at_two(rng):
    from framekit import FramePair
    for _ in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 8))
        W = random_spd(rng, m)
        F = random_matrix(rng, n, m)
        if np.linalg.matrix_rank(F) < m:
            continue
        T = W @ np.linalg.pinv(F)  # S_hat = W, Hermitian pd
        pf = PFramePair(F, T, 2.0, "real")
        preport = fk.p_verify(pf)
        freport = fk.verify(FramePair(F.conj().T, T, "real"))
        assert preport.resolvent_ok and freport.is_frame
        assert preport.lower_a.lower == pytest.approx(freport.lower_a, rel=1e-6)
        assert preport.upper_b.upper == pytest.approx(freport.upper_b, rel=1e-6)


def test_p_verify_power_composes(rng):
    for _ in range(30):
        m = int(rng.integers(1, 6))
        p = int(rng.integers(2, 5))
        S = random_spd(rng, m)
        R = fk.principal_power(S, 1.0 / p)
        out = np.eye(m)
        for _ in range(p):
            out = out @ R
        assert np.max(np.abs(out - S)) < 1e-8


# --- p-orthonormality -------------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
def test_standard_basis_consistent(p):
    assert fk.p_orthonormal_check(np.eye(4), p).consistent


def test_signed_permutation_consistent():
    M = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert fk.p_orthonormal_check(M, 3.0).consistent


def test_non_orthogonal_witness_found():
    M = np.column_stack([np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)])
    result = fk.p_orthonormal_check(M, 2.0)
    assert not result.consistent and result.witness is not None


def test_unnormalised_vector_flagged():
    assert not fk.p_orthonormal_check(2.0 * np.eye(2), 2.0).consistent


# --- Riesz p-bounds -----------------------------------------------------------------

def test_riesz_bounds_standard_basis():
    rb = fk.riesz_p_bounds(np.eye(3), 3.0)
    assert rb.a.lower == pytest.approx(1.0, abs=1e-9)
    assert rb.b.upper == pytest.approx(1.0, abs=1e-9)


def test_riesz_bounds_diag_at_two():
    rb = fk.riesz_p_bounds(np.diag([1.0, 2.0]), 2.0)
    assert rb.a.lower == pytest.approx(1.0) and rb.a.upper == pytest.approx(1.0)
    assert rb.b.lower == pytest.approx(4.0) and rb.b.upper == pytest.approx(4.0)


def test_riesz_bounds_rank_deficient():
    with pytest.raises(RankDeficient):
        fk.riesz_p_bounds(np.array([[1.0, 1.0], [0.0, 0.0]]), 2.0)


def test_riesz_bounds_interval_brackets_truth(rng):
    for _ in range(30):
        m = int(rng.integers(2, 6))
        M = random_matrix(rng, m, m) + 3.0 * np.eye(m)
        for p in (1.0, 2.5, 4.0):
            rb = fk.riesz_p_bounds(M, p, trials=60)
            assert rb.a.lower <= rb.a.upper + 1e-9
            assert rb.b.lower <= rb.b.upper + 1e-9
            assert rb.a.lower > 0


# --- Paley-Wiener --------------------------------------------------------------------

def test_paley_wiener_identity():
    result = fk.paley_wiener_check(np.eye(3), np.eye(3), 3.0)
    assert result.lambda_upper == 0.0 and result.concluded and result.riesz


def test_paley_wiener_contraction():
    result = fk.paley_wiener_check(np.eye(3), 0.7 * np.eye(3), 3.0)
    assert result.lambda_upper == pytest.approx(0.3, abs=1e-12)
    assert result.concluded and result.riesz


@pytest.mark.parametrize("p", [0.5, 0.0, -2.0, np.nan])
def test_p_orthonormal_check_rejects_p_below_one(p):
    # p = 0.5 used to overflow in the lp norms of the sign patterns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadExponent, match=r"^p must be >= 1, got "):
            fk.p_orthonormal_check(np.eye(2), p)
        with pytest.raises(BadExponent, match=r"^p must be >= 1, got "):
            fk.paley_wiener_check(np.eye(2), np.eye(2), p)


def test_p_orthonormal_check_rejects_infinite_p():
    # at p = inf a draw with an entry above 1 made both sides inf, and lhs - rhs warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadExponent, match=r"^p must be a finite number >= 1, got inf$"):
            fk.p_orthonormal_check(np.array([[1.0], [0.0]]), np.inf)
        with pytest.raises(BadExponent, match=r"^p must be a finite number >= 1, got inf$"):
            fk.paley_wiener_check(np.eye(2), np.eye(2), np.inf)


def test_paley_wiener_sign_flip_not_concluded():
    result = fk.paley_wiener_check(np.eye(3), -np.eye(3), 3.0)
    assert result.lambda_upper == pytest.approx(2.0, abs=1e-12)
    assert not result.concluded and result.riesz is None


def test_paley_wiener_requires_orthonormal_base():
    with pytest.raises(BaseNotOrthonormal):
        fk.paley_wiener_check(2.0 * np.eye(3), np.eye(3), 3.0)
    with pytest.raises(BaseNotOrthonormal):
        fk.paley_wiener_check(np.eye(3)[:, :2], np.eye(3)[:, :2], 3.0)


def test_paley_wiener_soundness_chain(rng):
    # concluded => certified positive lower Riesz bound for the perturbed family
    for _ in range(20):
        m = int(rng.integers(2, 6))
        Y = np.eye(m) + 0.2 / m * rng.standard_normal((m, m))
        result = fk.paley_wiener_check(np.eye(m), Y, 3.0)
        if result.concluded:
            rb = fk.riesz_p_bounds(Y, 3.0)
            assert rb.a.lower > 0


# --- canonical dual -------------------------------------------------------------------

def test_p_dual_parseval_fixed_point():
    pf = PFramePair(np.eye(2), np.eye(2), 3.0, "real")
    result = fk.p_canonical_dual(pf)
    assert result.is_dual
    assert np.allclose(result.dual.F, pf.F) and np.allclose(result.dual.T, pf.T)


def test_p_dual_diag():
    pf = diag_pair(3.0)
    result = fk.p_canonical_dual(pf)
    assert result.is_dual
    assert np.allclose(result.dual.F, np.diag([1.0, 0.5]))
    assert np.allclose(result.dual.T, np.eye(2))


def test_p_dual_round_trip(rng):
    for _ in range(30):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 7))
        F = random_matrix(rng, n, m)
        W = random_spd(rng, m)
        pf = PFramePair(F, W @ np.linalg.pinv(F), 3.0, "real")
        result = fk.p_canonical_dual(pf)
        assert result.is_dual
        back = fk.p_canonical_dual(result.dual)
        assert np.max(np.abs(back.dual.F - pf.F)) < 1e-8
        assert np.max(np.abs(back.dual.T - pf.T)) < 1e-8


def test_p_dual_bound_intervals_invert(rng):
    for _ in range(20):
        m = int(rng.integers(1, 5))
        S = random_spd(rng, m)
        pf = PFramePair(np.eye(m), S, 3.0, "real")
        r = fk.p_verify(pf)
        rd = fk.p_verify(fk.p_canonical_dual(pf).dual)
        # intervals [a', b'] and [1/b, 1/a] must overlap
        assert rd.lower_a.lower <= 1.0 / r.upper_b.lower + 1e-9
        assert rd.lower_a.upper >= 1.0 / r.upper_b.upper - 1e-9
        assert rd.upper_b.lower <= 1.0 / r.lower_a.lower + 1e-9
        assert rd.upper_b.upper >= 1.0 / r.lower_a.upper - 1e-9


def test_p_dual_rejects_bad_operator():
    pf = PFramePair(np.eye(2), np.diag([-1.0, 1.0]), 2.0, "real")
    with pytest.raises(NotPFrame):
        fk.p_canonical_dual(pf)


# --- four laws -------------------------------------------------------------------------

def test_four_laws_basis_vectors():
    result = fk.four_laws_check([1.0, 0.0], [0.0, 1.0])
    assert result.ineq4_ok and result.pl4_ok
    assert result.ineq4_lhs == pytest.approx(0.0)
    assert result.ineq4_rhs == pytest.approx(2.0)
    assert result.pl4_lhs == pytest.approx(4.0)
    assert result.pl4_rhs == pytest.approx(16.0)


def test_four_laws_zero_vector():
    result = fk.four_laws_check([1.0, 2.0], [0.0, 0.0])
    assert result.ineq4_ok and result.pl4_ok


def test_four_laws_equal_vectors():
    x = np.array([0.3, -1.2, 0.5])
    result = fk.four_laws_check(x, x)
    nx4 = float(np.sum(np.abs(x) ** 4))
    assert result.ineq4_lhs == pytest.approx(2.0 * nx4, rel=1e-12)
    assert result.ineq4_ok and result.pl4_ok


def test_four_laws_random(rng):
    for _ in range(300):
        m = int(rng.integers(1, 11))
        x = rng.standard_normal(m)
        y = rng.standard_normal(m)
        result = fk.four_laws_check(x, y)
        assert result.ineq4_ok and result.pl4_ok


# --- line projection ----------------------------------------------------------------------

def test_projection_disjoint_support():
    result = fk.project_line_l4([1.0, 0.0], [0.0, 1.0])
    assert abs(result.t_star) < 1e-3
    assert result.dist == pytest.approx(1.0, abs=1e-9)


def test_projection_collinear():
    result = fk.project_line_l4([2.0, 4.0], [1.0, 2.0])
    assert result.t_star == pytest.approx(2.0, abs=1e-6)
    assert result.dist < 1e-9


def test_projection_partial_overlap():
    result = fk.project_line_l4([1.0, 1.0], [1.0, 0.0])
    assert result.t_star == pytest.approx(1.0, abs=1e-3)
    assert result.dist == pytest.approx(1.0, abs=1e-9)


def test_projection_zero_direction():
    with pytest.raises(ZeroDirection):
        fk.project_line_l4([1.0, 0.0], [0.0, 0.0])


def test_projection_minimises(rng):
    for _ in range(20):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        result = fk.project_line_l4(x, y)
        ts = np.linspace(result.t_star - 1.0, result.t_star + 1.0, 41)
        values = [float(np.sum(np.abs(x - t * y) ** 4) ** 0.25) for t in ts]
        assert result.dist <= min(values) + 1e-9


# Brackets that rounding keeps above abs_tol: about 2e8 wide at the default
# tolerance, whose ulp near 1e8 (1.5e-8) exceeds 1e-9, and abs_tol = 0.
STALLED = [([1e8, 0.0], [1.0, 0.0], None, 1e8, 4 * np.spacing(1e8)),
           ([1.0, 2.0], [1.0, 1.0], (0.0, 0.0), 1.5, 1e-6)]  # (t - 1)^3 + (t - 2)^3 = 0


def test_projection_stops_when_rounding_stops_the_bracket():
    """Each call runs in a child with a timeout, so that a search that never
    stops fails this test instead of hanging the suite."""
    code = ("import sys, framekit as fk; x, y, tol = eval(sys.argv[1]); "
            "r = fk.project_line_l4(x, y, *([fk.Tolerance(*tol)] if tol else [])); "
            "print(repr(r.t_star), repr(r.dist))")
    for x, y, tol, t_exact, within in STALLED:
        out = subprocess.run([sys.executable, "-c", code, repr((x, y, tol))], env=_child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        t_star, dist = map(float, out.stdout.split())
        assert abs(t_star - t_exact) <= within
        expected = float(np.sum((np.asarray(x) - t_exact * np.asarray(y)) ** 4) ** 0.25)
        assert dist == pytest.approx(expected, rel=1e-9, abs=1e-6)


def test_projection_keeps_every_result_the_golden_section_loop_returns(rng):
    """Where the loop without the stall stop returns, the result is the same
    to the bit.  The pinned inputs stall once (an iteration leaves the
    bracket unchanged) and then narrow it to abs_tol; stopping at the stall
    would return another t_star for the first."""
    cases = [([-50.78761342671919, 19.655953920975193], [-0.46500203228245557, 0.9913117071592484],
              Tolerance(1e-14)),
             ([0.3936436568096576, -0.5666345160254288], [-1.7332822229223872, 0.4309342230190271],
              Tolerance(1e-16))]
    for k in range(60):
        n = int(rng.integers(1, 5))
        x = rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 6))
        cases.append((x, rng.standard_normal(n), Tolerance((1e-9, 1e-12, 1e-14)[k % 3])))
    returned = 0
    for x, y, tol in cases:
        expected = oracles.project_line_l4_by_golden_section(x, y, tol, 2000)
        if expected is not None:
            returned += 1
            got = fk.project_line_l4(x, y, tol)
            assert (got.t_star, got.dist) == expected
    assert returned >= 40
    assert fk.project_line_l4(*cases[0]).t_star == 43.706044618863004


# --- Banach formulas -------------------------------------------------------------------------

def test_banach_standard_pair():
    pf = PFramePair(np.eye(3), np.eye(3), 3.0, "real")
    result = fk.banach_formulas(pf)
    assert result.dim_sum == pytest.approx(3.0)


def test_banach_with_operator():
    pf = PFramePair(np.eye(2), np.eye(2), 3.0, "real")
    result = fk.banach_formulas(pf, np.diag([1.0, 3.0]))
    assert result.trace_lhs == pytest.approx(4.0)
    assert result.trace_rhs == pytest.approx(4.0)


def test_banach_overcomplete_parseval(rng):
    for _ in range(30):
        m = int(rng.integers(1, 5))
        n = m + int(rng.integers(1, 4))
        pf = random_parseval_pframe(rng, m, n, 3.0)
        result = fk.banach_formulas(pf, rng.standard_normal((m, m)))
        assert result.dim_sum == pytest.approx(m, abs=1e-9)
        assert result.trace_rhs == pytest.approx(result.trace_lhs, abs=1e-9)


def test_banach_requires_parseval():
    with pytest.raises(NotParseval):
        fk.banach_formulas(diag_pair(3.0))
