import numpy as np
import pytest

from framekit import Tolerance, herm_sqrt, pnorm_estimate, principal_power, spectral
import framekit.numerics
from framekit.errors import (
    BadExponent,
    InconsistentInterval,
    NonSquare,
    NotDiagonalizable,
    NotPsd,
    SpectrumOnCut,
)

from conftest import random_matrix, random_spd
from oracles import eigenvalues_via_charpoly

TOL = Tolerance()


def test_spectral_identity():
    rep = spectral(np.eye(2))
    assert rep.is_hermitian and rep.is_pd
    assert np.allclose(rep.eigenvalues, [1.0, 1.0])


def test_spectral_nilpotent():
    rep = spectral(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not rep.is_hermitian and not rep.is_psd
    assert np.allclose(rep.eigenvalues, [0.0, 0.0])


def test_spectral_diag_matches_charpoly_oracle():
    M = np.diag([1.0, 2.0])
    rep = spectral(M)
    expected = sorted(eigenvalues_via_charpoly(M).real)
    assert np.allclose(sorted(rep.eigenvalues.real), expected, atol=1e-10)
    assert rep.is_pd


def test_spectral_rejects_non_square():
    with pytest.raises(NonSquare):
        spectral(np.ones((2, 3)))


def test_herm_sqrt_diagonal():
    assert np.allclose(herm_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(herm_sqrt(np.eye(3)), np.eye(3))


def test_herm_sqrt_eigen_based():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1 and 3
    R = herm_sqrt(M)
    assert np.max(np.abs(R @ R - M)) < 1e-9
    assert np.allclose(R, R.T)


def test_herm_sqrt_rejects_indefinite():
    with pytest.raises(NotPsd):
        herm_sqrt(np.diag([1.0, -1.0]))


def test_herm_sqrt_squares_back(rng):
    for _ in range(200):
        m = int(rng.integers(1, 9))
        field = "complex" if rng.random() < 0.5 else "real"
        B = random_matrix(rng, m, m, field)
        M = B @ B.conj().T  # psd, possibly singular
        R = herm_sqrt(M)
        scale = max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(R @ R - M)) <= 10 * TOL.abs_tol * scale


def test_principal_power_scalar_and_diag():
    assert np.allclose(principal_power(np.array([[4.0]]), 0.5), [[2.0]])
    assert np.allclose(principal_power(np.diag([1.0, 16.0]), 0.25), np.diag([1.0, 2.0]))


def test_principal_power_spectrum_on_cut():
    with pytest.raises(SpectrumOnCut):
        principal_power(np.diag([-1.0, 1.0]), 0.5)


def test_principal_power_not_diagonalizable():
    with pytest.raises(NotDiagonalizable):
        principal_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)


def test_principal_power_roots_compose(rng):
    for _ in range(100):
        m = int(rng.integers(1, 7))
        p = int(rng.integers(2, 6))
        M = random_spd(rng, m, "complex" if rng.random() < 0.5 else "real")
        R = principal_power(M, 1.0 / p)
        out = np.eye(m, dtype=complex)
        for _ in range(p):
            out = out @ R
        assert np.max(np.abs(out - M)) < 1e-8
        assert np.max(np.abs(R @ M - M @ R)) < 1e-9


def test_principal_power_matches_repeated_sqrt():
    M = random_spd(np.random.default_rng(7), 5)
    assert np.allclose(principal_power(M, 0.25), herm_sqrt(herm_sqrt(M)), atol=1e-9)


def test_pnorm_identity_all_p():
    for p in (1.0, 1.5, 2.0, 3.0, 7.0):
        iv = pnorm_estimate(np.eye(2), p, samples=10)
        assert iv.lower == pytest.approx(1.0, abs=1e-12)
        assert iv.upper == pytest.approx(1.0, abs=1e-12)


def test_pnorm_diag_exact_at_two_and_four():
    iv = pnorm_estimate(np.diag([1.0, 3.0]), 2.0, samples=10)
    assert iv.lower == pytest.approx(3.0, abs=1e-12) and iv.upper == pytest.approx(3.0, abs=1e-12)
    iv4 = pnorm_estimate(np.diag([1.0, 3.0]), 4.0, samples=10)
    assert iv4.lower >= 3.0 - 1e-12 and iv4.upper == pytest.approx(3.0, abs=1e-12)


def test_pnorm_rejects_small_exponent():
    with pytest.raises(BadExponent):
        pnorm_estimate(np.eye(2), 0.5)


def test_pnorm_interval_order_and_p2_tightness(rng):
    for k in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        field = "complex" if rng.random() < 0.5 else "real"
        M = random_matrix(rng, rows, cols, field)
        for p in (1.0, 1.7, 2.0, 3.0):
            iv = pnorm_estimate(M, p, samples=40, seed=k)
            assert iv.lower <= iv.upper + TOL.abs_tol
        iv2 = pnorm_estimate(M, 2.0, samples=0, seed=k)
        assert iv2.lower == pytest.approx(iv2.upper, rel=1e-9, abs=1e-12)


def test_pnorm_estimate_raises_on_an_upper_bound_below_a_witness(monkeypatch):
    M = np.diag([3.0, 1.0])
    monkeypatch.setattr(framekit.numerics, "opnorm2", lambda A: 2.0)
    with pytest.raises(InconsistentInterval) as info:
        pnorm_estimate(M, 2.0)
    assert "3.0" in str(info.value) and "2.0" in str(info.value)


def test_pnorm_estimate_clamps_round_off_overshoot(monkeypatch):
    M = np.diag([3.0, 1.0])
    below = 3.0 * (1.0 - 4.0 * np.finfo(float).eps)
    monkeypatch.setattr(framekit.numerics, "opnorm2", lambda A: below)
    iv = pnorm_estimate(M, 2.0)
    assert iv.lower == iv.upper == below
