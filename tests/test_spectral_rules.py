"""The spectral rules of numerics: each verdict runs exactly the decomposition
its rules read, counted at numpy.linalg, and each vectorised gate agrees
with the per-element form it replaced (tests/oracles.py)."""

import collections

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, PFramePair, Tolerance
from framekit.analysis import _first_misaligned
from framekit.errors import NotPFrame, ParamNotAdmissible, SpectrumOnCut

import oracles
from conftest import random_frame, random_matrix

_LINALG = ("cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
           "matrix_rank", "norm", "pinv", "qr", "solve", "svd")


@pytest.fixture
def linalg_calls(monkeypatch):
    """count(fn) runs fn with every numpy.linalg routine counted; returns the counts."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _LINALG:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))

    def count(fn, raises=None):
        counts.clear()
        if raises is None:
            fn()
        else:
            with pytest.raises(raises):
                fn()
        return dict(counts)
    return count


def diagonalizable(rng, w, field="real"):
    """V diag(w) V^-1 for a seeded V (real when w and field are)."""
    m = len(w)
    V = random_matrix(rng, m, m, field) + 2.0 * np.eye(m)
    S = V @ np.diag(w) @ np.linalg.inv(V)
    return S.real if field == "real" and np.isrealobj(w) else S


@pytest.mark.parametrize("field", ["real", "complex"])
def test_verify_on_a_frame_runs_one_eigvalsh(rng, linalg_calls, field):
    fp = random_frame(rng, 4, 7, field)
    assert linalg_calls(lambda: fk.verify(fp)) == {"eigvalsh": 1}
    assert fk.verify(fp).is_frame


def test_verify_on_a_non_hermitian_s_runs_one_svd(rng, linalg_calls):
    T = random_matrix(rng, 3, 3) + 4.0 * np.eye(3)
    fp = FramePair(np.eye(3), T, "real")  # S = T
    assert linalg_calls(lambda: fk.verify(fp)) == {"svd": 1}
    report = fk.verify(fp)
    assert not report.self_adjoint and report.invertible and not report.is_frame


def test_verify_ovf_on_a_frame_runs_one_eigvalsh(rng, linalg_calls):
    op = fk.ovf_bridge(random_frame(rng, 3, 5))
    assert linalg_calls(lambda: fk.verify_ovf(op)) == {"eigvalsh": 1}


def test_p_verify_runs_one_eig_and_no_eigvals(rng, linalg_calls):
    S = diagonalizable(rng, np.array([0.7, 1.3, 2.0]))
    pf = PFramePair(np.eye(3), S, 3.0, "real")
    calls = linalg_calls(lambda: fk.p_verify(pf, samples=8))
    assert calls["eig"] == 1 and "eigvals" not in calls
    assert fk.p_verify(pf, samples=8).resolvent_ok


def test_p_verify_on_the_cut_stops_after_its_eig(rng, linalg_calls):
    S = diagonalizable(rng, np.array([-0.5, 1.0, 2.0]))
    pf = PFramePair(np.eye(3), S, 3.0, "real")
    assert linalg_calls(lambda: fk.p_verify(pf, samples=8)) == {"eig": 1}
    assert not fk.p_verify(pf, samples=8).resolvent_ok


def test_make_dual_with_a_non_hermitian_w_runs_no_eigvals(rng, linalg_calls):
    fp = random_frame(rng, 3, 6)
    U = random_matrix(rng, 3, 6)
    V = random_matrix(rng, 3, 6)
    calls = linalg_calls(lambda: fk.make_dual_from_params(fp, U, V), raises=ParamNotAdmissible)
    assert "eigvals" not in calls


# --- the vectorised gates against their per-element forms ---------------------------


def straddling_members(rng, m, n, field, tol):
    """(T, Y) whose outer products tau_j y_j^* sit near the Hermitian and psd margins.

    Member j is c_j y_j plus a skew perturbation of size e_j: c_j puts the
    lowest eigenvalue c_j |y_j|^2 near -abs_tol, e_j the deviation
    |tau_j y_j^* - y_j tau_j^*| near the Hermitian margin.
    """
    Y = random_matrix(rng, m, n, field)
    sq = np.sum(np.abs(Y) ** 2, axis=0)
    c = rng.choice([1.0, -1.0], n) * rng.uniform(0.2, 2.0, n)
    near_psd = rng.random(n) < 0.5
    c[near_psd] = -tol.abs_tol * (1.0 + rng.uniform(-1e-3, 1e-3, near_psd.sum())) / sq[near_psd]
    e = tol.abs_tol * 10.0 ** rng.uniform(-2.0, 1.0, n) * (rng.random(n) < 0.5)
    T = Y * c + random_matrix(rng, m, n, field) * e / np.sqrt(sq)
    return T, Y


def test_first_misaligned_matches_the_per_member_spectral_loop(rng):
    tol = Tolerance()
    seen = collections.Counter()
    for k in range(600):
        field = "complex" if k % 2 else "real"
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        T, Y = straddling_members(rng, m, n, field, tol)
        got = _first_misaligned(T, Y, tol)
        assert got == oracles.first_misaligned_by_spectral(T, Y, tol)
        for j in range(n):
            rep = fk.spectral(np.outer(T[:, j], Y[:, j].conj()), tol)
            seen[(bool(rep.is_hermitian), bool(rep.is_psd))] += 1
    # both margins are crossed in both directions
    assert min(seen[(True, True)], seen[(True, False)], seen[(False, False)]) > 50


def near_cut(rng, m, field, tol):
    """A diagonalizable S with one eigenvalue at distance about abs_tol from (-inf, 0]."""
    w = rng.uniform(0.5, 2.0, m).astype(complex)
    d = tol.abs_tol * (1.0 + rng.uniform(-1e-6, 1e-6))
    kind = rng.integers(3)
    if kind == 0:
        w[0] = rng.choice([-1.0, 1.0]) * d
    elif kind == 1:
        w[0] = -rng.uniform(0.1, 1.0) + 1j * d
    else:
        w[0] = d * np.exp(1j * rng.uniform(-np.pi, np.pi))
    if field == "real":
        w = w.real
    return diagonalizable(rng, w, field)


def test_resolvent_gate_reads_the_eigenvalues_principal_power_powers(rng):
    """resolvent_ok is the cut rule on eig's eigenvalues.  Against the
    eigvals form of the gate (oracles.resolvent_clear_by_eigvals) a verdict
    may differ only where the two LAPACK calls put an eigenvalue on
    opposite sides of abs_tol, that is, where they differ by round-off."""
    tol = Tolerance()
    for k in range(400):
        field = "complex" if k % 2 else "real"
        m = int(rng.integers(1, 4))
        S = near_cut(rng, m, field, tol)
        got = fk.p_verify(PFramePair(np.eye(m), S, 3.0, field), samples=4).resolvent_ok
        by_eig = all(oracles.cut_distance(v) > tol.abs_tol for v in np.linalg.eig(S)[0])
        assert got == by_eig
        if got != oracles.resolvent_clear_by_eigvals(S, tol):
            gap = np.abs(np.sort_complex(np.linalg.eig(S)[0]) - np.sort_complex(np.linalg.eigvals(S)))
            assert gap.max() <= 1e-12 * np.abs(S).max()


def test_defective_operator_on_the_cut_reports_resolvent_not_ok():
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    pf = PFramePair(np.eye(2), S, 3.0, "real")
    report = fk.p_verify(pf)
    assert report.resolvent_ok is False
    assert report.lower_a is None and report.upper_b is None
    assert not oracles.resolvent_clear_by_eigvals(S, Tolerance())
    with pytest.raises(SpectrumOnCut):  # the cut is tested before the condition of V
        fk.principal_power(S, 1.0 / 3.0)
    with pytest.raises(NotPFrame):
        fk.p_canonical_dual(pf)
