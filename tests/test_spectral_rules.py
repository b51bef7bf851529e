"""The spectral rules of numerics: each verdict runs exactly the decomposition
its rules read, counted at numpy.linalg, and each vectorised gate agrees
with the per-element form it replaced (tests/oracles.py)."""

import collections
import tracemalloc

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, PFramePair, Tolerance
from framekit.analysis import _first_misaligned
from framekit import numerics
from framekit.errors import LambdaTooSmall, NotAFrame, NotPFrame, ParamNotAdmissible, SpectrumOnCut

import oracles
from conftest import random_frame, random_matrix, random_parseval, random_parseval_ovf

_LINALG = ("cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
           "matrix_rank", "norm", "pinv", "qr", "solve", "svd")


@pytest.fixture
def linalg_shapes(monkeypatch):
    """shapes(fn) runs fn with every numpy.linalg routine spied on; returns
    (routine, shape of its first argument) for each call, in call order."""
    calls = []

    def spied(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, np.shape(args[0]) if args else None))
            return fn(*args, **kwargs)
        return wrapper

    for name in _LINALG:
        monkeypatch.setattr(np.linalg, name, spied(name, getattr(np.linalg, name)))

    def shapes(fn, raises=None):
        calls.clear()
        if raises is None:
            fn()
        else:
            with pytest.raises(raises):
                fn()
        return list(calls)
    return shapes


@pytest.fixture
def linalg_calls(linalg_shapes):
    """count(fn) runs fn with every numpy.linalg routine counted; returns the counts."""
    def count(fn, raises=None):
        return dict(collections.Counter(name for name, _ in linalg_shapes(fn, raises)))
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


# --- gates that report no bound: one Cholesky from numerics._CERT_MIN rows ------------

@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_gate_that_reports_no_bound_runs_one_cholesky(rng, linalg_calls, field):
    fp = random_frame(rng, 64, 80, field)
    op = fk.ovf_bridge(fp)
    assert linalg_calls(lambda: fk.canonical_dual(fp)) == {"cholesky": 1, "solve": 1}
    assert linalg_calls(lambda: fk.canonical_dual_ovf(op)) == {"cholesky": 1, "solve": 1}
    assert linalg_calls(lambda: fk.classify(fp)) == {"cholesky": 1}  # N > m: the rank rule decides
    assert linalg_calls(lambda: fk.frame_idempotent(fp)) == {"cholesky": 1, "solve": 1}
    assert linalg_calls(lambda: fk.verify(fp)) == {"eigvalsh": 1}  # it reports the bounds
    assert linalg_calls(lambda: fk.extend_tight_append(fp, 4.0)) == {"cholesky": 2, "eigh": 1}
    onb = fk.ovf_bridge(FramePair(np.eye(64), np.eye(64), field))
    weights = np.linspace(0.5, 1.5, 64)
    weighted = fk.OvfPair._stacked(onb.theta_A, onb.theta_Psi * weights[:, None], onb.codims, onb.tol)
    assert linalg_calls(lambda: fk.weighted_onb_bessel_check(weighted, weights)) == {"cholesky": 1}
    assert fk.weighted_onb_bessel_check(weighted, weights).holds


def test_make_dual_gates_w_with_one_cholesky(rng, linalg_calls):
    """U = V = 0 gives W = S^-1: its admissibility, a bool, is one more Cholesky.
    A W that is not pd still raises, from the eigenvalue rule."""
    fp = random_frame(rng, 64, 80)
    zero = np.zeros((64, 80))
    assert linalg_calls(lambda: fk.make_dual_from_params(fp, zero, zero)) == {"cholesky": 2, "inv": 1}
    X = np.hstack([np.eye(64), np.zeros((64, 16))])  # S = I; W = I - U (I - P) U^* for V = -U
    U = np.zeros((64, 80))
    U[:, 64:] = 2.0 * random_matrix(rng, 64, 16)
    calls = linalg_calls(lambda: fk.make_dual_from_params(FramePair(X, X, "real"), U, -U),
                         raises=ParamNotAdmissible)
    assert calls == {"cholesky": 2, "inv": 1, "eigvalsh": 1}


@pytest.mark.parametrize("field", ["real", "complex"])
def test_formulas_report_proves_not_tight_from_the_diagonal(rng, linalg_calls, field):
    """A non-tight 64-dim frame, and a non-Hermitian S, run no eigvalsh and no
    SVD; a 2-tight one, x_j = tau_j = e_(j mod 64) for 128 members, whose
    diagonal proves nothing, runs the one eigvalsh of the eigenvalue rule."""
    fp = random_frame(rng, 64, 80, field)
    assert linalg_calls(lambda: fk.formulas_report(fp)) == {}
    assert fk.formulas_report(fp) == oracles.formulas_report_by_eigenvalues(fp)
    T = np.eye(64) + np.triu(0.01 * np.ones((64, 64)), 1)  # S = T, not Hermitian
    skew = FramePair(np.eye(64), T, field)
    assert linalg_calls(lambda: fk.formulas_report(skew)) == {}
    assert fk.formulas_report(skew) == oracles.formulas_report_by_eigenvalues(skew)
    X = np.eye(64)[:, np.arange(128) % 64]
    tight = FramePair(X, X, field)
    assert linalg_calls(lambda: fk.formulas_report(tight)) == {"eigvalsh": 1}
    report = fk.formulas_report(tight)
    assert report == oracles.formulas_report_by_eigenvalues(tight)
    assert report.variation_ok is True and report.equal_diag_b == 2.0 * 64 / 128


def test_a_gate_the_certificate_cannot_pass_falls_back_to_the_eigenvalue_rule(rng, linalg_calls):
    X = random_matrix(rng, 64, 80)
    X[-1] = 0.0  # S singular
    fp = FramePair(X, X, "real")
    for call in (fk.canonical_dual, fk.classify):
        assert linalg_calls(lambda: call(fp), raises=NotAFrame) == {"cholesky": 1, "eigvalsh": 1}
    frame = random_frame(rng, 64, 80)
    S = fk.frame_operator(frame)
    top = float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])
    assert linalg_calls(lambda: fk.extend_tight_append(frame, top), raises=LambdaTooSmall) == {
        "cholesky": 2, "eigvalsh": 1}
    with pytest.raises(LambdaTooSmall, match=f"top eigenvalue {top}$"):
        fk.extend_tight_append(frame, top)


def test_below_the_certificate_size_the_gates_run_eigvalsh(rng, linalg_calls):
    fp = random_frame(rng, numerics._CERT_MIN - 1, numerics._CERT_MIN + 8)
    assert linalg_calls(lambda: fk.canonical_dual(fp)) == {"eigvalsh": 1, "solve": 1}
    assert linalg_calls(lambda: fk.classify(fp)) == {"eigvalsh": 1}
    assert linalg_calls(lambda: fk.extend_tight_append(fp, 4.0)) == {"eigvalsh": 1, "eigh": 1}
    assert linalg_calls(lambda: fk.formulas_report(fp)) == {"eigvalsh": 1}


@pytest.mark.parametrize("power", [-260, 260])
def test_outside_the_scale_window_no_cholesky_runs(rng, linalg_calls, power):
    """max |S| below 2^-500 or above 2^500: the eigenvalue rule decides alone."""
    X = random_matrix(rng, 64, 80) * 2.0**power
    fp = FramePair(X, X, "real", Tolerance(0.0, 1e-9))
    assert not 2.0**-500 <= np.abs(fk.frame_operator(fp)).max() <= 2.0**500
    assert linalg_calls(lambda: fk.classify(fp)) == {"eigvalsh": 1}
    assert linalg_calls(lambda: fk.canonical_dual(fp)) == {"eigvalsh": 1, "solve": 1}
    if power < 0:  # above the window the sum tr(S^2) overflows
        assert linalg_calls(lambda: fk.formulas_report(fp)) == {"eigvalsh": 1}


@pytest.mark.parametrize("field", ["real", "complex"])
def test_dilate_takes_the_complement_from_the_range_basis(rng, linalg_shapes, field):
    """The Parseval gate, one SVD for both ranges of a self-dual pair, and a
    QR of the thin 64 x 16 range basis; no SVD of a 64 x 64 projector."""
    fp = random_parseval(rng, 16, 64, field, self_dual=True)
    calls = linalg_shapes(lambda: fk.dilate(fp))
    assert collections.Counter(name for name, _ in calls) == {"eigvalsh": 1, "svd": 1, "qr": 1}
    assert ("svd", (64, 16)) in calls and ("qr", (64, 16)) in calls
    assert ("svd", (64, 64)) not in calls


def test_dilate_ovf_runs_no_n_by_n_svd(rng, linalg_shapes):
    op = random_parseval_ovf(rng, 16, 2, 32)
    calls = linalg_shapes(lambda: fk.dilate_ovf(op))
    assert calls == [("eigvalsh", (16, 16)), ("svd", (64, 16)), ("qr", (64, 16))]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_dilate_runs_only_raw_mode_qr(rng, monkeypatch, field):
    """The complement comes from the Householder reflectors (mode="raw"), never
    from the N x N factor of a complete QR."""
    modes = []
    qr = np.linalg.qr

    def spied(a, mode="reduced"):
        modes.append((np.shape(a), mode))
        return qr(a, mode=mode)

    fp = random_parseval(rng, 16, 64, field, self_dual=False)
    op = random_parseval_ovf(rng, 16, 2, 32, field)
    monkeypatch.setattr(np.linalg, "qr", spied)
    fk.dilate(fp)
    fk.dilate_ovf(op)
    assert modes == [((64, 16), "raw"), ((64, 16), "raw")]


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
        got = _first_misaligned(T.conj().T, Y.conj().T, tol)  # the rows tau_j^*, y_j^*
        assert got == oracles.first_misaligned_by_spectral(T, Y, tol)
        for j in range(n):
            rep = fk.spectral(np.outer(T[:, j], Y[:, j].conj()), tol)
            seen[(bool(rep.is_hermitian), bool(rep.is_psd))] += 1
    # both margins are crossed in both directions
    assert min(seen[(True, True)], seen[(True, False)], seen[(False, False)]) > 50


@pytest.mark.parametrize("block_bytes", [1, 100])  # one member per block; 12 of K^1, 3 of K^2, 1 above
def test_first_misaligned_in_blocks_matches_the_per_member_spectral_loop(rng, monkeypatch, block_bytes):
    monkeypatch.setattr("framekit.numerics._BLOCK_ENTRIES", block_bytes // 8)  # entries of 8 bytes
    tol = Tolerance()
    for k in range(300):
        field = "complex" if k % 2 else "real"
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 10))
        T, Y = straddling_members(rng, m, n, field, tol)
        assert _first_misaligned(T.conj().T, Y.conj().T, tol) == oracles.first_misaligned_by_spectral(T, Y, tol)


def test_first_misaligned_holds_one_block_of_outer_products_at_a_time(rng):
    """All n outer products at once, the batched form this replaced, take
    n m^2 doubles (28 MB here); the blocks keep the peak under a quarter of it."""
    m, n = 96, 384
    Y = random_matrix(rng, m, n)
    T = Y * rng.uniform(0.5, 2.0, n)
    T_bad = T.copy()
    T_bad[:, 0] *= -1.0  # tau_0 y_0^* is negative semidefinite
    for T_in, want in ((T_bad, 0), (T, None)):
        tracemalloc.start()
        try:
            got = _first_misaligned(T_in.T, Y.T, Tolerance())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < n * m * m * 8 / 4


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
