"""The verdict path and the lp witness table pay per call only for what
depends on the input: a frame's invertible flag is read from lambda_min, M^*
is formed once, and the +-1 sign patterns of pnorm_estimate are built once
per size.  Every report field and every interval end must equal, value and
type, those of the forms that ran every rule and rebuilt the table on
every call (tests/oracles.py)."""

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, OvfPair, Tolerance, frames, numerics
from framekit.cli import run
from framekit.errors import NotAFrame
from framekit.frames import ClassifyResult, _refinements
from framekit.numerics import _half_sign_patterns
from framekit.ovf import OvfReport

import oracles
import pairfiles
from conftest import random_frame, random_matrix, random_ovf, random_parseval, random_spd

TOLERANCES = (Tolerance(), Tolerance(0.0, 0.0))


def typed(report):
    """Each field of a report dataclass with its type, so that == also pins bool and float."""
    return [(type(v), v) for v in vars(report).values()]


def near_gate(rng, m, field, abs_tol):
    """Hermitian S with lambda_min within a factor 2 of the pd gate, of either sign."""
    Q, _ = np.linalg.qr(random_matrix(rng, m, m, field))
    lam = rng.uniform(0.5, 2.5, m)
    lam[0] = rng.uniform(0.5, 2.0) * max(abs_tol, 1e-15) * rng.choice([1.0, -1.0])
    S = (Q * lam) @ Q.conj().T
    return 0.5 * (S + S.conj().T)


def operators(rng, field, abs_tol):
    """Seeded would-be frame operators: frames (Hermitian only within rounding),
    exactly Hermitian pd, non-Hermitian, singular, psd but not pd, indefinite,
    near the pd gate, large and 0 x 0."""
    cases = [np.zeros((0, 0), dtype=complex if field == "complex" else float)]
    for k in range(60):
        m = int(rng.integers(1, 6))
        kind = k % 6
        if kind == 0:
            S = fk.frame_operator(random_frame(rng, m, m + int(rng.integers(0, 4)), field))
        elif kind == 1:
            S = random_spd(rng, m, field) * 10.0 ** rng.integers(-6, 7)
        elif kind == 2:  # non-Hermitian, invertible or not
            S = random_matrix(rng, m, m, field) + rng.choice([0.0, 4.0]) * np.eye(m)
        elif kind == 3:  # psd, rank below m: singular, and pd at most through rounding
            X = random_matrix(rng, m, max(m - 1, 1), field)
            S = X @ X.conj().T if m > 1 else np.zeros((1, 1))
        elif kind == 4:  # indefinite or negative definite
            S = random_spd(rng, m, field) * rng.choice([-1.0, 1.0], m)[:, None]
            S = 0.5 * (S + S.conj().T)
        else:
            S = near_gate(rng, m, field, abs_tol)
        cases.append(S)
    return cases


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("tol", TOLERANCES)
def test_frame_flags_match_every_rule(rng, field, tol):
    frames_seen = 0
    for S in operators(rng, field, tol.abs_tol):
        want = oracles.frame_flags_by_every_rule(S, tol)
        assert typed(frames._frame_flags(S, tol)) == typed(want)
        assert typed(frames.frame_flags(S, tol)) == typed(want)
        frames_seen += want.is_frame
    assert 0 < frames_seen < 61


def pairs(rng, field, tol):
    """Vector pairs with N below, at and above m, planted non-frames included."""
    out = []
    for k in range(30):
        m = int(rng.integers(1, 5))
        n = max(1, m + int(rng.integers(-1, 5)))
        if k % 5 == 0:
            X = random_matrix(rng, m, n, field)
            fp = FramePair(X, X, field)  # self-dual: Hermitian S, singular for n < m
        elif k % 5 == 1:
            fp = random_parseval(rng, m, max(n, m), field, self_dual=k % 2 == 0)
        elif k % 5 == 2:
            fp = FramePair(random_matrix(rng, m, n, field), random_matrix(rng, m, n, field), field)
        else:
            fp = random_frame(rng, m, max(n, m), field)
        out.append(fp.with_tol(tol))
    return out


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("tol", TOLERANCES)
def test_pair_verdicts_match_every_rule(rng, field, tol):
    """verify, classify, verify_ovf and canonical_dual against the flags of
    every rule, fed to the one refinement body."""
    for fp in pairs(rng, field, tol):
        S = fk.frame_operator(fp)
        want = oracles.pair_flags_by_every_rule(fp, S, tol)
        assert typed(fk.verify(fp)) == typed(want)
        op = fk.ovf_bridge(fp)
        refinements = _refinements(op, S, want)
        assert typed(fk.verify_ovf(op)) == typed(OvfReport(**vars(want), riesz_ovf=refinements[0],
                                                           orthonormal_ovf=refinements[1]))
        if want.is_frame:
            assert fk.classify(fp) == ClassifyResult(*_refinements(fp, S, want), fp)
            assert fk.canonical_dual(fp).m == fp.m
        else:
            with pytest.raises(NotAFrame):
                fk.classify(fp)
            with pytest.raises(NotAFrame):
                fk.canonical_dual(fp)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_ovf_reports_match_every_rule(rng, tol):
    for k in range(40):
        field = "complex" if k % 2 else "real"
        m, d = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        if k % 3 == 0 and n * d >= m:
            op = random_ovf(rng, m, d, n, field)
        else:  # singular or non-Hermitian S
            op = OvfPair(tuple(random_matrix(rng, d, m, field) for _ in range(n)),
                         tuple(random_matrix(rng, d, m, field) for _ in range(n)), field)
        op = OvfPair._stacked(op.theta_A, op.theta_Psi, op.codims, tol)
        S = fk.frame_operator(op)
        want = oracles.pair_flags_by_every_rule(op, S, tol)
        riesz, orthonormal = _refinements(op, S, want)
        assert typed(fk.verify_ovf(op)) == typed(OvfReport(**vars(want), riesz_ovf=riesz,
                                                           orthonormal_ovf=orthonormal))


@pytest.mark.parametrize("tol", TOLERANCES)
def test_stacked_rules_match_every_rule(rng, tol):
    """analysis decides stacks of outer products through _hermitian and _psd."""
    for shape in ((5, 3, 3), (2, 4, 2, 2), (3, 1, 1), (4, 0, 0)):
        for field in ("real", "complex"):
            M = random_matrix(rng, int(np.prod(shape[:-1])), shape[-1], field).reshape(shape)
            if shape[-1]:
                M[::2] = numerics.hermitian_part(M[::2])  # half of them Hermitian
            got = numerics._hermitian(M, tol)
            assert np.array_equal(got, oracles.hermitian_by_adjoint_copies(M, tol))
            assert got.shape == shape[:-2]
            w = np.linalg.eigvalsh(numerics.hermitian_part(M))
            for rule, reference in ((numerics._psd, oracles.psd_by_first_column),
                                    (numerics._pd, oracles.pd_by_first_column)):
                assert np.array_equal(rule(w, tol), reference(w, tol))
                assert np.array_equal(rule(w[0], tol), reference(w[0], tol))
                assert rule(None, tol) is False


def test_hermitian_eig_matches_the_rule_and_the_hermitian_part(rng):
    for field in ("real", "complex"):
        for tol in TOLERANCES:
            S = random_spd(rng, 4, field) + 1e-12 * random_matrix(rng, 4, 4, field)
            got = numerics._hermitian_eig(S, tol)
            if not oracles.hermitian_by_adjoint_copies(S, tol):
                assert got is None
                continue
            assert np.array_equal(got, np.linalg.eigvalsh(numerics.hermitian_part(S)))
            w, V = numerics._hermitian_eig(S, tol, vectors=True)
            w2, V2 = np.linalg.eigh(numerics.hermitian_part(S))
            assert np.array_equal(w, w2) and np.array_equal(V, V2)


def test_margin_matches_the_generator_form(rng):
    tol = Tolerance(1e-9, 3e-7)
    for scales in ((), (2.0,), (1.0, -5.5), (np.float64(3.0), 7, -np.inf), (float("nan"), 1.0),
                   (1.0, float("nan"))):
        got, want = tol.margin(*scales), oracles.margin_by_generator(tol, *scales)
        assert got == want or (np.isnan(got) and np.isnan(want))


def test_verify_on_a_pd_s_runs_no_invertibility_rule(rng, monkeypatch):
    """A frame's invertible flag comes from lambda_min, and that of a pair
    with n < m from counting: no SVD and no _invertible; a non-frame with
    n >= m still runs the rule, which shows the spies are live."""
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    monkeypatch.setattr(frames, "_invertible", spy("_invertible", frames._invertible))
    for field in ("real", "complex"):
        report = fk.verify(random_frame(rng, 4, 6, field))
        assert report.is_frame and report.invertible
    assert calls == []
    X = random_matrix(rng, 3, 2)
    assert not fk.verify(FramePair(X, X, "real")).invertible  # n < m: singular
    assert calls == []
    assert not fk.verify(FramePair(np.eye(2), np.eye(2)[::-1], "real")).is_frame
    assert calls == ["_invertible"]
    assert not fk.verify(FramePair(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), "real")).is_frame
    assert calls == ["_invertible", "_invertible", "svd"]


# --- the +-1 witness table -----------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.5, np.inf])
def test_pnorm_intervals_match_the_uncached_table_bit_for_bit(rng, p, monkeypatch):
    """Bit for bit against the table built on every call; within rounding
    of the candidate loop."""
    if p == 2:  # the library's p = 2 upper end comes from its full SVD
        monkeypatch.setattr(oracles, "opnorm2", oracles.full_svd_upper)
    for cols in range(1, 14):
        for field in ("real", "complex", "integer"):
            rows = int(rng.integers(1, 9))
            if field == "integer":
                M = rng.integers(-3, 4, (rows, cols))
            else:
                M = random_matrix(rng, rows, cols, field) * 10.0 ** rng.integers(-3, 4)
            samples = int(rng.choice([0, 7]))
            got = fk.pnorm_estimate(M, p, samples, seed=cols)
            with monkeypatch.context() as patch:  # the same half table, built on every call
                patch.setattr(numerics, "_half_sign_patterns",
                              lambda n: oracles.sign_patterns(n)[(1 << n) >> 1:])
                uncached = fk.pnorm_estimate(M, p, samples, seed=cols)
            assert (got.lower, got.upper) == (uncached.lower, uncached.upper)
            lower, upper = oracles.pnorm_estimate_by_all_signs(M, p, samples, seed=cols, half=True)
            assert got.upper == upper
            # one matrix product per block against one matrix-vector product per candidate
            assert abs(got.lower - lower) <= 2 * cols * np.finfo(float).eps * lower


def test_pnorm_estimate_at_p2_runs_one_svd(rng, monkeypatch):
    """The upper end is the first singular value of the full SVD that also
    gives the singular-vector witness; opnorm2's values-only SVD, which
    gave it before, differs from it by a few eps on most inputs."""
    eps = np.finfo(float).eps
    moved = 0
    for k in range(200):
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        M = random_matrix(rng, rows, cols, "complex" if k % 2 else "real") * 10.0 ** rng.integers(-3, 4)
        got, before = fk.pnorm_estimate(M, 2.0, 5, seed=k).upper, numerics.opnorm2(M)
        assert got == oracles.full_svd_upper(M)
        assert abs(got - before) <= 8 * eps * before
        moved += got != before
    assert moved == 109  # of the 200 at this seed

    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    fk.pnorm_estimate(random_matrix(rng, 12, 12), 2.0)
    assert calls == [{}]


def test_the_sign_table_is_built_once_and_shared(rng):
    _half_sign_patterns.cache_clear()
    M = random_matrix(rng, 5, 5)
    fk.pnorm_estimate(M, 3.0, 5)
    fk.pnorm_estimate(M, 4.0, 5)
    Q, _ = np.linalg.qr(random_matrix(rng, 5, 5))
    fk.p_orthonormal_check(Q, 2.0, 5)
    info = _half_sign_patterns.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert _half_sign_patterns(5) is _half_sign_patterns(5)


def test_the_cached_sign_table_is_read_only():
    table = _half_sign_patterns(4)
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    with pytest.raises(ValueError):
        table *= 2.0
    assert np.array_equal(table, oracles.sign_patterns(4)[8:])


# --- counting rows: N < m and the factorization -------------------------------------

def test_classify_decides_n_below_m_by_counting(rng):
    """A frame needs rank S = m <= N.  3 x 2 self-dual pairs under
    Tolerance(0, 0) can pass the spectral frame gate through rounding, and
    the solve against their singular S raises LinAlgError on some.  Every
    pair-level verdict counts instead: no such pair is a frame or
    invertible, in either layer, and classify raises NotAFrame.  The
    spectral flags of a bare S (frame_flags) do not move."""
    tol = Tolerance(0.0, 0.0)
    moved_frame = moved_invertible = raised = 0
    for _ in range(200):
        X = random_matrix(rng, 3, 2)
        fp = FramePair(X, X, "real", tol)
        S = fk.frame_operator(fp)
        bare = frames.frame_flags(S, tol)
        assert typed(bare) == typed(oracles.frame_flags_by_every_rule(S, tol))
        want = oracles.pair_flags_by_every_rule(fp, S, tol)
        assert typed(fk.verify(fp)) == typed(want) and not want.invertible
        report = fk.verify_ovf(fk.ovf_bridge(fp))
        assert (report.is_frame, report.invertible, report.riesz_ovf) == (False, False, False)
        with pytest.raises(NotAFrame):
            fk.classify(fp)
        with pytest.raises(NotAFrame):
            fk.canonical_dual(fp)
        moved_frame += bare.is_frame
        moved_invertible += bare.invertible
        if bare.is_frame:
            try:
                oracles.classify_by_idempotent(fp)
            except np.linalg.LinAlgError:
                raised += 1
    # the counts at this seed: is_frame moved true -> false on 92 of the 200 and
    # invertible (min |lambda| > 0) on all 200; the reference solve raised on 23 of the 92
    assert (moved_frame, moved_invertible, raised) == (92, 200, 23)


# one of the pairs above: the reference solve raises "Singular matrix" on it
SHORT = np.array([[0.049054613825311656, 2.002392583645255],
                  [0.18851919251246557, -0.6331940901922267],
                  [-0.37756350523280824, -1.0911461176191954]])


def test_classify_on_a_short_pair_at_zero_tolerance(tmp_path, capsys):
    """The pair's bare S passes the spectral frame gate through rounding
    (lambda_min = 3.3e-16), but no verdict on the pair calls it a frame."""
    tol = Tolerance(0.0, 0.0)
    fp = FramePair(SHORT, SHORT, "real", tol)
    assert frames.frame_flags(fk.frame_operator(fp), tol).is_frame
    with pytest.raises(np.linalg.LinAlgError):
        oracles.classify_by_idempotent(fp)
    report = fk.verify(fp)
    assert not report.is_frame and not report.invertible and report.lower_a == 0.0
    with pytest.raises(NotAFrame):
        fk.classify(fp)
    path = tmp_path / "short.json"
    pairfiles.write_frame_pair(str(path), fp)
    zero = ["--abs-tol", "0", "--rel-tol", "0"]
    assert run(["verify", str(path), *zero]) == 0
    out = capsys.readouterr().out
    assert "is_frame = false\n" in out and "invertible = false\n" in out
    for verb in (["classify"], ["dual"]):
        assert run([*verb, str(path), *zero]) == 2
        assert "error = NotAFrame\n" in capsys.readouterr().out
    bridged = tmp_path / "short_ovf.json"
    assert run(["ovf", "bridge", str(path), "-o", str(bridged)]) == 0
    capsys.readouterr()
    assert run(["ovf", "verify", str(bridged), *zero]) == 0
    assert "is_frame = false\n" in capsys.readouterr().out


def test_factorization_agrees_with_verify_ovf_on_a_square_frame_near_the_gate():
    X = np.array([[1.0, 1.0], [1.0, 1.0001]])
    op = fk.ovf_bridge(FramePair(X, X, "real"))
    result = fk.factorize_against_onb(op, fk.onb_blocks(2, 1))
    assert result.flags["frame"] and result.flags["riesz_ovf"]
    assert fk.verify_ovf(op).riesz_ovf
    assert result.label == "riesz_basis"


def test_factorization_riesz_is_its_frame_verdict(rng):
    """F is an orthonormal basis pair, so N = m and the count rule applies."""
    for k in range(30):
        field = "complex" if k % 2 else "real"
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        F = fk.onb_blocks(n, d)
        if k % 3 == 0:
            blocks = tuple(random_matrix(rng, d, n * d, field) for _ in range(n))
            op = OvfPair(blocks, blocks, field)  # self-dual: psd S, maybe singular
        else:
            op = random_ovf(rng, n * d, d, n, field)
        result = fk.factorize_against_onb(op, F)
        assert result.flags["riesz_ovf"] == result.flags["frame"]
        assert result.flags["riesz_ovf"] == fk.verify_ovf(op).riesz_ovf
