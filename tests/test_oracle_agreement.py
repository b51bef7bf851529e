"""The batched routines against the per-element loops they replaced, and
the one-decomposition verdicts against the extra SVD and spectral passes
they dropped.

Each library routine must reach the loop's verdict, witness and exception
(class and message) on seeded random inputs, planted failures included;
interval endpoints and matrices agree to 1e-13 relative.
"""

import json

import numpy as np
import pytest

import framekit as fk
import framekit.io as fio
from framekit import FramePair, GroupTable, OvfPair, Representation, Tolerance, frames
from framekit.analysis import _falsifying_samples
from framekit.errors import FramekitError
from framekit.frames import FrameReport, frame_flags
from framekit.numerics import (
    _BLOCK_ENTRIES,
    _gaussian_blocks,
    _gaussian_rows,
    _sign_patterns,
    entry_max,
    smallest_singular_value,
)
from framekit.ovf import _cross_identities_ok

import oracles
from conftest import random_frame, random_matrix, random_parseval, random_parseval_ovf

RTOL = 1e-13


def outcome(fn):
    """The call's result, or (exception class name, message)."""
    try:
        return fn()
    except (FramekitError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


# --- shared candidate generation -----------------------------------------------------

def test_sign_patterns_follow_the_bit_order():
    for n in range(0, 6):
        loop = [[1.0 if (bits >> j) & 1 else -1.0 for j in range(n)] for bits in range(2**n)]
        assert np.array_equal(_sign_patterns(n), np.asarray(loop).reshape(2**n, n))


@pytest.mark.parametrize("complex_field", [False, True])
def test_gaussian_rows_keep_the_draw_stream(complex_field):
    rng = np.random.default_rng(5)
    loop = []
    for _ in range(7):
        v = rng.standard_normal(4)
        if complex_field:
            v = v + 1j * rng.standard_normal(4)
        loop.append(v)
    assert np.array_equal(_gaussian_rows(np.random.default_rng(5), 7, 4, complex_field), np.asarray(loop))


@pytest.mark.parametrize("complex_field", [False, True])
def test_gaussian_blocks_split_the_same_stream(complex_field):
    width = _BLOCK_ENTRIES // 3  # three rows per block
    blocks = list(_gaussian_blocks(np.random.default_rng(5), 7, 4, complex_field, width))
    assert [len(B) for B in blocks] == [3, 3, 1]
    rows = _gaussian_rows(np.random.default_rng(5), 7, 4, complex_field)
    assert np.array_equal(np.concatenate(blocks), rows)


# --- span characterization ----------------------------------------------------------

def aligned_pair(rng, m, n, field):
    """tau_j = c_j x_j with c_j > 0, some members zero on one side, some
    squeezed into a hyperplane so that failing selections exist."""
    X = random_matrix(rng, m, n, field)
    squeeze = rng.random(n) < 0.5
    X[m - 1, squeeze] = 0.0
    c = rng.uniform(0.2, 3.0, n)
    kind = rng.integers(0, 4, n)
    T = X * c
    T[:, kind == 0] = 0.0
    X[:, kind == 1] = 0.0
    return FramePair(X, T, field)


def test_span_matches_enumeration_verdict_and_witness(rng):
    failing = 0
    for k in range(300):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        fp = aligned_pair(rng, m, n, "complex" if k % 4 == 3 else "real")
        got = fk.span_characterization(fp)
        assert got == oracles.span_by_enumeration(fp), (k, fp.X, fp.T)
        failing += not got.is_frame
    assert 50 < failing < 250  # both verdicts are well represented


def test_span_hypothesis_failure_matches_enumeration(rng):
    for k in range(40):
        fp = aligned_pair(rng, 3, 6, "real")
        T = fp.T.copy()
        j = int(rng.integers(0, 6))
        T[:, j] = rng.standard_normal(3)  # one misaligned member
        fp = FramePair(fp.X, T, "real")
        expected = outcome(lambda: oracles.span_by_enumeration(fp))
        assert outcome(lambda: fk.span_characterization(fp)) == expected


def test_span_cap_matches_enumeration():
    fp = FramePair(np.ones((2, 21)), np.ones((2, 21)), "real")
    assert outcome(lambda: fk.span_characterization(fp)) == outcome(lambda: oracles.span_by_enumeration(fp))


# --- lp norm witnesses ----------------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, np.inf])
def test_pnorm_matches_candidate_loop(rng, p):
    for k in range(12):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 15))
        M = random_matrix(rng, rows, cols, "complex" if k % 3 == 2 else "real")
        samples = int(rng.choice([0, 3, 40]))
        got = fk.pnorm_estimate(M, p, samples, seed=k)
        lower, upper = oracles.pnorm_by_candidates(M, p, samples, seed=k)
        assert got.upper == upper
        assert got.lower == pytest.approx(min(lower, upper), rel=RTOL)


def test_pnorm_integer_matrix_matches_candidate_loop():
    M = np.array([[2, -1, 0], [1, 3, 1]])
    for p in (1.0, 3.0, np.inf):
        lower, upper = oracles.pnorm_by_candidates(M, p, 20, seed=1)
        got = fk.pnorm_estimate(M, p, 20, seed=1)
        assert (got.lower, got.upper) == pytest.approx((min(lower, upper), upper), rel=RTOL)


def signed_permutation(rng, n):
    return np.eye(n)[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n)


@pytest.mark.parametrize("block_entries", [_BLOCK_ENTRIES, 60])  # 60: draws in blocks of >= 4 rows
@pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
def test_p_orthonormal_matches_candidate_loop(rng, monkeypatch, p, block_entries):
    monkeypatch.setattr(fk.numerics, "_BLOCK_ENTRIES", block_entries)
    tol = Tolerance()
    for k in range(30):
        n = int(rng.integers(1, 14))
        B = signed_permutation(rng, n)
        if k % 3 == 1:  # unit columns that are no longer p-orthonormal: a sign pattern or a draw fails
            B = B + 1e-3 * rng.standard_normal((n, n))
            B = B / np.sum(np.abs(B) ** p, axis=0) ** (1.0 / p)
        elif k % 3 == 2:
            B[:, -1] *= 1.5  # fails on a column norm
        if k % 5 == 4:
            B = B.astype(complex)
        got = fk.p_orthonormal_check(B, p, trials=25, seed=k, tol=tol)
        consistent, witness = oracles.p_orthonormal_by_candidates(B, p, trials=25, seed=k, tol=tol)
        assert got.consistent == consistent
        if consistent:
            assert got.witness is None
        else:
            assert np.array_equal(got.witness, witness)


def test_riesz_sampled_minimum_matches_candidate_loop(rng):
    for k in range(15):
        n = int(rng.integers(1, 5))
        M = random_matrix(rng, n + int(rng.integers(0, 3)), n, "complex" if k % 2 else "real")
        got = fk.riesz_p_bounds(M, 3.0, trials=30, seed=k)
        expected = max(oracles.riesz_sampled_min(M, 3.0, trials=30, seed=k), got.a.lower)
        assert got.a.upper == pytest.approx(expected, rel=RTOL)


# --- operator-valued cross identities ----------------------------------------------------

def test_cross_identities_match_pairwise_loop(rng):
    tol = Tolerance()
    for k in range(40):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        op = random_parseval_ovf(rng, n * d, d, n, "complex" if k % 2 else "real")
        A, Psi = list(op.A), list(op.A)
        if k % 4 == 1:  # one block leaves the orthonormal set
            j = int(rng.integers(0, n))
            A[j] = A[j] * (1.0 + 1e-6)
        elif k % 4 == 2:  # noise near the margin abs_tol + rel_tol * max(1, block max)
            Psi = [B + 10 ** rng.uniform(-9.7, -8.7) * rng.standard_normal(B.shape) for B in Psi]
        pair = OvfPair(tuple(A), tuple(Psi), op.field)
        expected = oracles.cross_identities_by_pairs(pair.A, pair.Psi, tol)
        assert _cross_identities_ok(pair, pair.A, pair.Psi, tol) == expected
        assert fk.verify_ovf(pair).orthonormal_ovf == (expected and fk.verify_ovf(pair).riesz_ovf
                                                      and fk.verify_ovf(pair).parseval)


def test_weighted_bessel_matches_member_loop(rng):
    for k in range(20):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        field = "complex" if k % 2 else "real"
        op = random_parseval_ovf(rng, n * d, d, n, field)
        c = rng.uniform(0.0, 2.0, n)
        pair = OvfPair(op.A, tuple(cj * Aj for cj, Aj in zip(c, op.A)), field)
        got = fk.weighted_onb_bessel_check(pair, c)
        expected = oracles.weighted_deficiency_by_members(pair.A, pair.Psi, c, pair.m, field == "complex")
        assert np.allclose(got.deficiency, expected, rtol=0.0, atol=RTOL * np.abs(expected).max())
        assert got.holds == fk.spectral(expected).is_psd


def test_weighted_bessel_planted_member_raises(rng):
    op = random_parseval_ovf(rng, 6, 2, 3)
    c = np.array([0.5, 1.0, 1.5])
    Psi = [cj * Aj for cj, Aj in zip(c, op.A)]
    Psi[1] = Psi[1] * (1.0 + 1e-6)
    result = outcome(lambda: fk.weighted_onb_bessel_check(OvfPair(op.A, tuple(Psi), "real"), c))
    assert result == ("NotWeightedOnb", "Psi_j must equal c_j A_j")


def test_weighted_onb_check_matches_outer_product_loop(rng):
    for k in range(20):
        m = int(rng.integers(1, 6))
        field = "complex" if k % 2 else "real"
        Q, _ = np.linalg.qr(random_matrix(rng, m, m, field))
        c = rng.uniform(0.0, 2.0, m)
        if k % 5 == 0:
            c[0] = 2.0 + 1e-12  # a weight at the top of the range: deficiency barely psd
        fp = FramePair(Q, Q * c, field)
        expected = oracles.weighted_onb_matrix_by_members(Q, c, field == "complex")
        assert fk.weighted_onb_check(fp, c).holds == fk.spectral(expected).is_psd


# --- group tables and representations ------------------------------------------------------

LOOP5 = np.array([  # a Latin square with identity 0 that is not associative
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
])


def relabelled(mul, perm):
    """The table of the same operation with element i renamed perm[i]."""
    out = np.empty_like(mul)
    out[np.ix_(perm, perm)] = perm[mul]
    return out


def table_cases(rng):
    idx = np.arange(4)
    z2z2 = np.bitwise_xor(idx[:, None], idx[None, :])
    yield LOOP5, 0
    yield z2z2, 0
    for n in (1, 2, 5, 6, 9):
        cyc = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        perm = rng.permutation(n)
        yield relabelled(cyc, perm), int(perm[0])  # a group, identity renamed
        yield cyc, int(rng.integers(0, n))  # the identity is misplaced unless 0
        broken = cyc.copy()
        broken[0, :2] = broken[0, 1::-1]  # two entries swapped
        yield broken, 0
        yield rng.integers(0, n, (n, n)), 0
    loop = relabelled(LOOP5, rng.permutation(5))
    yield loop, int(np.flatnonzero(np.all(loop == np.arange(5), axis=1))[0])


def test_group_table_checks_match_loops(rng):
    for mul, e in table_cases(rng):
        expected = outcome(lambda: oracles.check_group_table_by_loops(mul, e))
        got = outcome(lambda: GroupTable(mul, e))
        assert (None if isinstance(got, GroupTable) else got) == expected, (mul, e)
    assert outcome(lambda: GroupTable(LOOP5, 0)) == ("BadGroupTable", "table is not associative")


def test_left_translation_matches_loop():
    for table in (GroupTable.cyclic(7), GroupTable(relabelled(GroupTable.cyclic(6).mul, np.arange(6)[::-1]), 5)):
        for g in range(table.order):
            assert np.array_equal(table.left_translation(g), oracles.left_translation_by_loop(table.mul, g))


def rep_outcome(table, mats, tol):
    got = outcome(lambda: Representation(table, mats, tol))
    expected = outcome(lambda: oracles.check_representation_by_products(table.mul, mats, tol))
    return (None if isinstance(got, Representation) else got), expected


def test_representation_checks_match_dense_products(rng):
    tol = Tolerance()
    perm = rng.permutation(6)
    table = GroupTable(relabelled(GroupTable.cyclic(6).mul, perm), int(perm[0]))
    regular = tuple(table.left_translation(g) for g in range(6))
    swapped = list(regular)
    swapped[1], swapped[2] = swapped[2], swapped[1]  # one wrong matrix
    single = list(regular)
    single[3] = single[4]
    noisy = tuple(M + 1e-12 * rng.standard_normal(M.shape) for M in regular)  # dense, within tolerance
    rough = tuple(M + 1e-3 * rng.standard_normal(M.shape) for M in regular)
    signed = tuple(-M if g == 0 else M for g, M in enumerate(regular))
    cases = [
        (regular, tol),
        (tuple(swapped), tol),
        (tuple(single), tol),
        (noisy, tol),
        (rough, tol),
        (signed, tol),
        (tuple(M.astype(int) for M in regular), tol),
        (tuple(M.astype(complex) for M in regular), tol),
        (tuple(swapped), Tolerance(abs_tol=1.0)),  # a unit difference is within tolerance
        (regular[:5] + (np.eye(5),), tol),
    ]
    for mats, t in cases:
        got, expected = rep_outcome(table, mats, t)
        assert got == expected
    assert rep_outcome(table, tuple(swapped), tol)[0] == (
        "NotARepresentation", "matrices do not respect the group law")
    assert rep_outcome(table, tuple(swapped), Tolerance(abs_tol=1.0))[0] is None


def test_left_regular_matches_dense_products():
    for table in (GroupTable.cyclic(12), GroupTable(np.bitwise_xor(*np.ix_(range(8), range(8))), 0)):
        rep = fk.left_regular(table)
        oracles.check_representation_by_products(table.mul, rep.mats, Tolerance())


# --- sampled perturbation falsifier -----------------------------------------------------

@pytest.mark.parametrize("block_entries", [_BLOCK_ENTRIES, 50])  # 50: draws in blocks of 10 rows
@pytest.mark.parametrize("kind", [fk.analysis.SAMPLED_LINEAR, fk.analysis.SAMPLED_BESSEL])
def test_falsifier_reports_the_first_falsifying_sample(rng, monkeypatch, kind, block_entries):
    monkeypatch.setattr(fk.numerics, "_BLOCK_ENTRIES", block_entries)
    linear = kind == fk.analysis.SAMPLED_LINEAR
    falsified = 0
    for k in range(24):
        field = "complex" if k % 3 == 2 else "real"
        Q, _ = np.linalg.qr(random_matrix(rng, 3, 3, field))
        X = np.hstack([Q, random_matrix(rng, 3, 2, field)])
        fp = FramePair(X, X, field)
        if k % 4 == 3:  # some members flipped: s_y(h) can be negative
            Y = X * rng.uniform(-0.5, 1.05, 5)
        elif k % 2:
            Y = X * rng.uniform(0.3, 1.05, 5)
        else:
            Y = X * (1.0 + 0.01 * rng.standard_normal(5))
        alpha, beta, gamma = (0.1, 0.1, 0.2) if linear else (0.3, 0.1, 0.0)
        index = oracles.first_falsifying_sample(fp.X, fp.T, Y, alpha, beta, gamma, 300, k,
                                                linear, field == "complex", fp.tol)
        V = _gaussian_rows(np.random.default_rng(k), 300, 5 if linear else 3, field == "complex")
        mask = _falsifying_samples(fp, Y, V, alpha, beta, gamma, kind)
        assert (np.flatnonzero(mask)[0] if mask.any() else None) == index
        cert = fk.perturb_sampled(fp, Y, alpha, beta, gamma, 300, k, kind)
        assert cert.hypothesis_ok == (index is None)
        falsified += index is not None
    assert 0 < falsified < 24


def test_falsifier_negativity_of_s_y_matches_loop(rng):
    # gamma this large keeps the modulus inequality true, so only s_y(h) < 0 can falsify
    falsified = 0
    for k in range(12):
        field = "complex" if k % 3 == 2 else "real"
        X = random_matrix(rng, 3, 5, field)
        fp = FramePair(X, X, field)
        Y = X * rng.uniform(-0.5, 1.05, 5)
        index = oracles.first_falsifying_sample(fp.X, fp.T, Y, 0.0, 0.0, 50.0, 200, k,
                                                False, field == "complex", fp.tol)
        V = _gaussian_rows(np.random.default_rng(k), 200, 3, field == "complex")
        mask = _falsifying_samples(fp, Y, V, 0.0, 0.0, 50.0, fk.analysis.SAMPLED_BESSEL)
        assert (np.flatnonzero(mask)[0] if mask.any() else None) == index
        falsified += index is not None
    assert 0 < falsified < 12


# --- one decomposition per verdict ------------------------------------------------

def assert_same_report(got, want):
    for name in ("self_adjoint", "psd", "invertible", "is_bessel", "is_frame", "tight", "parseval"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("lower_a", "upper_b"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=RTOL, abs=0.0), name


def near_threshold(rng, m, field, tol, skew):
    """Hermitian S whose smallest |eigenvalue| is within a factor 2 of abs_tol,
    plus, when skew is set, a skew-Hermitian part up to half of abs_tol
    entrywise, so that S is Hermitian only within tolerance."""
    Q, _ = np.linalg.qr(random_matrix(rng, m, m, field))
    lam = rng.uniform(0.5, 2.5, m) * rng.choice([1.0, tol.abs_tol])
    lam[0] = rng.uniform(0.5, 2.0) * tol.abs_tol * rng.choice([1.0, -1.0])
    S = (Q * lam) @ Q.conj().T
    S = 0.5 * (S + S.conj().T)
    if skew:
        K = random_matrix(rng, m, m, field)
        K = K - K.conj().T
        S = S + K * (rng.uniform(0.0, 0.5) * tol.abs_tol / np.abs(K).max())
    return S


def test_frame_flags_match_svd_flags_on_random_singular_and_nonhermitian_s(rng):
    tol = Tolerance()
    for k in range(200):
        field = "complex" if k % 2 else "real"
        m = int(rng.integers(1, 7))
        fp = random_frame(rng, m, m + int(rng.integers(0, 5)), field)
        kind = k % 4
        if kind == 0:
            S = fk.frame_operator(fp)
        elif kind == 1:  # exactly singular: rank below m
            X = random_matrix(rng, m, max(m - 1, 1), field)
            S = X @ X.conj().T if m > 1 else np.zeros((1, 1))
        elif kind == 2:  # far from Hermitian
            S = random_matrix(rng, m, m, field)
        else:  # a frame pair's S, forced non-Hermitian by one planted entry
            S = fk.frame_operator(fp).copy()
            if m > 1:
                S[0, -1] += 1e-3
        assert_same_report(frame_flags(S, tol), oracles.frame_flags_by_svd(S, tol))


def test_frame_flags_match_svd_flags_near_the_threshold(rng):
    tol = Tolerance()
    for k in range(1000):
        S = near_threshold(rng, int(rng.integers(2, 7)), "complex" if k % 2 else "real", tol, skew=False)
        assert_same_report(frame_flags(S, tol), oracles.frame_flags_by_svd(S, tol))


def test_frame_flags_near_the_threshold_differ_only_where_svd_contradicted_itself(rng):
    """With a skew part K = S - H (H the Hermitian part), sigma_min(S) and
    min |lambda(H)| may fall on opposite sides of abs_tol, but only within
    ||K||_2 of it (Weyl).  The verdict can only move from frame to not a
    frame, since sigma_min(S) >= lambda_min(H): exactly the inputs where
    the SVD rule reported a frame whose lower bound is at most abs_tol."""
    tol = Tolerance()
    changed = 0
    for k in range(2000):
        S = near_threshold(rng, int(rng.integers(2, 7)), "complex" if k % 2 else "real", tol, skew=True)
        got, want = frame_flags(S, tol), oracles.frame_flags_by_svd(S, tol)
        assert got.is_frame == fk.spectral(S, tol).is_pd
        assert not got.is_frame or got.lower_a > tol.abs_tol
        assert not got.is_frame or smallest_singular_value(S) > tol.abs_tol
        if got.invertible == want.invertible:
            assert_same_report(got, want)
            continue
        H = 0.5 * (S + S.conj().T)
        gap = abs(np.abs(np.linalg.eigvalsh(H)).min() - tol.abs_tol)
        assert gap <= np.linalg.norm(S - H, 2) * (1 + 1e-9)
        assert not got.is_frame
        if want.is_frame:
            changed += 1
            assert want.lower_a <= tol.abs_tol
        assert_same_report(got, FrameReport(**{**vars(want), "invertible": got.invertible,
                                                  "is_frame": False, "lower_a": 0.0, "upper_b": 0.0,
                                                  "tight": False, "parseval": False}))
    assert changed > 0  # the contradicting verdicts are represented


def test_verify_ovf_riesz_matches_the_svd_gated_idempotent(rng):
    # d = 1 members: theta_A = I and theta_Psi = S^*, so the pair's frame operator is S
    tol = Tolerance()
    for k in range(400):
        field = "complex" if k % 2 else "real"
        m = int(rng.integers(2, 6))
        S = near_threshold(rng, m, field, tol, skew=k % 4 != 0)
        if k % 8 == 1:
            S = S + np.eye(m)
        op = OvfPair(tuple(np.eye(m)[j:j + 1] for j in range(m)),
                     tuple(S.conj().T[j:j + 1] for j in range(m)), field)
        ops = fk.ovf_operators(op)
        want = bool(frame_flags(ops.S, tol).is_frame and ops.P is not None
                    and tol.is_identity(ops.P))
        assert fk.verify_ovf(op).riesz_ovf == want


def test_herm_sqrt_gate_matches_spectral_gate(rng):
    tol = Tolerance()
    for k in range(600):
        field = "complex" if k % 2 else "real"
        m = int(rng.integers(1, 6))
        if k % 3 == 2:
            M = random_matrix(rng, m, m, field)  # not Hermitian (for m > 1)
        else:
            M = near_threshold(rng, max(m, 2), field, tol, skew=k % 3 == 1)
        got = outcome(lambda: fk.herm_sqrt(M, tol))
        want = outcome(lambda: oracles.herm_sqrt_by_spectral(M, tol))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_dilate_reuses_the_range_basis_bit_for_bit(rng, field):
    for k in range(20):
        m = int(rng.integers(1, 5))
        fp = random_parseval(rng, m, m + int(rng.integers(0, 5)), field, self_dual=k % 2 == 0)
        got = outcome(lambda: fk.dilate(fp))
        want = outcome(lambda: oracles.dilate_by_range_bases(fp))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.embed_dim == want.embed_dim
            assert np.array_equal(got.big.X, want.big.X) and np.array_equal(got.big.T, want.big.T)


def test_is_identity_matches_subtracting_the_identity(rng):
    tol = Tolerance()
    cases = [np.eye(3, dtype=int), np.eye(3, dtype=bool), 2 * np.eye(2, dtype=int),
             np.eye(3, dtype=np.float32), np.eye(2, dtype=np.complex64), np.zeros((0, 0))]
    for k in range(300):
        n = int(rng.integers(1, 6))
        E = random_matrix(rng, n, n, "complex" if k % 2 else "real")
        # deviations straddling the margin, on and off the diagonal
        cases.append(np.eye(n) + E * (rng.uniform(0.2, 2.0) * tol.abs_tol / np.abs(E).max()))
    cases.append(np.array([[1, 0], [3, 1]]))
    for A in cases:
        want = entry_max(A - np.eye(A.shape[0])) <= tol.margin(1.0, entry_max(A))
        assert tol.is_identity(A) == want


# --- the vector layer as the d = 1 case of the operator-valued layer ----------------

@pytest.mark.parametrize("field", ["real", "complex"])
def test_frame_idempotent_matches_the_frame_layer_solve(rng, field):
    for k in range(30):
        m = int(rng.integers(1, 5))
        fp = random_frame(rng, m, m + int(rng.integers(0, 4)), field)
        if k % 5 == 4:
            fp = FramePair(np.zeros_like(fp.X), fp.T, field)
        got = outcome(lambda: fk.frame_idempotent(fp))
        want = outcome(lambda: oracles.frame_idempotent_by_solve(fp))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_extend_tight_append_matches_the_column_form_bit_for_bit(rng, field):
    for k in range(30):
        m = int(rng.integers(1, 5))
        fp = random_frame(rng, m, m + int(rng.integers(0, 4)), field)
        lam = fk.verify(fp).upper_b + (rng.uniform(0.1, 2.0) if k % 4 else -0.5)
        if k % 7 == 6:
            fp = FramePair(fp.X, -fp.T, field)
        got = outcome(lambda: fk.extend_tight_append(fp, lam))
        want = outcome(lambda: oracles.extend_tight_append_by_columns(fp, lam))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got.X, want.X) and np.array_equal(got.T, want.T)


def near_weighted_onb(rng, k, tol):
    """Orthonormal x_j with tau_j = c_j x_j + e_j, some weights tiny and some
    c_j = 1 (deficiency with a zero eigenvalue), |e_j| straddling the margins."""
    field = "complex" if k % 2 else "real"
    m = int(rng.integers(1, 6))
    n = int(rng.integers(1, m + 1))
    X = np.linalg.qr(random_matrix(rng, m, m, field))[0][:, :n]
    c = rng.uniform(0.0, 2.0, n) * rng.choice([1.0, 1e-3], n)
    if k % 7 == 0:
        c[0] = 1.0
    E = random_matrix(rng, m, n, field)
    E *= rng.uniform(0.0, 3.5) * tol.abs_tol / np.abs(E).max(axis=0)
    E[:, rng.random(n) < 0.5] = 0.0
    return FramePair(X, X * c + E, field), c


def test_weighted_onb_check_moves_only_to_reject_near_the_margin(rng):
    """The shared body compares each tau_j with c_j x_j at its own scale and
    takes the deficiency I - sum (2 - c_j) tau_j x_j^* from the pair itself.
    The old verdict could only be True here (its deficiency has eigenvalues
    (1 - c_j)^2 and 1), so a moved verdict goes from accept to reject, and
    only where some tau_j misses c_j x_j by no more than the old global margin."""
    tol = Tolerance()
    moved = 0
    for k in range(1500):
        fp, c = near_weighted_onb(rng, k, tol)
        got = outcome(lambda: fk.weighted_onb_check(fp, c))
        want = outcome(lambda: oracles.weighted_onb_check_by_gram(fp, c))
        got = got[0] if isinstance(got, tuple) else got.holds  # messages name the OVF members
        want = want[0] if isinstance(want, tuple) else want
        if got == want:
            continue
        moved += 1
        assert want is True
        assert got in (False, "NotWeightedOnb")
        deviation = np.abs(fp.T - fp.X * c).max(axis=0)
        assert 0.0 < deviation.max() <= tol.margin(entry_max(fp.T), entry_max(fp.X * c))
    assert moved > 0


def test_weighted_onb_check_compares_each_member_at_its_own_scale():
    # tau_1 misses 0.01 x_1 by 1.5e-9: within the global margin set by the
    # weight 2 (3e-9), beyond member 1's own (1.01e-9)
    c = [2.0, 0.01]
    T = np.diag([2.0, 0.01 + 1.5e-9])
    with pytest.raises(fk.errors.NotWeightedOnb):
        fk.weighted_onb_check(FramePair(np.eye(2), T, "real"), c)
    assert oracles.weighted_onb_check_by_gram(FramePair(np.eye(2), T, "real"), c)


def near_similar(rng, k, tol):
    """A frame with member norms over three decades against a transformed copy
    whose members miss the transform by amounts straddling the margins."""
    field = "complex" if k % 2 else "real"
    m = int(rng.integers(1, 5))
    n = m + int(rng.integers(0, 4))
    fp = random_frame(rng, m, n, field)
    scale = 10.0 ** rng.uniform(-3.0, 0.0, n)
    fp = FramePair(fp.X * scale, fp.T * scale, field)
    A = random_matrix(rng, m, m, field) + 3.0 * np.eye(m)
    B = random_matrix(rng, m, m, field) + 3.0 * np.eye(m)
    E = random_matrix(rng, m, n, field)
    E *= rng.uniform(0.0, 3.5) * tol.abs_tol / np.abs(E).max(axis=0)
    E[:, rng.random(n) < 0.6] = 0.0
    if k % 3 == 0:
        return fp, FramePair(A @ fp.X, B @ fp.T + E, field)
    return fp, FramePair(A @ fp.X + E, B @ fp.T, field)


def test_similarity_moves_only_to_none_near_the_margin(rng):
    """Txy = (S^-1 T Y^*)^* against Y T^* S^-1 within 1e-12 relative; a verdict
    moves only from similar to None, where a member misses the transform
    within the old global margin but beyond its own."""
    tol = Tolerance()
    moved = same = 0
    for k in range(1000):
        fp, gq = near_similar(rng, k, tol)
        got = outcome(lambda: fk.similarity_detect(fp, gq))
        want = outcome(lambda: oracles.similarity_detect_by_inverse(fp, gq))
        if isinstance(want, tuple):
            assert got == want
            continue
        if got is not None and want is not None:
            same += 1
            for a, b in ((got.Txy, want.Txy), (got.Ttw, want.Ttw)):
                assert entry_max(a - b) <= 1e-12 * entry_max(b)
            continue
        if want is None:
            assert got is None
            continue
        moved += 1
        assert tol.mat_close(want.Txy @ fp.X, gq.X) and tol.mat_close(want.Ttw @ fp.T, gq.T)
    assert moved > 0 and same > 0


def test_similarity_compares_each_member_at_its_own_scale():
    # x_3 = 1e-3 e_2, and y_3 misses it by 1.5e-9 e_1: within the global
    # margin set by the unit members, beyond member 3's own
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-3]])
    fp = FramePair(X, X, "real")
    gq = FramePair(X + np.array([[0.0, 0.0, 1.5e-9], [0.0, 0.0, 0.0]]), X, "real")
    assert fk.similarity_detect(fp, gq) is None
    assert oracles.similarity_detect_by_inverse(fp, gq) is not None


# --- m x m quantities in place of N x N coefficient-space products ------------------

TOLERANCES = [Tolerance(), Tolerance(1e-6, 1e-4), Tolerance(0.0, 0.0),
              Tolerance(0.3, 0.3)]  # the last is too loose for the rank rule, so P is formed


def classify_cases(rng, field):
    """Pairs with N = m, N = m + 1 (also with one member scaled by 1e-6), N >> m,
    orthonormal bases and Parseval frames, under each of TOLERANCES."""
    cases = []
    for k in range(40):
        m = int(rng.integers(1, 6))
        n = [m, m + 1, m + 1, 8 * m + int(rng.integers(0, 20))][k % 4]
        fp = random_frame(rng, m, n, field) if k % 3 else random_parseval(rng, m, n, field,
                                                                          self_dual=k % 2 == 0)
        if k % 4 == 2:  # self-dual, so that S stays Hermitian
            X = random_matrix(rng, m, n, field)
            X[:, int(rng.integers(0, n))] *= 1e-6
            fp = FramePair(X, X, field)
        cases += [fp.with_tol(tol) for tol in TOLERANCES]
    # N = 2 > m = 1: the rank-one projection passes is_identity at abs_tol 0.6, so the
    # rule must not apply there (1/N = 0.5 is not above the margin)
    half = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    cases.append(FramePair(half, half, field, Tolerance(0.6, 0.0)))
    return cases


@pytest.mark.parametrize("field", ["real", "complex"])
def test_classify_verdicts_match_the_idempotent(rng, field):
    cases = classify_cases(rng, field)
    for fp in cases:
        got = outcome(lambda: fk.classify(fp))
        want = outcome(lambda: oracles.classify_by_idempotent(fp))
        if isinstance(want[0], str):  # not a frame under a loose abs_tol
            assert got == want
            continue
        assert (got.riesz_frame, got.orthonormal_frame) == want[:2]
        assert np.array_equal(got.cross_gram, want[2])
    skipped = [frames._rank_excludes_identity(fp.n, fp.m, fp.tol) for fp in cases]
    assert any(skipped) and not all(skipped)
    assert fk.classify(cases[-1]).riesz_frame  # the loose case forms P, which passes


def heterogeneous_ovf(rng, m, field):
    """A tight frame with members of codims 1, 2 and m (the tight-extension block)."""
    thetaA = random_matrix(rng, 3, m, field)
    op = OvfPair((thetaA[:1], thetaA[1:]), (thetaA[:1], thetaA[1:]), field)
    return fk.extend_tight_ovf(op, np.linalg.eigvalsh(thetaA.conj().T @ thetaA)[-1] + 1.0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_verify_ovf_verdicts_match_the_idempotent(rng, field):
    cases = []
    for k in range(30):
        m = int(rng.integers(1, 5))
        if k % 3 == 0:  # N = m: an invertible square theta_A split into members
            thetaA = random_matrix(rng, m, m, field) + 3.0 * np.eye(m)
            blocks = np.split(thetaA, [1] if m > 1 else [])
            op = OvfPair(tuple(blocks), tuple(blocks), field)
        elif k % 3 == 1:
            d = int(rng.integers(1, 4))
            op = random_parseval_ovf(rng, m, d, m + int(rng.integers(0, 6)), field)
        else:
            op = heterogeneous_ovf(rng, m, field)
        for tol in TOLERANCES:
            cases.append(OvfPair._stacked(op.theta_A, op.theta_Psi, op.codims, field, tol))
    half = np.array([[1.0, 1.0]]) / np.sqrt(2.0)  # N = 2 > m = 1, as in classify_cases
    cases += [fk.ovf_bridge(FramePair(half, half, field, Tolerance(0.6, 0.0))), fk.onb_blocks(3, 2)]
    for op in cases:
        got = fk.verify_ovf(op)
        assert (got.riesz_ovf, got.orthonormal_ovf) == oracles.verify_ovf_by_idempotent(op)
    assert fk.verify_ovf(cases[-2]).riesz_ovf and fk.verify_ovf(cases[-1]).orthonormal_ovf


@pytest.mark.parametrize("field", ["real", "complex"])
def test_double_sum_matches_the_gram_form(rng, field):
    for k in range(40):
        m = int(rng.integers(1, 6))
        fp = random_frame(rng, m, m + int(rng.integers(0, 30)), field)
        if k % 5 == 4:  # not a frame: the sums are still reported
            fp = FramePair(random_matrix(rng, m, fp.n, field), fp.T, field)
        got = fk.formulas_report(fp).double_sum
        want = oracles.double_sum_by_gram(fp)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_canonical_dual_matches_the_two_solves(rng, field):
    for k in range(30):
        m = int(rng.integers(1, 6))
        fp = random_frame(rng, m, m + int(rng.integers(0, 6)), field)
        got, want = fk.canonical_dual(fp), oracles.canonical_dual_by_solves(fp)
        for G, W in ((got.X, want.X), (got.T, want.T)):
            assert np.abs(G - W).max() <= 1e-12 * np.abs(W).max()


def planted_at_abs_tol(rng, m, field, tol):
    """Hermitian S whose smallest eigenvalue is abs_tol to within a few ulps of ||S||."""
    Q, _ = np.linalg.qr(random_matrix(rng, m, m, field))
    lam = rng.uniform(0.5, 2.5, m)
    lam[0] = tol.abs_tol + rng.uniform(-4.0, 4.0) * 1e-16
    S = (Q * lam) @ Q.conj().T
    return 0.5 * (S + S.conj().T)


def test_one_eigh_gate_moves_only_where_the_two_drivers_straddle_abs_tol(rng):
    """parsevalize's split mode and extend_tight_minimal decide "not a frame"
    from eigh's eigenvalues, frame_flags from eigvalsh's.  The two LAPACK
    drivers may differ in the last bits, so a verdict moves exactly where
    their lambda_min fall on opposite sides of abs_tol, within round-off."""
    tol = Tolerance()
    moved = 0
    for k in range(600):
        field = "complex" if k % 2 else "real"
        m = int(rng.integers(2, 6))
        S = planted_at_abs_tol(rng, m, field, tol)
        w, V = np.linalg.eigh(S)
        X = (V * np.sqrt(np.abs(w))) @ V.conj().T  # self-dual pair whose S is X X^*
        for fp, new, old in (
                (FramePair(np.eye(m), S, field), fk.parsevalize, oracles.parsevalize_split_by_inverse_root),
                (FramePair(X, X, field), fk.extend_tight_minimal, oracles.extend_tight_minimal_by_flags)):
            got, want = outcome(lambda: new(fp)), outcome(lambda: old(fp))
            H = 0.5 * (fk.frame_operator(fp) + fk.frame_operator(fp).conj().T)
            by_eigh, by_eigvalsh = np.linalg.eigh(H)[0][0], np.linalg.eigvalsh(H)[0]
            straddle = (by_eigh > tol.abs_tol) != (by_eigvalsh > tol.abs_tol)
            assert isinstance(got, tuple) == (by_eigh <= tol.abs_tol)
            assert (isinstance(got, tuple) != isinstance(want, tuple)) == straddle
            if straddle:
                moved += 1
                assert abs(by_eigh - by_eigvalsh) <= 64 * np.finfo(float).eps * np.abs(H).max() * m
            elif isinstance(got, tuple):
                assert got == want
    assert moved > 0


@pytest.mark.parametrize("field", ["real", "complex"])
def test_one_eigh_results_match_the_two_decomposition_forms(rng, field):
    for k in range(30):
        m = int(rng.integers(1, 6))
        fp = random_frame(rng, m, m + int(rng.integers(0, 6)), field)
        got, want = fk.parsevalize(fp), oracles.parsevalize_split_by_inverse_root(fp)
        for G, W in ((got.X, want.X), (got.T, want.T)):
            assert np.abs(G - W).max() <= 1e-12 * np.abs(W).max()
        sd = FramePair(fp.X, fp.X, field)
        got, want = fk.extend_tight_minimal(sd), oracles.extend_tight_minimal_by_flags(sd)
        assert np.array_equal(got.X, want.X) and np.array_equal(got.T, want.T)
    planted = FramePair(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), field)  # S singular
    assert outcome(lambda: fk.parsevalize(planted))[0] == "NotAFrame"
    assert outcome(lambda: fk.extend_tight_minimal(planted))[0] == "NotAFrame"


def ovf_family(rng, field, codims, m):
    A = tuple(random_matrix(rng, d, m, field) for d in codims)
    Psi = tuple(random_matrix(rng, d, m, field) for d in codims)
    return OvfPair(A, Psi, field)


def test_tensor_ovf_matches_the_member_loop_bit_for_bit(rng):
    for k in range(60):
        f1, f2 = ("real", "complex")[k % 2], ("real", "complex")[(k // 2) % 2]
        codims1 = tuple(int(d) for d in rng.integers(1, 4, int(rng.integers(1, 5))))
        codims2 = tuple(int(d) for d in rng.integers(1, 4, int(rng.integers(1, 5))))
        op1 = ovf_family(rng, f1, codims1, int(rng.integers(1, 4)))
        op2 = ovf_family(rng, f2, codims2, int(rng.integers(1, 4)))
        got, want = fk.tensor_ovf(op1, op2), oracles.tensor_ovf_by_members(op1, op2)
        assert (got.codims, got.field) == (want.codims, want.field)
        assert np.array_equal(got.theta_A, want.theta_A)
        assert np.array_equal(got.theta_Psi, want.theta_Psi)
    n1, d1, n2, d2 = 3, 2, 4, 3
    op1 = ovf_family(rng, "real", (d1,) * n1, 2)
    op2 = ovf_family(rng, "real", (d2,) * n2, 2)
    perm = oracles.tensor_shuffle_permutation(n1, d1, n2, d2)
    assert np.array_equal(fk.tensor_ovf(op1, op2).theta_A, np.kron(op1.theta_A, op2.theta_A)[perm])


def test_compose_ovf_matches_the_member_loop(rng):
    # one product per family sums the inner dimension in BLAS's order, so
    # entries agree to round-off rather than bit for bit
    for k in range(60):
        fi, fo = ("real", "complex")[k % 2], ("real", "complex")[(k // 2) % 2]
        d, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        inner = ovf_family(rng, fi, (d,) * int(rng.integers(1, 5)), m)
        outer = ovf_family(rng, fo, tuple(int(c) for c in rng.integers(1, 4, int(rng.integers(1, 5)))), d)
        got, want = fk.compose_ovf(outer, inner), oracles.compose_ovf_by_members(outer, inner)
        assert (got.codims, got.field) == (want.codims, want.field)
        for G, W in ((got.theta_A, want.theta_A), (got.theta_Psi, want.theta_Psi)):
            assert np.abs(G - W).max() <= 1e-14 * np.abs(W).max()
    hetero = ovf_family(rng, "real", (1, 2), 2)
    assert outcome(lambda: fk.compose_ovf(hetero, hetero)) == outcome(
        lambda: oracles.compose_ovf_by_members(hetero, hetero))


# --- m x m groupings, the shared duality body and the io writer ------------------------

def near_admissibility(rng, m, n, field, side):
    """(fp, U, -U) for a self-dual frame, with lambda_min(W) a relative 1e-6 from abs_tol.

    W = S^-1 - t U Q U^* for the projection Q = I - X^* S^-1 X, so t = 1 sits
    at the boundary after U is rescaled by a bisection on lambda_min.
    """
    fp = random_frame(rng, m, n, field)
    fp = FramePair(fp.X, fp.X, field)
    S = fp.X @ fp.X.conj().T
    Sinv = np.linalg.inv(S)
    U = random_matrix(rng, m, n, field)
    Q = np.eye(n) - fp.X.conj().T @ Sinv @ fp.X
    M = U @ Q @ U.conj().T
    M = 0.5 * (M + M.conj().T)
    lo, hi = 0.0, 1.0
    while np.linalg.eigvalsh(Sinv - hi * M)[0] > fp.tol.abs_tol:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.linalg.eigvalsh(Sinv - mid * M)[0] > fp.tol.abs_tol else (lo, mid)
    U = np.sqrt(lo * (1.0 + side * 1e-6)) * U
    return fp, U, -U


@pytest.mark.parametrize("field", ["real", "complex"])
def test_make_dual_from_params_matches_the_cross_form(rng, field):
    cases = []
    for k in range(60):
        m = int(rng.integers(1, 5))
        n = m + int(rng.integers(0, 6))
        if k % 3 == 2:
            cases.append(near_admissibility(rng, m, n, field, 1.0 if k % 2 else -1.0))
            continue
        fp = random_frame(rng, m, n, field)
        if k % 3 == 1:
            fp = FramePair(fp.X, fp.X, field)  # self-dual: U = V keeps W Hermitian
        U = 0.3 * random_matrix(rng, m, n, field)
        cases.append((fp, U, U if k % 2 else 0.3 * random_matrix(rng, m, n, field)))
    outcomes = []
    for fp, U, V in cases:
        got = outcome(lambda: fk.make_dual_from_params(fp, U, V))
        want = outcome(lambda: oracles.make_dual_from_params_by_cross(fp, U, V))
        outcomes.append(isinstance(want, tuple))
        if isinstance(want, tuple):
            assert got == want
            continue
        assert got.field == want.field
        for G, W in ((got.X, want.X), (got.T, want.T)):
            assert np.abs(G - W).max() <= 1e-12 * np.abs(W).max()
    assert any(outcomes) and not all(outcomes)


def test_duality_relation_moves_only_in_the_direction_of_its_scale(rng):
    """Verdicts move to orthogonal only where N max max exceeds the old max(sum, 1).

    And they move away from orthogonal only where it is below.
    """
    moved = 0
    for k in range(200):
        field = "complex" if k % 2 else "real"
        m = int(rng.integers(1, 4))
        n = 2 * m + int(rng.integers(0, 3))
        F = np.linalg.qr(random_matrix(rng, n, n, field))[0].conj().T
        s = 10.0 ** rng.uniform(-3, 5)
        fp = FramePair(s * F[:m], s * F[:m], field)
        gq = FramePair(s * F[m:2 * m], s * F[m:2 * m], field)
        if k % 4 == 3:  # not orthogonal
            gq = FramePair(gq.X + 1e-9 * s * random_matrix(rng, m, n, field), gq.T, field)
        op1, op2 = fk.ovf_bridge(fp), fk.ovf_bridge(gq)
        got = fk.duality_relation(op1, op2)
        dual, orthogonal = oracles.duality_relation_by_sum_scale(op1, op2)
        assert got.dual == dual
        if got.orthogonal != orthogonal:
            moved += 1
            sums = (op2.theta_Psi.conj().T @ op1.theta_A, op2.theta_A.conj().T @ op1.theta_Psi)
            old = max(max(entry_max(M) for M in sums), 1.0)
            new = (n * entry_max(op2.theta_Psi) * entry_max(op1.theta_A),
                   n * entry_max(op2.theta_A) * entry_max(op1.theta_Psi))
            # a sum that now passes had the larger scale, one that now fails the smaller
            assert max(new) > old if got.orthogonal else min(new) < old
    assert moved


@pytest.mark.parametrize("field", ["real", "complex"])
def test_matrix_writer_matches_the_scalar_writer_byte_for_byte(rng, field):
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0 / 3.0, 1e-17])
    for k in range(300):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        M = random_matrix(rng, rows, cols, field) * 10.0 ** rng.integers(-300, 300)
        if k % 3 == 0:  # parts set one by one, so a -0.0 survives in either
            M = np.zeros((rows, cols), dtype=M.dtype)
            M.real = rng.choice(special, (rows, cols))
            if field == "complex":
                M.imag = rng.choice(special, (rows, cols))
        got = fio.dumps({"M": fio._matrix_out(M, field)})
        assert got == fio.dumps({"M": oracles.matrix_out_by_scalars(M, field)})


@pytest.mark.parametrize("field", ["real", "complex"])
def test_matrix_reader_matches_the_scalar_reader_bit_for_bit(rng, field):
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0 / 3.0, 1e-17])
    for k in range(300):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        M = random_matrix(rng, rows, cols, field) * 10.0 ** rng.integers(-300, 300)
        if k % 3 == 0:  # parts set one by one, so a -0.0 survives in either
            M = np.zeros((rows, cols), dtype=M.dtype)
            M.real = rng.choice(special, (rows, cols))
            if field == "complex":
                M.imag = rng.choice(special, (rows, cols))
        doc = json.loads(fio.dumps({"M": fio._matrix_out(M, field)}))["M"]
        got, want = fio._matrix_in(doc, field), oracles.matrix_in_by_scalars(doc, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here
        assert got.tobytes() == np.asarray(M, dtype=want.dtype).tobytes()
