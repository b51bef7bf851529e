"""The batched routines against the per-element loops they replaced.

Each library routine must reach the loop's verdict, witness and exception
(class and message) on seeded random inputs, planted failures included;
interval endpoints and matrices agree to 1e-13 relative.
"""

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, GroupTable, OvfPair, Representation, Tolerance
from framekit.analysis import _falsifying_samples
from framekit.errors import FramekitError
from framekit.numerics import _BLOCK_ENTRIES, _gaussian_blocks, _gaussian_rows, _sign_patterns
from framekit.ovf import _cross_identities_ok

import oracles
from conftest import random_matrix, random_parseval_ovf

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
