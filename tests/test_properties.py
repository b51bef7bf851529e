"""Identities the theory promises, checked on drawn inputs with hypothesis.

Each test draws (seed, m, n, field, ...) and builds its pair with the
seeded conftest generators.  derandomize=True fixes the examples, so every
run checks the same ones.  Round trips compare bit for bit: shapes,
dtypes and the bytes of every array.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import framekit as fk
import framekit.io as fio

from conftest import (
    orthonormal_rows,
    random_frame,
    random_matrix,
    random_parseval,
    random_parseval_ovf,
    random_parseval_pframe,
    rng_for,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
SEEDS = st.integers(0, 2**32 - 1)
FIELDS = st.sampled_from(["real", "complex"])


@st.composite
def sizes(draw):
    """(m, n) with 1 <= m <= 8 and m <= n <= m + 8."""
    m = draw(st.integers(1, 8))
    return m, draw(st.integers(m, m + 8))


@PROPERTY
@given(seed=SEEDS, mn=sizes(), field=FIELDS, self_dual=st.booleans())
def test_a_dilation_compresses_back_to_the_input(seed, mn, field, self_dual):
    m, n = mn
    fp = random_parseval(rng_for(seed), m, n, field, self_dual=self_dual)
    big = fk.dilate(fp).big
    assert fk.classify(big).orthonormal_frame
    assert np.array_equal(big.X[:m], fp.X) and np.array_equal(big.T[:m], fp.T)


@PROPERTY
@given(seed=SEEDS, m=st.integers(1, 6), d=st.integers(1, 3), spare=st.integers(0, 6), field=FIELDS)
def test_an_ovf_dilation_compresses_back_to_the_input(seed, m, d, spare, field):
    n = -(-m // d) + spare  # enough members that n d >= m
    op = random_parseval_ovf(rng_for(seed), m, d, n, field)
    big = fk.dilate_ovf(op)
    assert fk.verify_ovf(big).orthonormal_ovf
    assert np.array_equal(big.theta_A[:, :m], op.theta_A)
    assert np.array_equal(big.theta_Psi[:, :m], op.theta_Psi)


def bits(A):
    """An array as its shape, dtype and C-order bytes: equal exactly when bit for bit equal."""
    return A.shape, A.dtype.str, A.tobytes()


def frame_pair_bits(fp):
    return type(fp), fp.field, fp.tol, bits(fp.X), bits(fp.T)


@PROPERTY
@given(seed=SEEDS, mn=sizes(), field=FIELDS)
def test_the_stacked_view_rebuilds_the_vector_pair(seed, mn, field):
    fp = random_frame(rng_for(seed), *mn, field)
    assert fp.codims == (1,) * fp.n
    back = fk.FramePair._stacked(fp.theta_A, fp.theta_Psi, fp.codims, fp.tol)
    assert frame_pair_bits(back) == frame_pair_bits(fp)


@PROPERTY
@given(seed=SEEDS, mn=sizes(), field=FIELDS)
def test_the_bridge_and_its_inverse_round_trip(seed, mn, field):
    fp = random_frame(rng_for(seed), *mn, field)
    op = fk.ovf_bridge(fp)
    assert op.codims == fp.codims
    assert frame_pair_bits(fk.ovf_bridge_inverse(op)) == frame_pair_bits(fp)


def through_text(to_dict, from_dict, pair):
    return from_dict(json.loads(fio.dumps(to_dict(pair))))


@PROPERTY
@given(seed=SEEDS, mn=sizes(), field=FIELDS)
def test_a_frame_pair_survives_the_io_round_trip(seed, mn, field):
    fp = random_frame(rng_for(seed), *mn, field)
    back = through_text(fio.frame_pair_to_dict, fio.frame_pair_from_dict, fp)
    assert frame_pair_bits(back) == frame_pair_bits(fp)


@PROPERTY
@given(seed=SEEDS, m=st.integers(1, 5), codims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
       field=FIELDS)
def test_an_ovf_pair_survives_the_io_round_trip(seed, m, codims, field):
    rng = rng_for(seed)
    cuts = np.cumsum(codims[:-1])
    op = fk.OvfPair(tuple(np.split(random_matrix(rng, sum(codims), m, field), cuts)),
                    tuple(np.split(random_matrix(rng, sum(codims), m, field), cuts)), field)
    back = through_text(fio.ovf_pair_to_dict, fio.ovf_pair_from_dict, op)
    assert ((type(back), back.field, back.tol, back.codims, bits(back.theta_A), bits(back.theta_Psi))
            == (type(op), op.field, op.tol, op.codims, bits(op.theta_A), bits(op.theta_Psi)))


@PROPERTY
@given(seed=SEEDS, mn=sizes(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]), field=FIELDS)
def test_a_p_frame_pair_survives_the_io_round_trip(seed, mn, p, field):
    pf = random_parseval_pframe(rng_for(seed), *mn, p, field)
    back = through_text(fio.pframe_pair_to_dict, fio.pframe_pair_from_dict, pf)
    assert ((type(back), back.p, back.field, back.tol, bits(back.F), bits(back.T))
            == (type(pf), pf.p, pf.field, pf.tol, bits(pf.F), bits(pf.T)))


@PROPERTY
@given(seed=SEEDS, m=st.integers(1, 6), field=FIELDS, self_dual=st.booleans(),
       depth=st.floats(0.0, 4.75), cut=st.integers(0, 5))
def test_a_square_frame_is_riesz(seed, m, field, self_dual, depth, cut):
    """N = m: every pair that verify calls a frame is Riesz, in both layers.

    X = U diag(s) V^* with sigma_min = 10^-depth, so lambda_min(X X^*) runs
    from 1 down past the frame gate abs_tol = 1e-9 (depth 4.5).  The dual
    family is X itself, or W X^-* with W Hermitian positive of the same
    lambda_min, so that S = W.  The OVF splits theta_A's m rows into two
    members after row 1 + cut mod (m - 1).
    """
    rng = rng_for(seed)
    s = np.geomspace(1.0, 10.0 ** -depth, m)
    X = (orthonormal_rows(rng, m, m, field) * s) @ orthonormal_rows(rng, m, m, field)
    if self_dual:
        T = X
    else:
        Q = orthonormal_rows(rng, m, m, field)
        T = ((Q * s ** 2) @ Q.conj().T) @ np.linalg.inv(X).conj().T
    fp = fk.FramePair(X, T, field)
    frame = fk.verify(fp).is_frame
    if not frame:
        return
    assert fk.classify(fp).riesz_frame
    assert fk.verify_ovf(fk.ovf_bridge(fp)).riesz_ovf
    cuts = [1 + cut % (m - 1)] if m > 1 else []
    report = fk.verify_ovf(fk.OvfPair(tuple(np.split(fp.theta_A, cuts)),
                                      tuple(np.split(fp.theta_Psi, cuts)), field))
    assert report.is_frame and report.riesz_ovf


def drawn_pair(rng, m, n, kind, field):
    """A vector pair of the drawn kind.  A frame needs n >= m, so a short
    draw of a frame kind is Gaussian: no frame, by counting."""
    if kind == "frame" and n >= m:
        return random_frame(rng, m, n, field)
    if kind == "parseval" and n >= m:
        return random_parseval(rng, m, n, field)
    X = random_matrix(rng, m, n, field)
    return fk.FramePair(X, X if kind == "self_dual" else random_matrix(rng, m, n, field), field)


KINDS = st.sampled_from(["frame", "parseval", "self_dual", "gaussian"])


def flags_and_bounds(report):
    """Every field of a verify or verify_ovf report but the bounds, and the bounds."""
    flags = dict(vars(report))
    bounds = flags.pop("lower_a"), flags.pop("upper_b")
    return flags, bounds


def classified(fp):
    try:
        result = fk.classify(fp)
    except fk.errors.FramekitError as exc:
        return type(exc).__name__
    return result.riesz_frame, result.orthonormal_frame


def assert_bounds_moved_by_round_off(got, expected, pair):
    """Permuting members reorders the sums that form S; each bound may move by
    8 eps ||theta_A||_F ||theta_Psi||_F (3 eps at most on 6000 seeded draws)."""
    slack = 8 * np.finfo(float).eps * np.linalg.norm(pair.theta_A) * np.linalg.norm(pair.theta_Psi)
    assert all(abs(g - e) <= slack for g, e in zip(got, expected)), (got, expected, slack)


@PROPERTY
@given(seed=SEEDS, m=st.integers(1, 8), n=st.integers(1, 16), kind=KINDS, field=FIELDS)
def test_permuting_members_keeps_every_verdict(seed, m, n, kind, field):
    """Columns of X and T permuted together: the same flags from verify and
    classify, and the bounds within round-off."""
    rng = rng_for(seed)
    fp = drawn_pair(rng, m, n, kind, field)
    perm = rng.permutation(n)
    moved = fk.FramePair(fp.X[:, perm], fp.T[:, perm], field)
    (flags, bounds), (moved_flags, moved_bounds) = (flags_and_bounds(fk.verify(p)) for p in (fp, moved))
    assert moved_flags == flags
    assert_bounds_moved_by_round_off(moved_bounds, bounds, fp)
    assert classified(moved) == classified(fp)


@PROPERTY
@given(seed=SEEDS, m=st.integers(1, 8), codims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
       kind=KINDS, field=FIELDS)
def test_permuting_ovf_members_keeps_every_verdict(seed, m, codims, kind, field):
    """Member blocks A_j, Psi_j permuted together, of equal or unequal sizes:
    the same verify_ovf flags, and the bounds within round-off."""
    rng = rng_for(seed)
    fp = drawn_pair(rng, m, sum(codims), kind, field)
    cuts = np.cumsum(codims[:-1])
    A, Psi = np.split(fp.theta_A, cuts), np.split(fp.theta_Psi, cuts)
    perm = rng.permutation(len(codims))
    op = fk.OvfPair(tuple(A), tuple(Psi), field)
    moved = fk.OvfPair(tuple(A[j] for j in perm), tuple(Psi[j] for j in perm), field)
    (flags, bounds), (moved_flags, moved_bounds) = (flags_and_bounds(fk.verify_ovf(p)) for p in (op, moved))
    assert moved_flags == flags
    assert_bounds_moved_by_round_off(moved_bounds, bounds, op)
