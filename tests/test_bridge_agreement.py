"""The vector layer against the operator-valued layer through the rank-one bridge.

A vector pair is the d = 1 operator-valued pair theta_A = X^*,
theta_Psi = T^*, and each operation below has one body shared by both
layers.  So the frame-layer result and the OVF result taken through
ovf_bridge / ovf_bridge_inverse must agree exactly: the same verdict, the
same exception class and bit-identical members, on seeded real and
complex inputs with planted failures.
"""

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair
from framekit.errors import FramekitError

from conftest import random_frame, random_matrix, random_parseval

FIELDS = ["real", "complex"]


def outcome(fn):
    """The call's result, or the exception class name."""
    try:
        return fn()
    except FramekitError as exc:
        return type(exc).__name__


def same_members(fp: FramePair, other: FramePair) -> bool:
    return np.array_equal(fp.X, other.X) and np.array_equal(fp.T, other.T)


@pytest.mark.parametrize("field", FIELDS)
def test_idempotent_through_the_bridge(rng, field):
    for k in range(30):
        m = int(rng.integers(1, 5))
        fp = random_frame(rng, m, m + int(rng.integers(0, 4)), field)
        if k % 5 == 4:  # planted non-frame: one direction missing
            fp = FramePair(fp.X[:, :1] @ random_matrix(rng, 1, fp.n, field), fp.T, field)
        op = fk.ovf_bridge(fp)
        got = outcome(lambda: fk.frame_idempotent(fp))
        report = fk.verify_ovf(op)
        if isinstance(got, str):
            assert got == "NotAFrame" and not report.is_frame
            continue
        assert np.array_equal(got, fk.ovf_operators(op).P)
        assert fk.classify(fp).riesz_frame == report.riesz_ovf


@pytest.mark.parametrize("field", FIELDS)
def test_dilation_through_the_bridge(rng, field):
    cases = []
    for k in range(30):
        m = int(rng.integers(1, 5))
        cases.append(random_parseval(rng, m, m + int(rng.integers(0, 5)), field, self_dual=k % 3 == 0))
    cases.append(random_frame(rng, 2, 4, field))  # not Parseval
    cases.append(FramePair(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]), field))  # Parseval, ranges differ
    for fp in cases:
        got = outcome(lambda: fk.dilate(fp))
        bridged = outcome(lambda: fk.ovf_bridge_inverse(fk.dilate_ovf(fk.ovf_bridge(fp))))
        if isinstance(got, str):
            assert got == bridged
        else:
            assert same_members(got.big, bridged)
    assert outcome(lambda: fk.dilate(cases[-2])) == "NotParseval"
    assert outcome(lambda: fk.dilate(cases[-1])) == "RangesDiffer"


@pytest.mark.parametrize("field", FIELDS)
def test_tight_extension_through_the_bridge(rng, field):
    for k in range(30):
        m = int(rng.integers(1, 5))
        fp = random_frame(rng, m, m + int(rng.integers(0, 4)), field)
        top = fk.verify(fp).upper_b
        lam = top + (rng.uniform(0.1, 2.0) if k % 4 else -0.5)  # every fourth is too small
        if k % 7 == 6:  # not Bessel: S = -S_fp
            fp = FramePair(fp.X, -fp.T, field)
        got = outcome(lambda: fk.extend_tight_append(fp, lam))
        op = outcome(lambda: fk.extend_tight_ovf(fk.ovf_bridge(fp), lam))
        if isinstance(got, str):
            assert got == op and got in ("LambdaTooSmall", "NotBessel")
        else:
            # the appended m x m member is the column block B = B^* of the vector layer
            assert op.codims == (1,) * fp.n + (fp.m,)
            assert np.array_equal(op.theta_A, got.X.conj().T)
            assert np.array_equal(op.theta_Psi, got.T.conj().T)


@pytest.mark.parametrize("field", FIELDS)
def test_weighted_onb_check_through_the_bridge(rng, field):
    for k in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, m + 1))
        X = np.linalg.qr(random_matrix(rng, m, m, field))[0][:, :n]
        c = rng.uniform(0.0, 2.0, n)
        kind = k % 5
        if kind == 1:
            c[0] = 2.5  # weight above 2
        elif kind == 2:
            X = X * 1.5  # not orthonormal
        T = X * c
        if kind == 3:
            T[:, 0] = T[:, 0] + 1e-4  # tau_0 is not c_0 x_0
        elif kind == 4:
            T[:, 0] = T[:, 0] + 3e-9 * rng.uniform(0.0, 1.0)  # near the margin
        fp = FramePair(X, T, field)
        got = outcome(lambda: fk.weighted_onb_check(fp, c))
        op = outcome(lambda: fk.weighted_onb_bessel_check(fk.ovf_bridge(fp), c))
        if isinstance(got, str):
            assert got == op
        else:
            assert got.holds == op.holds
    assert outcome(lambda: fk.weighted_onb_check(FramePair(np.eye(1), np.eye(1), field), [2.5])) \
        == "WeightTooLarge"


@pytest.mark.parametrize("field", FIELDS)
def test_similarity_through_the_bridge(rng, field):
    for k in range(40):
        m = int(rng.integers(1, 4))
        n = m + int(rng.integers(0, 3))
        fp = random_frame(rng, m, n, field)
        A = random_matrix(rng, m, m, field) + 3.0 * np.eye(m)
        B = random_matrix(rng, m, m, field) + 3.0 * np.eye(m)
        kind = k % 4
        if kind == 1:
            gq = random_frame(rng, m, n, field)  # unrelated: not similar
        elif kind == 2:
            gq = FramePair(A @ fp.X, np.zeros_like(fp.T), field)  # not a frame
        else:
            gq = FramePair(A @ fp.X, B @ fp.T, field)
        got = outcome(lambda: fk.similarity_detect(fp, gq))
        op = outcome(lambda: fk.right_similarity_detect(fk.ovf_bridge(fp), fk.ovf_bridge(gq)))
        if isinstance(got, str) or got is None:
            assert got == op
        else:
            assert np.array_equal(got.Txy, op.RAB.conj().T)
            assert np.array_equal(got.Ttw, op.RPsiPhi.conj().T)
    fp = random_frame(rng, 2, 3, field)
    assert outcome(lambda: fk.similarity_detect(fp, random_frame(rng, 2, 4, field))) == "ShapeMismatch"
    assert outcome(lambda: fk.right_similarity_detect(
        fk.ovf_bridge(fp), fk.ovf_bridge(random_frame(rng, 2, 4, field)))) == "ShapeMismatch"


@pytest.mark.parametrize("field", FIELDS)
def test_canonical_dual_through_the_bridge(rng, field):
    for k in range(30):
        m = int(rng.integers(1, 5))
        fp = random_frame(rng, m, m + int(rng.integers(0, 4)), field)
        if k % 5 == 4:  # planted non-frame: one direction missing
            fp = FramePair(fp.X[:, :1] @ random_matrix(rng, 1, fp.n, field), fp.T, field)
        got = outcome(lambda: fk.canonical_dual(fp))
        via = outcome(lambda: fk.ovf_bridge_inverse(fk.canonical_dual_ovf(fk.ovf_bridge(fp))))
        if isinstance(got, str):
            assert got == via == "NotAFrame"
        else:
            assert same_members(got, via)


def orthogonal_pair(rng, m, n, field, scale):
    """Two frames whose members live on complementary rows of a unitary, scaled by scale.

    Omega X^* and Y T^* vanish in exact arithmetic; the computed sums are
    round-off of size scale^2 eps.
    """
    F = np.linalg.qr(random_matrix(rng, n, n, field))[0].conj().T
    pairs = []
    for rows in (F[:m], F[m:2 * m]):
        U = random_matrix(rng, m, m, field) + 3.0 * np.eye(m)
        pairs.append(FramePair(scale * U @ rows, scale * np.linalg.inv(U).conj().T @ rows, field))
    return pairs


@pytest.mark.parametrize("field", FIELDS)
def test_duality_through_the_bridge(rng, field):
    scales = 10.0 ** np.arange(-3, 6)
    for k in range(45):
        m = int(rng.integers(1, 4))
        n = 2 * m + int(rng.integers(0, 3))
        kind = k % 5
        if kind < 3:  # exactly orthogonal, at every scale from 1e-3 to 1e5
            fp, gq = orthogonal_pair(rng, m, n, field, scales[k % len(scales)])
        elif kind == 3:
            fp = random_frame(rng, m, n, field)
            gq = fk.canonical_dual(fp)
        else:
            fp, gq = random_frame(rng, m, n, field), random_frame(rng, m, n, field)
        rel = fk.duality_relation(fk.ovf_bridge(fp), fk.ovf_bridge(gq))
        assert (fk.is_dual(fp, gq), fk.is_orthogonal(fp, gq)) == (rel.dual, rel.orthogonal)
        assert rel.orthogonal == (kind < 3) and rel.dual == (kind == 3)
    fp = random_frame(rng, 2, 3, field)
    other = random_frame(rng, 2, 4, field)
    assert outcome(lambda: fk.is_dual(fp, other)) == outcome(lambda: fk.is_orthogonal(fp, other)) \
        == outcome(lambda: fk.duality_relation(fk.ovf_bridge(fp), fk.ovf_bridge(other))) \
        == "ShapeMismatch"


def test_tensor_product_through_the_bridge(rng):
    for k in range(40):
        fields = (FIELDS[k % 2], FIELDS[(k // 2) % 2])
        fp = random_frame(rng, int(rng.integers(1, 4)), 4, fields[0])
        gq = random_frame(rng, int(rng.integers(1, 4)), int(rng.integers(3, 6)), fields[1])
        got = fk.tensor_product(fp, gq)
        via = fk.ovf_bridge_inverse(fk.tensor_ovf(fk.ovf_bridge(fp), fk.ovf_bridge(gq)))
        assert got.field == via.field and same_members(got, via)


@pytest.mark.parametrize("field", FIELDS)
def test_classify_orthonormal_through_the_bridge(rng, field):
    cases = []
    for k in range(40):
        m = int(rng.integers(1, 5))
        U = random_matrix(rng, m, m, field) + 3.0 * np.eye(m)
        Q = np.linalg.qr(U)[0]
        kind = k % 5
        if kind == 0:  # orthonormal basis
            cases.append(FramePair(Q, Q, field))
        elif kind == 1:  # biorthogonal Riesz basis: orthonormal as a dual pair
            cases.append(FramePair(U, np.linalg.inv(U).conj().T, field))
        elif kind == 2:  # Riesz basis, not Parseval
            cases.append(FramePair(2.0 * Q, Q, field))
        elif kind == 3:  # Parseval with n > m
            cases.append(random_parseval(rng, m, m + 1 + int(rng.integers(0, 3)), field))
        else:  # a self-dual basis near the Parseval and block-identity margins
            Qe = Q + 1e-9 * rng.uniform(-1.0, 1.0) * random_matrix(rng, m, m, field)
            cases.append(FramePair(Qe, Qe, field))
    for fp in cases:
        got = fk.classify(fp)
        report = fk.verify_ovf(fk.ovf_bridge(fp))
        assert (got.riesz_frame, got.orthonormal_frame) == (report.riesz_ovf, report.orthonormal_ovf)
    assert fk.classify(cases[0]).orthonormal_frame and fk.classify(cases[1]).orthonormal_frame
    assert not fk.classify(cases[2]).orthonormal_frame and not fk.classify(cases[3]).riesz_frame
