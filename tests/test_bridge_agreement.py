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
