import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, OvfPair
from framekit.errors import (
    CodomainNotOneDim,
    LambdaTooSmall,
    NotBessel,
    NotOnb,
    NotParseval,
    NotWeightedOnb,
    ShapeMismatch,
    WeightTooLarge,
)
from oracles import tensor_shuffle_permutation

from conftest import mercedes_benz, random_frame, random_ovf, random_parseval_ovf


def coordinate_rows(n):
    eye = np.eye(n)
    return tuple(eye[j:j + 1, :] for j in range(n))


# --- operators ----------------------------------------------------------------

def test_operators_coordinate_rows():
    rows = coordinate_rows(2)
    op = OvfPair(rows, rows, "real")
    ops = fk.ovf_operators(op)
    assert np.allclose(ops.S, np.eye(2))
    assert np.allclose(ops.P, np.eye(2))


def test_operators_block_partition():
    F = fk.onb_blocks(2, 2)
    ops = fk.ovf_operators(F)
    assert np.allclose(ops.S, np.eye(4))
    assert np.allclose(ops.P, np.eye(4))


def test_operators_scaled_rows():
    rows = coordinate_rows(3)
    c = np.array([1.0, 2.0, 3.0])
    op = OvfPair(tuple(cj * r for cj, r in zip(c, rows)),
                 tuple(cj * r for cj, r in zip(c, rows)), "real")
    assert np.allclose(fk.ovf_operators(op).S, np.diag(c**2))


def test_operators_idempotent_and_adjoint_swap(rng):
    for _ in range(200):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        if n * d < m:
            n = -(-m // d)
        field = "complex" if rng.random() < 0.3 else "real"
        op = random_ovf(rng, m, d, n, field)
        ops = fk.ovf_operators(op)
        P = ops.P
        assert P is not None
        assert np.max(np.abs(P @ P - P)) < 1e-8
        # S = theta_Psi^* theta_A = theta_A^* theta_Psi under the self-adjoint gate
        assert np.max(np.abs(ops.S - ops.thetaA.conj().T @ ops.thetaPsi)) < 1e-8
        swapped = OvfPair(op.Psi, op.A, field)
        Pswap = fk.ovf_operators(swapped).P
        assert np.max(np.abs(Pswap - P.conj().T)) < 1e-8


# --- verify -------------------------------------------------------------------

def test_verify_block_partition_orthonormal():
    report = fk.verify_ovf(fk.onb_blocks(2, 2))
    assert report.is_frame and report.parseval and report.riesz_ovf and report.orthonormal_ovf


def test_verify_riesz_not_orthonormal():
    # A_j = F_j U with U invertible non-unitary: Riesz OVF, not orthonormal
    F = fk.onb_blocks(2, 2)
    U = np.diag([1.0, 2.0, 3.0, 4.0])
    op = OvfPair(tuple(Fj @ U for Fj in F.A), tuple(Fj @ U for Fj in F.A), "real")
    report = fk.verify_ovf(op)
    assert report.is_frame and report.riesz_ovf and not report.orthonormal_ovf


def test_verify_zero_psi_not_frame():
    rows = coordinate_rows(2)
    op = OvfPair(rows, tuple(0.0 * r for r in rows), "real")
    report = fk.verify_ovf(op)
    assert not report.is_frame and report.is_bessel


def test_verify_orthonormal_iff_parseval_and_cross(rng):
    for _ in range(50):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if rng.random() < 0.5:
            op = fk.onb_blocks(n, d)
        else:
            op = random_parseval_ovf(rng, n * d, d, n)
        report = fk.verify_ovf(op)
        cross = fk.frames._block_identities_ok(op.theta_A, op.theta_Psi, op.codims, op.tol)
        assert report.orthonormal_ovf == (report.parseval and cross)


def test_verify_orthonormal_agrees_with_factorization(rng):
    # when m = n*d the direct flag and the factorization flag must coincide
    for _ in range(40):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        F = fk.onb_blocks(n, d)
        m = n * d
        if rng.random() < 0.5:
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            op = OvfPair(tuple(Fj @ Q for Fj in F.A), tuple(Fj @ Q for Fj in F.A), "real")
        else:
            op = random_ovf(rng, m, d, n)
        direct = fk.verify_ovf(op).orthonormal_ovf
        factored = fk.factorize_against_onb(op, F).flags["orthonormal_ovf"]
        assert direct == factored


# --- canonical dual ------------------------------------------------------------

def test_canonical_dual_parseval_fixed():
    F = fk.onb_blocks(2, 2)
    dual = fk.canonical_dual_ovf(F)
    for Aj, Bj in zip(F.A, dual.A):
        assert np.allclose(Aj, Bj)


def test_canonical_dual_diag_blocks():
    rows = coordinate_rows(2)
    op = OvfPair((rows[0], 2.0 * rows[1]), (rows[0], 2.0 * rows[1]), "real")
    dual = fk.canonical_dual_ovf(op)
    Sinv = np.diag([1.0, 0.25])
    for Aj, Bj in zip(op.A, dual.A):
        assert np.allclose(Bj, Aj @ Sinv)
    assert fk.duality_relation(op, dual).dual


def test_canonical_dual_bounds_invert(rng):
    for _ in range(40):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        n = max(1, -(-m // d) + int(rng.integers(0, 2)))
        op = random_ovf(rng, m, d, n)
        r = fk.verify_ovf(op)
        rd = fk.verify_ovf(fk.canonical_dual_ovf(op))
        assert rd.lower_a == pytest.approx(1.0 / r.upper_b, rel=1e-8)
        assert rd.upper_b == pytest.approx(1.0 / r.lower_a, rel=1e-8)
        dd = fk.canonical_dual_ovf(fk.canonical_dual_ovf(op))
        for Aj, Bj in zip(op.A, dd.A):
            assert np.max(np.abs(Aj - Bj)) < 1e-8


# --- duality relation -----------------------------------------------------------

def test_duality_relation_examples():
    F = fk.onb_blocks(2, 2)
    rel = fk.duality_relation(F, F)
    assert rel.dual and not rel.orthogonal  # Parseval vs itself

    rows = coordinate_rows(4)
    op1 = OvfPair((rows[0], rows[1], 0 * rows[0], 0 * rows[1]),
                  (rows[0], rows[1], 0 * rows[0], 0 * rows[1]), "real")
    op2 = OvfPair((0 * rows[2], 0 * rows[3], rows[2], rows[3]),
                  (0 * rows[2], 0 * rows[3], rows[2], rows[3]), "real")
    rel = fk.duality_relation(op1, op2)
    assert rel.orthogonal and not rel.dual


def test_duality_relation_with_canonical(rng):
    op = random_ovf(rng, 3, 2, 3)
    rel = fk.duality_relation(op, fk.canonical_dual_ovf(op))
    assert rel.dual and not rel.orthogonal


# --- onb blocks ------------------------------------------------------------------

@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 1), (1, 1), (4, 3)])
def test_onb_blocks_identities(n, d):
    F = fk.onb_blocks(n, d)
    for j, Fj in enumerate(F.A):
        for k, Fk in enumerate(F.A):
            target = np.eye(d) if j == k else np.zeros((d, d))
            assert np.allclose(Fj @ Fk.T, target)
    assert np.allclose(sum(Fj.T @ Fj for Fj in F.A), np.eye(n * d))
    assert fk.verify_ovf(F).orthonormal_ovf


# --- factorization ----------------------------------------------------------------

def test_factorize_self_is_onb_pair():
    F = fk.onb_blocks(2, 2)
    result = fk.factorize_against_onb(F, F)
    assert result.label == "onb_pair"
    assert np.allclose(result.U, np.eye(4)) and np.allclose(result.V, np.eye(4))


def test_factorize_diag_riesz_basis():
    F = fk.onb_blocks(2, 2)
    U = np.diag([1.0, 2.0, 3.0, 4.0])
    op = OvfPair(tuple(Fj @ U for Fj in F.A), tuple(Fj @ U for Fj in F.A), "real")
    result = fk.factorize_against_onb(op, F)
    assert np.allclose(result.U, U) and np.allclose(result.V, U)
    assert result.label == "riesz_basis"
    assert result.flags["frame"] and result.flags["riesz_ovf"]
    assert not result.flags["orthonormal_ovf"] and not result.flags["onb_pair"]


def test_factorize_negative_pair_is_none():
    F = fk.onb_blocks(2, 2)
    op = OvfPair(F.A, tuple(-1.0 * Fj for Fj in F.A), "real")
    result = fk.factorize_against_onb(op, F)
    assert result.label == "none"
    assert not result.flags["bessel"]


def test_factorize_reproduces_members(rng):
    F = fk.onb_blocks(3, 2)
    op = random_ovf(rng, 6, 2, 3)
    result = fk.factorize_against_onb(op, F)
    for Fj, Aj, Pj in zip(F.A, op.A, op.Psi):
        assert np.max(np.abs(Fj @ result.U - Aj)) < 1e-9
        assert np.max(np.abs(Fj @ result.V - Pj)) < 1e-9


def test_factorize_rejects_non_onb(rng):
    op = random_ovf(rng, 4, 2, 2)
    with pytest.raises(NotOnb):
        fk.factorize_against_onb(op, op)


# --- weighted bessel ----------------------------------------------------------------

def test_weighted_bessel_unit_weights():
    F = fk.onb_blocks(2, 2)
    result = fk.weighted_onb_bessel_check(F, [1.0, 1.0])
    assert result.holds
    assert np.max(np.abs(result.deficiency)) < 1e-12  # equality case


def test_weighted_bessel_mixed_weights():
    F = fk.onb_blocks(2, 2)
    c = [0.5, 1.5]
    op = OvfPair(F.A, tuple(cj * Fj for cj, Fj in zip(c, F.A)), "real")
    result = fk.weighted_onb_bessel_check(op, c)
    assert result.holds
    expected = np.diag([1 - 1.5 * 0.5] * 2 + [1 - 0.5 * 1.5] * 2)
    assert np.allclose(result.deficiency, expected)


def test_weighted_bessel_rejects_large_weight():
    F = fk.onb_blocks(1, 2)
    with pytest.raises(WeightTooLarge):
        fk.weighted_onb_bessel_check(F, [3.0])


def test_weighted_bessel_rejects_mismatched_psi():
    rows = coordinate_rows(2)
    op = OvfPair(rows, (rows[0], 2.0 * rows[1]), "real")
    with pytest.raises(NotWeightedOnb):
        fk.weighted_onb_bessel_check(op, [1.0, 1.0])


# --- right similarity ----------------------------------------------------------------

def test_right_similarity_diag_factors(rng):
    op = random_ovf(rng, 3, 2, 3)
    R1 = np.diag([2.0, 2.0, 2.0])
    R2 = np.diag([0.5, 0.5, 0.5])
    other = OvfPair(tuple(Aj @ R1 for Aj in op.A), tuple(Pj @ R2 for Pj in op.Psi), "real")
    result = fk.right_similarity_detect(op, other)
    assert result is not None
    assert np.allclose(result.RAB, R1, atol=1e-8)
    assert np.allclose(result.RPsiPhi, R2, atol=1e-8)


def test_right_similarity_self(rng):
    op = random_ovf(rng, 3, 2, 3)
    result = fk.right_similarity_detect(op, op)
    assert result is not None and np.allclose(result.RAB, np.eye(3), atol=1e-8)


def test_right_similarity_unrelated_absent(rng):
    op1 = random_ovf(rng, 3, 2, 3)
    op2 = random_ovf(rng, 3, 2, 3)
    assert fk.right_similarity_detect(op1, op2) is None


# --- composition / tensor --------------------------------------------------------------

def test_compose_onb_chains():
    inner = fk.onb_blocks(2, 2)  # K^4 -> K^2 members
    outer = fk.onb_blocks(2, 1)  # K^2 -> K^1 members
    comp = fk.compose_ovf(outer, inner)
    assert comp.n == 4 and comp.m == 4 and comp.d == 1
    assert fk.verify_ovf(comp).orthonormal_ovf


def test_compose_parseval(rng):
    inner = random_parseval_ovf(rng, 4, 2, 3)
    outer = random_parseval_ovf(rng, 2, 1, 3)
    comp = fk.compose_ovf(outer, inner)
    assert fk.verify_ovf(comp).parseval


def test_compose_operator_identity(rng):
    inner = random_ovf(rng, 4, 2, 3)
    outer = random_ovf(rng, 2, 2, 2)
    comp = fk.compose_ovf(outer, inner)
    ops_in = fk.ovf_operators(inner)
    S_outer = fk.ovf_operators(outer).S
    expected = ops_in.thetaPsi.conj().T @ np.kron(np.eye(inner.n), S_outer) @ ops_in.thetaA
    assert np.max(np.abs(fk.ovf_operators(comp).S - expected)) < 1e-10


def test_compose_diag_inner(rng):
    rows = coordinate_rows(2)
    inner = OvfPair((rows[0], np.sqrt(2.0) * rows[1]), (rows[0], np.sqrt(2.0) * rows[1]), "real")
    outer = random_parseval_ovf(rng, 1, 1, 2)
    comp = fk.compose_ovf(outer, inner)
    assert np.allclose(fk.ovf_operators(comp).S, np.diag([1.0, 2.0]))


def test_compose_shape_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        fk.compose_ovf(random_ovf(rng, 3, 1, 3), random_ovf(rng, 4, 2, 2))


def test_tensor_identity_and_parseval(rng):
    op = fk.onb_blocks(2, 1)
    out = fk.tensor_ovf(op, op)
    assert fk.verify_ovf(out).orthonormal_ovf
    p1 = random_parseval_ovf(rng, 2, 1, 3)
    p2 = random_parseval_ovf(rng, 3, 2, 2)
    assert fk.verify_ovf(fk.tensor_ovf(p1, p2)).parseval


def test_tensor_spectra_multiply(rng):
    op1 = random_ovf(rng, 2, 1, 3)
    op2 = random_ovf(rng, 3, 2, 2)
    out = fk.tensor_ovf(op1, op2)
    S1 = fk.ovf_operators(op1).S
    S2 = fk.ovf_operators(op2).S
    assert np.max(np.abs(fk.ovf_operators(out).S - np.kron(S1, S2))) < 1e-10
    r1, r2, r = fk.verify_ovf(op1), fk.verify_ovf(op2), fk.verify_ovf(out)
    assert r.lower_a == pytest.approx(r1.lower_a * r2.lower_a, rel=1e-8)
    assert r.upper_b == pytest.approx(r1.upper_b * r2.upper_b, rel=1e-8)


def test_tensor_idempotent_is_shuffled_kron(rng):
    op1 = random_ovf(rng, 2, 1, 3)
    op2 = random_ovf(rng, 3, 2, 2)
    out = fk.tensor_ovf(op1, op2)
    P1 = fk.ovf_operators(op1).P
    P2 = fk.ovf_operators(op2).P
    P = fk.ovf_operators(out).P
    perm = tensor_shuffle_permutation(op1.n, op1.d, op2.n, op2.d)
    kron = np.kron(P1, P2)
    assert np.max(np.abs(P - kron[np.ix_(perm, perm)])) < 1e-9


# --- tight extension ----------------------------------------------------------------

def test_extend_tight_rank_one():
    A1 = np.array([[1.0, 0.0]])
    op = OvfPair((A1,), (A1,), "real")
    out = fk.extend_tight_ovf(op, 2.0)
    assert np.allclose(out.A[1], np.diag([1.0, np.sqrt(2.0)]))
    assert np.allclose(fk.ovf_operators(out).S, 2.0 * np.eye(2))
    assert out.codims == (1, 2)


def test_extend_tight_identity():
    F = fk.onb_blocks(2, 1)
    out = fk.extend_tight_ovf(F, 2.0)
    assert np.allclose(out.A[2], np.eye(2))
    assert np.allclose(fk.ovf_operators(out).S, 2.0 * np.eye(2))


def test_extend_tight_strictness():
    F = fk.onb_blocks(2, 1)
    with pytest.raises(LambdaTooSmall):
        fk.extend_tight_ovf(F, 1.0)


def test_extend_tight_needs_bessel():
    rows = coordinate_rows(2)
    op = OvfPair(rows, (rows[1], rows[0]), "real")  # swapped: not psd
    with pytest.raises(NotBessel):
        fk.extend_tight_ovf(op, 5.0)


# --- dilation -----------------------------------------------------------------------

def test_dilate_orthonormal_unchanged():
    F = fk.onb_blocks(2, 2)
    out = fk.dilate_ovf(F)
    assert out.m == F.m
    for Aj, Bj in zip(F.A, out.A):
        assert np.allclose(Aj, Bj)


def test_dilate_matches_sequential_via_bridge():
    fp = mercedes_benz(np.sqrt(2.0 / 3.0))
    big_seq = fk.dilate(fp).big
    op = fk.ovf_bridge(fp)
    big_ovf = fk.ovf_bridge_inverse(fk.dilate_ovf(op))
    assert np.max(np.abs(big_seq.X - big_ovf.X)) < 1e-9
    assert np.max(np.abs(big_seq.T - big_ovf.T)) < 1e-9


def test_dilate_rank_deficient_parseval(rng):
    op = random_parseval_ovf(rng, 2, 1, 3)
    out = fk.dilate_ovf(op)
    assert out.m == 3
    report = fk.verify_ovf(out)
    assert report.orthonormal_ovf
    for Aj, Bj in zip(op.A, out.A):
        assert np.allclose(Bj[:, :2], Aj)


def test_dilate_requires_parseval(rng):
    with pytest.raises(NotParseval):
        fk.dilate_ovf(random_ovf(rng, 2, 1, 3))


# --- bridge -------------------------------------------------------------------------

def test_bridge_standard_basis():
    fp = FramePair(np.eye(2), np.eye(2), "real")
    op = fk.ovf_bridge(fp)
    assert op.d == 1 and op.n == 2
    assert fk.verify_ovf(op).orthonormal_ovf


def test_bridge_preserves_mercedes_benz_bounds():
    op = fk.ovf_bridge(mercedes_benz())
    report = fk.verify_ovf(op)
    assert report.tight and report.upper_b == pytest.approx(1.5, abs=1e-9)


def test_bridge_inverse_requires_d1():
    with pytest.raises(CodomainNotOneDim):
        fk.ovf_bridge_inverse(fk.onb_blocks(2, 2))


def test_bridge_consistency_random(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        fp = FramePair(rng.standard_normal((m, n)), rng.standard_normal((m, n)), "real")
        rf = fk.verify(fp)
        ro = fk.verify_ovf(fk.ovf_bridge(fp))
        assert (rf.is_frame, rf.is_bessel, rf.tight, rf.parseval) == \
               (ro.is_frame, ro.is_bessel, ro.tight, ro.parseval)
        assert rf.lower_a == pytest.approx(ro.lower_a, abs=1e-9)
        assert rf.upper_b == pytest.approx(ro.upper_b, abs=1e-9)
