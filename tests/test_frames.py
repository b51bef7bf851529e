import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, Tolerance, frames
from framekit.cli import run
from framekit.errors import (
    BadCoefficients,
    CountMismatch,
    NotAFrame,
    NotOrthogonal,
    NotParseval,
    ParamNotAdmissible,
    ShapeMismatch,
)

import pairfiles
from conftest import mercedes_benz, random_frame, random_parseval
from oracles import brute_force_extreme_eigs, brute_force_is_frame

TOL = Tolerance()
STD2 = FramePair(np.eye(2), np.eye(2), "real")
DIAG12 = FramePair(np.eye(2), np.diag([1.0, 2.0]), "real")


def rank_one_sum(fp):
    # direct summation oracle for the frame operator
    out = np.zeros((fp.m, fp.m), dtype=complex)
    for j in range(fp.n):
        out += np.outer(fp.T[:, j], fp.X[:, j].conj())
    return out


# --- frame_operator ---------------------------------------------------------

def test_frame_operator_standard_basis():
    assert np.allclose(fk.frame_operator(STD2), np.eye(2))


def test_frame_operator_mercedes_benz():
    mb = mercedes_benz()
    S = fk.frame_operator(mb)
    assert np.allclose(S, rank_one_sum(mb).real)
    assert np.allclose(S, 1.5 * np.eye(2), atol=1e-12)


def test_frame_operator_diag():
    assert np.allclose(fk.frame_operator(DIAG12), np.diag([1.0, 2.0]))


def test_frame_operator_symmetry_on_frames(rng):
    # S = theta_tau^* theta_x = theta_x^* theta_tau under the self-adjoint gate
    for _ in range(50):
        fp = random_frame(rng, int(rng.integers(1, 6)), int(rng.integers(6, 9)))
        S1 = fp.T @ fp.X.conj().T
        S2 = fp.X @ fp.T.conj().T
        assert np.max(np.abs(S1 - S2)) < 1e-9 * max(1.0, np.max(np.abs(S1)))


# --- verify -----------------------------------------------------------------

def test_verify_standard_parseval():
    r = fk.verify(STD2)
    assert r.is_frame and r.parseval and r.lower_a == pytest.approx(1.0) and r.upper_b == pytest.approx(1.0)


def test_verify_mercedes_benz_tight():
    r = fk.verify(mercedes_benz())
    assert r.is_frame and r.tight and not r.parseval
    assert r.lower_a == pytest.approx(1.5, abs=1e-9)
    assert r.upper_b == pytest.approx(1.5, abs=1e-9)


def test_verify_swapped_pair_not_psd():
    fp = FramePair(np.eye(2), np.eye(2)[:, ::-1], "real")
    r = fk.verify(fp)
    assert r.self_adjoint and not r.psd and not r.is_frame and not r.is_bessel
    assert r.lower_a == 0.0 and r.upper_b == 0.0


def test_verify_never_raises_on_degenerate():
    fp = FramePair(np.zeros((2, 3)), np.zeros((2, 3)), "real")
    r = fk.verify(fp)
    assert r.is_bessel and not r.is_frame


def test_verify_no_frame_below_abs_tol_within_hermitian_tolerance():
    # Hermitian within tolerance, sigma_min 1.03e-9 > abs_tol, but the
    # Hermitian part is 9e-10 * I: invertibility is judged on the eigenvalues,
    # so no frame is reported with a lower bound below abs_tol.
    S = np.array([[9e-10, 4.9e-10], [-4.9e-10, 9e-10]])
    r = fk.verify(FramePair(np.eye(2), S, "real"))
    assert r.self_adjoint and r.psd
    assert not r.invertible and not r.is_frame
    assert (r.lower_a, r.upper_b) == (0.0, 0.0)


def test_verify_agrees_with_brute_force(rng):
    # eigen verdict vs characteristic-polynomial oracle
    agree = 0
    for k in range(500):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        kind = k % 3
        if kind == 0 and n >= m:
            fp = random_frame(rng, m, n)
        elif kind == 1:
            X = rng.standard_normal((m, n))
            fp = FramePair(X, X, "real")  # frame iff X spans
        else:
            fp = FramePair(rng.standard_normal((m, n)), rng.standard_normal((m, n)), "real")
        assert fk.verify(fp).is_frame == brute_force_is_frame(fp.X, fp.T)
        agree += 1
    assert agree == 500


def test_verify_bounds_match_charpoly_extremes(rng):
    for _ in range(100):
        m = int(rng.integers(1, 5))
        fp = random_frame(rng, m, int(rng.integers(m, 7)))
        r = fk.verify(fp)
        lo, hi = brute_force_extreme_eigs(fk.frame_operator(fp))
        assert r.lower_a == pytest.approx(lo, abs=1e-8)
        assert r.upper_b == pytest.approx(hi, abs=1e-8)


# --- canonical dual ----------------------------------------------------------

def test_canonical_dual_parseval_fixed_point():
    d = fk.canonical_dual(STD2)
    assert np.allclose(d.X, STD2.X) and np.allclose(d.T, STD2.T)


def test_canonical_dual_diag():
    d = fk.canonical_dual(DIAG12)
    assert np.allclose(d.X, np.diag([1.0, 0.5]))
    assert np.allclose(d.T, np.eye(2))
    assert fk.is_dual(DIAG12, d)


def test_canonical_dual_mercedes_benz():
    mb = mercedes_benz()
    d = fk.canonical_dual(mb)
    assert np.allclose(d.X, (2.0 / 3.0) * mb.X)
    Sd = fk.frame_operator(d)
    assert np.allclose(Sd, np.linalg.inv(fk.frame_operator(mb)), atol=1e-12)


def test_canonical_dual_requires_frame():
    with pytest.raises(NotAFrame):
        fk.canonical_dual(FramePair(np.zeros((2, 2)), np.zeros((2, 2)), "real"))


def test_dual_laws_on_random_frames(rng):
    for _ in range(60):
        m = int(rng.integers(1, 7))
        fp = random_frame(rng, m, int(rng.integers(m, 9)),
                          "complex" if rng.random() < 0.5 else "real")
        d = fk.canonical_dual(fp)
        dd = fk.canonical_dual(d)
        assert np.max(np.abs(dd.X - fp.X)) < 1e-8
        assert np.max(np.abs(dd.T - fp.T)) < 1e-8
        r, rd = fk.verify(fp), fk.verify(d)
        assert rd.lower_a == pytest.approx(1.0 / r.upper_b, rel=1e-8)
        assert rd.upper_b == pytest.approx(1.0 / r.lower_a, rel=1e-8)
        assert fk.is_dual(fp, d)


# --- is_dual / is_orthogonal -------------------------------------------------

def test_is_dual_examples():
    assert fk.is_dual(STD2, STD2)
    mb = mercedes_benz()
    assert fk.is_dual(mb, fk.canonical_dual(mb))
    doubled = FramePair(2 * STD2.X, 2 * STD2.T, "real")
    assert not fk.is_dual(STD2, doubled)
    with pytest.raises(ShapeMismatch):
        fk.is_dual(STD2, mb)


def test_tightness_uses_relative_gap(rng):
    # a large tight frame: floating error in S is ~1e-10 relative, which an
    # absolute gap rule would misread at this scale
    from conftest import orthonormal_rows
    F = orthonormal_rows(rng, 4, 9)
    fp = FramePair(1e3 * F, 1e3 * F, "real")
    r = fk.verify(fp)
    assert r.tight and r.upper_b == pytest.approx(1e6, rel=1e-9)


def block_pair(first):
    # two members live on coefficient indices {0,1}, the others on {2,3}
    X = np.zeros((2, 4))
    X[:, 0 if first else 2] = [1.0, 0.0]
    X[:, 1 if first else 3] = [0.0, 1.0]
    return FramePair(X, X, "real")


def test_is_orthogonal_blocks():
    assert fk.is_orthogonal(block_pair(True), block_pair(False))
    mb = mercedes_benz()
    assert not fk.is_orthogonal(mb, mb)
    zero = FramePair(np.zeros((2, 3)), np.zeros((2, 3)), "real")
    assert fk.is_orthogonal(mb, zero)  # vacuous: bilinear condition only


# --- dual parametrization ----------------------------------------------------

def test_make_dual_zero_params_is_canonical():
    mb = mercedes_benz()
    out = fk.make_dual_from_params(mb, np.zeros((2, 3)), np.zeros((2, 3)))
    d = fk.canonical_dual(mb)
    assert np.allclose(out.X, d.X) and np.allclose(out.T, d.T)


def test_make_dual_epsilon_params_admissible():
    U = 0.1 * STD2.X
    out = fk.make_dual_from_params(STD2, U, U)
    assert fk.is_dual(STD2, out)


def test_make_dual_inadmissible_params():
    mb = mercedes_benz(np.sqrt(2.0 / 3.0))  # Parseval, n = 3 > m = 2
    U = 2.0 * np.ones((2, 3))
    with pytest.raises(ParamNotAdmissible):
        fk.make_dual_from_params(mb, U, -U)


def test_make_dual_random_params_are_duals(rng):
    # self-dual frame with U = V: the condition matrix is S^-1 + U (I - P) U^*
    # with P an orthogonal projection, hence always admissible
    for _ in range(20):
        X = rng.standard_normal((2, 4))
        fp = FramePair(X, X, "real")
        U = rng.standard_normal((2, 4))
        out = fk.make_dual_from_params(fp, U, U)
        assert fk.is_dual(fp, out)


# --- common dual -------------------------------------------------------------

def test_common_dual_blocks():
    fp, gq = block_pair(True), block_pair(False)
    z = fk.common_dual(fp, gq)
    assert fk.is_dual(fp, z) and fk.is_dual(gq, z)


def test_common_dual_rejects_self():
    mb = mercedes_benz()
    with pytest.raises(NotOrthogonal):
        fk.common_dual(mb, mb)


def test_common_dual_scaled_blocks():
    fp = block_pair(True)
    gq = block_pair(False)
    fp2 = FramePair(2 * fp.X, fp.T, "real")
    gq3 = FramePair(3 * gq.X, gq.T, "real")
    z = fk.common_dual(fp2, gq3)
    S1 = fk.frame_operator(fp2)
    S2 = fk.frame_operator(gq3)
    target = np.linalg.inv(S1) + np.linalg.inv(S2)
    assert np.allclose(fk.frame_operator(z), target, atol=1e-12)
    assert fk.is_dual(fp2, z) and fk.is_dual(gq3, z)


# --- idempotent and classification ------------------------------------------

def test_idempotent_orthonormal_basis():
    assert np.allclose(fk.frame_idempotent(STD2), np.eye(2))


def test_idempotent_mercedes_benz_rank_two():
    P = fk.frame_idempotent(mercedes_benz())
    assert np.max(np.abs(P @ P - P)) < 1e-12
    assert np.trace(P) == pytest.approx(2.0, abs=1e-12)
    assert np.linalg.matrix_rank(P) == 2


def test_idempotent_diag_riesz_case():
    assert np.allclose(fk.frame_idempotent(DIAG12), np.eye(2), atol=1e-12)


def test_idempotent_property_random(rng):
    for _ in range(200):
        m = int(rng.integers(1, 9))
        fp = random_frame(rng, m, int(rng.integers(m, 9)),
                          "complex" if rng.random() < 0.3 else "real")
        P = fk.frame_idempotent(fp)
        assert np.max(np.abs(P @ P - P)) <= 10 * TOL.abs_tol * max(1.0, np.max(np.abs(P)))


def test_classify_examples():
    c = fk.classify(STD2)
    assert c.riesz_frame and c.orthonormal_frame
    c = fk.classify(mercedes_benz())
    assert not c.riesz_frame and not c.orthonormal_frame
    c = fk.classify(DIAG12)
    assert c.riesz_frame and not c.orthonormal_frame
    assert c.cross_gram[1, 1] == pytest.approx(2.0)


# X = T with sigma_min(X) ~ 5e-5: lambda_min(S) = 2.5e-9 clears the frame gate
# abs_tol = 1e-9, and the rounded idempotent misses I by far more than its margin
NEAR_SQUARE = FramePair(np.array([[1.0, 1.0], [1.0, 1.0001]]), np.array([[1.0, 1.0], [1.0, 1.0001]]),
                        "real")


def test_a_square_frame_near_the_gate_is_riesz(tmp_path, capsys):
    assert fk.verify(NEAR_SQUARE).is_frame
    assert fk.classify(NEAR_SQUARE).riesz_frame
    assert fk.verify_ovf(fk.ovf_bridge(NEAR_SQUARE)).riesz_ovf
    path = tmp_path / "near_square.json"
    pairfiles.write_frame_pair(str(path), NEAR_SQUARE)
    assert run(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "riesz_frame = true" in out and "orthonormal_frame = false" in out


def test_square_refinements_form_no_idempotent(monkeypatch, rng):
    """At N = m the count rule decides Riesz: no solve and no N x N idempotent.
    The loose N = 2 > m = 1 case forms P, which shows the spies are live."""
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "solve", spy("solve", np.linalg.solve))
    monkeypatch.setattr(frames, "_idempotent", spy("_idempotent", frames._idempotent))
    square = [NEAR_SQUARE, STD2, DIAG12, random_frame(rng, 4, 4, "complex"),
              random_parseval(rng, 3, 3, "real", self_dual=True)]
    for fp in square:
        assert fk.classify(fp).riesz_frame
        assert fk.verify_ovf(fk.ovf_bridge(fp)).riesz_ovf
    blocks = np.split(random_frame(rng, 5, 5).X.T, [2])  # members of codims 2 and 3, N = m = 5
    assert fk.verify_ovf(fk.OvfPair(tuple(blocks), tuple(blocks), "real")).riesz_ovf
    assert calls == []
    half = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    assert fk.classify(FramePair(half, half, "real", Tolerance(0.6, 0.0))).riesz_frame
    assert calls == ["_idempotent", "solve"]


# --- sums and tensors --------------------------------------------------------

def test_direct_sum_parseval_blocks():
    out = fk.direct_sum(block_pair(True), block_pair(False))
    assert out.m == 4 and out.n == 4
    assert fk.verify(out).parseval


def test_direct_sum_identical_copies_singular():
    mb = mercedes_benz()
    out = fk.direct_sum(mb, mb)
    S = fk.frame_operator(out)
    Smb = fk.frame_operator(mb)
    assert np.allclose(S, np.block([[Smb, Smb], [Smb, Smb]]))
    assert not fk.verify(out).is_frame


def test_direct_sum_count_mismatch():
    with pytest.raises(CountMismatch):
        fk.direct_sum(STD2, mercedes_benz())


def test_tensor_parseval():
    out = fk.tensor_product(STD2, STD2)
    assert out.m == 4 and out.n == 4 and fk.verify(out).parseval


def test_tensor_mercedes_benz_squared():
    out = fk.tensor_product(mercedes_benz(), mercedes_benz())
    r = fk.verify(out)
    assert r.tight and r.upper_b == pytest.approx(2.25, abs=1e-9)


def test_tensor_diag_with_standard():
    out = fk.tensor_product(DIAG12, STD2)
    assert np.allclose(fk.frame_operator(out), np.kron(np.diag([1.0, 2.0]), np.eye(2)))


def test_tensor_extreme_eigs_multiply(rng):
    for _ in range(20):
        fp = random_frame(rng, 2, 3)
        gq = random_frame(rng, 2, 4)
        r1, r2 = fk.verify(fp), fk.verify(gq)
        r = fk.verify(fk.tensor_product(fp, gq))
        assert r.lower_a == pytest.approx(r1.lower_a * r2.lower_a, rel=1e-8)
        assert r.upper_b == pytest.approx(r1.upper_b * r2.upper_b, rel=1e-8)


# --- interpolation -----------------------------------------------------------

def test_interpolate_identity_coefficients():
    fp, gq = block_pair(True), block_pair(False)
    eye, zero = np.eye(2), np.zeros((2, 2))
    out = fk.interpolate_parseval(fp, gq, eye, zero, eye, zero)
    assert np.allclose(out.X, fp.X) and np.allclose(out.T, fp.T)


def test_interpolate_scalar_mix():
    fp, gq = block_pair(True), block_pair(False)
    s = 1.0 / np.sqrt(2.0)
    out = fk.interpolate_parseval(fp, gq, s * np.eye(2), s * np.eye(2),
                                  s * np.eye(2), s * np.eye(2))
    assert fk.verify(out).parseval


def test_interpolate_bad_coefficients():
    fp, gq = block_pair(True), block_pair(False)
    two, zero = 2.0 * np.eye(2), np.zeros((2, 2))
    with pytest.raises(BadCoefficients):
        fk.interpolate_parseval(fp, gq, two, zero, two, zero)


def test_interpolate_checks_the_coefficient_shapes():
    # k x (m + 1) coefficients used to fail inside matmul, and a 1-D C with m = 1 was accepted
    fp, gq = block_pair(True), block_pair(False)
    wide, zero = np.eye(2, 3), np.zeros((2, 3))
    with pytest.raises(ShapeMismatch, match=r"^A, B, C and D must be k x 2 matrices of one shape, "
                                            r"got \(2, 3\), \(2, 3\), \(2, 3\), \(2, 3\)$"):
        fk.interpolate_parseval(fp, gq, wide, zero, wide, zero)
    first = FramePair([[1.0, 0.0]], [[1.0, 0.0]], "real")
    second = FramePair([[0.0, 1.0]], [[0.0, 1.0]], "real")
    with pytest.raises(ShapeMismatch, match=r"^A, B, C and D must be k x 1 matrices of one shape, "
                                            r"got \(1, 1\), \(1, 1\), \(1,\), \(1, 1\)$"):
        fk.interpolate_parseval(first, second, [[1.0]], [[0.0]], [1.0], [[0.0]])
    mixed = fk.interpolate_parseval(first, second, [[1.0]], [[0.0]], [[1.0]], [[0.0]])
    assert fk.verify(mixed).parseval


def test_interpolate_requires_parseval():
    fp = FramePair(2 * block_pair(True).X, block_pair(True).T, "real")
    with pytest.raises(NotParseval):
        fk.interpolate_parseval(fp, block_pair(False), np.eye(2), np.eye(2),
                                np.eye(2), np.eye(2))


# --- similarity --------------------------------------------------------------

def test_similarity_scaled_pair():
    mb = mercedes_benz()
    gq = FramePair(2 * mb.X, 3 * mb.T, "real")
    result = fk.similarity_detect(mb, gq)
    assert result is not None
    assert np.allclose(result.Txy, 2 * np.eye(2), atol=1e-9)
    assert np.allclose(result.Ttw, 3 * np.eye(2), atol=1e-9)


def test_similarity_self():
    mb = mercedes_benz()
    result = fk.similarity_detect(mb, mb)
    assert result is not None and np.allclose(result.Txy, np.eye(2), atol=1e-9)


def test_similarity_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        fk.similarity_detect(STD2, mercedes_benz())


def test_similarity_iff_idempotents_coincide(rng):
    # B = W (A^*)^-1 S^-1 keeps the transformed pair a frame (S' = W)
    hits = misses = 0
    for _ in range(40):
        fp = random_frame(rng, 2, 4)
        if rng.random() < 0.5:
            S = fk.frame_operator(fp)
            A = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
            W = rng.standard_normal((2, 2))
            W = W @ W.T + 0.5 * np.eye(2)
            B = W @ np.linalg.inv(A.T) @ np.linalg.inv(S)
            gq = FramePair(A @ fp.X, B @ fp.T, "real")
        else:
            gq = random_frame(rng, 2, 4)
        result = fk.similarity_detect(fp, gq)
        same_p = np.max(np.abs(fk.frame_idempotent(fp) - fk.frame_idempotent(gq))) < 1e-8
        assert (result is not None) == same_p
        hits += result is not None
        misses += result is None
    assert hits > 0 and misses > 0


# --- parsevalize -------------------------------------------------------------

@pytest.mark.parametrize("mode", [fk.frames.LEFT_ON_X, fk.frames.SPLIT, fk.frames.LEFT_ON_T])
def test_parsevalize_modes(mode, rng):
    fp = random_frame(rng, 3, 5)
    out = fk.parsevalize(fp, mode)
    assert fk.verify(out).parseval
    assert fk.similarity_detect(fp, out) is not None


def test_parsevalize_parseval_unchanged(rng):
    fp = random_parseval(rng, 3, 5)
    for mode in (fk.frames.LEFT_ON_X, fk.frames.SPLIT, fk.frames.LEFT_ON_T):
        out = fk.parsevalize(fp, mode)
        assert np.max(np.abs(out.X - fp.X)) < 1e-9
        assert np.max(np.abs(out.T - fp.T)) < 1e-9


def test_parsevalize_mercedes_benz_split():
    out = fk.parsevalize(mercedes_benz(), fk.frames.SPLIT)
    assert np.allclose(out.X, np.sqrt(2.0 / 3.0) * mercedes_benz().X)
    assert fk.verify(out).parseval


# --- dilation ----------------------------------------------------------------

def test_dilate_orthonormal_input_unchanged():
    result = fk.dilate(STD2)
    assert result.embed_dim == 2
    assert np.allclose(result.big.X, STD2.X)


def test_dilate_line_pair():
    fp = FramePair(np.full((1, 2), 1.0 / np.sqrt(2.0)), np.full((1, 2), 1.0 / np.sqrt(2.0)), "real")
    result = fk.dilate(fp)
    assert result.embed_dim == 2
    big = result.big
    assert fk.classify(big).orthonormal_frame
    assert np.allclose(np.abs(big.X), np.full((2, 2), 1.0 / np.sqrt(2.0)))
    assert np.allclose(big.X[0], fp.X[0])


def test_dilate_mercedes_benz():
    result = fk.dilate(mercedes_benz(np.sqrt(2.0 / 3.0)))
    assert result.embed_dim == 3
    assert fk.classify(result.big).orthonormal_frame


def test_dilate_requires_parseval():
    with pytest.raises(NotParseval):
        fk.dilate(mercedes_benz())


def test_dilation_reads_the_count_rule():
    # m = 3 and two orthonormal members: rank S = 2 < 3, so no frame by counting.  At
    # abs_tol 0 and rel_tol 2, rounding leaves lambda_min of some draws' S positive,
    # and the spectral rules alone call those S Parseval.
    tol = Tolerance(0.0, 2.0)
    spectral_only = 0
    for seed in range(8):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 2)))
        fp = FramePair(q, q, "real", tol)
        spectral_only += frames.frame_flags(fk.frame_operator(fp), tol).parseval
        assert not fk.verify(fp).parseval
        with pytest.raises(NotParseval):
            fk.dilate(fp)
        with pytest.raises(NotParseval):
            fk.dilate_ovf(fk.ovf_bridge(fp))
    assert spectral_only > 0


def test_dilate_non_self_dual_and_complex(rng):
    # U F against U^-* F is Parseval with a Hermitian idempotent, so the
    # dilation hypothesis holds even though x != tau
    for trial in range(40):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 8))
        field = "complex" if trial % 2 else "real"
        fp = random_parseval(rng, m, n, field, self_dual=trial % 3 == 0)
        result = fk.dilate(fp)
        assert fk.classify(result.big).orthonormal_frame
        assert np.array_equal(result.big.X[:m], fp.X)
        assert np.array_equal(result.big.T[:m], fp.T)
