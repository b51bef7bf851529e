import warnings

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, Tolerance
from framekit.errors import (
    BadParams,
    HypothesisFails,
    LambdaTooSmall,
    NotAFrame,
    NotBessel,
    NotReal,
    NotSelfPair,
    NotWeightedOnb,
    WeightTooLarge,
)

from conftest import mercedes_benz, random_frame, random_parseval

STD2 = FramePair(np.eye(2), np.eye(2), "real")
DIAG12 = FramePair(np.eye(2), np.diag([1.0, 2.0]), "real")


# --- reconstruction iteration --------------------------------------------------

def test_iterate_parseval_converges_in_one_step():
    trace = fk.iterate_reconstruct(STD2, [0.3, -0.7], 3)
    assert trace.errors[1] < 1e-15
    assert np.allclose(trace.iterates[1], [0.3, -0.7])


def test_iterate_diag_case_attains_bound():
    trace = fk.iterate_reconstruct(DIAG12, [1.0, 1.0], 5)
    assert np.allclose(trace.iterates[1], [2.0 / 3.0, 4.0 / 3.0])
    assert trace.errors[1] == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-12)
    assert trace.errors[1] == pytest.approx(trace.bound_curve[1], abs=1e-12)


def test_iterate_tight_frame_exact_after_one_step(rng):
    mb = mercedes_benz()
    h = rng.standard_normal(2)
    trace = fk.iterate_reconstruct(mb, h, 20)
    assert np.all(trace.bound_curve[1:] < 1e-15)
    assert np.all(trace.errors[1:] < 1e-12)


def test_iterate_trace_invariant_random(rng):
    for _ in range(60):
        m = int(rng.integers(1, 6))
        fp = random_frame(rng, m, int(rng.integers(m, 8)))
        h = rng.standard_normal(m)
        trace = fk.iterate_reconstruct(fp, h, 20)
        assert np.all(trace.errors <= trace.bound_curve + 1e-9)


@pytest.mark.parametrize("fp", [STD2, DIAG12], ids=["std2", "diag12"])
def test_iterate_keeps_the_imaginary_part_of_a_complex_target_on_a_real_pair(fp):
    h = [1.0 + 2.0j, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning: nothing is discarded
        trace = fk.iterate_reconstruct(fp, h, 30)
    assert trace.errors[0] == pytest.approx(np.sqrt(5.0), abs=1e-15)
    assert trace.bound_curve[0] == pytest.approx(np.sqrt(5.0), abs=1e-15)
    assert np.allclose(trace.iterates[-1], h, atol=1e-6)
    assert np.all(trace.errors <= trace.bound_curve + 1e-12)


def test_iterate_requires_frame():
    with pytest.raises(NotAFrame):
        fk.iterate_reconstruct(FramePair(np.zeros((2, 2)), np.zeros((2, 2)), "real"), [1, 0], 3)


@pytest.mark.parametrize("h", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf * 1j]])
def test_iterate_rejects_a_non_finite_target(h):
    fp = FramePair(np.eye(2), np.eye(2), "real")
    with pytest.raises(ValueError, match="target entries must be finite"):
        fk.iterate_reconstruct(fp, h, 2)


# --- tight extensions ------------------------------------------------------------

def test_extend_append_rank_one():
    fp = FramePair(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]), "real")
    out = fk.extend_tight_append(fp, 2.0)
    assert out.n == 3
    assert np.allclose(fk.frame_operator(out), 2.0 * np.eye(2))
    # appended columns are the columns of diag(1, sqrt 2)
    assert np.allclose(out.X[:, 1:], np.diag([1.0, np.sqrt(2.0)]))


def test_extend_append_parseval():
    out = fk.extend_tight_append(STD2, 2.0)
    assert np.allclose(out.X[:, 2:], np.eye(2))
    assert np.allclose(fk.frame_operator(out), 2.0 * np.eye(2))


def test_extend_append_strict_inequality():
    with pytest.raises(LambdaTooSmall):
        fk.extend_tight_append(STD2, 1.0)


def test_extend_append_requires_bessel():
    fp = FramePair(np.eye(2), np.eye(2)[:, ::-1], "real")
    with pytest.raises(NotBessel):
        fk.extend_tight_append(fp, 5.0)


def test_extend_minimal_diag():
    fp = FramePair(np.diag([np.sqrt(2.0), 1.0]), np.diag([np.sqrt(2.0), 1.0]), "real")
    out = fk.extend_tight_minimal(fp)
    assert out.n == 3
    assert np.allclose(np.abs(out.X[:, 2]), [0.0, 1.0])
    assert np.allclose(fk.frame_operator(out), 2.0 * np.eye(2))


def test_extend_minimal_tight_input_unchanged():
    mb = mercedes_benz()
    out = fk.extend_tight_minimal(mb)
    assert out.n == mb.n


def test_extend_minimal_multiplicity():
    X = np.diag([np.sqrt(3.0), np.sqrt(2.0), np.sqrt(2.0)])
    out = fk.extend_tight_minimal(FramePair(X, X, "real"))
    assert out.n == 5
    norms = np.linalg.norm(out.X[:, 3:], axis=0)
    assert np.allclose(sorted(norms), [1.0, 1.0])
    assert np.allclose(fk.frame_operator(out), 3.0 * np.eye(3))


def test_extend_minimal_append_count_random(rng):
    for _ in range(40):
        m = int(rng.integers(1, 6))
        X = rng.standard_normal((m, m + 2))
        fp = FramePair(X, X, "real")
        S = fk.frame_operator(fp)
        w = np.linalg.eigvalsh(S)
        expected = int(np.sum(w < w[-1] - 1e-9 * max(1.0, w[-1])))
        out = fk.extend_tight_minimal(fp)
        assert out.n == fp.n + expected
        r = fk.verify(out)
        assert r.tight and r.upper_b == pytest.approx(w[-1], rel=1e-9)


def test_extend_minimal_requires_self_pair():
    with pytest.raises(NotSelfPair):
        fk.extend_tight_minimal(DIAG12)


# --- span characterization --------------------------------------------------------

def test_span_standard_pair():
    result = fk.span_characterization(STD2)
    assert result.is_frame and result.witness is None


def test_span_duplicate_vector_witness():
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    result = fk.span_characterization(FramePair(X, X, "real"))
    assert not result.is_frame
    assert result.witness == ("x", "x")


def test_span_matches_eigen_verdict_diag():
    fp = FramePair(np.eye(2), np.diag([2.0, 3.0]), "real")
    result = fk.span_characterization(fp)
    assert result.is_frame == fk.verify(fp).is_frame is True


def test_span_hypothesis_gate():
    with pytest.raises(HypothesisFails):
        fk.span_characterization(FramePair(np.eye(2), np.eye(2)[:, ::-1], "real"))


def test_span_decides_past_twenty_members(rng):
    X = rng.standard_normal((3, 21))
    result = fk.span_characterization(FramePair(X, X * rng.uniform(0.5, 2.0, 21), "real"))
    assert result.is_frame and result.witness is None
    # four members with tau_j = 0 off a hyperplane, sixty aligned members inside it:
    # choosing tau at the first four leaves only the hyperplane
    X = np.hstack([rng.standard_normal((4, 4)), np.vstack([rng.standard_normal((3, 60)), np.zeros((1, 60))])])
    T = X * np.concatenate([np.zeros(4), rng.uniform(0.5, 2.0, 60)])
    result = fk.span_characterization(FramePair(X, T, "real"))
    assert not result.is_frame and len(result.witness) == 64
    picked = np.column_stack([X[:, j] if w == "x" else T[:, j] for j, w in enumerate(result.witness)])
    assert np.linalg.matrix_rank(picked) < 4


def hypothesis_pair(rng, m, n, spanning):
    # tau_j = c_j x_j with c_j > 0 satisfies the alignment hypothesis
    X = rng.standard_normal((m, n))
    if not spanning:
        X[m - 1, :] = 0.0
    c = rng.uniform(0.5, 2.0, n)
    return FramePair(X, X * c, "real")


def test_span_oracle_equivalence_random(rng):
    for k in range(120):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        fp = hypothesis_pair(rng, m, n, spanning=k % 2 == 0 and n >= m)
        assert fk.span_characterization(fp).is_frame == fk.verify(fp).is_frame


# --- formulas ----------------------------------------------------------------------

def test_formulas_parsevalized_mercedes_benz():
    report = fk.formulas_report(mercedes_benz(np.sqrt(2.0 / 3.0)))
    assert report.sum_inner == pytest.approx(2.0, abs=1e-9)
    assert report.dim_formula_ok
    assert report.variation_ok


def test_formulas_mercedes_benz_b_equals_n_over_m():
    report = fk.formulas_report(mercedes_benz())
    # all <x_j, tau_j> = 1, so the common value times n/m is the bound
    assert report.equal_diag_b == pytest.approx(1.0, abs=1e-12)
    assert report.equal_diag_ok
    assert fk.verify(mercedes_benz()).upper_b == pytest.approx(3.0 / 2.0, abs=1e-9)


def test_formulas_diag_trace():
    report = fk.formulas_report(DIAG12)
    assert report.trace_S == pytest.approx(3.0)
    assert report.sum_inner == pytest.approx(3.0)
    assert report.dim_formula_ok is None  # not Parseval


def test_formulas_trace_identities_random(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        fp = random_frame(rng, m, int(rng.integers(m, 8)),
                          "complex" if rng.random() < 0.5 else "real")
        report = fk.formulas_report(fp)
        S = fk.frame_operator(fp)
        assert report.sum_inner == pytest.approx(np.trace(S).conjugate(), abs=1e-9)
        assert report.double_sum == pytest.approx(np.trace(S @ S), abs=1e-8)
        assert report.trace_S2 == pytest.approx(np.trace(S @ S), abs=1e-8)


# --- trace formula -------------------------------------------------------------------

def test_trace_formula_examples():
    pmb = mercedes_benz(np.sqrt(2.0 / 3.0))
    r = fk.trace_formula(pmb, np.eye(2))
    assert r.lhs == pytest.approx(2.0) and r.ok
    r = fk.trace_formula(pmb, np.zeros((2, 2)))
    assert r.lhs == 0 and r.ok
    r = fk.trace_formula(pmb, np.diag([1.0, 3.0]))
    assert r.rhs == pytest.approx(4.0, abs=1e-9) and r.ok


def test_trace_formula_random(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        fp = random_parseval(rng, m, int(rng.integers(m, 8)),
                             "complex" if rng.random() < 0.5 else "real")
        M = rng.standard_normal((m, m))
        assert fk.trace_formula(fp, M).ok


# --- weighted orthonormal check ------------------------------------------------------

def test_weighted_onb_unit_weights():
    assert fk.weighted_onb_check(STD2, [1.0, 1.0]).holds


def test_weighted_onb_mixed_weights():
    fp = FramePair(np.eye(2), np.diag([0.5, 1.5]), "real")
    assert fk.weighted_onb_check(fp, [0.5, 1.5]).holds


def test_weighted_onb_rejections():
    with pytest.raises(WeightTooLarge):
        fk.weighted_onb_check(FramePair(np.eye(1), 3.0 * np.eye(1), "real"), [3.0])
    with pytest.raises(NotWeightedOnb):
        fk.weighted_onb_check(DIAG12, [1.0, 1.0])  # tau != c x for these weights


# --- perturbation certificates --------------------------------------------------------

def test_perturb_quadratic_zero_perturbation():
    cert = fk.perturb_quadratic(STD2, STD2.X)
    assert cert.hypothesis_ok
    assert cert.predicted_lower == pytest.approx(1.0)
    assert cert.actual_lower == pytest.approx(1.0)


def test_perturb_quadratic_scaled_standard_pair():
    cert = fk.perturb_quadratic(STD2, 0.9 * np.eye(2))
    assert cert.hypothesis_ok
    assert cert.predicted_lower == pytest.approx(0.8, abs=1e-12)
    # frame operator of the perturbed pair is diag(0.9, 0.9)
    assert cert.actual_lower == pytest.approx(0.9, abs=1e-12)
    assert cert.actual_upper == pytest.approx(0.9, abs=1e-12)
    assert cert.predicted_lower <= cert.actual_lower
    assert cert.actual_upper <= cert.predicted_upper


def test_perturb_quadratic_window_contains_scaled_mercedes_benz():
    # x_j -> 1.01 x_j moves b from 1.5 to 1.515; the upper bound needs
    # sqrt(sum ||x_j - y_j||^2) = ||X - Y||_F, not the plain sum of squares
    fp = mercedes_benz()
    cert = fk.perturb_quadratic(fp, 1.01 * fp.X)
    assert cert.hypothesis_ok
    assert cert.actual_upper == pytest.approx(1.515, abs=1e-12)
    assert cert.predicted_lower <= cert.actual_lower
    assert cert.actual_upper <= cert.predicted_upper


def test_perturb_quadratic_sign_flip_fails_hypothesis():
    cert = fk.perturb_quadratic(STD2, -np.eye(2))
    assert not cert.hypothesis_ok


def test_perturb_normsum_examples():
    cert = fk.perturb_normsum(STD2, STD2.X)
    assert cert.hypothesis_ok and cert.predicted_lower == pytest.approx(1.0)
    cert = fk.perturb_normsum(STD2, 0.9 * np.eye(2))
    assert cert.hypothesis_ok
    r = 2 * 0.1**2
    assert cert.predicted_lower == pytest.approx(1.0 - np.sqrt(r), abs=1e-12)
    cert = fk.perturb_normsum(STD2, 3.0 * np.eye(2))  # r = 8 >= 1 = threshold
    assert not cert.hypothesis_ok


def test_perturb_soundness_random(rng):
    sound = 0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 8))
        X = rng.standard_normal((m, n))
        c = rng.uniform(0.5, 2.0, n)
        fp = FramePair(X, X * c, "real")
        if not fk.verify(fp).is_frame:
            continue
        eps = rng.uniform(0.0, 0.05, n)
        Y = X * (1.0 - eps)
        for cert in (fk.perturb_quadratic(fp, Y), fk.perturb_normsum(fp, Y)):
            if cert.hypothesis_ok:
                sound += 1
                assert cert.predicted_lower <= cert.actual_lower + 1e-9
                assert cert.actual_upper <= cert.predicted_upper + 1e-9
                assert cert.actual_lower > 0
    assert sound > 50


def test_perturb_sampled_linear_zero_case():
    cert = fk.perturb_sampled(STD2, STD2.X, 0.0, 0.0, 0.0, samples=200)
    assert cert.hypothesis_ok
    assert cert.predicted_lower == pytest.approx(cert.actual_lower)
    assert cert.predicted_upper == pytest.approx(cert.actual_upper)


def test_perturb_sampled_linear_gamma_certificate():
    cert = fk.perturb_sampled(STD2, 0.9 * np.eye(2), 0.0, 0.0, 0.1 * np.sqrt(2.0),
                              samples=10000, seed=3)
    assert cert.hypothesis_ok  # the inequality holds exactly with this gamma


def test_perturb_sampled_linear_falsified():
    # gamma slightly below the perturbation norm: witnesses exist
    cert = fk.perturb_sampled(STD2, 0.5 * np.eye(2), 0.0, 0.0, 0.25, samples=500)
    assert not cert.hypothesis_ok


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_perturbed_family_is_a_domain_error(bad):
    # the NaN case used to pass the finite path of the overflow check and read as an overflow
    X = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    fp = FramePair(X, X, "real")
    Y = X.copy()
    Y[0, 0] = bad
    calls = [lambda: fk.perturb_quadratic(fp, Y), lambda: fk.perturb_normsum(fp, Y),
             lambda: fk.perturb_sampled(fp, Y, 0.1, 0.1, 0.1, samples=20),
             lambda: fk.perturb_sampled(fp, Y, 0.1, 0.1, 0.0, samples=20,
                                        kind=fk.analysis.SAMPLED_BESSEL)]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                call()


def test_perturb_sampled_bad_params():
    with pytest.raises(BadParams):
        fk.perturb_sampled(STD2, STD2.X, 1.5, 0.0, 0.0)
    with pytest.raises(BadParams):
        fk.perturb_sampled(STD2, STD2.X, 0.0, 1.5, 0.0, kind=fk.analysis.SAMPLED_BESSEL)


def test_perturb_sampled_bessel_window():
    cert = fk.perturb_sampled(STD2, 0.9 * np.eye(2), 0.0, 0.0, 0.5,
                              samples=500, kind=fk.analysis.SAMPLED_BESSEL)
    assert cert.hypothesis_ok
    assert cert.predicted_lower <= cert.actual_lower
    assert cert.actual_upper <= cert.predicted_upper


def test_perturb_sampled_bessel_negativity_falsifies():
    cert = fk.perturb_sampled(STD2, -np.eye(2), 0.0, 0.5, 0.5,
                              samples=200, kind=fk.analysis.SAMPLED_BESSEL)
    assert not cert.hypothesis_ok


# --- field conversions ------------------------------------------------------------------

def test_real_to_complex_examples():
    out = fk.real_to_complex(mercedes_benz())
    assert out.field == "complex"
    r = fk.verify(out)
    assert r.tight and r.upper_b == pytest.approx(1.5, abs=1e-9)
    assert fk.verify(fk.real_to_complex(STD2)).parseval


def test_real_to_complex_hypothesis_fails():
    fp = FramePair(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]), "real")
    with pytest.raises(HypothesisFails):
        fk.real_to_complex(fp)


def test_real_to_complex_requires_real():
    with pytest.raises(NotReal):
        fk.real_to_complex(FramePair(np.eye(2, dtype=complex), np.eye(2, dtype=complex), "complex"))


def test_complex_to_real_scalar_example():
    z = np.array([[1.0 + 1.0j]])
    out = fk.complex_to_real(FramePair(z, z, "complex"))
    assert out.n == 2 and out.field == "real"
    assert np.allclose(out.X, [[1.0, 1.0]])
    r = fk.verify(out)
    assert r.tight and r.upper_b == pytest.approx(2.0)


def test_complex_to_real_real_entried_input():
    fp = FramePair(np.eye(2, dtype=complex), np.eye(2, dtype=complex), "complex")
    out = fk.complex_to_real(fp)
    assert out.n == 4
    assert np.allclose(fk.frame_operator(out), np.eye(2))


def test_complex_to_real_hypothesis_fails():
    X = np.array([[1.0], [1.0j]])
    T = np.array([[1.0j], [1.0]])
    with pytest.raises(HypothesisFails):
        fk.complex_to_real(FramePair(X, T, "complex"))


def test_conversions_preserve_bounds_random(rng):
    for _ in range(30):
        m = int(rng.integers(1, 5))
        fp = random_frame(rng, m, int(rng.integers(m, 7)), "complex")
        Xr, Xi = fp.X.real, fp.X.imag
        Tr, Ti = fp.T.real, fp.T.imag
        if np.max(np.abs(Ti @ Xr.T - Tr @ Xi.T)) > 1e-12:
            continue  # hypothesis not satisfied by this draw
        out = fk.complex_to_real(fp)
        rin, rout = fk.verify(fp), fk.verify(out)
        assert rout.lower_a >= rin.lower_a - 1e-9
        assert rout.upper_b <= rin.upper_b + 1e-9
