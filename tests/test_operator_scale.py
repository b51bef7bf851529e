"""One read of the frame operator per verdict, and the overflow it must not cause.

A verdict forms S and its scale max |S| in one pass
(frames._frame_operator_scale): a scale that is not below inf, from an
entry that overflowed to +-inf or one that is inf - inf = NaN, raises
NumericalOverflow; otherwise the same scale sets the Hermitian rule's
margin and chooses the Hermitian part that cannot overflow.  Every check
here runs with warnings as errors, so a numpy RuntimeWarning fails it.
"""

import json
import warnings

import numpy as np
import pytest

import framekit as fk
from framekit import frames, numerics
from framekit.cli import run
from framekit.errors import NumericalOverflow

EPS = np.finfo(float).eps
HALF_MAX = np.finfo(float).max / 2

# x = tau = diag(1.3e154, 1e154): S = diag(1.3e154^2, 1e308), a frame whose S
# exceeds half the float range, so (S + S^*) / 2 summed first overflows
BIG_DIAG = np.diag([1.3e154, 1e154])
BIG_BOUNDS = (1e154 * 1e154, 1.3e154 * 1.3e154)


def quiet(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


def assert_bounds(report, lower, upper):
    # eigvalsh rescales a matrix this large, so the bounds may move by an ulp
    assert report.is_frame and report.psd and report.self_adjoint and report.invertible
    assert report.lower_a == pytest.approx(lower, rel=4 * EPS)
    assert report.upper_b == pytest.approx(upper, rel=4 * EPS)


def test_hermitian_part_above_half_the_float_range_is_finite():
    real = np.diag([1.7e308, 1e308])
    herm = np.array([[1.7e308, 1e307j], [-1e307j, 1e308]])
    for M in (real, herm, np.stack([herm, herm.conj()])):
        assert np.array_equal(quiet(lambda: numerics.hermitian_part(M)), M)
    report = quiet(lambda: fk.spectral(real))
    assert report.is_pd and np.allclose(report.eigenvalues.real, [1e308, 1.7e308], rtol=4 * EPS)
    assert_bounds(quiet(lambda: frames.frame_flags(real, fk.Tolerance())), 1e308, 1.7e308)


def test_below_half_the_float_range_no_bit_moves(rng):
    for scale in (1.0, 1e-300, 1e300, HALF_MAX):
        for field in (float, complex):
            M = rng.standard_normal((4, 4)).astype(field)
            if field is complex:
                M += 1j * rng.standard_normal((4, 4))
            M *= scale / np.abs(M).max()
            assert np.abs(M).max() <= HALF_MAX
            assert np.array_equal(numerics.hermitian_part(M), 0.5 * (M + M.conj().T))


def test_verify_a_frame_whose_operator_exceeds_half_the_float_range():
    fp = fk.FramePair(BIG_DIAG, BIG_DIAG, "real")
    assert_bounds(quiet(lambda: fk.verify(fp)), *BIG_BOUNDS)
    assert_bounds(quiet(lambda: fk.verify_ovf(fk.ovf_bridge(fp))), *BIG_BOUNDS)
    assert quiet(lambda: fk.classify(fp)).riesz_frame


def test_cli_verifies_that_frame(tmp_path, capsys):
    path = tmp_path / "big.json"
    members = BIG_DIAG.T.tolist()
    path.write_text(json.dumps({"field": "real", "dim": 2, "count": 2,
                                "x": members, "tau": members}))
    code = quiet(lambda: run(["verify", str(path)]))
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "\nis_frame = true\n" in out and "\npsd = true\n" in out


# a finite S whose eigenvalues are 7e307 and 2.7e308: the top one overflows to b = inf,
# and b - a = inf passed a tight margin that is inf at b = inf
TOP_OVERFLOWS = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])


def test_an_infinite_upper_bound_is_neither_tight_nor_parseval(tmp_path, capsys):
    fp = fk.FramePair(np.eye(2), TOP_OVERFLOWS, "real")
    reports = [quiet(lambda: frames.frame_flags(TOP_OVERFLOWS, fk.Tolerance())),
               quiet(lambda: fk.verify(fp)), quiet(lambda: fk.verify_ovf(fk.ovf_bridge(fp)))]
    for report in reports:
        assert report.is_frame and report.upper_b == np.inf
        assert not (report.tight or report.parseval)
    path = tmp_path / "top.json"
    path.write_text(json.dumps({"field": "real", "dim": 2, "count": 2,
                                "x": np.eye(2).tolist(), "tau": TOP_OVERFLOWS.tolist()}))
    assert quiet(lambda: run(["verify", str(path)])) == 0
    out = capsys.readouterr().out
    assert "\nupper_b = inf\n" in out and "\ntight = false\n" in out and "\nparseval = false\n" in out


# a finite S, not Hermitian: opposite entries above FLOAT_MAX / 2, so M - M^* overflows
OPPOSITE = np.array([[1.0, 1.2e308], [-1.2e308, 1.0]])


def test_the_hermitian_rule_does_not_overflow_above_half_the_float_range(tmp_path, capsys):
    for M in (OPPOSITE, OPPOSITE.astype(complex), np.stack([OPPOSITE, OPPOSITE.T])):
        assert not quiet(lambda: numerics._hermitian(M, fk.Tolerance())).any()
    report = quiet(lambda: frames.frame_flags(OPPOSITE, fk.Tolerance()))
    assert not (report.self_adjoint or report.psd or report.is_frame) and report.invertible
    path = tmp_path / "opposite.json"
    path.write_text(json.dumps({"field": "real", "dim": 2, "count": 2,
                                "x": np.eye(2).tolist(), "tau": OPPOSITE.T.tolist()}))
    assert quiet(lambda: run(["verify", str(path)])) == 0
    assert "\nself_adjoint = false\n" in capsys.readouterr().out


def test_a_margin_beyond_the_float_range_reads_inf(tmp_path, capsys):
    """abs_tol + rel_tol * scale above FLOAT_MAX compares as inf, with no warning:
    rel_tol = 2 at S = diag(1.7e308, 1e308), where every margin at b is inf."""
    wide = fk.Tolerance(0.0, 2.0)
    assert quiet(lambda: numerics._margins(wide, np.float64(1.7e308))) == np.inf
    assert quiet(lambda: numerics._margins(wide, np.array([1.0, 1.7e308]))).tolist() == [2.0, np.inf]
    assert quiet(lambda: numerics._margins(fk.Tolerance(1.5e308, 1.0), np.float64(1e308))) == np.inf
    S = np.diag([1.7e308, 1e308])
    report = quiet(lambda: frames.frame_flags(S, wide))
    assert report.is_frame and report.tight and report.parseval
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": "real", "dim": 2, "count": 2,
                                "x": np.eye(2).tolist(), "tau": S.tolist()}))
    assert quiet(lambda: run(["verify", str(path), "--rel-tol", "2"])) == 0
    assert "\ntight = true\n" in capsys.readouterr().out


def test_the_halved_hermitian_rule_is_the_unhalved_one_below_the_overflow(rng):
    """Above FLOAT_MAX / 2 both terms and the margin are halved, which is
    exact for these entries, so a matrix Hermitian to within its margin
    still passes and one a little beyond it still fails."""
    tol = fk.Tolerance()
    for k in range(40):
        M = rng.uniform(-1.0, 1.0, (3, 3)) * 1.5e308
        M = np.triu(M) + np.triu(M, 1).T
        margin = tol.abs_tol + tol.rel_tol * np.abs(M).max()
        M[0, 2] = M[2, 0] + (0.9 if k % 2 else 1.1) * margin
        assert bool(quiet(lambda: numerics._hermitian(M, tol))) == (k % 2 == 1)


def test_an_eigh_whose_eigenvalue_overflows_raises():
    """S is finite with eigenvalues 7e307 and 2.7e308: herm_sqrt returned
    all-inf entries and parsevalize a pair that verify called no frame."""
    with pytest.raises(NumericalOverflow, match=r"^herm_sqrt: eigenvalue 2 of 2 overflows to inf$"):
        quiet(lambda: fk.herm_sqrt(TOP_OVERFLOWS, fk.Tolerance()))
    p, q = np.sqrt(0.7) * 1e154, np.sqrt(2.7) * 1e154
    root = 0.5 * np.array([[p + q, q - p], [q - p, p + q]])  # X X^* is TOP_OVERFLOWS, rounded
    message = r"^frame operator: eigenvalue 2 of 2 overflows to inf$"
    for call in (lambda: fk.parsevalize(fk.FramePair(np.eye(2), TOP_OVERFLOWS, "real")),
                 lambda: fk.extend_tight_minimal(fk.FramePair(root, root, "real"))):
        with pytest.raises(NumericalOverflow, match=message):
            quiet(call)


def test_similarity_products_that_overflow_raise():
    # S = 4 I and S = 1.5 I: both frames, but theta_Psi^* theta_B overflows
    small = fk.FramePair(2.0 * np.eye(2), 2.0 * np.eye(2), "real")
    huge = fk.FramePair(1.5e308 * np.eye(2), 1e-308 * np.eye(2), "real")
    message = r"^similarity product overflows: largest input magnitude 1\.5e\+308$"
    calls = [lambda: fk.similarity_detect(small, huge), lambda: fk.similarity_detect(huge, small),
             lambda: fk.right_similarity_detect(fk.ovf_bridge(small), fk.ovf_bridge(huge)),
             lambda: fk.right_similarity_detect(fk.ovf_bridge(huge), fk.ovf_bridge(small))]
    for call in calls:
        with pytest.raises(NumericalOverflow, match=message):
            quiet(call)


# One row of 64 members, x_j = 1e200: with tau_j = 1e200, S overflows to inf; with
# alternating tau_j = +-1e200, the products overflow to +inf and -inf and S is NaN
# where they meet in one sum.  A single fused multiply-add chain would carry the
# first infinity through instead, so the NaN needs the several accumulators of a
# vectorised BLAS kernel; test_the_nan_case_meets_inf_and_minus_inf checks that.
NON_FINITE_S = {
    "inf": ([[1e200] * 64], [[1e200] * 64]),
    "nan": ([[1e200] * 64], [[1e200, -1e200] * 32]),
}


def test_the_nan_case_meets_inf_and_minus_inf():
    fp = fk.FramePair(*NON_FINITE_S["nan"], "real")
    with np.errstate(over="ignore", invalid="ignore"):
        S = fp.theta_Psi.conj().T @ fp.theta_A  # as frames._frame_operator_scale forms it
    assert np.isnan(S).all()


VERDICTS = {
    "verify": fk.verify,
    "classify": fk.classify,
    "canonical_dual": fk.canonical_dual,
    "parsevalize": fk.parsevalize,
    "extend_tight_append": lambda fp: fk.extend_tight_append(fp, 2.0),
    "formulas_report": fk.formulas_report,
    "iterate_reconstruct": lambda fp: fk.iterate_reconstruct(fp, [1.0], 2),
    "verify_ovf": lambda fp: fk.verify_ovf(fk.ovf_bridge(fp)),
}


@pytest.mark.parametrize("verdict", VERDICTS, ids=list(VERDICTS))
@pytest.mark.parametrize("kind", NON_FINITE_S, ids=list(NON_FINITE_S))
def test_every_verdict_rejects_a_frame_operator_that_is_not_finite(kind, verdict):
    X, T = NON_FINITE_S[kind]
    fp = fk.FramePair(X, T, "real")
    with pytest.raises(NumericalOverflow,
                       match=r"^frame operator overflows: largest input magnitude 1e\+200$"):
        quiet(lambda: VERDICTS[verdict](fp))
