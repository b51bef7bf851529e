"""lp norms scaled by powers of two: finite norms of huge or tiny vectors,
a four-laws report whose fourth powers overflow is a numerical failure,
and a raw array with a NaN or infinite entry is a domain error."""

import warnings

import numpy as np
import pytest

import framekit as fk
from framekit import PFramePair
from framekit.cli import run
from framekit.numerics import _lp_norm, _lp_norms

import pairfiles

EPS = np.finfo(float).eps


def test_lp_norm_of_huge_entries_is_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _lp_norm([1e200, 1e200], 3)
    assert abs(got - 2.0 ** (1.0 / 3.0) * 1e200) <= 4 * EPS * got


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("power", [-700, 700])
def test_scaled_rows_match_the_unscaled_norms(rng, p, power):
    V = rng.standard_normal((50, 6))
    s = 2.0**power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _lp_norms(V * s, p)
    want = _lp_norms(V, p) * s
    assert np.all(np.abs(got - want) <= 4 * EPS * want)


def test_ordinary_rows_keep_the_unscaled_sum(rng):
    V = rng.standard_normal((200, 5)) * 10.0 ** rng.integers(-6, 6, (200, 1))
    for p in (1.0, 1.5, 3.0):
        assert np.array_equal(_lp_norms(V, p), (np.abs(V) ** p).sum(axis=1) ** (1.0 / p))


def test_four_laws_overflow_is_a_numerical_failure(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["pframe", "fourlaws", "--x", "1e200,1", "--y", "1,1e200"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out.startswith("kind = domain_error\nerror = NumericalOverflow\n")
    assert "largest input magnitude 1e+200" in out
    assert err == ""


def test_paley_wiener_on_a_huge_base_is_not_orthonormal(tmp_path, capsys):
    base = tmp_path / "base.pframe"
    pairfiles.write_pframe_pair(str(base), PFramePair(np.eye(2), 1e200 * np.eye(2), 3.0, "real"))
    pert = tmp_path / "pert.pframe"
    pairfiles.write_pframe_pair(str(pert), PFramePair(np.eye(2), 1e200 * np.eye(2), 3.0, "real"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["pframe", "paley-wiener", str(base), str(pert)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "error = BaseNotOrthonormal\n" in out
    assert err == ""


def non_finite_calls(bad):
    """Each public lp entry point that takes a raw array, given one entry bad."""
    M = np.array([[bad, 0.0], [0.0, 1.0]])
    v = np.array([1.0, bad])
    parseval = PFramePair(np.eye(2), np.eye(2), 3.0, "real")
    return {
        "pnorm_estimate": lambda: fk.pnorm_estimate(M, 3.0),
        "p_orthonormal_check": lambda: fk.p_orthonormal_check(M, 3.0),
        "riesz_p_bounds": lambda: fk.riesz_p_bounds(M, 3.0),
        "paley_wiener_check base": lambda: fk.paley_wiener_check(M, np.eye(2), 3.0),
        "paley_wiener_check Y": lambda: fk.paley_wiener_check(np.eye(2), M, 3.0),
        "four_laws_check x": lambda: fk.four_laws_check(v, [0.0, 1.0]),
        "four_laws_check y": lambda: fk.four_laws_check([0.0, 1.0], v),
        "project_line_l4 x": lambda: fk.project_line_l4(v, [0.0, 1.0]),
        "project_line_l4 y": lambda: fk.project_line_l4([0.0, 1.0], v),
        "banach_formulas M": lambda: fk.banach_formulas(parseval, M),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_raw_array_is_a_domain_error(bad):
    for call in non_finite_calls(bad).values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                call()
    for call in non_finite_calls(1.0).values():  # the same calls on finite input return
        call()
