"""lp norms scaled by powers of two: finite norms of huge or tiny vectors,
and a four-laws report whose fourth powers overflow is a numerical failure."""

import warnings

import numpy as np
import pytest

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
