"""Malformed and extreme input documents against the CLI's exit codes.

A document that cannot be read as its kind is a parse failure: kind
parse_error, exit 1.  A well-formed document whose finite entries overflow
the frame operator is a numerical failure: kind domain_error, exit 2.
Neither raises out of cli.run nor writes to stderr.
"""

import json
import warnings

import numpy as np
import pytest

import framekit as fk
from framekit.cli import run
from framekit.errors import NumericalOverflow

FRAME = {"field": "real", "dim": 2, "count": 3,
         "x": [[1, 0], [0, 1], [1, 1]], "tau": [[1, 0], [0, 1], [1, 1]]}
CFRAME = {"field": "complex", "dim": 2, "count": 2,
          "x": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "tau": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
OVF = {"field": "real", "m": 2, "d": 1, "n": 2,
       "A": [[[1, 0]], [[0, 1]]], "psi": [[[1, 0]], [[0, 1]]]}
PFRAME = {"p": 3, "field": "real", "dim": 2, "count": 2,
          "f": [[1, 0], [0, 1]], "tau": [[2, 0], [0, 2]]}
BIG = 1e200


def _with(doc, **fields):
    return json.dumps(dict(doc, **fields))


# (id, verb, document text, expected kind, expected exit code)
CASES = [
    ("frame_ok", "verify", json.dumps(FRAME), "frame_report", 0),
    ("nan_entry", "verify", _with(FRAME, x=[[1, 0], [0, 1], [1, float("nan")]]), "parse_error", 1),
    ("inf_literal", "verify", json.dumps(FRAME).replace("[1, 1]]}", "[1, 1e400]]}"),
     "parse_error", 1),
    ("int_beyond_float", "verify", json.dumps(FRAME).replace("[1, 1]]}", "[1, 1" + "0" * 400 + "]]}"),
     "parse_error", 1),
    ("truncated", "verify", json.dumps(FRAME)[:40], "parse_error", 1),
    ("empty_file", "verify", "", "parse_error", 1),
    ("top_level_list", "verify", json.dumps([FRAME]), "parse_error", 1),
    ("ragged_rows", "verify", _with(FRAME, x=[[1, 0], [0], [1, 1]]), "parse_error", 1),
    ("dict_valued_x", "verify", _with(FRAME, x={"a": 1}), "parse_error", 1),
    ("dict_entry", "verify", _with(FRAME, x=[[{"a": 1}, 0], [0, 1], [1, 1]]), "parse_error", 1),
    ("string_entry", "verify", _with(FRAME, x=[["abc", 0], [0, 1], [1, 1]]), "parse_error", 1),
    ("null_entry", "verify", _with(FRAME, x=[[None, 0], [0, 1], [1, 1]]), "parse_error", 1),
    ("list_entry_real_field", "verify", _with(FRAME, x=[[[1], 0], [0, 1], [1, 1]]),
     "parse_error", 1),
    ("pair_entries_real_field", "verify", _with(CFRAME, field="real"), "parse_error", 1),
    ("empty_x", "verify", _with(FRAME, x=[]), "parse_error", 1),
    ("scalar_x", "verify", _with(FRAME, x=5), "parse_error", 1),
    ("missing_key", "verify", json.dumps({k: v for k, v in FRAME.items() if k != "tau"}),
     "parse_error", 1),
    ("unknown_field", "verify", _with(FRAME, field="quaternion"), "parse_error", 1),
    ("dim_mismatch", "verify", _with(FRAME, dim=3), "parse_error", 1),
    ("complex_ok", "verify", json.dumps(CFRAME), "frame_report", 0),
    ("complex_numbers_not_pairs", "verify", _with(CFRAME, x=[[1, 0], [0, 1]]), "parse_error", 1),
    ("complex_arity_3", "verify", _with(CFRAME, x=[[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]),
     "parse_error", 1),
    ("complex_arity_1", "verify", _with(CFRAME, x=[[[1], [0]], [[0], [1]]]), "parse_error", 1),
    ("complex_null_part", "verify", _with(CFRAME, x=[[[None, 0], [0, 0]], [[0, 0], [1, 0]]]),
     "parse_error", 1),
    ("complex_empty_x", "verify", _with(CFRAME, x=[]), "parse_error", 1),
    ("ovf_ok", "ovf verify", json.dumps(OVF), "ovf_report", 0),
    ("ovf_nan", "ovf verify", _with(OVF, A=[[[1, float("nan")]], [[0, 1]]]), "parse_error", 1),
    ("ovf_null", "ovf verify", _with(OVF, A=[[[1, None]], [[0, 1]]]), "parse_error", 1),
    ("ovf_ragged_member", "ovf verify", _with(OVF, A=[[[1, 0], [1]], [[0, 1]]]), "parse_error", 1),
    ("ovf_truncated", "ovf verify", json.dumps(OVF)[:30], "parse_error", 1),
    ("ovf_top_level_list", "ovf verify", json.dumps([OVF]), "parse_error", 1),
    ("pframe_ok", "pframe verify", json.dumps(PFRAME), "pframe_report", 0),
    ("pframe_null", "pframe verify", _with(PFRAME, f=[[None, 0], [0, 1]]), "parse_error", 1),
    ("pframe_ragged", "pframe verify", _with(PFRAME, f=[[1, 0], [0]]), "parse_error", 1),
    ("pframe_string", "pframe verify", _with(PFRAME, tau=[["x", 0], [0, 2]]), "parse_error", 1),
    ("pframe_p_beyond_float", "pframe verify", _with(PFRAME, p=10**400), "parse_error", 1),
    # finite entries whose frame operator overflows: a numerical failure
    ("overflow_verify", "verify", _with(FRAME, x=[[BIG, 0], [0, BIG], [BIG, BIG]],
                                        tau=[[BIG, 0], [0, BIG], [BIG, BIG]]), "domain_error", 2),
    ("overflow_dual", "dual", _with(FRAME, x=[[BIG, 0], [0, BIG], [BIG, BIG]],
                                    tau=[[BIG, 0], [0, BIG], [BIG, BIG]]), "domain_error", 2),
    ("overflow_span", "analyze span", _with(FRAME, x=[[BIG, 0], [0, BIG], [BIG, BIG]],
                                            tau=[[BIG, 0], [0, BIG], [BIG, BIG]]),
     "domain_error", 2),
    ("overflow_ovf_verify", "ovf verify", _with(OVF, A=[[[BIG, 0]], [[0, BIG]]],
                                                psi=[[[BIG, 0]], [[0, BIG]]]), "domain_error", 2),
    ("overflow_pframe_verify", "pframe verify", _with(PFRAME, f=[[BIG, 0], [0, BIG]],
                                                      tau=[[BIG, 0], [0, BIG]]), "domain_error", 2),
]


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_document_maps_to_its_exit_code(tmp_path, capsys, case):
    _, verb, text, kind, code = case
    path = tmp_path / "doc.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise out of run
        got = run([*verb.split(), str(path)])
    out, err = capsys.readouterr()
    assert out.startswith(f"kind = {kind}\n")
    assert got == code
    assert err == ""
    if code == 2:
        assert "error = NumericalOverflow\n" in out
        assert "largest input magnitude 1e+200" in out


def test_overflow_error_carries_the_largest_magnitude():
    X = np.array([[3e200, 0.0], [0.0, 1.0]])
    fp = fk.FramePair(X, X, "real")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match=r"largest input magnitude 3e\+200"):
            fk.frame_operator(fp)


def test_non_finite_square_matrix_is_still_a_value_error():
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        fk.spectral(np.array([[np.inf, 0.0], [0.0, 1.0]]))
