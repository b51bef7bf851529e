"""The CLI's verb table: every subcommand's options, and where -o sends output.

The option specs pin each subcommand's arguments in parser order, so they
also pin the --help text without depending on argparse's formatting.  The
routing cases run every verb with -o: a verb that builds a pair writes the
document there and its report to stdout; any other verb writes its report
there and leaves stdout empty; a failing verb writes nothing there.
"""

import argparse

import numpy as np
import pytest

import framekit.io as fio
from framekit import frames
from framekit.cli import build_parser, run

from test_golden_cli import write_inputs


def arg(flags, dest, default=None, required=False, choices=None, type=None, nargs=None,
        help=None):
    return (flags, dest, default, required, choices, type, nargs, help)


def spec(action):
    return arg(" ".join(action.option_strings), action.dest, action.default, action.required,
               action.choices, getattr(action.type, "__name__", None), action.nargs, action.help)


FILE = arg("", "file", required=True)
COMMON = [
    arg("--abs-tol", "abs_tol", 1e-9, type="float"),
    arg("--rel-tol", "rel_tol", 1e-9, type="float"),
    arg("--seed", "seed", 0, type="int"),
    arg("--samples", "samples", 1000, type="int"),
    arg("-o --output", "output"),
]
OWN = {
    "verify": [FILE],
    "dual": [FILE],
    "classify": [FILE],
    "construct circular": [arg("--k", "k", required=True, type="int"),
                           arg("--l", "l", required=True, type="int")],
    "construct group": [arg("--table", "table", required=True, help="group table file"),
                        arg("--x", "x", required=True, help="comma separated generator"),
                        arg("--tau", "tau", required=True, help="comma separated generator")],
    "analyze reconstruct": [FILE,
                            arg("--target", "target", required=True,
                                help="comma separated vector"),
                            arg("--steps", "steps", 20, type="int")],
    "analyze extend": [FILE, arg("--lambda", "lam", type="float"),
                       arg("--minimal", "minimal", False, nargs=0)],
    "analyze span": [FILE],
    "analyze formulas": [FILE],
    "analyze perturb": [FILE,
                        arg("--perturbed", "perturbed", required=True,
                            help="frame pair file; its x family is the perturbation"),
                        arg("--kind", "kind", "quadratic",
                            choices=["quadratic", "normsum", "sampled-linear", "sampled-bessel"]),
                        arg("--alpha", "alpha", 0.0, type="float"),
                        arg("--beta", "beta", 0.0, type="float"),
                        arg("--gamma", "gamma", 0.0, type="float")],
    "analyze convert": [FILE, arg("--to-complex", "to_complex", False, nargs=0),
                        arg("--to-real", "to_real", False, nargs=0)],
    "ovf verify": [FILE],
    "ovf dual": [FILE],
    "ovf bridge": [arg("", "file", required=True,
                       help="frame pair file (forward) or ovf file with d = 1 (inverse)")],
    "pframe verify": [FILE],
    "pframe dual": [FILE],
    "pframe paley-wiener": [arg("", "base", required=True,
                                help="p-frame file; its tau columns are the basis"),
                            arg("", "perturbed", required=True,
                                help="p-frame file; its tau columns are the perturbation")],
    "pframe fourlaws": [arg("--x", "x", required=True), arg("--y", "y", required=True)],
}


def subcommands(parser, path=()):
    """(name, parser) of every leaf subcommand, in registration order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            assert action.required
            for name in action.choices:  # a verb's parser is built when it is selected
                yield from subcommands(action.parser(name), path + (name,))
            return
    yield " ".join(path), parser


def test_every_subcommand_pins_its_options_in_parser_order():
    leaves = dict(subcommands(build_parser()))
    assert list(leaves) == list(OWN)
    for name, parser in leaves.items():
        got = [spec(a) for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert got == OWN[name] + COMMON, name
        groups = [(g.required, [a.dest for a in g._group_actions])
                  for g in parser._mutually_exclusive_groups]
        assert groups == ([(True, ["to_complex", "to_real"])] if name == "analyze convert"
                          else []), name


# --- -o routing --------------------------------------------------------------------

DOCUMENT_CASES = [  # (argv, kind of the document written to -o)
    ("dual frame.json", "frame"),
    ("construct circular --k 3 --l 3", "frame"),
    ("construct group --table z6.json --x 1,0.5,0,0,0,0 --tau 1,0.5,0,0,0,0", "frame"),
    ("analyze extend frame.json --lambda 100", "frame"),
    ("analyze convert complex.json --to-real", "frame"),
    ("ovf dual ovf.json", "ovf"),
    ("ovf bridge frame.json", "ovf"),
    ("ovf bridge ovf_rank_one.json", "frame"),
    ("pframe dual pframe.json", "pframe"),
]
REPORT_CASES = [
    "verify frame.json",
    "classify frame.json",
    "analyze reconstruct frame.json --target 1,-0.5,2 --steps 5",
    "analyze span span_planted.json",
    "analyze formulas frame.json",
    "analyze perturb self_dual.json --perturbed perturbed.json --kind sampled-linear"
    " --samples 50",
    "ovf verify ovf.json",
    "pframe verify pframe.json --samples 50",
    "pframe paley-wiener pw_base.json pw_perturbed.json --samples 50",
    "pframe fourlaws --x 1,2,-1 --y 0.5,0,3",
]
FAILING_CASES = [  # (argv, exit code)
    ("dual singular.json", 2),
    ("ovf dual ovf_singular.json", 2),
    ("verify bad_count.json", 1),
    ("construct circular --k 3 --l 0", 2),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        write_inputs(np.random.default_rng(20261017))
    return path


def run_case(capsys, case, *extra):
    code = run(case.split() + list(extra))
    return code, capsys.readouterr().out


def test_the_cases_cover_every_verb():
    cases = [case for case, _ in DOCUMENT_CASES] + REPORT_CASES
    assert {name for name in OWN if any(c.startswith(name + " ") for c in cases)} == set(OWN)


@pytest.mark.parametrize("case, kind", DOCUMENT_CASES)
def test_a_built_document_goes_to_o_and_the_report_to_stdout(inputs, tmp_path, monkeypatch,
                                                             capsys, case, kind):
    monkeypatch.chdir(inputs)
    code, report = run_case(capsys, case)
    assert code == 0 and report.startswith("kind = ")
    out = tmp_path / "out.json"
    code, text = run_case(capsys, case, "-o", str(out))
    assert code == 0 and text == report
    assert fio.detect_kind(fio.load(str(out))) == kind


@pytest.mark.parametrize("case", REPORT_CASES)
def test_a_report_goes_to_o_and_stdout_stays_empty(inputs, tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(inputs)
    code, report = run_case(capsys, case)
    assert code == 0 and report.startswith("kind = ")
    out = tmp_path / "out.txt"
    code, text = run_case(capsys, case, "-o", str(out))
    assert code == 0 and text == ""
    assert out.read_text(encoding="utf-8") == report


@pytest.mark.parametrize("case, exit_code", FAILING_CASES)
def test_a_failing_verb_writes_nothing_to_o(inputs, tmp_path, monkeypatch, capsys, case,
                                            exit_code):
    monkeypatch.chdir(inputs)
    out = tmp_path / "out.json"
    code, text = run_case(capsys, case, "-o", str(out))
    error = "domain_error" if exit_code == 2 else "parse_error"
    assert code == exit_code and text.startswith(f"kind = {error}\n")
    assert not out.exists()


def test_a_document_is_saved_only_after_its_report_is_built(inputs, tmp_path, monkeypatch,
                                                            capsys):
    """Checking the built pair is part of the verb: when it fails, -o gets nothing."""
    def failing_verify(fp):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.chdir(inputs)
    monkeypatch.setattr(frames, "verify", failing_verify)
    out = tmp_path / "out.json"
    code, text = run_case(capsys, "analyze extend frame.json --lambda 100 -o", str(out))
    assert code == 2 and text.startswith("kind = domain_error\n")
    assert not out.exists()


@pytest.mark.parametrize("case", ["verify frame.json", "dual frame.json"])
def test_an_unwritable_o_is_an_io_failure(inputs, tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(inputs)
    code, text = run_case(capsys, case, "-o", str(tmp_path / "missing" / "out"))
    assert code == 1 and text.startswith("kind = parse_error\nerror = FileNotFoundError\n")


_ENCODERS = ("frame_pair_to_dict", "ovf_pair_to_dict", "pframe_pair_to_dict")


@pytest.mark.parametrize("case, kind", DOCUMENT_CASES + [(case, None) for case in REPORT_CASES])
def test_a_document_is_encoded_only_for_o(inputs, tmp_path, monkeypatch, capsys, case, kind):
    """Without -o no encoder runs; with -o a document verb runs its own once."""
    calls = []

    def spied(name):
        encoder = getattr(fio, name)

        def wrapper(obj):
            calls.append(name)
            return encoder(obj)
        return wrapper

    monkeypatch.chdir(inputs)
    for name in _ENCODERS:
        monkeypatch.setattr(fio, name, spied(name))
    code, _ = run_case(capsys, case)
    assert code == 0 and calls == []
    code, _ = run_case(capsys, case, "-o", str(tmp_path / "out.json"))
    assert code == 0 and calls == ([] if kind is None else [f"{kind}_pair_to_dict"])
