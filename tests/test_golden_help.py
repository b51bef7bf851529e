"""Byte-for-byte help and usage-error transcripts of the CLI.

Each case runs cli.run in-process with stdout and stderr captured: -h at
every level (the top, each group and each of the 18 verbs), each parser with
no further arguments, invalid verbs and sub-verbs, unknown options, bad
type= values and the choice and mutual-exclusion errors.  Stdout, stderr and
the exit code of each must match tests/golden/cli_help.txt exactly.  The
help text is wrapped at COLUMNS = 80, and argparse's layout differs between
Python versions (3.10 heads the options "optional arguments:"), so the
transcript is compared only on the version that generated it.

Regenerate the transcript (only when a change of help or usage text is intended):

    PYTHONPATH=src python tests/test_golden_help.py > tests/golden/cli_help.txt
"""

import contextlib
import io as stdio
import os
import sys
from pathlib import Path

import pytest

from framekit.cli import run

GOLDEN = Path(__file__).parent / "golden" / "cli_help.txt"
PYTHON = (3, 11)

GROUPS = {
    "construct": ["circular", "group"],
    "analyze": ["reconstruct", "extend", "span", "formulas", "perturb", "convert"],
    "ovf": ["verify", "dual", "bridge"],
    "pframe": ["verify", "dual", "paley-wiener", "fourlaws"],
}
PARSERS = ([""] + ["verify", "dual", "classify"]
           + [p for group, verbs in GROUPS.items() for p in [group] + [f"{group} {v}" for v in verbs]])

CASES = (
    [f"{p} -h".strip() for p in PARSERS]
    + [p for p in PARSERS]  # no further arguments: a missing verb, sub-verb or required argument
    + ["--help", "analyze span --help", "bogus", "verify.json", "-x", "--abs-tol 0 verify f"]
    + [f"{group} bogus" for group in GROUPS]
    + [
        "verify f.json --bogus",
        "verify f.json extra",
        "verify f.json --abs-tol x",
        "verify f.json --seed 1.5",
        "verify f.json --samples",
        "verify f.json -o",
        "construct circular --k 3",
        "construct circular --k x --l 3",
        "construct group --table z6.json --x 1",
        "analyze reconstruct f.json",
        "analyze reconstruct f.json --target 1 --steps two",
        "analyze extend f.json --lambda x",
        "analyze extend f.json --minimal=1",
        "analyze perturb f.json",
        "analyze perturb f.json --perturbed g.json --kind cubic",
        "analyze perturb f.json --perturbed g.json --alpha x",
        "analyze convert f.json",
        "analyze convert f.json --to-real --to-complex",
        "ovf bridge",
        "pframe paley-wiener base.json",
        "pframe fourlaws --x 1,2",
        "pframe fourlaws --y 1 --x 1 --z 2",
    ]
)


def transcripts() -> str:
    """Run every case with COLUMNS = 80 and return the joined transcript."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        out = []
        for case in CASES:
            stdout, stderr = stdio.StringIO(), stdio.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(case.split())
            out.append(f"$ framekit {case}".rstrip() + f"\n{stdout.getvalue()}"
                       f"--- stderr\n{stderr.getvalue()}exit = {code}\n")
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old
    return "\n".join(out)


@pytest.mark.skipif(sys.version_info[:2] != PYTHON,
                    reason="argparse's help layout differs between Python versions")
def test_help_and_usage_transcripts_match_golden():
    assert transcripts() == GOLDEN.read_text(encoding="utf-8")


def test_cases_cover_every_parser():
    assert len(PARSERS) == 1 + 3 + len(GROUPS) + 15 == 23
    assert len(CASES) >= 46


if __name__ == "__main__":
    sys.stdout.write(transcripts())
