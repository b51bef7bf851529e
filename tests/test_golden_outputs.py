"""Byte-for-byte contents of every file the golden CLI cases write with -o.

tests/golden/cli.txt pins stdout and exit codes; this pins the documents
the same cases write, which stdout does not show.  The cases with -o run
in order (each reads only the seeded inputs or an earlier case's output),
and tests/golden/cli_outputs.txt holds, per written file, a
"=== <name>" line followed by the file's exact text.

Regenerate (only when a change of file contents is intended):

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden/cli_outputs.txt
"""

import contextlib
import io as stdio
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from framekit.cli import run
from test_golden_cli import CASES, write_inputs

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.txt"


def written_files() -> str:
    """Run the -o cases in a fresh directory and return the joined file contents."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs(np.random.default_rng(20261017))
            out = []
            for case in CASES:
                argv = case.split()
                if "-o" not in argv:
                    continue
                name = argv[argv.index("-o") + 1]
                with contextlib.redirect_stdout(stdio.StringIO()):
                    assert run(argv) == 0, case
                out.append(f"=== {name}\n" + Path(name).read_text(encoding="utf-8"))
        finally:
            os.chdir(old)
    return "".join(out)


def test_cli_written_files_match_golden():
    assert written_files() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(written_files())
