"""Traced stand-in for `python -m framekit.cli`, one job per interpreter.

Usage: traced_cli.py SPANS_OUT KIND ARG...

Times `import numpy` and then framekit's own imports, runs
framekit.cli.run(ARG...) under the tracer, and writes the spans, the import
times and the number of framekit modules loaded to SPANS_OUT.  The exit code
and standard output are the CLI's own.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import numpy  # noqa: E402,F401

t1 = perf_counter()
import framekit.cli  # noqa: E402

t2 = perf_counter()

import json  # noqa: E402

import tracer  # noqa: E402  (this file's directory is on sys.path)


def main():
    spans_out, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tr = tracer.Tracer()
    tracer.install(tr)
    with tr.job(kind):
        code = framekit.cli.run(argv)
    modules = sum(1 for name in sys.modules if name == "framekit" or name.startswith("framekit."))
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"import_numpy_ms": 1e3 * (t1 - t0), "import_framekit_ms": 1e3 * (t2 - t1),
                   "modules_imported": modules, "spans": tr.dump()}, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
