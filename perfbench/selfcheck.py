"""Self-checks for the benchmark itself.

Run from the repository root (about three minutes):

    python3 perfbench/selfcheck.py

1. The checkers count planted wrong results as failed: a perturbed bound,
   a flipped verdict, a wrong exit code and a truncated output file from
   the CLI, and a perturbed bound and a flipped verdict from the library.
2. Every workload prints every end-to-end metric (--trace 0) and every
   per-layer metric (--trace 1) that BENCHMARK.json names, with its unit.
3. The counts of two traced runs with the same seed are identical.

Exits with code 1 and names each failed check when any fails.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import run  # pins BLAS and turns off bytecode writing before numpy loads
import workloads

SEED = 7
SECONDS = 1  # per benchmark run; a run always measures at least one whole cycle
COUNTS = re.compile(r"(\.calls|_calls|\.raised|_per_verdict|cli\.modules_imported|io\.bytes_\w+)$")


def planted_failures(seed):
    """Genuine results pass; each planted corruption of one is counted as failed."""
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    work = run.HERE / ".work" / f"selfcheck-{os.getpid()}"
    try:
        inputs, outputs = work / "inputs", work / "out"
        inputs.mkdir(parents=True)
        outputs.mkdir()
        runner = run.CliRunner(work)
        runner.fill_cache()
        jobs = {j.kind: j for j in workloads.build("cli_small", seed, inputs, outputs)}

        def cli(kind):
            code, text = runner.spawn(["-m", "framekit.cli", *jobs[kind].argv])[:2]
            return workloads.CliResult(code, text)

        verify, check = cli("verify"), jobs["verify"].check
        expect(check(verify) is None, "a genuine CLI verify result fails its check")
        perturbed = re.sub(r"^lower_a = (.*)$", lambda m: f"lower_a = {float(m.group(1)) * (1 + 1e-6):.12g}",
                           verify.text, flags=re.M)
        expect(check(workloads.CliResult(0, perturbed)) is not None, "a perturbed bound passes")
        flipped = verify.text.replace("is_frame = true", "is_frame = false")
        expect(check(workloads.CliResult(0, flipped)) is not None, "a flipped verdict passes")
        expect(check(workloads.CliResult(2, verify.text)) is not None, "a wrong exit code passes")

        dual = cli("dual")
        expect(jobs["dual"].check(dual) is None, "a genuine CLI dual result fails its check")
        written = outputs / "dual.json"
        written.write_bytes(written.read_bytes()[: written.stat().st_size // 2])
        expect(jobs["dual"].check(dual) is not None, "a truncated output file passes")

        fk = run.import_framekit()
        lib = {j.kind: j for j in workloads.build("lib_small", seed, inputs, outputs, fk)}
        sweep = lib["sweep_verify"]
        reports = sweep.call()
        expect(sweep.check(reports) is None, "a genuine library sweep fails its check")
        i = next(k for k, r in enumerate(reports) if r.is_frame)
        bumped = reports[:i] + [dataclasses.replace(reports[i], upper_b=reports[i].upper_b * (1 + 1e-6))] + reports[i + 1:]
        expect(sweep.check(bumped) is not None, "a perturbed library bound passes")
        flipped = reports[:i] + [dataclasses.replace(reports[i], is_frame=False)] + reports[i + 1:]
        expect(sweep.check(flipped) is not None, "a flipped library verdict passes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def benchmark(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, cwd=run.ROOT, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def metric_problems(seed, seconds):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.NAMES:
        plain = benchmark(workload, seed, seconds, 0)
        traced = [benchmark(workload, seed, seconds, 1) for _ in range(2)]
        for doc, section in ((plain, "end_to_end"), (traced[0], "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != want:
                problems.append(f"{workload}: {section} metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not doc["correct"]:
                problems.append(f"{workload}: {doc['failed']} of {doc['attempted']} jobs failed")
        for name, value in traced[0]["metrics"].items():
            again = traced[1]["metrics"][name]["value"]
            if COUNTS.search(name) and value["value"] != again:
                problems.append(f"{workload}: count {name} differs between traced runs: {value['value']} vs {again}")
    return problems


def main():
    problems = planted_failures(SEED)
    print(f"planted wrong results: {'all counted as failed' if not problems else 'NOT all caught'}")
    more = metric_problems(SEED, SECONDS)
    print(f"metric names, units and traced counts: {'as declared and repeatable' if not more else 'PROBLEMS'}")
    for p in problems + more:
        print(f"  FAILED: {p}")
    sys.exit(1 if problems or more else 0)


if __name__ == "__main__":
    main()
