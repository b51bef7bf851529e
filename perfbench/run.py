"""framekit benchmark: four seeded workloads, checked against ground truth.

Run from the repository root:

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 45 --trace 0

Every workload is a closed loop with one client: the next job starts when
the previous one has finished, and at most one CLI child runs at a time.
The job list of a workload is one cycle; a run repeats whole cycles for
about --seconds.  Each job is followed by one run of the workload's
reference (see workloads.reference), and the timing metrics are job over
reference, so that the host's drift, which moves both alike, cancels.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
spends half the time untraced and half traced, and reports per-layer
metrics from the spans plus the tracing overhead, as the ratio of the
traced to the untraced median job/reference ratio.  The last line of
standard output is one JSON object; everything before it is for people.
"""

import os
import sys

# One BLAS thread, fixed before numpy loads, in this process and every child.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
sys.dont_write_bytecode = True  # nothing of this run may land under src/ or perfbench/

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 5  # set-up repetitions per run; setup_s is their median
JOB_TIMEOUT_S = 120.0

END_TO_END = {
    "jobs_per_ref": "1/ref",
    "job_p50_rel": "x",
    "job_tail_rel": "x",
    "cpu_per_job_rel": "x",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}
PER_LAYER = {"cli.interpreter_ms": "ms", "cli.import_numpy_ms": "ms", "cli.import_framekit_ms": "ms",
             "cli.modules_imported": "count"}
for _layer in tracer.LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.self_ms": "ms", f"{_layer}.raised": "count"})
PER_LAYER.update({
    "io.load_ms": "ms", "io.decode_ms": "ms", "io.encode_ms": "ms", "io.save_ms": "ms",
    "io.bytes_read": "B", "io.bytes_written": "B", "io.read_MBps": "MB/s", "io.write_MBps": "MB/s",
    "numerics.lapack_calls": "count", "numerics.lapack_ms": "ms", "numerics.spectral_calls": "count",
    "frames.s_builds_per_verdict": "count", "ovf.operators_per_verdict": "count",
    "trace.job_p50_ms": "ms", "trace.overhead_ratio": "ratio",
})
PER_LAYER.update({metric: "ms" for metric in tracer.TIMED})


class Sample:
    """One job, and the reference run that followed it (ref_wall, ref_cpu)."""
    __slots__ = ("kind", "wall", "cpu", "rss_mb", "problem", "ref_wall", "ref_cpu")

    def __init__(self, kind, wall, cpu, rss_mb, problem):
        self.kind, self.wall, self.cpu, self.rss_mb, self.problem = kind, wall, cpu, rss_mb, problem
        self.ref_wall = self.ref_cpu = None

    @property
    def ratio(self):
        return self.wall / self.ref_wall


def _check(job, result):
    try:
        return job.check(result)
    except Exception as exc:  # a malformed result must count as failed, not stop the run
        return f"checker raised {exc!r}"


class CliRunner:
    """Runs CLI jobs as child interpreters, one at a time, with a warm bytecode cache."""

    def __init__(self, work: Path):
        self.pycache = work / "pycache"
        base = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(self.pycache), **PINNED)
        self.fill_env = {k: v for k, v in base.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = dict(base, PYTHONDONTWRITEBYTECODE="1")  # jobs read the cache, never write it

    def _fill(self, argv):
        subprocess.run([sys.executable, *argv], env=self.fill_env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)

    def prime(self, jobs):
        """Write numpy's and the stdlib's bytecode once: one interpreter runs every job.

        This part of the cache is not framekit's and every set-up of the run
        shares it, so that setup_s times framekit's compilation, not numpy's.
        Running the jobs, not just importing framekit.cli, also caches the
        modules that single subcommands import.
        """
        shutil.rmtree(self.pycache, ignore_errors=True)
        self._fill(["-c", "import json, sys, framekit.cli\n"
                          "for argv in json.loads(sys.argv[1]): framekit.cli.run(argv)",
                    json.dumps([job.argv for job in jobs])])

    def fill_cache(self):
        """Drop the checkout's part of the cache and compile framekit (and tracer.py) afresh."""
        shutil.rmtree(self.pycache.joinpath(*ROOT.parts[1:]), ignore_errors=True)
        self._fill(["-m", "compileall", "-q", str(SRC / "framekit"), str(HERE / "tracer.py")])

    def spawn(self, argv):
        """Run one child; returns (exit code, output, wall s, cpu s, peak rss MB)."""
        c0, t0 = process_time(), perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            text = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = perf_counter() - t0
        cpu = process_time() - c0 + usage.ru_utime + usage.ru_stime
        return proc.returncode, text.decode("utf-8", "replace"), wall, cpu, usage.ru_maxrss / 1024

    def run(self, job):
        code, text, wall, cpu, rss = self.spawn(["-m", "framekit.cli", *job.argv])
        return Sample(job.kind, wall, cpu, rss, _check(job, workloads.CliResult(code, text)))

    def reference(self):
        """One reference child; returns (wall s, cpu s)."""
        code, _, wall, cpu, _ = self.spawn(workloads.CLI_REFERENCE)
        if code != 0:
            raise RuntimeError(f"the reference child exited with {code}")
        return wall, cpu


class TracedCliRunner(CliRunner):
    """Runs each CLI job through traced_cli.py and merges its spans."""

    def __init__(self, work: Path, tr):
        super().__init__(work)
        self.tr = tr
        self.spans = work / "job-spans.json"
        self.imports = []

    def run(self, job):
        self.spans.unlink(missing_ok=True)
        code, text, wall, cpu, rss = self.spawn(
            [str(HERE / "traced_cli.py"), str(self.spans), job.kind, *job.argv])
        problem = _check(job, workloads.CliResult(code, text))
        if self.spans.exists():
            doc = json.loads(self.spans.read_text(encoding="utf-8"))
            self.tr.merge(doc["spans"])
            self.imports.append(doc)
        else:
            problem = problem or "the traced job wrote no spans"
        return Sample(job.kind, wall, cpu, rss, problem)


def run_library_job(job, tr=None):
    c0, t0 = process_time(), perf_counter()
    try:
        if tr is None:
            result = job.call()
        else:
            with tr.job(job.kind):
                result = job.call()
    except Exception as exc:  # a library job that raises counts as failed
        wall, cpu = perf_counter() - t0, process_time() - c0
        return Sample(job.kind, wall, cpu, 0.0, f"raised {exc!r}")
    wall, cpu = perf_counter() - t0, process_time() - c0
    return Sample(job.kind, wall, cpu, 0.0, _check(job, result))


def timed(fn):
    """Returns fn's (wall s, cpu s); the reference of a library workload."""
    c0, t0 = process_time(), perf_counter()
    fn()
    return perf_counter() - t0, process_time() - c0


def measure(jobs, run, reference, seconds):
    """Run whole cycles of the job list, each job followed by one reference run.

    Stops at the cycle end nearest to `seconds` and returns the samples;
    there is always at least one cycle.
    """
    samples, cycles, t0 = [], 0, perf_counter()
    while True:
        for job in jobs:
            sample = run(job)
            sample.ref_wall, sample.ref_cpu = reference()
            samples.append(sample)
        cycles += 1
        elapsed = perf_counter() - t0
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return samples


def import_framekit():
    sys.path.insert(0, str(SRC))
    import framekit.analysis
    import framekit.constructors
    import framekit.frames
    import framekit.ovf
    import framekit.pframes
    return SimpleNamespace(frames=framekit.frames, ovf=framekit.ovf, analysis=framekit.analysis,
                           pframes=framekit.pframes, constructors=framekit.constructors)


def make_jobs(name, seed, work, fk):
    """Generate the inputs afresh under `work`; returns one cycle of jobs."""
    inputs, outputs = work / "inputs", work / "out"
    for d in (inputs, outputs):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    return workloads.build(name, seed, inputs, outputs, fk)


def setup(name, seed, work, cli, fk):
    """Generate inputs, fill framekit's bytecode cache and warm up; returns (seconds, jobs)."""
    t0 = perf_counter()
    jobs = make_jobs(name, seed, work, fk)
    if cli is not None:
        cli.fill_cache()
        cli.run(jobs[0])
    else:
        for job in jobs:
            job.call()
    return perf_counter() - t0, jobs


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile with at least 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    i = n - 11 if n >= 11 else n - 1
    return values[i], 100.0 * (i + 1) / n, n - 1 - i


def end_to_end(samples, setups, peak_rss_mb):
    """The timing metrics are in units of the reference run beside each job."""
    ratios = [s.ratio for s in samples]
    n = len(samples)
    failed = sum(s.problem is not None for s in samples)
    return {
        "jobs_per_ref": sum(s.ref_wall for s in samples) / sum(s.wall for s in samples),
        "job_p50_rel": statistics.median(ratios),
        "job_tail_rel": tail(ratios)[0],
        "cpu_per_job_rel": sum(s.cpu for s in samples) / sum(s.ref_cpu for s in samples),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (n - failed) / n,
        "setup_s": statistics.median(setups),
    }


def absolute(samples):
    """The same timings in seconds-based units; they drift with the host, so nothing gates on them."""
    walls = [s.wall for s in samples]
    return {
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "job_tail_ms": (1e3 * tail(walls)[0], "ms"),
        "cpu_ms_per_job": (1e3 * sum(s.cpu for s in samples) / len(samples), "ms"),
        "ref_p50_ms": (1e3 * statistics.median(s.ref_wall for s in samples), "ms"),
    }


def environment(cli):
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    if cli:
        bytecode = ("warm cache outside src/ (PYTHONPYCACHEPREFIX under perfbench/.work, filled in "
                    "set-up; jobs run with PYTHONDONTWRITEBYTECODE=1)")
    else:
        bytecode = f"in-process import; PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": " ".join(f"{k}={v}" for k, v in PINNED.items()),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "bytecode": bytecode,
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def per_kind(samples):
    kinds = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s.wall)
    return {k: (1e3 * statistics.median(v), len(v)) for k, v in kinds.items()}


def cli_layer_metrics(runner, traced_cli):
    """cli.* start-up metrics: a bare interpreter, and the traced jobs' import timings."""
    if traced_cli is None:
        return {"cli.interpreter_ms": 0.0, "cli.import_numpy_ms": 0.0,
                "cli.import_framekit_ms": 0.0, "cli.modules_imported": 0.0}
    bare = [runner.spawn(["-c", "pass"])[2] for _ in range(5)]
    docs = traced_cli.imports
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(bare),
        "cli.import_numpy_ms": statistics.median(d["import_numpy_ms"] for d in docs),
        "cli.import_framekit_ms": statistics.median(d["import_framekit_ms"] for d in docs),
        "cli.modules_imported": sum(d["modules_imported"] for d in docs) / len(docs),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "framekit" / "__init__.py").is_file():
        sys.exit(f"error: framekit sources not found under {SRC}")
    name = args.workload
    is_cli = name in workloads.CLI
    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        fk = None if is_cli else import_framekit()
        runner = CliRunner(work) if is_cli else None
        if is_cli:
            runner.prime(make_jobs(name, args.seed, work, fk))
        setups = []
        for _ in range(SETUPS):
            seconds, jobs = setup(name, args.seed, work, runner, fk)
            setups.append(seconds)
        run = runner.run if is_cli else run_library_job
        if is_cli:
            reference = runner.reference
        else:
            ref_call = workloads.reference(name)
            ref_call()  # warm, as set-up warms the jobs
            reference = lambda: timed(ref_call)  # noqa: E731

        if not args.trace:
            samples = measure(jobs, run, reference, args.seconds)
            rss = (max(s.rss_mb for s in samples) if is_cli
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            values = end_to_end(samples, setups, rss)
            units = END_TO_END
            spans_note = None
        else:
            half = args.seconds / 2
            untraced = measure(jobs, run, reference, half)
            tr = tracer.Tracer()
            traced_cli = None
            if is_cli:
                traced_cli = TracedCliRunner(work, tr)
                traced = measure(jobs, traced_cli.run, reference, half)
            else:
                tracer.install(tr)
                traced = measure(jobs, lambda job: run_library_job(job, tr), reference, half)
            samples = untraced + traced
            values = tracer.layer_metrics(tr, len(traced))
            values.update(cli_layer_metrics(runner, traced_cli))
            values["trace.job_p50_ms"] = 1e3 * statistics.median(s.wall for s in traced)
            # Each half in units of its own references, so drift between the halves cancels.
            values["trace.overhead_ratio"] = (statistics.median(s.ratio for s in traced)
                                              / statistics.median(s.ratio for s in untraced))
            units = PER_LAYER
            spans_path = HERE / ".work" / f"spans-{name}.json"
            tr.write(spans_path)
            spans_note = f"{len(tr.start)} spans written to {spans_path.relative_to(ROOT)}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [s for s in samples if s.problem is not None]
    print(f"framekit benchmark  workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in environment(is_cli).items():
        print(f"  env.{key} = {value}")
    traced_note = f", the last {len(traced) // len(jobs)} traced" if args.trace else ""
    print(f"  load = closed loop, 1 client, {len(jobs)} jobs per cycle, {len(samples)} jobs run "
          f"({len(samples) // len(jobs)} cycles{traced_note})")
    if not args.trace:
        _, pct, beyond = tail([s.ratio for s in samples])
        ref = "python -c 'import numpy' child" if is_cli else f"workloads.reference({name!r})"
        print(f"  reference = {ref}, run once after every job")
        print(f"  setup_s runs = {', '.join(f'{s:.3f}' for s in setups)} (median reported)")
        for key, unit in END_TO_END.items():
            note = f"  (p{pct:.1f} of {len(samples)} jobs, {beyond} beyond)" if key.startswith("job_tail") else ""
            print(f"  {key:<16} = {values[key]:.6g} {unit}{note}")
        print(f"  {'failed_frac':<16} = {len(failed) / len(samples):.6g} ratio  ({len(failed)} of {len(samples)})")
        print("  absolute timings (drift with the host; not gated):")
        for key, (value, unit) in absolute(samples).items():
            print(f"  {key:<16} = {value:.6g} {unit}")
    else:
        print(f"  tracing overhead = x{values['trace.overhead_ratio']:.4f} on the job median "
              f"(traced {values['trace.job_p50_ms']:.3f} ms); {spans_note}")
        for key, unit in PER_LAYER.items():
            print(f"  {key:<36} = {values[key]:.6g} {unit}")
    print("  per-kind median ms (diagnosis only, no gate):")
    for kind, (ms, count) in per_kind(samples).items():
        print(f"    {kind:<28} {ms:10.3f}  x{count}")
    for s in failed[:5]:
        print(f"  FAILED {s.kind}: {s.problem}", file=sys.stderr)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
