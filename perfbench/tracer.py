"""Spans around framekit's public functions, recorded from outside src/.

`install` replaces every public function attribute of the framekit modules
(including names re-bound by `from .x import y`) with a wrapper that opens
a span named after the function's defining module, so calls resolved at
call time through any module are seen.  Calls framekit makes into the
LAPACK-backed numpy.linalg routines get spans too.  Spans stay in memory
in flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

LAYERS = ("cli", "io", "numerics", "frames", "ovf", "constructors", "analysis", "pframes")
LAPACK = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "solve", "inv", "pinv", "qr")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.nbytes = {}  # span index -> bytes read (io.load) or written (io.save)
        self._stack = []
        self._framekit_depth = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, raised: bool = False):
        self.end[idx] = perf_counter()
        self.raised[idx] = raised
        self._stack.pop()

    def job(self, kind: str):
        """Context manager for a job's root span."""
        return _JobSpan(self, self.name_id(f"job.{kind}"))

    def dump(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(), "parent": self.parent.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "raised": self.raised.tolist(),
                "nbytes": [[k, v] for k, v in self.nbytes.items()]}

    def merge(self, doc: dict):
        """Append spans recorded by another process (a traced CLI job)."""
        offset = len(self.start)
        ids = [self.name_id(n) for n in doc["names"]]
        self.name.extend(ids[i] for i in doc["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in doc["parent"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        self.raised.extend(doc["raised"])
        for k, v in doc["nbytes"]:
            self.nbytes[k + offset] = v

    def write(self, path):
        """The dump() document, written one column at a time to bound memory."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(self.names))
            for key in ("name", "parent", "start", "end", "raised"):
                fh.write(f', "{key}": ' + json.dumps(getattr(self, key).tolist()))
            fh.write(', "nbytes": ' + json.dumps([[k, v] for k, v in self.nbytes.items()]) + "}")


class _JobSpan:
    def __init__(self, tracer, name_id):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        self.idx = self.tracer.open(self.name_id)

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.idx, exc_type is not None)


def _wrap(tracer: Tracer, fn, name: str):
    name_id = tracer.name_id(name)
    counts_bytes = name in ("io.load", "io.save")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        tracer._framekit_depth += 1
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer._framekit_depth -= 1
            tracer.close(idx, True)
            raise
        tracer._framekit_depth -= 1
        tracer.close(idx)
        if counts_bytes:
            tracer.nbytes[idx] = os.path.getsize(args[0])
        return out
    return traced


def _wrap_lapack(tracer: Tracer, fn, name: str):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer._framekit_depth:  # not called from framekit
            return fn(*args, **kwargs)
        idx = tracer.open(name_id)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, True)
            raise
        tracer.close(idx)
        return out
    return traced


def install(tracer: Tracer):
    """Wrap framekit's public functions and numpy.linalg's LAPACK routines."""
    import numpy as np

    modules = [importlib.import_module("framekit")]
    modules += [importlib.import_module(f"framekit.{layer}") for layer in LAYERS]
    wrapped = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            layer = value.__module__.rpartition(".")[2]
            if not value.__module__.startswith("framekit.") or layer not in LAYERS:
                continue
            if value not in wrapped:
                wrapped[value] = _wrap(tracer, value, f"{layer}.{value.__name__}")
            setattr(module, attr, wrapped[value])

    # Group-table construction validates the whole table; constructors.group_table_ms
    # times it, so the class's validation and its factory get spans as well.
    table = importlib.import_module("framekit.constructors").GroupTable
    table.__post_init__ = _wrap(tracer, table.__post_init__, "constructors.GroupTable")
    table.cyclic = classmethod(_wrap(tracer, table.cyclic.__func__, "constructors.GroupTable.cyclic"))

    for fname in LAPACK:
        setattr(np.linalg, fname, _wrap_lapack(tracer, getattr(np.linalg, fname), f"numpy.linalg.{fname}"))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# metric name -> span names whose outermost calls it times (inclusive)
TIMED = {
    "numerics.pnorm_estimate_ms": {"numerics.pnorm_estimate"},
    "numerics.principal_power_ms": {"numerics.principal_power"},
    "frames.verify_ms": {"frames.verify"},
    "frames.classify_ms": {"frames.classify"},
    "frames.canonical_dual_ms": {"frames.canonical_dual"},
    "ovf.verify_ovf_ms": {"ovf.verify_ovf"},
    "ovf.weighted_onb_bessel_check_ms": {"ovf.weighted_onb_bessel_check"},
    "constructors.group_table_ms": {"constructors.GroupTable", "constructors.GroupTable.cyclic"},
    "constructors.left_regular_ms": {"constructors.left_regular"},
    "constructors.group_frame_ms": {"constructors.group_frame"},
    "analysis.span_characterization_ms": {"analysis.span_characterization"},
    "analysis.perturb_sampled_ms": {"analysis.perturb_sampled"},
    "analysis.formulas_report_ms": {"analysis.formulas_report"},
    "pframes.p_verify_ms": {"pframes.p_verify"},
    "pframes.paley_wiener_check_ms": {"pframes.paley_wiener_check"},
}


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-job layer metrics from the recorded spans (values only)."""
    names, parent = tracer.names, tracer.parent
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    by_name = {}
    for i, n in enumerate(tracer.name):
        by_name.setdefault(names[n], []).append(i)

    out = {}
    for layer in LAYERS:
        idx = [i for name, spans in by_name.items() if layer_of(name) == layer for i in spans]
        out[f"{layer}.calls"] = len(idx) / jobs
        out[f"{layer}.self_ms"] = 1e3 * sum(dur[i] - child[i] for i in idx) / jobs
        out[f"{layer}.raised"] = sum(tracer.raised[i] for i in idx) / jobs

    def spans(wanted):
        return [i for name in wanted for i in by_name.get(name, ())]

    def outermost_ms(wanted):
        wanted_ids = {tracer._name_ids[n] for n in wanted if n in by_name}
        total = 0.0
        for i in spans(wanted):
            p = parent[i]
            while p >= 0 and tracer.name[p] not in wanted_ids:
                p = parent[p]
            if p < 0:
                total += dur[i]
        return 1e3 * total / jobs

    def io_names(suffix):
        return {n for n in by_name if n.startswith("io.") and n.endswith(suffix)}

    for metric, wanted in TIMED.items():
        out[metric] = outermost_ms(wanted)
    out["io.load_ms"] = outermost_ms({"io.load"})
    out["io.decode_ms"] = outermost_ms(io_names("_from_dict"))
    out["io.encode_ms"] = outermost_ms(io_names("_to_dict"))
    out["io.save_ms"] = outermost_ms({"io.save"})
    read = sum(tracer.nbytes.get(i, 0) for i in spans({"io.load"})) / jobs
    written = sum(tracer.nbytes.get(i, 0) for i in spans({"io.save"})) / jobs
    out["io.bytes_read"] = read
    out["io.bytes_written"] = written
    read_ms = out["io.load_ms"] + out["io.decode_ms"]
    write_ms = out["io.encode_ms"] + out["io.save_ms"]
    out["io.read_MBps"] = read / 1e3 / read_ms if read_ms else 0.0
    out["io.write_MBps"] = written / 1e3 / write_ms if write_ms else 0.0

    lapack = spans({n for n in by_name if n.startswith("numpy.linalg.")})
    out["numerics.lapack_calls"] = len(lapack) / jobs
    out["numerics.lapack_ms"] = 1e3 * sum(dur[i] for i in lapack) / jobs
    out["numerics.spectral_calls"] = len(spans({"numerics.spectral"})) / jobs

    # A verdict is a top-level framekit call: its parent is a job's root span.
    job_ids = {tracer._name_ids[n] for n in by_name if layer_of(n) == "job"}

    def per_verdict(name):
        tops = {}
        for i in spans({name}):
            top = i
            while parent[top] >= 0 and tracer.name[parent[top]] not in job_ids:
                top = parent[top]
            tops[top] = tops.get(top, 0) + 1
        return sum(tops.values()) / len(tops) if tops else 0.0

    out["frames.s_builds_per_verdict"] = per_verdict("frames.frame_operator")
    out["ovf.operators_per_verdict"] = per_verdict("ovf.ovf_operators")
    return out
