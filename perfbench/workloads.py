"""The four workloads: their inputs, their jobs and each job's checker.

A CLI job is an argument vector for `python -m framekit.cli`; its checker
reads the exit code, the `key = value` report and any file written with -o.
A library job is a call into framekit on arrays built here; its checker
reads the returned objects.  Expected answers come from the construction
in inputs.py or from plain numpy on the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from checks import (
    close,
    column_lower_bound,
    lp_interpolation_bound,
    lp_norm,
    mat_close,
    p_bounds_problem,
    rank,
    report,
    vector,
)
from inputs import (
    dual_pair,
    frame_doc,
    gaussian,
    group_doc,
    operator,
    ovf_doc,
    pframe_doc,
    read_frame,
    read_ovf,
    read_pframe,
    signed_permutation,
    spectrum,
    unitary,
    write,
)

CLI = ("cli_small", "cli_large")
LIBRARY = ("lib_large", "lib_small")
NAMES = CLI + LIBRARY


@dataclass
class Job:
    kind: str
    check: Callable  # result -> None when right, else the reason
    argv: Optional[list] = None  # CLI jobs: arguments after `framekit`
    call: Optional[Callable] = None  # library jobs


@dataclass
class CliResult:
    code: int
    text: str


def build(name: str, seed: int, inputs: Path, outputs: Path, fk=None) -> list:
    """Generate the workload's inputs under `inputs` and return one cycle of jobs."""
    rng = np.random.default_rng(seed)
    if name == "cli_small":
        return cli_small(rng, inputs, outputs)
    if name == "cli_large":
        return cli_large(rng, inputs, outputs)
    if name == "lib_large":
        return lib_large(rng, fk)
    if name == "lib_small":
        return lib_small(rng, fk)
    raise ValueError(f"unknown workload {name!r}")


def _csv(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def _self_dual(rng, S, n):
    """X with X X^* = S (x_j = tau_j): S^(1/2) times orthonormal rows."""
    w, V = np.linalg.eigh(S)
    return ((V * np.sqrt(w)) @ V.T) @ unitary(rng, n)[: S.shape[0]]


def _cyclic_generator(rng, order):
    """x whose circulant orbit is a frame: every |DFT(x)_k|^2 is clear of 0."""
    while True:
        x = gaussian(rng, order)
        power = np.abs(np.fft.fft(x)) ** 2
        if power.min() > 0.05:
            return x, power


def _frame_flags(a, b, riesz=None, orthonormal=None, tight=False):
    flags = dict(self_adjoint=True, psd=True, invertible=True, is_bessel=True,
                 is_frame=True, tight=tight)
    if riesz is not None:
        flags.update(riesz_frame=riesz, orthonormal_frame=orthonormal)
    return flags, dict(lower_a=a, upper_b=b)


def _file_check(path, test):
    """Checker extra that runs `test(path)` -> bool on a written file."""
    def extra(rep):
        try:
            ok = test(path)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output {path}: {exc!r}"
        return None if ok else f"wrong contents in {path}"
    return extra


def _texts(**want):
    def extra(rep):
        for key, value in want.items():
            if rep.get(key) != value:
                return f"{key} = {rep.get(key)!r}, expected {value!r}"
        return None
    return extra


def _both(*extras):
    def extra(rep):
        for e in extras:
            problem = e(rep)
            if problem:
                return problem
        return None
    return extra


# --- cli_small ----------------------------------------------------------------------

def cli_small(rng, d: Path, out: Path) -> list:
    jobs = []

    def add(kind, argv, check):
        jobs.append(Job(kind, check, argv=[str(a) for a in argv]))

    lam = spectrum(rng, 3)
    S = operator(rng, lam)
    X, T = dual_pair(rng, S, 7)
    a, b = lam[0], lam[-1]
    f1 = write(d / "frame.json", frame_doc(X, T))
    flags, values = _frame_flags(a, b, riesz=False, orthonormal=False)
    add("verify", ["verify", f1],
        report(kind="frame_report", flags=flags, values=dict(values, dim=3, count=7)))

    singular = np.concatenate([[0.0], spectrum(rng, 2)])
    Xs, Ts = dual_pair(rng, operator(rng, singular), 6)
    fs = write(d / "singular.json", frame_doc(Xs, Ts))
    add("verify_singular", ["verify", fs],
        report(flags=dict(self_adjoint=True, psd=True, invertible=False, is_frame=False),
               values=dict(lower_a=0.0, upper_b=0.0)))
    add("dual_singular", ["dual", fs],
        report(code=2, kind="domain_error", extra=_texts(error="NotAFrame")))

    E = gaussian(rng, (3, 3))
    Xn, Tn = dual_pair(rng, operator(rng, spectrum(rng, 3)) + 0.5 * (E - E.T), 6)
    fn = write(d / "nonhermitian.json", frame_doc(Xn, Tn))
    add("verify_nonhermitian", ["verify", fn],
        report(flags=dict(self_adjoint=False, psd=False, is_frame=False)))

    dual_out = out / "dual.json"
    add("dual", ["dual", f1, "-o", dual_out],
        report(kind="canonical_dual", flags=dict(is_frame=True),
               values=dict(lower_a=1 / b, upper_b=1 / a),
               extra=_file_check(dual_out, lambda p: all(
                   mat_close(S @ got, want) for got, want in zip(read_frame(p), (X, T))))))

    Q = unitary(rng, 3)
    fq = write(d / "onb.json", frame_doc(Q, Q))
    add("classify", ["classify", fq],
        report(kind="classification", flags=dict(riesz_frame=True, orthonormal_frame=True)))

    k, l = (int(v) for v in rng.integers(2, 7, size=2))
    j = np.arange(k * l)
    Xc = np.vstack([np.cos(2 * np.pi * j / k), np.sin(2 * np.pi * j / k)])
    Tc = np.vstack([np.cos(2 * np.pi * j / l), np.sin(2 * np.pi * j / l)])
    Sc = Tc @ Xc.T
    constant = np.trace(Sc) / 2
    tight = bool(constant > 1e-6 * k * l and np.abs(Sc - constant * np.eye(2)).max() < 1e-6 * k * l)
    add("construct_circular", ["construct", "circular", "--k", k, "--l", l],
        report(kind="circular_construction", flags=dict(tight=tight),
               values=dict(count=k * l, constant=constant)))

    order = int(rng.choice([4, 6, 8]))
    idx = np.arange(order)
    table = write(d / "group.json", group_doc((idx[:, None] + idx[None, :]) % order))
    x, power = _cyclic_generator(rng, order)
    flags, values = _frame_flags(power.min(), power.max())
    add("construct_group", ["construct", "group", "--table", table, f"--x={_csv(x)}", f"--tau={_csv(x)}"],
        report(kind="group_frame", flags=dict(flags, generator_bound_ok=True),
               values=dict(values, order=order)))

    h = gaussian(rng, 3)
    add("reconstruct", ["analyze", "reconstruct", f1, f"--target={_csv(h)}", "--steps", 12],
        report(kind="reconstruction", extra=_reconstruction_check(h, a, b, 12)))

    lam_ext = b + 1.0
    ext_out = out / "extend.json"
    add("extend", ["analyze", "extend", f1, "--lambda", repr(float(lam_ext)), "-o", ext_out],
        report(kind="tight_extension", flags=dict(is_frame=True, tight=True),
               values=dict(count=10, lower_a=lam_ext, upper_b=lam_ext),
               extra=_file_check(ext_out, lambda p: _operator_is(read_frame(p), lam_ext * np.eye(3)))))

    Xsp = gaussian(rng, (3, 8))
    fsp = write(d / "span.json", frame_doc(Xsp, Xsp * rng.uniform(0.5, 2.0, 8)))
    add("span", ["analyze", "span", fsp],
        report(kind="span_characterization", flags=dict(is_frame=True, witness=None)))
    Xpl, Tpl = _planted_nonspanning(rng, 3, 8)
    fpl = write(d / "span_planted.json", frame_doc(Xpl, Tpl))
    add("span_planted", ["analyze", "span", fpl],
        report(kind="span_characterization", flags=dict(is_frame=False),
               extra=lambda rep: _witness_problem(rep.get("witness", ""), Xpl, Tpl)))

    c = rng.uniform(1.0, 3.0)
    Xt, Tt = dual_pair(rng, c * np.eye(2), 6)
    ft = write(d / "tight.json", frame_doc(Xt, Tt))
    add("formulas", ["analyze", "formulas", ft],
        report(kind="formulas", flags=dict(variation_ok=True, dim_formula_ok=None),
               values=dict(trace_S=2 * c, sum_inner=2 * c, trace_S2=2 * c * c, double_sum=2 * c * c)))

    lam_p = spectrum(rng, 3)
    Sp = operator(rng, lam_p)
    Xp = _self_dual(rng, Sp, 7)
    eps = rng.uniform(-0.01, 0.01, 7)
    Yp = Xp * (1 + eps)
    fself = write(d / "self_dual.json", frame_doc(Xp, Xp))
    fpert = write(d / "perturbed.json", frame_doc(Yp, Xp))
    add("perturb", ["analyze", "perturb", fself, "--perturbed", fpert, "--kind", "quadratic"],
        report(kind="perturbation_quadratic", extra=_quadratic_check(Xp, Yp, Sp)))
    # gamma bounds ||X - Y||, so the coefficient inequality holds for every sample.
    gamma = 1.01 * np.linalg.norm(Xp - Yp, 2)
    actual = np.linalg.eigvalsh(Xp @ Yp.T)
    add("perturb_sampled", ["analyze", "perturb", fself, "--perturbed", fpert, "--kind", "sampled-linear",
                            "--alpha", 0.1, "--beta", 0.1, f"--gamma={float(gamma)!r}", "--samples", 1000],
        report(kind="perturbation_sampled_linear", flags=dict(hypothesis_ok=True),
               values=dict(actual_lower=actual[0], actual_upper=actual[-1])))

    lam2 = spectrum(rng, 2)
    S2 = operator(rng, lam2)
    X2, T2 = dual_pair(rng, S2, 5, complex_field=True)
    f2 = write(d / "complex.json", frame_doc(X2, T2))
    conv_out = out / "convert.json"
    flags, values = _frame_flags(lam2[0], lam2[-1])
    add("convert", ["analyze", "convert", f2, "--to-real", "-o", conv_out],
        report(kind="field_conversion", flags=flags, values=dict(values, count=10),
               extra=_both(_texts(field="real"),
                           _file_check(conv_out, lambda p: _operator_is(read_frame(p), S2)))))

    lam_o = spectrum(rng, 4)
    So = operator(rng, lam_o)
    Xo, To = dual_pair(rng, So, 6)
    A, Psi = _blocks(Xo.T, 2), _blocks(To.T, 2)
    fo = write(d / "ovf.json", ovf_doc(A, Psi))
    flags, values = _frame_flags(lam_o[0], lam_o[-1])
    add("ovf_verify", ["ovf", "verify", fo],
        report(kind="ovf_report", flags=dict(flags, riesz_ovf=False, orthonormal_ovf=False),
               values=dict(values, m=4, n=3)))
    Qo = _blocks(unitary(rng, 4), 2)
    foo = write(d / "ovf_orthonormal.json", ovf_doc(Qo, Qo))
    flags, values = _frame_flags(1.0, 1.0, tight=True)
    add("ovf_verify_orthonormal", ["ovf", "verify", foo],
        report(kind="ovf_report", flags=dict(flags, parseval=True, riesz_ovf=True, orthonormal_ovf=True),
               values=values))
    Xz, Tz = dual_pair(rng, operator(rng, np.concatenate([[0.0], spectrum(rng, 3)])), 6)
    foz = write(d / "ovf_singular.json", ovf_doc(_blocks(Xz.T, 2), _blocks(Tz.T, 2)))
    add("ovf_verify_singular", ["ovf", "verify", foz],
        report(kind="ovf_report", flags=dict(invertible=False, is_frame=False)))
    ovf_dual_out = out / "ovf_dual.json"
    flags, values = _frame_flags(1 / lam_o[-1], 1 / lam_o[0])
    add("ovf_dual", ["ovf", "dual", fo, "-o", ovf_dual_out],
        report(kind="ovf_canonical_dual", flags=flags, values=values,
               extra=_file_check(ovf_dual_out, lambda p: all(
                   mat_close(np.vstack(got) @ So, np.vstack(want))
                   for got, want in zip(read_ovf(p), (A, Psi))))))
    bridge_out = out / "bridge.json"
    add("ovf_bridge", ["ovf", "bridge", f1, "-o", bridge_out],
        report(kind="bridge", values=dict(n=7), extra=_both(
            _texts(direction="frame_to_ovf"),
            _file_check(bridge_out, lambda p: _bridged(read_ovf(p), X, T)))))

    lam_f = spectrum(rng, 3)
    Sf = operator(rng, lam_f)
    Xf, Tf = dual_pair(rng, Sf, 5)
    fpf = write(d / "pframe.json", pframe_doc(Xf.T, Tf, 3.0))
    add("pframe_verify", ["pframe", "verify", fpf],
        report(kind="pframe_report", flags=dict(resolvent_ok=True, tight=False, parseval=False),
               values=dict(p=3.0, dim=3, count=5),
               extra=lambda rep: p_bounds_problem(vector(rep["lower_a"]), vector(rep["upper_b"]), Sf, 3.0)))
    ct = rng.uniform(1.5, 3.0)
    Xpt, Tpt = dual_pair(rng, ct * np.eye(3), 5)
    fpt = write(d / "pframe_tight.json", pframe_doc(Xpt.T, Tpt, 3.0))
    add("pframe_verify_tight", ["pframe", "verify", fpt],
        report(kind="pframe_report", flags=dict(resolvent_ok=True, tight=True, parseval=False),
               values=dict(lower_a=[ct, ct], upper_b=[ct, ct])))
    pdual_out = out / "pframe_dual.json"
    add("pframe_dual", ["pframe", "dual", fpf, "-o", pdual_out],
        report(kind="pframe_canonical_dual", flags=dict(is_dual=True),
               extra=_file_check(pdual_out, lambda p: _pdual_ok(read_pframe(p), Xf.T, Tf))))

    B = signed_permutation(rng, 4)
    Ebase = rng.uniform(-0.02, 0.02, (4, 4))
    fb = write(d / "pw_base.json", pframe_doc(B.T, B, 3.0))
    fy = write(d / "pw_perturbed.json", pframe_doc(B.T, B - Ebase, 3.0))
    add("paley_wiener", ["pframe", "paley-wiener", fb, fy],
        report(kind="paley_wiener", flags=dict(concluded=True, riesz=True),
               extra=lambda rep: _lambda_problem(float(rep["lambda_upper"]), Ebase, 3.0)))
    fy2 = write(d / "pw_planted.json", pframe_doc(B.T, -0.2 * B, 3.0))
    add("paley_wiener_planted", ["pframe", "paley-wiener", fb, fy2],
        report(kind="paley_wiener", flags=dict(concluded=False, riesz=None),
               extra=lambda rep: _lambda_problem(float(rep["lambda_upper"]), 1.2 * B, 3.0)))

    u, v = gaussian(rng, 4), gaussian(rng, 4)
    add("fourlaws", ["pframe", "fourlaws", f"--x={_csv(u)}", f"--y={_csv(v)}"],
        report(kind="four_laws", flags=dict(ineq4_ok=True, pl4_ok=True), values=_four_laws(u, v)))
    return jobs


def _blocks(theta, d):
    return [theta[j * d:(j + 1) * d] for j in range(theta.shape[0] // d)]


def _operator_is(pair, S):
    X, T = pair
    return mat_close(T @ X.conj().T, S)


def _bridged(members, X, T):
    A, Psi = members
    return (all(Aj.shape == (1, X.shape[0]) for Aj in A)
            and np.array_equal(np.vstack(A), X.conj().T)
            and np.array_equal(np.vstack(Psi), T.conj().T))


def _pdual_ok(dual, F, T):
    Fd, Td = dual
    eye = np.eye(T.shape[0])
    return mat_close(Td @ F, eye) and mat_close(T @ Fd, eye)


def _planted_nonspanning(rng, m, n, free=3):
    """Members 0..free-1 have tau_j = 0; the rest lie in a hyperplane.

    The x family spans K^m, but the frame operator (sum over members with
    both vectors nonzero) is singular: a selection taking tau on the first
    `free` members cannot span.
    """
    plane = unitary(rng, m)[:, : m - 1]
    X = np.hstack([gaussian(rng, (m, free)), plane @ gaussian(rng, (m - 1, n - free))])
    c = np.concatenate([np.zeros(free), rng.uniform(0.5, 2.0, n - free)])
    return X, X * c


def _witness_problem(witness, X, T):
    picks = [p.strip() for p in witness.strip("[]").split(",")] if isinstance(witness, str) else list(witness)
    if len(picks) != X.shape[1] or set(picks) - {"x", "tau"}:
        return f"malformed witness {witness!r}"
    cols = np.column_stack([X[:, j] if p == "x" else T[:, j] for j, p in enumerate(picks)])
    return None if rank(cols) < X.shape[0] else f"witness {witness!r} spans"


def _reconstruction_check(h, a, b, steps):
    ratio = (b - a) / (b + a)
    norm_h = np.linalg.norm(h)

    def extra(rep):
        for k in range(steps + 1):
            err, bound = vector(rep.get(f"step_{k}", "[nan, nan]"))
            if not close(bound, norm_h * ratio ** k) or err > bound * (1 + 1e-8) + 1e-12:
                return f"step_{k} = [{err}, {bound}], bound {norm_h * ratio ** k}"
        return None
    return extra


def _quadratic_check(X, Y, S):
    """Hypothesis flag and actual bounds, both from numpy on the input.

    The predicted window is a claim of the certificate, not ground truth,
    so it is not compared here.
    """
    total = float(np.linalg.norm(X - Y, axis=0) @ np.linalg.norm(np.linalg.solve(S, X), axis=0))
    lam = np.linalg.eigvalsh(X @ Y.T)

    def extra(rep):
        if (rep.get("hypothesis_ok") == "true") != (total < 1.0):
            return f"hypothesis_ok = {rep.get('hypothesis_ok')}, sum is {total}"
        got = float(rep["actual_lower"]), float(rep["actual_upper"])
        if not (close(got[0], lam[0]) and close(got[1], lam[-1])):
            return f"actual bounds {got}, expected {lam[0]}, {lam[-1]}"
        return None
    return extra


def _lambda_problem(upper, D, p):
    """lambda_upper must bound ||D||_p and lie under the interpolation bound."""
    lo, hi = column_lower_bound(D, p), lp_interpolation_bound(D, p)
    if upper < lo * (1 - 1e-9) or upper > hi * (1 + 1e-9):
        return f"lambda_upper {upper} outside [{lo}, {hi}]"
    return None


def _four_laws(u, v):
    nu, nv = lp_norm(u, 4), lp_norm(v, 4)
    plus, minus = lp_norm(u + v, 4), lp_norm(u - v, 4)
    return dict(ineq4_lhs=(plus ** 4 - minus ** 4) / 8, ineq4_rhs=(nu ** 2 + nv ** 2) * nu * nv,
                pl4_lhs=plus ** 4 + minus ** 4,
                pl4_rhs=2 * (nu ** 4 + nv ** 4) + 12 * nu ** 2 * nv ** 2)


# --- cli_large ----------------------------------------------------------------------

def cli_large(rng, d: Path, out: Path) -> list:
    jobs = []

    def add(kind, argv, check):
        jobs.append(Job(kind, check, argv=[str(a) for a in argv]))

    lam = spectrum(rng, 64)
    S = operator(rng, lam)
    X, T = dual_pair(rng, S, 2048)
    a, b = lam[0], lam[-1]
    real = write(d / "real_64x2048.json", frame_doc(X, T))
    lam_c = spectrum(rng, 32)
    Sc = operator(rng, lam_c)  # real, so the pair also converts to real
    Xc, Tc = dual_pair(rng, Sc, 1024, complex_field=True)
    cplx = write(d / "complex_32x1024.json", frame_doc(Xc, Tc))
    bridged = write(d / "bridged_2048.json",
                    ovf_doc(list(X.conj().T[:, None, :]), list(T.conj().T[:, None, :])))

    flags, values = _frame_flags(a, b, riesz=False, orthonormal=False)
    add("verify", ["verify", real], report(kind="frame_report", flags=flags, values=values))
    add("classify", ["classify", real],
        report(kind="classification", flags=dict(riesz_frame=False, orthonormal_frame=False)))
    s1, s2 = lam_c.sum(), (lam_c ** 2).sum()
    add("formulas", ["analyze", "formulas", cplx],
        report(kind="formulas", flags=dict(variation_ok=None, dim_formula_ok=None),
               values=dict(trace_S=s1, sum_inner=s1, trace_S2=s2, double_sum=s2)))
    flags, values = _frame_flags(a, b)
    add("ovf_verify", ["ovf", "verify", bridged],
        report(kind="ovf_report", flags=dict(flags, riesz_ovf=False, orthonormal_ovf=False),
               values=dict(values, n=2048)))
    flags, values = _frame_flags(lam_c[0], lam_c[-1], riesz=False, orthonormal=False)
    add("verify_complex", ["verify", cplx], report(kind="frame_report", flags=flags, values=values))

    dual_out = out / "dual.json"
    add("dual", ["dual", real, "-o", dual_out],
        report(kind="canonical_dual", flags=dict(is_frame=True), values=dict(lower_a=1 / b, upper_b=1 / a),
               extra=_file_check(dual_out, lambda p: all(
                   mat_close(S @ got, want) for got, want in zip(read_frame(p), (X, T))))))
    bridge_out = out / "bridge.json"
    add("ovf_bridge", ["ovf", "bridge", real, "-o", bridge_out],
        report(kind="bridge", values=dict(n=2048), extra=_both(
            _texts(direction="frame_to_ovf"),
            _file_check(bridge_out, lambda p: _bridged(read_ovf(p), X, T)))))
    conv_out = out / "convert.json"
    flags, values = _frame_flags(lam_c[0], lam_c[-1])
    add("convert", ["analyze", "convert", cplx, "--to-real", "-o", conv_out],
        report(kind="field_conversion", flags=flags, values=dict(values, count=2048),
               extra=_both(_texts(field="real"),
                           _file_check(conv_out, lambda p: _operator_is(read_frame(p), Sc)))))
    circ_out = out / "circular.json"
    add("construct_circular", ["construct", "circular", "--k", 256, "--l", 256, "-o", circ_out],
        report(kind="circular_construction", flags=dict(tight=True),
               values=dict(count=65536, constant=32768.0),
               extra=_file_check(circ_out, lambda p: _operator_is(read_frame(p), 32768.0 * np.eye(2)))))
    return jobs


# --- library workloads --------------------------------------------------------------

def _lib_report_problem(rep, a, b, tight=False):
    want = dict(self_adjoint=True, psd=True, invertible=True, is_bessel=True, is_frame=True, tight=tight)
    for key, value in want.items():
        if getattr(rep, key) != value:
            return f"{key} = {getattr(rep, key)}, expected {value}"
    if not (close(rep.lower_a, a) and close(rep.upper_b, b)):
        return f"bounds ({rep.lower_a}, {rep.upper_b}), expected ({a}, {b})"
    return None


def _problem_if(ok, message):
    return None if ok else message


def lib_large(rng, fk) -> list:
    FramePair, OvfPair = fk.frames.FramePair, fk.ovf.OvfPair
    lam = spectrum(rng, 256)
    S = operator(rng, lam)
    X, T = dual_pair(rng, S, 1024)
    fp = FramePair(X, T, "real")
    a, b = lam[0], lam[-1]
    lam_c = spectrum(rng, 128)
    Sc = operator(rng, lam_c, complex_field=True)
    Xc, Tc = dual_pair(rng, Sc, 512, complex_field=True)
    fpc = FramePair(Xc, Tc, "complex")
    lam_o = spectrum(rng, 128)
    So = operator(rng, lam_o)
    Xo, To = dual_pair(rng, So, 512)
    thetaA, thetaPsi = Xo.T, To.T
    op = OvfPair(tuple(_blocks(thetaA, 64)), tuple(_blocks(thetaPsi, 64)), "real")
    Xp = unitary(rng, 256)[:64]
    parseval = FramePair(Xp, Xp, "real")
    h = gaussian(rng, 128, complex_field=True)
    lam_ext = lam_c[-1] + 1.0
    s1, s2 = lam.sum(), (lam ** 2).sum()

    def formulas_problem(r):
        got = (r.trace_S, r.sum_inner, r.trace_S2, r.double_sum)
        if not all(close(g.real, w) and abs(g.imag) <= 1e-8 * abs(w) for g, w in zip(got, (s1, s1, s2, s2))):
            return f"formulas {got}, expected {(s1, s1, s2, s2)}"
        return _problem_if(r.variation_ok is None and r.dim_formula_ok is None, "conditional checks ran")

    def dilation_problem(r):
        big = r.big.X
        return _problem_if(r.embed_dim == 256 and big.shape == (256, 256)
                           and mat_close(r.big.T @ big.T, np.eye(256)) and mat_close(big[:64], Xp),
                           "dilation is not an orthonormal basis extending the input")

    jobs = [
        Job("verify", lambda r: _lib_report_problem(r, a, b), call=lambda: fk.frames.verify(fp)),
        Job("verify_complex", lambda r: _lib_report_problem(r, lam_c[0], lam_c[-1]),
            call=lambda: fk.frames.verify(fpc)),
        Job("classify", lambda r: _problem_if(not r.riesz_frame and not r.orthonormal_frame,
                                              "n > m pair classified riesz or orthonormal"),
            call=lambda: fk.frames.classify(fp)),
        Job("canonical_dual", lambda r: _problem_if(mat_close(S @ r.X, X) and mat_close(S @ r.T, T),
                                                    "S times the dual is not the input"),
            call=lambda: fk.frames.canonical_dual(fp)),
        Job("parsevalize", lambda r: _problem_if(mat_close(r.T @ r.X.conj().T, np.eye(128)),
                                                 "frame operator is not the identity"),
            call=lambda: fk.frames.parsevalize(fpc)),
        Job("extend_tight_append", lambda r: _problem_if(
            r.n == 640 and mat_close(r.T @ r.X.conj().T, lam_ext * np.eye(128)),
            "extension is not lambda-tight"),
            call=lambda: fk.analysis.extend_tight_append(fpc, lam_ext)),
        Job("formulas_report", formulas_problem, call=lambda: fk.analysis.formulas_report(fp)),
        Job("iterate_reconstruct", _trace_check(h, lam_c[0], lam_c[-1], 50),
            call=lambda: fk.analysis.iterate_reconstruct(fpc, h, 50)),
        Job("verify_ovf", lambda r: _lib_report_problem(r, lam_o[0], lam_o[-1])
            or _problem_if(not r.riesz_ovf and not r.orthonormal_ovf, "N > m ovf classified riesz"),
            call=lambda: fk.ovf.verify_ovf(op)),
        Job("canonical_dual_ovf", lambda r: _problem_if(
            mat_close(np.vstack(r.A) @ So, thetaA) and mat_close(np.vstack(r.Psi) @ So, thetaPsi),
            "dual members times S are not the input"),
            call=lambda: fk.ovf.canonical_dual_ovf(op)),
        Job("dilate", dilation_problem, call=lambda: fk.frames.dilate(parseval)),
    ]
    return jobs


def _trace_check(h, a, b, steps):
    bound = np.linalg.norm(h) * ((b - a) / (b + a)) ** np.arange(steps + 1)

    def check(r):
        errors, curve = np.asarray(r.errors), np.asarray(r.bound_curve)
        if curve.shape != bound.shape or not mat_close(curve, bound):
            return "bound curve differs from ||h|| ((b-a)/(b+a))^k"
        return _problem_if(np.all(errors <= bound * (1 + 1e-8) + 1e-12), "error exceeds its bound")
    return check


def lib_small(rng, fk) -> list:
    FramePair, OvfPair, PFramePair = fk.frames.FramePair, fk.ovf.OvfPair, fk.pframes.PFramePair
    jobs = []

    Xs = gaussian(rng, (3, 12))
    spanning = FramePair(Xs, Xs * rng.uniform(0.5, 2.0, 12), "real")
    jobs.append(Job("span", lambda r: _problem_if(r.is_frame and r.witness is None, "spanning pair rejected"),
                    call=lambda: fk.analysis.span_characterization(spanning)))
    Xpl, Tpl = _planted_nonspanning(rng, 3, 12)
    planted = FramePair(Xpl, Tpl, "real")
    jobs.append(Job("span_planted",
                    lambda r: "planted pair accepted" if r.is_frame else _witness_problem(r.witness, Xpl, Tpl),
                    call=lambda: fk.analysis.span_characterization(planted)))

    for m, n in ((12, 16), (6, 10)):
        Sp = operator(rng, spectrum(rng, m))
        Xp, Tp = dual_pair(rng, Sp, n)
        pf = PFramePair(Xp.T, Tp, 3.0, "real")
        jobs.append(Job(f"p_verify_{m}x{n}", _p_report_check(Sp),
                        call=lambda pf=pf: fk.pframes.p_verify(pf)))

    blocks = _blocks(unitary(rng, 200), 2)
    orthonormal = OvfPair(tuple(blocks), tuple(blocks), "real")
    jobs.append(Job("verify_ovf_orthonormal", lambda r: _lib_report_problem(r, 1.0, 1.0, tight=True)
                    or _problem_if(r.parseval and r.riesz_ovf and r.orthonormal_ovf, "not an orthonormal ovf"),
                    call=lambda: fk.ovf.verify_ovf(orthonormal)))
    Qw = unitary(rng, 200)
    weights = rng.uniform(0.2, 2.0, 100)
    wblocks = _blocks(Qw, 2)
    weighted = OvfPair(tuple(wblocks), tuple(c * B for c, B in zip(weights, wblocks)), "real")
    deficiency = (Qw.T * np.repeat(1 - (2 - weights) * weights, 2)) @ Qw
    jobs.append(Job("weighted_onb_bessel_check",
                    lambda r: _problem_if(r.holds and mat_close(r.deficiency, deficiency),
                                          "deficiency differs or check failed"),
                    call=lambda: fk.ovf.weighted_onb_bessel_check(weighted, weights)))

    lam6 = spectrum(rng, 6)
    S6 = operator(rng, lam6)
    X6 = _self_dual(rng, S6, 12)
    eps = rng.uniform(-0.01, 0.01, 12)
    Y6 = X6 * (1 + eps)
    base = FramePair(X6, X6, "real")
    actual = np.linalg.eigvalsh(X6 @ Y6.T)
    gamma = 1.01 * np.linalg.norm(X6 - Y6, 2)
    alpha = 1.01 * np.sqrt(np.abs(eps).max())
    for kind, args in (("sampled_linear", (0.1, 0.1, gamma)), ("sampled_bessel", (alpha, 0.1, 0.0))):
        jobs.append(Job(f"perturb_{kind}", _sampled_check(actual),
                        call=lambda args=args, kind=kind: fk.analysis.perturb_sampled(
                            base, Y6, *args, 1000, 0, kind)))

    for order in (8, 24, 60):
        x, power = _cyclic_generator(rng, order)
        jobs.append(Job(f"group_frame_{order}", _group_check(power),
                        call=lambda order=order, x=x: _group_frame(fk, order, x)))

    circular, truths = [], []
    for k in range(1, 13):
        for l in range(1, 13):
            if k * l >= 3:
                j = np.arange(k * l)
                Xk = np.vstack([np.cos(2 * np.pi * j / k), np.sin(2 * np.pi * j / k)])
                Tk = np.vstack([np.cos(2 * np.pi * j / l), np.sin(2 * np.pi * j / l)])
                circular.append(FramePair(Xk, Tk, "real"))
                truths.append(_truth(Tk @ Xk.T))
    jobs.append(Job("sweep_verify", lambda reps: _sweep_problem(reps, truths),
                    call=lambda: [fk.frames.verify(fp) for fp in circular]))

    tiny, expected = [], []
    for i in range(150):
        m = 2 + i % 3
        n = m + (i // 3) % 5
        Si = np.eye(m) if i % 10 == 0 else operator(rng, spectrum(rng, m))
        Xi, Ti = dual_pair(rng, Si, n)
        tiny.append(FramePair(Xi, Ti, "real"))
        expected.append((n == m, n == m and i % 10 == 0))
    jobs.append(Job("sweep_classify",
                    lambda rs: _problem_if([(r.riesz_frame, r.orthonormal_frame) for r in rs] == expected,
                                           "classification differs"),
                    call=lambda: [fk.frames.classify(fp) for fp in tiny]))
    return jobs


def _p_report_check(S):
    def check(r):
        if not r.resolvent_ok or r.lower_a is None:
            return "resolvent gate failed on a symmetric positive definite operator"
        return p_bounds_problem((r.lower_a.lower, r.lower_a.upper), (r.upper_b.lower, r.upper_b.upper), S, 3.0)
    return check


def _sampled_check(actual):
    def check(r):
        if not r.hypothesis_ok:
            return "a true inequality was reported falsified"
        if not (close(r.actual_lower, actual[0]) and close(r.actual_upper, actual[-1])):
            return f"actual bounds ({r.actual_lower}, {r.actual_upper}), expected {actual[0], actual[-1]}"
        return None
    return check


def _group_frame(fk, order, x):
    table = fk.constructors.GroupTable.cyclic(order)
    rep = fk.constructors.left_regular(table)
    return fk.constructors.group_frame(rep, x, x)


def _group_check(power):
    def check(r):
        return (_lib_report_problem(r.report, power.min(), power.max())
                or _problem_if(r.generator_bound_ok is True, "generator bound check failed"))
    return check


def _truth(S):
    """(is_frame, a, b) of a 2 x 2 operator whose entries are 0 or O(1)."""
    if np.abs(S - S.T).max() > 1e-6:
        return (False, 0.0, 0.0)
    w = np.linalg.eigvalsh(S)
    return (True, w[0], w[-1]) if w[0] > 1e-6 else (False, 0.0, 0.0)


def _sweep_problem(reports, truths):
    for i, (r, (frame, a, b)) in enumerate(zip(reports, truths)):
        if r.is_frame != frame or not (close(r.lower_a, a) and close(r.upper_b, b)):
            return f"pair {i}: ({r.is_frame}, {r.lower_a}, {r.upper_b}), expected {(frame, a, b)}"
    return _problem_if(len(reports) == len(truths), "missing reports")


# --- references ---------------------------------------------------------------------
#
# Every job is followed by one run of its workload's reference: fixed work that
# never touches framekit and loads the host the way the jobs do.  The host's
# speed drifts by up to 1.7x over minutes; a job and the reference right beside
# it drift together, so their ratio holds where either time alone does not.

CLI_REFERENCE = ["-c", "import numpy"]  # interpreter start-up and numpy: the CLI's floor


def reference(name: str) -> Callable:
    """The in-process reference of library workload `name`; the same call for every seed."""
    rng = np.random.default_rng(0)
    # Bound now, so that a traced run's wrappers around numpy.linalg never time the reference.
    eigvalsh, solve = np.linalg.eigvalsh, np.linalg.solve
    if name == "lib_large":
        M = gaussian(rng, (256, 1024))

        def dense():  # a frame operator, its spectrum and a solve, as one verdict does
            G = M @ M.T
            eigvalsh(G)
            solve(G, M[:, :64])
        return dense
    if name == "lib_small":
        tiny = [gaussian(rng, (3, 6)) for _ in range(1000)]

        def loop():  # per-call overhead on tiny matrices, as the sweeps pay it
            for A in tiny:
                eigvalsh(A @ A.T)
        return loop
    raise ValueError(f"no in-process reference for {name!r}")
