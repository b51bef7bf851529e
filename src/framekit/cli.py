"""Command line front end.

Exit codes: 0 success, 1 I/O or parse failure, 2 mathematical domain error
(NotAFrame and friends) or numerical failure (numpy's LinAlgError, which
subclasses ValueError and must not pass for a parse failure).  Reports are
deterministic given the argument vector, the input files and --seed: keys
are emitted in a fixed order and floats with 12 significant digits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, constructors, frames, io, ovf, pframes
from .errors import FramekitError
from .numerics import Tolerance


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return f"[{format(z.real, '.12g')}, {format(z.imag, '.12g')}]"
    if isinstance(value, np.ndarray):
        return "[" + ", ".join(_fmt(v) for v in value.ravel()) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _render(pairs) -> str:
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in pairs)


def _parse_vector(text: str, complex_ok: bool = True) -> np.ndarray:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector literal")
    values = [complex(p.replace("i", "j")) if complex_ok else float(p) for p in parts]
    arr = np.asarray(values)
    if np.all(arr.imag == 0):
        arr = arr.real
    return arr


def _report_pairs(report: frames.FrameReport):
    return [
        ("self_adjoint", report.self_adjoint),
        ("psd", report.psd),
        ("invertible", report.invertible),
        ("is_bessel", report.is_bessel),
        ("is_frame", report.is_frame),
        ("lower_a", report.lower_a),
        ("upper_b", report.upper_b),
        ("tight", report.tight),
        ("parseval", report.parseval),
    ]


_VERIFY_BASIS = ("optimal bounds are the extreme eigenvalues of the frame operator; "
                 "tight means equal optimal bounds, parseval a unit tight bound")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _common(sub: argparse.ArgumentParser):
    sub.add_argument("--abs-tol", type=float, default=1e-9)
    sub.add_argument("--rel-tol", type=float, default=1e-9)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--samples", type=int, default=1000)
    sub.add_argument("-o", "--output", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="framekit", description=__doc__)
    top = parser.add_subparsers(dest="verb", required=True)

    for name in ("verify", "dual", "classify"):
        sub = top.add_parser(name)
        sub.add_argument("file")
        _common(sub)

    construct = top.add_parser("construct").add_subparsers(dest="what", required=True)
    circ = construct.add_parser("circular")
    circ.add_argument("--k", type=int, required=True)
    circ.add_argument("--l", type=int, required=True)
    _common(circ)
    grp = construct.add_parser("group")
    grp.add_argument("--table", required=True, help="group table file")
    grp.add_argument("--x", required=True, help="comma separated generator")
    grp.add_argument("--tau", required=True, help="comma separated generator")
    _common(grp)

    analyze = top.add_parser("analyze").add_subparsers(dest="what", required=True)
    rec = analyze.add_parser("reconstruct")
    rec.add_argument("file")
    rec.add_argument("--target", required=True, help="comma separated vector")
    rec.add_argument("--steps", type=int, default=20)
    _common(rec)
    ext = analyze.add_parser("extend")
    ext.add_argument("file")
    ext.add_argument("--lambda", dest="lam", type=float, default=None)
    ext.add_argument("--minimal", action="store_true")
    _common(ext)
    for name in ("span", "formulas"):
        sub = analyze.add_parser(name)
        sub.add_argument("file")
        _common(sub)
    pert = analyze.add_parser("perturb")
    pert.add_argument("file")
    pert.add_argument("--perturbed", required=True, help="frame pair file; its x family is the perturbation")
    pert.add_argument("--kind", default="quadratic",
                      choices=["quadratic", "normsum", "sampled-linear", "sampled-bessel"])
    pert.add_argument("--alpha", type=float, default=0.0)
    pert.add_argument("--beta", type=float, default=0.0)
    pert.add_argument("--gamma", type=float, default=0.0)
    _common(pert)
    conv = analyze.add_parser("convert")
    conv.add_argument("file")
    direction = conv.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-complex", action="store_true")
    direction.add_argument("--to-real", action="store_true")
    _common(conv)

    ovf_cmd = top.add_parser("ovf").add_subparsers(dest="what", required=True)
    for name in ("verify", "dual"):
        sub = ovf_cmd.add_parser(name)
        sub.add_argument("file")
        _common(sub)
    bridge = ovf_cmd.add_parser("bridge")
    bridge.add_argument("file", help="frame pair file (forward) or ovf file with d = 1 (inverse)")
    _common(bridge)

    pframe = top.add_parser("pframe").add_subparsers(dest="what", required=True)
    for name in ("verify", "dual"):
        sub = pframe.add_parser(name)
        sub.add_argument("file")
        _common(sub)
    pw = pframe.add_parser("paley-wiener")
    pw.add_argument("base", help="p-frame file; its tau columns are the basis")
    pw.add_argument("perturbed", help="p-frame file; its tau columns are the perturbation")
    _common(pw)
    fl = pframe.add_parser("fourlaws")
    fl.add_argument("--x", required=True)
    fl.add_argument("--y", required=True)
    _common(fl)

    return parser


def _emit(args, pairs) -> str:
    text = _render(pairs)
    if args.output and not getattr(args, "_output_used", False):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _write_pair(args, doc) -> bool:
    """Write a constructed object to -o; the report then goes to stdout."""
    if args.output:
        io.save(args.output, doc)
        args._output_used = True
        return True
    return False


def _tol(args) -> Tolerance:
    return Tolerance(args.abs_tol, args.rel_tol)


def _load_frame(args, path=None) -> frames.FramePair:
    return io.frame_pair_from_dict(io.load(path or args.file), _tol(args))


def _dispatch(args) -> list:
    tol = _tol(args)
    verb = args.verb

    if verb == "verify":
        fp = _load_frame(args)
        report = frames.verify(fp)
        pairs = [("kind", "frame_report"), ("dim", fp.m), ("count", fp.n)]
        pairs += _report_pairs(report)
        if report.is_frame:
            cls = frames.classify(fp)
            pairs += [("riesz_frame", cls.riesz_frame),
                      ("orthonormal_frame", cls.orthonormal_frame)]
        pairs.append(("basis", _VERIFY_BASIS))
        return pairs

    if verb == "dual":
        fp = _load_frame(args)
        dual = frames.canonical_dual(fp)
        _write_pair(args, io.frame_pair_to_dict(dual))
        report = frames.verify(dual)
        pairs = [("kind", "canonical_dual")] + _report_pairs(report)
        pairs.append(("basis", "members are mapped by the inverse frame operator; "
                               "optimal bounds invert to (1/b, 1/a)"))
        return pairs

    if verb == "classify":
        fp = _load_frame(args)
        cls = frames.classify(fp)
        return [
            ("kind", "classification"),
            ("riesz_frame", cls.riesz_frame),
            ("orthonormal_frame", cls.orthonormal_frame),
            ("basis", "riesz: unit frame idempotent; orthonormal: parseval with "
                      "unit cross gram"),
        ]

    if verb == "construct":
        if args.what == "circular":
            result = constructors.circular_kl(args.k, args.l, tol)
            _write_pair(args, io.frame_pair_to_dict(result.fp))
            return [
                ("kind", "circular_construction"),
                ("count", result.fp.n),
                ("tight", result.tight),
                ("constant", result.constant),
                ("residual", result.residual),
                ("basis", "tightness is the vanishing of the compound-angle sums; "
                          "the constant is half the weighted cosine sum"),
            ]
        table = io.group_table_from_dict(io.load(args.table))
        rep = constructors.left_regular(table, tol)
        x = _parse_vector(args.x)
        tau = _parse_vector(args.tau)
        result = constructors.group_frame(rep, x, tau, tol)
        _write_pair(args, io.frame_pair_to_dict(result.fp))
        pairs = [("kind", "group_frame"), ("order", table.order)]
        pairs += _report_pairs(result.report)
        pairs.append(("generator_bound_ok", result.generator_bound_ok))
        pairs.append(("basis", "(order/dim) <x, tau> lies between the optimal bounds "
                               "of a generated frame"))
        return pairs

    if verb == "analyze":
        return _dispatch_analyze(args, tol)
    if verb == "ovf":
        return _dispatch_ovf(args, tol)
    if verb == "pframe":
        return _dispatch_pframe(args, tol)
    raise ValueError(f"unknown verb {verb!r}")


def _dispatch_analyze(args, tol: Tolerance) -> list:
    what = args.what
    if what == "reconstruct":
        fp = _load_frame(args)
        h = _parse_vector(args.target)
        trace = analysis.iterate_reconstruct(fp, h, args.steps)
        pairs = [("kind", "reconstruction"), ("steps", args.steps)]
        for k, (err, bnd) in enumerate(zip(trace.errors, trace.bound_curve)):
            pairs.append((f"step_{k}", [err, bnd]))
        pairs.append(("basis", "error after k steps is at most ((b-a)/(b+a))^k ||h||"))
        return pairs

    if what == "extend":
        fp = _load_frame(args)
        if args.minimal == (args.lam is not None):
            raise ValueError("choose exactly one of --lambda and --minimal")
        out = (analysis.extend_tight_minimal(fp) if args.minimal
               else analysis.extend_tight_append(fp, args.lam))
        _write_pair(args, io.frame_pair_to_dict(out))
        report = frames.verify(out)
        return ([("kind", "tight_extension"), ("count", out.n)]
                + _report_pairs(report)
                + [("basis", "appending (lambda I - S)^(1/2) columns (or the deficient "
                             "eigenvectors) levels the spectrum")])

    if what == "span":
        fp = _load_frame(args)
        result = analysis.span_characterization(fp)
        return [
            ("kind", "span_characterization"),
            ("is_frame", result.is_frame),
            ("witness", None if result.witness is None else list(result.witness)),
            ("basis", "a hypothesis-satisfying pair is a frame exactly when every "
                      "mixed selection spans the space"),
        ]

    if what == "formulas":
        fp = _load_frame(args)
        rep = analysis.formulas_report(fp)
        return [
            ("kind", "formulas"),
            ("trace_S", rep.trace_S),
            ("sum_inner", rep.sum_inner),
            ("trace_S2", rep.trace_S2),
            ("double_sum", rep.double_sum),
            ("variation_ok", rep.variation_ok),
            ("dim_formula_ok", rep.dim_formula_ok),
            ("equal_diag_b", rep.equal_diag_b),
            ("equal_diag_ok", rep.equal_diag_ok),
            ("basis", "trace identities, the variation formula for tight pairs and "
                      "the dimension formula for parseval pairs"),
        ]

    if what == "perturb":
        fp = _load_frame(args)
        other = io.frame_pair_from_dict(io.load(args.perturbed), tol)
        if other.m != fp.m or other.n != fp.n:
            raise ValueError("perturbed family must match the frame's shape")
        Y = other.X
        kind = args.kind
        if kind == "quadratic":
            cert = analysis.perturb_quadratic(fp, Y)
        elif kind == "normsum":
            cert = analysis.perturb_normsum(fp, Y)
        else:
            sampled_kind = (analysis.SAMPLED_LINEAR if kind == "sampled-linear"
                            else analysis.SAMPLED_BESSEL)
            cert = analysis.perturb_sampled(fp, Y, args.alpha, args.beta, args.gamma,
                                            args.samples, args.seed, sampled_kind)
        return [
            ("kind", f"perturbation_{cert.kind}"),
            ("hypothesis_ok", cert.hypothesis_ok),
            ("predicted_lower", cert.predicted_lower),
            ("predicted_upper", cert.predicted_upper),
            ("actual_lower", cert.actual_lower),
            ("actual_upper", cert.actual_upper),
            ("basis", "quadratic/normsum windows are guaranteed under their "
                      "hypotheses; sampled kinds only report non-falsification"),
        ]

    if what == "convert":
        fp = _load_frame(args)
        out = analysis.real_to_complex(fp) if args.to_complex else analysis.complex_to_real(fp)
        _write_pair(args, io.frame_pair_to_dict(out))
        report = frames.verify(out)
        return ([("kind", "field_conversion"), ("field", out.field), ("count", out.n)]
                + _report_pairs(report)
                + [("basis", "bounds survive the change of scalars; the real form "
                             "doubles the member count")])

    raise ValueError(f"unknown analyze subcommand {what!r}")


def _dispatch_ovf(args, tol: Tolerance) -> list:
    what = args.what
    if what == "bridge":
        doc = io.load(args.file)
        kind = io.detect_kind(doc)
        if kind == "frame":
            fp = io.frame_pair_from_dict(doc, tol)
            out = ovf.ovf_bridge(fp)
            _write_pair(args, io.ovf_pair_to_dict(out))
            return [("kind", "bridge"), ("direction", "frame_to_ovf"), ("n", out.n)]
        op = io.ovf_pair_from_dict(doc, tol)
        fp = ovf.ovf_bridge_inverse(op)
        _write_pair(args, io.frame_pair_to_dict(fp))
        return [("kind", "bridge"), ("direction", "ovf_to_frame"), ("count", fp.n)]

    op = io.ovf_pair_from_dict(io.load(args.file), tol)
    if what == "verify":
        report = ovf.verify_ovf(op)
        pairs = [("kind", "ovf_report"), ("m", op.m), ("n", op.n)]
        pairs += _report_pairs(report)
        pairs += [("riesz_ovf", report.riesz_ovf),
                  ("orthonormal_ovf", report.orthonormal_ovf),
                  ("basis", _VERIFY_BASIS + "; riesz: unit frame idempotent")]
        return pairs
    if what == "dual":
        dual = ovf.canonical_dual_ovf(op)
        _write_pair(args, io.ovf_pair_to_dict(dual))
        report = ovf.verify_ovf(dual)
        return ([("kind", "ovf_canonical_dual")] + _report_pairs(report)
                + [("basis", "members are right-multiplied by the inverse frame "
                             "operator; optimal bounds invert")])
    raise ValueError(f"unknown ovf subcommand {what!r}")


def _dispatch_pframe(args, tol: Tolerance) -> list:
    what = args.what
    if what == "fourlaws":
        x = _parse_vector(args.x, complex_ok=False)
        y = _parse_vector(args.y, complex_ok=False)
        result = pframes.four_laws_check(x, y, tol)
        return [
            ("kind", "four_laws"),
            ("ineq4_ok", result.ineq4_ok),
            ("pl4_ok", result.pl4_ok),
            ("ineq4_lhs", result.ineq4_lhs),
            ("ineq4_rhs", result.ineq4_rhs),
            ("pl4_lhs", result.pl4_lhs),
            ("pl4_rhs", result.pl4_rhs),
            ("basis", "the l4 analogues of the Cauchy-Schwarz inequality and the "
                      "parallelogram law"),
        ]

    if what == "paley-wiener":
        base = io.pframe_pair_from_dict(io.load(args.base), tol)
        pert = io.pframe_pair_from_dict(io.load(args.perturbed), tol)
        result = pframes.paley_wiener_check(base.T, pert.T, base.p,
                                            args.samples, args.seed, tol)
        return [
            ("kind", "paley_wiener"),
            ("lambda_upper", result.lambda_upper),
            ("concluded", result.concluded),
            ("riesz", result.riesz),
            ("basis", "a perturbation of a p-orthonormal basis with coefficient "
                      "operator norm below one is a Riesz p-basis"),
        ]

    pf = io.pframe_pair_from_dict(io.load(args.file), tol)
    if what == "verify":
        report = pframes.p_verify(pf, args.samples, args.seed)
        def interval(iv):
            return None if iv is None else [iv.lower, iv.upper]
        return [
            ("kind", "pframe_report"),
            ("p", pf.p),
            ("dim", pf.m),
            ("count", pf.n),
            ("resolvent_ok", report.resolvent_ok),
            ("tight", report.tight),
            ("parseval", report.parseval),
            ("lower_a", interval(report.lower_a)),
            ("upper_b", interval(report.upper_b)),
            ("basis", "bounds are measured through the principal 1/p power of the "
                      "p-frame operator and certified as intervals"),
        ]
    if what == "dual":
        result = pframes.p_canonical_dual(pf)
        _write_pair(args, io.pframe_pair_to_dict(result.dual))
        return [
            ("kind", "pframe_canonical_dual"),
            ("is_dual", result.is_dual),
            ("basis", "functionals and vectors are carried by the inverse p-frame "
                      "operator"),
        ]
    raise ValueError(f"unknown pframe subcommand {what!r}")


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        pairs = _dispatch(args)
    except (FramekitError, np.linalg.LinAlgError) as exc:
        sys.stdout.write(_render([
            ("kind", "domain_error"),
            ("error", type(exc).__name__),
            ("message", str(exc)),
        ]))
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stdout.write(_render([
            ("kind", "parse_error"),
            ("error", type(exc).__name__),
            ("message", str(exc)),
        ]))
        return 1
    _emit(args, pairs)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
