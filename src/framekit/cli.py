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
from dataclasses import fields, is_dataclass
from functools import partial

import numpy as np

# Start-up is most of a job's cost: constructors, analysis, ovf and pframes
# are imported inside the handler of the verb that uses them.
from . import frames, io
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
    if is_dataclass(value):
        return _fmt([v for _, v in _fields(value)])
    return str(value)


def _fields(result, *skip) -> list:
    """(name, value) of each field of a result dataclass, in declaration order.

    Private fields (a leading underscore) and the names in skip are left out.
    """
    return [(f.name, getattr(result, f.name)) for f in fields(result)
            if not f.name.startswith("_") and f.name not in skip]


def _render(pairs) -> str:
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in pairs)


def _parse_vector(text: str, complex_ok: bool = True) -> np.ndarray:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector literal")
    # a trailing i is the imaginary unit; the i of inf stays as it is
    values = [complex(p[:-1] + "j" if p.endswith("i") else p) if complex_ok else float(p)
              for p in parts]
    arr = np.asarray(values)
    if not np.isfinite(arr).all():
        raise ValueError(f"vector entries must be finite, got {text!r}")
    if np.all(arr.imag == 0):
        arr = arr.real
    return arr


def _tol(args) -> Tolerance:
    return Tolerance(args.abs_tol, args.rel_tol)


def _load(args, decode=io.frame_pair_from_dict, path=None):
    return decode(io.load(path or args.file), _tol(args))


# --- one handler per verb ---------------------------------------------------------
#
# A handler returns (report pairs, None or a deferred encoder that returns the
# document); run decides where each goes, and encodes only for -o.
# Between the literal kind, shape and basis lines, a report's keys are its
# result type's fields in declaration order.

_VERIFY_BASIS = ("optimal bounds are the extreme eigenvalues of the frame operator; "
                 "tight means equal optimal bounds, parseval a unit tight bound")


def _verify(args):
    fp = _load(args)
    S, report = frames._pair_flags(fp)
    pairs = [("kind", "frame_report"), ("dim", fp.m), ("count", fp.n), *_fields(report)]
    if report.is_frame:
        pairs += _fields(frames._classify(fp, S, report))
    return pairs + [("basis", _VERIFY_BASIS)], None


def _dual(args):
    dual = frames.canonical_dual(_load(args))
    return ([("kind", "canonical_dual"), *_fields(frames.verify(dual)),
             ("basis", "members are mapped by the inverse frame operator; "
                       "optimal bounds invert to (1/b, 1/a)")],
            partial(io.frame_pair_to_dict, dual))


def _classify(args):
    return [("kind", "classification"), *_fields(frames.classify(_load(args))),
            ("basis", "riesz: unit frame idempotent; orthonormal: parseval with "
                      "unit cross gram")], None


def _circular(args):
    from . import constructors

    result = constructors.circular_kl(args.k, args.l, _tol(args))
    return ([("kind", "circular_construction"), ("count", result.fp.n), *_fields(result, "fp"),
             ("basis", "tightness is the vanishing of the compound-angle sums; "
                       "the constant is half the weighted cosine sum")],
            partial(io.frame_pair_to_dict, result.fp))


def _group(args):
    from . import constructors

    tol = _tol(args)
    table = io.group_table_from_dict(io.load(args.table))
    rep = constructors.left_regular(table, tol)
    x = _parse_vector(args.x)
    tau = _parse_vector(args.tau)
    result = constructors.group_frame(rep, x, tau, tol)
    return ([("kind", "group_frame"), ("order", table.order), *_fields(result.report),
             *_fields(result, "fp", "report"),
             ("basis", "(order/dim) <x, tau> lies between the optimal bounds "
                       "of a generated frame")],
            partial(io.frame_pair_to_dict, result.fp))


def _reconstruct(args):
    from . import analysis

    fp = _load(args)
    trace = analysis.iterate_reconstruct(fp, _parse_vector(args.target), args.steps)
    steps = enumerate(zip(trace.errors, trace.bound_curve))
    return [("kind", "reconstruction"), ("steps", args.steps),
            *((f"step_{k}", pair) for k, pair in steps),
            ("basis", "error after k steps is at most ((b-a)/(b+a))^k ||h||")], None


def _extend(args):
    from . import analysis

    fp = _load(args)
    if args.minimal == (args.lam is not None):
        raise ValueError("choose exactly one of --lambda and --minimal")
    out = (analysis.extend_tight_minimal(fp) if args.minimal
           else analysis.extend_tight_append(fp, args.lam))
    return ([("kind", "tight_extension"), ("count", out.n), *_fields(frames.verify(out)),
             ("basis", "appending (lambda I - S)^(1/2) columns (or the deficient "
                       "eigenvectors) levels the spectrum")],
            partial(io.frame_pair_to_dict, out))


def _span(args):
    from . import analysis

    return [("kind", "span_characterization"),
            *_fields(analysis.span_characterization(_load(args))),
            ("basis", "a hypothesis-satisfying pair is a frame exactly when every "
                      "mixed selection spans the space")], None


def _formulas(args):
    from . import analysis

    return [("kind", "formulas"), *_fields(analysis.formulas_report(_load(args))),
            ("basis", "trace identities, the variation formula for tight pairs and "
                      "the dimension formula for parseval pairs")], None


def _perturb(args):
    from . import analysis

    fp = _load(args)
    other = _load(args, path=args.perturbed)
    if other.m != fp.m or other.n != fp.n:
        raise ValueError("perturbed family must match the frame's shape")
    Y = other.X
    if args.kind == "quadratic":
        cert = analysis.perturb_quadratic(fp, Y)
    elif args.kind == "normsum":
        cert = analysis.perturb_normsum(fp, Y)
    else:
        sampled_kind = (analysis.SAMPLED_LINEAR if args.kind == "sampled-linear"
                        else analysis.SAMPLED_BESSEL)
        cert = analysis.perturb_sampled(fp, Y, args.alpha, args.beta, args.gamma,
                                        args.samples, args.seed, sampled_kind)
    return [("kind", f"perturbation_{cert.kind}"), *_fields(cert, "kind"),
            ("basis", "quadratic/normsum windows are guaranteed under their "
                      "hypotheses; sampled kinds only report non-falsification")], None


def _convert(args):
    from . import analysis

    fp = _load(args)
    out = analysis.real_to_complex(fp) if args.to_complex else analysis.complex_to_real(fp)
    return ([("kind", "field_conversion"), ("field", out.field), ("count", out.n),
             *_fields(frames.verify(out)),
             ("basis", "bounds survive the change of scalars; the real form "
                       "doubles the member count")],
            partial(io.frame_pair_to_dict, out))


def _ovf_verify(args):
    from . import ovf

    op = _load(args, io.ovf_pair_from_dict)
    return [("kind", "ovf_report"), ("m", op.m), ("n", op.n), *_fields(ovf.verify_ovf(op)),
            ("basis", _VERIFY_BASIS + "; riesz: unit frame idempotent")], None


def _ovf_dual(args):
    from . import ovf

    dual = ovf.canonical_dual_ovf(_load(args, io.ovf_pair_from_dict))
    report = ovf.verify_ovf(dual)
    return ([("kind", "ovf_canonical_dual"), *_fields(report, "riesz_ovf", "orthonormal_ovf"),
             ("basis", "members are right-multiplied by the inverse frame "
                       "operator; optimal bounds invert")],
            partial(io.ovf_pair_to_dict, dual))


def _ovf_bridge(args):
    from . import ovf

    doc = io.load(args.file)
    if io.detect_kind(doc) == "frame":
        out = ovf.ovf_bridge(io.frame_pair_from_dict(doc, _tol(args)))
        return ([("kind", "bridge"), ("direction", "frame_to_ovf"), ("n", out.n)],
                partial(io.ovf_pair_to_dict, out))
    fp = ovf.ovf_bridge_inverse(io.ovf_pair_from_dict(doc, _tol(args)))
    return ([("kind", "bridge"), ("direction", "ovf_to_frame"), ("count", fp.n)],
            partial(io.frame_pair_to_dict, fp))


def _pframe_verify(args):
    from . import pframes

    pf = _load(args, io.pframe_pair_from_dict)
    report = pframes.p_verify(pf, args.samples, args.seed)
    return [("kind", "pframe_report"), ("p", pf.p), ("dim", pf.m), ("count", pf.n),
            *_fields(report),
            ("basis", "bounds are measured through the principal 1/p power of the "
                      "p-frame operator and certified as intervals")], None


def _pframe_dual(args):
    from . import pframes

    result = pframes.p_canonical_dual(_load(args, io.pframe_pair_from_dict))
    return ([("kind", "pframe_canonical_dual"), *_fields(result, "dual"),
             ("basis", "functionals and vectors are carried by the inverse p-frame "
                       "operator")],
            partial(io.pframe_pair_to_dict, result.dual))


def _paley_wiener(args):
    from . import pframes

    base = _load(args, io.pframe_pair_from_dict, args.base)
    pert = _load(args, io.pframe_pair_from_dict, args.perturbed)
    result = pframes.paley_wiener_check(base.T, pert.T, base.p, args.samples, args.seed,
                                        _tol(args))
    return [("kind", "paley_wiener"), *_fields(result),
            ("basis", "a perturbation of a p-orthonormal basis with coefficient "
                      "operator norm below one is a Riesz p-basis")], None


def _fourlaws(args):
    from . import pframes

    x = _parse_vector(args.x, complex_ok=False)
    y = _parse_vector(args.y, complex_ok=False)
    return [("kind", "four_laws"), *_fields(pframes.four_laws_check(x, y, _tol(args))),
            ("basis", "the l4 analogues of the Cauchy-Schwarz inequality and the "
                      "parallelogram law")], None


# --- the verb table ---------------------------------------------------------------
#
# Each verb is registered by name with a builder of its parser.  argparse checks
# a name against the registered ones (the order of every "invalid choice" list),
# and only the verb it selects has its parser and arguments built.

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not 2
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Verbs(argparse._SubParsersAction):
    """Sub-verbs whose parsers are built when argparse selects them."""

    def parser(self, name: str) -> argparse.ArgumentParser:
        """The parser of a registered verb, built on first use as add_parser would."""
        sub = self._name_parser_map[name]
        if not isinstance(sub, argparse.ArgumentParser):
            built = self._parser_class(prog=f"{self._prog_prefix} {name}")
            sub(built)
            sub = self._name_parser_map[name] = built
        return sub

    def __call__(self, parser, namespace, values, option_string=None):
        self.parser(values[0])  # argparse has checked the name against the choices
        super().__call__(parser, namespace, values, option_string)


def _verbs(dest: str, builders: dict):
    """Builder of a parser whose sub-verbs, stored under dest, are the names of builders
    in order; each sub-verb's parser is built by its builder when argparse selects it."""
    def build(parser: argparse.ArgumentParser) -> None:
        verbs = parser.add_subparsers(dest=dest, required=True, action=_Verbs)
        verbs._name_parser_map.update(builders)
    return build


def _leaf(handler, *own):
    """Builder of a verb: its own arguments, added in order by each of own, then the
    options every verb takes and its handler."""
    def build(sub: argparse.ArgumentParser) -> None:
        for add in own:
            add(sub)
        _common(sub, handler)
    return build


def _file(sub: argparse.ArgumentParser, help=None) -> None:
    sub.add_argument("file", help=help)


def _common(sub: argparse.ArgumentParser, handler):
    """Add the options every verb takes, after its own, and register its handler."""
    sub.add_argument("--abs-tol", type=float, default=1e-9)
    sub.add_argument("--rel-tol", type=float, default=1e-9)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--samples", type=int, default=1000)
    sub.add_argument("-o", "--output", default=None)
    sub.set_defaults(handler=handler)


def _circular_args(sub):
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)


def _group_args(sub):
    sub.add_argument("--table", required=True, help="group table file")
    sub.add_argument("--x", required=True, help="comma separated generator")
    sub.add_argument("--tau", required=True, help="comma separated generator")


def _reconstruct_args(sub):
    sub.add_argument("--target", required=True, help="comma separated vector")
    sub.add_argument("--steps", type=int, default=20)


def _extend_args(sub):
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--minimal", action="store_true")


def _perturb_args(sub):
    sub.add_argument("--perturbed", required=True,
                     help="frame pair file; its x family is the perturbation")
    sub.add_argument("--kind", default="quadratic",
                     choices=["quadratic", "normsum", "sampled-linear", "sampled-bessel"])
    sub.add_argument("--alpha", type=float, default=0.0)
    sub.add_argument("--beta", type=float, default=0.0)
    sub.add_argument("--gamma", type=float, default=0.0)


def _convert_args(sub):
    direction = sub.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-complex", action="store_true")
    direction.add_argument("--to-real", action="store_true")


def _paley_wiener_args(sub):
    sub.add_argument("base", help="p-frame file; its tau columns are the basis")
    sub.add_argument("perturbed", help="p-frame file; its tau columns are the perturbation")


def _fourlaws_args(sub):
    sub.add_argument("--x", required=True)
    sub.add_argument("--y", required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="framekit", description=__doc__)
    _verbs("verb", {
        "verify": _leaf(_verify, _file),
        "dual": _leaf(_dual, _file),
        "classify": _leaf(_classify, _file),
        "construct": _verbs("what", {
            "circular": _leaf(_circular, _circular_args),
            "group": _leaf(_group, _group_args),
        }),
        "analyze": _verbs("what", {
            "reconstruct": _leaf(_reconstruct, _file, _reconstruct_args),
            "extend": _leaf(_extend, _file, _extend_args),
            "span": _leaf(_span, _file),
            "formulas": _leaf(_formulas, _file),
            "perturb": _leaf(_perturb, _file, _perturb_args),
            "convert": _leaf(_convert, _file, _convert_args),
        }),
        "ovf": _verbs("what", {
            "verify": _leaf(_ovf_verify, _file),
            "dual": _leaf(_ovf_dual, _file),
            "bridge": _leaf(_ovf_bridge, partial(_file, help="frame pair file (forward) or "
                                                               "ovf file with d = 1 (inverse)")),
        }),
        "pframe": _verbs("what", {
            "verify": _leaf(_pframe_verify, _file),
            "dual": _leaf(_pframe_dual, _file),
            "paley-wiener": _leaf(_paley_wiener, _paley_wiener_args),
            "fourlaws": _leaf(_fourlaws, _fourlaws_args),
        }),
    })(parser)
    return parser


def _failure(kind: str, exc: Exception, code: int) -> int:
    sys.stdout.write(_render([("kind", kind), ("error", type(exc).__name__),
                              ("message", str(exc))]))
    return code


def run(argv) -> int:
    """Run one verb.  A verb that builds a document writes it to -o and its
    report to stdout; any other verb writes its report to -o when one is
    given, else to stdout.  A failing verb writes only its error, to stdout."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        pairs, encode = args.handler(args)
        text = _render(pairs)
        if args.output and encode is not None:
            io.save(args.output, encode())
        elif args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            text = ""
    except (FramekitError, np.linalg.LinAlgError) as exc:
        return _failure("domain_error", exc, 2)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _failure("parse_error", exc, 1)
    sys.stdout.write(text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
