"""Command-line front end: classify, blowup, gpd, normal-form, holonomy,
cs-index, and report over a parsed 1-form expression.

Exit codes: 0 success, 2 malformed input, 3 failed mathematical
precondition, 4 exhausted truncation budget.  FF_ORDER and FF_PRECISION
set default truncation order and float mantissa bits; explicit flags win.
"""

import argparse
import functools
import os
import re
import sys
import time
from fractions import Fraction

import mpmath

from . import __version__
from .blowup import (blowup_chain, blowup_chart1, blowup_chart2, recenter,
                     singular_points_on_divisor)
from .classify import analyze, gpd_condition, gpd_detect
from .errors import InputError, MathError, PdfolError, PrecisionError
from .forms import cs_index, dual, report_at
from .holonomy import dichotomy, numeric_holonomy, pd_holonomy_model, sz_lambda
from .parser import parse_expr
from .report import canonical_bytes, document, encode, render
from .rings import ComplexApprox, format_rational, rational

ERROR_CODES = {2: "input", 3: "math", 4: "precision"}

# accept "-5", "-5/1", "-4.25", "-1e-3" as option values, not option names
_NEGATIVE_VALUE = re.compile(
    r"^-\d+(/\d+)?$|^-\d*\.\d+([eE][+-]?\d+)?$|^-\d+[eE][+-]?\d+$")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--expr", help="1-form expression text")
    shared.add_argument("--input", help="expression file, or a directory "
                        "of one-expression files")
    shared.add_argument("--mode", default="exact",
                        help="exact | float | param:NAME")
    shared.add_argument("--order", type=int, default=None,
                        help="truncation order (default FF_ORDER, then "
                        "2p+m+8 when p, m are known, else 24)")

    top = argparse.ArgumentParser(prog="pdfol", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[shared],
                   help="Takens case, saddle subcase, resonance data, "
                   "and the dicritical/Poincare-Dulac verdict")

    blow = sub.add_parser("blowup", parents=[shared],
                          help="blow up the origin repeatedly")
    blow.add_argument("--times", type=int, default=1)
    blow.add_argument("--chart", type=int, choices=(1, 2), default=None,
                      help="fix one chart instead of following the "
                      "singular points")

    gpd = sub.add_parser("gpd", parents=[shared],
                         help="resonance arithmetic on (p, alpha) or (p, m)")
    gpd.add_argument("--p", type=int, required=True)
    gpd.add_argument("--alpha", help="rational or decimal text")
    gpd.add_argument("--m", type=int)

    sub.add_parser("normal-form", parents=[shared],
                   help="reduce, then eliminate nonresonant terms "
                   "degree by degree")

    hol = sub.add_parser("holonomy", parents=[shared],
                         help="formal model or numeric loop transport")
    hol.add_argument("--formal", action="store_true")
    hol.add_argument("--numeric", action="store_true")
    hol.add_argument("--m", type=int)
    hol.add_argument("--radius", type=float, default=1.0)
    hol.add_argument("--center", default="0")
    hol.add_argument("--samples", help="comma-separated start points")

    csi = sub.add_parser("cs-index", parents=[shared],
                         help="Camacho-Sad index along the divisor {x = 0}")
    csi.add_argument("--at", default="0", help="divisor point (rational)")

    rep = sub.add_parser("report", parents=[shared],
                         help="full pipeline as one document")
    rep.add_argument("--json", action="store_true")

    for p in [top, shared, blow, gpd, hol, csi, rep] + list(
            sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_VALUE
    return top


def _env_int(name):
    """The integer in the environment variable ``name``, or None;
    InputError when it is not an integer or is below 1."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputError("%s=%r is not an integer" % (name, raw))
    if value < 1:
        raise InputError("%s must be at least 1, got %d" % (name, value))
    return value


def _order(args):
    """The truncation order of ``--order``, else of FF_ORDER, else None;
    InputError when the one given is below 1."""
    if args.order is None:
        return _env_int("FF_ORDER")
    if args.order < 1:
        raise InputError("--order must be at least 1, got %d" % args.order)
    return args.order


def _inputs(args):
    """[(label, text)] from --expr or --input; label is None for --expr."""
    if args.expr is not None and args.input is not None:
        raise InputError("--expr and --input are mutually exclusive")
    if args.expr is not None:
        return [(None, args.expr)]
    if args.input is None:
        raise InputError("an expression is required: --expr or --input")
    if os.path.isdir(args.input):
        names = sorted(n for n in os.listdir(args.input)
                       if not n.startswith("."))
        if not names:
            raise InputError("no input files in %r" % args.input)
        return [(name, _read(os.path.join(args.input, name)))
                for name in names]
    return [(os.path.basename(args.input), _read(args.input))]


def _read(path):
    """The stripped UTF-8 text of ``path``; InputError naming it when it
    cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError("cannot read input %r: %s" % (path, reason)) from exc


def _parse(args, text):
    order = _order(args)
    return parse_expr(text, args.mode, 24 if order is None else order,
                      precision=_env_int("FF_PRECISION"))


def _as_fraction(text, what):
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("%s must be rational or decimal text, got %r"
                         % (what, text))
    return rational(frac.numerator, frac.denominator)


def _fmt(value, ring):
    if value is None:
        return "none"
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        return format_rational(value)
    if isinstance(value, (mpmath.mpf, mpmath.mpc, float, complex)):
        return mpmath.nstr(mpmath.mpc(value), 12)
    return ring.format_coeff(value)


# ------------------------------------------------------------- commands


def _cmd_classify(args, out):
    for label, text in _inputs(args):
        expr = _parse(args, text)
        rep = analyze(expr.form, N=_order(args))
        if label is not None:
            out.write("== %s ==\n" % label)
        for key, value in rep.json(expr.form.ring).items():
            out.write("%s: %s\n" % (key, value))
    return 0


def _cmd_blowup(args, out):
    if args.times < 1:
        raise InputError("--times must be >= 1")
    for label, text in _inputs(args):
        expr = _parse(args, text)
        if label is not None:
            out.write("== %s ==\n" % label)
        if args.chart is not None:
            step = blowup_chart1 if args.chart == 1 else blowup_chart2
            current = expr.form
            for k in range(args.times):
                result = step(current)
                out.write("step %d: chart %d, dicritical: %s\n"
                          % (k + 1, args.chart, result.dicritical))
                current = result.form
            out.write("final: %s\n" % current.format())
        else:
            path = blowup_chain(expr.form, args.times)
            out.write("labels: %s\n" % " ".join(path.labels))
            out.write("self-intersections: %s\n"
                      % " ".join(str(s) for s in path.self_intersections))
            out.write("final: %s\n" % path.final.format())
    return 0


def _cmd_gpd(args, out):
    if args.p < 2:
        raise InputError("--p must be >= 2")
    if (args.alpha is None) == (args.m is None):
        raise InputError("gpd needs exactly one of --alpha or --m")
    if args.m is not None:
        value, irrational = gpd_condition(args.p, args.m)
        if irrational and args.mode != "float":
            raise MathError("alpha irrational in exact mode (float approx "
                            "%s)" % mpmath.nstr(value, 12))
        out.write("alpha: %s\n" % (mpmath.nstr(value, 12) if irrational
                                   else format_rational(value)))
        out.write("irrational: %s\n" % irrational)
        return 0
    alpha = _as_fraction(args.alpha, "--alpha")
    found = gpd_detect(args.p, alpha)
    if found is None:
        out.write("resonant: False\n")
        out.write("m: none\n")
        return 0
    m, z1, z2 = found
    value, _ = gpd_condition(args.p, m)
    out.write("resonant: True\n")
    out.write("m: %d\n" % m)
    out.write("z1: %s\n" % format_rational(z1))
    out.write("z2: %s\n" % format_rational(z2))
    out.write("alpha_check: %s\n" % (value == alpha))
    return 0


def _cmd_normal_form(args, out):
    for label, text in _inputs(args):
        expr = _parse(args, text)
        N = _order(args)
        rep = analyze(expr.form, N=N)
        result = rep.normalization
        if result is None:
            raise MathError("no Poincare-Dulac resonance: %s"
                            % (rep.subcase or rep.case))
        if N is not None and N < result.m:
            # analyze decides at degree m, past an order this low
            raise PrecisionError("normal form (m=%d, N=%d): order cannot "
                                 "reach the obstruction at degree m"
                                 % (result.m, N))
        if label is not None:
            out.write("== %s ==\n" % label)
        out.write("m: %d\n" % result.m)
        out.write("order: %d\n" % result.order)
        out.write("epsilon: %s\n" % _fmt(result.epsilon, expr.form.ring))
        out.write("residual_valuation: %s\n" % result.residual_valuation)
    return 0


def _cmd_holonomy(args, out):
    if args.formal == args.numeric:
        raise InputError("holonomy needs exactly one of --formal "
                         "or --numeric")
    if args.formal:
        if args.m is None or args.m < 2:
            raise InputError("--formal needs --m >= 2")
        N = _order(args)
        bits = _env_int("FF_PRECISION")
        ring = ComplexApprox() if bits is None else ComplexApprox(bits)
        h = pd_holonomy_model(args.m, 24 if N is None else N, ring)
        out.write("multiplier: %s\n" % _fmt(h.multiplier, h.ring))
        out.write("series: %s\n" % h.format())
        return 0
    if args.samples is None:
        raise InputError("--numeric needs --samples")
    try:
        samples = [float(s) for s in args.samples.split(",") if s.strip()]
    except ValueError:
        raise InputError("--samples must be comma-separated numbers")
    if not samples:
        raise InputError("--samples must be comma-separated numbers")
    try:
        center = float(_as_fraction(args.center, "--center"))
    except OverflowError:
        raise InputError("--center %s is too large for a float"
                         % args.center) from None
    for label, text in _inputs(args):
        expr = _parse(args, text)
        if label is not None:
            out.write("== %s ==\n" % label)
        ends = numeric_holonomy(expr.form, center, args.radius, samples)
        for x0, end in zip(samples, ends):
            out.write("%s -> %s\n" % (x0, mpmath.nstr(end, 12)))
    return 0


def _cmd_cs_index(args, out):
    at = _as_fraction(args.at, "--at")
    for label, text in _inputs(args):
        expr = _parse(args, text)
        ring = expr.form.ring
        value = cs_index(dual(recenter(expr.form, ring.from_rational(at))))
        if label is not None:
            out.write("== %s ==\n" % label)
        out.write("cs_index: %s\n" % _fmt(value, ring))
    return 0


def _report_document(args, text):
    start = time.perf_counter()
    expr = _parse(args, text)
    ring = expr.form.ring
    classification = analyze(expr.form, N=_order(args))
    canonical = {
        "tool": {"name": "pdfol", "version": __version__},
        "input": {"source": expr.source, "canonical": expr.canonical(),
                  "mode": expr.mode, "order": expr.order},
        "classification": classification.json(ring),
        "reduction": None,
        "singular_points": None,
        "normal_form": None,
        "holonomy": None,
    }
    if classification.m is not None:
        p, m = classification.p, classification.m
        path = blowup_chain(expr.form, p)
        canonical["reduction"] = {
            "labels": list(path.labels),
            "self_intersections": encode(list(path.self_intersections)),
            "blowups": p,
        }
        points = singular_points_on_divisor(path.steps[-1])
        canonical["singular_points"] = [
            report_at(recenter(path.final, pt.location),
                      pt.location).json(ring)
            for pt in points if not pt.corner]
        result = classification.normalization
        canonical["normal_form"] = {
            "m": result.m,
            "order": result.order,
            "epsilon": encode(result.epsilon, ring),
            "residual_valuation": ("inf"
                                   if result.residual_valuation == mpmath.inf
                                   else encode(result.residual_valuation)),
        }
        mu = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi) / m)
        lam = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi) / p)
        small, large, integer = sz_lambda(p, m)
        canonical["holonomy"] = {
            "mu": encode(mu),
            "lambda": encode(lam),
            "dichotomy": dichotomy(p, m),
            "sz_lambda": {"weight": encode(small), "ratio": encode(large),
                          "integer": integer},
        }
    return document(canonical, time.perf_counter() - start)


def _cmd_report(args, out):
    inputs = _inputs(args)
    docs = [_report_document(args, text) for _, text in inputs]
    if args.json:
        payload = docs[0] if len(docs) == 1 else docs
        out.write(render(payload) + "\n")
        return 0
    # imported here: hashlib loads OpenSSL, about 3.6 MB of resident
    # memory that the --json path never needs
    import hashlib
    for (label, _), doc in zip(inputs, docs):
        if label is not None:
            out.write("== %s ==\n" % label)
        canonical = doc["canonical"]
        out.write("input: %s\n" % canonical["input"]["canonical"])
        for key, value in canonical["classification"].items():
            out.write("%s: %s\n" % (key, value))
        for section in ("reduction", "normal_form", "holonomy"):
            if canonical[section] is not None:
                out.write("%s: %s\n" % (section, canonical[section]))
        out.write("canonical-sha256: %s\n"
                  % hashlib.sha256(canonical_bytes(doc)).hexdigest())
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "blowup": _cmd_blowup,
    "gpd": _cmd_gpd,
    "normal-form": _cmd_normal_form,
    "holonomy": _cmd_holonomy,
    "cs-index": _cmd_cs_index,
    "report": _cmd_report,
}


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except PdfolError as exc:
        code = ERROR_CODES.get(exc.exit_code, "internal")
        err.write("error[%s]: %s\n" % (code, exc))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
