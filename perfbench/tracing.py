"""Layer tracing for the benchmark's traced run, done from outside pdfol.

``Tracer.install`` wraps the public functions of every pdfol module,
patching each binding in every module that imported it, and a fixed set
of class methods (series arithmetic, ring operations).  Each call counts
towards its name's calls, busy time (time with at least one call of that
name open) and self time (duration minus the part its wrapped children
cover).  Calls above the primitive layers are also kept as spans (name,
start, end, parent, op id) in memory; series and ring calls are only
counted, because an op makes up to millions of them.
"""

import functools
import importlib
import inspect
import sys
import time

MODULES = ("rings", "series", "forms", "blowup", "classify", "normal_form",
           "holonomy", "parser", "report", "cli")
RINGS = ("RationalExact", "ComplexApprox", "ParamPolyRing")
RING_METHODS = ("add", "sub", "mul", "neg", "is_zero", "eq", "invert", "div",
                "coerce")
METHODS = {
    ("series", "Series2"): ("__add__", "__mul__", "substitute",
                            "inverse_unit"),
    ("series", "Series1"): ("__add__", "__mul__", "compose", "reversion",
                            "inverse_unit"),
}
for _ring in RINGS:
    METHODS[("rings", _ring)] = RING_METHODS
SHORT = {"__add__": "add", "__mul__": "mul"}
COUNTED_ONLY = ("rings", "series")  # counted, not kept as spans
HOT_LAYERS = ("normal_form", "series", "rings")


# The per-layer metrics of a traced run, in report order.
PER_LAYER = [
    "normal_form.normalize.s", "normal_form.normalize.self_s",
    "normal_form.apply_fibered.calls", "normal_form.apply_fibered.s",
    "normal_form.invert_fiber.calls", "normal_form.invert_fiber.s",
    "normal_form.verify_conjugation.s", "normal_form.to_fibered_field.s",
    "series.Series2.mul.calls", "series.Series2.mul.s",
    "series.Series2.mul.term_pairs", "series.Series2.mul.kept_ratio",
    "series.Series2.substitute.calls", "series.Series2.substitute.s",
    "series.Series2.inverse_unit.calls", "series.Series2.inverse_unit.s",
    "series.max_support",
    "series.Series1.mul.calls", "series.Series1.mul.s",
    "series.Series1.compose.calls", "series.Series1.compose.s",
    "series.Series1.reversion.calls", "series.Series1.reversion.s",
]
for _ring in RINGS:
    PER_LAYER += ["rings.%s.mul.calls" % _ring, "rings.%s.add.calls" % _ring,
                  "rings.%s.is_zero.calls" % _ring, "rings.%s.s" % _ring]
PER_LAYER += [
    "blowup.blowup_chain.calls", "blowup.blowup_chain.s",
    "blowup.blowup_chart1.calls", "blowup.blowup_chart1.s",
    "blowup.recenter.s", "blowup.singular_points_on_divisor.s",
    "forms.linear_part.s", "forms.report_at.s",
    "holonomy.pd_holonomy_model.s", "holonomy.log_diffeo.s",
    "holonomy.exp_vf.calls", "holonomy.exp_vf.s", "holonomy.group_model.s",
    "holonomy.group_commutator.s", "holonomy.inverse.calls",
    "holonomy.inverse.s", "holonomy.numeric_holonomy.s",
    "parser.parse_expr.calls", "parser.parse_expr.s",
    "classify.analyze.s", "classify.analyze.self_s",
    "classify.pd_vs_dicritical.s", "cli.main.s",
]
PER_LAYER += ["%s.self_s" % _mod for _mod in MODULES]
PER_LAYER += ["trace.op_s", "trace.unaccounted_s", "trace.hot_share",
              "trace.overhead_ratio", "trace.ops"]

UNITS = {"series.Series2.mul.term_pairs": "pairs/op",
         "series.Series2.mul.kept_ratio": "ratio",
         "series.max_support": "count", "trace.hot_share": "ratio",
         "trace.overhead_ratio": "ratio", "trace.ops": "count"}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    return "calls/op" if name.endswith(".calls") else "s/op"


class Stat:
    __slots__ = ("calls", "busy", "self_s", "depth", "outer_start")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.outer_start = 0.0


class Tracer:
    """Counts, busy and self time per wrapped name, plus the span list."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.stack = []    # [stat, group stat or None, start, child, span]
        self.spans = []    # [name, start, end, parent span, op id]
        self.op = None
        self.ops = 0
        self.term_pairs = 0
        self.kept_pairs = 0
        self.max_support = 0
        self._patches = []

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    # -- frames

    def enter(self, name, group=None, spanned=True):
        now = self.clock()
        stat = self._stat(name)
        stat.calls += 1
        if stat.depth == 0:
            stat.outer_start = now
        stat.depth += 1
        gstat = None
        if group is not None:
            gstat = self._stat(group)
            if gstat.depth == 0:
                gstat.outer_start = now
            gstat.depth += 1
        span = None
        if spanned:
            parent = next((f[4] for f in reversed(self.stack)
                           if f[4] is not None), None)
            span = len(self.spans)
            self.spans.append([name, now, None, parent, self.op])
        self.stack.append([stat, gstat, now, 0.0, span])

    def exit(self):
        now = self.clock()
        stat, gstat, start, child, span = self.stack.pop()
        duration = now - start
        stat.self_s += duration - child
        stat.depth -= 1
        if stat.depth == 0:
            stat.busy += now - stat.outer_start
        if gstat is not None:
            gstat.depth -= 1
            if gstat.depth == 0:
                gstat.busy += now - gstat.outer_start
        if span is not None:
            self.spans[span][2] = now
        if self.stack:
            self.stack[-1][3] += duration

    def begin_op(self, op_id):
        """Open the root frame of one op; its self time is the time spent
        outside every wrapped function."""
        self.op = op_id
        self.enter("op")

    def end_op(self):
        self.exit()
        self.ops += 1
        self.op = None

    # -- wrapping

    def _wrap(self, fn, name, group=None, spanned=True, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name, group, spanned)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            finally:
                tracer.exit()
        return wrapper

    def install(self, extra_modules=()):
        """Wrap pdfol's public functions and the METHODS table.

        A module-level function is replaced wherever a pdfol module (or
        one of ``extra_modules``) binds it, e.g. ``pdfol.cli.analyze`` as
        well as ``pdfol.classify.analyze``."""
        importlib.import_module("pdfol")
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "pdfol" or n.startswith("pdfol.")]
        holders += list(extra_modules)
        for short in MODULES:
            module = sys.modules["pdfol." + short]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(fn, "%s.%s" % (short, attr),
                                     spanned=short not in COUNTED_ONLY)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn, True))
                            setattr(holder, key, wrapper)
        for (short, cls_name), names in METHODS.items():
            cls = getattr(sys.modules["pdfol." + short], cls_name)
            group = "%s.%s" % (short, cls_name) if short == "rings" else None
            for attr in names:
                name = "%s.%s.%s" % (short, cls_name, SHORT.get(attr, attr))
                hook = _series_hook(cls_name, attr) if short == "series" \
                    else None
                own = attr in vars(cls)
                self._patches.append((cls, attr, vars(cls).get(attr), own))
                setattr(cls, attr, self._wrap(getattr(cls, attr), name,
                                              group, False, hook))

    def uninstall(self):
        for holder, key, original, own in reversed(self._patches):
            if own:
                setattr(holder, key, original)
            else:
                delattr(holder, key)
        self._patches = []

    # -- results

    def value(self, name, ops):
        """One PER_LAYER metric; counts and times are per op."""
        ops = max(ops, 1)
        if name == "series.Series2.mul.term_pairs":
            return self.term_pairs / ops
        if name == "series.Series2.mul.kept_ratio":
            return self.kept_pairs / self.term_pairs if self.term_pairs \
                else 0.0
        if name == "series.max_support":
            return self.max_support
        if name == "trace.op_s":
            return self._stat("op").busy / ops
        if name == "trace.unaccounted_s":
            return self._stat("op").self_s / ops
        if name == "trace.hot_share":
            total = self._stat("op").busy
            hot = sum(self.layer_self(layer) for layer in HOT_LAYERS)
            return hot / total if total else 0.0
        if name == "trace.ops":
            return self.ops
        base, kind = name.rsplit(".", 1)
        if kind == "self_s" and base in MODULES:
            return self.layer_self(base) / ops
        stat = self.stats.get(base)
        if stat is None:
            return 0 if kind == "calls" else 0.0
        if kind == "calls":
            return stat.calls / ops
        if kind == "self_s":
            return stat.self_s / ops
        return stat.busy / ops

    def layer_self(self, layer):
        """Self time of every wrapped name in one module."""
        prefix = layer + "."
        return sum(s.self_s for n, s in self.stats.items()
                   if n.startswith(prefix))


def _series_hook(cls_name, attr):
    if cls_name == "Series2" and attr == "__mul__":
        return _mul2_hook
    return _support_hook


def _support_hook(tracer, args, result):
    size = len(getattr(result, "coeffs", ()))
    if size > tracer.max_support:
        tracer.max_support = size


def _degrees(series):
    hist = {}
    for i, j in series.coeffs:
        hist[i + j] = hist.get(i + j, 0) + 1
    return hist


def _mul2_hook(tracer, args, result):
    """Term pairs tried by a product, and how many land within its order."""
    a, b = args
    tracer.term_pairs += len(a.coeffs) * len(b.coeffs)
    order = min(a.order, b.order)
    hb = _degrees(b)
    tracer.kept_pairs += sum(na * nb for da, na in _degrees(a).items()
                             for db, nb in hb.items() if da + db <= order)
    _support_hook(tracer, args, result)
