"""Seeded inputs, op execution and answer checks for the three workloads.

An op is one input taken from its text to a checked answer.  Each
workload is a fixed *pass* of slots.  A slot fixes everything that sets
an op's cost (ring, resonance, truncation order, tail shape); the seed
draws what does not (the tail's coefficients, the holonomy's p and its
sample points), each slot from its own deck (see ``Dealer``).  Every run
measures whole passes, so two seeds measure the same mix of costs, and
the medians stay steady.

The program under test receives only the generated text and arguments.
Every input a seed can draw has a stored expected answer in
``expected.json`` (written by ``record.py``).
"""

import io
import json
import math
import random
from fractions import Fraction

from pdfol import analyze, parse_expr
from pdfol.cli import main as cli_main
from pdfol.errors import PdfolError
from pdfol.holonomy import (FormalDiffeo1, group_commutator, group_model,
                            is_identity, log_diffeo, numeric_holonomy,
                            pd_holonomy_model)

WORKLOADS = ("homological", "chain", "holonomy")

# Relative tolerance of a float-ring epsilon against the exact one.
FLOAT_RTOL = 1e-9
# Formal against numeric holonomy, as in the acceptance criterion.
HOLONOMY_ATOL = 1e-6
# Formal model at the op's order against the recorded model value.
MODEL_ATOL = 1e-12

# Unit tails U(x).  ``b`` marks the terms that carry the formal
# parameter in param mode; exact and float mode drop it (b = 1), so the
# three rings see the same form at b = 1.
TAILS = {
    "dicritical": ["1"],
    "linear": ["1+b*x", "1+2*b*x", "1-1/2*b*x", "1-3*b*x"],
    "two": ["1+b*x-2*x^2", "1-b*x+3/2*x^2", "1+2*b*x+1/3*x^2",
            "1-1/2*b*x-x^2"],
    "dense": ["1+b*x-2*x^2+1/3*b*x^3-3/2*x^4",
              "1-b*x+1/2*x^2+2*b*x^3-x^4",
              "1+2*b*x+x^2-1/2*b*x^3+1/3*x^4",
              "1-3*b*x-x^2+b*x^3+2/3*x^4"],
}
PD_SHAPES = ("linear", "two", "dense")

ALPHA = {  # gpd_condition(p, m), all rational
    (2, 6): Fraction(-5), (4, 5): Fraction(-13, 3), (3, 9): Fraction(-5),
    (9, 7): Fraction(-25, 6), (4, 12): Fraction(-5),
    (16, 9): Fraction(-41, 10), (2, 16): Fraction(-20, 3),
    (2, 30): Fraction(-17, 2),
}

# (mode, p, m, N, shape).  N runs from m+3 to m+6, and one op stays
# under 5 s at seed; param at (3, 9) is left out because it takes 17-23 s
# at its lowest order N = 12 there.  Most slots cost 0.8-1.3 s, so the
# median op sits among slots of nearly the same cost.
HOMOLOGICAL_PASS = (
    ("exact", 2, 6, 12, "linear"),
    ("exact", 2, 6, 11, "two"),
    ("exact", 2, 6, 10, "dense"),
    ("exact", 4, 5, 8, "dense"),
    ("exact", 4, 5, 11, "two"),
    ("exact", 3, 9, 12, "two"),
    ("exact", 3, 9, 15, "dicritical"),
    ("float", 2, 6, 9, "two"),
    ("float", 4, 5, 8, "linear"),
    ("float", 3, 9, 12, "linear"),
    ("float", 4, 5, 11, "dicritical"),
    ("param:b", 2, 6, 9, "dense"),
    ("param:b", 4, 5, 8, "two"),
    ("param:b", 4, 5, 8, "linear"),
    ("param:b", 2, 6, 11, "dicritical"),
)

CHAIN_RESONANCES = ((2, 6), (4, 5), (3, 9), (9, 7), (4, 12), (16, 9),
                    (2, 16), (2, 30))
MODES = ("exact", "float", "param:b")
# The two- and four-term tails take 0.9-1.5 s here at seed, more than a
# whole pass of the other chain ops together would spend on one slot.
CHAIN_LINEAR_ONLY = {(2, 30, "param:b")}

# Inputs that exit before any blow-up: (mode, template, what the answer
# must show).  ``{c}`` is a seeded nonzero rational, ``{s}`` a seeded
# alpha of the simple-pair subcase, ``{d}`` the decimal of an irrational
# resonant alpha.
EARLY_EXITS = (
    ("exact", "d(y^2+x^3) + {c}*x^2*dy", {"case": "cusp"}),
    ("param:b", "d(y^2+x^5) + {c}*x^3*(1+b*x)*dy", {"case": "cusp"}),
    ("exact", "d(y^2+x^6) + {c}*x^2*(1+x)*dy",
     {"case": "saddle-node-class"}),
    ("float", "d(y^2+x^8) + {c}*x^3*dy", {"case": "saddle-node-class"}),
    ("exact", "d(y^2+x^4) + {s}*x^2*(1+x)*dy", {"subcase": "simple_pair"}),
    ("exact", "d(y^2+x^{n}) + {pm4}*x^{p}*dy", {"subcase": "alpha_pm4"}),
    ("float", "d(y^2+x^{n}) + {d}*x^{p}*dy", {"raises": "MathError"}),
    ("exact", "d(y^2+x^4) + {c}*x^2*(1+x*dy", {"raises": "InputError"}),
    ("float", "d(y^2+x^4) + {c}*x^^2*dy", {"raises": "InputError"}),
)
EARLY_C = ("-5", "3", "7/2", "-1/3")
SIMPLE_ALPHA = ("3", "-6", "9/2", "-7")
IRRATIONAL = ((2, 2), (2, 3), (3, 2), (4, 3))  # p(m+p) not a square

# (m, N): one op costs 0.1-1.7 s at seed, spread evenly in log scale so
# that the median op sits among slots of nearly the same cost.
HOLONOMY_PASS = ((2, 24), (2, 26), (3, 30), (3, 36), (4, 32), (4, 40),
                 (5, 32), (5, 36), (5, 44), (6, 36), (6, 40), (6, 48),
                 (7, 36), (7, 44), (7, 48), (8, 40), (8, 48), (9, 36),
                 (9, 48), (10, 40), (10, 48), (11, 44), (11, 48), (12, 36),
                 (12, 48))
HOLONOMY_P = (2, 3, 4)
EARLY_ORDER = 24
SAMPLE_GRID = tuple(k / 1000 for k in range(1, 51))  # x0 in (0, 0.05]


# Seconds one pass takes at seed on a 2-core Intel Xeon VM, Python 3.11.
# A run of S seconds measures the fewest whole passes that fill S seconds
# there, so which ops it runs depends only on the seed and S, never on
# how fast the machine happens to be.
PASS_SECONDS = {"homological": 16.0, "chain": 2.5, "holonomy": 14.0}


def pass_count(workload, seconds, minimum):
    return max(minimum, math.ceil(seconds / PASS_SECONDS[workload] - 1e-9))


class Op:
    """One input: its workload, ring, arguments and expected-answer key."""

    __slots__ = ("workload", "ring", "args", "key")

    def __init__(self, workload, ring, args, key):
        self.workload = workload
        self.ring = ring
        self.args = args
        self.key = key


def ring_name(mode):
    return mode.split(":")[0]


def tail_text(template, mode):
    if mode.startswith("param"):
        return template
    return template.replace("b*", "")


def saddle_text(p, m, U):
    return "d(y^2+x^%d) + %s*x^%d*(%s)*dy" % (2 * p, ALPHA[(p, m)], p, U)


def text_key(mode, N, text):
    return "%s|%d|%s" % (mode, N, text)


def chain_order(p, m):
    return 2 * p + m + 8


# ------------------------------------------------------------- generation


class Dealer:
    """Seeded draws from one deck per slot and choice.  A deck deals each
    of its choices once, in seeded order, before it is shuffled again, so
    runs of the same number of passes draw nearly the same mix of inputs
    whatever their seed (the same mix, when that number is a multiple of
    the deck's size), and the seed mostly sets their order.  Independent
    draws made the cost of a run, and its count of known failures, depend
    on the seed."""

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def deal(self, key, choices):
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = self.rng.sample(choices, len(choices))
        return deck.pop()


def _homological_pass(dealer):
    ops = []
    for i, (mode, p, m, N, shape) in enumerate(HOMOLOGICAL_PASS):
        text = saddle_text(p, m, tail_text(dealer.deal(i, TAILS[shape]),
                                           mode))
        ops.append(Op("homological", ring_name(mode), (mode, N, text),
                      text_key(mode, N, text)))
    return ops


def chain_slots():
    """One chain pass: ("resonant", mode, p, m, N, shape) and
    ("early", mode, template, what) entries.  Every resonance gets every
    tail shape in every ring (but see CHAIN_LINEAR_ONLY), and every early
    exit comes twice, so the ops' costs fill 0.3 ms to 0.5 s densely."""
    slots = []
    for p, m in CHAIN_RESONANCES:
        for mode in MODES:
            shapes = PD_SHAPES
            if (p, m, mode) in CHAIN_LINEAR_ONLY:
                shapes = ("linear",)
            for shape in ("dicritical",) + shapes:
                slots.append(("resonant", mode, p, m, chain_order(p, m),
                              shape))
    for _ in range(2):
        for mode, template, what in EARLY_EXITS:
            slots.append(("early", mode, template, what))
    return slots


def early_texts(template):
    """Every text one early-exit template can produce."""
    out = []
    for c in EARLY_C:
        for s in SIMPLE_ALPHA:
            for pm4 in ("4", "-4"):
                for p, m in IRRATIONAL:
                    out.append(_fill(template, c, s, pm4, p, m))
    return sorted(set(out))


def _fill(template, c, s, pm4, p, m):
    alpha = -2 * (m + 2 * p) / math.sqrt(p * (m + p))
    return (template.replace("{c}", c).replace("{s}", s)
            .replace("{pm4}", pm4).replace("{n}", str(2 * p))
            .replace("{p}", str(p)).replace("{d}", "%.15f" % alpha))


def _chain_pass(dealer):
    ops = []
    for i, slot in enumerate(chain_slots()):
        if slot[0] == "resonant":
            _, mode, p, m, N, shape = slot
            text = saddle_text(p, m, tail_text(dealer.deal(i, TAILS[shape]),
                                               mode))
        else:
            _, mode, template, _ = slot
            N = EARLY_ORDER
            p, m = dealer.deal((i, "pm"), IRRATIONAL)
            text = _fill(template, dealer.deal((i, "c"), EARLY_C),
                         dealer.deal((i, "s"), SIMPLE_ALPHA),
                         dealer.deal((i, "pm4"), ("4", "-4")), p, m)
        ops.append(Op("chain", ring_name(mode), (mode, N, text),
                      text_key(mode, N, text)))
    return ops


def _holonomy_pass(dealer):
    ops = []
    for i, (m, N) in enumerate(HOLONOMY_PASS):
        p = dealer.deal(i, HOLONOMY_P)
        samples = tuple(sorted(dealer.rng.sample(range(len(SAMPLE_GRID)),
                                                 3)))
        ops.append(Op("holonomy", "float", (p, m, N, samples),
                      "%d|%d|%d" % (p, m, N)))
    return ops


_PASSES = {"homological": _homological_pass, "chain": _chain_pass,
           "holonomy": _holonomy_pass}


def passes(workload, seed):
    """Endless stream of passes; the same seed gives the same inputs."""
    dealer = Dealer(random.Random("%s:%d" % (workload, seed)))
    make = _PASSES[workload]
    while True:
        yield make(dealer)


# ------------------------------------------------------------- execution


def run_homological(mode, N, text):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(["report", "--json", "--mode", mode, "--order", str(N),
                     "--expr", text], out, err)
    if code != 0:
        return {"exit": code, "error": err.getvalue().strip()}
    doc = json.loads(out.getvalue())
    cls = doc["canonical"]["classification"]
    return {"exit": 0, "verdict": cls["verdict"], "m": cls["m"],
            "epsilon": cls["epsilon"]}


def run_chain(mode, N, text):
    try:
        rep = analyze(parse_expr(text, mode, N).form, method="chain", N=N)
    except PdfolError as exc:
        return {"raises": type(exc).__name__, "error": str(exc)}
    return {"case": rep.case, "subcase": rep.subcase, "verdict": rep.verdict,
            "m": rep.m}


def holonomy_text(m):
    return "x*dy - %d*y*dx - x^%d*dx" % (m, m)


def run_holonomy(p, m, N, samples):
    h = pd_holonomy_model(m, N)
    ring = h.ring
    tangent = FormalDiffeo1(ring.coerce(1),
                            h.tail.scale(ring.invert(h.multiplier)))
    Y = log_diffeo(tangent, N)
    gm = group_model(p, m, Y, N)
    identity = is_identity(group_commutator(gm.h1, gm.h2))
    xs = [SAMPLE_GRID[k] for k in samples]
    omega = parse_expr(holonomy_text(m), "float", N).form
    ends = numeric_holonomy(omega, 0, 1.0, xs)
    formal = [h.evaluate(x) for x in xs]
    return {"identity": identity,
            "formal": [[float(v.real), float(v.imag)] for v in formal],
            "numeric": [[float(v.real), float(v.imag)] for v in ends]}


RUNNERS = {"homological": run_homological, "chain": run_chain,
           "holonomy": run_holonomy}


def execute(op):
    """The op's outcome; an exception the program was not expected to
    raise becomes an ``unexpected`` outcome, never a crash of the run."""
    try:
        return RUNNERS[op.workload](*op.args)
    except Exception as exc:  # boundary: every op is checked and counted
        return {"unexpected": "%s: %s" % (type(exc).__name__, exc)}


# ------------------------------------------------------------- checking


def float_close(value, wanted, rtol):
    """A float-ring [re, im] against an exact "num/den"."""
    if not isinstance(value, list) or len(value) != 2:
        return False
    q = Fraction(wanted)
    scale = max(1.0, abs(float(q)))
    return (abs(value[0] - float(q)) <= rtol * scale
            and abs(value[1]) <= rtol * scale)


def check_homological(op, outcome, want):
    if outcome.get("exit") != 0:
        return False
    if outcome["verdict"] != want["verdict"] or outcome["m"] != want["m"]:
        return False
    if op.ring == "float":
        return float_close(outcome["epsilon"], want["epsilon"], FLOAT_RTOL)
    return outcome["epsilon"] == want["epsilon"]


def check_chain(op, outcome, want):
    if "raises" in want:
        return outcome.get("raises") == want["raises"]
    return all(outcome.get(k, "missing") == want[k]
               for k in ("case", "subcase", "verdict", "m"))


def check_holonomy(op, outcome, want, models):
    p, m, N, samples = op.args
    if "identity" not in outcome or outcome["identity"] != want["identity"]:
        return False
    model = models["%d|%d" % (m, N)]
    for k, formal, numeric in zip(samples, outcome["formal"],
                                  outcome["numeric"]):
        ref = model[k]
        if abs(complex(*formal) - complex(*ref)) > MODEL_ATOL:
            return False
        if abs(complex(*numeric) - complex(*formal)) > HOLONOMY_ATOL:
            return False
    return True


class Expected:
    """The stored answers, and the verdict of one outcome against them."""

    def __init__(self, data):
        self.answers = data["answers"]
        self.models = data.get("models", {})

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def known_failure(self, op):
        return self.answers[op.workload][op.key].get("known_failure")

    def ok(self, op, outcome):
        want = self.answers[op.workload][op.key]["answer"]
        if "unexpected" in outcome:
            return False
        if op.workload == "homological":
            return check_homological(op, outcome, want)
        if op.workload == "chain":
            return check_chain(op, outcome, want)
        return check_holonomy(op, outcome, want, self.models)

