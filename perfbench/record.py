"""Record the expected answer of every input a seed can draw.

    python3 perfbench/record.py

writes ``perfbench/expected.json``.  Each answer is checked by a second
route before it is stored:

* homological: epsilon != 0 exactly when the chain method's decisive
  entry is nonzero; float epsilon equals exact epsilon within
  ``FLOAT_RTOL``; param epsilon at b = 1 equals exact epsilon; U = 1 is
  dicritical;
* chain: the verdict agrees with the homological method wherever that
  is affordable (m <= 9); float and param agree with exact at b = 1;
  early exits show the case, subcase or error their template is for;
* holonomy: the commutator is the identity exactly when p | m, and the
  numeric holonomy is within 1e-6 of the formal model;
* the paper's values: epsilon = 5934060*b^6 for U = 1+b*x at (p, m) =
  (2, 6), and the normalized linear part [[1,0],[-20,1]] for U = 1+x^6.

The answer of each input is the mathematically right one, taken from the
exact ring (or from the exact ring one order higher when the op itself
breaks).  An op whose outcome at recording time differs from its answer
is stored with ``known_failure``, the error it gave; the benchmark counts
it as failed, and a later fix turns it into a pass.
"""

import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402
from pdfol import parse_expr, pd_vs_dicritical  # noqa: E402
from pdfol.blowup import (blowup_chain, blowup_chart1, recenter,  # noqa: E402
                          singular_points_on_divisor)
from pdfol.classify import gpd_condition, gpd_detect  # noqa: E402
from pdfol.forms import dual, linear_part, normalized_jordan  # noqa: E402

OUT = os.path.join(HERE, "expected.json")
CHAIN_HOMOLOGICAL_MAX_M = 9


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def is_pd(verdict):
    return verdict == "GeneralizedPD"


def require(condition, *context):
    """A recording check; it stops the recording, also under -O."""
    if not condition:
        raise SystemExit("record.py: check failed: %r" % (context,))


def failure_text(outcome):
    return outcome.get("unexpected") or outcome.get("error") \
        or json.dumps(outcome, sort_keys=True)


def entry(answer, outcome, ok, seconds):
    out = {"answer": answer, "seconds": round(seconds, 4)}
    if not ok:
        out["known_failure"] = failure_text(outcome)
    return out


# ------------------------------------------------------------ homological


def exact_reference(N, text):
    """The exact-ring answer of a report op; one order higher when the op
    itself raises at N."""
    outcome = W.execute(W.Op("homological", "exact", ("exact", N, text), ""))
    if outcome.get("exit") == 0:
        return outcome
    higher = W.run_homological("exact", N + 1, text)
    if higher.get("exit") != 0:
        raise SystemExit("no exact reference for %r at N = %d" % (text, N))
    if not is_pd(higher["verdict"]):
        higher["verdict"] = "Dicritical-to-order-%d" % N
    return higher


def local_form(p, m, text, mode):
    """The recentered form at z1 after p blow-ups, at the chain order."""
    omega = parse_expr(text, mode, W.chain_order(p, m)).form
    found = gpd_detect(p, gpd_condition(p, m)[0])
    return recenter(blowup_chain(omega, p).final,
                    omega.ring.from_rational(found.z1))


def chain_decisive_nonzero(p, m, text, mode):
    local = local_form(p, m, text, mode)
    res = pd_vs_dicritical(local, "chain", W.chain_order(p, m))
    return not local.ring.is_zero(res.decisive)


def param_at_one(eps):
    return sum(Fraction(c) for c in eps["coeffs"])


def record_homological():
    answers = {}
    for mode, p, m, N, shape in W.HOMOLOGICAL_PASS:
        for template in W.TAILS[shape]:
            text = W.saddle_text(p, m, W.tail_text(template, mode))
            exact_text = W.saddle_text(p, m, W.tail_text(template, "exact"))
            ref = exact_reference(N, exact_text)
            if shape == "dicritical":
                require(not is_pd(ref["verdict"]), text)
            nonzero = Fraction(ref["epsilon"]) != 0
            require(nonzero == is_pd(ref["verdict"]), text)
            require(nonzero == chain_decisive_nonzero(p, m, exact_text,
                                                      "exact"), text)
            op = W.Op("homological", W.ring_name(mode), (mode, N, text),
                      W.text_key(mode, N, text))
            outcome, seconds = timed(W.execute, op)
            if mode == "param:b":
                require(outcome.get("exit") == 0, text, outcome)
                require(param_at_one(outcome["epsilon"])
                        == Fraction(ref["epsilon"]), text)
                require(nonzero == chain_decisive_nonzero(p, m, text, mode),
                        text)
                answer = {k: outcome[k] for k in ("verdict", "m", "epsilon")}
            else:
                answer = {k: ref[k] for k in ("verdict", "m", "epsilon")}
            if mode == "float" and outcome.get("exit") == 0:
                require(W.float_close(outcome["epsilon"], ref["epsilon"],
                                      W.FLOAT_RTOL), text, outcome, ref)
            ok = "unexpected" not in outcome and \
                W.check_homological(op, outcome, answer)
            answers[op.key] = entry(answer, outcome, ok, seconds)
            log("homological", mode, N, text, "%.3fs" % seconds,
                "ok" if ok else "KNOWN FAILURE " + failure_text(outcome))
    return answers


# ------------------------------------------------------------------ chain


def chain_homological_verdict(p, m, text):
    local = local_form(p, m, text, "exact")
    return pd_vs_dicritical(local, "homological", m + 3).verdict


def record_chain():
    answers = {}
    for slot in W.chain_slots():
        if slot[0] == "resonant":
            _, mode, p, m, N, shape = slot
            items = [(mode, N, W.saddle_text(p, m, W.tail_text(t, mode)),
                      W.saddle_text(p, m, W.tail_text(t, "exact")), None)
                     for t in W.TAILS[shape]]
        else:
            _, mode, template, what = slot
            N = W.EARLY_ORDER
            items = [(mode, N, text, None, what)
                     for text in W.early_texts(template)]
        for mode, N, text, exact_text, what in items:
            op = W.Op("chain", W.ring_name(mode), (mode, N, text),
                      W.text_key(mode, N, text))
            if op.key in answers:  # each early exit comes twice a pass
                continue
            outcome, seconds = timed(W.execute, op)
            if what is not None:
                for key, value in what.items():
                    require(outcome.get(key) == value, text, outcome)
                answer = {k: outcome[k] for k in
                          (("raises",) if "raises" in what else
                           ("case", "subcase", "verdict", "m"))}
            else:
                ref = W.run_chain("exact", N, exact_text)
                require("raises" not in ref, exact_text, ref)
                if m <= CHAIN_HOMOLOGICAL_MAX_M:
                    require(is_pd(ref["verdict"]) == is_pd(
                        chain_homological_verdict(p, m, exact_text)), text)
                if shape == "dicritical":
                    require(not is_pd(ref["verdict"]), text)
                if mode == "param:b":
                    require(outcome == ref, text, outcome, ref)
                answer = ref
            ok = "unexpected" not in outcome and \
                W.check_chain(op, outcome, answer)
            answers[op.key] = entry(answer, outcome, ok, seconds)
            log("chain", mode, N, text, "%.4fs" % seconds,
                "ok" if ok else "KNOWN FAILURE " + failure_text(outcome))
    return answers


# --------------------------------------------------------------- holonomy


def record_holonomy():
    answers, models = {}, {}
    for m, N in W.HOLONOMY_PASS:
        h = W.pd_holonomy_model(m, N)
        values = [h.evaluate(x) for x in W.SAMPLE_GRID]
        models["%d|%d" % (m, N)] = [[float(v.real), float(v.imag)]
                                    for v in values]
        for p in W.HOLONOMY_P:
            op = W.Op("holonomy", "float", (p, m, N, (0, 24, 49)),
                      "%d|%d|%d" % (p, m, N))
            outcome, seconds = timed(W.execute, op)
            answer = {"identity": m % p == 0}
            ok = "unexpected" not in outcome and \
                W.check_holonomy(op, outcome, answer, models)
            answers[op.key] = entry(answer, outcome, ok, seconds)
            log("holonomy", p, m, N, "%.3fs" % seconds,
                "ok" if ok else "KNOWN FAILURE " + failure_text(outcome))
    return answers, models


# ------------------------------------------------------------ paper values


def check_paper_values():
    res = W.run_homological("param:b", 10, W.saddle_text(2, 6, "1+b*x"))
    require(res["epsilon"] == {"param": "b",
                               "coeffs": ["0/1"] * 6 + ["5934060/1"]}, res)
    omega = parse_expr(W.saddle_text(2, 6, "1+x^6"), "exact", 40).form
    ring = omega.ring
    current = recenter(blowup_chain(omega, 2).final, ring.from_rational(2))
    for _ in range(5):
        step = blowup_chart1(current)
        points = [pt for pt in singular_points_on_divisor(step)
                  if not pt.corner]
        current = recenter(step.form, points[0].location)
    jordan = normalized_jordan(linear_part(dual(current)), ring)
    require([[ring.json_value(c) for c in row] for row in jordan]
            == [["1/1", "0/1"], ["-20/1", "1/1"]], jordan)
    log("paper values: 5934060*b^6 and [[1,0],[-20,1]] hold")


def main():
    check_paper_values()
    holonomy, models = record_holonomy()
    chain = record_chain()
    homological = record_homological()
    data = {"answers": {"homological": homological, "chain": chain,
                        "holonomy": holonomy},
            "models": models}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")
    log("wrote", OUT)


if __name__ == "__main__":
    main()
