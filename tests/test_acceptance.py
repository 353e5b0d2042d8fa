"""Acceptance gate: eleven end-to-end claims, each at its stated
tolerance and time budget.  Run with -v for one pass/fail line per
criterion; each test also prints its own PASS line with the elapsed
time (visible with -s or -rA)."""

import io
import json
import random
import time

import jsonschema
import mpmath

from pdfol.blowup import blowup_chain, blowup_chart1, blowup_chart2, \
    recenter, singular_points_on_divisor
from pdfol.classify import gpd_condition, gpd_detect, pd_vs_dicritical
from pdfol.cli import main
from pdfol.forms import cs_index, dual, linear_part, normalized_jordan
from pdfol.holonomy import (VectorField1, dichotomy, exp_vf, group_commutator,
                            group_model, is_identity, log_diffeo,
                            numeric_holonomy, pd_holonomy_model, sz_lambda,
                            FormalDiffeo1)
from pdfol.normal_form import FiberedField, normalize, verify_conjugation
from pdfol.parser import parse_expr, print_form
from pdfol.rings import ComplexApprox, ParamPolyRing, rational, rational_sqrt
from pdfol.series import Series1, Series2

from test_cli import CORPUS, REPORT_SCHEMA
from util import (QQ, apply_fibered, bound_bruteforce, commutes_with_scaling,
                  expected_final, fibered_model_form, matrix_eq, takens_form)

CC = ComplexApprox()


def rat(n, d=1):
    return rational(n, d)


def done(number, label, start, limit):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, "criterion %d took %.2fs, budget %.0fs" \
        % (number, elapsed, limit)
    print("PASS criterion %02d (%s): %.2fs < %.0fs"
          % (number, label, elapsed, limit))


def saddle_local(unit_tail=(1,), ring=QQ, order=40):
    """Blow up the 2p = n family twice and center at z1 = 2."""
    omega = takens_form(2, 4, -5, unit_tail=unit_tail, ring=ring, order=order)
    path = blowup_chain(omega, 2)
    return recenter(path.final, ring.from_rational(rat(2)))


def test_criterion_01_blowup_formula():
    start = time.perf_counter()
    pring = ParamPolyRing("b")
    cases = [
        (2, rat(-5), (rat(1),), QQ),
        (3, rat(4), (), QQ),
        (2, pring.coerce(-5), (pring.generator,), pring),
    ]
    for p, alpha, tail, ring in cases:
        omega = takens_form(p, 2 * p, alpha, unit_tail=tail, ring=ring,
                            order=40)
        final = blowup_chain(omega, p).final
        wanted = expected_final(p, alpha, tail, ring=ring, order=40)
        assert final.a == wanted.a and final.b == wanted.b, (p, ring.name)
    done(1, "blow-up formula reproduction", start, 1.0)


def test_criterion_02_decisive_coefficient():
    start = time.perf_counter()
    pring = ParamPolyRing("b")
    res = pd_vs_dicritical(saddle_local((pring.generator,), pring),
                           "chain", 16)
    wanted = pring.mul(pring.coerce(5934060), pring.generator ** 6)
    assert res.verdict == "GeneralizedPD"
    assert pring.eq(res.decisive, wanted)
    at_one = pd_vs_dicritical(saddle_local(), "chain", 16)
    assert at_one.decisive == rat(5934060)
    homological = pd_vs_dicritical(saddle_local(), "homological", 16)
    assert homological.epsilon == rat(5934060)
    done(2, "decisive coefficient 5934060*b^6", start, 30.0)


def test_criterion_03_normalized_jordan_matrix():
    start = time.perf_counter()
    # (p, m, a) = (2, 6, 1): U = 1 + x^6
    current = saddle_local(unit_tail=(0, 0, 0, 0, 0, 1))
    for _ in range(5):  # m - 1 more blow-ups
        step = blowup_chart1(current)
        points = [pt for pt in singular_points_on_divisor(step)
                  if not pt.corner]
        assert len(points) == 1
        current = recenter(step.form, points[0].location)
    jordan = normalized_jordan(linear_part(dual(current)), QQ)
    wanted = ((QQ.coerce(1), QQ.coerce(0)), (QQ.coerce(-20), QQ.coerce(1)))
    assert matrix_eq(jordan, wanted, QQ)
    done(3, "normalized linear part [[1,0],[-20,1]]", start, 30.0)


def test_criterion_04_gpd_arithmetic():
    start = time.perf_counter()
    found = gpd_detect(2, rat(-5))
    assert (found.m, found.z1, found.z2) == (6, rat(2), rat(1, 2))
    hits = 0
    for p in range(2, 41):
        for m in range(2, 41):
            if rational_sqrt(rat(p * (m + p))) is None:
                continue
            alpha, irrational = gpd_condition(p, m)
            assert not irrational
            detected = gpd_detect(p, alpha)
            assert detected is not None and detected.m == m, (p, m)
            assert detected.z1 * detected.z2 == 1
            assert detected.z1 + detected.z2 == -alpha / 2
            hits += 1
    assert hits >= 30
    done(4, "gpd_detect/gpd_condition mutually inverse to 40", start, 5.0)


def test_criterion_05_homological_machinery():
    start = time.perf_counter()
    for m in range(2, 21):
        assert bound_bruteforce(m, 500) == rat(m + 1, m * m), m
    for m in range(2, 21):
        for k in range(2, 61):
            for j in range(k + 1):
                i = k - j
                if i + m * (j - 1) == 0:
                    assert (i, j) == (m, 0)
    done(5, "bound (m+1)/m^2 and obstruction uniqueness", start, 5.0)


def test_criterion_06_normal_form_round_trip():
    start = time.perf_counter()
    N = 14
    rng = random.Random(61403)
    variables = ("x", "z")
    runs = 0
    while runs < 50:
        m = (2, 3, 6)[runs % 3]
        eps = rat(rng.randint(-9, 9), rng.randint(1, 5))
        model = Series2.monomial(QQ, variables, N, (m, 0), eps)
        phi = {}
        for _ in range(4):
            i, j = rng.randrange(N), rng.randrange(3)
            if 2 <= i + j <= N:
                phi[(i, j)] = rat(rng.randint(-3, 3), rng.randint(1, 3))
        bump = Series2(QQ, variables, N, phi)
        if bump.is_zero():
            continue
        moved = apply_fibered(m, model, bump, N)
        res = normalize(FiberedField(m, moved), N)
        assert res.epsilon == eps
        assert res.residual_valuation > N
        runs += 1
    # negative control: a transform outside the homological kernel
    X = FiberedField(2, Series2(QQ, variables, N, {(1, 2): 1, (2, 0): 3}))
    res = normalize(X, N)
    bad = res.transform + Series2(QQ, variables, N, {(0, 2): rat(1, 7)})
    assert verify_conjugation(X, bad, 2, res.epsilon, N) <= N
    done(6, "50 random normal-form round trips at N=14", start, 60.0)


def test_criterion_07_dicritical_consistency():
    start = time.perf_counter()
    cases = [
        ((), "Dicritical-to-order-18"),                 # U = 1
        ((0, 0, 0, 0, 0, 1), "GeneralizedPD"),          # U = 1 + x^6
        ((1,), "GeneralizedPD"),                        # U = 1 + x
    ]
    for tail, wanted in cases:
        local = saddle_local(unit_tail=tail)
        verdicts = {method: pd_vs_dicritical(local, method, 18).verdict
                    for method in ("homological", "chain")}
        assert verdicts["homological"] == verdicts["chain"] == wanted, tail
    done(7, "homological and chain methods agree", start, 60.0)


def test_criterion_08_camacho_sad_conservation():
    start = time.perf_counter()
    omega = takens_form(2, 4, rat(-5), unit_tail=(rat(1),))
    path = blowup_chain(omega, 2)
    corner = blowup_chart2(path.steps[0].form).form.swapped()
    indices = (cs_index(dual(recenter(path.final, rat(2)))),
               cs_index(dual(recenter(path.final, rat(1, 2)))),
               cs_index(dual(corner)))
    assert indices == (rat(1, 6), rat(-2, 3), rat(-1, 2))
    assert sum(indices) == -1 == path.self_intersections[-1]
    done(8, "cs indices (1/6, -2/3, -1/2) sum to -1 on D2", start, 5.0)


def test_criterion_09_holonomy_dual_oracle():
    start = time.perf_counter()
    for m in (2, 3):
        formal = pd_holonomy_model(m, 14)
        omega = fibered_model_form(m, 1, order=20)
        for x0 in (0.02, 0.05):
            end, = numeric_holonomy(omega, 0, 1.0, [x0])
            assert abs(end - formal.evaluate(x0)) < 1e-6, (m, x0)
    N = 10
    flow = exp_vf(VectorField1(Series1(QQ, "x", N, {2: 1})), N)
    assert flow.series() == Series1(QQ, "x", N,
                                    {k: 1 for k in range(1, N + 1)})
    done(9, "formal vs numeric holonomy to 1e-6", start, 60.0)


def test_criterion_10_group_theory_suite():
    start = time.perf_counter()
    h = pd_holonomy_model(6, 12)
    tangent = FormalDiffeo1(CC.coerce(1),
                            h.tail.scale(CC.invert(h.multiplier)))
    for k in range(1, 7):
        root = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi) * k / 6)
        assert commutes_with_scaling(tangent, root)  # tol 1e-9 inside
    assert not commutes_with_scaling(tangent, 2)
    table = {(2, 6): ("Abelian", rat(4)), (3, 2): ("NonSolvable", None),
             (4, 12): ("Abelian", rat(4))}
    for (p, m), (kind, lam) in table.items():
        assert dichotomy(p, m) == kind
        small, large, integer = sz_lambda(p, m)
        assert integer == (kind == "Abelian")
        if lam is not None:
            assert large == lam
    for p, m in ((2, 6), (4, 12)):
        Y = log_diffeo(FormalDiffeo1(
            CC.coerce(1),
            pd_holonomy_model(m, 12).tail.scale(
                CC.invert(pd_holonomy_model(m, 12).multiplier))), 12)
        gm = group_model(p, m, Y, 12)
        assert abs(mpmath.mpc(gm.lam) ** m - 1) <= 1e-9
        assert is_identity(group_commutator(gm.h1, gm.h2))
    done(10, "scaling commutant, dichotomy table, commutator", start, 10.0)


def test_criterion_11_parser_and_report():
    start = time.perf_counter()
    assert len(CORPUS) >= 30
    for text in CORPUS:
        first = parse_expr(text)
        printed = print_form(first.form)
        assert parse_expr(printed) == first
        assert print_form(parse_expr(printed).form) == printed
    out, err = io.StringIO(), io.StringIO()
    code = main(["report", "--json", "--expr", "d(y^2+x^3) + 4*x^2*dy"],
                out, err)
    assert code == 0
    jsonschema.validate(json.loads(out.getvalue()), REPORT_SCHEMA)
    checks = [
        (["classify", "--expr", "dx + ("], 2),
        (["classify", "--expr", "x*dx + y*dy"], 3),
        (["normal-form", "--expr", "d(y^2+x^4) + -5*x^2*(1+x)*dy",
          "--order", "4"], 4),
    ]
    for argv, wanted in checks:
        assert main(argv, io.StringIO(), io.StringIO()) == wanted, argv
    done(11, "parser round trip, report schema, exit codes", start, 5.0)
