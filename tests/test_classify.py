"""Case split, resonance detection and the dicritical dichotomy."""

import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfol.blowup import blowup_chain, recenter
from pdfol.classify import (CASE_CUSP, CASE_SADDLE, CASE_SADDLE_NODE,
                            SUBCASE_PM4, SUBCASE_RESONANT, SUBCASE_SIMPLE,
                            VERDICT_GPD, analyze, default_order,
                            gpd_condition, gpd_detect, parse_prenormal,
                            pd_vs_dicritical, saddle_subcase, takens_case,
                            verdict_dicritical)
from pdfol.errors import InputError, MathError
from pdfol.forms import OneForm2, SingKind, classify_singularity, dual, linear_part
from pdfol.parser import parse_expr
from pdfol.rings import ComplexApprox, ParamPolyRing, rational, rational_sqrt
from pdfol.series import Series2

from util import QQ, RATIONALS, poly, saddle_subcase_by_tol, takens_form

CC = ComplexApprox()
PB = ParamPolyRing("b")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def rat(n, d=1):
    return rational(n, d)


# ---------------------------------------------------------------- prenormal


def test_parse_prenormal_with_unit_tail():
    omega = takens_form(2, 4, -5, unit_tail=(1,), order=20)
    data = parse_prenormal(omega)
    assert (data.n, data.p) == (4, 2)
    assert data.alpha == rat(-5)
    assert data.U.coefficient(0) == 1
    assert data.U.coefficient(1) == 1
    assert all(data.U.coefficient(k) == 0 for k in range(2, 10))


def test_parse_prenormal_constant_unit():
    omega = takens_form(3, 6, -5, order=20)
    data = parse_prenormal(omega)
    assert (data.n, data.p) == (6, 3)
    assert data.alpha == rat(-5)
    assert data.U.coefficient(0) == 1
    assert all(data.U.coefficient(k) == 0 for k in range(1, 10))


def test_parse_prenormal_rescales_dy_linear_term():
    omega = takens_form(2, 4, -5, unit_tail=(1,), order=20)
    scaled = omega.scale(QQ.coerce(rat(-7, 3)))
    data = parse_prenormal(scaled)
    assert (data.n, data.p, data.alpha) == (4, 2, rat(-5))


def test_parse_prenormal_rejects_linear_form():
    omega = OneForm2(poly(8, {(0, 1): 1}), poly(8, {(1, 0): 1}))
    with pytest.raises(MathError):
        parse_prenormal(omega)


def test_parse_prenormal_rejects_cross_terms():
    omega = takens_form(2, 4, -5, order=12)
    bad_b = omega.b + poly(12, {(1, 1): 1})
    with pytest.raises(MathError):
        parse_prenormal(OneForm2(omega.a, bad_b))
    bad_a = omega.a + poly(12, {(0, 2): 1})
    with pytest.raises(MathError):
        parse_prenormal(OneForm2(bad_a, omega.b))


def test_parse_prenormal_rejects_small_p():
    omega = OneForm2(poly(12, {(3, 0): 4}),
                     poly(12, {(0, 1): 2, (1, 0): -5}))
    with pytest.raises(MathError):
        parse_prenormal(omega)


def test_parse_prenormal_rejects_missing_perturbation():
    omega = OneForm2(poly(12, {(3, 0): 4}), poly(12, {(0, 1): 2}))
    with pytest.raises(MathError):
        parse_prenormal(omega)


# --------------------------------------------------------------- case split


def test_analyze_keeps_p_out_of_the_json():
    rep = analyze(parse_expr("d(y^2+x^4) + -5*x^2*(1+x)*dy").form)
    assert rep.p == 2 and rep.m == 6
    assert "p" not in rep.json(QQ)


def test_takens_case_split():
    assert takens_case(parse_prenormal(takens_form(2, 3, 1))) == CASE_CUSP
    assert takens_case(parse_prenormal(takens_form(2, 4, -5))) == CASE_SADDLE
    assert (takens_case(parse_prenormal(takens_form(2, 7, 1)))
            == CASE_SADDLE_NODE)


def test_saddle_subcase_exact():
    """An alpha with a rational value splits exactly, in Q and as a
    constant of Q[b]."""
    for ring in (QQ, PB):
        for value, want in ((4, SUBCASE_PM4), (-4, SUBCASE_PM4),
                            (-5, SUBCASE_RESONANT), (5, SUBCASE_RESONANT),
                            (-6, SUBCASE_SIMPLE), (-3, SUBCASE_SIMPLE)):
            assert saddle_subcase(ring.coerce(rat(value)), ring) == want


def test_saddle_subcase_numeric():
    assert saddle_subcase(mpmath.mpf(-5.0), CC) == SUBCASE_RESONANT
    assert saddle_subcase(mpmath.mpf(4.0), CC) == SUBCASE_PM4
    assert saddle_subcase(mpmath.mpf(2.5), CC) == SUBCASE_SIMPLE
    # -3*sqrt(2) is irrational yet resonant: sqrt(alpha^2-16)/alpha = -1/3
    assert saddle_subcase(-3 * mpmath.sqrt(2), CC) == SUBCASE_RESONANT
    # the tolerance is the ring's: 4 + 1e-7 is +-4 only within 1e-6
    assert saddle_subcase(4 + 1e-7, CC) == SUBCASE_SIMPLE
    assert saddle_subcase(4 + 1e-7, ComplexApprox(tol=1e-6)) == SUBCASE_PM4


# rational alphas, and the resonant ones 2(u + 1/u), for which
# alpha^2 - 16 = 4(u - 1/u)^2 is a square
RESONANT_Q = st.builds(lambda u, s: s * 2 * (u + 1 / u),
                       RATIONALS.filter(lambda u: u not in (0, 1, -1)),
                       st.sampled_from((1, -1)))
# sqrt(alpha^2-16)/alpha = r for alpha = +-4/sqrt(1 - r^2): resonant when
# r is rational, irrational when 1 - r^2 is no square (r = 1/3: 3*sqrt(2))
NEAR_RESONANT = st.builds(
    lambda k, n, s, rel: s * 4 / mpmath.sqrt(1 - mpmath.mpf(k) ** 2 / n ** 2)
    * (1 + rel), st.integers(1, 30), st.integers(31, 60),
    st.sampled_from((1, -1)),
    st.sampled_from((0.0, 1e-14, -1e-12, 1e-10, -1e-9, 1e-8, 1e-6)))
NEAR_PM4 = st.builds(lambda s, d: s + d, st.sampled_from((4.0, -4.0)),
                     st.floats(-1e-8, 1e-8))


@PROPERTY
@given(st.one_of(RATIONALS, RESONANT_Q, st.sampled_from((rat(4), rat(-4)))))
def test_saddle_subcase_agrees_with_tolerance_version_on_rationals(q):
    want = saddle_subcase_by_tol(q)
    assert saddle_subcase(q, QQ) == want
    assert saddle_subcase(PB.coerce(q), PB) == want


@PROPERTY
@given(st.one_of(NEAR_PM4, NEAR_RESONANT,
                 st.builds(complex, st.floats(-50, 50), st.floats(-1, 1))
                 .filter(bool),  # the shape has alpha != 0
                 st.builds(lambda a, i: complex(a) + 1j * i, NEAR_RESONANT,
                           st.sampled_from((1e-12, -1e-10, 1e-8)))),
       st.sampled_from((1e-9, 1e-6, 1e-12)))
def test_saddle_subcase_agrees_with_tolerance_version_on_numbers(alpha, tol):
    assert saddle_subcase(alpha, ComplexApprox(tol=tol)) == (
        saddle_subcase_by_tol(alpha, tol))


def test_saddle_subcase_parameter():
    """In Q[b] a constant alpha splits as its rational value; an alpha
    that depends on b is refused before the split, as it is no unit."""
    rep = analyze(parse_expr("d(y^2+x^4)-5*x^2*(1+b*x)*dy", "param:b",
                             18).form)
    assert (rep.subcase, rep.m) == (SUBCASE_RESONANT, 6)
    with pytest.raises(MathError):
        analyze(parse_expr("d(y^2+x^4)+b*x^2*dy", "param:b", 18).form)


# ---------------------------------------------------------- alpha condition


def test_gpd_condition_exact_values():
    value, irrational = gpd_condition(2, 6)
    assert not irrational and value == rat(-5)
    value, irrational = gpd_condition(4, 12)
    assert not irrational and value == rat(-5)


def test_gpd_condition_irrational():
    value, irrational = gpd_condition(2, 2)
    assert irrational
    assert abs(value - mpmath.mpf("-4.2426407")) < 1e-6


def test_gpd_condition_validates_input():
    with pytest.raises(InputError):
        gpd_condition(1, 6)
    with pytest.raises(InputError):
        gpd_condition(2, 1)


def test_gpd_detect_worked_saddle():
    res = gpd_detect(2, rat(-5))
    assert res is not None
    assert (res.m, res.z1, res.z2) == (6, rat(2), rat(1, 2))
    res = gpd_detect(4, rat(-5))
    assert (res.m, res.z1, res.z2) == (12, rat(2), rat(1, 2))


def test_gpd_detect_mirrored_sign():
    res = gpd_detect(2, rat(5))
    assert (res.m, res.z1, res.z2) == (6, rat(-2), rat(-1, 2))


def test_gpd_detect_other_p():
    # the same alpha resonates at a different m for p = 3
    res = gpd_detect(3, rat(-5))
    assert (res.m, res.z1, res.z2) == (9, rat(2), rat(1, 2))
    assert gpd_condition(3, 9) == (rat(-5), False)


def test_gpd_detect_rejections():
    assert gpd_detect(2, rat(-4)) is None       # double root
    assert gpd_detect(2, rat(-6)) is None       # irrational roots
    assert gpd_detect(2, rat(-3)) is None       # complex roots
    assert gpd_detect(2, rat(-13, 3)) is None   # roots 3/2, 2/3: m = 5/2
    with pytest.raises(MathError):
        gpd_detect(2, mpmath.mpf(-5.0))


def test_gpd_round_trip_scan():
    """gpd_detect inverts gpd_condition wherever p(m+p) is a square."""
    hits = 0
    for p in range(2, 41):
        for m in range(2, 41):
            if rational_sqrt(rat(p * (m + p))) is None:
                continue
            value, irrational = gpd_condition(p, m)
            assert not irrational
            res = gpd_detect(p, value)
            assert res is not None and res.m == m
            assert res.z1 * res.z2 == 1
            assert res.z1 + res.z2 == -value / 2
            hits += 1
    assert hits >= 30


def test_resonant_partner_is_resonant():
    """The other singular point of the balanced case has a negative
    rational eigenvalue ratio."""
    omega = takens_form(2, 4, -5, unit_tail=(1,), order=40)
    res = gpd_detect(2, rat(-5))
    path = blowup_chain(omega, 2)
    partner = recenter(path.final, QQ.from_rational(res.z2))
    t = classify_singularity(linear_part(dual(partner)), QQ)
    assert t.kind is SingKind.RESONANT
    assert t.ratio in (rat(-3, 2), rat(-2, 3))


# ----------------------------------------------------------- the dichotomy


def saddle_local(unit_tail=(1,), ring=QQ, order=40):
    omega = takens_form(2, 4, -5, unit_tail=unit_tail, ring=ring, order=order)
    path = blowup_chain(omega, 2)
    return recenter(path.final, ring.from_rational(rat(2)))


def test_chain_decisive_coefficient():
    res = pd_vs_dicritical(saddle_local(), "chain", 16)
    assert res.verdict == VERDICT_GPD
    assert res.m == 6
    assert res.decisive == rat(5934060)


def test_chain_decisive_parametric():
    ring = ParamPolyRing("b")
    res = pd_vs_dicritical(saddle_local((ring.generator,), ring),
                           "chain", 16)
    assert res.verdict == VERDICT_GPD
    expected = ring.mul(ring.coerce(5934060), ring.generator ** 6)
    assert ring.eq(res.decisive, expected)


def test_homological_epsilon_matches_chain_decisive():
    local = saddle_local()
    res = pd_vs_dicritical(local, "homological", 16)
    chain = pd_vs_dicritical(local, "chain", 16)
    assert res.verdict == chain.verdict == VERDICT_GPD
    assert res.epsilon == chain.decisive == rat(5934060)


def test_dicritical_family():
    local = saddle_local(unit_tail=())
    for method in ("homological", "chain"):
        res = pd_vs_dicritical(local, method, 14)
        assert res.verdict == verdict_dicritical(14)
        value = res.epsilon if method == "homological" else res.decisive
        assert QQ.is_zero(value)


def test_chain_matrix_for_order_m_tail():
    # U = 1 + x^6 at (p, m) = (2, 6): off-diagonal p*alpha*z1*a = -20
    # against unit diagonal 2*z2 = 1
    local = saddle_local(unit_tail=(0, 0, 0, 0, 0, 1))
    res = pd_vs_dicritical(local, "chain", 16)
    assert res.verdict == VERDICT_GPD
    assert res.decisive == rat(-20)


def test_methods_agree_on_random_tails():
    rng = random.Random(40417)
    for _ in range(4):
        tail = tuple(rat(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4)))
        local = saddle_local(unit_tail=tail)
        ver_h = pd_vs_dicritical(local, "homological", 12)
        ver_c = pd_vs_dicritical(local, "chain", 12)
        assert ver_h.verdict == ver_c.verdict


def test_dichotomy_requires_pd_candidate():
    omega = takens_form(2, 4, -5, unit_tail=(1,), order=40)
    with pytest.raises(MathError):
        pd_vs_dicritical(omega, "homological", 12)


def test_dichotomy_rejects_unknown_method():
    with pytest.raises(InputError):
        pd_vs_dicritical(saddle_local(), "fancy", 12)


# ------------------------------------------------------------- orchestrator


def test_analyze_resonant_saddle():
    omega = takens_form(2, 4, -5, unit_tail=(1,), order=40)
    rep = analyze(omega)
    assert rep.case == CASE_SADDLE
    assert rep.subcase == SUBCASE_RESONANT
    assert (rep.z1, rep.z2, rep.m) == (rat(2), rat(1, 2), 6)
    assert rep.gpd_alpha_check
    assert rep.verdict == VERDICT_GPD
    assert rep.epsilon == rat(5934060)


def test_analyze_dicritical_default_order():
    omega = takens_form(2, 4, -5, order=40)
    rep = analyze(omega)
    assert rep.verdict == verdict_dicritical(default_order(2, 6))
    assert rep.verdict == "Dicritical-to-order-18"


def test_analyze_chain_method():
    ring = ParamPolyRing("b")
    omega = takens_form(2, 4, -5, unit_tail=(ring.generator,), ring=ring,
                        order=40)
    rep = analyze(omega, method="chain")
    assert rep.verdict == VERDICT_GPD
    assert (rep.m, rep.z1, rep.z2) == (6, rat(2), rat(1, 2))


def test_analyze_not_applicable_branches():
    rep = analyze(takens_form(2, 3, 1, order=20))
    assert rep.case == CASE_CUSP and rep.verdict == "NotApplicable"
    assert rep.m is None and rep.z1 is None
    rep = analyze(takens_form(2, 7, 1, order=20))
    assert rep.case == CASE_SADDLE_NODE and rep.verdict == "NotApplicable"
    rep = analyze(takens_form(2, 4, 4, order=20))
    assert rep.subcase == SUBCASE_PM4 and rep.verdict == "NotApplicable"
    rep = analyze(takens_form(2, 4, -6, order=20))
    assert rep.subcase == SUBCASE_SIMPLE and rep.verdict == "NotApplicable"
    assert rep.m is None


def test_analyze_float_mode():
    ring = ComplexApprox()
    omega = takens_form(2, 4, -5, unit_tail=(1,), ring=ring, order=40)
    rep = analyze(omega)
    assert rep.case == CASE_SADDLE
    assert rep.subcase == SUBCASE_RESONANT
    assert (rep.m, rep.z1, rep.z2) == (6, rat(2), rat(1, 2))
    assert rep.verdict == VERDICT_GPD
    assert abs(rep.epsilon - 5934060) < 1e-2 * 5934060


def test_chain_float_agrees_with_exact():
    """Float subtraction keeps every mantissa bit, so the float chain
    reaches the exact verdict; when negation rounded to 53 bits this
    input raised "blow-up requested at a nonsingular origin"."""
    text = "d(y^2+x^6) + -5*x^3*(1-3*x)*dy"
    exact, approx = (analyze(parse_expr(text, mode, 23).form, method="chain",
                             N=23) for mode in ("exact", "float"))
    assert (exact.verdict, exact.m) == (VERDICT_GPD, 9)
    assert (approx.case, approx.subcase) == (exact.case, exact.subcase)
    assert (approx.verdict, approx.m) == (exact.verdict, exact.m)


def test_analyze_report_json():
    omega = takens_form(2, 4, -5, unit_tail=(1,), order=40)
    doc = analyze(omega).json(QQ)
    assert doc["case"] == "saddle"
    assert doc["subcase"] == "resonant_pair"
    assert doc["z1"] == "2/1" and doc["z2"] == "1/2"
    assert doc["m"] == 6
    assert doc["gpd_alpha_check"] is True
    assert doc["epsilon"] == "5934060/1"
    assert doc["verdict"] == "GeneralizedPD"
