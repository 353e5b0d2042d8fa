import random

import pytest

from pdfol import blowup
from pdfol.blowup import (BlowupResult, blowup_chain, blowup_chart1,
                          blowup_chart2, macro_chart1, recenter,
                          roots_series1, singular_at_origin,
                          singular_points_on_divisor)
from pdfol.errors import MathError, PrecisionError
from pdfol.forms import OneForm2, cs_index, dual
from pdfol.rings import ComplexApprox, ParamPolyRing, RationalExact, rational
from pdfol.series import Series1, Series2
from util import expected_final, poly, takens_form

QQ = RationalExact()


def test_radial_form_is_dicritical_in_both_charts():
    omega = OneForm2(poly(4, {(0, 1): -1}), poly(4, {(1, 0): 1}))
    r1 = blowup_chart1(omega)
    assert r1.dicritical and r1.nu == 1 and r1.k_divided == 2
    assert r1.form.a.is_zero()
    assert r1.form.b == Series2(QQ, ("x", "z"), r1.form.b.order, {(0, 0): 1})
    r2 = blowup_chart2(omega)
    assert r2.dicritical and r2.k_divided == 2
    assert r2.form.b.is_zero()


@pytest.mark.parametrize("chart", [blowup_chart1, blowup_chart2])
def test_singular_points_refuse_a_dicritical_divisor(chart):
    """A dicritical component ends the reduction, so its points are not
    read: both charts of y dx - x dy raise, naming the chart."""
    res = chart(OneForm2(poly(4, {(0, 1): 1}), poly(4, {(1, 0): -1})))
    assert res.dicritical
    with pytest.raises(MathError, match=res.chart):
        singular_points_on_divisor(res)


def test_invariant_divisor_when_not_dicritical():
    omega = takens_form(1, 3, rational(0))
    r1 = blowup_chart1(omega)
    assert not r1.dicritical
    assert r1.form.divisor_invariant()
    assert r1.k_divided == r1.nu == 1


def test_cusp_first_blowup_values():
    # d(y^2 + x^3): pull-back divided by x is (3x + 2z^2) dx + 2xz dz
    omega = OneForm2(poly(6, {(2, 0): 3}), poly(6, {(0, 1): 2}))
    r = blowup_chart1(omega)
    assert r.form.a == Series2(QQ, ("x", "z"), r.form.a.order,
                               {(1, 0): 3, (0, 2): 2})
    assert r.form.b == Series2(QQ, ("x", "z"), r.form.b.order, {(1, 1): 2})
    rest = r.form.a.restrict_first_zero()
    assert len(rest.coeffs) == 1 and rest.valuation() == 2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_chain_on_saddle_family_matches_closed_form(p):
    omega = takens_form(p, 2 * p, rational(-5), unit_tail=(rational(1),))
    path = blowup_chain(omega, p)
    want = expected_final(p, rational(-5), (rational(1),))
    assert path.final.a == want.a
    assert path.final.b == want.b
    assert path.total_divided == 2 * p - 1
    assert path.self_intersections == [-2] * (p - 1) + [-1]
    assert all(not s.dicritical for s in path.steps)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_chain_makes_one_chart_blowup_per_step(p, monkeypatch):
    chart1 = blowup._chart1
    calls = []

    def counted(*args):
        calls.append(args[2])  # the chart label
        return chart1(*args)

    monkeypatch.setattr(blowup, "_chart1", counted)
    blowup_chain(takens_form(p, 2 * p, rational(-5)), p)
    assert calls == ["chart1"] * p


def test_chain_parametric_unit():
    ring = ParamPolyRing("b")
    omega = takens_form(2, 4, rational(-5), unit_tail=(ring.generator,),
                        ring=ring)
    path = blowup_chain(omega, 2)
    want = expected_final(2, rational(-5), (ring.generator,), ring=ring)
    assert path.final.a == want.a
    assert path.final.b == want.b


def test_macro_agrees_with_chain():
    omega = takens_form(3, 6, rational(-7), unit_tail=(rational(2), rational(-1)))
    path = blowup_chain(omega, 3)
    macro, k = macro_chart1(omega, 3)
    assert k == path.total_divided
    assert macro.a == path.final.a and macro.b == path.final.b


def test_chain_rejects_wandering_singularities():
    # a node: after one blow-up every divisor point carries data spread
    # over two roots, so the two-step chain must refuse
    omega = OneForm2(poly(6, {(1, 0): 1, (0, 1): 3}), poly(6, {(0, 1): 1}))
    with pytest.raises(MathError):
        blowup_chain(omega, 2)


def test_chain_rejects_dicritical_step():
    omega = OneForm2(poly(4, {(0, 1): -1}), poly(4, {(1, 0): 1}))
    with pytest.raises(MathError):
        blowup_chain(omega, 2)


def laurent_from(series):
    """Series2 polynomial -> {(i, j): Fraction-like} with j allowed < 0."""
    return dict(series.coeffs)


def laurent_mul(u, v):
    out = {}
    for (i, j), c in u.items():
        for (k, l), d in v.items():
            key = (i + k, j + l)
            out[key] = out.get(key, rational(0)) + c * d
    return {k: c for k, c in out.items() if c != 0}


def laurent_transition(series):
    """Evaluate a polynomial in (w, y) at w = 1/z, y = xz; output in (x, z)
    with Laurent exponents in z."""
    out = {}
    for (i, j), c in series.coeffs.items():
        key = (j, j - i)
        out[key] = out.get(key, rational(0)) + c
    return {k: c for k, c in out.items() if c != 0}


def undivided(result: BlowupResult):
    k = result.k_divided
    delta = (k, 0) if result.divisor_index == 0 else (0, k)
    shift = lambda s: {(i + delta[0], j + delta[1]): c
                       for (i, j), c in s.coeffs.items()}
    return shift(result.form.a), shift(result.form.b)


def test_charts_agree_on_overlap():
    # chart 2 pulled to chart 1 through w = 1/z, y = xz must reproduce the
    # chart-1 pull-back: dw = -z^-2 dz and dy = z dx + x dz give
    # dx-coeff = z*B and dz-coeff = -z^-2 A + x*B.
    rng = random.Random(8201)
    for _ in range(6):
        coeffs_a, coeffs_b = {}, {}
        for _ in range(5):
            i, j = rng.randrange(4), rng.randrange(4)
            coeffs_a[(i, j)] = rational(rng.randrange(-6, 7))
            i, j = rng.randrange(4), rng.randrange(4)
            coeffs_b[(i, j)] = rational(rng.randrange(-6, 7))
        coeffs_a.pop((0, 0), None)
        coeffs_b.pop((0, 0), None)
        if not any(coeffs_a.values()) and not any(coeffs_b.values()):
            continue
        try:
            omega = OneForm2(poly(8, coeffs_a), poly(8, coeffs_b))
        except MathError:
            continue
        r1 = blowup_chart1(omega)
        r2 = blowup_chart2(omega)
        a1, b1 = undivided(r1)
        A = laurent_transition(Series2(QQ, ("w", "y"), 99, undivided(r2)[0]))
        B = laurent_transition(Series2(QQ, ("w", "y"), 99, undivided(r2)[1]))
        zB = laurent_mul({(0, 1): rational(1)}, B)
        assert zB == dict(a1)
        dz = laurent_mul({(0, -2): rational(-1)}, A)
        for key, c in laurent_mul({(1, 0): rational(1)}, B).items():
            dz[key] = dz.get(key, rational(0)) + c
        assert {k: c for k, c in dz.items() if c != 0} == dict(b1)


def test_recenter_moves_root_to_origin():
    omega = expected_final(2, rational(-5), (rational(1),))
    shifted = recenter(omega, 2)
    assert QQ.is_zero(shifted.a.coefficient(0, 0))
    a_expected = {(0, 2): 4, (0, 1): 6, (1, 1): -10, (1, 0): -20}
    assert shifted.a == Series2(QQ, ("x", "z"), shifted.a.order,
                                {k: rational(v) for k, v in a_expected.items()})
    assert recenter(omega, 0) is omega


def test_recenter_refuses_truncated_data():
    trunc = Series2(QQ, ("x", "z"), 2, {(0, 3): 1, (0, 1): 1})  # drops (0,3)
    assert trunc.truncated
    omega = OneForm2(trunc, poly(2, {(1, 0): 1}, variables=("x", "z")))
    # the message names the stage, the point and the order
    for z0, text in ((1, "1"), (rational(-3, 2), "-3/2")):
        with pytest.raises(PrecisionError, match=r"^recenter at z = %s, "
                           r"order 2: substituting a valuation-0 series "
                           r"into a truncated series$" % text):
            recenter(omega, z0)


def finite(points):
    return [pt for pt in points if not pt.corner]


def test_singular_points_exact_roots():
    omega = expected_final(2, rational(-5), (rational(1),))
    path_form = BlowupResult(omega, "chart1", 2, 2, False, 0)
    pts = singular_points_on_divisor(path_form)
    assert pts[-1].corner and pts[-1].location is None
    pts = finite(pts)
    locs = sorted(pt.location for pt in pts)
    assert locs == [rational(1, 2), rational(2)]
    assert all(pt.multiplicity == 1 and not pt.approximate for pt in pts)


def test_singular_points_double_root_alpha_four():
    # 3(2(z^2+1) + 4z)dx + x(2z+4)dz has the lone double point z = -1
    omega = expected_final(3, rational(4), ())
    pts = finite(singular_points_on_divisor(
        BlowupResult(omega, "chart1", 2, 2, False, 0)))
    assert len(pts) == 1
    assert pts[0].location == rational(-1) and pts[0].multiplicity == 2


def test_singular_points_complex_pair_flagged():
    # alpha = 0: roots of 2(z^2+1) are +-i, approximate in exact mode
    omega = expected_final(2, rational(0), ())
    pts = finite(singular_points_on_divisor(
        BlowupResult(omega, "chart1", 2, 2, False, 0)))
    assert all(pt.approximate for pt in pts)
    ims = sorted(float(pt.location.imag) for pt in pts)
    assert abs(ims[0] + 1) < 1e-12 and abs(ims[1] - 1) < 1e-12


def test_singular_points_parametric():
    ring = ParamPolyRing("b")
    omega = expected_final(2, rational(-5), (ring.generator,), ring=ring)
    res = BlowupResult(omega, "chart1", 2, 2, False, 0)
    locs = {pt.location for pt in finite(singular_points_on_divisor(res))}
    assert locs == {ring.coerce(rational(2)), ring.coerce(rational(1, 2))}


def test_roots_quadratic_irrational_flagged():
    q = Series1(QQ, "z", 6, {0: -2, 2: 1})  # z^2 - 2
    pts = roots_series1(q)
    assert all(pt.approximate for pt in pts)
    vals = sorted(float(abs(pt.location)) for pt in pts)
    assert abs(vals[0] - 2 ** 0.5) < 1e-12 and abs(vals[1] - 2 ** 0.5) < 1e-12


def test_roots_multiplicity_and_zero_root():
    q = Series1(QQ, "z", 8, {1: 4, 2: -4, 3: 1})  # z(z - 2)^2
    pts = {(pt.location, pt.multiplicity) for pt in roots_series1(q)}
    assert pts == {(rational(0), 1), (rational(2), 2)}


def test_roots_cubic_numeric():
    q = Series1(QQ, "z", 8, {0: -6, 1: 11, 2: -6, 3: 1})  # (z-1)(z-2)(z-3)
    pts = roots_series1(q)
    got = sorted(float(pt.location.real) for pt in pts)
    assert all(pt.approximate for pt in pts)
    assert max(abs(g - w) for g, w in zip(got, [1.0, 2.0, 3.0])) < 1e-9


def test_roots_param_linear():
    ring = ParamPolyRing("b")
    b = ring.generator
    # 2z - 8b has the parametric root 4b
    q = Series1(ring, "z", 4, {1: ring.coerce(2), 0: ring.mul(b, ring.coerce(-8))})
    pts = roots_series1(q)
    assert len(pts) == 1
    assert ring.eq(pts[0].location, ring.mul(b, ring.coerce(4)))


def test_chain_p_zero_is_identity():
    omega = takens_form(2, 4, rational(-5))
    path = blowup_chain(omega, 0)
    assert path.final is omega
    assert path.steps == [] and path.self_intersections == []
    assert path.total_divided == 0 and path.labels == []


def test_blowup_rejects_nonsingular_origin():
    omega = OneForm2(poly(4, {(0, 0): 1}), poly(4, {(0, 1): 1}))
    with pytest.raises(MathError):
        blowup_chart1(omega)
    with pytest.raises(MathError):
        blowup_chart2(omega)


def test_corner_point_via_second_chart():
    omega = takens_form(2, 4, rational(-5), unit_tail=(rational(1),))
    path = blowup_chain(omega, 2)
    corner = blowup_chart2(path.steps[0].form)
    assert not corner.dicritical
    assert singular_at_origin(corner.form)
    corner_form = corner.form.swapped()

    def index(form, z0):
        return cs_index(dual(recenter(form, z0)))

    assert index(corner_form, 0) == rational(-1, 2)
    # the finite chart-1 points are the same ones seen at w = 1/z
    assert index(corner_form, rational(1, 2)) == rational(1, 6)
    assert index(corner_form, rational(2)) == rational(-2, 3)
    # total over the last component equals its self-intersection
    total = (index(path.final, rational(2))
             + index(path.final, rational(1, 2))
             + index(corner_form, 0))
    assert total == path.self_intersections[-1]
    assert path.labels == ["D1", "D2"]


def test_complex_ring_blowup():
    ring = ComplexApprox()
    omega = takens_form(2, 4, -5.0, unit_tail=(1.0,), ring=ring)
    path = blowup_chain(omega, 2)
    pts = finite(singular_points_on_divisor(path.steps[-1]))
    locs = sorted(float(abs(pt.location)) for pt in pts)
    assert abs(locs[0] - 0.5) < 1e-9 and abs(locs[1] - 2.0) < 1e-9


def pull_back_by_constructor(omega, p, zname):
    """The chart pull-back along v2 = v1^p z as the Series2 operations
    that ``blowup._pull_back`` replaces: three key remaps through the
    constructor, which coerces and zero-tests every coefficient and drops
    the keys past the order, a scaling by p, a sum and two divisions by
    the divisor power."""
    exact = not (omega.a.truncated or omega.b.truncated)
    order = (p + 1) * omega.order if exact else omega.order
    variables = (omega.variables[0], zname)

    def remap(s, image):
        return Series2(s.ring, variables, order,
                       {image(*key): c for key, c in s.coeffs.items()},
                       truncated=s.truncated)

    a = remap(omega.a, lambda i, j: (i + p * j, j))
    zb = remap(omega.b, lambda i, j: (i + p * j + p - 1, j + 1)).scale(p)
    xb = remap(omega.b, lambda i, j: (i + p * j + p, j))
    a = a + zb
    k = min(a.min_exponent(0), xb.min_exponent(0))
    return OneForm2(a.divide_monomial((k, 0)), xb.divide_monomial((k, 0)))


@pytest.mark.parametrize("ring", [QQ, ComplexApprox(), ParamPolyRing("b")],
                         ids=lambda ring: ring.name)
@pytest.mark.parametrize("shape", ["exact", "flagged", "past_order"])
def test_chart_remap_matches_constructor(ring, shape):
    """Both charts and the one-shot chart at p = 1 and 2 give the
    coefficients, in the same order, the order and the truncated flag of
    the constructor path: on an exact form, a form flagged truncated, and
    a truncated form whose remapped keys pass the order (a truncated form
    keeps its order).  Scaling by 1 is exact, so chart 1 skips it."""
    c = ring.coerce(rational(-5, 3))
    if ring.name == "param":
        c = ring.mul(c, ring.add(ring.one, ring.generator))
    order = 4 if shape == "past_order" else 9
    a = poly(order, {(3, 0): 4, (1, 2): c, (0, 4): 1}, ring)
    b = poly(order, {(0, 1): 2, (2, 0): c, (3, 1): 1, (1, 3): c}, ring)
    if shape != "exact":
        a = Series2(ring, a.variables, order, a.coeffs, truncated=True)
    omega = OneForm2(a, b)
    got = [blowup_chart1(omega).form, blowup_chart2(omega).form.swapped(),
           macro_chart1(omega, 1)[0], macro_chart1(omega, 2)[0]]
    want = [pull_back_by_constructor(omega, 1, "z"),
            pull_back_by_constructor(omega.swapped(), 1, "w"),
            pull_back_by_constructor(omega, 1, "z"),
            pull_back_by_constructor(omega, 2, "z")]
    for g, w in zip(got, want):
        for gs, ws in ((g.a, w.a), (g.b, w.b)):
            assert list(gs.coeffs.items()) == list(ws.coeffs.items())
            assert (gs.order, gs.truncated) == (ws.order, ws.truncated)
            assert gs.variables == ws.variables
    if shape == "past_order":
        assert all(f.a.truncated for f in got)
        # b is exact, but the images of x^3*y and x*y^3 pass the order
        assert not b.truncated and got[0].b.truncated
