"""The two kernels of the chain's steps against the general substitution
they replace: the chart pull-back (``blowup_chart1``, ``macro_chart1``)
against ex = x, ey = x*z followed by a division by the divisor power, and
the z-shift (``blowup._shift_z``, behind ``recenter`` and the shear of
``to_fibered_field``) against ``Series2.substitute`` at (x, image).
Both must give the same coefficients (floats: the same raw tuples), the
same order and the same truncated flag, in all three rings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfol import blowup, classify
from pdfol.blowup import _shift_z, blowup_chart1, macro_chart1
from pdfol.classify import analyze
from pdfol.errors import PdfolError, PrecisionError
from pdfol.forms import OneForm2
from pdfol.parser import parse_expr
from pdfol.rings import ComplexApprox, ParamPolyRing, RationalExact, rational
from pdfol.series import INF, Series2
from util import SPECS, raw, saddle_text, spec_value

RINGS = (RationalExact(), ComplexApprox(), ParamPolyRing("b"))
XZ = ("x", "z")
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
NONZERO = SPECS.filter(lambda spec: any(spec[0]) or spec[1])


def coefficients(s):
    return [(key, raw(s.ring, c)) for key, c in s.coeffs.items()]


def same(got, want):
    """The same coefficients in the same key order, order and flag."""
    assert coefficients(got) == coefficients(want)
    assert (got.order, got.truncated) == (want.order, want.truncated)
    assert got.variables == want.variables


@st.composite
def series(draw, max_i, max_j, order, low=0):
    """A Series2 spec: {(i, j): coefficient spec} with i <= max_i,
    j <= max_j and low <= i + j <= the order, that order and a truncated
    flag."""
    order = draw(st.integers(max(order - 2, 0), order + 2))
    keys = st.tuples(st.integers(0, max_i), st.integers(0, max_j)).filter(
        lambda key: low <= sum(key) <= order)
    terms = draw(st.dictionaries(keys, SPECS, max_size=8))
    return terms, order, draw(st.booleans())


def build(ring, spec, truncated=None):
    terms, order, flag = spec
    return Series2(ring, XZ, order,
                   {key: spec_value(ring, c) for key, c in terms.items()},
                   truncated=flag if truncated is None else truncated)


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), series(n, 3, n), series(n, 3, n))),
       NONZERO, st.sampled_from(("recenter", "shear")))
def test_z_shift_equals_substitute(data, shift, kind):
    """z -> z + z0 on exact data, and the shear z -> z - gamma*x on data
    that may be truncated, of z-degree 0 to 3, with series orders below,
    at and above the image's: each series of the pair shifted at once
    equals its own ``Series2.substitute``, which builds its own powers."""
    n, a_spec, b_spec = data
    for ring in RINGS:
        value = spec_value(ring, shift)
        if kind == "recenter":
            image = {(0, 1): 1, (0, 0): value}
            a, b = build(ring, a_spec, False), build(ring, b_spec, False)
        else:
            image = {(0, 1): 1, (1, 0): ring.neg(value)}
            a, b = build(ring, a_spec), build(ring, b_spec)
        image = Series2(ring, XZ, n, image)
        ex = Series2(ring, XZ, n, {(1, 0): 1})
        got = _shift_z((a, b), image)
        for g, s in zip(got, (a, b)):
            same(g, s.substitute(ex, image))


def chart1_by_substitution(omega):
    """Chart 1 as a general substitution: a(x, xz) + z*b(x, xz) and
    x*b(x, xz), at twice the form's order on exact data (an exact
    polynomial may be read at any order), divided by x^k."""
    ring = omega.ring
    exact = not (omega.a.truncated or omega.b.truncated)
    order = 2 * omega.order if exact else omega.order

    def lifted(s):
        return Series2._raw(ring, XZ, order if exact else s.order, s.coeffs,
                            s.truncated)

    ex = Series2(ring, XZ, order, {(1, 0): 1})
    ey = Series2(ring, XZ, order, {(1, 1): 1})
    a, b = (lifted(s).substitute(ex, ey) for s in (omega.a, omega.b))
    z = Series2(ring, XZ, order, {(0, 1): 1})
    x = Series2(ring, XZ, order, {(1, 0): 1})
    a, b = a + z * b, x * b
    k = min(a.min_exponent(0), b.min_exponent(0))
    if k == INF:
        return None, k
    return OneForm2(a.divide_monomial((k, 0)), b.divide_monomial((k, 0))), k


def values(s):
    return {key: raw(s.ring, c) for key, c in s.coeffs.items()}


@PROPERTY
@given(series(5, 4, 5, low=1), series(5, 4, 5, low=1))
def test_chart1_equals_the_substitution(a_spec, b_spec):
    """blowup_chart1 and macro_chart1 at p = 1 equal the substitution
    ex = x, ey = x*z divided by x^k, on forms singular at the origin,
    exact or flagged truncated: the same coefficients, order and flag,
    or PrecisionError where every term lies past the order."""
    for ring in RINGS:
        a, b = build(ring, a_spec), build(ring, b_spec)
        if a.is_zero() and b.is_zero():
            continue
        omega = OneForm2(a, b)
        want, k = chart1_by_substitution(omega)
        if want is None:  # every term lies past the order
            for chart in (blowup_chart1, lambda f: macro_chart1(f, 1)):
                with pytest.raises(PrecisionError, match="vanishes to order"):
                    chart(omega)
            continue
        got = blowup_chart1(omega)
        macro, k_macro = macro_chart1(omega, 1)
        assert got.k_divided == k_macro == k
        for form in (got.form, macro):
            for g, w in ((form.a, want.a), (form.b, want.b)):
                assert values(g) == values(w)
                assert (g.order, g.truncated) == (w.order, w.truncated)


@pytest.mark.parametrize("mode", ["exact", "float", "param:b"])
@pytest.mark.parametrize("method", ["chain", "homological"])
def test_recentrings_read_z_degree_2_in_a_and_1_in_b(monkeypatch, mode,
                                                     method):
    """Every form the pipeline recentres, at z1 after the macro chart and
    after each chain blow-up, has z-degree <= 2 in a and <= 1 in b: the
    range in which ``recenter`` is bit for bit ``Series2.substitute``."""
    seen = []

    def recorded(omega, z0):
        seen.append((max((j for _, j in omega.a.coeffs), default=0),
                     max((j for _, j in omega.b.coeffs), default=0)))
        return blowup.recenter(omega, z0)

    monkeypatch.setattr(classify, "recenter", recorded)
    tails = ([], [rational(2)], [rational(-1, 2), rational(3)],
             [rational(1), rational(-2), rational(1, 3), rational(-3, 2)])
    for p, m in ((2, 6), (4, 5), (3, 9), (2, 16)):
        for us in tails:
            form = parse_expr(saddle_text(p, m, us, mode), mode,
                              classify.default_order(p, m)).form
            try:
                analyze(form, method=method)
            except PdfolError:  # a float chain may stop; its reads count
                pass
    assert len(seen) >= 16  # one at z1 per input, and the chain's steps
    assert max(a for a, _ in seen) <= 2 and max(b for _, b in seen) <= 1
