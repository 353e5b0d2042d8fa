"""Property tests of the one-pass series reversion and of the Lie series
(exp(Y), exp(-Y) and the logarithm) over random sparse maps and fields
in all three rings, of the Lie series' degree stride against the loop
over every degree, and of their float accuracy against a 300-bit
reference."""

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfol.errors import MathError, NotInvertibleError
from pdfol.holonomy import (FormalDiffeo1, VectorField1, _lie_series, exp_vf,
                            inverse, log_diffeo, pd_holonomy_model)
from pdfol.rings import ComplexApprox, ParamPolyRing, RationalExact, rational
from pdfol.series import Series1

from util import lie_flows_by_products, lie_series_every_degree, raw

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")
RINGS = (QQ, CC, PB)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
NONZERO = st.integers(-4, 4).filter(bool)


def coefficient(ring, q, e):
    """q*b^e in the param ring, q in the others."""
    c = ring.from_rational(q)
    if ring is PB:
        c = ring.mul(c, ring.generator ** e)
    return c


@st.composite
def sparse_maps(draw):
    """(order, multiplier, {degree: (q, e)}, truncated): a tail supported
    on degrees 1 + k*m, k >= 1, the shape of the holonomy generators; it
    may be empty, so linear maps are drawn too."""
    order = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    degrees = list(range(1 + m, order + 1, m))
    tail = {}
    if degrees:
        for d in draw(st.lists(st.sampled_from(degrees), max_size=4)):
            tail[d] = (rational(draw(NONZERO), draw(st.integers(1, 3))),
                       draw(st.integers(0, 2)))
    multiplier = rational(draw(NONZERO), draw(st.integers(1, 3)))
    return order, multiplier, tail, draw(st.booleans())


def build(ring, order, multiplier, tail, truncated):
    coeffs = {d: coefficient(ring, q, e) for d, (q, e) in tail.items()}
    if multiplier is not None:
        coeffs[1] = ring.from_rational(multiplier)
    return Series1(ring, "x", order, coeffs, truncated=truncated)


@PROPERTY
@given(sparse_maps())
def test_reversion_is_two_sided_inverse(case):
    order, multiplier, tail, truncated = case
    for ring in RINGS:
        h = build(ring, order, multiplier, tail, truncated)
        g = h.reversion()
        x = Series1.monomial(ring, "x", order, 1)
        assert h.compose(g) == x, ring.name
        assert g.compose(h) == x, ring.name
        assert g.order == order
        # a linear map has an exact inverse
        assert g.truncated == (truncated or bool(tail))
        shifted = h + Series1.monomial(ring, "x", order, 0)
        with pytest.raises(MathError):
            shifted.reversion()
        with pytest.raises(NotInvertibleError):
            build(ring, order, None, tail, truncated).reversion()
    non_unit = build(PB, order, None, tail, truncated) \
        + Series1.monomial(PB, "x", order, 1, PB.generator)
    with pytest.raises(NotInvertibleError):
        non_unit.reversion()


@PROPERTY
@given(sparse_maps())
def test_log_and_exp_are_inverse(case):
    order, _, tail, truncated = case
    for ring in RINGS:
        field = build(ring, order, None, tail, truncated)
        h = FormalDiffeo1(ring.one, field)
        assert exp_vf(log_diffeo(h, order), order).series() == h.series(), \
            ring.name
        Y = VectorField1(field)
        assert log_diffeo(exp_vf(Y, order), order).f == field, ring.name
        # a nonzero logarithm is a whole series, not a polynomial
        assert (log_diffeo(h, order).f.truncated
                == (truncated or bool(tail))), ring.name


@st.composite
def lie_fields(draw):
    """(N, order, {degree: (q, e)}, truncated): a field known at least to
    N, on the degrees 1 + k*gap (k >= 1), all of them (dense) or a few
    (gapped, the shape of a holonomy generator's field); it may be zero."""
    N = draw(st.integers(2, 14))
    order = draw(st.integers(N, N + 3))
    gap = draw(st.integers(1, 4))
    degrees = list(range(1 + gap, order + 1, gap))
    if degrees and not draw(st.booleans()):
        degrees = draw(st.lists(st.sampled_from(degrees), max_size=4))
    tail = {d: (rational(draw(NONZERO), draw(st.integers(1, 3))),
                draw(st.integers(0, 2))) for d in degrees}
    return N, order, tail, draw(st.booleans())


@settings(PROPERTY, max_examples=100)  # 30 examples hold few dense fields
@given(lie_fields())
def test_lie_series_matches_the_product_loop(case):
    """exp(Y) - x and exp(-Y) - x by degree against full products: exact
    and param values are identical, float ones agree to a few units of
    the 64th bit of the largest coefficient, and the orders agree.  Both
    are flagged truncated when the field is truncated or nonzero: the
    flow of a nonzero field has terms in every degree 1 + k*gap, past
    any N.  exp(-Y) is exp_vf(-Y) bit for bit."""
    N, order, tail, truncated = case
    for ring in RINGS:
        f = build(ring, order, None, tail, truncated)
        _, plus, minus = _lie_series(f, N)
        Y = VectorField1(f)
        assert plus.coeffs == exp_vf(Y, N).tail.coeffs, ring.name
        assert minus.coeffs == exp_vf(-Y, N).tail.coeffs, ring.name
        for got, want in zip((plus, minus), lie_flows_by_products(f, N)):
            assert got.order == want.order
            assert got.truncated == (truncated or bool(tail))
            if ring is not CC:
                assert got.coeffs == want.coeffs, ring.name
                continue
            with mpmath.workprec(256):
                scale = max(map(abs, want.coeffs.values()), default=0)
                assert all(abs(got.coefficient(k) - want.coefficient(k))
                           <= 4 * scale * mpmath.ldexp(1, -64)
                           for k in set(got.coeffs) | set(want.coeffs))


@PROPERTY
@given(lie_fields(), st.booleans())
# empty, one term, gapped by 3 and dense fields; a term past N sets
# the stride too
@example((8, 8, {}, False), False)
@example((9, 9, {4: (rational(1), 0)}, False), True)
@example((13, 13, {4: (rational(1, 2), 1), 10: (rational(-3), 2)}, True),
         False)
@example((12, 12, {d: (rational(d, 3), d % 3) for d in range(2, 13)},
          False), True)
@example((6, 9, {3: (rational(1), 0), 8: (rational(2), 0)}, False), False)
def test_lie_series_on_its_stride_matches_every_degree(case, log):
    """The recursion on the degrees 1 + g*Z, g the gcd of d - 1 over the
    source's support, gives the coefficients of the recursion over every
    degree, in insertion order and bit for bit, for exp and for log."""
    N, order, tail, truncated = case
    for ring in RINGS:
        source = build(ring, order, None, tail, truncated)
        got = _lie_series(source, N, log)
        want = lie_series_every_degree(source, N, log)
        for series, coeffs in zip(got, want):
            assert ([(d, raw(ring, c)) for d, c in series.coeffs.items()]
                    == [(d, raw(ring, c)) for d, c in coeffs.items()]), \
                ring.name


def relative_error(value: Series1, reference: Series1):
    """Largest coefficient error over the largest reference coefficient."""
    keys = set(value.coeffs) | set(reference.coeffs)
    scale = max(abs(c) for c in reference.coeffs.values())
    return max(abs(mpmath.mpc(value.coefficient(k)) - reference.coefficient(k))
               for k in keys) / scale


@pytest.mark.parametrize("m, N", [(2, 26), (3, 36)])
def test_float_log_and_inverse_match_300_bit_reference(m, N):
    """The error is taken relative to the largest coefficient: the top
    coefficients of log h are about 1e9 times smaller than those of h
    (up to 6e5 at m = 2), so rounding h to 64 bits already moves each of
    them by more than 1e-11 relative."""
    results = []
    for ring in (CC, ComplexApprox(precision=300, tol=1e-60)):
        h = pd_holonomy_model(m, N, ring)
        tangent = FormalDiffeo1(ring.one,
                                h.tail.scale(ring.invert(h.multiplier)))
        results.append((log_diffeo(tangent, N).f, inverse(h).series()))
    (log64, inv64), (log300, inv300) = results
    assert relative_error(log64, log300) < 1e-11
    assert relative_error(inv64, inv300) < 1e-11
