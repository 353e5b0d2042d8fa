"""Coefficient ring behavior: canonical rationals, tolerance-compared
complex floats (always finite, coerced with the bits of ``workprec``),
and one-parameter polynomials."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (fone, from_float, mpc_abs, mpf_le, mpf_mul,
                          round_nearest)

from pdfol import rings
from pdfol.errors import MathError, NotInvertibleError
from pdfol.rings import (ComplexApprox, ParamPoly, ParamPolyRing,
                         RationalExact, rational, rational_sqrt)

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")


def random_rational(rng):
    return rational(rng.randint(-40, 40), rng.randint(1, 12))


def random_param_poly(rng):
    return ParamPoly([random_rational(rng) for _ in range(rng.randint(0, 4))])


def test_rational_canonical():
    assert rational(2, 4) == rational(1, 2)
    q = rational(-6, -4)
    assert q.numerator == 3 and q.denominator == 2
    assert QQ.coerce("7/3") == rational(7, 3)
    assert QQ.json_value(rational(-3, 2)) == "-3/2"
    assert QQ.json_value(rational(5)) == "5/1"


def test_rational_ring_laws_random():
    rng = random.Random(1001)
    for _ in range(200):
        a, b, c = (random_rational(rng) for _ in range(3))
        assert QQ.add(a, b) == QQ.add(b, a)
        assert QQ.mul(a, b) == QQ.mul(b, a)
        assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
        assert QQ.add(a, QQ.neg(a)) == QQ.zero
        if not QQ.is_zero(a):
            assert QQ.mul(a, QQ.invert(a)) == QQ.one


def test_rational_invert_zero():
    with pytest.raises(NotInvertibleError):
        QQ.invert(QQ.zero)


def test_rational_sqrt():
    assert rational_sqrt(rational(9)) == 3
    assert rational_sqrt(rational(9, 4)) == rational(3, 2)
    assert rational_sqrt(rational(2)) is None
    assert rational_sqrt(rational(-4)) is None
    assert rational_sqrt(rational(0)) == 0


def test_complex_tolerance_semantics():
    a = CC.coerce(1.0)
    b = CC.add(a, CC.coerce(1e-12))
    assert CC.eq(a, b)
    assert not CC.eq(a, CC.coerce(1.0 + 1e-6))
    assert CC.is_zero(CC.coerce(1e-10))
    assert not CC.is_zero(CC.coerce(1e-6))
    # relative scaling: a large offset below relative tolerance still matches
    big = CC.coerce(1e12)
    assert CC.eq(big, CC.add(big, CC.coerce(1.0)))


def test_complex_is_zero_is_eq_to_zero():
    tol = CC.tol
    for size in (tol * (1 - 1e-6), tol, tol * (1 + 1e-6), 0.5, 1.0, 2.0,
                 1e12):
        for value in (size, -size, complex(0, size),
                      complex(0.6 * size, -0.8 * size)):
            a = CC.coerce(value)
            assert CC.is_zero(a) == CC.eq(a, CC.zero), value
    assert CC.is_zero(CC.coerce(tol)) and CC.is_zero(CC.zero)
    assert not CC.is_zero(CC.coerce(tol * (1 + 1e-6)))


def _is_zero_by_abs(ring, a):
    """The definition: |a| <= tol * max(1, |a|), |a| and the product
    rounded to nearest at the ring's precision."""
    prec = ring.precision
    size = mpc_abs(a._mpc_, prec, round_nearest)
    tol = from_float(ring.tol)
    if mpf_le(size, fone):
        return mpf_le(size, tol)
    return mpf_le(size, mpf_mul(tol, size, prec, round_nearest))


@pytest.mark.parametrize("precision", [53, 64, 200])
@pytest.mark.parametrize("tol", [1e-9, 1e-30, 0.5, 2.0])
def test_complex_is_zero_matches_abs_at_power_of_two_boundaries(precision,
                                                                 tol):
    """is_zero answers most values from exponents alone; at the powers of
    two next to tol it must still agree with the definition."""
    ring = ComplexApprox(precision=precision, tol=tol)
    K = math.frexp(tol)[1]  # the least K with 2^K > tol
    with mpmath.workprec(precision):
        below = mpmath.ldexp(1, K) * (1 - mpmath.ldexp(1, -precision))
        sizes = [mpmath.ldexp(1, K), mpmath.ldexp(1, K - 1), below,
                 mpmath.mpf(tol), mpmath.mpf(tol) * (1 + mpmath.mpf(1e-6)),
                 mpmath.mpf(1), mpmath.mpf(0)]
        values = [s * unit for s in sizes for unit in (1, -1, 1j, -1j)]
        values += [mpmath.mpc(below, below), mpmath.mpc(below / 2, below),
                   mpmath.mpc(tol / 2, tol / 2)]
    for value in values:
        a = ring.coerce(value)
        assert ring.is_zero(a) == _is_zero_by_abs(ring, a), (value, tol)
    if tol < 0.5:
        assert not ring.is_zero(ring.coerce(mpmath.ldexp(1, K)))
        assert ring.is_zero(ring.coerce(tol)) and ring.is_zero(ring.zero)


def test_complex_precision_and_invert():
    ring = ComplexApprox(precision=96)
    val = ring.coerce(rational(1, 3))
    err = abs(ring.sub(ring.mul(val, ring.coerce(3)), ring.one))
    assert float(err) < 1e-27
    with pytest.raises(NotInvertibleError):
        CC.invert(CC.coerce(1e-12))
    inv = CC.invert(CC.coerce(2.0))
    assert CC.eq(inv, CC.coerce(0.5))
    re, im = CC.json_value(CC.coerce(complex(1.5, -2.0)))
    assert re == 1.5 and im == -2.0


def test_complex_neg_keeps_precision():
    for ring in (CC, ComplexApprox(precision=300)):
        a = ring.coerce(rational(1, 3))
        assert ring.add(a, ring.neg(a)) == 0  # no bit of a is rounded away
        assert ring.neg(a) == ring.sub(ring.zero, a)
        assert ring.neg(ring.neg(a)) == a


def test_complex_arithmetic_is_workprec_arithmetic():
    """add/sub/mul on the raw tuples give the bits of native operators
    under workprec, for tiny, huge and mixed magnitudes."""
    rng = random.Random(577)
    source = ComplexApprox(precision=300)

    def part():
        return source.mul(source.coerce(rng.uniform(-1, 1)),
                          source.coerce(rational(10) ** rng.randint(-300, 300)))

    def value():
        re = part()
        if rng.random() < 0.3:
            return re
        return source.add(re, source.mul(part(), source.coerce(1j)))

    for ring in (CC, ComplexApprox(precision=53),
                 ComplexApprox(precision=113)):
        for _ in range(200):
            a, b = value(), value()
            with mpmath.workprec(ring.precision):
                want = (a + b, a - b, a * b)
            got = (ring.add(a, b), ring.sub(a, b), ring.mul(a, b))
            assert [v._mpc_ for v in got] == [v._mpc_ for v in want]


def test_param_poly_arithmetic():
    b = PB.generator
    p = (b + 1) * (b - 1)
    assert p == ParamPoly([-1, 0, 1])
    assert (b ** 3).coeffs == (0, 0, 0, 1)
    assert ParamPoly([rational(1, 2)]) + ParamPoly([rational(1, 2)]) == ParamPoly([1])
    # trailing-zero stripping keeps equality structural
    assert ParamPoly([1, 0, 0]) == ParamPoly([1])
    assert PB.is_zero(b - b)


def test_param_poly_ring_laws_random():
    rng = random.Random(2024)
    for _ in range(120):
        a, b, c = (random_param_poly(rng) for _ in range(3))
        assert PB.add(a, b) == PB.add(b, a)
        assert PB.mul(a, b) == PB.mul(b, a)
        assert PB.mul(a, PB.add(b, c)) == PB.add(PB.mul(a, b), PB.mul(a, c))


def test_param_poly_invert_units_only():
    assert PB.invert(ParamPoly([2])) == ParamPoly([rational(1, 2)])
    with pytest.raises(NotInvertibleError):
        PB.invert(PB.generator)
    with pytest.raises(NotInvertibleError):
        PB.invert(PB.zero)


def test_param_poly_format_and_json():
    p = ParamPoly([rational(-1, 2), 0, 3])
    assert p.format("b") == "-1/2 + 3*b^2"
    assert PB.json_value(p) == {"param": "b", "coeffs": ["-1/2", "0/1", "3/1"]}
    assert PB.as_rational(ParamPoly([rational(7, 2)])) == rational(7, 2)
    assert PB.as_rational(PB.generator) is None


def test_param_poly_hashes_as_the_values_it_equals():
    """Equal values hash alike: a constant as its rational, so sets and
    dict lookups mix constants and rationals."""
    assert ParamPoly((3,)) == 3 and hash(ParamPoly((3,))) == hash(Fraction(3))
    assert ParamPoly() == 0 and hash(ParamPoly()) == hash(0)
    assert len({ParamPoly((3,)), Fraction(3)}) == 1
    assert {Fraction(3): "v"}.get(ParamPoly((3,))) == "v"
    half = ParamPoly((rational(1, 2),))
    assert {rational(1, 2): "v"}.get(half) == "v"
    assert hash(PB.generator) == hash(ParamPoly((0, 1)))


def test_param_poly_repr_names_no_parameter_and_round_trips():
    assert repr(ParamPoly((0, rational(1, 2)))) == "ParamPoly(('0', '1/2'))"
    assert repr(ParamPoly()) == "ParamPoly(())"
    rng = random.Random(17)
    for _ in range(200):
        p = random_param_poly(rng)
        text = repr(p)
        assert "t" not in text.replace("ParamPoly", "")
        back = eval(text, {"ParamPoly": ParamPoly})
        assert back == p and back.coeffs == p.coeffs


def test_ring_equality_keys():
    assert RationalExact() == RationalExact()
    assert ComplexApprox() == ComplexApprox()
    assert ComplexApprox(precision=80) != ComplexApprox()
    assert ParamPolyRing("b") != ParamPolyRing("c")


def test_param_poly_results_carry_no_trailing_zeros():
    rng = random.Random(6)
    rational_type = type(rational(0))
    for _ in range(200):
        a, b = random_param_poly(rng), random_param_poly(rng)
        for value in (a + b, a - b, a * b, -a, a + (-a), (a - b) * (b - a)):
            assert not value.coeffs or value.coeffs[-1] != 0
            assert all(type(c) is rational_type for c in value.coeffs)


def test_param_poly_cancellation_is_canonical():
    b = PB.generator
    one = (1 + b) + (-b)
    assert one == ParamPoly((1,))
    assert one.coeffs == ParamPoly((1,)).coeffs
    assert hash(one) == hash(ParamPoly((1,)))
    zero = ParamPoly()
    for value in (-zero, (1 + b) * zero, zero * (1 + b), (1 + b) * 0,
                  b - b):
        assert value == zero and value.coeffs == ()
        assert hash(value) == hash(zero)


def coerce_by_workprec(ring, value):
    """``ComplexApprox.coerce`` as it was: every value through
    ``mpmath.mpc`` under ``workprec``, a fraction by one ``mpf``
    division."""
    with mpmath.workprec(ring.precision):
        if isinstance(value, Fraction):
            return mpmath.mpc(mpmath.mpf(int(value.numerator))
                              / int(value.denominator))
        return mpmath.mpc(value)


def at_bits(bits, value):
    with mpmath.workprec(bits):
        return mpmath.mpc(value) / 7


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
COERCIBLE = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.fractions(max_denominator=2 ** 70).filter(
        lambda q: q.denominator > 1),
    FLOATS, st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.builds(at_bits, st.sampled_from((53, 64, 300)),
              st.one_of(FLOATS.filter(bool), st.complex_numbers(
                  max_magnitude=1e300, allow_nan=False,
                  allow_infinity=False))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(COERCIBLE)
@example(2 ** 64 + 1)
@example(Fraction(2 ** 65 + 1, 3))
@example(at_bits(300, 1j + 1))
def test_complex_coerce_keeps_the_bits_of_workprec(value):
    for ring in (ComplexApprox(precision=53), CC,
                 ComplexApprox(precision=200)):
        for _ in range(2):  # a table miss, then a hit
            got = ring.coerce(value)
            assert got._mpc_ == coerce_by_workprec(ring, value)._mpc_


def test_complex_coerce_returns_elements_as_they_are():
    fine = at_bits(64, 1 + 1j)
    assert CC.coerce(fine) is fine
    assert CC.coerce(CC.zero) is CC.zero
    wide = at_bits(300, 1 + 1j)
    narrow = CC.coerce(wide)
    assert wide._mpc_[0][3] > 64 >= narrow._mpc_[0][3]
    assert narrow._mpc_ == coerce_by_workprec(CC, wide)._mpc_


def test_complex_coerce_table_stays_bounded():
    ring = ComplexApprox()
    values = [Fraction(k, 3) for k in range(3 * rings._TABLE_SIZE)]
    for q in values + values:
        assert ring.coerce(q)._mpc_ == coerce_by_workprec(ring, q)._mpc_
    assert len(ring._rationals) == rings._TABLE_SIZE


@pytest.mark.parametrize("value", [
    math.inf, -math.inf, math.nan, complex(math.inf, 0), complex(0, math.nan),
    mpmath.inf, mpmath.nan, mpmath.mpc(1, mpmath.inf),
    mpmath.mpc(mpmath.nan, 0)])
def test_complex_coerce_rejects_non_finite_values(value):
    with pytest.raises(MathError, match="not finite"):
        CC.coerce(value)
