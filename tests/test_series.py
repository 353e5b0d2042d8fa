"""Truncated series arithmetic: ring laws, truncation bookkeeping,
substitution semantics, division round trips and operand checks."""

from __future__ import annotations

import math
import random

import pytest

from pdfol.errors import MathError, NotInvertibleError, PrecisionError
from pdfol.rings import ParamPolyRing, RationalExact, rational
from pdfol.series import Series1, Series2

QQ = RationalExact()
XY = ("x", "y")
XZ = ("x", "z")


def s2(coeffs, order=10, variables=XY, ring=QQ):
    return Series2(ring, variables, order, coeffs)


def s1(coeffs, order=10, variable="x", ring=QQ):
    return Series1(ring, variable, order, coeffs)


def random_series2(rng, order=8, terms=5, variables=XY):
    coeffs = {}
    for _ in range(terms):
        i = rng.randint(0, order)
        j = rng.randint(0, order - i)
        coeffs[(i, j)] = rational(rng.randint(-9, 9), rng.randint(1, 5))
    return s2(coeffs, order=order, variables=variables)


def test_construction_normalizes():
    s = s2({(0, 0): 0, (1, 0): rational(2, 4), (0, 2): 3})
    assert s.coeffs == {(1, 0): rational(1, 2), (0, 2): rational(3)}
    assert not s.truncated
    assert s.valuation() == 1
    assert s.degree() == 2


def test_construction_beyond_order_marks_truncated():
    s = s2({(5, 6): 1, (1, 0): 1}, order=10)
    assert s.truncated
    assert s.coeffs == {(1, 0): rational(1)}


def test_addition_and_cancellation():
    a = s2({(1, 0): 1, (0, 1): 2})
    b = s2({(1, 0): -1, (2, 0): 5})
    total = a + b
    assert total == s2({(0, 1): 2, (2, 0): 5})
    assert not total.truncated


def test_mul_matches_hand_expansion():
    one_plus = s2({(0, 0): 1, (1, 0): 1, (0, 1): 1}, order=2)
    sq = one_plus * one_plus
    assert sq == s2({(0, 0): 1, (1, 0): 2, (0, 1): 2,
                     (2, 0): 1, (1, 1): 2, (0, 2): 1}, order=2)
    assert not sq.truncated


def test_mul_truncation_flag_and_order():
    a = s2({(3, 0): 1}, order=5)
    b = s2({(0, 3): 1}, order=5)
    prod = a * b
    assert prod.is_zero()
    assert prod.truncated
    assert prod.order == 5
    c = s2({(1, 0): 1}, order=7)
    assert (a * c).order == 5
    assert not (a * c).truncated


def test_ring_laws_random():
    rng = random.Random(77)
    for _ in range(60):
        a = random_series2(rng)
        b = random_series2(rng)
        c = random_series2(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_valuation_additive_under_product():
    rng = random.Random(78)
    for _ in range(40):
        a = random_series2(rng, order=12, terms=4)
        b = random_series2(rng, order=12, terms=4)
        if a.is_zero() or b.is_zero():
            continue
        if a.valuation() + b.valuation() <= 12:
            assert (a * b).valuation() == a.valuation() + b.valuation()


def test_derive():
    s = s2({(2, 1): rational(1, 2), (0, 3): 4}, order=6)
    dx = s.derive(0)
    dy = s.derive(1)
    assert dx == s2({(1, 1): 1}, order=5)
    assert dy == s2({(2, 0): rational(1, 2), (0, 2): 12}, order=5)
    assert dx.order == 5


def test_divide_monomial_roundtrip():
    s = s2({(2, 1): 3, (3, 0): -1}, order=8)
    q = s.divide_monomial((2, 0))
    assert q == s2({(0, 1): 3, (1, 0): -1}, order=6)
    assert q.order == 6
    back = q * s2({(2, 0): 1}, order=8)
    assert back == s
    with pytest.raises(MathError):
        s.divide_monomial((0, 1))


def test_unit_division_geometric():
    u = s2({(0, 0): 1, (1, 0): -1}, order=4)
    inv = u.inverse_unit()
    assert inv == s2({(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1},
                     order=4)
    assert inv.truncated
    assert u * inv == s2({(0, 0): 1}, order=4)


def test_unit_division_random_roundtrip():
    rng = random.Random(79)
    for _ in range(25):
        u = random_series2(rng, order=7, terms=4)
        u = u + s2({(0, 0): rng.randint(1, 5)}, order=7)
        s = random_series2(rng, order=7, terms=4)
        q = s * u.inverse_unit()
        assert q * u == s.truncate(q.order)


def test_divide_nonunit_raises():
    s = s2({(0, 0): 1})
    with pytest.raises(NotInvertibleError):
        s * s2({(1, 0): 1, (0, 1): 1}).inverse_unit()


def test_substitute_affine_shift():
    s = s2({(0, 2): 1, (0, 0): 1}, order=8, variables=XZ)
    x = Series2.monomial(QQ, XZ, 8, (1, 0))
    z_plus_2 = Series2(QQ, XZ, 8, {(0, 1): 1, (0, 0): 2})
    out = s.substitute(x, z_plus_2)
    assert out == s2({(0, 2): 1, (0, 1): 4, (0, 0): 5}, order=8, variables=XZ)
    assert not out.truncated


def test_substitute_blowup_monomials():
    # y := x*z turns y^2 + x^3 into x^2*z^2 + x^3
    s = s2({(0, 2): 1, (3, 0): 1}, order=9)
    x = Series2.monomial(QQ, XZ, 9, (1, 0))
    xz = Series2.monomial(QQ, XZ, 9, (1, 1))
    out = s.substitute(x, xz)
    assert out == s2({(2, 2): 1, (3, 0): 1}, order=9, variables=XZ)


def test_substitute_homomorphism_random():
    rng = random.Random(80)
    x = Series2.monomial(QQ, XZ, 8, (1, 0))
    ey = Series2(QQ, XZ, 8, {(1, 1): 1, (2, 0): rational(1, 3)})
    for _ in range(30):
        a = random_series2(rng, order=8, terms=4)
        b = random_series2(rng, order=8, terms=4)
        sub = lambda t: t.substitute(x, ey)
        assert sub(a * b) == sub(a) * sub(b)
        assert sub(a + b) == sub(a) + sub(b)


def test_substitute_constant_term_into_truncated_rejected():
    u = s2({(0, 0): 1, (0, 1): -1}, order=4, variables=XZ)
    geom = u.inverse_unit()
    assert geom.truncated
    x = Series2.monomial(QQ, XZ, 4, (1, 0))
    shift = Series2(QQ, XZ, 4, {(0, 1): 1, (0, 0): 1})
    with pytest.raises(PrecisionError):
        geom.substitute(x, shift)
    # positive-valuation substituents stay legal on truncated series
    xz = Series2.monomial(QQ, XZ, 4, (1, 1))
    assert geom.substitute(x, xz).order == 4


def test_constant_image_into_truncated_series_rejected_without_its_variable():
    # only the constant is stored; the true value at z = 1 is 1 + 5 = 6,
    # from a term the truncation dropped
    s = Series2(QQ, XZ, 2, {(0, 0): 1, (0, 3): 5})
    assert s.truncated and s.coeffs == {(0, 0): 1}
    x = Series2.monomial(QQ, XZ, 2, (1, 0))
    shift = Series2(QQ, XZ, 2, {(0, 1): 1, (0, 0): 1})
    with pytest.raises(PrecisionError):
        s.substitute(x, shift)
    with pytest.raises(PrecisionError):
        Series1(QQ, "z", 1, {0: 1, 3: 5}).compose(
            Series1(QQ, "z", 1, {0: 1, 1: 1}))


def test_substitute_order_is_min():
    s = s2({(0, 1): 1}, order=9)
    ex = Series2.monomial(QQ, XZ, 5, (1, 0))
    ey = Series2.monomial(QQ, XZ, 7, (0, 1))
    assert s.substitute(ex, ey).order == 5


def test_param_ring_series():
    ring = ParamPolyRing("b")
    b = ring.generator
    s = Series2(ring, XY, 6, {(1, 0): b, (0, 1): 1})
    sq = s * s
    assert sq.coefficient(2, 0) == b * b
    assert sq.coefficient(1, 1) == ring.coerce(2) * b


def test_series1_basics():
    f = s1({0: 1, 1: -1}, order=5)
    inv = f.inverse_unit()
    assert inv == s1({k: 1 for k in range(6)}, order=5)
    assert inv.truncated
    g = s1({1: 2, 3: 1}, order=5)
    assert (f * g).coefficient(1) == 2
    assert f.derive() == s1({0: -1}, order=4)
    assert g.divide_monomial(1) == s1({0: 2, 2: 1}, order=4)


def test_series1_compose_and_translate():
    f = s1({2: 1, 0: 1}, order=6)  # x^2 + 1
    g = s1({1: 1, 2: 1}, order=6)
    assert f.compose(g) == s1({0: 1, 2: 1, 3: 2, 4: 1}, order=6)
    shift = s1({0: 1, 1: 1}, order=6)  # x + 1
    t = s1({2: 1}, order=6).compose(shift)
    assert t == s1({0: 1, 1: 2, 2: 1}, order=6)
    geom = s1({0: 1, 1: -1}, order=6).inverse_unit()
    with pytest.raises(PrecisionError):
        geom.compose(shift)


def test_series1_reversion():
    rng = random.Random(81)
    for _ in range(20):
        coeffs = {1: rational(rng.choice([1, 2, -1, 3]))}
        for k in range(2, 7):
            coeffs[k] = rational(rng.randint(-4, 4))
        h = s1(coeffs, order=8)
        g = h.reversion()
        x = Series1.monomial(QQ, "x", 8, 1)
        assert h.compose(g) == x
        assert g.compose(h) == x


def test_series1_valuation_inf():
    z = Series1.zero(QQ, "x", 5)
    assert z.valuation() is math.inf
    assert Series2.zero(QQ, XY, 5).valuation() is math.inf


def test_equality_ignores_order():
    a = s2({(1, 1): 1}, order=5)
    b = s2({(1, 1): 1}, order=9)
    assert a == b
    assert a != s2({(1, 1): 2}, order=5)


def test_mixed_arity_operands_raise_type_error():
    one = s1({0: 1, 1: 2})
    two = s2({(0, 0): 1, (1, 0): 2})
    with pytest.raises(TypeError, match="expected a Series1 operand"):
        one + two
    with pytest.raises(TypeError, match="expected a Series2 operand"):
        two * one
    with pytest.raises(TypeError):
        one.compose(two)
    with pytest.raises(TypeError):
        two.substitute(one, one)
    assert (one == two) is False
    assert (two == one) is False
    assert one != two


def test_mixed_rings_and_variables_raise_value_error():
    param = ParamPolyRing("b")
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        s1({0: 1}) + s1({0: 1}, ring=param)
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        s2({(0, 0): 1}) * s2({(0, 0): 1}, ring=param)
    with pytest.raises(ValueError, match="mixed variables 'x' vs 'y'"):
        s1({1: 1}) + s1({1: 1}, variable="y")
    with pytest.raises(ValueError, match="mixed variable sets"):
        s2({(1, 0): 1}) * s2({(1, 0): 1}, variables=XZ)
    with pytest.raises(ValueError, match="mixed coefficient rings in composition"):
        s1({1: 1}).compose(s1({1: 1}, ring=param))
    x = Series2.monomial(param, XZ, 10, (1, 0))
    with pytest.raises(ValueError, match="mixed coefficient rings in substitution"):
        s2({(1, 0): 1}).substitute(x, x)
