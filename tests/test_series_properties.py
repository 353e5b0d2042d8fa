"""Property tests of the one-pass unit inverse, of the Camacho-Sad index,
which reads only low degrees of that inverse, and of the agreement of the
one- and two-variable series, over random series in all three rings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfol.errors import NotInvertibleError, PdfolError
from pdfol.forms import PlaneVectorField, cs_index
from pdfol.rings import ComplexApprox, ParamPolyRing, RationalExact, rational
from pdfol.series import Series1, Series2

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")
RINGS = (QQ, CC, PB)
XZ = ("x", "z")

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
def tails(draw, keys):
    """{key: (q, e)}: a few nonconstant terms with small coefficients."""
    out = {}
    for _ in range(draw(st.integers(0, 5))):
        key = draw(keys)
        out[key] = (rational(draw(NONZERO), draw(st.integers(1, 3))),
                    draw(st.integers(0, 2)))
    return out


@st.composite
def units(draw, keys):
    """(order, constant term, tail, truncated flag) of a random unit;
    the constant is a nonzero rational, the only kind of unit in Q[b]."""
    order = draw(st.integers(0, 8))
    u0 = rational(draw(NONZERO), draw(st.integers(1, 3)))
    return order, u0, draw(tails(keys)), draw(st.booleans())


KEYS1 = st.integers(1, 8)
KEYS2 = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
    lambda key: key != (0, 0))


def build1(ring, order, u0, tail, truncated):
    coeffs = {k: coefficient(ring, q, e) for k, (q, e) in tail.items()}
    if u0 is not None:
        coeffs[0] = ring.from_rational(u0)
    return Series1(ring, "z", order, coeffs, truncated=truncated)


def build2(ring, order, u0, tail, truncated):
    coeffs = {k: coefficient(ring, q, e) for k, (q, e) in tail.items()}
    if u0 is not None:
        coeffs[(0, 0)] = ring.from_rational(u0)
    return Series2(ring, XZ, order, coeffs, truncated=truncated)


def check_inverse(u, one, without_constant):
    inv = u.inverse_unit()
    assert inv.order == u.order
    assert u * inv == one, u.ring.name
    has_tail = len(u.coeffs) > 1
    assert inv.truncated == (u.truncated or has_tail)
    if has_tail:
        with pytest.raises(NotInvertibleError):
            without_constant.inverse_unit()


@PROPERTY
@given(units(KEYS1))
def test_series1_unit_times_inverse_is_one(case):
    order, u0, tail, truncated = case
    for ring in RINGS:
        u = build1(ring, order, u0, tail, truncated)
        check_inverse(u, Series1.constant(ring, "z", order, 1),
                      build1(ring, order, None, tail, truncated))


@PROPERTY
@given(units(KEYS2))
def test_series2_unit_times_inverse_is_one(case):
    order, u0, tail, truncated = case
    for ring in RINGS:
        u = build2(ring, order, u0, tail, truncated)
        check_inverse(u, Series2.constant(ring, XZ, order, 1),
                      build2(ring, order, None, tail, truncated))


def cs_index_full_order(field, z0):
    """The Camacho-Sad residue with every operand kept at full order:
    coefficient s - 1 of ptilde(0, .) / u, the formula cs_index
    shortens."""
    ring = field.ring
    ptilde0 = field.p1.divide_monomial((1, 0)).restrict_first_zero()
    q0 = field.p2.restrict_first_zero()
    if not ring.is_zero(z0):
        q0 = q0.translate(z0)
        ptilde0 = ptilde0.translate(z0)
    s = q0.valuation()
    unit = q0.divide_monomial(s)
    return (ptilde0 * unit.inverse_unit()).coefficient(s - 1)


@st.composite
def cs_cases(draw):
    """(s, z0, ptilde, unit, noise): a field x*ptilde d/dx + q d/dz with
    q(0, z) = (z - z0)^s * unit(z - z0) and q = that plus x*noise."""
    s = draw(st.integers(1, 3))
    z0 = draw(st.sampled_from((0, 2, rational(-1, 2))))
    u0 = rational(draw(NONZERO), draw(st.integers(1, 3)))
    return (s, z0, draw(tails(st.tuples(st.integers(0, 4), st.integers(0, 4)))),
            (u0, draw(tails(st.integers(1, 4)))),
            draw(tails(st.tuples(st.integers(0, 3), st.integers(0, 3)))))


@PROPERTY
@given(cs_cases())
def test_cs_index_matches_full_order_formula(case):
    s, z0, ptilde, (u0, utail), noise = case
    order = 10
    for ring in RINGS:
        root = ring.from_rational(rational(z0))
        x = Series2.monomial(ring, XZ, order, (1, 0))
        factor = Series2(ring, XZ, order, {(0, 1): 1, (0, 0): ring.neg(root)})
        unit = build2(ring, order, u0, {(0, k): t for k, t in utail.items()},
                      False)
        q0 = unit.substitute(x, factor)
        for _ in range(s):
            q0 = q0 * factor
        p1 = x * build2(ring, order, None, ptilde, False)
        p2 = q0 + x * build2(ring, order, None, noise, False)
        field = PlaneVectorField(p1, p2)
        assert ring.eq(cs_index(field, root),
                       cs_index_full_order(field, root)), ring.name


@st.composite
def one_variable_cases(draw):
    """Two series and a substituent of order >= 1 as (order, terms,
    truncated flag) data, with a scalar, a truncation order and a monomial
    exponent.  Keys reach past the order, so construction truncates too."""
    def data(lowest):
        order = draw(st.integers(lowest, 8))
        terms = st.tuples(st.builds(rational, NONZERO, st.integers(1, 3)),
                          st.integers(0, 2))
        return (order, draw(st.dictionaries(st.integers(0, order + 2), terms,
                                            min_size=1, max_size=6)),
                draw(st.booleans()))
    scalar = rational(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return (data(0), data(0), data(1), scalar, draw(st.integers(0, 9)),
            draw(st.integers(0, 4)))


def embedded(ring, data):
    """The same data as a Series1 in z and in the z slot of a Series2."""
    order, tail, truncated = data
    coeffs = {k: coefficient(ring, q, e) for k, (q, e) in tail.items()}
    return (Series1(ring, "z", order, coeffs, truncated=truncated),
            Series2(ring, XZ, order, {(0, k): c for k, c in coeffs.items()},
                    truncated=truncated))


def outcome(operation):
    try:
        return operation()
    except PdfolError as exc:
        return type(exc)


@PROPERTY
@given(one_variable_cases())
def test_one_and_two_variables_agree(case):
    """Every shared operation gives a Series2 result whose z slot is the
    Series1 result: same coefficients, order, truncation flag and error."""
    a_data, b_data, t_data, scalar, cut, k = case
    for ring in RINGS:
        (a1, a2), (b1, b2), (t1, t2) = (embedded(ring, d)
                                        for d in (a_data, b_data, t_data))
        x = Series2.monomial(ring, XZ, t2.order, (1, 0))
        c = ring.from_rational(scalar)
        pairs = {
            "+": (lambda: a1 + b1, lambda: a2 + b2),
            "-": (lambda: a1 - b1, lambda: a2 - b2),
            "*": (lambda: a1 * b1, lambda: a2 * b2),
            "scale": (lambda: a1.scale(c), lambda: a2.scale(c)),
            "truncate": (lambda: a1.truncate(cut), lambda: a2.truncate(cut)),
            "derive": (lambda: a1.derive(), lambda: a2.derive(1)),
            "divide_monomial": (lambda: a1.divide_monomial(k),
                                lambda: a2.divide_monomial((0, k))),
            "inverse_unit": (lambda: a1.inverse_unit(),
                             lambda: a2.inverse_unit()),
            "divide": (lambda: a1.divide(b1), lambda: a2.divide(b2)),
            "compose": (lambda: a1.compose(t1), lambda: a2.substitute(x, t2)),
        }
        for name, (one_variable, two_variables) in pairs.items():
            one, two = outcome(one_variable), outcome(two_variables)
            where = (name, ring.name)
            if isinstance(one, type):
                assert two is one, where
                continue
            assert not isinstance(two, type), where
            assert all(i == 0 for i, _ in two.coeffs), where
            back = two.restrict_first_zero()
            assert back.coeffs == one.coeffs, where
            assert (back.order, back.truncated) == (one.order, one.truncated), \
                where
