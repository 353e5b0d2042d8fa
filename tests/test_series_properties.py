"""Property tests of the one-pass unit inverse, of the Camacho-Sad index,
which reads only low degrees of that inverse, of the agreement of the
one- and two-variable series, and of substitutions (some of whose
images are bare variables, and some of whose series read their images
at exponents with gaps) against explicit pairwise products, over
random series in all three rings."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfol.errors import NotInvertibleError, PdfolError, PrecisionError
from pdfol.blowup import recenter
from pdfol.forms import OneForm2, PlaneVectorField, cs_index, dual
from pdfol.rings import ComplexApprox, ParamPolyRing, RationalExact, rational
from pdfol.series import Series1, Series2
from util import (PRIMES, SPECS, inverse_unit_by_dot, product_by_pairs,
                  raw, spec_value)

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")
RINGS = (QQ, CC, PB)
XZ = ("x", "z")

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
NONZERO = st.integers(-4, 4).filter(bool)


def monomial(q, e):
    """The coefficient spec (see ``util.spec_value``) of q*b^e in the
    param ring, q in the others."""
    return [0] * e + [q], 0


MONOMIALS = st.builds(monomial, st.builds(rational, NONZERO,
                                          st.integers(1, 3)),
                      st.integers(0, 2))
# small q*b^e, or large coprime denominators, complex floats and
# b-polynomials of degree up to 2
COEFFICIENTS = st.one_of(MONOMIALS, SPECS)


@st.composite
def tails(draw, keys, values=MONOMIALS):
    """{key: coefficient spec}: a few nonconstant terms, by default with
    small coefficients q*b^e."""
    out = {}
    for _ in range(draw(st.integers(0, 5))):
        key = draw(keys)
        out[key] = draw(values)
    return out


@st.composite
def units(draw, keys, values=MONOMIALS):
    """(order, constant term, tail, truncated flag) of a random unit;
    the constant is a nonzero rational, the only kind of unit in Q[b]."""
    order = draw(st.integers(0, 8))
    u0 = rational(draw(NONZERO), draw(st.integers(1, 3)))
    return order, u0, draw(tails(keys, values)), draw(st.booleans())


KEYS1 = st.integers(1, 8)
KEYS2 = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
    lambda key: key != (0, 0))
# low keys, so that most degrees of the inverse hold several keys
LOW_KEYS2 = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)


def build1(ring, order, u0, tail, truncated):
    coeffs = {k: spec_value(ring, spec) for k, spec in tail.items()}
    if u0 is not None:
        coeffs[0] = ring.from_rational(u0)
    return Series1(ring, "z", order, coeffs, truncated=truncated)


def build2(ring, order, u0, tail, truncated):
    coeffs = {k: spec_value(ring, spec) for k, spec in tail.items()}
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
        check_inverse(u, Series1.monomial(ring, "z", order, 0),
                      build1(ring, order, None, tail, truncated))


@PROPERTY
@given(units(KEYS2))
def test_series2_unit_times_inverse_is_one(case):
    order, u0, tail, truncated = case
    for ring in RINGS:
        u = build2(ring, order, u0, tail, truncated)
        check_inverse(u, Series2.monomial(ring, XZ, order, (0, 0)),
                      build2(ring, order, None, tail, truncated))


@PROPERTY
@given(units(KEYS1, COEFFICIENTS), units(LOW_KEYS2, COEFFICIENTS))
def test_inverse_unit_matches_the_per_key_oracle(case1, case2):
    """Bit for bit and key for key: the per-degree combine sums each key
    in the order of the oracle's dot product, and stores the keys in the
    oracle's order."""
    for ring in RINGS:
        for u in (build1(ring, *case1), build2(ring, *case2)):
            got, want = u.inverse_unit(), inverse_unit_by_dot(u)
            assert [(k, raw(ring, v)) for k, v in got.coeffs.items()] == \
                [(k, raw(ring, v)) for k, v in want.coeffs.items()], ring.name
            assert (got.order, got.truncated) == (want.order, want.truncated)


def cs_index_full_order(field, z0):
    """The Camacho-Sad residue at (0, z0) with every operand kept at full
    order: the field translated by substitution, then coefficient s - 1
    of ptilde(0, .) / u, the formula cs_index shortens."""
    ring, order = field.ring, field.p2.order
    x = Series2.monomial(ring, field.variables, order, (1, 0))
    shift = Series2(ring, field.variables, order, {(0, 1): 1, (0, 0): z0})
    p1 = field.p1.substitute(x, shift)
    ptilde0 = p1.divide_monomial((1, 0)).restrict_first_zero()
    q0 = field.p2.substitute(x, shift).restrict_first_zero()
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
        local = recenter(OneForm2(-p2, p1), root)  # the form dual to (p1, p2)
        assert ring.eq(cs_index(dual(local)),
                       cs_index_full_order(PlaneVectorField(p1, p2), root)), \
            ring.name


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
    coeffs = {k: spec_value(ring, monomial(q, e))
              for k, (q, e) in tail.items()}
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


def substitute_by_products(series, images, one):
    """The substitution with every power formed by explicit pairwise
    products (``util.product_by_pairs``): image^e is e products from
    ``one``, a term's nonconstant factors multiply in variable order, and
    each product's terms merge in its own order.  ``series`` keys are
    exponent tuples or ints."""
    ring = series.ring
    terms = [(key if isinstance(key, tuple) else (key,), c)
             for key, c in series.coeffs.items()]
    # discarded terms may use any variable, so a truncated series refuses
    # every valuation-0 image, whether or not a stored term reads it
    if series.truncated and any(image.valuation() == 0 for image in images):
        raise PrecisionError("a valuation-0 image of a truncated series")
    order = min(series.order, *(image.order for image in images))
    dropped = series.truncated or any(image.truncated for image in images)
    acc = {}
    for exponents, c in terms:
        factors = [(e, image) for e, image in zip(exponents, images) if e]
        if any(image.is_zero() for _, image in factors):
            continue  # a power of zero: the term vanishes
        if sum(e * image.valuation() for e, image in factors) > order:
            dropped = True
            continue
        prod = one
        for e, image in factors:
            power = one
            for _ in range(e):
                power = product_by_pairs(power, image)
            prod = power if prod is one else product_by_pairs(prod, power)
        dropped = dropped or prod.truncated
        for pkey, pc in prod.coeffs.items():
            if sum(pkey if isinstance(pkey, tuple) else (pkey,)) > order:
                dropped = True
                continue
            term = ring.mul(c, pc)
            acc[pkey] = ring.add(acc[pkey], term) if pkey in acc else term
    return order, dropped, [(k, v) for k, v in acc.items()
                            if not ring.is_zero(v)]


ALMOST_ONE = rational(10 ** 12 + 1, 10 ** 12)


@st.composite
def substitution_cases(draw):
    """A series (order, constant, tail, truncated) and, per variable, an
    image: its own variable times 1 ("bare") or times 1 + 1e-12 ("almost"),
    or a random series, each with its own order and truncated flag.
    Image orders fall below the series order as often as above it.  Keys
    stay low, so that many series are exact polynomials and the flag
    comes from the substitution alone.  Coefficients are drawn from
    ``COEFFICIENTS``."""
    keys = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)

    order = draw(st.integers(0, 6))

    def image(own):
        kind = draw(st.sampled_from(("bare", "bare", "almost", "series")))
        image_order = max(0, order + draw(st.integers(-2, 2)))
        truncated = draw(st.booleans())
        if kind == "series":
            constant = draw(st.sampled_from((None, None, rational(1, 2))))
            tail = draw(tails(keys, COEFFICIENTS))
            tail[own] = tail.get(own, monomial(rational(draw(NONZERO)), 0))
            return kind, image_order, truncated, constant, tail
        return kind, image_order, truncated, None, {}
    series = (order, draw(st.sampled_from((None, rational(3)))),
              draw(tails(keys, COEFFICIENTS)), draw(st.booleans()))
    return series, image((1, 0)), image((0, 1))


def build_image(ring, data, own, build):
    """The image ``data`` describes; ``own`` is the key of its variable."""
    kind, order, truncated, constant, tail = data
    if kind != "series":
        tail = {own: monomial(rational(1) if kind == "bare" else ALMOST_ONE,
                              0)}
    return build(ring, order, constant, tail, truncated)


def same_substitution(got, want, where):
    if isinstance(want, type):
        assert got is want, where
        return
    assert not isinstance(got, type), where
    order, truncated, items = want
    ring = got.ring
    # a float result must match bit for bit, not within tol
    assert ([(k, raw(ring, v)) for k, v in got.coeffs.items()]
            == [(k, raw(ring, v)) for k, v in items]), where
    assert (got.order, got.truncated) == (order, truncated), where


@PROPERTY
@given(substitution_cases())
# exact data whose ladder product overflows the image order
@example(((4, None, {(0, 2): ([1], 0)}, False), ("bare", 4, False, None, {}),
          ("series", 2, False, None, {(0, 1): ([1], 0), (0, 2): ([1], 0)})))
# a series order below both image orders: the degree cut drops z^2
@example(((1, None, {(0, 1): ([1], 0), (1, 0): ([1], 0)}, False),
          ("bare", 3, False, None, {}),
          ("series", 3, False, None, {(0, 1): ([1], 0), (0, 2): ([1], 0)})))
# z -> z - x in (1+b)*x + b*z: the b terms at x cancel, leaving 1;
# in b*x + b*z the x coefficient cancels to zero
@example(((4, None, {(1, 0): ([1, 1], 0), (0, 1): ([0, 1], 0)}, False),
          ("bare", 4, False, None, {}),
          ("series", 4, False, None, {(0, 1): ([1], 0), (1, 0): ([-1], 0)})))
@example(((4, None, {(1, 0): ([0, 1], 0), (0, 1): ([0, 1], 0)}, False),
          ("bare", 4, False, None, {}),
          ("series", 4, False, None, {(0, 1): ([1], 0), (1, 0): ([-1], 0)})))
# a truncated series refuses a valuation-0 image that no stored term reads
@example(((0, None, {}, True),
          ("series", 0, False, rational(1, 2), {(1, 0): ([1], 0)}),
          ("bare", 0, False, None, {})))
# x -> x^2 on x*z^3: its least degree 5 exceeds the order 4, so the term
# only flags the result, with z bare and with z -> z - x
@example(((4, None, {(1, 3): ([1], 0), (0, 1): ([2], 0)}, False),
          ("series", 4, False, None, {(2, 0): ([1], 0)}),
          ("bare", 4, False, None, {})))
@example(((4, None, {(1, 3): ([1], 0), (0, 1): ([2], 0)}, False),
          ("series", 4, False, None, {(2, 0): ([1], 0)}),
          ("series", 4, False, None, {(0, 1): ([1], 0), (1, 0): ([-1], 0)})))
# a zero x image: its powers are empty and carry its flag
@example(((4, rational(3), {(1, 0): ([1], 0), (1, 2): ([1], 0),
                            (0, 2): ([5], 0)}, False),
          ("series", 4, False, None, {}), ("bare", 4, False, None, {})))
@example(((4, rational(3), {(1, 0): ([1], 0), (1, 2): ([1], 0),
                            (0, 2): ([5], 0)}, False),
          ("series", 4, True, None, {}), ("bare", 4, False, None, {})))
# x^5*z under a zero z image vanishes without building x^5, whose
# ladder would run past the order and flag the result
@example(((8, None, {(5, 1): ([1], 0)}, False),
          ("series", 5, False, None, {(3, 1): ([1], 0)}),
          ("series", 9, False, None, {})))
# x -> c*x^2, c = 10^4/p about 1e-5, on x^2 at order 2: the float ring
# reads the power c^2*x^4 as zero, but the term's least degree 4 still
# flags the result in every ring
@example(((2, None, {(2, 0): ([1], 0)}, False),
          ("series", 4, False, None,
           {(2, 0): ([rational(10 ** 4, PRIMES[2])], 0)}),
          ("bare", 4, False, None, {})))
# x^4*z^2 lies past the order 8 under x -> x^3, so z^4 takes the dense
# ladder z^3 * z, not z^2 * z^2, and its float sums keep their bits
@example(((8, None, {(0, 4): ([rational(245, 13)], 0), (4, 2): ([1], 0)},
           False),
          ("series", 8, False, None, {(3, 0): ([1], 0)}),
          ("series", 8, False, None,
           {(0, 1): ([rational(-6, 11)], 0), (0, 3): ([115], 0)})))
def test_bare_variable_images_shift_keys(case):
    """A substitution whose image is its own variable gives what explicit
    pairwise products of the power ladders give: the same coefficients
    (floats: the same raw tuples) in the same merge order, order and
    truncated flag.
    An image (1 + 1e-12)*x is not bare and still multiplies."""
    series_data, x_data, z_data = case
    for ring in RINGS:
        s = build2(ring, *series_data)
        images = (build_image(ring, x_data, (1, 0), build2),
                  build_image(ring, z_data, (0, 1), build2))
        one = Series2.monomial(ring, XZ, min(i.order for i in images),
                               (0, 0))
        same_substitution(outcome(lambda: s.substitute(*images)),
                          outcome(lambda: substitute_by_products(
                              s, images, one)), ring.name)
        # one variable: the same data with x^i*z^j read as z^(i+j)
        order, u0, tail, truncated = series_data
        s1 = build1(ring, order, u0, {i + j: t for (i, j), t in tail.items()},
                    truncated)
        kind, img_order, img_truncated, constant, img_tail = x_data
        img_tail = {i + j: t for (i, j), t in img_tail.items()}
        inner = build_image(ring, (kind, img_order, img_truncated, constant,
                                   img_tail), 1, build1)
        one1 = Series1.monomial(ring, "z", inner.order, 0)
        same_substitution(outcome(lambda: s1.compose(inner)),
                          outcome(lambda: substitute_by_products(
                              s1, (inner,), one1)), ring.name)


@st.composite
def gapped_cases(draw):
    """A one-variable series and an image of valuation >= 1, each with
    its own order and truncated flag.  The series has terms at a few
    exponents up to 12, or, one time in three, at every exponent of a
    range: with no gaps."""
    order = draw(st.integers(2, 12))
    if draw(st.integers(0, 2)):
        exponents = draw(st.sets(st.integers(0, 12), min_size=1, max_size=4))
    else:
        low, top = draw(st.integers(0, 1)), draw(st.integers(1, 12))
        exponents = range(low, top + 1)
    terms = {e: draw(COEFFICIENTS) for e in exponents}
    image = draw(tails(st.integers(1, 4), COEFFICIENTS))
    image.setdefault(1, monomial(rational(draw(NONZERO)), 0))
    return ((order, None, terms, draw(st.booleans())),
            (max(1, order + draw(st.integers(-2, 2))), None, image,
             draw(st.booleans())))


@PROPERTY
@given(gapped_cases())
# reads 2 and 5: z^5 = z^3 * z^2, not z^4 * z
@example(((8, None, {2: ([1], 0), 5: ([rational(1, 3)], 0)}, False),
          (8, None, {1: ([2], 0), 2: ([rational(-1, 7)], rational(1, 5))},
           False)))
# no gaps, and float sums whose bits depend on the order of each product
@example(((8, None, {e: ([rational(1, e + 2)], 0) for e in range(1, 7)},
           False),
          (8, None, {1: ([rational(3, 7)], rational(1, 3)),
                     2: ([rational(-1, 7)], rational(1, 5)),
                     3: ([rational(5, 11)], 0)}, False)))
# the model generators' shape: 1, 1 + m, 1 + 2m, ...
@example(((12, None, {1: ([1], 0), 4: ([1, 1], 0), 7: ([2], 1),
                      10: ([rational(1, 3)], 0)}, True),
          (12, None, {1: ([3], 0), 4: ([rational(1, 11)], 0),
                      7: ([1, 0, 1], 0)}, False)))
def test_gapped_powers_match_the_dense_ladder(case):
    """A composition builds only the powers its terms read, as
    image^e = image^d * image^(e-d).  It must equal the dense ladder of
    ``substitute_by_products`` in the exact and param rings, and in the
    float ring too, bit for bit, when the exponents read are 1..E with
    no gaps; with gaps, float values only agree within tolerance."""
    series_data, image_data = case
    for ring in RINGS:
        s = build1(ring, *series_data)
        inner = build1(ring, *image_data)
        one = Series1.monomial(ring, "z", inner.order, 0)
        got = s.compose(inner)
        want = substitute_by_products(s, (inner,), one)
        order = min(s.order, inner.order)
        reads = {e for e in s.coeffs if e and e * inner.valuation() <= order}
        if ring is not CC or reads == set(range(1, max(reads, default=0) + 1)):
            same_substitution(got, want, ring.name)
        else:
            order, truncated, items = want
            assert (got.order, got.truncated) == (order, truncated)
            assert CC.series_close(got, s._like(order, dict(items), truncated))
