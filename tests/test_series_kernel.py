"""Property tests of the ring kernels behind series arithmetic: the
product kernel ``CoefficientRing.combine`` and the dot product ``dot``.

Products must give what the plain pairwise loop gives
(``util.product_by_pairs``) in all three rings: the same keys in the
same insertion order, the same values (float: the same raw mpmath
tuples), and the same order and truncated flag.  The data mix large
coprime denominators, complex floats with real ones, parameter
polynomials of different degrees whose products cancel, and truncated
operands.  Substitutions are checked against the same loop in
test_series_properties.  ``dot`` must give what folding ``ring.mul``
and ``ring.add`` over the pairs in order gives, bit for bit, and None
for no pairs."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfol.rings import ComplexApprox, ParamPolyRing, RationalExact
from pdfol.rings import rational
from pdfol.series import Series1, Series2
from util import SPECS, product_by_pairs, raw, spec_value

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")
RINGS = (QQ, CC, PB)
XZ = ("x", "z")

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def keys(top):
    """Keys (i, j) of total degree at most ``top``."""
    return st.integers(0, top).flatmap(
        lambda d: st.tuples(st.integers(0, d), st.just(d))).map(
        lambda t: (t[0], t[1] - t[0]))


FLAGS = st.sampled_from((False, False, True))


@st.composite
def series_data(draw):
    """(order, {key: spec}, truncated); keys reach one past the order, so
    construction truncates too, and most operands are exact polynomials,
    so a product's flag often comes from its own degree cut alone."""
    order = draw(st.integers(0, 6))
    return (order, draw(st.dictionaries(keys(order + 1), SPECS,
                                        max_size=7)), draw(FLAGS))


def build(ring, data):
    order, terms, truncated = data
    coeffs = {key: spec_value(ring, spec) for key, spec in terms.items()}
    return Series2(ring, XZ, order, coeffs, truncated=truncated)


def same(got, want, where):
    ring = want.ring
    assert ([(k, raw(ring, v)) for k, v in got.coeffs.items()]
            == [(k, raw(ring, v)) for k, v in want.coeffs.items()]), where
    assert (got.order, got.truncated) == (want.order, want.truncated), where


# ((1+b)*x*z + b*z^2)*(z - x): the b terms of x*z^2 cancel, leaving 1;
# ((1+b)*x + (1+b)*z)*(z - x): the x*z coefficient cancels to zero
CANCEL = (
    ((4, {(1, 1): ([1, 1], 0), (0, 2): ([0, 1], 0)}, False),
     (4, {(0, 1): ([1], 0), (1, 0): ([-1], 0)}, False)),
    ((4, {(1, 0): ([1, 1], 0), (0, 1): ([1, 1], 0)}, False),
     (4, {(0, 1): ([1], 0), (1, 0): ([-1], 0)}, False)),
)


@PROPERTY
@given(series_data(), series_data())
@example(*CANCEL[0])
@example(*CANCEL[1])
# two sums of rounded products at x*z, one real and one complex
@example((2, {(1, 0): ([rational(2, 3)], 0), (0, 1): ([rational(1, 7)], 0)},
          False),
         (2, {(0, 1): ([rational(5, 11)], rational(1, 5)),
              (1, 0): ([rational(1, 13)], 0)}, False))
# exact operands whose product has pairs past the order: x^2 * x^2 at 3
@example((3, {(2, 0): ([1], 0)}, False), (3, {(2, 0): ([1], 0)}, False))
@example((3, {(1, 0): ([rational(1, 999999999989)], rational(1, 3)),
              (0, 1): ([rational(-1, 999999999961)], 0)}, True),
         (5, {(2, 0): ([rational(7, 1000000007)], 0),
              (1, 2): ([rational(5, 998244353)], rational(-2, 7))}, False))
def test_products_match_pairwise_loop(a_data, b_data):
    for ring in RINGS:
        a, b = build(ring, a_data), build(ring, b_data)
        same(a * b, product_by_pairs(a, b), ring.name)
        a1, b1 = (Series1(ring, "z", s.order,
                          {j: c for (i, j), c in s.coeffs.items()
                           if i == 0}, truncated=s.truncated)
                  for s in (a, b))
        same(a1 * b1, product_by_pairs(a1, b1), ring.name)


def dot_by_fold(ring, pairs):
    acc = None
    for a, b in pairs:
        term = ring.mul(a, b)
        acc = term if acc is None else ring.add(acc, term)
    return acc


@PROPERTY
@given(st.lists(st.tuples(SPECS, SPECS), max_size=6))
@example([])
# a sum that cancels to zero, and complex terms among real ones
@example([(([1], 0), ([rational(2, 3)], 0)),
          (([-1], 0), ([rational(2, 3)], 0))])
@example([(([rational(1, 7)], rational(1, 3)), ([rational(5, 11)], 0)),
          (([rational(1, 999999999989)], 0), ([3], rational(-2, 7)))])
def test_dot_matches_pairwise_fold(spec_pairs):
    for ring in RINGS:
        pairs = [(spec_value(ring, a), spec_value(ring, b))
                 for a, b in spec_pairs]
        want = dot_by_fold(ring, pairs)
        for got in (ring.dot(pairs), ring.dot(iter(pairs))):
            if want is None:
                assert got is None, ring.name
            else:
                assert raw(ring, got) == raw(ring, want), ring.name
