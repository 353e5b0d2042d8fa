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
for no pairs.

The float ring runs both kernels and ``mul`` on integer mantissas, so
they are also checked against a fold of mpmath's ``mpc_mul`` and
``mpc_add`` at 53, 64, 120 and 200 bits, over values built to meet ties
to even, exponent gaps of more than 100 bits (where ``mpf_add`` perturbs
instead of adding exactly, and gives other bits for an exact product),
zero and negative parts, and exact cancellation to 0; and the parts
that ``_join`` builds are checked against ``from_man_exp``."""

import operator

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (from_man_exp, mpc_add, mpc_mul, mpf_mul, mpf_neg,
                          mpf_pos, mpf_sub, round_nearest)

from pdfol import rings
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


# ---------------------------------------------------------------- float
# The float kernels against a fold of mpmath's own mpc_mul and mpc_add.
# An element is drawn as two (mantissa, exponent) parts rounded to the
# ring's precision; wide exponents give gaps of more than 100 bits
# between the parts of a product (mpf_add's perturbation branch).

FLOAT_PRECISIONS = (53, 64, 120, 200)
PARTS = st.tuples(st.one_of(st.integers(-3, 3),
                            st.integers(-2 ** 200, 2 ** 200)),
                  st.one_of(st.integers(-4, 4), st.integers(-400, 400)))
ELEMENTS = st.tuples(PARTS, PARTS)


def float_element(spec, prec):
    (rm, re), (im, ie) = spec
    return mpmath.mp.make_mpc((from_man_exp(rm, re, prec, round_nearest),
                               from_man_exp(im, ie, prec, round_nearest)))


def perturbed_pair(prec, gap=None):
    """Element specs (a, b) whose product's real part a_r*b_r - a_i*b_i
    takes mpf_add's perturbation branch and there differs from the
    exact difference rounded once: a_r*b_r has 2*prec - 3 bits, and its
    bits below the kept ones are one unit above the midpoint, while
    a_i*b_i, ``gap`` > 100 exponents below, is about 2^(2*prec - 2 - gap)
    such units, 8 by default.  At gap 100, and at gap prec + 6 where the
    magnitudes lie prec + 4 bits apart, the branch is just not taken."""
    gap = 2 * prec - 5 if gap is None else gap
    n = prec - 3
    ar = (1 << prec) - 1
    while True:
        br = pow(ar, -1, 1 << n) * ((1 << n - 1) + 1) % (1 << n)
        if (ar * br).bit_length() == prec + n:
            break
        ar -= 2
    return (((ar, 0), ((1 << prec - 1) + 1, -gap)),
            ((br, 0), ((1 << prec - 1) + 3, 0)))


def swapped(pair):
    """The pair with real and imaginary parts swapped in both elements:
    the real part of the product is negated, and its larger term comes
    second."""
    return tuple((im, re) for re, im in pair)


def ties(prec):
    """Pairs whose rounding meets exact ties: a real product 3*(2^(prec-1)
    - 1) of prec + 1 bits, alone and then less 2^-300 (a perturbation
    that decides the tie) as the first and as the second term, and a sum
    (2^prec - 1)*2 + 1."""
    odd = (1 << prec - 1) - 1
    return [(((3, 0), (0, 0)), ((odd, 0), (0, 0))),
            (((3, 0), (1, -300)), ((odd, 0), (1, 0))),
            (((1, -300), (3, 0)), ((1, 0), (odd, 0))),
            ((((1 << prec) - 1, 1), (0, 0)), ((1, 0), (0, 0))),
            (((1, 0), (0, 0)), ((1, 0), (0, 0)))]


def fold(prec, pairs):
    acc = None
    for a, b in pairs:
        p = mpc_mul(a._mpc_, b._mpc_, prec, round_nearest)
        acc = p if acc is None else mpc_add(acc, p, prec, round_nearest)
    return acc


def test_perturbed_pair_takes_the_perturbation_branch():
    """The example below is worth its place: exact rounding gives other
    bits than mpc_mul there."""
    for prec in FLOAT_PRECISIONS:
        a, b = (float_element(s, prec) for s in perturbed_pair(prec))
        (ar, ai), (br, bi) = a._mpc_, b._mpc_
        p, q = mpf_mul(ar, br), mpf_mul(ai, bi)
        exact = mpf_pos(mpf_sub(p, q), prec, round_nearest)
        assert mpc_mul(a._mpc_, b._mpc_, prec, round_nearest)[0] != exact
        a, b = (float_element(s, prec) for s in swapped(perturbed_pair(prec)))
        assert (mpc_mul(a._mpc_, b._mpc_, prec, round_nearest)[0]
                != mpf_neg(exact))


@PROPERTY
@given(st.lists(st.tuples(ELEMENTS, ELEMENTS), max_size=6))
@example([])
@example([perturbed_pair(53), swapped(perturbed_pair(53))])
@example([perturbed_pair(64), swapped(perturbed_pair(64))])
@example([perturbed_pair(200), swapped(perturbed_pair(200))])
@example([q for p in (perturbed_pair(53, 100), perturbed_pair(200, 206),
                      perturbed_pair(200, 207)) for q in (p, swapped(p))])
@example(ties(53))
@example(ties(64))
@example(ties(200))
# an exact cancellation to 0, and real parts that cancel in a product
@example([(((5, 3), (-7, 1)), ((9, 0), (1, -2))),
          (((-5, 3), (7, 1)), ((9, 0), (1, -2)))])
@example([(((3, 0), (3, 0)), ((5, 2), (5, 2)))])
def test_float_dot_is_a_fold_of_mpc_mul_and_mpc_add(specs):
    """Each pair alone too, so that no sum hides a product's last bit,
    and ``mul`` of each pair is ``mpc_mul``'s."""
    for prec in FLOAT_PRECISIONS:
        ring = ComplexApprox(precision=prec)
        pairs = [(float_element(a, prec), float_element(b, prec))
                 for a, b in specs]
        assert ([ring.mul(a, b)._mpc_ for a, b in pairs]
                == [mpc_mul(a._mpc_, b._mpc_, prec, round_nearest)
                    for a, b in pairs]), prec
        for chunk in [pairs] + [[pair] for pair in pairs]:
            got, want = ring.dot(chunk), fold(prec, chunk)
            if want is None:
                assert got is None
            else:
                assert got._mpc_ == want, prec


@st.composite
def combine_cases(draw):
    """Terms (shift, left spec, index of a right dict) over at most three
    right dicts, so that terms share them, and an order that cuts some
    pairs."""
    rights = draw(st.lists(st.dictionaries(st.integers(0, 4), ELEMENTS,
                                           max_size=4), min_size=1,
                           max_size=3))
    terms = draw(st.lists(st.tuples(st.integers(0, 4), ELEMENTS,
                                    st.integers(0, len(rights) - 1)),
                          max_size=5))
    return draw(st.integers(0, 8)), terms, rights


@PROPERTY
@given(combine_cases())
@example((8, [(0, perturbed_pair(64)[0], 0), (1, ties(64)[1][0], 0)],
          [{0: perturbed_pair(64)[1], 1: ties(64)[1][1]}]))
@example((8, [(0, ((5, 3), (-7, 1)), 0), (0, ((-5, 3), (7, 1)), 0)],
          [{2: ((9, 0), (1, -2))}]))
def test_float_combine_is_a_fold_of_mpc_mul_and_mpc_add(case):
    order, term_specs, right_specs = case
    for prec in FLOAT_PRECISIONS:
        ring = ComplexApprox(precision=prec)
        rights = [{k: float_element(v, prec) for k, v in r.items()}
                  for r in right_specs]
        terms = [(shift, float_element(a, prec), rights[i])
                 for shift, a, i in term_specs]
        acc, cut = {}, False
        for shift, a, right in terms:
            for key, b in right.items():
                if shift + key > order:
                    cut = True
                    continue
                acc.setdefault(shift + key, []).append((a, b))
        want = [(key, fold(prec, pairs)) for key, pairs in acc.items()]
        want = [(key, v) for key, v in want
                if not ring.is_zero(mpmath.mp.make_mpc(v))]
        got, got_cut = ring.combine(terms, order, int, operator.add)
        assert [(key, v._mpc_) for key, v in got.items()] == want, prec
        assert got_cut == cut


MANTISSAS = st.one_of(st.integers(-8, 8), st.integers(-2 ** 300, 2 ** 300),
                      st.builds(lambda k, e, s: s * (2 * k + 1) << e,
                                st.integers(0, 2 ** 70), st.integers(0, 300),
                                st.sampled_from((1, -1))))


@PROPERTY
@given(MANTISSAS, st.integers(-500, 500), MANTISSAS, st.integers(-500, 500))
@example(0, 7, 0, -3)
@example(-(1 << 64), 0, 1 << 200, -1000)
@example(6, -1, -1024, 2)
def test_join_builds_the_parts_of_from_man_exp(rm, re, im, ie):
    """Zero parts, odd mantissas, and even ones with up to 300 trailing
    zero bits: the same sign, mantissa, exponent and bit count, as ints."""
    got = rings._join(rm, re, im, ie)._mpc_
    want = (from_man_exp(rm, re), from_man_exp(im, ie))
    assert got == want
    assert [list(map(type, part)) for part in got] == [
        list(map(type, part)) for part in want]
