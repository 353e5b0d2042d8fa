"""Property tests of the one-pass normal form against the transport
oracle ``apply_fibered``, over random tails in all three rings."""

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfol.normal_form import FiberedField, normalize, verify_conjugation
from pdfol.rings import ComplexApprox, ParamPolyRing, RationalExact, rational
from pdfol.series import Series2
from util import apply_fibered, normalize_by_products, raw, ulps

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")
RINGS = (QQ, CC, PB)
XZ = ("x", "z")

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
NONZERO = st.integers(-4, 4).filter(bool)


@st.composite
def terms(draw, N, max_j, low=2):
    """{(i, j): (q, e)} with low <= i + j <= N: the coefficient q*b^e."""
    out = {}
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(low, N))
        j = draw(st.integers(0, min(k, max_j)))
        out[(k - j, j)] = (rational(draw(NONZERO), draw(st.integers(1, 3))),
                           draw(st.integers(0, 2)))
    return out


@st.composite
def cases(draw):
    m = draw(st.sampled_from((2, 3, 6)))
    N = draw(st.integers(m, min(m + 3, 8)))
    return m, N, draw(terms(N, 3)), draw(terms(N, 2))


def in_ring(ring, spec, N):
    """The series of spec in ring; param keeps b^e, the others set b = 1."""
    coeffs = {}
    for key, (q, e) in spec.items():
        c = ring.from_rational(q)
        if ring is PB:
            c = ring.mul(c, ring.generator ** e)
        coeffs[key] = c
    return Series2(ring, XZ, N, coeffs)


def float_floor(diff, *operands):
    """diff with float roundoff dropped: coefficients at most tol times
    the squared largest operand coefficient; exact rings pass through."""
    if diff.ring is not CC:
        return diff
    scale = max([1.0] + [float(abs(c)) for s in operands
                         for c in s.coeffs.values()])
    bound = CC.tol * max(1.0, scale ** 2)
    acc = {key: c for key, c in diff.coeffs.items()
           if abs(mpmath.mpc(c)) > bound}
    return Series2._raw(diff.ring, diff.variables, diff.order, acc,
                        diff.truncated)


@PROPERTY
@given(cases())
def test_transform_carries_tail_to_model(case):
    m, N, tail, _ = case
    for ring in RINGS:
        a = in_ring(ring, tail, N)
        res = normalize(FiberedField(m, a), N)
        assert res.residual_valuation > N
        moved = apply_fibered(m, a, res.transform, N)
        model = Series2.monomial(ring, XZ, N, (m, 0), res.epsilon)
        left = float_floor(moved - model, a, res.transform)
        assert left.valuation() > N, ring.name


@PROPERTY
@given(cases())
def test_epsilon_invariant_under_random_bump(case):
    m, N, tail, bump = case
    for ring in RINGS:
        a = in_ring(ring, tail, N)
        phi = in_ring(ring, bump, N)
        eps = normalize(FiberedField(m, a), N).epsilon
        moved = apply_fibered(m, a, phi, N)
        assert ring.eq(normalize(FiberedField(m, moved), N).epsilon, eps), \
            ring.name


@PROPERTY
@given(cases())
def test_epsilon_agrees_across_rings(case):
    m, N, tail, _ = case
    exact = normalize(FiberedField(m, in_ring(QQ, tail, N)), N).epsilon
    approx = normalize(FiberedField(m, in_ring(CC, tail, N)), N).epsilon
    assert CC.eq(approx, CC.from_rational(exact))
    param = normalize(FiberedField(m, in_ring(PB, tail, N)), N).epsilon
    assert sum(param.coeffs, rational(0)) == exact       # value at b = 1


@PROPERTY
@given(cases())
def test_wrong_epsilon_fails_verification(case):
    m, N, tail, _ = case
    for ring in RINGS:
        X = FiberedField(m, in_ring(ring, tail, N))
        res = normalize(X, N)
        off = ring.add(res.epsilon, ring.one)
        assert verify_conjugation(X, res.transform, m, off, N) <= N, \
            ring.name


@PROPERTY
@given(cases())
def test_online_solve_matches_the_full_product_oracle(case):
    """The exact rings give the oracle's phi and epsilon exactly; the
    float ring sums each slice in another order, so epsilon moves by a
    few units in the last place at most."""
    m, N, tail, _ = case
    for ring in RINGS:
        X = FiberedField(m, in_ring(ring, tail, N))
        res = normalize(X, N)
        phi, epsilon = normalize_by_products(X, N)
        if ring is CC:
            assert ulps(res.epsilon, epsilon) <= 8
        else:
            assert raw(ring, res.epsilon) == raw(ring, epsilon), ring.name
            assert {k: raw(ring, v) for k, v in res.transform.coeffs.items()} \
                == {k: raw(ring, v) for k, v in phi.coeffs.items()}, ring.name


@PROPERTY
@given(cases(), terms(8, 2, low=1))
def test_solve_over_a_unit_matches_the_dense_oracle(case, unit):
    """With u != 1, normalize divides by u one slice at a time and the
    check multiplies through by it; the oracle solves the dense tail a/u
    by full products."""
    m, N, tail, _ = case
    unit[(0, 0)] = (rational(1), 0)
    for ring in RINGS:
        X = FiberedField(m, in_ring(ring, tail, N), in_ring(ring, unit, N))
        res = normalize(X, N)
        phi, epsilon = normalize_by_products(X, N)
        if ring is CC:
            assert ulps(res.epsilon, epsilon) <= 64
        else:
            assert raw(ring, res.epsilon) == raw(ring, epsilon), ring.name
            assert {k: raw(ring, v) for k, v in res.transform.coeffs.items()} \
                == {k: raw(ring, v) for k, v in phi.coeffs.items()}, ring.name
