import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfol.errors import MathError
from pdfol.forms import (OneForm2, PlaneVectorField, SingKind, classify_singularity,
                         cs_index, dual, eigenvalues, linear_part, report_at)
from pdfol.rings import ComplexApprox, ParamPolyRing, RationalExact, rational
from pdfol.series import Series2

from util import RATIONALS, SMALL, dual_field, matrix_eq, wedge

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def poly(order, coeffs, ring=QQ, variables=("x", "z")):
    return Series2(ring, variables, order, coeffs)


def random_series(rng, ring, order=5, terms=6):
    coeffs = {}
    for _ in range(terms):
        i, j = rng.randrange(order + 1), rng.randrange(order + 1)
        if i + j <= order:
            coeffs[(i, j)] = rational(rng.randrange(-9, 10), rng.randrange(1, 7))
    return Series2(ring, ("x", "z"), order, coeffs)


def test_dual_applied_twice_is_minus_identity():
    a = poly(4, {(1, 0): 3, (0, 2): rational(1, 2)})
    b = poly(4, {(0, 1): -1, (2, 1): 5})
    omega = OneForm2(a, b)
    again = dual_field(dual(omega))
    assert again.a == -a and again.b == -b


def test_dual_annihilates_form():
    rng = random.Random(7101)
    for _ in range(10):
        a = random_series(rng, QQ)
        b = random_series(rng, QQ)
        if a.is_zero() and b.is_zero():
            continue
        omega = OneForm2(a, b)
        X = dual(omega)
        pairing = omega.a * X.p1 + omega.b * X.p2
        assert pairing.is_zero()


def test_wedge_antisymmetric_and_bilinear():
    rng = random.Random(7102)
    for _ in range(8):
        parts = [random_series(rng, QQ) for _ in range(6)]
        if any(p.is_zero() for p in parts):
            continue
        w1, w2, w3 = (OneForm2(parts[2 * k], parts[2 * k + 1]) for k in range(3))
        assert wedge(w1, w2) == -wedge(w2, w1)
        lhs = wedge(OneForm2(w1.a + w2.a, w1.b + w2.b), w3)
        assert lhs == wedge(w1, w3) + wedge(w2, w3)


def saddle_after_two_blowups(ring, b_value):
    """The exceptional-chart form for the cuspidal family with p = 2,
    alpha = -5, unit 1 + b*x, before any recentering."""
    b = ring.coerce(b_value)
    a = Series2(ring, ("x", "z"), 8, {
        (0, 2): 4, (0, 0): 4, (0, 1): -10, (1, 1): ring.mul(b, ring.coerce(-10))})
    bb = Series2(ring, ("x", "z"), 8, {
        (1, 1): 2, (1, 0): -5, (2, 0): ring.mul(b, ring.coerce(-5))})
    return OneForm2(a, bb)


def recenter_z(omega, z0):
    ring = omega.ring
    order = omega.order
    ex = Series2(ring, omega.variables, order, {(1, 0): 1})
    ey = Series2(ring, omega.variables, order,
                 {(0, 1): 1, (0, 0): ring.coerce(z0)})
    return OneForm2(omega.a.substitute(ex, ey), omega.b.substitute(ex, ey))


def test_linear_part_at_recentered_root():
    omega = saddle_after_two_blowups(QQ, 1)
    shifted = recenter_z(omega, 2)
    L = linear_part(dual(shifted))
    expect = ((rational(-1), rational(0)), (rational(20), rational(-6)))
    assert matrix_eq(L, expect, QQ)


def test_linear_part_parametric():
    ring = ParamPolyRing("b")
    omega = saddle_after_two_blowups(ring, ring.generator)
    L = linear_part(dual(recenter_z(omega, 2)))
    assert ring.eq(L[0][0], ring.coerce(-1))
    assert ring.is_zero(L[0][1])
    assert ring.eq(L[1][0], ring.mul(ring.generator, ring.coerce(20)))
    assert ring.eq(L[1][1], ring.coerce(-6))


def test_linear_part_rejects_regular_point():
    omega = saddle_after_two_blowups(QQ, 1)
    with pytest.raises(MathError):
        linear_part(dual(recenter_z(omega, 1)))


def test_eigenvalues_triangular_exact():
    L = ((rational(-1), rational(0)), (rational(20), rational(-6)))
    (l1, l2), exact = eigenvalues(L, QQ)
    assert exact and l1 == -1 and l2 == -6


def test_eigenvalues_full_rational_discriminant():
    # [[1, 2], [3, 2]] has char poly t^2 - 3t - 4 = (t - 4)(t + 1)
    L = ((rational(1), rational(2)), (rational(3), rational(2)))
    (l1, l2), exact = eigenvalues(L, QQ)
    assert exact and {l1, l2} == {rational(4), rational(-1)}


def test_eigenvalues_irrational_fall_back_to_floats():
    """t^2 - t - 1 has no rational root: ``roots`` solves it numerically,
    in either order."""
    L = ((rational(1), rational(1)), (rational(1), rational(0)))
    pair, exact = eigenvalues(L, QQ)
    assert not exact
    l1, l2 = sorted(pair, key=lambda r: -r.real)
    assert abs(complex(l1) - 1.6180339887498949) < 1e-12
    assert abs(complex(l2) + 0.6180339887498949) < 1e-12


NONZERO = SMALL.filter(bool)


def conjugate_diagonal(a, b, p, q, r, s):
    """P diag(a, b) P^-1 for P = [[p, q], [r, s]]: off-diagonal entries
    pq(b - a)/det and rs(a - b)/det, so with a != b and p, q, r, s != 0
    it is not triangular."""
    det = p * s - q * r
    return (((p * s * a - q * r * b) / det, p * q * (b - a) / det),
            (r * s * (a - b) / det, (p * s * b - q * r * a) / det))


CONJUGATED = st.tuples(RATIONALS, RATIONALS, NONZERO, NONZERO, NONZERO,
                       NONZERO).filter(
    lambda t: t[0] != t[1] and t[2] * t[5] != t[3] * t[4])


@PROPERTY
@given(CONJUGATED)
def test_eigenvalues_of_a_full_matrix_exact(args):
    """Over Q, and over Q[b] for a constant matrix, the roots of the
    characteristic polynomial of P diag(a, b) P^-1 are a and b exactly,
    the larger first."""
    a, b = args[:2]
    M = conjugate_diagonal(*args)
    assert not any(e == 0 for row in M for e in row)
    for ring in (QQ, PB):
        L = tuple(tuple(ring.coerce(e) for e in row) for row in M)
        pair, exact = eigenvalues(L, ring)
        assert exact
        assert pair == (ring.coerce(max(a, b)), ring.coerce(min(a, b)))


@PROPERTY
@given(CONJUGATED)
def test_eigenvalues_of_a_full_matrix_numeric(args):
    """In the float ring the roots are numeric, and a and b within tol of
    the matrix's scale, which bounds the roundoff of its entries; an
    off-diagonal entry within tol of zero takes the triangular path."""
    a, b = args[:2]
    L = tuple(tuple(CC.coerce(e) for e in row)
              for row in conjugate_diagonal(*args))
    pair, exact = eigenvalues(L, CC)
    assert exact == (CC.is_zero(L[0][1]) or CC.is_zero(L[1][0]))
    assert len(pair) == 2
    scale = max(1, abs(a), abs(b))
    got = sorted(pair, key=lambda r: r.real)
    for r, want in zip(got, sorted((a, b))):
        assert CC.negligible(r - CC.coerce(want), scale)


def test_eigenvalues_of_a_non_constant_matrix_over_q_b():
    b = PB.generator
    L = ((PB.one, b), (PB.one, PB.zero))
    with pytest.raises(MathError, match="only found for linear factors"):
        eigenvalues(L, PB)


def classify(entries, ring=QQ):
    L = tuple(tuple(ring.coerce(e) for e in row) for row in entries)
    return classify_singularity(L, ring)


def test_classification_covers_all_kinds():
    assert classify([[0, 0], [0, 0]]).kind is SingKind.NON_ELEMENTARY
    assert classify([[0, 0], [1, 0]]).kind is SingKind.NON_ELEMENTARY
    assert classify([[3, 0], [0, 3]]).kind is SingKind.DICRITICAL_CANDIDATE
    assert classify([[1, 0], [0, 0]]).kind is SingKind.SADDLE_NODE
    res = classify([[1, 0], [0, -2]])
    assert res.kind is SingKind.RESONANT and res.ratio == rational(-1, 2)
    pd = classify([[-1, 0], [20, -6]])
    assert pd.kind is SingKind.POINCARE_DULAC_CANDIDATE and pd.m == 6
    pd2 = classify([[6, 0], [0, 1]])
    assert pd2.kind is SingKind.POINCARE_DULAC_CANDIDATE and pd2.m == 6
    pos = classify([[3, 0], [0, 2]])
    assert pos.kind is SingKind.POSITIVE_RATIONAL and pos.ratio == rational(3, 2)
    jordan = classify([[1, 0], [1, 1]])
    assert jordan.kind is SingKind.POSITIVE_RATIONAL and jordan.ratio == 1
    hyp = classify([[1, 1], [1, 0]])
    assert hyp.kind is SingKind.REDUCED_HYPERBOLIC and hyp.approximate


def test_classification_complex_ring():
    ring = ComplexApprox()
    got = classify([[-1, 0], [20, -6]], ring)
    assert got.kind is SingKind.POINCARE_DULAC_CANDIDATE and got.m == 6
    assert got.approximate
    center = classify([[0, -1], [1, 0]], ring)
    assert center.kind is SingKind.RESONANT


def test_classification_scalar_matrix_scaling_invariance():
    rng = random.Random(7103)
    for _ in range(20):
        entries = [[rational(rng.randrange(-5, 6), rng.randrange(1, 4))
                    for _ in range(2)] for _ in range(2)]
        L = tuple(tuple(row) for row in entries)
        try:
            before = classify_singularity(L, QQ)
        except MathError:
            continue
        c = rational(rng.randrange(1, 7), rng.randrange(1, 5))
        scaled = tuple(tuple(e * c for e in row) for row in L)
        after = classify_singularity(scaled, QQ)
        assert before.kind is after.kind
        if before.ratio is not None and not before.approximate:
            assert before.ratio == after.ratio


def test_cs_index_frozen_values():
    omega = saddle_after_two_blowups(QQ, 1)
    assert cs_index(dual(recenter_z(omega, 2))) == rational(1, 6)
    assert cs_index(dual(recenter_z(omega, rational(1, 2)))) == rational(-2, 3)


def test_cs_index_linear_model():
    # X = t1*x d/dx + t2*z d/dz has index t1/t2 on {x = 0}
    for (n1, d1), (n2, d2) in (((1, 1), (3, 1)), ((-2, 5), (1, 1)),
                               ((7, 4), (-2, 3))):
        t1, t2 = rational(n1, d1), rational(n2, d2)
        X = PlaneVectorField(poly(4, {(1, 0): t1}), poly(4, {(0, 1): t2}))
        assert cs_index(X) == t1 / t2


def test_cs_index_requires_invariant_divisor():
    X = PlaneVectorField(poly(4, {(0, 0): 1}), poly(4, {(0, 1): 1}))
    with pytest.raises(MathError):
        cs_index(X)


def test_cs_index_requires_singular_point():
    omega = saddle_after_two_blowups(QQ, 1)
    with pytest.raises(MathError):
        cs_index(dual(recenter_z(omega, 1)))


def test_cs_index_higher_order_zero():
    # X = x d/dx + z^2 d/dz: residue of 1/z^2 at 0 is 0
    X = PlaneVectorField(poly(4, {(1, 0): 1}), poly(4, {(0, 2): 1}))
    assert cs_index(X) == 0
    # X = x(1 + z) d/dx + z^2 d/dz: residue of (1+z)/z^2 is 1
    X2 = PlaneVectorField(poly(4, {(1, 0): 1, (1, 1): 1}), poly(4, {(0, 2): 1}))
    assert cs_index(X2) == 1


def test_report_at_bundles_everything():
    omega = saddle_after_two_blowups(QQ, 1)
    rep = report_at(recenter_z(omega, 2), 2)
    assert rep.type.kind is SingKind.POINCARE_DULAC_CANDIDATE
    assert rep.type.m == 6
    assert rep.cs == rational(1, 6)
    assert rep.eigen_exact
    doc = rep.json(QQ)
    assert doc["chart"] == "C1"
    assert doc["type"]["m"] == 6
    assert doc["cs_index"] == "1/6"
    assert doc["location"] == "2/1"
    assert doc["linear_part"] == [["-1/1", "0/1"], ["20/1", "-6/1"]]


def test_classification_invariant_under_linear_conjugation():
    # conjugating the field by an invertible linear map preserves the kind
    rng = random.Random(7104)
    for _ in range(15):
        L = tuple(tuple(rational(rng.randrange(-4, 5)) for _ in range(2))
                  for _ in range(2))
        try:
            base = classify_singularity(L, QQ)
        except MathError:
            continue
        while True:
            g = [[rational(rng.randrange(-3, 4)) for _ in range(2)]
                 for _ in range(2)]
            det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
            if det != 0:
                break
        inv = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]

        def mul(A, B):
            return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2))
                               for j in range(2)) for i in range(2))

        conj = mul(mul(g, L), inv)
        try:
            other = classify_singularity(conj, QQ)
        except MathError:
            continue
        assert base.kind is other.kind


def test_divisor_invariance_flag():
    omega = saddle_after_two_blowups(QQ, 1)
    assert omega.divisor_invariant()
    assert not OneForm2(poly(3, {(0, 1): 1}), poly(3, {(0, 0): 1})).divisor_invariant()
