import math
import random

import pytest

from pdfol.blowup import recenter
from pdfol.errors import MathError, PrecisionError
from pdfol.normal_form import (FiberedField, homological_step, normalize,
                               to_fibered_field, verify_conjugation)
from pdfol.rings import (ComplexApprox, ParamPolyRing, RationalExact,
                         rational)
from pdfol.series import Series2
from util import (apply_fibered, bound_bruteforce, expected_final,
                  fibered_model_form, invert_fiber, local_form,
                  normalize_by_products, raw, to_fibered_field_dense, ulps)

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")
XZ = ("x", "z")


def series(order, coeffs, ring=QQ):
    return Series2(ring, XZ, order, coeffs)


def test_homological_step_single_monomial():
    phi, kept = homological_step(series(3, {(1, 2): 1}), 2, 3)
    assert phi == series(3, {(1, 2): rational(-1, 3)})
    assert kept.is_zero()


def test_homological_step_obstruction():
    phi, kept = homological_step(series(2, {(2, 0): 5}), 2, 2)
    assert phi.is_zero()
    assert kept == series(2, {(2, 0): 5})


def test_homological_step_rejects_mixed_degrees():
    with pytest.raises(MathError):
        homological_step(series(3, {(1, 2): 1, (1, 0): 1}), 2, 3)


def test_model_is_its_own_normal_form():
    X = FiberedField(2, series(10, {(2, 0): 1}))
    res = normalize(X, 10)
    assert res.epsilon == 1
    assert res.transform.is_zero()
    assert res.residual_valuation is math.inf


def test_zero_tail():
    X = FiberedField(4, Series2.zero(QQ, XZ, 12))
    res = normalize(X, 12)
    assert QQ.is_zero(res.epsilon)
    assert res.transform.is_zero()


def test_single_step_elimination():
    X = FiberedField(2, series(8, {(1, 2): 1}))
    res = normalize(X, 8)
    assert QQ.is_zero(res.epsilon)
    assert res.transform.coefficient(1, 2) == rational(-1, 3)
    assert res.residual_valuation > 8


def test_invert_fiber_round_trip():
    phi = series(9, {(0, 2): 1, (2, 1): rational(-1, 2)})
    psi = invert_fiber(phi, 9)
    ex = series(9, {(1, 0): 1})
    z = series(9, {(0, 1): 1})
    # psi(x, z + phi) == z and psi + phi(x, psi) == z
    assert psi + phi.substitute(ex, psi) == z
    forward = z + phi
    assert psi.substitute(ex, forward) == z


def test_transport_recovery():
    N = 10
    base = series(N, {(2, 0): 1})          # m = 2, epsilon = 1
    bump = series(N, {(0, 2): 1})          # z -> z + z^2
    moved = apply_fibered(2, base, bump, N)
    assert moved != base
    res = normalize(FiberedField(2, moved), N)
    assert res.epsilon == 1
    assert verify_conjugation(FiberedField(2, moved), res.transform, 2,
                              res.epsilon, N) > N


def test_epsilon_invariant_under_fibered_transport():
    rng = random.Random(9301)
    for m in (2, 3):
        N = 9
        for _ in range(4):
            tail = {}
            for _ in range(5):
                i, j = rng.randrange(N), rng.randrange(3)
                if 2 <= i + j <= N:
                    tail[(i, j)] = rational(rng.randrange(-4, 5),
                                            rng.randrange(1, 4))
            a = series(N, tail)
            if not a.is_zero() and a.valuation() < 2:
                continue
            psi_c = {}
            for _ in range(3):
                i, j = rng.randrange(N), rng.randrange(3)
                if 2 <= i + j <= N:
                    psi_c[(i, j)] = rational(rng.randrange(-3, 4))
            bump = series(N, psi_c)
            if bump.is_zero():
                continue
            eps1 = normalize(FiberedField(m, a), N).epsilon
            moved = apply_fibered(m, a, bump, N)
            eps2 = normalize(FiberedField(m, moved), N).epsilon
            assert eps1 == eps2


def test_corrupted_transform_fails_verification():
    N = 8
    X = FiberedField(2, series(N, {(1, 2): 1, (2, 0): 3}))
    res = normalize(X, N)
    assert res.residual_valuation > N
    # (0,2) is not in the kernel of the homological operator, so this
    # perturbation must be detected
    bad = res.transform + series(N, {(0, 2): rational(1, 7)})
    assert verify_conjugation(X, bad, 2, res.epsilon, N) <= N


def test_obstruction_divisor_vanishes_only_at_x_power_m():
    for m in range(2, 21):
        for k in range(2, 61):
            for j in range(k + 1):
                i = k - j
                if i + m * (j - 1) == 0:
                    assert (i, j) == (m, 0)


def test_bound_bruteforce_values():
    assert bound_bruteforce(2, 500) == rational(3, 4)
    assert bound_bruteforce(6, 500) == rational(7, 36)
    assert bound_bruteforce(2, 3) == rational(3, 4)
    for m in (2, 3, 5, 8):
        want = rational(m + 1, m * m)
        assert bound_bruteforce(m, 60) == want
        # attained at (i, j) = (0, m+1)
        assert want == rational(m + 1, 0 + m * (m + 1 - 1))


def test_to_fibered_field_models():
    for m, coeff in ((2, 1), (3, 1), (6, 0)):
        F = to_fibered_field(fibered_model_form(m, coeff), m, 23)
        assert F.m == m
        if coeff:
            assert F.a == Series2(QQ, XZ, F.a.order, {(m, 0): rational(coeff)})
        else:
            assert F.a.is_zero()


def test_to_fibered_field_shear_kills_x_term():
    # x dz - (3z + 5x + x^2) dx needs the shear z -> z - (5/2) x
    omega_a = series(12, {(0, 1): -3, (1, 0): -5, (2, 0): -1})
    omega_b = series(12, {(1, 0): 1})
    from pdfol.forms import OneForm2
    F = to_fibered_field(OneForm2(omega_a, omega_b), 3, 11)
    assert F.a.valuation() >= 2
    assert QQ.is_zero(F.a.coefficient(1, 0))


def test_to_fibered_field_slope_mismatch():
    with pytest.raises(MathError):
        to_fibered_field(fibered_model_form(3, 1), 4, 23)


def test_to_fibered_field_rejects_bad_dz_coefficient():
    from pdfol.forms import OneForm2
    omega = OneForm2(series(8, {(0, 1): -2}), series(8, {(0, 1): 1}))
    with pytest.raises(MathError):
        to_fibered_field(omega, 2, 7)


def saddle_local(order, ring, b):
    """The recentred local form (m = 6) of d(y^2+x^4) - 5x^2(1+b*x)dy;
    b = 1 is the worked example."""
    return recenter(expected_final(2, rational(-5), (b,), ring=ring,
                                   order=order + 4), 2)


def saddle_fibered(order, b_value=None):
    if b_value is None:
        omega = saddle_local(order, PB, PB.generator)
    else:
        omega = saddle_local(order, QQ, rational(b_value))
    return to_fibered_field(omega, 6, order=order)


def test_fibered_unit_must_start_at_one():
    a = series(8, {(0, 2): 1})
    assert FiberedField(2, a).u == series(8, {(0, 0): 1})
    with pytest.raises(MathError):
        FiberedField(2, a, series(8, {(0, 0): 2, (1, 0): 1}))


def test_unit_tail_matches_the_dense_oracle():
    """to_fibered_field keeps the tail as a/u and normalize solves against
    u; the oracle forms the dense tail -A/U, shears all of it and solves
    by full products.  Exact and param phi and epsilon are identical;
    float epsilon sums in another order."""
    forms = [(saddle_local(N, ring, b), N) for N in (8, 12, 18)
             for ring, b in ((QQ, 1), (QQ, rational(-7, 3)), (CC, 1),
                             (CC, rational(-7, 3)), (PB, 1),
                             (PB, PB.generator))]
    for omega, N in forms:
        ring = omega.ring
        X = to_fibered_field(omega, 6, N)
        assert len(X.u.coeffs) > 1
        res = normalize(X, N)
        phi, epsilon = normalize_by_products(
            to_fibered_field_dense(omega, 6, N), N)
        if ring is CC:
            assert ulps(res.epsilon, epsilon) <= 64
        else:
            assert raw(ring, res.epsilon) == raw(ring, epsilon)
            assert {k: raw(ring, v) for k, v in res.transform.coeffs.items()} \
                == {k: raw(ring, v) for k, v in phi.coeffs.items()}


def test_saddle_fibered_shape():
    F = saddle_fibered(14, b_value=1)
    assert F.m == 6 and F.a.valuation() == 2


def test_saddle_epsilon_nonzero():
    res = normalize(saddle_fibered(12, b_value=1), 12)
    assert not QQ.is_zero(res.epsilon)


def test_float_check_rejects_epsilon_off_by_one():
    """The float check's sensitivity, pinned: epsilon is about 5.9e6 on
    the worked example and 1.4e10 on the (3, 9) saddle, and the
    transforms' coefficients grow far larger, so a floor scaled by the
    largest coefficient would let these offsets through.  A shift within
    tol of the magnitudes at x^m counts as roundoff and passes."""
    probes = (("d(y^2+x^4)-5*x^2*(1+x)*dy", (12, 18), 1, 1e-3),
              ("d(y^2+x^6) + -5*x^3*(1+x)*dy", (12, 14), 1e3, 1))
    for text, orders, caught, passed in probes:
        for N in orders:
            omega, m = local_form(text, "float", N)
            X = to_fibered_field(omega, m, order=N)
            res = normalize(X, N)
            assert res.residual_valuation > N
            for shift, want in ((caught, m), (passed, math.inf)):
                off = CC.add(res.epsilon, CC.coerce(shift))
                assert verify_conjugation(X, res.transform, m, off, N) \
                    == want, (text, N, shift)


def test_perturbed_transform_fails_at_its_degree():
    # u != 1 here, and u is a unit: a wrong phi coefficient of degree d
    # shows in W at degree d and no lower
    N = 12
    X = saddle_fibered(N, b_value=1)
    assert len(X.u.coeffs) > 1
    res = normalize(X, N)
    for d in range(2, N + 1):
        bad = res.transform + series(N, {(d - 1, 1): rational(1, 7)})
        assert verify_conjugation(X, bad, 6, res.epsilon, N) == d


def test_dicritical_family_epsilon_zero():
    # U = 1: the tail stays x-free, so nothing can reach x^m
    omega = recenter(expected_final(2, rational(-5), ()), 2)
    for N in (8, 12, 14):
        F = to_fibered_field(omega, 6, order=N)
        res = normalize(F, N)
        assert QQ.is_zero(res.epsilon)
        assert res.residual_valuation > N


def test_normalize_order_guards():
    X = FiberedField(6, Series2.zero(QQ, XZ, 12))
    with pytest.raises(PrecisionError):
        normalize(X, 5)
    small = FiberedField(2, Series2(QQ, XZ, 4, {(0, 2): 1, (0, 5): 1}))
    assert small.a.truncated
    with pytest.raises(PrecisionError):
        normalize(small, 10)
