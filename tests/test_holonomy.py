"""Formal diffeomorphism algebra, holonomy generators, numeric transport."""

import cmath
import math
import os
import random
import subprocess
import sys

import mpmath
import pytest

import pdfol
from pdfol.blowup import blowup_chain
from pdfol.errors import InputError, MathError, PrecisionError
from pdfol.forms import OneForm2, cs_index, dual
from pdfol.holonomy import (FormalDiffeo1, VectorField1, _dop853, compose,
                            dichotomy, diffeo_close, exp_vf, group_commutator,
                            group_model, inverse, is_identity, log_diffeo,
                            numeric_holonomy, pd_holonomy_model, periodicity,
                            sz_lambda)
from pdfol.parser import parse_expr
from pdfol.rings import ComplexApprox, rational
from pdfol.series import Series1, Series2

from util import (QQ, commutes_with_scaling, conjugate, dop853_by_dot,
                  fibered_model_form, holonomy_by_sum)

CC = ComplexApprox()


def rat(n, d=1):
    return rational(n, d)


def vf(coeffs, order=10, ring=QQ):
    return VectorField1(Series1(ring, "x", order, coeffs))


def random_field(rng, order, ring=QQ):
    coeffs = {k: rat(rng.randint(-4, 4), rng.randint(1, 3))
              for k in range(2, order)}
    return VectorField1(Series1(ring, "x", order, coeffs))


def random_diffeo(rng, order, ring=QQ):
    mult = rat(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    tail = {k: rat(rng.randint(-3, 3), rng.randint(1, 3))
            for k in range(2, order)}
    return FormalDiffeo1(ring.coerce(mult), Series1(ring, "x", order, tail))


# ------------------------------------------------------------ exp and log


def test_exp_geometric_flow():
    # closed-form time-1 flow of x^2 d/dx is x/(1-x)
    h = exp_vf(vf({2: 1}, order=6), 6)
    assert h.series() == Series1(QQ, "x", 6, {k: 1 for k in range(1, 7)})


def test_exp_zero_field_is_identity():
    h = exp_vf(vf({}, order=8), 8)
    assert h.multiplier == rat(1)
    assert h.tail.is_zero()


def test_exp_of_an_exact_field_reads_zeros_past_its_order():
    # x^2 d/dx known exactly: its flow x/(1-x) is found to any order
    h = exp_vf(vf({2: 1}, order=4), 8)
    assert h.series() == Series1(QQ, "x", 8, {k: 1 for k in range(1, 9)})
    assert h.order == 8


def test_flows_and_log_need_a_series_known_to_N():
    field = Series1(QQ, "x", 6, {3: 1}, truncated=True)
    with pytest.raises(PrecisionError,
                       match=r"^flow field known only to order 6 < N = 8$"):
        exp_vf(VectorField1(field), 8)
    with pytest.raises(PrecisionError, match="^flow field"):
        group_model(2, 2, VectorField1(Series1(CC, "x", 6, {3: 1},
                                               truncated=True)), 8)
    with pytest.raises(PrecisionError, match=r"^diffeomorphism known only "
                                             r"to order 6 < N = 8$"):
        log_diffeo(FormalDiffeo1(QQ.coerce(1), field), 8)
    assert exp_vf(VectorField1(field), 6).tail.truncated
    assert log_diffeo(FormalDiffeo1(QQ.coerce(1), field), 6).f.order == 6


def test_exp_rejects_low_valuation():
    with pytest.raises(MathError):
        vf({1: 1})


def test_flow_additivity():
    rng = random.Random(2718)
    for _ in range(5):
        Y = random_field(rng, 9)
        t = rat(rng.randint(-3, 3), rng.randint(1, 4))
        s = rat(rng.randint(-3, 3), rng.randint(1, 4))
        left = compose(exp_vf(Y.scale(t), 9), exp_vf(Y.scale(s), 9))
        right = exp_vf(Y.scale(t + s), 9)
        assert left.series() == right.series()


def test_exp_log_round_trip():
    rng = random.Random(31415)
    for _ in range(5):
        Y = random_field(rng, 9)
        back = log_diffeo(exp_vf(Y, 9), 9)
        assert back.f == Y.f


def test_log_rejects_multiplier():
    h = FormalDiffeo1.linear(QQ, "x", 8, 2)
    with pytest.raises(MathError):
        log_diffeo(h, 8)


# -------------------------------------------------------------- group ops


def test_compose_with_inverse_is_identity():
    rng = random.Random(1618)
    for _ in range(5):
        h = random_diffeo(rng, 9)
        assert is_identity(compose(h, inverse(h)))
        assert is_identity(compose(inverse(h), h))


def test_compose_multiplier_is_product():
    rng = random.Random(99)
    g = random_diffeo(rng, 8)
    h = random_diffeo(rng, 8)
    assert compose(g, h).multiplier == QQ.mul(g.multiplier, h.multiplier)


def _pushforward(Y, phi, order):
    """(phi_* Y)(x) = phi'(phi^{-1} x) * f(phi^{-1} x)."""
    g = inverse(phi).series()
    der = phi.series().derive()
    der = Series1._raw(der.ring, der.variable, order, dict(der.coeffs),
                       der.truncated)
    return VectorField1((der.compose(g) * Y.f.compose(g)).truncate(order))


def test_conjugation_naturality():
    rng = random.Random(8128)
    for _ in range(4):
        Y = random_field(rng, 8)
        phi = random_diffeo(rng, 8)
        left = conjugate(exp_vf(Y, 8), phi)
        right = exp_vf(_pushforward(Y, phi, 8), 8)
        assert left.series() == right.series()


def test_scaling_commutes_with_model_exp():
    h = pd_holonomy_model(6, 13)
    tangent = FormalDiffeo1(CC.coerce(1),
                            h.tail.scale(CC.invert(h.multiplier)))
    mu = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi) / 6)
    left = compose(FormalDiffeo1.linear(CC, "x", 13, mu), tangent)
    right = compose(tangent, FormalDiffeo1.linear(CC, "x", 13, mu))
    assert diffeo_close(left, right)


# ------------------------------------------------------------ model + ODE


def test_pd_model_m2_series():
    h = pd_holonomy_model(2, 3)
    s = h.series()
    assert abs(mpmath.mpc(h.multiplier) + 1) < 1e-15
    assert abs(mpmath.mpc(s.coefficient(1)) + 1) < 1e-15
    assert abs(mpmath.mpc(s.coefficient(2))) < 1e-15
    assert abs(mpmath.mpc(s.coefficient(3)) - mpmath.mpc(0, mpmath.pi / 2)) < 1e-15


def test_pd_model_multiplier_is_root_of_unity():
    for m in (2, 3, 5, 6):
        h = pd_holonomy_model(m, 6)
        assert abs(mpmath.mpc(h.multiplier) ** m - 1) <= 1e-12


def test_formal_vs_numeric_transport():
    for m in (2, 3):
        omega = fibered_model_form(m, 1, order=20)
        formal = pd_holonomy_model(m, 14)
        for x0 in (0.05, 0.03):
            end, = numeric_holonomy(omega, 0, 1.0, [x0])
            assert abs(end - formal.evaluate(x0)) < 1e-6


def test_trivial_foliations_have_identity_holonomy():
    variables = ("x", "z")
    # leaves x = const: the divisor itself is a leaf, nothing moves
    omega_dx = OneForm2(Series2(QQ, variables, 6, {(0, 0): 1}),
                        Series2.zero(QQ, variables, 6))
    for x0, end in zip([0.05, 0.2], numeric_holonomy(omega_dx, 0, 1.0,
                                                     [0.05, 0.2])):
        assert abs(end - x0) < 1e-9
    # leaves z = const, looped in their own coordinate via the swap
    omega_dz = OneForm2(Series2.zero(QQ, variables, 6),
                        Series2(QQ, variables, 6, {(0, 0): 1}))
    for x0, end in zip([0.05, 0.2],
                       numeric_holonomy(omega_dz.swapped(), 0, 1.0,
                                        [0.05, 0.2])):
        assert abs(end - x0) < 1e-9


def test_corner_multiplier_matches_index():
    # 2z dx + x dz: linearizable corner, index -1/2, multiplier
    # e^{2*pi*i*(-1/2)} = -1 at every radius since the lift is linear
    variables = ("x", "z")
    omega = OneForm2(Series2(QQ, variables, 8, {(0, 1): 2}),
                     Series2(QQ, variables, 8, {(1, 0): 1}))
    index = cs_index(dual(omega))
    assert index == rat(-1, 2)
    target = mpmath.exp(2j * mpmath.pi * mpmath.mpf(-0.5))
    for x0 in (0.01, 0.001):
        end, = numeric_holonomy(omega, 0, 1.0, [x0])
        assert abs(end / x0 - target) < 1e-8


def test_numeric_holonomy_rejects_singular_loop():
    omega = fibered_model_form(2, 1, order=12)
    with pytest.raises(MathError):
        numeric_holonomy(omega, 1.0, 1.0, [0.05])  # circle through z = 0
    zero_a = OneForm2(Series2.zero(QQ, ("x", "z"), 6),
                      Series2(QQ, ("x", "z"), 6, {(0, 0): 1}))
    with pytest.raises(MathError):
        numeric_holonomy(zero_a, 0, 1.0, [0.05])
    with pytest.raises(InputError):
        numeric_holonomy(omega, 0, -1.0, [0.05])


@pytest.mark.parametrize("center, radius, samples", [
    (0, math.nan, [0.05]), (0, math.inf, [0.05]), (0, 0.0, [0.05]),
    (0, 1.0, [math.nan]), (0, 1.0, [0.05, math.inf]),
    (0, 1.0, [complex(0.05, -math.inf)]), (math.nan, 1.0, [0.05]),
    (complex(math.inf, 0), 1.0, [0.05])])
def test_numeric_holonomy_rejects_non_finite_input(center, radius, samples):
    omega = fibered_model_form(2, 1, order=12)
    with pytest.raises(InputError):
        numeric_holonomy(omega, center, radius, samples)


def test_numeric_holonomy_batch_matches_single_samples():
    """Each sample is integrated on its own, so a batch is exactly the
    single-sample runs."""
    omega = parse_expr("x*dy - 3*y*dx - x^3*dx", "float", 20).form
    xs = [0.01, 0.03, 0.05, complex(0.02, 0.02)]
    batch = numeric_holonomy(omega, 0, 1.0, xs)
    assert len(batch) == len(xs)
    for x0, end in zip(xs, batch):
        single, = numeric_holonomy(omega, 0, 1.0, [x0])
        assert end == single, x0
    assert numeric_holonomy(omega, 0, 1.0, []) == []


STALLS = pytest.mark.parametrize("slope, y0", [
    (lambda t, y: y * y, 4),  # y = 4 / (1 - 4t) blows up at t = 1/4
    (lambda t, y: complex(math.inf, 0) if t > 0.25 else 1j, 0)],
    ids=["blow-up", "non-finite"])


@STALLS
def test_transport_that_cannot_go_on_is_a_math_error(slope, y0):
    """A solution that blows up or a slope that turns non-finite ends the
    transport with MathError near where it happens."""
    with pytest.raises(MathError, match=r"transport failed at t = 0\.2"):
        _dop853(slope, complex(y0), 1e-14)


@STALLS
def test_stalled_transport_says_what_the_stepper_on_sum_says(slope, y0):
    messages = []
    for stepper in (_dop853, dop853_by_dot):
        with pytest.raises(MathError) as info:
            stepper(slope, complex(y0), 1e-14)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("m", range(2, 13))
def test_transport_matches_the_stepper_on_sum_to_the_bit(m):
    """The stage loop over paired rows and the slope's plain term loops
    give the ends of ``util.holonomy_by_sum``, which forms every weighted
    sum and both polynomial values with ``sum``, bit for bit."""
    omega = parse_expr("x*dy - %d*y*dx - x^%d*dx" % (m, m), "float").form
    xs = [0.05, 0.01, complex(0.03, -0.02), 0.04j]
    assert ([end._mpc_ for end in numeric_holonomy(omega, 0, 1.0, xs)]
            == [end._mpc_ for end in holonomy_by_sum(omega, 0, 1.0, xs)])


def test_worked_example_transport_matches_the_stepper_on_sum():
    """Around both divisor singularities z = 2 and z = 1/2 of the worked
    example's final chart, where a and b have several terms each."""
    form = parse_expr("d(y^2+x^4)-5*x^2*(1+x)*dy", "float", 24).form
    final = blowup_chain(form, 2).final
    xs = [0.01, 0.05, complex(0.02, 0.01)]
    for center in (2, 0.5):
        ends = numeric_holonomy(final, center, 0.3, xs)
        assert ([end._mpc_ for end in ends] == [
            end._mpc_ for end in holonomy_by_sum(final, center, 0.3, xs)])


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("x0", [0.01, 0.05])
def test_numeric_holonomy_matches_scipy_dop853(m, x0):
    """scipy's DOP853 at the same tolerances and step bound is the
    reference for the in-package stepper; m = 2, x0 = 0.05 is the
    README example.  Both ends also match the formal holonomy."""
    integrate = pytest.importorskip("scipy.integrate")
    omega = parse_expr("x*dy - %d*y*dx - x^%d*dx" % (m, m), mode="float").form
    end, = numeric_holonomy(omega, 0, 1.0, [x0])

    def rhs(t, y):  # dx/dz = x / (m z + x^m) on z = exp(2 pi i t)
        z = cmath.exp(2j * cmath.pi * t)
        return [y[0] / (m * z + y[0] ** m) * 2j * cmath.pi * z]

    sol = integrate.solve_ivp(rhs, (0.0, 1.0), [complex(x0)],
                              method="DOP853", rtol=1e-10,
                              atol=1e-14 * max(1.0, x0), max_step=0.05)
    assert sol.success
    assert abs(end - complex(sol.y[0, -1])) <= 1e-13 * max(1.0, x0)
    formal = pd_holonomy_model(m, 90).evaluate(x0)
    assert abs(end - formal) <= 1e-13 * abs(formal)


# ------------------------------------------------------------ group model


def model_field(m, N):
    h = pd_holonomy_model(m, N)
    tangent = FormalDiffeo1(CC.coerce(1),
                            h.tail.scale(CC.invert(h.multiplier)))
    return log_diffeo(tangent, N)


def test_group_model_multipliers():
    gm = group_model(2, 6, model_field(6, 13), 13)
    e = lambda t: mpmath.exp(mpmath.mpc(0, mpmath.pi) * t)
    assert abs(mpmath.mpc(gm.h1.multiplier) - e(mpmath.mpf(1) / 3)) < 1e-12
    assert abs(mpmath.mpc(gm.h2.multiplier) - e(1) / e(mpmath.mpf(1) / 3)) < 1e-12
    assert abs(mpmath.mpc(gm.mu) ** 6 - 1) < 1e-12
    assert abs(mpmath.mpc(gm.lam) ** 2 - 1) < 1e-12


def test_group_model_h2_from_h0():
    gm = group_model(2, 6, model_field(6, 13), 13)
    h0 = FormalDiffeo1.linear(CC, "x", 13, gm.lam)
    assert diffeo_close(compose(h0, inverse(gm.h1)), gm.h2)


def test_group_model_generators_are_scaled_flows():
    """h1 = mu*exp(Y) and h2 = (lambda/mu)*exp(-Y), bit for bit, though
    both flows come from one Lie series."""
    for p, m, N in ((2, 6, 13), (3, 2, 12), (4, 5, 16)):
        Y = model_field(m, N)
        gm = group_model(p, m, Y, N)
        ratio = CC.div(gm.lam, gm.mu)
        for h, flow, c in ((gm.h1, exp_vf(Y, N), gm.mu),
                           (gm.h2, exp_vf(-Y, N), ratio)):
            want = flow.tail.scale(c)
            assert h.multiplier._mpc_ == c._mpc_
            assert ([(k, v._mpc_) for k, v in h.tail.coeffs.items()]
                    == [(k, v._mpc_) for k, v in want.coeffs.items()])
            assert (h.tail.order, h.tail.truncated) == (want.order,
                                                        want.truncated)


def test_group_model_zero_field():
    gm = group_model(2, 6, VectorField1(Series1.zero(CC, "x", 10)), 10)
    assert gm.h1.tail.is_zero() and gm.h2.tail.is_zero()


def test_group_model_rejects_wrong_valuation():
    with pytest.raises(MathError):
        group_model(2, 6, VectorField1(Series1(CC, "x", 10, {3: 1})), 10)


def test_dichotomy_and_lambda_pair():
    assert dichotomy(2, 6) == "Abelian"
    assert dichotomy(3, 2) == "NonSolvable"
    assert dichotomy(4, 12) == "Abelian"
    assert sz_lambda(2, 6) == (rat(1, 4), rat(4), True)
    assert sz_lambda(3, 2) == (rat(3, 5), rat(5, 3), False)
    assert sz_lambda(4, 12) == (rat(1, 4), rat(4), True)
    with pytest.raises(InputError):
        dichotomy(1, 6)


def test_commutes_with_scaling_model_field():
    h = pd_holonomy_model(4, 13)
    tangent = FormalDiffeo1(CC.coerce(1),
                            h.tail.scale(CC.invert(h.multiplier)))
    for k in range(1, 4):
        alpha = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi) * k / 4)
        assert commutes_with_scaling(tangent, alpha)
    assert not commutes_with_scaling(tangent, 2)
    eighth = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi) / 8)
    assert not commutes_with_scaling(tangent, eighth)


def test_periodicity():
    assert periodicity(FormalDiffeo1.linear(CC, "x", 8, -1), 2)
    third = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi) / 3)
    assert periodicity(FormalDiffeo1.linear(CC, "x", 8, third), 3)
    assert not periodicity(FormalDiffeo1.linear(CC, "x", 8, third), 2)
    h = pd_holonomy_model(2, 9)
    tangent = FormalDiffeo1(CC.coerce(1),
                            h.tail.scale(CC.invert(h.multiplier)))
    assert not periodicity(tangent, 2)


def test_commutator_dichotomy():
    gm = group_model(2, 6, model_field(6, 12), 12)
    assert abs(mpmath.mpc(gm.lam) ** 6 - 1) < 1e-12
    assert is_identity(group_commutator(gm.h1, gm.h2))
    gm = group_model(3, 2, model_field(2, 12), 12)
    assert not is_identity(group_commutator(gm.h1, gm.h2))


def test_commutator_is_identity_at_2_2_26():
    """p | m, so the generators commute.  g o h o g^-1 o h^-1 with two
    reversions left a degree-25 coefficient of 1.21e-9 here, against
    generator coefficients of 5.9e5 and the absolute tolerance 1e-9."""
    gm = group_model(2, 2, model_field(2, 26), 26)
    assert is_identity(group_commutator(gm.h1, gm.h2))


def test_import_leaves_scipy_unloaded():
    """The package never imports scipy, not even to transport (the
    README's numeric_holonomy call)."""
    src = os.path.dirname(os.path.dirname(pdfol.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, pdfol\n"
            "omega = pdfol.parse_expr('x*dy - 2*y*dx - x^2*dx',"
            " mode='float').form\n"
            "end, = pdfol.numeric_holonomy(omega, 0, 1.0, [0.05])\n"
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("p, m, N, composition, commutator", [
    (2, 2, 26, 13, 26), (3, 5, 44, 12, 36), (4, 12, 48, 14, 28)])
def test_compositions_build_only_the_powers_they_read(monkeypatch, p, m, N,
                                                      composition,
                                                      commutator):
    """The generators read their images at exponents 1, 1 + m, 1 + 2m, ...
    A dense ladder of powers took 24, 40 and 36 series products per
    composition here, and 48, 120 and 72 per commutator."""
    gm = group_model(p, m, model_field(m, N), N)
    products = []
    multiply = Series1.__mul__
    monkeypatch.setattr(Series1, "__mul__",
                        lambda a, b: products.append(1) or multiply(a, b))
    compose(gm.h1, gm.h2)
    assert len(products) == composition
    products.clear()
    group_commutator(gm.h1, gm.h2)
    assert len(products) == commutator
