"""Metamorphic tests of the decisive coefficient epsilon, which need no
oracle.  Write the unit of d(y^2 + x^(2p)) + alpha*x^p*U(x)*dy as
U = 1 + u_1 x + u_2 x^2 + ...  The map (x, y) -> (t x, t^p y) carries the
form with U(x) to t^(2p) times the form with U(t x), so epsilon is
weighted homogeneous of degree m in (u_1, ..., u_m), u_k of weight k:

- U(x) -> U(t x) multiplies epsilon by t^m;
- the u_k with k > m leave epsilon unchanged;
- the chain method's decisive entry equals epsilon.

The units are seeded draws; the forms are parsed at order p + m + 3, so
U up to x^(m+2) is kept whole and the parsed form is not truncated."""

import random

import pytest

from pdfol.classify import analyze, pd_vs_dicritical
from pdfol.parser import parse_expr
from pdfol.rings import rational

from util import local_form, saddle_text

RESONANCES = ((2, 6), (4, 5), (3, 9))
# the chain drops the most terms at large m, so it is checked there too
CHAIN_RESONANCES = RESONANCES + ((4, 12), (2, 16), (2, 30))
MODES = ("exact", "float", "param:b")
SCALES = (rational(2), rational(-1, 3))
FLOAT_RTOL = 1e-9


def draw_unit(p, m):
    """u_1, ..., u_(m+2) from a seed per (p, m); u_1 is nonzero, so that
    epsilon is not zero by weight alone."""
    rng = random.Random("unit:%d:%d" % (p, m))
    us = [rational(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m + 2)]
    us[0] = us[0] or rational(1, 2)
    return us


def epsilon(p, m, us, mode):
    form = parse_expr(saddle_text(p, m, us, mode), mode, p + m + 3).form
    rep = analyze(form, N=m + 3)
    assert rep.m == m and rep.epsilon is not None
    return form.ring, rep.epsilon


def assert_same(ring, got, want):
    """Equal in an exact ring; within FLOAT_RTOL of |want| in floats."""
    if ring.name == "float":
        assert abs(got - want) <= FLOAT_RTOL * abs(want), (got, want)
    else:
        assert got == want


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p, m", RESONANCES)
def test_scaling_the_unit_scales_epsilon_by_t_to_the_m(p, m, mode):
    us = draw_unit(p, m)
    ring, eps = epsilon(p, m, us, mode)
    assert not ring.is_zero(eps)
    for t in SCALES:
        scaled = [u * t ** k for k, u in enumerate(us, 1)]
        _, got = epsilon(p, m, scaled, mode)
        assert_same(ring, got, ring.mul(eps, ring.from_rational(t ** m)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p, m", RESONANCES)
def test_unit_terms_above_degree_m_leave_epsilon_unchanged(p, m, mode):
    us = draw_unit(p, m)
    ring, eps = epsilon(p, m, us, mode)
    for tail in ([], [rational(-7, 2), rational(5)]):
        _, got = epsilon(p, m, us[:m] + tail, mode)
        assert_same(ring, got, eps)


@pytest.mark.parametrize("p, m", CHAIN_RESONANCES)
def test_chain_decisive_equals_epsilon(p, m):
    us = draw_unit(p, m)
    _, eps = epsilon(p, m, us, "exact")
    local, found = local_form(saddle_text(p, m, us, "exact"), "exact",
                              p + m + 3)
    assert found == m
    assert pd_vs_dicritical(local, "chain", m + 3).decisive == eps
