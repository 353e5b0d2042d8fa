"""The chain method on jets.  Before each of its m - 1 blow-ups the chain
keeps only the terms of total degree <= r + 1, r the blow-ups still to
come, because a chart-1 blow-up that divides by x^1 lowers a term's
total degree by at most one and recentring keeps its x-exponent.  The
tests check that fact, the guard on the divisor power, and that the cut
chain gives what the chain on the whole form gives: the same verdict,
the same decisive entry to the last float bit, the same error class."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdfol import classify
from pdfol.blowup import blowup_chart1, recenter
from pdfol.classify import _jet, default_order, pd_vs_dicritical
from pdfol.errors import MathError, PdfolError
from pdfol.forms import OneForm2
from pdfol.rings import rational

from util import chain_on_whole_form, local_form, poly, raw, saddle_text

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
RESONANCES = ((2, 6), (4, 5), (3, 9), (2, 16))
MODES = ("exact", "float", "param:b")
WORKED = "d(y^2+x^4)-5*x^2*(1+x)*dy"
# (p, m) = (2, 16): the float chain meets a nonsingular origin on the way
FLOAT_FAILS = "d(y^2+x^4) + -20/3*x^2*(1+2*x)*dy"
RATIONALS = st.builds(rational, st.integers(-4, 4), st.integers(1, 3))
NONZERO = st.builds(rational, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                    st.integers(1, 3))


def outcome(run, omega_local, N):
    """(verdict, decisive as raw bits) of a chain run, or its error class."""
    try:
        res = run(omega_local, N)
    except PdfolError as exc:
        return type(exc)
    return res.verdict, raw(omega_local.ring, res.decisive)


def on_jets(omega_local, N):
    return pd_vs_dicritical(omega_local, "chain", N)


@PROPERTY
@given(st.sampled_from(RESONANCES), st.sampled_from(MODES),
       st.lists(RATIONALS, max_size=4))
def test_chain_on_jets_equals_chain_on_whole_form(pm, mode, us):
    p, m = pm
    N = default_order(p, m)
    local, found = local_form(saddle_text(p, m, us, mode), mode, N)
    assert found == m
    assert (outcome(on_jets, local, N)
            == outcome(chain_on_whole_form, local, N))


@pytest.mark.parametrize("mode", MODES)
def test_worked_example_chain_on_jets(mode):
    local, m = local_form(WORKED, mode, 16)
    assert m == 6
    got = outcome(on_jets, local, 16)
    assert got == outcome(chain_on_whole_form, local, 16)
    assert got[0] == classify.VERDICT_GPD


def test_float_chain_error_names_its_blow_up():
    """The whole-form chain and the chain on jets both meet a nonsingular
    origin; the error names the blow-up and keeps its class and exit code."""
    local, m = local_form(FLOAT_FAILS, "float", 28)
    assert m == 16
    with pytest.raises(MathError,
                       match="^blow-up requested at a nonsingular origin$"):
        chain_on_whole_form(local, 28)
    with pytest.raises(MathError, match=r"^chain blow-up 1[0-9] of 15: "
                       "blow-up requested at a nonsingular origin$") as info:
        pd_vs_dicritical(local, "chain", 28)
    assert type(info.value) is MathError and info.value.exit_code == 3


def test_chain_refuses_a_blow_up_that_divides_by_more_than_x(monkeypatch):
    local, _ = local_form(WORKED, "exact", 16)
    real = classify.blowup_chart1
    monkeypatch.setattr(classify, "blowup_chart1",
                        lambda omega: replace(real(omega), k_divided=2))
    with pytest.raises(MathError, match=r"^chain blow-up 1 of 5: the "
                       r"blow-up divided by x\^2, not x\^1$"):
        pd_vs_dicritical(local, "chain", 16)


# ------------------------------------------------------ the degree argument

ORDER = 12
KEYS = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
    lambda key: 1 <= key[0] + key[1] <= 5)
TERMS = st.dictionaries(KEYS, NONZERO, max_size=8)


@st.composite
def valuation_one_forms(draw):
    """Polynomial forms singular at the origin with a nonzero linear part."""
    a, b = draw(TERMS), draw(TERMS)
    assume(any(i + j == 1 for i, j in list(a) + list(b)))
    return OneForm2(poly(ORDER, a), poly(ORDER, b))


def x_part(series, i):
    return series._like(series.order, {key: c for key, c in
                                       series.coeffs.items() if key[0] == i},
                        series.truncated)


def jet_terms(omega, degree):
    return tuple({key: c for key, c in s.coeffs.items()
                  if key[0] + key[1] <= degree} for s in (omega.a, omega.b))


@PROPERTY
@given(valuation_one_forms(), NONZERO)
def test_recentring_keeps_each_x_exponent(omega, z0):
    moved = recenter(omega, z0)
    exponents = {key[0] for s in (omega.a, omega.b) for key in s.coeffs}
    assert {key[0] for s in (moved.a, moved.b) for key in s.coeffs} \
        <= exponents
    for i in exponents:
        part = recenter(OneForm2(x_part(omega.a, i), x_part(omega.b, i)), z0)
        assert part.a == x_part(moved.a, i) and part.b == x_part(moved.b, i)


@PROPERTY
@given(valuation_one_forms(), st.integers(1, 6), RATIONALS)
def test_blow_up_lowers_total_degree_by_at_most_one(omega, degree, z0):
    """The blow-up of a valuation-1 form divides by x^1, and its terms of
    degree <= d - 1, before and after recentring, come from the terms of
    degree <= d alone."""
    step = blowup_chart1(omega)
    assume(not step.dicritical)
    assert step.k_divided == 1
    cut = blowup_chart1(_jet(omega, degree))
    assert (cut.k_divided, cut.dicritical) == (1, False)
    assert jet_terms(cut.form, degree - 1) == jet_terms(step.form, degree - 1)
    assert (jet_terms(recenter(cut.form, z0), degree - 1)
            == jet_terms(recenter(step.form, z0), degree - 1))
