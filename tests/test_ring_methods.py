"""Everything that differs by coefficient ring is a ring method: no module
but ``rings.py`` branches on the ring's type, and each ring method keeps
the results of the per-module code it replaced, over random coefficients
in all three rings."""

import ast
import pathlib

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdfol
from pdfol.errors import InputError, MathError
from pdfol.forms import OneForm2
from pdfol.parser import parse_expr, print_form
from pdfol.rings import (ComplexApprox, ParamPoly, ParamPolyRing,
                         RationalExact, rational)
from pdfol.series import Series1, Series2
from util import SPECS, spec_value

QQ = RationalExact()
CC = ComplexApprox()
PB = ParamPolyRing("b")
RINGS = (QQ, CC, PB)
MODES = {QQ: "exact", CC: "float", PB: "param:b"}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


# ------------------------------------------------------------ no dispatch


def _names_ring(node):
    """``ring`` or ``self.ring``."""
    if isinstance(node, ast.Name):
        return node.id == "ring"
    return (isinstance(node, ast.Attribute) and node.attr == "ring"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def ring_dispatch_sites(package_dir):
    """file:line of every isinstance(ring, ...) or getattr(ring, ...)
    (``ring`` or ``self.ring``) outside rings.py."""
    sites = []
    for path in sorted(pathlib.Path(package_dir).glob("*.py")):
        if path.name == "rings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "getattr")
                    and node.args and _names_ring(node.args[0])):
                sites.append("%s:%d" % (path.name, node.lineno))
    return sites


def test_no_module_but_rings_branches_on_the_ring():
    assert ring_dispatch_sites(pathlib.Path(pdfol.__file__).parent) == []


def test_dispatch_scan_finds_both_spellings(tmp_path):
    (tmp_path / "probe.py").write_text(
        "def f(ring, self):\n"
        "    a = isinstance(ring, int)\n"
        "    b = getattr(self.ring, 'tol', 1e-9)\n"
        "    c = isinstance(value, int) or getattr(other.ring, 'x', 0)\n")
    (tmp_path / "rings.py").write_text("isinstance(ring, int)\n")
    assert ring_dispatch_sites(tmp_path) == ["probe.py:2", "probe.py:3"]


# ------------------------------------------------------ the replaced code


def old_as_mpc(c):
    """blowup's element-to-mpc conversion before it became a ring method."""
    if isinstance(c, (mpmath.mpc, mpmath.mpf)):
        return mpmath.mpc(c)
    return mpmath.mpc(mpmath.mpf(int(c.numerator)) / int(c.denominator))


def spec_rational(spec):
    return sum(spec[0], rational(0))


def is_constant(ring, value):
    return ring is not PB or value.constant_value() is not None


# --------------------------------------------------------------- numbers


@PROPERTY
@given(SPECS)
def test_to_complex_of_from_rational_is_the_old_conversion(spec):
    q = spec_rational(spec)
    for ring in RINGS:
        with mpmath.workprec(ring.precision):
            got = ring.to_complex(ring.from_rational(q))
            assert got._mpc_ == old_as_mpc(q)._mpc_


@PROPERTY
@given(SPECS)
def test_to_complex_of_elements(spec):
    for ring in RINGS:
        value = spec_value(ring, spec)
        if not is_constant(ring, value):
            with pytest.raises(MathError, match="has no numeric value"):
                ring.to_complex(value)
            continue
        got = ring.to_complex(value)
        if ring is CC:  # rounded at the context precision, as before
            assert got._mpc_ == old_as_mpc(value)._mpc_
            with mpmath.workprec(ring.precision):
                assert ring.to_complex(value)._mpc_ == value._mpc_
            assert complex(got) == complex(value)
            continue
        q = ring.as_rational(value)
        assert got._mpc_ == old_as_mpc(q)._mpc_
        # the old transport conversion rounded once; so does this, while
        # the numerator is exact in a double
        want = complex(int(q.numerator) / int(q.denominator))
        if abs(q.numerator) < 2 ** 53:
            assert complex(got) == want
        else:
            assert abs(complex(got) - want) <= 2 ** -52 * abs(want)


@PROPERTY
@given(SPECS, st.sampled_from([1.0, 1e-3, 1e6]))
def test_negligible(spec, scale):
    for ring in RINGS:
        value = spec_value(ring, spec)
        if ring is CC:
            assert ring.negligible(value, scale) == (
                abs(value) <= ring.tol * scale)
        else:
            assert ring.negligible(value, scale) == ring.is_zero(value)
        number = ring.to_complex(value) if is_constant(ring, value) else None
        if number is not None:  # an approximation compares within tol
            assert ring.negligible(number, scale) == (
                abs(number) <= ring.tol * scale)


@PROPERTY
@given(SPECS)
def test_near_rational(spec):
    q = spec_rational(spec)
    assert QQ.near_rational(spec_value(QQ, spec)) == q
    poly = spec_value(PB, spec)
    assert PB.near_rational(poly) == poly.constant_value()
    value = spec_value(CC, spec)
    got = CC.near_rational(value)
    if abs(spec[1]) > CC.tol:
        assert got is None
    elif max(c.denominator for c in spec[0]) <= 3 and abs(q) < 10 ** 6:
        assert got == q
    elif got is not None:
        assert abs(got - q) <= 11 * CC.tol * max(1, abs(q))
    # every ring reads a number the same way
    for ring in (QQ, PB):
        assert ring.near_rational(value) == got


# --------------------------------------------------------------- solving


def _nonzero(ring, spec):
    value = spec_value(ring, spec)
    return None if ring.is_zero(value) else value


@PROPERTY
@given(SPECS, SPECS)
def test_linear_roots(spec0, spec1):
    for ring in RINGS:
        c0, c1 = _nonzero(ring, spec0), _nonzero(ring, spec1)
        if c0 is None or c1 is None:
            continue
        if not is_constant(ring, c1):
            with pytest.raises(MathError, match="constant leading term"):
                ring.roots([c0, c1])
            continue
        [(root, k, approximate)] = ring.roots([c0, c1])
        assert k == 1 and approximate == (ring is CC)
        assert ring.eq(ring.mul(c1, root), ring.neg(c0))


@PROPERTY
@given(SPECS, SPECS)
def test_quadratic_roots(spec_a, spec_b):
    for ring in (QQ, PB):
        a, b = spec_value(ring, spec_a), spec_value(ring, spec_b)
        if ring.is_zero(a) or ring.is_zero(b):
            continue
        coeffs = [ring.mul(a, b), ring.neg(ring.add(a, b)), ring.one]
        if not (is_constant(ring, a) and is_constant(ring, b)):
            with pytest.raises(MathError):
                ring.roots(coeffs)
            continue
        found = ring.roots(coeffs)
        assert not any(approximate for _, _, approximate in found)
        if a == b:
            assert [(r, k) for r, k, _ in found] == [(a, 2)]
        else:
            assert sorted(ring.as_rational(r) for r, _, _ in found) == sorted(
                [ring.as_rational(a), ring.as_rational(b)])


@PROPERTY
@given(SPECS, SPECS)
def test_char_roots(spec_a, spec_b):
    """The characteristic roots of t^2 - (a+b)t + ab, as ``eigenvalues``
    asks ``roots`` for them: exact over Q, the larger first and a double
    root once with multiplicity 2; over Q[b] exact for constants, and
    MathError otherwise; numeric in the float ring, summing to a + b."""
    a, b = spec_value(QQ, spec_a), spec_value(QQ, spec_b)
    found = QQ.roots([a * b, -(a + b), QQ.one])
    assert found == ([(a, 2, False)] if a == b else
                     [(max(a, b), 1, False), (min(a, b), 1, False)])
    qa, qb = a, b
    a, b = spec_value(PB, spec_a), spec_value(PB, spec_b)
    coeffs = [PB.mul(a, b), PB.neg(PB.add(a, b)), PB.one]
    if PB.as_rational(a) is None or PB.as_rational(b) is None:
        with pytest.raises(MathError, match="only found for linear factors"):
            PB.roots(coeffs)
    else:
        assert PB.roots(coeffs) == [(PB.coerce(r), k, exact) for r, k, exact
                                    in QQ.roots([qa * qb, -(qa + qb), 1])]
    a, b = spec_value(CC, spec_a), spec_value(CC, spec_b)
    found = CC.roots([CC.mul(a, b), CC.neg(CC.add(a, b)), CC.one])
    assert all(approximate for _, _, approximate in found)
    (r1, _, _), (r2, _, _) = found
    assert abs(r1 + r2 - (a + b)) <= 1e-12 * max(1, abs(r1), abs(r2))


def test_char_roots_irrational_pair_is_numeric():
    """t^2 - t - 1 over Q falls back to numeric roots, in either order."""
    found = QQ.roots([rational(-1), rational(-1), QQ.one])
    assert all(approximate for _, _, approximate in found)
    r1, r2 = sorted((r for r, _, _ in found), key=lambda r: -r.real)
    assert abs(r1 - (1 + mpmath.sqrt(5)) / 2) < 1e-15
    assert abs(r2 - (1 - mpmath.sqrt(5)) / 2) < 1e-15


# ---------------------------------------------------------------- checks


def series1(ring, specs, order=6):
    return Series1(ring, "x", order,
                   {k: spec_value(ring, s) for k, s in enumerate(specs)})


@PROPERTY
@given(st.lists(SPECS, min_size=1, max_size=5))
def test_series_close(specs):
    for ring in RINGS:
        s = series1(ring, specs)
        assert ring.series_close(s, s)
        other = s + Series1.monomial(ring, "x", s.order, 2)
        if ring is not CC:
            assert not ring.series_close(s, other)
    s = series1(CC, specs)
    other = s + Series1.monomial(CC, "x", s.order, 2)
    scale = max([1.0] + [abs(c) for c in s.coeffs.values()]
                + [abs(c) for c in other.coeffs.values()])
    assert CC.series_close(s, other) == (scale >= 1 / CC.tol)
    scale = max([1.0] + [abs(c) for c in s.coeffs.values()])
    nudged = s + Series1.monomial(CC, "x", s.order, 1, CC.tol * scale / 4)
    assert CC.series_close(s, nudged)


def _never(size):
    raise AssertionError("the roundoff bound was built where no "
                         "coefficient needs it")


@PROPERTY
@given(st.lists(SPECS, min_size=1, max_size=5), st.integers(0, 1))
def test_residual_valuation(specs, shift):
    for ring in RINGS:
        coeffs = {(k + shift, 1): spec_value(ring, s)
                  for k, s in enumerate(specs)}
        residual = Series2(ring, ("x", "z"), 8, coeffs)
        if ring is CC:
            bound = residual.scale(ring.coerce(0))
            want = min((i + j for (i, j), c in residual.coeffs.items()
                        if abs(c) > ring.tol), default=float("inf"))
            sizes = []

            def zero_bound(size):  # the ring hands over |c| as an element
                sizes.append(size(ring.coerce(-3 + 4j)))
                return bound

            assert ring.residual_valuation(residual, zero_bound) == want
            assert sizes == ([] if want == float("inf") else [ring.coerce(5)])
            loose = Series2(ring, ("x", "z"), 8,
                            {k: 2 * abs(c) / ring.tol
                             for k, c in coeffs.items()})
            assert ring.residual_valuation(residual, lambda size: loose) == (
                float("inf"))
            # coefficients within tol pass whatever the bound: it is not built
            top = max((abs(c) for c in residual.coeffs.values()), default=1)
            tiny = {(i, 0): c * (ring.tol / (2 * top))
                    for (i, _), c in residual.coeffs.items()}
            small = Series2._raw(ring, ("x", "z"), 8, tiny, False)
            assert ring.residual_valuation(small, _never) == float("inf")
            # else the result is the eager one, here with a bound on every
            # other key
            mixed = Series2._raw(ring, ("x", "z"), 8,
                                 {**tiny, **residual.coeffs}, False)
            half = dict(list(loose.coeffs.items())[::2])
            eager = min((i + j for (i, j), c in mixed.coeffs.items()
                         if abs(c) > ring.tol * max(
                             1.0, abs(half.get((i, j), ring.zero)))),
                        default=float("inf"))
            assert ring.residual_valuation(mixed, lambda size: loose._like(
                8, half, False)) == eager
        else:
            assert ring.residual_valuation(residual, _never) == (
                residual.valuation())


# ------------------------------------------------------------------ text


@PROPERTY
@given(SPECS)
def test_signed_text_round_trips(spec):
    for ring in RINGS:
        value = spec_value(ring, spec)
        if ring.is_zero(value):
            continue
        if ring is CC and spec[1]:
            with pytest.raises(InputError, match="complex coefficient"):
                ring.signed_text(value)
            continue
        a = Series2(ring, ("x", "y"), 6, {(1, 0): value})
        b = Series2(ring, ("x", "y"), 6, {(0, 1): 1})
        text = print_form(OneForm2(a, b))
        back = parse_expr(text, MODES[ring], 6).form
        if ring is CC:  # the printer writes the nearest double
            assert float(back.a.coefficient(1, 0).real) == float(value.real)
        else:
            assert back.a == a and back.b == b


def test_signed_text_of_polynomials():
    cases = [((1, -2, rational(1, 3)), (False, "(1 - 2*b + 1/3*b^2)")),
             ((rational(-1, 2), 0, -1), (False, "(-1/2 - b^2)")),
             ((0, -3), (True, "3*b")), ((0, 0, 1), (False, "b^2")),
             ((-1,), (True, None)), ((rational(5, 7),), (False, "5/7"))]
    for coeffs, want in cases:
        assert PB.signed_text(ParamPoly(coeffs)) == want
    assert QQ.signed_text(rational(-3, 2)) == (True, "3/2")
    assert QQ.signed_text(rational(1)) == (False, None)
    assert CC.signed_text(CC.coerce(-1)) == (True, "1.0")


def test_symbol():
    assert PB.symbol("b") == PB.generator
    assert PB.symbol("c") is None
    assert QQ.symbol("b") is None and CC.symbol("b") is None
