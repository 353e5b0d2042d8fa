"""Point blow-ups of plane 1-forms and iterated reduction chains.

Blowing up the origin replaces it by an exceptional line and is computed
in two charts.  For omega = a d(v1) + b d(v2):

* chart 1 substitutes v2 = v1*z, giving
      (a(x, xz) + z*b(x, xz)) dx + x*b(x, xz) dz
  in variables (x, z) = (v1, z), with the divisor at {x = 0};
* chart 2 substitutes v1 = w*v2, giving
      y*a(wy, y) dw + (w*a(wy, y) + b(wy, y)) dy
  in variables (w, y) = (w, v2), with the divisor at {y = 0}.

Both pull-backs acquire a common divisor power which is divided out; the
exponent is the multiplicity nu of the form in the non-dicritical case
and nu + 1 in the dicritical one.  Substitutions here are monomial, so
they are carried out as exact exponent remaps rather than through the
generic composition machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import MathError, PrecisionError
from .forms import OneForm2
from .series import INF, Series1, Series2


def _remap(series: Series2, image, variables, order) -> Series2:
    """The series with each key sent through ``image``, cut at ``order``.
    The coefficients are valid ring elements already, so they are kept
    as they are; a key cut off makes the result truncated."""
    acc = {}
    dropped = series.truncated
    for key, c in series.coeffs.items():
        key = image(key)
        if key[0] + key[1] > order:
            dropped = True
        else:
            acc[key] = c
    return Series2._raw(series.ring, Series2._checked_names(variables), order,
                        acc, dropped)


def _exact(omega: OneForm2) -> bool:
    return not (omega.a.truncated or omega.b.truncated)


@dataclass(frozen=True)
class BlowupResult:
    """One chart of a single point blow-up, already divided down."""

    form: OneForm2
    chart: str                 # "chart1" or "chart2"
    nu: int                    # multiplicity of the form that was blown up
    k_divided: int             # divisor power removed from the pull-back
    dicritical: bool
    divisor_index: int         # 0: divisor {v1 = 0}, 1: divisor {v2 = 0}

    def divisor_first(self) -> OneForm2:
        """The chart form rewritten so the divisor is {first variable = 0}."""
        return self.form if self.divisor_index == 0 else self.form.swapped()


def _divisor_power(a_new, b_new, chart) -> int:
    """The largest power of the divisor variable {first = 0} dividing both
    coefficients; PrecisionError when the form vanishes to its order."""
    k = min(a_new.min_exponent(0), b_new.min_exponent(0))
    if k == INF:
        raise PrecisionError("%s: the pulled-back form vanishes to order %d"
                             % (chart, a_new.order))
    return k


def _chart1(omega: OneForm2, zname: str, chart: str) -> BlowupResult:
    """The chart-1 blow-up of omega with the new variable ``zname``;
    ``chart`` labels the result and its errors."""
    v1 = omega.variables[0]
    if zname == v1:
        raise ValueError("chart variable clashes with %r" % v1)
    if not singular_at_origin(omega):
        raise MathError("blow-up requested at a nonsingular origin")
    nu = omega.valuation()
    order = 2 * omega.order if _exact(omega) else omega.order
    variables = (v1, zname)
    a1 = _remap(omega.a, lambda ij: (ij[0] + ij[1], ij[1]), variables, order)
    zb1 = _remap(omega.b, lambda ij: (ij[0] + ij[1], ij[1] + 1), variables, order)
    xb1 = _remap(omega.b, lambda ij: (ij[0] + ij[1] + 1, ij[1]), variables, order)
    a_new = a1 + zb1
    k = _divisor_power(a_new, xb1, chart)
    form = OneForm2(a_new.divide_monomial((k, 0)), xb1.divide_monomial((k, 0)))
    dicritical = not form.divisor_invariant()
    if _exact(form) and k != nu + (1 if dicritical else 0):
        raise MathError("inconsistent divisor multiplicity in blow-up")
    return BlowupResult(form, chart, nu, k, dicritical, 0)


def blowup_chart1(omega: OneForm2) -> BlowupResult:
    return _chart1(omega, "z", "chart1")


def blowup_chart2(omega: OneForm2) -> BlowupResult:
    """Chart 1 of the swapped form, with the new variable w in place of
    the first one, read back in the variables (w, v2)."""
    res = _chart1(omega.swapped(), "w", "chart2")
    return replace(res, form=res.form.swapped(), divisor_index=1)


def macro_chart1(omega: OneForm2, p: int):
    """The composite of p chart-1 blow-ups in one substitution v2 = v1^p z.

    Returns the divided-down form and the removed divisor power.  Used as
    an independent consistency check of the step-by-step chain.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    v1 = omega.variables[0]
    variables = (v1, "z")
    order = (p + 1) * omega.order if _exact(omega) else omega.order
    ring = omega.ring
    # dv2 = p x^(p-1) z dx + x^p dz
    a_part = _remap(omega.a, lambda ij: (ij[0] + p * ij[1], ij[1]),
                    variables, order)
    zb = _remap(omega.b, lambda ij: (ij[0] + p * ij[1] + p - 1, ij[1] + 1),
                variables, order).scale(ring.coerce(p))
    xb = _remap(omega.b, lambda ij: (ij[0] + p * ij[1] + p, ij[1]),
                variables, order)
    a_new = a_part + zb
    b_new = xb
    k = _divisor_power(a_new, b_new, "one-shot chart1 of %d blow-ups" % p)
    a_new = a_new.divide_monomial((k, 0))
    b_new = b_new.divide_monomial((k, 0))
    return OneForm2(a_new, b_new), k


def recenter(omega: OneForm2, z0) -> OneForm2:
    """Translate the second variable so the point (0, z0) moves to the
    origin, the only point ``forms.linear_part``, ``forms.cs_index`` and
    ``forms.report_at`` read.  Exact on polynomial data; raises
    PrecisionError, naming z0 and the order, on truncated series, whose
    translated low-order coefficients would be unreliable."""
    ring = omega.ring
    z0 = ring.coerce(z0)
    if ring.is_zero(z0):
        return omega
    order = omega.order
    ex = Series2(ring, omega.variables, order, {(1, 0): 1})
    ey = Series2(ring, omega.variables, order, {(0, 1): 1, (0, 0): z0})
    try:
        return OneForm2(omega.a.substitute(ex, ey), omega.b.substitute(ex, ey))
    except PrecisionError as exc:
        raise PrecisionError("recenter at z = %s, order %d: %s"
                             % (ring.format_coeff(z0), order, exc)) from exc


@dataclass(frozen=True)
class DivisorPoint:
    location: object           # None marks the corner at chart infinity
    multiplicity: int
    approximate: bool = False
    corner: bool = False


def roots_series1(q: Series1):
    """Roots with multiplicity of a polynomial restriction.

    Exact for degree <= 2 over the rationals (floats when the discriminant
    is not a rational square), exact for linear factors over a parameter
    ring, numeric otherwise.
    """
    if q.truncated:
        raise PrecisionError("root finding on a truncated restriction")
    ring = q.ring
    if q.is_zero():
        raise MathError("every point is a root of the zero restriction")
    roots = []
    s = q.valuation()
    if s >= 1:
        roots.append(DivisorPoint(ring.coerce(0), int(s)))
        q = q.divide_monomial(int(s))
    coeffs = q.as_polynomial_coeffs()
    while len(coeffs) > 1 and ring.is_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) == 1:
        return roots
    return roots + [DivisorPoint(r, k, approximate=approximate)
                    for r, k, approximate in ring.roots(coeffs)]


def singular_points_on_divisor(result: BlowupResult):
    """Singular points of the reduced foliation on the exceptional line,
    in the given chart.  The chart origin of the opposite chart is not
    visible here; a corner marker stands in for it.  A dicritical
    component is transverse to the foliation and is refused: the
    reduction stops there."""
    if result.dicritical:
        raise MathError("%s: the divisor is dicritical; its points are not "
                        "read" % result.chart)
    q = -result.divisor_first().a.restrict_first_zero()
    if q.is_zero():
        raise MathError("the divisor consists of singular points only")
    return roots_series1(q) + [DivisorPoint(None, 0, corner=True)]


def singular_at_origin(omega: OneForm2) -> bool:
    ring = omega.ring
    return (ring.is_zero(omega.a.coefficient(0, 0))
            and ring.is_zero(omega.b.coefficient(0, 0)))


@dataclass(frozen=True)
class ReductionPath:
    """p successive chart-1 blow-ups of a form, each at the chart origin."""

    original: OneForm2
    steps: list
    self_intersections: list
    total_divided: int

    @property
    def final(self) -> OneForm2:
        return self.steps[-1].form if self.steps else self.original

    @property
    def labels(self) -> list:
        return ["D%d" % (i + 1) for i in range(len(self.steps))]


def blowup_chain(omega: OneForm2, p: int) -> ReductionPath:
    """Blow up p times, following the singular point at the chart-1 origin.

    Before each of the first p - 1 steps continues, the divisor restriction
    of the dx-coefficient must be a monomial c*z^k with k >= 1: the strict
    transform then meets the divisor only at the chart origin and the chain
    is well defined without recentering.  The composite is cross-checked
    against the one-shot substitution v2 = v1^p z.
    """
    if p < 0:
        raise MathError("a reduction chain needs p >= 0")
    if p == 0:
        return ReductionPath(original=omega, steps=[], self_intersections=[],
                             total_divided=0)
    steps = []
    current = omega
    for i in range(1, p + 1):
        try:
            res = blowup_chart1(current)
        except PrecisionError as exc:
            raise PrecisionError("blow-up %d, %s" % (i, exc)) from exc
        if res.dicritical:
            raise MathError("dicritical component at blow-up %d; "
                            "the chain does not continue" % i)
        if i < p:
            r = res.form.a.restrict_first_zero()
            if len(r.coeffs) != 1 or r.valuation() < 1:
                raise MathError(
                    "blow-up %d leaves singular points away from the chart "
                    "origin; plain chains do not apply" % i)
        steps.append(res)
        current = res.form
    total = sum(s.k_divided for s in steps)
    if _exact(omega):
        macro, k_macro = macro_chart1(omega, p)
        if k_macro != total or macro.a != current.a or macro.b != current.b:
            raise MathError("blow-up chain disagrees with the one-shot "
                            "substitution; internal error")
    return ReductionPath(original=omega, steps=steps,
                         self_intersections=[-2] * (p - 1) + [-1],
                         total_divided=total)
