"""Builders for the worked examples, the coefficient data of the series
property tests, and the reference oracles they compare against: the
pairwise product, the unit inverse by one dot product per key, the
fibered field by the dense tail, the conjugacy solve by full products
and the transport of a tail through a fibered map, shared across test
modules; the balanced-case split as it took a tolerance, which the
ring-driven ``saddle_subcase`` must reproduce; the chain method on the
whole form, which the chain on jets must reproduce; the Lie series by
full products, which the recursion by degree must reproduce, and that
recursion over every degree, which the one on the source's degree
stride must reproduce; the DOP853 stepper and leaf-lift slope built on
``sum``, which the transport must reproduce to the bit; and the small
oracles that no command runs: the form of a field, the wedge
product, matrix equality, conjugation, commuting with a scaling and the
brute-force normal-form bound."""

import cmath
import math
import operator
from functools import reduce

import mpmath
from hypothesis import strategies as st

from pdfol.blowup import blowup_chain, blowup_chart1, recenter
from pdfol.classify import (SUBCASE_PM4, SUBCASE_RESONANT, SUBCASE_SIMPLE,
                            VERDICT_GPD, DichotomyResult, _recenter_unique,
                            gpd_condition, gpd_detect, parse_prenormal,
                            verdict_dicritical)
from pdfol.errors import MathError
from pdfol.forms import (Matrix2, OneForm2, PlaneVectorField, SingKind,
                         classify_singularity, dual, linear_part,
                         normalized_jordan)
from pdfol.holonomy import (_A, _B, _C, _E3, _E5, FormalDiffeo1, compose,
                            inverse)
from pdfol.normal_form import (FiberedField, _at_order, _dz, _times,
                               homological_step)
from pdfol.parser import parse_expr
from pdfol.rings import (ComplexApprox, ParamPoly, ParamPolyRing, RationalExact,
                         format_rational, is_rational, rational, rational_sqrt,
                         small_rational)
from pdfol.series import Series1, Series2

QQ = RationalExact()


def poly(order, coeffs, ring=QQ, variables=("x", "y")):
    return Series2(ring, variables, order, coeffs)


def takens_form(p, n, alpha, unit_tail=(), ring=QQ, order=None):
    """d(y^2 + x^n) + alpha*x^p*U(x) dy with U = 1 + sum unit_tail[k] x^(k+1)."""
    order = order or (2 * n + 4)
    a = poly(order, {(n - 1, 0): n}, ring)
    b_coeffs = {(0, 1): 2, (p, 0): ring.coerce(alpha)}
    for k, c in enumerate(unit_tail):
        b_coeffs[(p + k + 1, 0)] = ring.mul(ring.coerce(alpha), ring.coerce(c))
    return OneForm2(a, poly(order, b_coeffs, ring))


def expected_final(p, alpha, unit_tail, ring=QQ, order=40):
    """The exceptional-chart form after p blow-ups of the 2p = n family:
    p(2(z^2+1) + alpha z U(x)) dx + x(2z + alpha U(x)) dz."""
    alpha = ring.coerce(alpha)
    pc = ring.coerce(p)
    a = {(0, 2): ring.mul(pc, ring.coerce(2)),
         (0, 0): ring.mul(pc, ring.coerce(2)),
         (0, 1): ring.mul(pc, alpha)}
    b = {(1, 1): ring.coerce(2), (1, 0): alpha}
    for k, c in enumerate(unit_tail):
        scaled = ring.mul(alpha, ring.coerce(c))
        a[(k + 1, 1)] = ring.mul(pc, scaled)
        b[(k + 2, 0)] = scaled
    return OneForm2(Series2(ring, ("x", "z"), order, a),
                    Series2(ring, ("x", "z"), order, b))


def fibered_model_form(m, a_coeff, order=24, ring=QQ):
    """x dz - (m z + a_coeff x^m) dx."""
    a = {(0, 1): ring.coerce(-m)}
    if not ring.is_zero(ring.coerce(a_coeff)):
        a[(m, 0)] = ring.neg(ring.coerce(a_coeff))
    return OneForm2(Series2(ring, ("x", "z"), order, a),
                    Series2(ring, ("x", "z"), order, {(1, 0): 1}))


def saddle_text(p, m, us, mode):
    """The prenormal form with unit 1 + sum u_k x^k; in ``param:b`` the
    x term carries b, so epsilon there is a polynomial in b."""
    alpha = gpd_condition(p, m)[0]
    param = "b*" if mode.startswith("param") else ""
    unit = "".join(" + (%s)*%sx^%d" % (format_rational(u),
                                        param if k == 1 else "", k)
                   for k, u in enumerate(us, 1) if u)
    return "d(y^2+x^%d) + (%s)*x^%d*(1%s)*dy" % (2 * p, format_rational(alpha),
                                                 p, unit)


def local_form(text, mode, order):
    """(omega, m): the recentred local form at the Poincare-Dulac
    candidate, as ``analyze`` builds it from the input text parsed at
    ``order``, and its resonance m."""
    form = parse_expr(text, mode, order).form
    ring = form.ring
    data = parse_prenormal(form)
    m, z1, _ = gpd_detect(data.p, ring.near_rational(data.alpha))
    final = blowup_chain(form, data.p).final
    return recenter(final, ring.from_rational(z1)), m


# primes near 10**12 and 10**9: sums of their fractions need large lcms
PRIMES = (999999999989, 999999999961, 1000000007, 998244353, 7, 3)
SMALL = st.builds(rational, st.integers(-2, 2), st.integers(1, 3))
LARGE = st.builds(rational, st.integers(-10 ** 15, 10 ** 15),
                  st.sampled_from(PRIMES))
RATIONALS = st.one_of(SMALL, SMALL, LARGE)
# a coefficient spec (coefficients in b, imaginary part): b-polynomials
# of degree 0 to 2, complex in the float ring one time in three
SPECS = st.tuples(st.lists(RATIONALS, min_size=1, max_size=3),
                  st.one_of(st.just(0), st.just(0), RATIONALS))


def spec_value(ring, spec):
    """The spec's element: the polynomial in Q[b] in a ParamPolyRing, its
    value at b = 1 in the exact ring, and that value plus the imaginary
    part in the float ring."""
    poly, imag = spec
    if isinstance(ring, ParamPolyRing):
        return ParamPoly(poly)
    value = ring.from_rational(sum(poly, rational(0)))
    if imag and isinstance(ring, ComplexApprox):
        value = ring.add(value, ring.mul(ring.from_rational(rational(imag)),
                                         ring.coerce(1j)))
    return value


def raw(ring, v):
    """What identical means per ring: the raw float tuple, the canonical
    b-coefficients, the canonical rational."""
    if isinstance(ring, ComplexApprox):
        return v._mpc_
    if isinstance(ring, ParamPolyRing):
        return v.coeffs
    return v


def _degree(key):
    return sum(key) if isinstance(key, tuple) else key


def _add_keys(a, b):
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def product_by_pairs(a, b):
    """a * b by the plain pairwise loop: every pair of terms in order,
    each product through ``ring.mul`` and each sum through ``ring.add``,
    pairs past the order dropped (and flagged), zeros dropped at the
    end."""
    ring = a.ring
    order = min(a.order, b.order)
    acc = {}
    dropped = a.truncated or b.truncated
    for key1, c1 in a.coeffs.items():
        for key2, c2 in b.coeffs.items():
            if _degree(key1) + _degree(key2) > order:
                dropped = True
                continue
            key, term = _add_keys(key1, key2), ring.mul(c1, c2)
            acc[key] = ring.add(acc[key], term) if key in acc else term
    acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
    return a._like(order, acc, dropped)


def ulps(a, b, precision=64):
    """|a - b| in units of the last of ``precision`` bits of the larger of
    |a| and |b|; 0 when both are 0."""
    with mpmath.workprec(4 * precision):
        diff, scale = abs(a - b), max(abs(a), abs(b))
    if not scale:
        return 0
    return float(diff / mpmath.ldexp(1, mpmath.frexp(scale)[1] - precision))


def inverse_unit_by_dot(u):
    """u.inverse_unit() one key at a time: v_0 = 1/u_0 and, for each
    monomial n of degree d in ``_monomials(d)`` order, v_n = -v_0 times
    ``ring.dot`` of u_k * v_(n-k) over the nonconstant terms k of u that
    divide n, in ascending key order."""
    ring = u.ring
    one = u._CONSTANT
    inv0 = ring.invert(u.coeffs.get(one, ring.zero))
    tail = sorted((key, c) for key, c in u.coeffs.items() if key != one)
    if not tail:
        return u._like(u.order, {one: inv0}, u.truncated)
    neg0 = ring.neg(inv0)
    inv = {one: inv0}

    def pairs(key):  # a key with a negative exponent is never in inv
        for tkey, c in tail:
            rest = u._sub_keys(key, tkey)
            if rest in inv:
                yield c, inv[rest]

    for d in range(1, u.order + 1):
        for key in u._monomials(d):
            acc = ring.dot(pairs(key))
            if acc is not None:
                acc = ring.mul(neg0, acc)
                if not ring.is_zero(acc):
                    inv[key] = acc
    return u._like(u.order, inv, True)


def to_fibered_field_dense(omega, m, order):
    """``normal_form.to_fibered_field`` by the dense tail: q = -A*U^-1 to
    ``order``, the shear z -> z - gamma*x substituted into all of q, and
    the field's tail q - m*z over the unit 1."""
    ring = omega.ring
    a_t = omega.a.truncate(order + 1)
    b_t = omega.b.truncate(order + 1)
    if b_t.is_zero() or b_t.min_exponent(0) < 1:
        raise MathError("dz-coefficient is not of the form x*(unit)")
    unit = b_t.divide_monomial((1, 0))
    if ring.is_zero(unit.coefficient(0, 0)):
        raise MathError("dz-coefficient is not of the form x*(unit)")
    q = (-a_t) * unit.inverse_unit()
    if not ring.is_zero(q.coefficient(0, 0)):
        raise MathError("the origin is not singular")
    if not ring.eq(q.coefficient(0, 1), ring.coerce(m)):
        raise MathError("z-linear slope differs from m = %d" % m)
    q10 = q.coefficient(1, 0)
    variables = omega.variables
    if not ring.is_zero(q10):
        gamma = ring.mul(q10, ring.coerce(rational(1, m - 1)))
        ex = Series2(ring, variables, order, {(1, 0): 1})
        ey = Series2(ring, variables, order,
                     {(0, 1): 1, (1, 0): ring.neg(gamma)})
        q = q.substitute(ex, ey) + Series2.monomial(ring, variables, order,
                                                    (1, 0), gamma)
    tail = q - Series2.monomial(ring, variables, order, (0, 1), ring.coerce(m))
    return FiberedField(m, tail)


def normalize_by_products(X, N):
    """(phi, epsilon) of the conjugacy solve of ``normal_form.normalize``
    by full products: with a the dense tail X.a/X.u and rest = a + a*phi_z
    kept as a whole series, each phi_k comes from the degree-k terms of
    rest, and then rest = rest + a * (phi_k)_z, a product at order N."""
    m, a, ring = X.m, (X.a * X.u.inverse_unit()).truncate(N), X.ring
    phi = {}
    rest = a
    epsilon = ring.zero
    for k in range(2, N + 1):
        part = {key: c for key, c in rest.coeffs.items() if sum(key) == k}
        phi_k, kept = homological_step(rest._like(N, part, rest.truncated),
                                       m, k)
        if k == m:
            epsilon = kept.coefficient(m, 0)
        if phi_k.is_zero():
            continue
        phi.update(phi_k.coeffs)
        rest = rest + a * _dz(phi_k, N)
    return Series2._raw(ring, X.variables, N, phi, False), epsilon


def _x_dx(phi: Series2, order: int) -> Series2:
    return _times(phi, order, [((i, j), c, i)
                               for (i, j), c in phi.coeffs.items() if i],
                  phi.truncated)


def invert_fiber(phi: Series2, order: int) -> Series2:
    """The fixpoint psi = z - phi(x, psi), i.e. the inverse of the fiber
    map z -> z + phi(x,z) with x frozen."""
    ring = phi.ring
    variables = phi.variables
    ex = Series2(ring, variables, order, {(1, 0): 1})
    psi = Series2(ring, variables, order, {(0, 1): 1})
    z = psi
    for _ in range(2 * order + 2):
        nxt = z - phi.substitute(ex, psi)
        if nxt == psi:
            return nxt
        psi = nxt
    raise MathError("fiber inversion did not stabilize")


def apply_fibered(m: int, a: Series2, phi: Series2, order: int) -> Series2:
    """Tail of the field transported through z -> z + phi(x,z), by
    substituting the inverse fiber map: the independent transport oracle
    that checks the results of ``normal_form.normalize``."""
    ring = a.ring
    variables = a.variables
    phi = _at_order(phi, order)
    if phi.valuation() < 2:
        raise MathError("fibered transforms need valuation >= 2")
    psi = invert_fiber(phi, order)
    ex = Series2(ring, variables, order, {(1, 0): 1})
    z = Series2(ring, variables, order, {(0, 1): 1})
    a_at = _at_order(a, order).substitute(ex, psi)
    xphix_at = _x_dx(phi, order).substitute(ex, psi)
    phiz_at = _dz(phi, order).substitute(ex, psi)
    one = Series2.monomial(ring, variables, order, (0, 0))
    flow = psi.scale(ring.coerce(m)) + a_at
    return xphix_at + (one + phiz_at) * flow - z.scale(ring.coerce(m))


def saddle_subcase_by_tol(alpha, tol=1e-9):
    """The balanced-case split on sqrt(alpha^2-16)/alpha in Q cap (-1,1)
    with an explicit tolerance: an exact test for a rational alpha, the
    same test within ``tol`` for a number."""
    if is_rational(alpha):
        q = rational(alpha)
        if q == 4 or q == -4:
            return SUBCASE_PM4
        disc = q * q - 16
        if disc > 0 and rational_sqrt(disc) is not None:
            t = disc / (q * q)
            if 0 < t < 1:
                return SUBCASE_RESONANT
        return SUBCASE_SIMPLE
    x = mpmath.mpc(alpha)
    if abs(x - 4) <= 4 * tol or abs(x + 4) <= 4 * tol:
        return SUBCASE_PM4
    w = mpmath.sqrt(x * x - 16) / x
    if abs(w.imag) <= tol and -1 < w.real < 1:
        if small_rational(w.real, tol) is not None:
            return SUBCASE_RESONANT
    return SUBCASE_SIMPLE


def chain_on_whole_form(omega_local, N):
    """``pd_vs_dicritical(omega_local, "chain", N)`` with every blow-up
    and recentring made on the whole form, as the chain ran before it
    cut the form to the jet the remaining blow-ups read."""
    ring = omega_local.ring
    kind = classify_singularity(linear_part(dual(omega_local)), ring)
    if kind.kind is not SingKind.POINCARE_DULAC_CANDIDATE:
        raise MathError("linear part is not a Poincare-Dulac candidate "
                        "(got %s)" % kind.kind.value)
    m = kind.m
    current = omega_local
    for _ in range(m - 1):
        step = blowup_chart1(current)
        if step.dicritical:
            raise MathError("unexpected dicritical blow-up inside "
                            "the chain")
        current = _recenter_unique(step)
    jordan = normalized_jordan(linear_part(dual(current)), ring)
    decisive = jordan[1][0]
    if not ring.is_zero(decisive):
        return DichotomyResult(VERDICT_GPD, m, decisive=decisive)
    return DichotomyResult(verdict_dicritical(N), m, decisive=decisive)


def dual_field(field: PlaneVectorField) -> OneForm2:
    """The 1-form (p2, -p1) annihilated by the field; applying the
    convention twice rotates (a, b) to (-a, -b)."""
    return OneForm2(field.p2, -field.p1)


def wedge(omega: OneForm2, eta: OneForm2) -> Series2:
    """Coefficient of d(v1)^d(v2) in omega wedge eta."""
    if omega.variables != eta.variables:
        raise ValueError("wedge of forms over different variables")
    return omega.a * eta.b - omega.b * eta.a


def matrix_eq(L: Matrix2, M: Matrix2, ring) -> bool:
    return all(ring.eq(a, b) for ra, rb in zip(L, M) for a, b in zip(ra, rb))


def conjugate(g: FormalDiffeo1, h: FormalDiffeo1) -> FormalDiffeo1:
    """h o g o h^{-1}."""
    return compose(compose(h, g), inverse(h))


def commutes_with_scaling(h: FormalDiffeo1, alpha, N: int = None) -> bool:
    """alpha*h(x) == h(alpha*x) coefficientwise within tolerance."""
    ring = h.ring
    alpha = ring.coerce(alpha)
    s = h.series()
    if N is not None:
        s = s.truncate(N)
    left = s.scale(alpha)
    scaled_x = Series1.monomial(ring, h.variable, s.order, 1, alpha)
    right = s.compose(scaled_x)
    return ring.series_close(left, right)


def lie_flows_by_products(f: Series1, N: int):
    """exp(Y) - x and exp(-Y) - x for Y = f d/dx, as full products form
    them: T_1 = f, T_k = f*T_(k-1)'/k, each product cut at N.  The
    derivative drops one order, which f restores: val(f) >= 2 shifts
    every term of T' up by at least 2, so f*T' is known to N.  Both sums
    add +-T_1 first and then each term in turn.  Both routes read f to
    N only when f is known to N (its order is at least N)."""
    ring = f.ring
    x = Series1.monomial(ring, f.variable, N, 1)
    plus = minus = term = x
    k = 1
    while not term.is_zero() and k <= N:
        der = term.derive()
        der = Series1._raw(ring, f.variable, N, dict(der.coeffs),
                           der.truncated)
        prod = {d: c for d, c in (f * der).coeffs.items() if d <= N}
        term = Series1._raw(ring, f.variable, N, prod,
                            f.truncated or term.truncated)
        term = term.scale(ring.coerce(rational(1, k)))
        plus = plus + term
        minus = minus - term if k % 2 else minus + term
        k += 1
    return plus - x, minus - x


def bound_bruteforce(m: int, R: int):
    """max of j/(i + m(j-1)) over i, j >= 0 with m+1 <= i+j <= R.

    Every divisor in the scan region is a positive integer, so the
    comparison is exact integer cross-multiplication."""
    if m < 2 or R < m + 1:
        raise MathError("need m >= 2 and R >= m + 1")
    best_n, best_d = 0, 1
    for k in range(m + 1, R + 1):
        for j in range(k + 1):
            i = k - j
            div = i + m * (j - 1)
            if div <= 0:
                raise MathError("nonpositive divisor in scan region")
            if j * best_d > best_n * div:
                best_n, best_d = j, div
    return rational(best_n, best_d)


def lie_series_every_degree(source: Series1, N: int, log: bool = False):
    """The coefficient dicts f, exp(Y) - x and exp(-Y) - x of
    ``holonomy._lie_series``, its recursion run at every degree 2..N
    rather than on the source's degree stride."""
    ring = source.ring
    f, plus, minus = {}, {}, {}
    slopes = [None] + [{} for _ in range(N)]
    for d in range(2, N + 1):
        terms = []
        for k in range(2, d):
            lower = slopes[k - 1]
            if not lower:
                break
            acc = ring.dot((fi, lower[d - i + 1]) for i, fi in f.items()
                           if d - i + 1 in lower)
            if acc is None:
                continue
            acc = ring.mul(acc, ring.coerce(rational(1, k)))
            if ring.is_zero(acc):
                continue
            slopes[k][d] = ring.mul(acc, ring.coerce(d))
            terms.append((k, acc))
        c = source.coeffs.get(d)
        if c is None:
            if not terms:
                continue
            c = ring.zero
        if log and terms:
            c = ring.sub(c, reduce(ring.add, (t for _, t in terms)))
        if not ring.is_zero(c):
            f[d] = c
            slopes[1][d] = ring.mul(c, ring.coerce(d))
        plus_d = reduce(ring.add, (t for _, t in terms), c)
        minus_d = reduce(ring.add, (t if k % 2 == 0 else ring.neg(t)
                                    for k, t in terms), ring.neg(c))
        for tail, value in ((plus, plus_d), (minus, minus_d)):
            if not ring.is_zero(value):
                tail[d] = value
    return f, plus, minus


def _dot(coeffs, values):
    return sum(map(operator.mul, coeffs, values))


def dop853_by_dot(slope, y, atol):
    """``holonomy._dop853`` with each stage's, the solution's and both
    error estimates' weighted sums formed by one ``_dot`` call each."""
    t, rtol, max_step = 0.0, 1e-10, 0.05
    try:
        f = slope(t, y)
        scale = atol + abs(y) * rtol
        d0, d1 = abs(y) / scale, abs(f) / scale
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else min(0.01 * d0 / d1, 1.0)
        d2 = abs(slope(h0, y + h0 * f) - f) / scale / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** 0.125)
        h = min(100 * h0, h1, max_step)
        while t < 1.0:
            min_step = 10 * math.ulp(t)
            h = min(max(h, min_step), max_step)
            rejected = False
            while True:
                t_new = min(t + h, 1.0)
                h = t_new - t
                K = [f]
                for c, row in zip(_C, _A):
                    K.append(slope(t + c * h, y + _dot(row, K) * h))
                y_new = y + h * _dot(_B, K)
                scale = atol + max(abs(y), abs(y_new)) * rtol
                err5 = abs(_dot(_E5, K) / scale) ** 2
                err3 = abs(_dot(_E3, K) / scale) ** 2
                error = (h * err5 / math.sqrt(err5 + 0.01 * err3)
                         if err5 or err3 else 0.0)
                if error < 1:
                    factor = min(10, 0.9 * error ** -0.125) if error else 10
                    h *= min(1, factor) if rejected else factor
                    break
                h *= max(0.2, 0.9 * error ** -0.125)
                rejected = True
                if h < min_step or not math.isfinite(error):
                    raise MathError("holonomy transport failed at t = %.6g: "
                                    "no step meets the tolerance" % t)
            t, y, f = t_new, y_new, slope(t_new, y_new)
    except (OverflowError, ZeroDivisionError):
        raise MathError("holonomy transport failed at t = %.6g: the leaf "
                        "lift overflows" % t) from None
    return y


def holonomy_by_sum(omega: OneForm2, center, radius, samples):
    """``holonomy.numeric_holonomy`` on valid input with a loop clear of
    the divisor's singularities: the leaf-lift slope sums a and b with a
    ``sum`` over a generator, and ``dop853_by_dot`` steps it."""
    ring = omega.ring
    a_terms, b_terms = ([(i, j, complex(ring.to_complex(c)))
                         for (i, j), c in s.coeffs.items()]
                        for s in (omega.a, omega.b))
    c0, r, two_pi_i = complex(center), float(radius), 2j * cmath.pi

    def value(terms, xv, zv):
        return sum(c * xv ** i * zv ** j for i, j, c in terms)

    def slope(t, xv):
        turn = cmath.exp(two_pi_i * t)
        z = c0 + r * turn
        av = value(a_terms, xv, z)
        if av == 0:
            raise MathError("leaf lift hit a zero of the dx-coefficient")
        return -(value(b_terms, xv, z) / av) * (two_pi_i * r * turn)

    return [mpmath.mpc(dop853_by_dot(slope, complex(x0),
                                     1e-14 * max(1.0, abs(complex(x0)))))
            for x0 in samples]
