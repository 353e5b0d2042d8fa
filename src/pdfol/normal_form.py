"""Fibered normal form at a Poincare-Dulac candidate.

The model field is X = x d/dx + (m z + a/u) d/dz: a small numerator
a(x,z) with nu(a) >= 2 over a unit u(x,z) with u(0,0) = 1, both read off
the polynomial form; their dense quotient is never formed.  A fibered
change of coordinates w = z + phi(x,z) carries X to the normal form
x d/dx + (m w + epsilon*x^m) d/dw exactly when

    x*phi_x + m*z*phi_z - m*phi = epsilon*x^m - (a/u)*(1 + phi_z),

the conjugacy equation, which is linear in phi.  Its operator multiplies
x^i z^j by the divisor i + m(j-1), which vanishes only at (i,j) = (m,0).
Because nu(a) >= 2, the degree-k slice of the right side involves phi
only below degree k, so one pass over k = 2..N solves for phi and
epsilon, each slice formed once from those below (Ilyashenko-Yakovenko,
Lectures on Analytic Differential Equations, ch. 1; van der Hoeven's
"relaxed" arithmetic, J. Symbolic Comput. 34(6), 2002).  Nonzero epsilon
marks a genuine Poincare-Dulac singularity, 0 one dicritical to order N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MathError, PrecisionError
from .forms import OneForm2
from .rings import rational
from .series import Series2


@dataclass(frozen=True)
class FiberedField:
    """x d/dx + (m z + a(x,z)/u(x,z)) d/dz with nu(a) >= 2 and u(0,0)
    exactly ``ring.one`` (u defaults to 1); a/u is never formed."""

    m: int
    a: Series2
    u: Series2 = None

    def __post_init__(self):
        if self.m < 2:
            raise MathError("fibered model needs m >= 2")
        if self.a.valuation() < 2:
            raise MathError("fibered tail must have valuation >= 2")
        ring = self.ring
        if self.u is None:
            object.__setattr__(self, "u", Series2._raw(
                ring, self.variables, self.a.order, {(0, 0): ring.one}, False))
        if self.u.coeffs.get((0, 0)) != ring.one:
            raise MathError("fibered unit must have constant term 1")

    @property
    def ring(self):
        return self.a.ring

    @property
    def variables(self):
        return self.a.variables


def to_fibered_field(omega: OneForm2, m: int, order: int) -> FiberedField:
    """Put a 1-form A dx + B dz with a Poincare-Dulac candidate at the
    origin into the fibered model, with a and u to ``order``.

    B must be x*U with U a unit.  The degree <= 1 part of -A/U gives the
    singularity, the slope m and the shear z -> z - gamma*x that removes
    the x-linear term (divisor m - 1).  The shear is applied to A and B
    at order + 1, as dividing by x costs one order: with u = B'/x the
    sheared form's field has the tail a/u, a = gamma*B' - A' - m*z*u, and
    both are divided by u(0,0)."""
    ring = omega.ring
    variables = omega.variables
    a_t = omega.a.truncate(order + 1)
    b_t = omega.b.truncate(order + 1)
    if b_t.is_zero() or b_t.min_exponent(0) < 1:
        raise MathError("dz-coefficient is not of the form x*(unit)")
    unit = b_t.truncate(2).divide_monomial((1, 0))
    if ring.is_zero(unit.coefficient(0, 0)):
        raise MathError("dz-coefficient is not of the form x*(unit)")
    q = (-a_t.truncate(1)) * unit.inverse_unit()
    if not ring.is_zero(q.coefficient(0, 0)):
        raise MathError("the origin is not singular")
    if not ring.eq(q.coefficient(0, 1), ring.coerce(m)):
        raise MathError("z-linear slope differs from m = %d" % m)
    q10 = q.coefficient(1, 0)
    if not ring.is_zero(q10):
        gamma = ring.mul(q10, ring.coerce(rational(1, m - 1)))
        ex = Series2(ring, variables, order + 1, {(1, 0): 1})
        ey = Series2(ring, variables, order + 1,
                     {(0, 1): 1, (1, 0): ring.neg(gamma)})
        b_t = b_t.substitute(ex, ey)
        a_t = a_t.substitute(ex, ey) - b_t.scale(gamma)
    u = b_t.divide_monomial((1, 0))
    mzu = _times(u, order, [((i, j + 1), c, m)
                            for (i, j), c in u.coeffs.items()], u.truncated)
    inv = ring.invert(u.coefficient(0, 0))
    a = (a_t.truncate(order) + mzu).scale(ring.neg(inv))
    u = Series2._raw(ring, variables, order,
                     {**u.scale(inv).coeffs, (0, 0): ring.one}, u.truncated)
    return FiberedField(m, a, u)


def _times(like: Series2, order: int, terms, truncated: bool) -> Series2:
    """The series of c*f over (key, c, f) terms as the constructor builds
    it, with each distinct factor f coerced once and no value again."""
    ring = like.ring
    factors = {}
    acc = {}
    for key, c, f in terms:
        if f not in factors:
            factors[f] = ring.coerce(f)
        value = ring.mul(c, factors[f])
        if not ring.is_zero(value):
            if key[0] + key[1] > order:
                truncated = True
            else:
                acc[key] = value
    return Series2._raw(ring, like.variables, order, acc, truncated)


def homological_step(a_k: Series2, m: int, k: int):
    """Solve (i + m(j-1))*phi_ij = -a_ij on the degree-k slice.

    Returns (phi_k, b_k): b_k collects the monomials whose divisor
    vanishes and therefore cannot be removed; for k = m that is exactly
    the x^m term."""
    ring = a_k.ring
    phi = []
    kept = {}
    for (i, j), c in a_k.coeffs.items():
        if i + j != k:
            raise MathError("homological step expects a homogeneous slice")
        div = i + m * (j - 1)
        if div:
            phi.append(((i, j), c, rational(-1, div)))
        elif not ring.is_zero(c):
            kept[(i, j)] = c
    return (_times(a_k, k, phi, False),
            Series2._raw(ring, a_k.variables, k, kept, False))


def _dz(phi: Series2, order: int) -> Series2:
    return _times(phi, order, [((i, j - 1), c, j)
                               for (i, j), c in phi.coeffs.items() if j],
                  phi.truncated)


def _at_order(s: Series2, order: int) -> Series2:
    if s.order >= order:
        return s.truncate(order)
    if s.truncated:
        raise PrecisionError("series data ends before the requested order")
    return Series2._raw(s.ring, s.variables, order, s.coeffs, False)


@dataclass(frozen=True)
class NormalizationResult:
    m: int
    epsilon: object
    transform: Series2          # z -> z + transform(x, z)
    order: int
    residual_valuation: object  # > order; may be INF


def _stage(m: int, N: int) -> str:
    return "normal form (m=%d, N=%d)" % (m, N)


def _known_to(series: Series2, what: str, m: int, N: int) -> Series2:
    if series.truncated and series.order < N:
        raise PrecisionError("%s: %s known only to order %d"
                             % (_stage(m, N), what, series.order))
    return _at_order(series, N)


def normalize(X: FiberedField, N: int) -> NormalizationResult:
    """Solve the conjugacy equation to order N in one pass over degrees.

    The tail enters through s = a*(1 + phi_z)/u.  As u(0,0) = 1, its
    slice s_k = [a*(1 + phi_z)]_k - sum_(e >= 1) u_e*s_(k-e) is one
    ``combine`` of a_k, of each term of a, of degree d, with the slice of
    phi_z of degree k - d (from phi_(k-d+1), solved since d >= 2), and of
    each term of -u, of degree e, with s_(k-e).  ``homological_step`` on
    s_k yields phi_k, and at k = m the coefficient of x^m it cannot
    remove is epsilon; phi's kernel coefficient at x^m is left 0.  Every
    result is checked by ``verify_conjugation`` before it is returned."""
    m = X.m
    if N < m:
        raise PrecisionError("%s: order cannot reach the obstruction at "
                             "degree m" % _stage(m, N))
    a = _known_to(X.a, "tail", m, N)
    u = _known_to(X.u, "unit", m, N)
    ring = X.ring
    variables = X.variables
    by_degree, unit = {}, {}    # degree -> the terms of a; of -u, if >= 1
    for key, c in a.coeffs.items():
        by_degree.setdefault(key[0] + key[1], []).append((key, c))
    for key, c in u.coeffs.items():
        if key != (0, 0):
            unit.setdefault(key[0] + key[1], []).append((key, ring.neg(c)))
    one = {(0, 0): ring.one}    # a_k enters the sum first, as a_k * 1
    phi = {}
    phi_z = {}                  # degree -> that slice of phi_z
    s = {}                      # degree -> that slice of s
    epsilon = ring.zero
    for k in range(2, N + 1):
        terms = [(key, c, one) for key, c in by_degree.get(k, ())]
        for e, right in phi_z.items():
            terms += [(key, c, right) for key, c in by_degree.get(k - e, ())]
        for d, right in s.items():
            terms += [(key, c, right) for key, c in unit.get(k - d, ())]
        s_k, _ = ring.combine(terms, k, Series2._degree, Series2._add_keys)
        s[k] = s_k
        phi_k, kept = homological_step(
            Series2._raw(ring, variables, k, s_k, False), m, k)
        if k == m:
            epsilon = kept.coefficient(m, 0)
        if not phi_k.is_zero():
            phi.update(phi_k.coeffs)
            phi_z[k - 1] = _dz(phi_k, k - 1).coeffs
    phi = Series2._raw(ring, variables, N, phi, False)
    residual = verify_conjugation(X, phi, m, epsilon, N)
    if not residual > N:
        raise MathError("%s: conjugation residual valuation %s <= N"
                        % (_stage(m, N), residual))
    return NormalizationResult(m=m, epsilon=epsilon, transform=phi,
                               order=N, residual_valuation=residual)


def verify_conjugation(X: FiberedField, transform: Series2, m: int, epsilon,
                       N: int):
    """Valuation of the conjugacy identity's residual times the unit u,

        W = u*(x*phi_x + m*z*phi_z - m*phi - epsilon*x^m) + a*(1 + phi_z),

    to order N with phi = transform: above N exactly when z -> z + phi
    carries X to x d/dx + (m w + epsilon*x^m) d/dw to order N.  W is one
    ``combine`` that reuses nothing of the solve, and so is the bound a
    float ring compares it with, the same expression over the absolute
    values the ring's ``size`` gives."""
    ring = X.ring
    a = _known_to(X.a, "tail", m, N)
    u = _known_to(X.u, "unit", m, N)
    phi = _known_to(transform, "transform", m, N)
    one = {(0, 0): ring.one}

    def identity(value, divisor):  # W, each coefficient c as value(c)
        lin = _times(phi, N, [(key, value(c), divisor(*key))
                              for key, c in phi.coeffs.items()], False)
        unit = {key: value(c) for key, c in u.coeffs.items()}
        phi_z = {key: value(c) for key, c in _dz(phi, N).coeffs.items()}
        terms = [(key, c, lin.coeffs) for key, c in unit.items()]
        terms.append(((m, 0), value(ring.neg(epsilon)), unit))
        for key, c in a.coeffs.items():
            terms += [(key, value(c), one), (key, value(c), phi_z)]
        acc, _ = ring.combine(terms, N, Series2._degree, Series2._add_keys)
        return Series2._raw(ring, X.variables, N, acc, False)

    return ring.residual_valuation(
        identity(lambda c: c, lambda i, j: i + m * (j - 1)),
        lambda size: identity(size, lambda i, j: i + m * (j + 1)))
