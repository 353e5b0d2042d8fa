"""Fibered normal form at a Poincare-Dulac candidate.

The model field is X = x d/dx + (m z + a(x,z)) d/dz with nu(a) >= 2.  A
fibered change of coordinates w = z + phi(x,z) carries it to the normal
form x d/dx + (m w + epsilon*x^m) d/dw exactly when

    x*phi_x + m*z*phi_z - m*phi = epsilon*x^m - a - a*phi_z,

the conjugacy equation, which is linear in phi.  Its operator multiplies
x^i z^j by the divisor i + m(j-1), which vanishes only at (i,j) = (m,0).
Because nu(a) >= 2, the degree-k slice of the right side involves phi
only below degree k, so one pass over k = 2..N solves for phi and
epsilon with products alone, forming each slice once from the slices of
phi below it (Ilyashenko-Yakovenko, Lectures on Analytic Differential
Equations, ch. 1; a slice at a time is van der Hoeven's "relaxed"
multiplication, J. Symbolic Comput. 34(6), 2002).  The surviving
coefficient epsilon distinguishes a genuine Poincare-Dulac singularity
(epsilon != 0) from one that is dicritical to the computed order.

``apply_fibered`` transports a tail through a fibered map by inverting
the fiber; it is not used by ``normalize`` and serves as an independent
oracle for building test inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .errors import MathError, PrecisionError
from .forms import OneForm2
from .rings import rational
from .series import Series2


@dataclass(frozen=True)
class FiberedField:
    """x d/dx + (m z + a(x,z)) d/dz with nu(a) >= 2."""

    m: int
    a: Series2

    def __post_init__(self):
        if self.m < 2:
            raise MathError("fibered model needs m >= 2")
        v = self.a.valuation()
        if v < 2:
            raise MathError("fibered tail must have valuation >= 2")

    @property
    def ring(self):
        return self.a.ring

    @property
    def variables(self):
        return self.a.variables


def to_fibered_field(omega: OneForm2, m: int, order: int) -> FiberedField:
    """Put a 1-form with a Poincare-Dulac candidate at the origin into the
    fibered model, with its tail to ``order``.

    The dz-coefficient must be x*(unit); dividing the dual field by the
    unit makes the first component exactly x, forcing the z-linear slope
    of the second component to be exactly m.  A shear z -> z + c*x then
    removes the x-linear term (its divisor is m - 1 != 0)."""
    ring = omega.ring
    # dividing the dz-coefficient by its x factor costs one order; work
    # one higher internally so the tail is complete to the order requested
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


def _x_dx(phi: Series2, order: int) -> Series2:
    return _times(phi, order, [((i, j), c, i)
                               for (i, j), c in phi.coeffs.items() if i],
                  phi.truncated)


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
    substituting the inverse fiber map.  ``normalize`` does not call it;
    it is the independent transport oracle that checks its results."""
    ring = a.ring
    variables = a.variables
    phi = _at_order(phi, order)
    if phi.valuation() < 2:
        raise MathError("fibered transforms need valuation >= 2")
    psi = invert_fiber(phi, order)
    ex = Series2(ring, variables, order, {(1, 0): 1})
    z = Series2(ring, variables, order, {(0, 1): 1})
    cache = {}
    a_at = _at_order(a, order).substitute(ex, psi, cache)
    xphix_at = _x_dx(phi, order).substitute(ex, psi, cache)
    phiz_at = _dz(phi, order).substitute(ex, psi, cache)
    one = Series2.constant(ring, variables, order, 1)
    flow = psi.scale(ring.coerce(m)) + a_at
    return xphix_at + (one + phiz_at) * flow - z.scale(ring.coerce(m))


def _magnitudes(series: Series2) -> Series2:
    """The series of the absolute values of the coefficients."""
    acc = {key: mpmath.mpc(abs(c)) for key, c in series.coeffs.items()}
    return Series2._raw(series.ring, series.variables, series.order, acc,
                        series.truncated)


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

    Each degree-k slice is computed once, from the slices below it: the
    slice s_k of s = a + a*phi_z is a_k plus one ``combine`` of each term
    of a, of degree d, with the slice of phi_z of degree k - d, which
    comes from phi_(k-d+1), already solved since d >= 2.
    ``homological_step`` on s_k yields phi_k, and at k = m the
    coefficient of x^m it cannot remove is epsilon.  The kernel
    coefficient of phi at x^m is left 0.  Every result is checked by
    ``verify_conjugation`` before it is returned."""
    m = X.m
    if N < m:
        raise PrecisionError("%s: order cannot reach the obstruction at "
                             "degree m" % _stage(m, N))
    a = _known_to(X.a, "tail", m, N)
    ring = X.ring
    variables = X.variables
    by_degree = {}
    for key, c in a.coeffs.items():
        by_degree.setdefault(key[0] + key[1], []).append((key, c))
    one = {(0, 0): ring.one}    # a_k enters the sum first, as a_k * 1
    phi = {}
    phi_z = {}                  # degree -> that slice of phi_z
    epsilon = ring.zero
    for k in range(2, N + 1):
        terms = [(key, c, one) for key, c in by_degree.get(k, ())]
        for e, right in phi_z.items():
            terms += [(key, c, right) for key, c in by_degree.get(k - e, ())]
        s_k, _ = ring.combine(terms, k, Series2._degree, Series2._add_keys)
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
    """Valuation of the conjugacy identity's residual

        x*phi_x + (1 + phi_z)*(m*z + a) - m*z - m*phi - epsilon*x^m

    truncated at N, with phi = transform.  It vanishes through degree N
    exactly when z -> z + phi carries X to x d/dx + (m w + epsilon*x^m)
    d/dw to order N, so a correct normalization makes the valuation
    exceed N.  Only products and derivatives are used: no inversion and
    no substitution."""
    ring = X.ring
    a = _known_to(X.a, "tail", m, N)
    phi = _known_to(transform, "transform", m, N)
    variables = X.variables
    mz = Series2.monomial(ring, variables, N, (0, 1), m)
    one = Series2.constant(ring, variables, N, 1)
    model = Series2.monomial(ring, variables, N, (m, 0), epsilon)
    residual = (_x_dx(phi, N) + (one + _dz(phi, N)) * (mz + a)
                - mz - phi.scale(ring.coerce(m)) - model)

    def bound():  # the residual's terms over absolute values
        a_abs, phi_abs = _magnitudes(a), _magnitudes(phi)
        return (_x_dx(phi_abs, N) + (one + _dz(phi_abs, N)) * (mz + a_abs)
                + mz + phi_abs.scale(ring.coerce(m)) + _magnitudes(model))
    return ring.residual_valuation(residual, bound)


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
