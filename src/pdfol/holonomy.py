"""Formal one-dimensional diffeomorphisms and holonomy generators.

The projective holonomy of the divisor component carrying the
Poincare-Dulac point is generated by mu*exp(Y) and (lambda/mu)*exp(-Y)
where Y is a vector field vanishing to order m + 1 and mu^m = 1,
lambda^p = 1.  This module supplies the formal side (Lie-series
exponential and logarithm, composition, inversion, the closed-form
model generator) and a numeric oracle that transports a transversal
coordinate around a divisor loop by integrating the leaf-lift ODE.

Loop convention: the divisor is the zero set of the first variable, the
loop runs in the second variable, and the first coordinate is
transported.  Pass ``omega.swapped()`` to loop in the first variable.
"""

import cmath
import math
import operator
from dataclasses import dataclass
from functools import reduce

import mpmath

from .errors import InputError, MathError, PrecisionError
from .forms import OneForm2
from .rings import ComplexApprox, rational
from .series import INF, Series1


@dataclass(frozen=True)
class VectorField1:
    """f(x) * d/dx with f vanishing to order at least 2."""
    f: Series1

    def __post_init__(self):
        if self.f.valuation() < 2:
            raise MathError("flow field must vanish to order >= 2")

    @property
    def ring(self):
        return self.f.ring

    def scale(self, value) -> "VectorField1":
        return VectorField1(self.f.scale(self.ring.coerce(value)))

    def __neg__(self) -> "VectorField1":
        return VectorField1(-self.f)


@dataclass(frozen=True)
class FormalDiffeo1:
    """h(x) = multiplier*x + tail(x) with tail vanishing to order >= 2."""
    multiplier: object
    tail: Series1

    def __post_init__(self):
        if self.tail.ring.is_zero(self.multiplier):
            raise MathError("a formal diffeomorphism needs a nonzero "
                            "multiplier")
        if self.tail.valuation() < 2:
            raise MathError("diffeomorphism tail must vanish to order >= 2")

    @property
    def ring(self):
        return self.tail.ring

    @property
    def variable(self):
        return self.tail.variable

    @property
    def order(self):
        return self.tail.order

    def series(self) -> Series1:
        x = Series1.monomial(self.ring, self.variable, self.order, 1)
        return x.scale(self.multiplier) + self.tail

    @classmethod
    def from_series(cls, s: Series1) -> "FormalDiffeo1":
        ring = s.ring
        if not ring.is_zero(s.coefficient(0)):
            raise MathError("a diffeomorphism fixing 0 cannot have a "
                            "constant term")
        lam = s.coefficient(1)
        x = Series1.monomial(ring, s.variable, s.order, 1)
        return cls(lam, s - x.scale(lam))

    @classmethod
    def linear(cls, ring, variable: str, order: int,
               value) -> "FormalDiffeo1":
        return cls(ring.coerce(value), Series1.zero(ring, variable, order))

    def evaluate(self, x0):
        """Numeric value of the truncated series at x0."""
        ring = self.ring
        with mpmath.workprec(ring.precision):
            xv = mpmath.mpc(x0)
            acc = mpmath.mpc(0)
            for k, c in self.series().coeffs.items():
                acc += ring.to_complex(c) * xv ** k
            return acc

    def format(self) -> str:
        return self.series().format()


def _lie_series(source: Series1, N: int, log: bool = False):
    """The Lie series of Y = f d/dx to order N, one degree at a time.

    exp(Y)(x) = x + sum_k T_k with T_1 = f, T_k = f*T_{k-1}'/k.  Since
    val(f) >= 2, [x^d] T_k for k >= 2 needs f only below degree d.  f_d
    is ``source``'s coefficient, or with ``log`` the one that makes
    exp(Y) - x equal ``source``: f_d = source_d - sum_{k>=2} [x^d] T_k.
    Returns f, exp(Y) - x and exp(-Y) - x.  The k-th term of -Y is
    (-1)^k times that of Y, bit for bit: negation commutes with every
    rounded product, sum and scaling.  So exp(-Y) - x, the alternating
    sum, is what the recursion gives for -Y.  All three are flagged
    truncated unless the source is exact and zero: a nonzero field's T_k
    reach every degree."""
    ring = source.ring
    if source.truncated and source.order < N:
        raise PrecisionError("%s known only to order %d < N = %d"
                             % ("diffeomorphism" if log else "flow field",
                                source.order, N))
    f, plus, minus = {}, {}, {}
    # slopes[k][j] = j * [x^j] T_k, so [x^(j-1)] T_k' = slopes[k][j]
    slopes = [None] + [{} for _ in range(N)]
    # f, each T_k and both sums lie on the degrees 1 + g*Z of the source
    step = math.gcd(*(d - 1 for d in source.coeffs)) or 1
    for d in range(1 + step, N + 1, step):
        terms = []  # (k, [x^d] T_k) for k >= 2
        for k in range(2, d):
            lower = slopes[k - 1]
            if not lower:  # T_(k-1) vanishes below degree d, so T_k does
                break
            # f ascends: it is filled degree by degree
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
        # +-f_d first, then each term in turn, as a product loop adds them
        plus_d = reduce(ring.add, (t for _, t in terms), c)
        minus_d = reduce(ring.add, (t if k % 2 == 0 else ring.neg(t)
                                    for k, t in terms), ring.neg(c))
        for tail, value in ((plus, plus_d), (minus, minus_d)):
            if not ring.is_zero(value):
                tail[d] = value
    cut = source.truncated or bool(source.coeffs)
    return [Series1._raw(ring, source.variable, N, coeffs, cut)
            for coeffs in (f, plus, minus)]


def exp_vf(Y: VectorField1, N: int) -> FormalDiffeo1:
    """Time-1 flow of Y as the Lie series sum_k Y^k(id)/k!.

    Each application of Y raises the valuation, so the sum is finite at
    any truncation order."""
    _, plus, _ = _lie_series(Y.f, N)
    return FormalDiffeo1(Y.ring.coerce(1), plus)


def log_diffeo(h: FormalDiffeo1, N: int) -> VectorField1:
    """The vector field Y = f d/dx with exp_vf(Y, N) = h to order N.

    Only tangent-to-identity maps have a logarithm in this chart."""
    ring = h.ring
    if not ring.eq(h.multiplier, ring.coerce(1)):
        raise MathError("logarithm needs multiplier 1")
    f, _, _ = _lie_series(h.tail, N, log=True)
    return VectorField1(f)


def compose(outer: FormalDiffeo1, inner: FormalDiffeo1) -> FormalDiffeo1:
    return FormalDiffeo1.from_series(outer.series().compose(inner.series()))


def inverse(h: FormalDiffeo1) -> FormalDiffeo1:
    return FormalDiffeo1.from_series(h.series().reversion())


def group_commutator(g: FormalDiffeo1, h: FormalDiffeo1) -> FormalDiffeo1:
    """g o h o g^{-1} o h^{-1}, formed as the same element
    (g o h) o (h o g)^{-1}: one reversion and three compositions."""
    return compose(compose(g, h), inverse(compose(h, g)))


def diffeo_close(h: FormalDiffeo1, g: FormalDiffeo1) -> bool:
    return h.ring.series_close(h.series(), g.series())


def is_identity(h: FormalDiffeo1) -> bool:
    return diffeo_close(h, FormalDiffeo1.linear(h.ring, h.variable, h.order,
                                                1))


def pd_holonomy_model(m: int, N: int, ring=None) -> FormalDiffeo1:
    """Holonomy of x dz - (mz + x^m) dx around the divisor loop:
    e^{2*pi*i/m} * exp(-(2*pi*i/m) * x^{m+1}/(m + x^m) * d/dx)."""
    if m < 2:
        raise InputError("the model needs m >= 2")
    if ring is None:
        ring = ComplexApprox()
    variable = "x"
    with mpmath.workprec(ring.precision):
        coeff = mpmath.mpc(0, 2 * mpmath.pi) / m
        mu = mpmath.exp(coeff)
    den = Series1(ring, variable, N, {0: m, m: 1})
    shift = Series1.monomial(ring, variable, N, m + 1)
    field = (den.inverse_unit() * shift).scale(ring.neg(ring.coerce(coeff)))
    flow = exp_vf(VectorField1(field), N)
    return FormalDiffeo1(ring.coerce(mu), flow.tail.scale(ring.coerce(mu)))


def _eval2(terms, xv, z):
    """sum(c * xv^i * z^j for (i, j, c) in terms), with no generator."""
    acc = 0
    for i, j, c in terms:
        acc += c * xv ** i * z ** j
    return acc


# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.10)
# in doubles: nodes, stage rows, weights, the two embedded error estimators.
_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_A = ((0.05260015195876773,), (0.0197250569845379, 0.0591751709536137),
      (0.02958758547680685, 0, 0.08876275643042054),
      (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
      (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
      (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
       -0.017578125),
      (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
       -0.015319437748624402, 0.008273789163814023),
      (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
       27.59209969944671, 20.154067550477894, -43.48988418106996),
      (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
       21.230051448181193, 15.279233632882423, -33.28821096898486,
       -0.020331201708508627),
      (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
       -8.149787010746927, -18.52006565999696, 22.739487099350505,
       2.4936055526796523, -3.0467644718982196),
      (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
       -17.9589318631188, 27.94888452941996, -2.8589982771350235,
       -8.87285693353063, 12.360567175794303, 0.6433927460157636))
_B = (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, 0.3111643669578199,
      -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E3 = (-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
_E5 = (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_STAGES = tuple(zip(_C, _A))


def _dop853(slope, y, atol):
    """y(1) for y' = slope(t, y), y(0) = y, on one complex scalar: the
    step control of scipy's DOP853 (initial step after HNW II.4, safety
    0.9, factor in [0.2, 10], exponent -1/8, the E5/E3 error norm)."""
    t, rtol, max_step = 0.0, 1e-10, 0.05
    mul = operator.mul
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
                for c, row in _STAGES:
                    K.append(slope(t + c * h, y + sum(map(mul, row, K)) * h))
                y_new = y + h * sum(map(mul, _B, K))
                scale = atol + max(abs(y), abs(y_new)) * rtol
                err5 = abs(sum(map(mul, _E5, K)) / scale) ** 2
                err3 = abs(sum(map(mul, _E3, K)) / scale) ** 2
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


def numeric_holonomy(omega: OneForm2, center, radius, samples):
    """Transport sample transversal points around the divisor loop.

    The loop is the circle of the given radius around ``center`` in the
    second variable; the leaf-lift ODE dx/dz = -b(x, z)/a(x, z) is
    integrated once around by DOP853, each sample on its own with its
    own step sequence (absolute tolerance 1e-14 * max(1, |x0|)).
    Returns the end values.

    InputError unless the radius is finite and positive and the center
    and every sample are finite; MathError when the loop meets a divisor
    singularity or the transport overflows or stalls.
    """
    c0 = complex(center)
    r = float(radius)
    starts = [complex(x0) for x0 in samples]
    if not (math.isfinite(r) and r > 0):
        raise InputError("loop radius must be finite and positive")
    if not all(map(cmath.isfinite, [c0] + starts)):
        raise InputError("loop center and samples must be finite")

    ring = omega.ring
    a_terms = [(i, j, complex(ring.to_complex(c)))
               for (i, j), c in omega.a.coeffs.items()]
    b_terms = [(i, j, complex(ring.to_complex(c)))
               for (i, j), c in omega.b.coeffs.items()]
    if not a_terms:
        raise MathError("the dx-coefficient vanishes identically; the "
                        "transversal fibration degenerates along the loop")

    restriction = omega.a.restrict_first_zero()
    if not restriction.is_zero():
        rest_terms = [(0, j, complex(ring.to_complex(c)))
                      for j, c in restriction.coeffs.items()]
        scale = max(abs(c) for _, _, c in rest_terms)
        for k in range(360):
            z = c0 + r * cmath.exp(2j * cmath.pi * k / 360)
            if abs(_eval2(rest_terms, 0.0, z)) <= 1e-9 * scale:
                raise MathError("loop passes through or too close to a "
                                "divisor singularity near z = %s" % z)

    two_pi_i = 2j * cmath.pi

    def slope(t, xv):
        turn = cmath.exp(two_pi_i * t)
        z = c0 + r * turn
        av = _eval2(a_terms, xv, z)
        if av == 0:
            raise MathError("leaf lift hit a zero of the dx-coefficient")
        return -(_eval2(b_terms, xv, z) / av) * (two_pi_i * r * turn)

    return [mpmath.mpc(_dop853(slope, x0, 1e-14 * max(1.0, abs(x0))))
            for x0 in starts]


@dataclass(frozen=True)
class HolonomyGroupModel:
    """H = <mu*exp(Y), (lambda/mu)*exp(-Y)> with mu^m = 1, lambda^p = 1."""
    p: int
    m: int
    mu: object
    lam: object
    Y: VectorField1
    h1: FormalDiffeo1
    h2: FormalDiffeo1


def group_model(p: int, m: int, Y: VectorField1,
                N: int) -> HolonomyGroupModel:
    """Build both generators from the vanishing-order-(m+1) field Y, with
    mu = e^(2 pi i/m) and lambda = e^(2 pi i/p)."""
    if p < 2 or m < 2:
        raise InputError("group model needs p >= 2 and m >= 2")
    v = Y.f.valuation()
    if v is not INF and v != m + 1:
        raise MathError("model field must vanish to order exactly m + 1 "
                        "(got valuation %s)" % v)
    ring = Y.ring
    with mpmath.workprec(ring.precision):
        turn = mpmath.mpc(0, 2 * mpmath.pi)
        mu, lam = mpmath.exp(turn / m), mpmath.exp(turn / p)
    mu, lam = ring.coerce(mu), ring.coerce(lam)
    _, plus, minus = _lie_series(Y.f, N)
    ratio = ring.div(lam, mu)
    h1 = FormalDiffeo1(mu, plus.scale(mu))
    h2 = FormalDiffeo1(ratio, minus.scale(ratio))
    return HolonomyGroupModel(p, m, mu, lam, Y, h1, h2)


def dichotomy(p: int, m: int) -> str:
    """Abelian when p divides m, non-solvable otherwise.

    This is the dichotomy of the model group <mu*exp(Y),
    (lambda/mu)*exp(-Y)> of ``group_model``, whose generators lie in the
    flow of one field Y.  It is not read from an input's holonomy group,
    which can differ from the model's."""
    if p < 2 or m < 2:
        raise InputError("dichotomy needs p >= 2 and m >= 2")
    return "Abelian" if m % p == 0 else "NonSolvable"


def sz_lambda(p: int, m: int):
    """The two resonance weights p/(m+p) and (m+p)/p, plus an integer
    flag for the second; the flag holds exactly when p divides m."""
    if p < 2 or m < 2:
        raise InputError("sz_lambda needs p >= 2 and m >= 2")
    small = rational(p, m + p)
    large = rational(m + p, p)
    integer = large.denominator == 1
    assert integer == (m % p == 0)
    return small, large, integer


def periodicity(h: FormalDiffeo1, q: int, N: int = None) -> bool:
    """Is the q-fold composition of h the identity to order N?"""
    if q < 1:
        raise InputError("periodicity needs q >= 1")
    acc = h
    for _ in range(q - 1):
        acc = compose(acc, h)
    if N is not None and acc.order > N:
        acc = FormalDiffeo1(acc.multiplier, acc.tail.truncate(N))
    return is_identity(acc)
