"""Coefficient rings for truncated series arithmetic.

Series code never touches coefficient values directly; it goes through a
ring object that bundles arithmetic, zero tests and (partial) inversion.
Three rings are provided:

* ``RationalExact``      -- arbitrary-precision rationals, canonical form,
                            structural equality.
* ``ComplexApprox``      -- binary complex floats at a configurable mantissa
                            (default 64 bits) with relative comparison
                            tolerance ``tol`` (default 1e-9).
* ``ParamPolyRing``      -- dense polynomials over the rationals in one
                            formal parameter; units are the nonzero
                            constants.

Elements are plain values (``Fraction``, ``mpmath.mpc``,
``ParamPoly``), so client code can also use native operators once values
have been coerced.

Everything that differs by ring is a method of ``CoefficientRing``, so
callers never branch on the ring's type.  The interface:

* elements: ``zero``, ``one``, ``coerce``, ``from_rational``,
  ``as_rational``, ``symbol`` (the element a name of the input grammar
  stands for);
* arithmetic: ``add``, ``sub``, ``mul``, ``neg``, ``invert``, ``div``,
  ``is_zero``, ``eq``, the dot product ``dot`` and the series kernel
  ``combine``;
* text: ``format_coeff``, ``signed_text`` (for the input grammar's
  printer) and ``json_value``;
* numbers: ``to_complex``, ``negligible`` and ``near_rational`` take an
  element or a numeric approximation of one (an eigenvalue, a root);
  numbers are compared within ``tol`` at ``precision`` bits, which the
  exact rings fix at 1e-9 and 64;
* solving: ``roots`` of a polynomial, exact where the ring can be;
  ``forms.eigenvalues`` solves a characteristic polynomial through it;
* checks: ``series_close`` compares two series and ``residual_valuation``
  reads the valuation of a residual; only ``ComplexApprox`` allows for
  roundoff, and only it builds the bound that takes.

Each ring owns the inner loop of series products and substitutions,
``combine(terms, order, degree, add_keys)``: the sum of c*x^shift*right
over ``(shift, c, right)`` terms (one per left key of a product, one per
monomial of a substitution) cut at total degree ``order``, as a dict
without zeros, and whether any pair was cut.  Terms are visited in the
order given, each ``right`` in its insertion order, so keys and per-key
sums come in the order of the plain pairwise loop.  ``RationalExact`` and
``ParamPolyRing`` scale all values to integers (integer lists in the
parameter) over the lcm D of their denominators, sum integer products per
key and build one element over D^2 per nonzero key.  ``ComplexApprox``
splits each element once into signed integer mantissas and exponents and
rounds each product and each sum as ``mul`` and ``add`` do, so its
``combine`` and ``dot`` give the bits of ``mul`` then ``add``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath.libmp import (fone, from_float, fzero, mpc_abs, mpc_add, mpc_neg,
                          mpc_sub, mpf_le, mpf_mul, round_nearest)

from .errors import InputError, MathError, NotInvertibleError
from .series import Series1

rational = Fraction  # rational(3), rational(1, 2), rational("7/3")
_NUMBERS = (mpmath.mpc, mpmath.mpf, float, complex)  # numeric approximations


def is_rational(value) -> bool:
    return isinstance(value, (int, Fraction))


def rational_sqrt(q):
    """Exact square root of a rational, or None when it is not a square.

    Only nonnegative inputs can succeed; the negative case returns None so
    callers can treat "not a rational square" uniformly.
    """
    q = rational(q)
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return rational(rn, rd)


def small_rational(x, tol):
    """Best rational of denominator at most 1000 within 10*tol of the
    real x, or None."""
    f = Fraction(float(x)).limit_denominator(1000)
    if abs(float(f) - float(x)) <= 10 * tol * max(1.0, abs(float(x))):
        return f
    return None


def format_rational(q) -> str:
    """Canonical text for a rational: "5", "-3/2"."""
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class ParamPoly:
    """Dense polynomial in one formal parameter, rational coefficients.

    Trailing zero coefficients are stripped, so equal polynomials have
    equal coefficient tuples.
    """

    __slots__ = ("coeffs",)

    def __new__(cls, coeffs=()):
        if is_rational(coeffs):
            coeffs = (coeffs,)
        return cls._raw([rational(c) for c in coeffs])

    @classmethod
    def _raw(cls, cs):
        """A polynomial from a list of rationals, with no coercion: for
        results of arithmetic on coefficients that are rationals already."""
        while cs and cs[-1] == 0:
            cs.pop()
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(cs))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    def constant_value(self):
        """The value as a rational if the polynomial is constant, else None."""
        if not self.coeffs:
            return rational(0)
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        return None

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            return other
        if is_rational(other):
            return ParamPoly((other,))
        return None

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its rational value, so it hashes as that value
        value = self.constant_value()
        return hash(("ParamPoly", self.coeffs) if value is None else value)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return ParamPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._raw([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ParamPoly()
        out = [rational(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return ParamPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("ParamPoly powers must be nonnegative integers")
        out = ParamPoly((1,))
        for _ in range(k):
            out = out * self
        return out

    def format(self, name: str) -> str:
        """The text of ``Series1.format`` with ``name`` as the variable."""
        return Series1(RationalExact(), name, len(self.coeffs),
                       dict(enumerate(self.coeffs))).format()

    def __repr__(self):
        """``ParamPoly(('0', '1/2'))``: names no parameter, and ``eval``
        gives the polynomial back."""
        return "ParamPoly(%r)" % (tuple(map(format_rational, self.coeffs)),)


class CoefficientRing:
    """Capability bundle for coefficient arithmetic.

    Subclasses fix the element type; ``zero``/``one`` are canonical
    elements.  ``invert`` is partial and raises NotInvertibleError on
    non-units.  ``combine`` is the series kernel of the module docstring;
    the exact rings share it and supply ``_scaled`` and ``_kernel``.  The
    numeric methods here serve all three rings: a float element is a
    number already.
    """

    name = "?"
    precision = 64  # bits and tolerance of numeric approximations
    tol = 1e-9

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.invert(b))

    def dot(self, pairs):
        """The sum of a*b over ``pairs``, folded in the order given by
        ``mul`` and ``add``; None when there are no pairs."""
        acc = None
        for a, b in pairs:
            term = self.mul(a, b)
            acc = term if acc is None else self.add(acc, term)
        return acc

    def from_rational(self, q):
        raise NotImplementedError

    def as_rational(self, a):
        """Exact rational value of an element, or None when there is none."""
        return None

    def symbol(self, name):
        """The element a name of the input grammar stands for, or None."""
        return None

    def json_value(self, a):
        raise NotImplementedError

    def format_coeff(self, a) -> str:
        raise NotImplementedError

    def signed_text(self, a):
        """(negate, text) of a coefficient for the input grammar's printer:
        its sign and the text of its magnitude, None for a bare 1."""
        raise NotImplementedError

    def to_complex(self, a):
        """An element or a number as an ``mpmath.mpc``; a rational rounds
        at the context precision.  MathError when there is no value."""
        if isinstance(a, _NUMBERS):
            return mpmath.mpc(a)
        q = self.as_rational(a)
        if q is None:
            raise MathError("coefficient %s has no numeric value"
                            % self.format_coeff(a))
        return mpmath.mpc(mpmath.mpf(int(q.numerator)) / int(q.denominator))

    def negligible(self, x, scale=1.0) -> bool:
        """Whether x is zero: an element exactly, a number within
        ``tol * scale``."""
        if isinstance(x, _NUMBERS):
            return abs(x) <= self.tol * scale
        return self.is_zero(x)

    def near_rational(self, x):
        """The rational x stands for, or None: an element's exact value,
        else ``small_rational`` of a number with negligible imaginary
        part."""
        if not isinstance(x, _NUMBERS):
            return self.as_rational(x)
        if not self.negligible(x.imag):
            return None
        return small_rational(x.real, self.tol)

    def roots(self, coeffs):
        """[(root, multiplicity, approximate)] of the polynomial with the
        ascending ``coeffs``, of degree >= 1 with a nonzero leading term:
        numeric here, exact where a subclass can."""
        if len(coeffs) == 2:
            return [(self.neg(self.div(coeffs[0], coeffs[1])), 1, True)]
        with mpmath.workprec(self.precision):
            found = mpmath.polyroots([self.to_complex(c)
                                      for c in reversed(coeffs)],
                                     maxsteps=100, extraprec=50)
        return [(mpmath.mpc(r), 1, True) for r in found]

    def series_close(self, s1, s2) -> bool:
        """Whether two one-variable series agree: equal here."""
        return s1 == s2

    def residual_valuation(self, residual, bound):
        """Valuation of a series that vanishes in exact arithmetic.  An
        exact ring reads it off and never calls ``bound``, the function
        that builds the series with each coefficient c as ``size(c)``."""
        return residual.valuation()

    def combine(self, terms, order, degree, add_keys):
        rights = {id(right): right for _, _, right in terms}
        values, scale = self._scaled([c for _, c, _ in terms] + [
            v for right in rights.values() for v in right.values()])
        rest = iter(values[len(terms):])
        for rid, right in rights.items():  # zip ends with right, not rest
            rights[rid] = list(zip(right, map(degree, right), rest))
        plan = [(shift, order - degree(shift), a, rights[id(right)])
                for (shift, _, right), a in zip(terms, values)]
        return self._kernel(plan, add_keys, scale)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class RationalExact(CoefficientRing):
    """Exact rational coefficients with canonical numerator/denominator."""

    name = "exact"

    def __init__(self):
        self.zero = rational(0)
        self.one = rational(1)

    def coerce(self, value):
        if is_rational(value):
            return rational(value)
        if isinstance(value, str):
            return rational(value)
        raise MathError("cannot interpret %r as an exact rational" % (value,))

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return a == b

    def invert(self, a):
        if a == 0:
            raise NotInvertibleError("division by zero in exact mode")
        return rational(1) / a

    def from_rational(self, q):
        return rational(q)

    def as_rational(self, a):
        return rational(a)

    def roots(self, coeffs):
        if len(coeffs) == 2:
            return [(self.neg(self.div(coeffs[0], coeffs[1])), 1, False)]
        if len(coeffs) == 3:
            c0, c1, c2 = coeffs
            disc = c1 * c1 - 4 * c0 * c2
            sq = rational_sqrt(disc) if disc >= 0 else None
            if sq is not None:
                half = rational(1, 2) / c2
                r1, r2 = (-c1 + sq) * half, (-c1 - sq) * half
                if r1 == r2:
                    return [(r1, 2, False)]
                return [(r1, 1, False), (r2, 1, False)]
        return super().roots(coeffs)

    @staticmethod
    def _scaled(values):
        scale = math.lcm(*[v.denominator for v in values])
        return [v.numerator * (scale // v.denominator) for v in values], scale

    @staticmethod
    def _kernel(plan, add_keys, scale):
        acc = {}
        get = acc.get
        cut = False
        for shift, limit, a, right in plan:
            for key, d, b in right:
                if d > limit:
                    cut = True
                    continue
                key = add_keys(shift, key)
                acc[key] = get(key, 0) + a * b
        scale *= scale
        return {key: Fraction(v, scale) for key, v in acc.items()
                if v}, cut

    def json_value(self, a):
        return "%d/%d" % (a.numerator, a.denominator)

    def format_coeff(self, a) -> str:
        return format_rational(a)

    def signed_text(self, a):
        neg = a < 0
        mag = -a if neg else a
        return neg, None if mag == 1 else format_rational(mag)


_make_mpc = mpmath.mp.make_mpc
_TABLE_SIZE = 512  # rationals ``ComplexApprox.coerce`` remembers per ring


# The float kernels work on an element split into signed integer
# mantissas and exponents, (rm, re, im, ie) for rm*2^re + i*im*2^ie.
# A finite mpmath part is (sign, odd or zero mantissa, exponent, bits).

def _split(a):
    (rs, rm, re, _), (is_, im, ie, _) = a._mpc_
    return (-rm if rs else rm), re, (-im if is_ else im), ie


def _part(man, exp):
    """``from_man_exp(man, exp)``: man*2^exp exactly, its mantissa odd."""
    if not man:
        return fzero
    sign, man = (0, man) if man > 0 else (1, -man)
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _join(rm, re, im, ie):
    return _make_mpc((_part(rm, re), _part(im, ie)))


def _add(a, ea, b, eb, prec):
    """a*2^ea + b*2^eb rounded to ``prec`` bits, to nearest and ties to
    even, with the bits of ``mpf_add``.  That rounds the exact sum once,
    except when the exponents differ by more than 100 and the smaller
    value lies more than prec + 4 bits below the larger: then it rounds
    the larger one nudged by one unit 2^(prec + 4) below its last bit
    toward the smaller.  The two agree unless the larger has more than
    prec + 1 bits, as an exact product has."""
    if a and b:
        off = ea - eb
        if off >= 0:
            if off > 100 and a.bit_length() - b.bit_length() + off > prec + 4:
                a, ea = (a << prec + 4) + (1 if b > 0 else -1), ea - prec - 4
            else:
                a, ea = (a << off) + b, eb
        elif off < -100 and b.bit_length() - a.bit_length() - off > prec + 4:
            a, ea = (b << prec + 4) + (1 if a > 0 else -1), eb - prec - 4
        else:
            a += b << -off
    elif b:
        a, ea = b, eb
    n = a.bit_length() - prec
    if n <= 0:
        return a, ea
    q = a >> n - 1  # floor: the bit below the kept ones is q's last
    if q & 1 and (q & 2 or a & (1 << n - 1) - 1):
        return (q >> 1) + 1, ea + n
    return q >> 1, ea + n


class ComplexApprox(CoefficientRing):
    """Complex floats with a configurable mantissa and comparison tolerance.

    Equality is relative: |a - b| <= tol * max(1, |a|, |b|).  All arithmetic
    runs at ``precision`` bits, and every element is finite.
    """

    name = "float"

    def __init__(self, precision: int = 64, tol: float = 1e-9):
        if precision < 53:
            raise MathError("ComplexApprox needs at least 53 mantissa bits, "
                            "got %d" % precision)
        self.precision = int(precision)
        self.tol = float(tol)
        self._tol = from_float(self.tol)
        # 2^K > tol for the smallest such K; is_zero's exponent test
        # needs tol < 1/2 and is off otherwise
        self._nonzero_exp = math.frexp(self.tol)[1] if self.tol < 0.5 \
            else math.inf
        self._rationals = {}
        with mpmath.workprec(self.precision):
            self.zero = mpmath.mpc(0)
            self.one = mpmath.mpc(1)

    def _key(self):
        return (self.precision, self.tol)

    def coerce(self, value):
        """The element of ``value`` at ``precision`` bits.  An ``mpc``
        whose parts are finite and fit is returned as it is; rationals
        come from a table of at most ``_TABLE_SIZE`` entries.  MathError
        for a value that is not finite."""
        prec = self.precision
        if isinstance(value, mpmath.mpc):
            (_, _, _, rbc), (_, _, _, ibc) = value._mpc_
            if 0 <= rbc <= prec and 0 <= ibc <= prec:  # specials have bc < 0
                return value
        elif is_rational(value):
            out = self._rationals.get(value)
            if out is None:
                out = self.from_rational(value)
                if len(self._rationals) < _TABLE_SIZE:
                    self._rationals[value] = out
            return out
        elif not isinstance(value, (float, complex, mpmath.mpf)):
            raise MathError("cannot interpret %r as a complex coefficient"
                            % (value,))
        with mpmath.workprec(prec):
            out = mpmath.mpc(value)
        if not mpmath.isfinite(out):
            raise MathError("coefficient %r is not finite" % (value,))
        return out

    # add, sub and mul round to ``precision`` bits, to nearest: the same
    # bits as native operators under ``workprec(precision)``, without
    # entering a context per operation.  add and sub call mpmath on the
    # raw tuples; mul is the ``dot`` of one pair, on split mantissas,
    # which is faster there.
    def add(self, a, b):
        return _make_mpc(mpc_add(a._mpc_, b._mpc_, self.precision,
                                 round_nearest))

    def sub(self, a, b):
        return _make_mpc(mpc_sub(a._mpc_, b._mpc_, self.precision,
                                 round_nearest))

    def mul(self, a, b):
        return self.dot(((a, b),))

    def neg(self, a):
        """Exact: no rounding, so all ``precision`` bits survive (``-a``
        would round to mpmath's global precision)."""
        return _make_mpc(mpc_neg(a._mpc_))

    def is_zero(self, a) -> bool:
        """``eq(a, zero)``: |a| <= tol * max(1, |a|), with |a| and the
        product rounded to ``precision`` bits as there, computed on the
        raw mpmath tuples with no subtraction or precision context.

        Most values are decided by exponents alone.  A part m*2^e whose
        mantissa m is nonzero and has bc bits is at least 2^(e + bc - 1)
        in magnitude.  When that reaches 2^K, the least power of two
        above tol, |a| rounds to at least 2^K > tol, and since tol < 1/2
        also |a| > tol*|a|: the answer is False, with no square root."""
        (_, rman, rexp, rbc), (_, iman, iexp, ibc) = parts = a._mpc_
        big = self._nonzero_exp
        if (rman and rexp + rbc > big) or (iman and iexp + ibc > big):
            return False
        size = mpc_abs(parts, self.precision, round_nearest)
        if mpf_le(size, fone):
            return mpf_le(size, self._tol)
        return mpf_le(size, mpf_mul(self._tol, size, self.precision,
                                    round_nearest))

    # In dot and combine each part of a product is ``mpc_mul``'s: the
    # exact sum of exact products, rounded once by ``_add``.  The
    # mantissas of ``_split`` elements are odd, so the products' are too,
    # as ``mpf_add`` needs them for its exponent test.  Adding a product
    # to a running sum is ``mpc_add``: one ``_add`` per part.
    def dot(self, pairs):
        prec = self.precision
        sr = None
        for a, b in pairs:
            ar, ae, ai, aie = _split(a)
            br, be, bi, bie = _split(b)
            pr, pe = _add(ar * br, ae + be, -(ai * bi), aie + bie, prec)
            pi, pie = _add(ar * bi, ae + bie, ai * br, aie + be, prec)
            if sr is None:
                sr, se, si, sie = pr, pe, pi, pie
            else:
                sr, se = _add(sr, se, pr, pe, prec)
                si, sie = _add(si, sie, pi, pie, prec)
        return None if sr is None else _join(sr, se, si, sie)

    def combine(self, terms, order, degree, add_keys):
        prec = self.precision
        rights = {}  # each right dict split once
        acc = {}
        get = acc.get
        cut = False
        for shift, a, right in terms:
            limit = order - degree(shift)
            split = rights.get(id(right))
            if split is None:
                split = rights[id(right)] = [(key, degree(key), *_split(b))
                                             for key, b in right.items()]
            ar, ae, ai, aie = _split(a)
            for key, d, br, be, bi, bie in split:
                if d > limit:
                    cut = True
                    continue
                key = add_keys(shift, key)
                pr, pe = _add(ar * br, ae + be, -(ai * bi), aie + bie, prec)
                pi, pie = _add(ar * bi, ae + bie, ai * br, aie + be, prec)
                q = get(key)
                acc[key] = ((pr, pe, pi, pie) if q is None
                            else _add(q[0], q[1], pr, pe, prec)
                            + _add(q[2], q[3], pi, pie, prec))
        is_zero = self.is_zero
        return {key: v for key, q in acc.items()
                if not is_zero(v := _join(*q))}, cut

    def eq(self, a, b) -> bool:
        with mpmath.workprec(self.precision):
            scale = max(1.0, abs(a), abs(b))
            return abs(a - b) <= self.tol * scale

    def invert(self, a):
        if self.is_zero(a):
            raise NotInvertibleError("inverting a coefficient below tolerance")
        with mpmath.workprec(self.precision):
            return 1 / a

    def from_rational(self, q):
        with mpmath.workprec(self.precision):
            return mpmath.mpc(mpmath.mpf(int(q.numerator)) / int(q.denominator))

    def series_close(self, s1, s2) -> bool:
        """Coefficientwise within tol of the largest magnitude (at least 1)."""
        order = min(s1.order, s2.order)
        keys = {k for k in set(s1.coeffs) | set(s2.coeffs) if k <= order}
        pairs = [(self.to_complex(s1.coefficient(k)),
                  self.to_complex(s2.coefficient(k))) for k in keys]
        scale = max([1.0] + [abs(a) for a, _ in pairs]
                    + [abs(b) for _, b in pairs])
        return all(self.negligible(a - b, scale) for a, b in pairs)

    def residual_valuation(self, residual, bound):
        """Roundoff in a residual coefficient is relative to the same
        expression over absolute values, ``bound(size)``, coefficient by
        coefficient: a coefficient within tol of that bound counts as
        zero.  A coefficient within tol counts as zero whatever the
        bound, so ``bound`` is called only when some coefficient is not."""
        tol = self.tol
        big = [(key, c) for key, c in residual.coeffs.items() if abs(c) > tol]
        if not big:
            return math.inf
        bound = bound(lambda c: mpmath.mpc(abs(c))).coeffs
        zero = self.zero
        return min((residual._degree(key) for key, c in big
                    if abs(c) > tol * max(1.0, abs(bound.get(key, zero)))),
                   default=math.inf)

    def json_value(self, a):
        return [float(a.real), float(a.imag)]

    def format_coeff(self, a) -> str:
        if abs(a.imag) == 0:
            return mpmath.nstr(a.real, 17)
        imag = mpmath.nstr(a.imag, 17)
        if not imag.startswith("-"):
            imag = "+" + imag
        return "(%s%sj)" % (mpmath.nstr(a.real, 17), imag)

    def signed_text(self, a):
        if abs(a.imag) != 0:
            raise InputError("cannot print a complex coefficient in the "
                             "input grammar")
        value = float(a.real)
        return value < 0, repr(abs(value))


class ParamPolyRing(CoefficientRing):
    """Polynomials Q[param] in one named formal parameter."""

    name = "param"

    def __init__(self, param: str = "b"):
        self.param = param
        self.zero = ParamPoly()
        self.one = ParamPoly((1,))
        self.generator = ParamPoly((0, 1))

    def _key(self):
        return (self.param,)

    def coerce(self, value):
        if isinstance(value, ParamPoly):
            return value
        if is_rational(value) or isinstance(value, str):
            return ParamPoly((rational(value),))
        raise MathError("cannot interpret %r as a polynomial in %s" % (value, self.param))

    def is_zero(self, a) -> bool:
        return not a.coeffs

    def eq(self, a, b) -> bool:
        return a == b

    def invert(self, a):
        c = a.constant_value()
        if c is None:
            raise NotInvertibleError(
                "only constants are invertible in Q[%s]" % self.param)
        if c == 0:
            raise NotInvertibleError("division by zero in Q[%s]" % self.param)
        return ParamPoly((rational(1) / c,))

    def from_rational(self, q):
        return ParamPoly((q,))

    def symbol(self, name):
        return self.generator if name == self.param else None

    def roots(self, coeffs):
        consts = [c.constant_value() for c in coeffs]
        if None not in consts:
            found = RationalExact().roots(consts)
            if any(approximate for _, _, approximate in found):
                raise MathError("parametric mode needs exact rational roots")
            return [(self.coerce(r), k, False) for r, k, _ in found]
        lead = consts[-1]
        if len(coeffs) == 2:
            if lead is None or lead == 0:
                raise MathError(
                    "parametric root finding needs a constant leading term")
            return [(self.mul(coeffs[0], self.coerce(rational(-1) / lead)),
                     1, False)]
        raise MathError("parametric roots are only found for linear factors")

    @staticmethod
    def _scaled(values):
        scale = math.lcm(*[c.denominator for v in values for c in v.coeffs])
        return [[c.numerator * (scale // c.denominator) for c in v.coeffs]
                for v in values], scale

    @staticmethod
    def _kernel(plan, add_keys, scale):
        acc = {}
        cut = False
        for shift, limit, a, right in plan:
            for key, d, b in right:
                if d > limit:
                    cut = True
                    continue
                key = add_keys(shift, key)
                out = acc.setdefault(key, [])
                if len(out) < len(a) + len(b) - 1:
                    out.extend([0] * (len(a) + len(b) - 1 - len(out)))
                for i, x in enumerate(a):
                    for j, y in enumerate(b, i):
                        out[j] += x * y
        scale *= scale
        # _raw strips trailing zeros; a key whose sum is zero is dropped
        acc = {key: ParamPoly._raw([Fraction(v, scale) for v in cs])
               for key, cs in acc.items()}
        return {key: v for key, v in acc.items() if v.coeffs}, cut

    def as_rational(self, a):
        return a.constant_value()

    def json_value(self, a):
        return {"param": self.param,
                "coeffs": ["%d/%d" % (c.numerator, c.denominator) for c in a.coeffs]}

    def format_coeff(self, a) -> str:
        return a.format(self.param)

    def signed_text(self, a):
        if sum(1 for c in a.coeffs if c) > 1:
            return False, "(%s)" % a.format(self.param)
        neg = a.coeffs[-1] < 0
        mag = -a if neg else a
        return neg, None if mag == self.one else mag.format(self.param)
