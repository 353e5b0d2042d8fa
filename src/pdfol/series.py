"""Sparse truncated power series in one and two variables.

One implementation serves both arities.  ``_Series`` holds every
operation the two share: construction, equality, text, ring arithmetic,
truncation, derivatives, division by monomials, unit inverses and the one
substitution loop behind ``Series1.compose`` and ``Series2.substitute``.
A subclass holds only its monomial-key convention and the operations
that make sense for its own arity:

- ``Series1`` (names its variable ``variable``) keys x^k by the int k;
  only it has ``reversion`` and ``as_polynomial_coeffs``.
- ``Series2`` (names its variables ``variables``) keys x^i*y^j by the
  pair (i, j); only it has ``swap_variables``, ``restrict_first_zero``
  and ``min_exponent``.

Mixing a ``Series1`` with a ``Series2`` raises TypeError.

A series stores only its nonzero coefficients up to a truncation order N
(total degree).  Operations return new values; the order of a result is the
minimum of the operand orders, so precision is never silently extended.

Each series also carries a ``truncated`` flag: False means the stored
support is the exact, complete polynomial; True means some nonzero data
beyond the order has been discarded at some point (directly or in an
operand).  The flag is what makes substitution with a valuation-0
substituent decidable: translating an exact polynomial is exact, while
translating a genuinely truncated series would need coefficients that were
never represented, and raises PrecisionError.
"""

from __future__ import annotations

import math
import operator
from functools import partialmethod

from .errors import MathError, PrecisionError

INF = math.inf


class _Series:
    """The operations Series1 and Series2 share.

    A subclass supplies its key convention: ``_NAMES`` (the attribute that
    holds its variable name or names), ``_CONSTANT`` (the key of 1),
    ``_VARIABLES`` (the key of each variable), ``_checked_key(key)`` (the
    key with int exponents, and its degree), ``_key(*exponents)`` and
    ``_exponents(key)`` (a key from its exponents and back), ``_degree``,
    ``_add_keys``, ``_sub_keys``, ``_monomials(d)`` (the keys of degree d,
    in the order ``inverse_unit`` fills them), ``_names()`` (the names as
    a tuple) and the texts of its errors."""

    __slots__ = ("ring", "order", "coeffs", "truncated")

    def __new__(cls, ring, variables, order, coeffs=None, *, truncated=False):
        variables = cls._checked_names(variables)
        if not isinstance(order, int) or order < 0:
            raise ValueError("truncation order must be a nonnegative integer")
        checked_key = cls._checked_key
        clean = {}
        dropped = False
        for key, value in (coeffs or {}).items():
            key, degree = checked_key(key)
            value = ring.coerce(value)
            if ring.is_zero(value):
                continue
            if degree > order:
                dropped = True
                continue
            clean[key] = value
        return cls._raw(ring, variables, order, clean, bool(truncated or dropped))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @classmethod
    def _raw(cls, ring, variables, order, coeffs, truncated):
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, cls._NAMES, variables)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "coeffs", coeffs)
        object.__setattr__(out, "truncated", truncated)
        return out

    def _like(self, order, coeffs, truncated):
        """A series with this one's type, ring and variables."""
        return self._raw(self.ring, getattr(self, self._NAMES), order, coeffs,
                         truncated)

    @classmethod
    def zero(cls, ring, variables, order):
        return cls(ring, variables, order)

    @classmethod
    def monomial(cls, ring, variables, order, exponents, value=1):
        return cls(ring, variables, order, {cls._checked_key(exponents)[0]: value})

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, *exponents):
        return self.coeffs.get(self._key(*exponents), self.ring.zero)

    def valuation(self):
        """Minimal total degree of a nonzero term; INF for the zero series."""
        if not self.coeffs:
            return INF
        return min(map(self._degree, self.coeffs))

    def degree(self):
        """Maximal total degree of the stored support; -1 when zero."""
        if not self.coeffs:
            return -1
        return max(map(self._degree, self.coeffs))

    def __eq__(self, other):
        """Mathematical equality of the stored coefficients.

        Orders and truncation flags are not compared; callers that care
        about exactness inspect ``truncated`` directly.
        """
        if not isinstance(other, type(self)):
            return NotImplemented
        if (self.ring != other.ring
                or getattr(self, self._NAMES) != getattr(other, self._NAMES)):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        ring = self.ring
        zero = ring.zero
        return all(ring.eq(self.coeffs.get(k, zero), other.coeffs.get(k, zero))
                   for k in keys)

    __hash__ = None

    def __repr__(self):
        return "%s(%s; %s; order=%d%s)" % (
            type(self).__name__, ",".join(self._names()), self.format(),
            self.order, ", truncated" if self.truncated else "")

    def format(self) -> str:
        """Human-readable polynomial text in graded-lexicographic order."""
        if not self.coeffs:
            return "0"
        ring = self.ring
        names = self._names()
        parts = []
        for key in sorted(self.coeffs, key=lambda k: (
                self._degree(k), [-e for e in self._exponents(k)])):
            mono = [name if e == 1 else "%s^%d" % (name, e)
                    for name, e in zip(names, self._exponents(key)) if e]
            text = ring.format_coeff(self.coeffs[key])
            if mono:
                if text == "1":
                    text = "*".join(mono)
                elif text == "-1":
                    text = "-" + "*".join(mono)
                else:
                    if "+" in text[1:] or "-" in text[1:] or " " in text:
                        text = "(" + text + ")"
                    text = text + "*" + "*".join(mono)
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compat(self, other):
        if type(other) is not type(self):
            raise TypeError("expected a %s operand" % type(self).__name__)
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")
        names = self._NAMES
        if getattr(self, names) != getattr(other, names):
            raise ValueError(self._MIXED % (getattr(self, names),
                                            getattr(other, names)))

    def __add__(self, other):
        self._check_compat(other)
        ring = self.ring
        order = min(self.order, other.order)
        degree = self._degree
        acc = {}
        dropped = self.truncated or other.truncated
        for source in (self.coeffs, other.coeffs):
            for key, value in source.items():
                if degree(key) > order:
                    dropped = True
                    continue
                acc[key] = ring.add(acc[key], value) if key in acc else value
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return self._like(order, acc, dropped)

    def __neg__(self):
        ring = self.ring
        acc = {k: ring.neg(v) for k, v in self.coeffs.items()}
        return self._like(self.order, acc, self.truncated)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compat(other)
        order = min(self.order, other.order)
        right = other.coeffs
        if not right or not self.coeffs:
            return self._like(order, {}, self.truncated or other.truncated)
        acc, cut = self.ring.combine(
            [(key, c, right) for key, c in self.coeffs.items()], order,
            self._degree, self._add_keys)
        return self._like(order, acc, self.truncated or other.truncated or cut)

    def scale(self, value):
        ring = self.ring
        value = ring.coerce(value)
        acc = {k: ring.mul(v, value) for k, v in self.coeffs.items()}
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return self._like(self.order, acc, self.truncated)

    def truncate(self, order: int):
        if order >= self.order:
            return self
        degree = self._degree
        acc = {}
        dropped = self.truncated
        for key, value in self.coeffs.items():
            if degree(key) > order:
                dropped = True
            else:
                acc[key] = value
        return self._like(order, acc, dropped)

    def derive(self, index: int):
        """Partial derivative in variable ``index`` (``Series1.derive()``
        takes none); the order drops by one."""
        ring = self.ring
        order = max(self.order - 1, 0)
        exponents, sub_keys = self._exponents, self._sub_keys
        variable = self._VARIABLES[index]
        acc = {}
        for key, c in self.coeffs.items():
            e = exponents(key)[index]
            if e:
                acc[sub_keys(key, variable)] = ring.mul(c, ring.coerce(e))
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return self._like(order, acc, self.truncated)

    def divide_monomial(self, exponents):
        """Exact division by the monomial keyed ``exponents``; every term
        must be divisible."""
        acc = {}
        for key, c in self.coeffs.items():
            quotient = self._sub_keys(key, exponents)
            if min(self._exponents(quotient)) < 0:
                raise MathError("series is not divisible by the monomial")
            acc[quotient] = c
        order = self.order - self._degree(exponents)
        if order < 0:
            raise PrecisionError("monomial division exhausts the truncation order")
        return self._like(order, acc, self.truncated)

    def inverse_unit(self):
        """Multiplicative inverse of a unit (invertible constant term).

        One pass over degrees, each degree-d slice computed once from the
        slices below it: v_0 = 1/u_0, and the slice of degree d is -v_0
        times one ``combine`` of the nonconstant terms u_k of u, in
        ascending key order, each with the slice of degree d - deg(k).
        So each v_n is -v_0 times the sum of u_k * v_(n-k) in that order
        (a float sum within tol of zero is dropped before the scaling),
        and its key is stored in ``_monomials(d)`` order."""
        ring = self.ring
        one = self._CONSTANT
        inv0 = ring.invert(self.coeffs.get(one, ring.zero))  # raises on non-units
        tail = sorted((key, c) for key, c in self.coeffs.items() if key != one)
        if not tail:
            return self._like(self.order, {one: inv0}, self.truncated)
        neg0 = ring.neg(inv0)
        degree, add_keys = self._degree, self._add_keys
        tail = [(degree(key), key, c) for key, c in tail]
        inv = {one: inv0}
        slices = [{one: inv0}]
        for d in range(1, self.order + 1):
            acc, _ = ring.combine([(key, c, slices[d - e])
                                   for e, key, c in tail
                                   if e <= d and slices[d - e]],
                                  d, degree, add_keys)
            part = {}
            for key in self._monomials(d):
                if key in acc:
                    v = ring.mul(neg0, acc[key])
                    if not ring.is_zero(v):
                        part[key] = v
            slices.append(part)
            inv.update(part)
        # a nonconstant unit has an infinite inverse: the result is truncated
        return self._like(self.order, inv, True)

    # ------------------------------------------------------------------
    # substitution

    def _substitute(self, images):
        """Evaluate the series with variable n replaced by ``images[n]``.

        A term whose products all lie past the order only flags the
        result, and a term with a power of a zero image vanishes; neither
        enters a ladder, so the powers the other terms read are formed as
        without them.  Each image's powers are built once per call,
        before the term loop, and only those the kept terms read.
        image^1 is the image cut at the least image order; the exponents
        read are built in ascending order as image^e = image^d *
        image^(e-d), with d the largest exponent built below e and
        image^(e-d) built first the same way.  Exponents 1..E with no
        gaps so take the products image^(e-1) * image of a dense ladder,
        and no exponent takes more products than there.  An image that is
        exactly its own variable (one key, coefficient ``== ring.one``)
        builds no powers: its power only shifts the keys of the other
        factors' product.  The ring's ``combine`` then sums
        c*x^shift*product over the terms."""
        first = images[0]
        if not isinstance(first, type(self)):
            raise TypeError("expected a %s operand" % type(self).__name__)
        what, unsafe = self._SUBSTITUTION
        if first.ring != self.ring:
            raise ValueError("mixed coefficient rings in " + what)
        ring = self.ring
        valuations = [s.valuation() for s in images]
        # an image with a constant term sends every discarded term down
        # to the low degrees, whether or not a stored term uses it
        if self.truncated and 0 in valuations:
            raise PrecisionError(unsafe)
        low = min(s.order for s in images)
        order = min(self.order, low)
        # native ==, not ring.eq: a float 1 + 1e-12 must still multiply
        bare = [image.coeffs == {var: ring.one}
                for image, var in zip(images, self._VARIABLES)]
        exponents_of, key_of = self._exponents, self._key
        dropped = self.truncated or any(s.truncated for s in images)
        kept = []
        for key, c in self.coeffs.items():
            exponents = exponents_of(key)
            # least degree of the products; INF for a power of a zero image
            floor = sum(e * v for e, v in zip(exponents, valuations) if e)
            if floor <= order:
                kept.append((exponents, c))
            elif floor < INF:
                dropped = True
        ladders = [{} for _ in images]
        for n, (image, ladder, b) in enumerate(zip(images, ladders, bare)):
            if b:  # a bare variable's power is a key shift
                continue
            for e in sorted({exponents[n] for exponents, _ in kept} - {0}):
                if not ladder:
                    ladder[1] = image.truncate(low)
                pending = [] if e in ladder else [e]
                while pending:
                    e = pending[-1]
                    d = max(k for k in ladder if k < e)
                    if e - d in ladder:
                        ladder[pending.pop()] = ladder[d] * ladder[e - d]
                    else:
                        pending.append(e - d)
        one = first._like(low, {first._CONSTANT: ring.coerce(1)}, False)
        terms = []
        for exponents, c in kept:
            prod = one
            for e, ladder, b in zip(exponents, ladders, bare):
                # a factor image^0 = 1 would only copy prod
                if e and not b:
                    prod = ladder[e] if prod is one else prod * ladder[e]
            if prod.truncated:
                dropped = True
            shift = key_of(*[e if b else 0 for e, b in zip(exponents, bare)])
            terms.append((shift, c, prod.coeffs))
        acc, cut = ring.combine(terms, order, self._degree, self._add_keys)
        return first._like(order, acc, dropped or cut)


class Series2(_Series):
    """Truncated power series in two ordered variables; x^i*y^j has the
    key (i, j)."""

    __slots__ = ("variables",)
    _NAMES = "variables"
    _CONSTANT = (0, 0)
    _VARIABLES = ((1, 0), (0, 1))
    _MIXED = "mixed variable sets %r vs %r"
    _SUBSTITUTION = ("substitution",
                     "substituting a valuation-0 series into a truncated series")

    @staticmethod
    def _checked_names(variables):
        variables = tuple(variables)
        if len(variables) != 2 or variables[0] == variables[1]:
            raise ValueError("Series2 needs two distinct variable names")
        return variables

    def _names(self):
        return self.variables

    @staticmethod
    def _checked_key(key):
        i, j = key
        if i < 0 or j < 0:
            raise ValueError("negative exponent in series construction")
        return (int(i), int(j)), i + j

    _key = staticmethod(lambda i, j: (i, j))
    _exponents = staticmethod(lambda key: key)
    _degree = staticmethod(lambda key: key[0] + key[1])
    _add_keys = staticmethod(lambda a, b: (a[0] + b[0], a[1] + b[1]))
    _sub_keys = staticmethod(lambda a, b: (a[0] - b[0], a[1] - b[1]))
    _monomials = staticmethod(lambda d: [(i, d - i) for i in range(d, -1, -1)])

    def substitute(self, ex: "Series2", ey: "Series2") -> "Series2":
        """Evaluate the series at (ex, ey).

        Legal when both substituents have positive valuation, or when the
        series is an exact polynomial (``truncated`` is False); otherwise
        low-order coefficients of the result would depend on discarded
        terms and PrecisionError is raised.  Each call builds its own
        powers of ex and ey.
        """
        ex._check_compat(ey)
        return self._substitute((ex, ey))

    def min_exponent(self, index: int):
        """Smallest exponent of one variable across the support; INF if zero."""
        if not self.coeffs:
            return INF
        return min(key[index] for key in self.coeffs)

    def restrict_first_zero(self) -> "Series1":
        """The one-variable series s(0, second variable)."""
        acc = {j: c for (i, j), c in self.coeffs.items() if i == 0}
        return Series1._raw(self.ring, self.variables[1], self.order, acc,
                            self.truncated)

    def swap_variables(self) -> "Series2":
        acc = {(j, i): c for (i, j), c in self.coeffs.items()}
        return Series2._raw(self.ring, (self.variables[1], self.variables[0]),
                            self.order, acc, self.truncated)


class Series1(_Series):
    """Truncated power series in a single variable; x^k has the key k."""

    __slots__ = ("variable",)
    _NAMES = "variable"
    _CONSTANT = 0
    _VARIABLES = (1,)
    _MIXED = "mixed variables %r vs %r"
    _SUBSTITUTION = ("composition",
                     "composing a truncated series with a valuation-0 series")
    _checked_names = staticmethod(lambda variable: variable)
    _key = staticmethod(lambda k: k)
    _exponents = staticmethod(lambda k: (k,))
    _degree = staticmethod(lambda k: k)
    _add_keys = staticmethod(operator.add)
    _sub_keys = staticmethod(operator.sub)
    _monomials = staticmethod(lambda d: (d,))

    def _names(self):
        return (self.variable,)

    @staticmethod
    def _checked_key(k):
        if k < 0:
            raise ValueError("negative exponent in series construction")
        return int(k), k

    derive = partialmethod(_Series.derive, 0)

    def compose(self, inner: "Series1") -> "Series1":
        """self(inner); inner must have positive valuation unless self is
        an exact polynomial."""
        return self._substitute((inner,))

    def reversion(self) -> "Series1":
        """Compositional inverse of a series with h(0) = 0, h'(0) a unit.

        h = lam*x + tail, and g solves g = (x - tail(g))/lam one degree at
        a time: val(tail) >= 2, so [x^n] g^j for j >= 2 needs g only below
        degree n.  The powers g^j (j up to the tail's degree) are kept and
        extended by one degree per step, so the whole pass costs about one
        composition."""
        ring = self.ring
        if not ring.is_zero(self.coefficient(0)):
            raise MathError("reversion needs a series vanishing at 0")
        lam_inv = ring.invert(self.coefficient(1))  # raises on non-units
        tail = sorted((k, c) for k, c in self.coeffs.items() if k >= 2)
        g = {1: lam_inv}
        if not tail:
            # a linear map has an exact linear inverse
            return self._like(self.order, g, self.truncated)
        neg_inv = ring.neg(lam_inv)
        powers = [None, g] + [{} for _ in range(tail[-1][0] - 1)]
        for n in range(2, self.order + 1):
            for j in range(2, min(n, len(powers) - 1) + 1):
                lower = powers[j - 1]
                acc = ring.dot((g[a], lower[n - a])
                               for a in range(1, n - j + 2)
                               if a in g and n - a in lower)
                if acc is not None:
                    powers[j][n] = acc
            acc = ring.dot((c, powers[k][n]) for k, c in tail
                           if n in powers[k])
            if acc is not None:
                acc = ring.mul(neg_inv, acc)
                if not ring.is_zero(acc):
                    g[n] = acc
        # a nonlinear map has an infinite inverse: the result is truncated
        return self._like(self.order, g, True)

    def as_polynomial_coeffs(self) -> list:
        """Dense coefficient list [c0, c1, ...] up to the stored degree."""
        d = self.degree()
        if d < 0:
            return [self.ring.zero]
        return [self.coefficient(k) for k in range(d + 1)]
