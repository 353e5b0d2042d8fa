"""Sparse truncated power series in one and two variables.

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

from .errors import MathError, NotInvertibleError, PrecisionError

INF = math.inf


def _merge_term(ring, acc, key, value):
    if key in acc:
        acc[key] = ring.add(acc[key], value)
    else:
        acc[key] = value


class Series2:
    """Truncated power series in two ordered variables."""

    __slots__ = ("ring", "variables", "order", "coeffs", "truncated")

    def __init__(self, ring, variables, order, coeffs=None, *, truncated=False):
        variables = tuple(variables)
        if len(variables) != 2 or variables[0] == variables[1]:
            raise ValueError("Series2 needs two distinct variable names")
        if not isinstance(order, int) or order < 0:
            raise ValueError("truncation order must be a nonnegative integer")
        clean = {}
        dropped = False
        for key, value in (coeffs or {}).items():
            i, j = key
            if i < 0 or j < 0:
                raise ValueError("negative exponent in series construction")
            value = ring.coerce(value)
            if ring.is_zero(value):
                continue
            if i + j > order:
                dropped = True
                continue
            clean[(int(i), int(j))] = value
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "truncated", bool(truncated or dropped))

    def __setattr__(self, name, value):
        raise AttributeError("Series2 is immutable")

    @classmethod
    def _raw(cls, ring, variables, order, coeffs, truncated):
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "variables", variables)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "coeffs", coeffs)
        object.__setattr__(out, "truncated", truncated)
        return out

    @classmethod
    def zero(cls, ring, variables, order):
        return cls(ring, variables, order)

    @classmethod
    def constant(cls, ring, variables, order, value):
        return cls(ring, variables, order, {(0, 0): value})

    @classmethod
    def monomial(cls, ring, variables, order, exponents, value=1):
        return cls(ring, variables, order, {tuple(exponents): value})

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i, j):
        return self.coeffs.get((i, j), self.ring.zero)

    def valuation(self):
        """Minimal total degree of a nonzero term; INF for the zero series."""
        if not self.coeffs:
            return INF
        return min(i + j for i, j in self.coeffs)

    def degree(self):
        """Maximal total degree of the stored support; -1 when zero."""
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def degree_in(self, index: int):
        if not self.coeffs:
            return -1
        return max(key[index] for key in self.coeffs)

    def min_exponent(self, index: int):
        """Smallest exponent of one variable across the support; INF if zero."""
        if not self.coeffs:
            return INF
        return min(key[index] for key in self.coeffs)

    def homogeneous_part(self, k: int) -> "Series2":
        part = {key: c for key, c in self.coeffs.items() if key[0] + key[1] == k}
        return Series2._raw(self.ring, self.variables, self.order, part, self.truncated)

    def __eq__(self, other):
        """Mathematical equality of the stored coefficients.

        Orders and truncation flags are not compared; callers that care
        about exactness inspect ``truncated`` directly.
        """
        if not isinstance(other, Series2):
            return NotImplemented
        if self.ring != other.ring or self.variables != other.variables:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        ring = self.ring
        return all(ring.eq(self.coefficient(*k), other.coefficient(*k)) for k in keys)

    __hash__ = None

    def __repr__(self):
        return "Series2(%s; %s; order=%d%s)" % (
            ",".join(self.variables), self.format(), self.order,
            ", truncated" if self.truncated else "")

    def format(self) -> str:
        """Human-readable polynomial text in graded-lexicographic order."""
        if not self.coeffs:
            return "0"
        ring = self.ring
        parts = []
        for (i, j) in sorted(self.coeffs, key=lambda k: (k[0] + k[1], -k[0])):
            c = self.coeffs[(i, j)]
            mono = []
            if i:
                mono.append(self.variables[0] if i == 1 else "%s^%d" % (self.variables[0], i))
            if j:
                mono.append(self.variables[1] if j == 1 else "%s^%d" % (self.variables[1], j))
            text = ring.format_coeff(c)
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
        if not isinstance(other, Series2):
            raise TypeError("expected a Series2 operand")
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")
        if self.variables != other.variables:
            raise ValueError("mixed variable sets %r vs %r"
                             % (self.variables, other.variables))

    def __add__(self, other):
        self._check_compat(other)
        ring = self.ring
        order = min(self.order, other.order)
        acc = {}
        dropped = self.truncated or other.truncated
        for source in (self.coeffs, other.coeffs):
            for key, value in source.items():
                if key[0] + key[1] > order:
                    dropped = True
                    continue
                _merge_term(ring, acc, key, value)
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series2._raw(ring, self.variables, order, acc, dropped)

    def __neg__(self):
        ring = self.ring
        acc = {k: ring.neg(v) for k, v in self.coeffs.items()}
        return Series2._raw(ring, self.variables, self.order, acc, self.truncated)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compat(other)
        ring = self.ring
        order = min(self.order, other.order)
        acc = {}
        dropped = self.truncated or other.truncated
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i = i1 + i2
                j = j1 + j2
                if i + j > order:
                    dropped = True
                    continue
                _merge_term(ring, acc, (i, j), ring.mul(c1, c2))
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series2._raw(ring, self.variables, order, acc, dropped)

    def scale(self, value) -> "Series2":
        ring = self.ring
        value = ring.coerce(value)
        if ring.is_zero(value):
            return Series2._raw(ring, self.variables, self.order, {}, self.truncated)
        acc = {k: ring.mul(v, value) for k, v in self.coeffs.items()}
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series2._raw(ring, self.variables, self.order, acc, self.truncated)

    def truncate(self, order: int) -> "Series2":
        if order >= self.order:
            return self
        acc = {}
        dropped = self.truncated
        for key, value in self.coeffs.items():
            if key[0] + key[1] > order:
                dropped = True
            else:
                acc[key] = value
        return Series2._raw(self.ring, self.variables, order, acc, dropped)

    def derive(self, index: int) -> "Series2":
        """Partial derivative; the order drops by one."""
        ring = self.ring
        order = max(self.order - 1, 0)
        acc = {}
        for (i, j), c in self.coeffs.items():
            e = (i, j)[index]
            if e == 0:
                continue
            key = (i - 1, j) if index == 0 else (i, j - 1)
            _merge_term(ring, acc, key, ring.mul(c, ring.coerce(e)))
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series2._raw(ring, self.variables, order, acc, self.truncated)

    def divide_monomial(self, exponents) -> "Series2":
        """Exact division by x^i*y^j; every term must be divisible."""
        di, dj = exponents
        ring = self.ring
        acc = {}
        for (i, j), c in self.coeffs.items():
            if i < di or j < dj:
                raise MathError("series is not divisible by the monomial")
            acc[(i - di, j - dj)] = c
        order = self.order - di - dj
        if order < 0:
            raise PrecisionError("monomial division exhausts the truncation order")
        return Series2._raw(ring, self.variables, order, acc, self.truncated)

    def inverse_unit(self) -> "Series2":
        """Multiplicative inverse of a unit (invertible constant term).

        One pass over degrees: v_00 = 1/u_00 and, for each monomial of
        degree d, v_ij = -v_00 * sum of u_ab * v_(i-a)(j-b) over the
        nonconstant terms of u."""
        ring = self.ring
        inv0 = ring.invert(self.coefficient(0, 0))  # raises on non-units
        tail = sorted((key, c) for key, c in self.coeffs.items() if key != (0, 0))
        if not tail:
            return Series2._raw(ring, self.variables, self.order, {(0, 0): inv0},
                                self.truncated)
        neg0 = ring.neg(inv0)
        inv = {(0, 0): inv0}
        for d in range(1, self.order + 1):
            for i in range(d, -1, -1):
                j = d - i
                acc = None
                for (a, b), c in tail:
                    if a > i:
                        break
                    if b > j:
                        continue
                    v = inv.get((i - a, j - b))
                    if v is None:
                        continue
                    term = ring.mul(c, v)
                    acc = term if acc is None else ring.add(acc, term)
                if acc is not None:
                    acc = ring.mul(neg0, acc)
                    if not ring.is_zero(acc):
                        inv[(i, j)] = acc
        # a nonconstant unit has an infinite inverse: the result is truncated
        return Series2._raw(ring, self.variables, self.order, inv, True)

    def divide(self, divisor: "Series2") -> "Series2":
        """Division by a unit series or by a monomial."""
        self._check_compat(divisor)
        if len(divisor.coeffs) == 1:
            ((di, dj), c), = divisor.coeffs.items()
            out = self.divide_monomial((di, dj))
            return out.scale(self.ring.invert(c))
        if divisor.is_zero():
            raise NotInvertibleError("division by the zero series")
        return self * divisor.inverse_unit()

    # ------------------------------------------------------------------
    # substitution

    def substitute(self, ex: "Series2", ey: "Series2", cache=None) -> "Series2":
        """Evaluate the series at (ex, ey).

        Legal when both substituents have positive valuation, or when the
        series is an exact polynomial (``truncated`` is False); otherwise
        low-order coefficients of the result would depend on discarded
        terms and PrecisionError is raised.

        ``cache`` may be a dict shared between calls that use the same
        (ex, ey) pair; it stores the power ladders.
        """
        ex._check_compat(ey)
        if ex.ring != self.ring:
            raise ValueError("mixed coefficient rings in substitution")
        ring = self.ring
        vx = ex.valuation()
        vy = ey.valuation()
        if self.truncated and ((vx == 0 and self.degree_in(0) > 0)
                               or (vy == 0 and self.degree_in(1) > 0)):
            raise PrecisionError(
                "substituting a valuation-0 series into a truncated series")
        order = min(self.order, ex.order, ey.order)
        if cache is None:
            cache = {}
        one = Series2.constant(ring, ex.variables, min(ex.order, ey.order), 1)
        px = cache.setdefault("px", [one])
        py = cache.setdefault("py", [one])
        acc = {}
        dropped = self.truncated or ex.truncated or ey.truncated
        for (i, j), c in self.coeffs.items():
            floor = 0
            if i:
                if vx is INF:
                    if ex.truncated:
                        dropped = True
                    continue
                floor += i * vx
            if j:
                if vy is INF:
                    if ey.truncated:
                        dropped = True
                    continue
                floor += j * vy
            if floor > order:
                dropped = True
                continue
            while len(px) <= i:
                px.append(px[-1] * ex)
            while len(py) <= j:
                py.append(py[-1] * ey)
            prod = px[i] * py[j]
            if prod.truncated:
                dropped = True
            for key, pc in prod.coeffs.items():
                if key[0] + key[1] > order:
                    dropped = True
                    continue
                _merge_term(ring, acc, key, ring.mul(c, pc))
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series2._raw(ring, ex.variables, order, acc, dropped)

    def restrict_first_zero(self) -> "Series1":
        """The one-variable series s(0, second variable)."""
        acc = {j: c for (i, j), c in self.coeffs.items() if i == 0}
        return Series1._raw(self.ring, self.variables[1], self.order, acc,
                            self.truncated)

    def swap_variables(self) -> "Series2":
        acc = {(j, i): c for (i, j), c in self.coeffs.items()}
        return Series2._raw(self.ring, (self.variables[1], self.variables[0]),
                            self.order, acc, self.truncated)


class Series1:
    """Truncated power series in a single variable."""

    __slots__ = ("ring", "variable", "order", "coeffs", "truncated")

    def __init__(self, ring, variable, order, coeffs=None, *, truncated=False):
        if not isinstance(order, int) or order < 0:
            raise ValueError("truncation order must be a nonnegative integer")
        clean = {}
        dropped = False
        for k, value in (coeffs or {}).items():
            if k < 0:
                raise ValueError("negative exponent in series construction")
            value = ring.coerce(value)
            if ring.is_zero(value):
                continue
            if k > order:
                dropped = True
                continue
            clean[int(k)] = value
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "truncated", bool(truncated or dropped))

    def __setattr__(self, name, value):
        raise AttributeError("Series1 is immutable")

    @classmethod
    def _raw(cls, ring, variable, order, coeffs, truncated):
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "variable", variable)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "coeffs", coeffs)
        object.__setattr__(out, "truncated", truncated)
        return out

    @classmethod
    def zero(cls, ring, variable, order):
        return cls(ring, variable, order)

    @classmethod
    def constant(cls, ring, variable, order, value):
        return cls(ring, variable, order, {0: value})

    @classmethod
    def monomial(cls, ring, variable, order, exponent, value=1):
        return cls(ring, variable, order, {exponent: value})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        return self.coeffs.get(k, self.ring.zero)

    def valuation(self):
        if not self.coeffs:
            return INF
        return min(self.coeffs)

    def degree(self):
        if not self.coeffs:
            return -1
        return max(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Series1):
            return NotImplemented
        if self.ring != other.ring or self.variable != other.variable:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        ring = self.ring
        return all(ring.eq(self.coefficient(k), other.coefficient(k)) for k in keys)

    __hash__ = None

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        ring = self.ring
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            text = ring.format_coeff(c)
            if k:
                mono = self.variable if k == 1 else "%s^%d" % (self.variable, k)
                if text == "1":
                    text = mono
                elif text == "-1":
                    text = "-" + mono
                else:
                    if "+" in text[1:] or "-" in text[1:] or " " in text:
                        text = "(" + text + ")"
                    text = text + "*" + mono
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "Series1(%s; %s; order=%d%s)" % (
            self.variable, self.format(), self.order,
            ", truncated" if self.truncated else "")

    def _check_compat(self, other):
        if not isinstance(other, Series1):
            raise TypeError("expected a Series1 operand")
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")
        if self.variable != other.variable:
            raise ValueError("mixed variables %r vs %r"
                             % (self.variable, other.variable))

    def __add__(self, other):
        self._check_compat(other)
        ring = self.ring
        order = min(self.order, other.order)
        acc = {}
        dropped = self.truncated or other.truncated
        for source in (self.coeffs, other.coeffs):
            for k, value in source.items():
                if k > order:
                    dropped = True
                    continue
                _merge_term(ring, acc, k, value)
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series1._raw(ring, self.variable, order, acc, dropped)

    def __neg__(self):
        ring = self.ring
        acc = {k: ring.neg(v) for k, v in self.coeffs.items()}
        return Series1._raw(ring, self.variable, self.order, acc, self.truncated)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compat(other)
        ring = self.ring
        order = min(self.order, other.order)
        acc = {}
        dropped = self.truncated or other.truncated
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k > order:
                    dropped = True
                    continue
                _merge_term(ring, acc, k, ring.mul(c1, c2))
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series1._raw(ring, self.variable, order, acc, dropped)

    def scale(self, value) -> "Series1":
        ring = self.ring
        value = ring.coerce(value)
        if ring.is_zero(value):
            return Series1._raw(ring, self.variable, self.order, {}, self.truncated)
        acc = {k: ring.mul(v, value) for k, v in self.coeffs.items()}
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series1._raw(ring, self.variable, self.order, acc, self.truncated)

    def truncate(self, order: int) -> "Series1":
        if order >= self.order:
            return self
        acc = {}
        dropped = self.truncated
        for k, value in self.coeffs.items():
            if k > order:
                dropped = True
            else:
                acc[k] = value
        return Series1._raw(self.ring, self.variable, order, acc, dropped)

    def derive(self) -> "Series1":
        ring = self.ring
        order = max(self.order - 1, 0)
        acc = {}
        for k, c in self.coeffs.items():
            if k == 0:
                continue
            acc[k - 1] = ring.mul(c, ring.coerce(k))
        acc = {k: v for k, v in acc.items() if not ring.is_zero(v)}
        return Series1._raw(ring, self.variable, order, acc, self.truncated)

    def divide_monomial(self, exponent: int) -> "Series1":
        ring = self.ring
        acc = {}
        for k, c in self.coeffs.items():
            if k < exponent:
                raise MathError("series is not divisible by the monomial")
            acc[k - exponent] = c
        order = self.order - exponent
        if order < 0:
            raise PrecisionError("monomial division exhausts the truncation order")
        return Series1._raw(ring, self.variable, order, acc, self.truncated)

    def inverse_unit(self) -> "Series1":
        """Multiplicative inverse of a unit, one degree at a time:
        v_0 = 1/u_0 and v_n = -v_0 * sum_{k>=1} u_k v_(n-k)."""
        ring = self.ring
        inv0 = ring.invert(self.coefficient(0))  # raises on non-units
        tail = sorted((k, c) for k, c in self.coeffs.items() if k)
        if not tail:
            return Series1._raw(ring, self.variable, self.order, {0: inv0},
                                self.truncated)
        neg0 = ring.neg(inv0)
        inv = {0: inv0}
        for n in range(1, self.order + 1):
            acc = None
            for k, c in tail:
                if k > n:
                    break
                v = inv.get(n - k)
                if v is None:
                    continue
                term = ring.mul(c, v)
                acc = term if acc is None else ring.add(acc, term)
            if acc is not None:
                acc = ring.mul(neg0, acc)
                if not ring.is_zero(acc):
                    inv[n] = acc
        return Series1._raw(ring, self.variable, self.order, inv, True)

    def divide(self, divisor: "Series1") -> "Series1":
        self._check_compat(divisor)
        if len(divisor.coeffs) == 1:
            (k, c), = divisor.coeffs.items()
            return self.divide_monomial(k).scale(self.ring.invert(c))
        if divisor.is_zero():
            raise NotInvertibleError("division by the zero series")
        return self * divisor.inverse_unit()

    def compose(self, inner: "Series1", cache=None) -> "Series1":
        """self(inner); inner must have positive valuation unless self is
        an exact polynomial."""
        if inner.ring != self.ring:
            raise ValueError("mixed coefficient rings in composition")
        ring = self.ring
        v = inner.valuation()
        if self.truncated and v == 0 and self.degree() > 0:
            raise PrecisionError(
                "composing a truncated series with a valuation-0 series")
        order = min(self.order, inner.order)
        if cache is None:
            cache = {}
        one = Series1.constant(ring, inner.variable, inner.order, 1)
        ladder = cache.setdefault("p", [one])
        acc = {}
        dropped = self.truncated or inner.truncated
        for k, c in self.coeffs.items():
            if k and v is INF:
                if inner.truncated:
                    dropped = True
                continue
            if k and k * v > order:
                dropped = True
                continue
            while len(ladder) <= k:
                ladder.append(ladder[-1] * inner)
            prod = ladder[k]
            if prod.truncated:
                dropped = True
            for key, pc in prod.coeffs.items():
                if key > order:
                    dropped = True
                    continue
                _merge_term(ring, acc, key, ring.mul(c, pc))
        acc = {k: v2 for k, v2 in acc.items() if not ring.is_zero(v2)}
        return Series1._raw(ring, inner.variable, order, acc, dropped)

    def translate(self, value) -> "Series1":
        """Substitute variable -> variable + value (exact polynomials only
        when value is nonzero)."""
        ring = self.ring
        shifted = Series1(ring, self.variable, self.order,
                          {0: value, 1: ring.one})
        return self.compose(shifted)

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
            return Series1._raw(ring, self.variable, self.order, g,
                                self.truncated)
        neg_inv = ring.neg(lam_inv)
        powers = [None, g] + [{} for _ in range(tail[-1][0] - 1)]
        for n in range(2, self.order + 1):
            for j in range(2, min(n, len(powers) - 1) + 1):
                lower = powers[j - 1]
                acc = None
                for a, ga in g.items():  # ascending: filled degree by degree
                    if a > n - j + 1:
                        break
                    v = lower.get(n - a)
                    if v is None:
                        continue
                    term = ring.mul(ga, v)
                    acc = term if acc is None else ring.add(acc, term)
                if acc is not None:
                    powers[j][n] = acc
            acc = None
            for k, c in tail:
                if k > n:
                    break
                v = powers[k].get(n)
                if v is None:
                    continue
                term = ring.mul(c, v)
                acc = term if acc is None else ring.add(acc, term)
            if acc is not None:
                acc = ring.mul(neg_inv, acc)
                if not ring.is_zero(acc):
                    g[n] = acc
        # a nonlinear map has an infinite inverse: the result is truncated
        return Series1._raw(ring, self.variable, self.order, g, True)

    def as_polynomial_coeffs(self) -> list:
        """Dense coefficient list [c0, c1, ...] up to the stored degree."""
        d = self.degree()
        if d < 0:
            return [self.ring.zero]
        return [self.coefficient(k) for k in range(d + 1)]
