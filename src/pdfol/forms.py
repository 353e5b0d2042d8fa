"""Plane 1-forms, dual vector fields, linear parts and singularity data.

Conventions, fixed once for the whole package:

* a 1-form is  omega = a d(v1) + b d(v2)  over ordered variables (v1, v2);
* its dual field is  X = b d/d(v1) - a d/d(v2),  so that omega(X) = 0;
* the divisor chart always has the divisor at {v1 = 0};
* the linear part of a field (P, Q) at a singular point is the matrix
  [[dP/dv1, dP/dv2], [dQ/dv1, dQ/dv2]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import mpmath

from .errors import MathError
from .report import encode
from .rings import rational
from .series import Series1, Series2


@dataclass(frozen=True)
class OneForm2:
    """omega = a d(v1) + b d(v2); not both coefficients zero."""

    a: Series2
    b: Series2

    def __post_init__(self):
        if self.a.variables != self.b.variables:
            raise ValueError("form coefficients use different variables")
        if self.a.ring != self.b.ring:
            raise ValueError("form coefficients use different rings")
        if self.a.is_zero() and self.b.is_zero():
            raise MathError("the zero 1-form does not define a foliation")

    @property
    def ring(self):
        return self.a.ring

    @property
    def variables(self):
        return self.a.variables

    @property
    def order(self):
        return min(self.a.order, self.b.order)

    def valuation(self):
        return min(self.a.valuation(), self.b.valuation())

    def scale(self, value) -> "OneForm2":
        return OneForm2(self.a.scale(value), self.b.scale(value))

    def swapped(self) -> "OneForm2":
        """The same form read with the variables in the other order."""
        return OneForm2(self.b.swap_variables(), self.a.swap_variables())

    def divisor_invariant(self) -> bool:
        """Whether {v1 = 0} is a leaf: the d(v2)-coefficient must vanish
        identically on it."""
        return self.b.restrict_first_zero().is_zero()

    def format(self) -> str:
        v1, v2 = self.variables
        return "(%s) d%s + (%s) d%s" % (self.a.format(), v1, self.b.format(), v2)


@dataclass(frozen=True)
class PlaneVectorField:
    """X = p1 d/d(v1) + p2 d/d(v2)."""

    p1: Series2
    p2: Series2

    def __post_init__(self):
        if self.p1.variables != self.p2.variables:
            raise ValueError("field components use different variables")
        if self.p1.ring != self.p2.ring:
            raise ValueError("field components use different rings")

    @property
    def ring(self):
        return self.p1.ring

    @property
    def variables(self):
        return self.p1.variables


def dual(omega: OneForm2) -> PlaneVectorField:
    """The dual field (b, -a) of a d(v1) + b d(v2)."""
    return PlaneVectorField(omega.b, -omega.a)


Matrix2 = tuple  # ((e00, e01), (e10, e11)) of ring elements


def linear_part(field: PlaneVectorField) -> Matrix2:
    """Jacobian of the field at the origin, which must be singular
    (verified); ``blowup.recenter`` moves another point there."""
    ring = field.ring
    rows = []
    for comp in (field.p1, field.p2):
        if not ring.is_zero(comp.coefficient(0, 0)):
            raise MathError("linear part requested at a non-singular point")
        rows.append((comp.coefficient(1, 0), comp.coefficient(0, 1)))
    return (rows[0], rows[1])


def matrix_is_zero(L: Matrix2, ring) -> bool:
    return all(ring.is_zero(e) for row in L for e in row)


def matrix_scale(L: Matrix2, value, ring) -> Matrix2:
    return tuple(tuple(ring.mul(e, value) for e in row) for row in L)


def normalized_jordan(L: Matrix2, ring) -> Matrix2:
    """Scale a lower-triangular matrix with equal diagonal to unit diagonal."""
    if not ring.is_zero(L[0][1]):
        raise MathError("expected a lower-triangular linear part")
    if not ring.eq(L[0][0], L[1][1]):
        raise MathError("expected equal diagonal entries")
    inv = ring.invert(L[0][0])
    return matrix_scale(L, inv, ring)


def eigenvalues(L: Matrix2, ring):
    """Eigenvalue pair and an exactness flag.

    Triangular matrices are read off exactly in any ring.  Otherwise the
    pair is ``ring.roots`` of the characteristic polynomial, a double root
    repeated, exact when no root is approximate: when the discriminant
    is a rational square over Q or Q[b] (else MathError over Q[b]).
    """
    (a, b), (c, d) = L
    if ring.is_zero(b) or ring.is_zero(c):
        return (a, d), True
    found = ring.roots([ring.sub(ring.mul(a, d), ring.mul(b, c)),
                        ring.neg(ring.add(a, d)), ring.one])
    return (tuple(r for r, k, _ in found for _ in range(k)),
            not any(approximate for _, _, approximate in found))


class SingKind(Enum):
    REGULAR = "regular"
    REDUCED_HYPERBOLIC = "reduced_hyperbolic"
    RESONANT = "resonant"
    SADDLE_NODE = "saddle_node"
    POINCARE_DULAC_CANDIDATE = "poincare_dulac_candidate"
    DICRITICAL_CANDIDATE = "dicritical_candidate"
    POSITIVE_RATIONAL = "positive_rational"
    NON_ELEMENTARY = "non_elementary"


@dataclass(frozen=True)
class SingularityType:
    kind: SingKind
    ratio: object = None       # exact rational, or complex approximation
    m: int | None = None       # integer eigenvalue ratio for PD candidates
    approximate: bool = False

    def json(self):
        out = {"kind": self.kind.value, "approximate": self.approximate}
        if self.ratio is not None:
            out["ratio"] = encode(self.ratio)
        if self.m is not None:
            out["m"] = self.m
        return out


def classify_singularity(L: Matrix2, ring) -> SingularityType:
    """Tag a 2x2 linear part; total on matrices.

    Nonzero nilpotent matrices count as non-elementary (no nonzero
    eigenvalue).  Positive rational ratios that are neither an integer
    >= 2 nor its inverse, including a ratio-1 Jordan block, are tagged
    POSITIVE_RATIONAL: non-reduced but not a Poincare-Dulac candidate.
    """
    if matrix_is_zero(L, ring):
        return SingularityType(SingKind.NON_ELEMENTARY)
    (e00, e01), (e10, e11) = L
    scalar = (ring.is_zero(e01) and ring.is_zero(e10)
              and ring.eq(e00, e11) and not ring.is_zero(e00))
    if scalar:
        return SingularityType(SingKind.DICRITICAL_CANDIDATE)
    (l1, l2), exact = eigenvalues(L, ring)
    z1, z2 = ring.negligible(l1), ring.negligible(l2)
    if z1 and z2:
        return SingularityType(SingKind.NON_ELEMENTARY, approximate=not exact)
    if z1 or z2:
        return SingularityType(SingKind.SADDLE_NODE, approximate=not exact)

    if exact:
        q1 = ring.as_rational(l1)
        q2 = ring.as_rational(l2)
        if q1 is not None and q2 is not None:
            ratio = rational(q1) / rational(q2)
            if ratio < 0:
                return SingularityType(SingKind.RESONANT, ratio=ratio)
            for cand in (ratio, 1 / ratio):
                if cand.denominator == 1 and cand >= 2:
                    return SingularityType(
                        SingKind.POINCARE_DULAC_CANDIDATE, ratio=ratio,
                        m=int(cand.numerator))
            return SingularityType(SingKind.POSITIVE_RATIONAL, ratio=ratio)
        # exact triangular matrix over a complex ring falls through to the
        # approximate tests below; over Q[b] it has no numeric value
    r = ring.to_complex(l1) / ring.to_complex(l2)
    if ring.negligible(r.imag, max(1.0, abs(r))):
        x = r.real
        for cand in (x, 1 / x):
            n = mpmath.nint(cand)
            if n >= 2 and ring.negligible(cand - n, max(1.0, abs(cand))):
                return SingularityType(SingKind.POINCARE_DULAC_CANDIDATE,
                                       ratio=r, m=int(n), approximate=True)
        frac = ring.near_rational(x) if x < 0 or x > 0 else None  # not NaN
        if frac is not None:
            kind = SingKind.RESONANT if x < 0 else SingKind.POSITIVE_RATIONAL
            return SingularityType(kind, ratio=frac, approximate=True)
    return SingularityType(SingKind.REDUCED_HYPERBOLIC, ratio=r,
                           approximate=True)


def cs_index(field: PlaneVectorField):
    """Camacho-Sad index of the divisor {v1 = 0} at the origin;
    ``blowup.recenter`` moves another divisor point there.

    Writing the field as v1*ptilde d/dv1 + q d/dv2, the index is the
    residue at 0 of ptilde(0, v2)/q(0, v2), i.e. the coefficient of
    v2^(s-1) in ptilde(0, v2)/u(v2) where q(0, v2) = v2^s u(v2),
    u(0) != 0.  Simple zeros (s = 1) cover every point the reduction
    pipeline produces; higher s costs nothing with the same unit
    division, so it is not rejected.

    That coefficient reads only the degrees below s of ptilde(0, .) and
    of u, so both are truncated to order s - 1 before u is inverted;
    the valuation test runs on the full data.
    """
    ring = field.ring
    px, q = field.p1, field.p2
    if not (px.is_zero() or px.min_exponent(0) >= 1):
        raise MathError("divisor {%s = 0} is not invariant"
                        % field.variables[0])
    if px.is_zero():
        ptilde0 = Series1.zero(ring, field.variables[1], q.order)
    else:
        ptilde0 = px.divide_monomial((1, 0)).restrict_first_zero()
    q0 = q.restrict_first_zero()
    if q0.is_zero():
        raise MathError("every divisor point is singular; no isolated index")
    s = q0.valuation()
    if s is math.inf or s < 1:
        raise MathError("the point is not singular on the divisor")
    unit = q0.divide_monomial(s)
    ratio = ptilde0.truncate(s - 1) * unit.truncate(s - 1).inverse_unit()
    return ratio.coefficient(s - 1)


@dataclass(frozen=True)
class SingularityReport:
    """One singular point of a reduced form, as reported to the user.
    Every reported point lies in the exceptional chart C1."""

    location: object            # coordinate along the divisor (ring element)
    linear: Matrix2
    eigenvalues: tuple
    eigen_exact: bool
    type: SingularityType
    cs: object                  # Camacho-Sad index along the divisor

    def json(self, ring):
        return {
            "chart": "C1",
            "corner": False,    # the corner is never a reported point
            "location": encode(self.location, ring),
            "linear_part": encode(self.linear, ring),
            "eigenvalues": encode(self.eigenvalues, ring),
            "eigenvalues_exact": self.eigen_exact,
            "type": self.type.json(),
            "cs_index": encode(self.cs, ring),
        }


def report_at(local: OneForm2, z0) -> SingularityReport:
    """Classify the singular point at the origin of ``local``, the chart
    form already recentred at the divisor point (0, z0); z0 is reported
    as its location."""
    ring = local.ring
    X = dual(local)
    L = linear_part(X)
    eigs, exact = eigenvalues(L, ring)
    kind = classify_singularity(L, ring)
    return SingularityReport(location=ring.coerce(z0), linear=L,
                             eigenvalues=eigs, eigen_exact=exact, type=kind,
                             cs=cs_index(X))
