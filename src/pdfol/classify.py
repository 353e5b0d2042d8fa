"""Case analysis for nilpotent singularities in prenormal shape.

A form d(y^2 + x^n) + alpha*x^p*U(x)*dy splits on the sign of 2p - n.
In the balanced case 2p = n the p-fold blow-up chain exposes two
singular points z1, z2 with 2z^2 + alpha*z + 2 = 0; when
sqrt(alpha^2 - 16)/alpha is a rational in (-1, 1) one of them carries a
positive integer eigenvalue ratio m and (p, m) pins alpha down to
-2(m+2p)/sqrt(p(m+p)).  Whether that point is dicritical or a genuine
Poincare-Dulac singularity is decided by two independent routes: the
resonant coefficient of the fibered normal form, and m - 1 further
blow-ups ending in a scalar-vs-Jordan linear part.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import mpmath

from .errors import (InputError, MathError, NotInvertibleError, PdfolError,
                     PrecisionError)
from .rings import is_rational, rational, rational_sqrt
from .series import Series1
from .forms import (OneForm2, SingKind, classify_singularity, dual,
                    linear_part, normalized_jordan)
from .blowup import (blowup_chart1, blowup_chain, recenter,
                     singular_points_on_divisor)
from .normal_form import normalize, to_fibered_field
from .report import encode

CASE_CUSP = "cusp"
CASE_SADDLE = "saddle"
CASE_SADDLE_NODE = "saddle-node-class"

SUBCASE_PM4 = "alpha_pm4"
SUBCASE_SIMPLE = "simple_pair"
SUBCASE_RESONANT = "resonant_pair"

VERDICT_GPD = "GeneralizedPD"
VERDICT_NA = "NotApplicable"


def verdict_dicritical(order: int) -> str:
    """The dicritical verdict names the order it was certified to."""
    return "Dicritical-to-order-%d" % order


def default_order(p: int, m: int) -> int:
    """Truncation order giving the decision plus a margin of checks."""
    return 2 * p + m + 8


@dataclass(frozen=True)
class PrenormalData:
    """The data (n, p, alpha, U) of d(y^2 + x^n) + alpha*x^p*U(x)*dy."""
    n: int
    p: int
    alpha: object
    U: Series1

    def __post_init__(self):
        if self.n < 3:
            raise MathError("prenormal data needs n >= 3, got %d" % self.n)
        if self.p < 2:
            raise MathError("prenormal data needs p >= 2, got %d" % self.p)
        ring = self.U.ring
        if ring.is_zero(ring.coerce(self.alpha)):
            raise MathError("prenormal data needs alpha != 0")
        if not ring.eq(self.U.coefficient(0), ring.coerce(1)):
            raise MathError("prenormal data needs U(0) = 1")


def parse_prenormal(omega: OneForm2) -> PrenormalData:
    """Read off (n, p, alpha, U) from 2y dy + n x^{n-1} dx + alpha x^p U dy.

    The dy-coefficient is first normalized so its y-linear term is 2;
    anything not matching the shape exactly is rejected, full reduction
    to prenormal shape is not attempted."""
    ring = omega.ring
    c = omega.b.coefficient(0, 1)
    if ring.is_zero(c):
        raise MathError("shape mismatch: dy-coefficient has no y-linear term")
    omega = omega.scale(ring.div(ring.coerce(2), c))
    a, b = omega.a, omega.b

    exps = sorted(a.coeffs)
    if not exps and a.truncated:
        raise PrecisionError("the dx-coefficient vanishes to its truncation "
                             "order %d; parse at a higher order to reach "
                             "its term n*x^(n-1)" % a.order)
    if len(exps) != 1 or exps[0][1] != 0 or exps[0][0] < 2:
        raise MathError("shape mismatch: dx-coefficient must be a single "
                         "monomial n*x^(n-1) with n >= 3")
    n = exps[0][0] + 1
    if not ring.eq(a.coefficient(n - 1, 0), ring.coerce(n)):
        raise MathError("shape mismatch: dx-coefficient is not n*x^(n-1)")

    pure_x = {}
    for (i, j), value in b.coeffs.items():
        if (i, j) == (0, 1):
            continue
        if j != 0 or i == 0:
            raise MathError("shape mismatch: dy-coefficient must be "
                             "2y + alpha*x^p*U(x)")
        pure_x[i] = value
    if not pure_x:
        raise MathError("shape mismatch: no perturbation term alpha*x^p*U(x)")
    p = min(pure_x)
    if p < 2:
        raise MathError("shape mismatch: perturbation needs p >= 2, got %d" % p)
    alpha = pure_x[p]
    try:
        inv = ring.invert(alpha)
    except NotInvertibleError:
        raise MathError("prenormal shape d(y^2 + x^n) + alpha*x^p*U(x)*dy: "
                        "alpha, the coefficient of x^%d, is %s; alpha must "
                        "be a nonzero constant"
                        % (p, ring.format_coeff(alpha))) from None
    u_coeffs = {i - p: ring.mul(value, inv) for i, value in pure_x.items()}
    U = Series1(ring, omega.variables[0], omega.order - p, u_coeffs,
                truncated=b.truncated)
    return PrenormalData(n, p, alpha, U)


def takens_case(data: PrenormalData) -> str:
    if 2 * data.p > data.n:
        return CASE_CUSP
    if 2 * data.p == data.n:
        return CASE_SADDLE
    return CASE_SADDLE_NODE


def saddle_subcase(alpha, ring) -> str:
    """Split the balanced case on sqrt(alpha^2-16)/alpha in Q cap (-1,1).

    An alpha with a rational value q takes the exact test: q^2 - 16 must
    be a positive rational square, which puts (q^2-16)/q^2 in (0, 1).
    Another alpha takes it numerically, within the ring's tolerance."""
    q = ring.as_rational(alpha)
    if q is not None:
        if q == 4 or q == -4:
            return SUBCASE_PM4
        disc = q * q - 16
        if disc > 0 and rational_sqrt(disc) is not None:
            return SUBCASE_RESONANT
        return SUBCASE_SIMPLE
    x = ring.to_complex(alpha)
    if ring.negligible(x - 4, 4) or ring.negligible(x + 4, 4):
        return SUBCASE_PM4
    w = mpmath.sqrt(x * x - 16) / x
    if -1 < w.real < 1 and ring.near_rational(w) is not None:
        return SUBCASE_RESONANT
    return SUBCASE_SIMPLE


def gpd_condition(p: int, m: int):
    """alpha = -2(m+2p)/sqrt(p(m+p)); returns (value, irrational flag).

    The value is an exact rational when p(m+p) is a perfect square and
    an mpmath float otherwise."""
    if not (isinstance(p, int) and isinstance(m, int) and p >= 2 and m >= 2):
        raise InputError("gpd_condition needs integers p >= 2, m >= 2")
    s = rational(p * (m + p))
    root = rational_sqrt(s)
    if root is not None:
        return rational(-2 * (m + 2 * p)) / root, False
    return -2 * (m + 2 * p) / mpmath.sqrt(p * (m + p)), True


class GPDRoots(NamedTuple):
    m: int
    z1: object
    z2: object


def gpd_detect(p: int, alpha) -> Optional[GPDRoots]:
    """Solve 2z^2 + alpha*z + 2 = 0 and order the roots so that
    m = p(z1 - z2)/z2 is an integer >= 2, if such an ordering exists."""
    if not is_rational(alpha):
        raise MathError("gpd detection needs an exact rational alpha")
    q = rational(alpha)
    if q == 0:
        return None
    disc = q * q - 16
    if disc <= 0:
        return None
    root = rational_sqrt(disc)
    if root is None:
        return None
    quarter = rational(1, 4)
    r_plus = (-q + root) * quarter
    r_minus = (-q - root) * quarter
    for z1, z2 in ((r_plus, r_minus), (r_minus, r_plus)):
        mq = p * (z1 - z2) / z2
        if mq.denominator != 1 or mq < 2:
            continue
        m = int(mq)
        # the integer must reproduce from the quadratic roots themselves,
        # not from a rearranged divisibility condition
        if 2 * z1 * z1 + q * z1 + 2 != 0 or 2 * z2 * z2 + q * z2 + 2 != 0:
            continue
        if p * (z1 - z2) != m * z2:
            continue
        return GPDRoots(m, z1, z2)
    return None


@dataclass(frozen=True)
class DichotomyResult:
    """Outcome of one dicritical-vs-Poincare-Dulac test."""
    verdict: str
    method: str
    m: int
    order: int
    epsilon: object = None
    decisive: object = None
    normalization: object = None


def _recenter_unique(step) -> OneForm2:
    points = [pt for pt in singular_points_on_divisor(step) if not pt.corner]
    if len(points) != 1:
        raise MathError("expected exactly one singular point on the smooth "
                        "divisor, found %d" % len(points))
    return recenter(step.form, points[0].location)


def _jet(omega: OneForm2, degree: int) -> OneForm2:
    """The terms of omega of total degree <= degree, in their order, with
    the coefficients, order and truncated flags kept as they are."""
    def cut(s):
        return s._like(s.order, {key: c for key, c in s.coeffs.items()
                                 if key[0] + key[1] <= degree}, s.truncated)
    return OneForm2(cut(omega.a), cut(omega.b))


def pd_vs_dicritical(omega_local: OneForm2, method: str,
                     N: int) -> DichotomyResult:
    """Decide dicritical vs Poincare-Dulac at a candidate point.

    homological: solve the conjugacy equation that carries the dual field
    to x dx + (mz + eps*x^m) dz and test eps.  chain: blow up m - 1 more times,
    recentering at the unique smooth-divisor singular point after each,
    and read the Jordan off-diagonal entry of the final linear part.

    The chain runs on jets.  Each blow-up there divides by x^1 (checked:
    eigenvalues (1, j) become (1, j - 1)) and recentring keeps x-exponents,
    so a step lowers a term's total degree by at most one, and before a
    blow-up with r to come, this one included, only degree <= r + 1 can
    reach the final linear part.  Errors name the blow-up they follow.
    """
    ring = omega_local.ring
    kind = classify_singularity(linear_part(dual(omega_local)), ring)
    if kind.kind is not SingKind.POINCARE_DULAC_CANDIDATE:
        raise MathError("linear part is not a Poincare-Dulac candidate "
                        "(got %s)" % kind.kind.value)
    m = kind.m
    if method == "homological":
        order = max(N, m)
        field = to_fibered_field(omega_local, m, order=order)
        res = normalize(field, order)
        if not ring.is_zero(res.epsilon):
            return DichotomyResult(VERDICT_GPD, method, m, N,
                                   epsilon=res.epsilon, normalization=res)
        return DichotomyResult(verdict_dicritical(N), method, m, N,
                               epsilon=res.epsilon, normalization=res)
    if method == "chain":
        current = omega_local
        try:
            for i in range(1, m):
                step = blowup_chart1(_jet(current, m - i + 1))
                if step.dicritical:
                    raise MathError("unexpected dicritical blow-up inside "
                                    "the chain")
                if step.k_divided != 1:
                    raise MathError("the blow-up divided by x^%d, not x^1"
                                    % step.k_divided)
                current = _recenter_unique(step)
            jordan = normalized_jordan(linear_part(dual(current)), ring)
        except PdfolError as exc:
            exc.args = ("chain blow-up %d of %d: %s" % (i, m - 1, exc),)
            raise
        decisive = jordan[1][0]
        if not ring.is_zero(decisive):
            return DichotomyResult(VERDICT_GPD, method, m, N,
                                   decisive=decisive)
        return DichotomyResult(verdict_dicritical(N), method, m, N,
                               decisive=decisive)
    raise InputError("unknown method %r; use homological or chain" % (method,))


@dataclass(frozen=True)
class GPDReport:
    """Full outcome of the decision pipeline; ``p`` is not in the JSON."""
    case: str
    p: int = None
    subcase: str = None
    z1: object = None
    z2: object = None
    m: int = None
    gpd_alpha_check: bool = False
    epsilon: object = None
    verdict: str = VERDICT_NA
    normalization: object = None

    def json(self, ring):
        return {
            "case": self.case,
            "subcase": self.subcase,
            "z1": encode(self.z1),
            "z2": encode(self.z2),
            "m": self.m,
            "gpd_alpha_check": self.gpd_alpha_check,
            "epsilon": encode(self.epsilon, ring),
            "verdict": self.verdict,
        }


def analyze(omega: OneForm2, method: str = "homological",
            N: int = None) -> GPDReport:
    """Run the whole decision pipeline on a prenormal-shape 1-form."""
    data = parse_prenormal(omega)
    case = takens_case(data)
    if case != CASE_SADDLE:
        return GPDReport(case=case, p=data.p)
    ring = omega.ring
    subcase = saddle_subcase(data.alpha, ring)
    if subcase != SUBCASE_RESONANT:
        return GPDReport(case=case, p=data.p, subcase=subcase)
    alpha_q = ring.near_rational(data.alpha)
    if alpha_q is None:
        raise MathError("alpha is irrational; the resonance data cannot be "
                        "certified in exact arithmetic")
    detected = gpd_detect(data.p, alpha_q)
    if detected is None:
        return GPDReport(case=case, p=data.p, subcase=subcase)
    m, z1, z2 = detected
    assert z1 * z2 == 1 and z1 + z2 == -alpha_q / 2
    check = (alpha_q * alpha_q * data.p * (m + data.p)
             == 4 * rational(m + 2 * data.p) ** 2)
    if N is None:
        N = default_order(data.p, m)
    path = blowup_chain(omega, data.p)
    local = recenter(path.final, ring.from_rational(z1))
    test = pd_vs_dicritical(local, method, N)
    if test.m != m:
        raise MathError("blow-up chain found resonance %d, expected %d"
                        % (test.m, m))
    return GPDReport(case=case, p=data.p, subcase=subcase, z1=z1, z2=z2, m=m,
                     gpd_alpha_check=check, epsilon=test.epsilon,
                     verdict=test.verdict, normalization=test.normalization)
