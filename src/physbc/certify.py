"""Certification conditions and the special functions behind them.

The initial and unsafe conditions need no certification step: their rows
bound the barrier's Bernstein coefficients, so they already hold on the
whole region (see :mod:`physbc.barrier`).  Only the flow condition rests on
samples, and ``lipschitz`` is the flow expression's constant.  The
deterministic route needs only arithmetic: the flow condition generalises
from samples to the whole domain when
``lipschitz * covering_radius + slack <= 0``.

The probabilistic route bounds the measure of the violating set.  The
smallest defensible violation level comes from the regularised incomplete
beta function: with ``P`` retained samples and ``c`` scenario decision
variables, the level is the ``1 - risk`` quantile of a Beta(c, P - c + 1)
law.  A geometry factor then converts that measure into a radius, and the
check mirrors the deterministic one with the radius in place of the covering
radius.  The beta machinery is implemented here directly (continued fraction
plus a safeguarded Newton inverse) so its accuracy is under our control and
independently testable against quadrature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import (
    DomainError,
    GeometrySaturationError,
    InsufficientSamplesError,
    PhysbcError,
)

_FPMIN = 1e-300
_CF_EPS = 1e-16
_CF_MAX_ITER = 1000


def beta_inc(nu: float, lam: float, gam: float) -> float:
    """Regularised incomplete beta function ``I_nu(lam, gam)``.

    Continued-fraction evaluation with the usual symmetry switch at
    ``nu > (lam + 1) / (lam + gam + 2)``; absolute error is well below 1e-12
    across the parameter ranges used here (shape parameters up to ~1e6).
    """
    if not (lam > 0 and gam > 0):
        raise DomainError("shape parameters must be positive")
    if math.isnan(nu) or nu < 0.0 or nu > 1.0:
        raise DomainError(f"nu must lie in [0, 1], got {nu}")
    if nu == 0.0 or nu == 1.0:
        return float(nu)
    # closed forms avoid lgamma cancellation at large shape values
    if lam == 1.0:
        return -math.expm1(gam * math.log1p(-nu))
    if gam == 1.0:
        return math.exp(lam * math.log(nu))
    ln_front = (
        math.lgamma(lam + gam)
        - math.lgamma(lam)
        - math.lgamma(gam)
        + lam * math.log(nu)
        + gam * math.log1p(-nu)
    )
    front = math.exp(ln_front)
    if nu < (lam + 1.0) / (lam + gam + 2.0):
        return front * _beta_contfrac(nu, lam, gam) / lam
    return 1.0 - front * _beta_contfrac(1.0 - nu, gam, lam) / gam


def _beta_contfrac(x: float, a: float, b: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + coeff / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + coeff / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise PhysbcError("incomplete-beta continued fraction did not converge")


def beta_inc_inv(p: float, lam: float, gam: float) -> float:
    """Inverse of :func:`beta_inc` in its first argument.

    Bisection shrinks the bracket to width 1e-3, then safeguarded Newton
    finishes; the result round-trips through :func:`beta_inc` to better
    than 1e-10.
    """
    if not (lam > 0 and gam > 0):
        raise DomainError("shape parameters must be positive")
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if beta_inc(mid, lam, gam) < p:
            lo = mid
        else:
            hi = mid

    ln_beta = math.lgamma(lam) + math.lgamma(gam) - math.lgamma(lam + gam)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = beta_inc(x, lam, gam) - p
        if abs(f) <= 1e-13:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        if x <= 0.0 or x >= 1.0:
            density = 0.0
        else:
            density = math.exp(
                (lam - 1.0) * math.log(x) + (gam - 1.0) * math.log1p(-x) - ln_beta
            )
        nxt = x - f / density if density > 0.0 else 0.5 * (lo + hi)
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if nxt == x:
            break
        x = nxt
    return x


def min_violation_level(risk: float, decision_count: int, retained_count: int) -> float:
    """Smallest violation level defensible at confidence ``1 - risk``.

    ``decision_count`` is the scenario program's decision-variable count and
    ``retained_count`` the number of samples that survived filtering.  Grows
    with the decision count, shrinks as samples accumulate.
    """
    if not (0.0 < risk < 1.0):
        raise DomainError("risk must lie strictly between 0 and 1")
    if decision_count < 1:
        raise DomainError("decision_count must be positive")
    if retained_count <= decision_count:
        raise InsufficientSamplesError(
            f"{retained_count} retained samples cannot support "
            f"{decision_count} decision variables"
        )
    return beta_inc_inv(1.0 - risk, decision_count, retained_count - decision_count + 1)


@dataclass(frozen=True)
class GeometryFactor:
    """Map between a radius and the uniform measure of a ball in an interval.

    ``mass(r) = r / L``: the mass of the half-interval ``[0, r]`` at a domain
    endpoint, the least a radius-``r`` ball covers in an interval of length
    ``L``.  The paper writes the constant as ``sqrt(pi) / (1.77 L)``, with
    1.77 its rounding of ``2 * Gamma(3/2) = sqrt(pi)``; that rounding makes
    the radius 0.14% too small, on the optimistic side, so the exact ``1 / L``
    is used.  The map is one-dimensional, the dimension the package
    certifies.  The mass saturates at 1, so the inverse map is only defined
    for levels strictly below 1.
    """

    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("length must be positive")

    @classmethod
    def from_region(cls, region) -> "GeometryFactor":
        (length,) = region.lengths
        return cls(float(length))

    def mass(self, radius: float) -> float:
        """Fraction of the interval covered by a ball of the given radius."""
        if radius < 0:
            raise DomainError("radius must be non-negative")
        return min(radius / self.length, 1.0)

    def radius(self, level: float) -> float:
        """Inverse of :meth:`mass` below saturation."""
        if level < 0:
            raise DomainError("level must be non-negative")
        if level >= 1.0:
            raise GeometrySaturationError(
                f"violation level {level} saturates the geometry map"
            )
        return level * self.length


@dataclass(frozen=True)
class CertificationReport:
    """Certification outcome with every input echoed.

    ``condition`` must be non-positive for a pass.  ``radius`` is the
    covering radius on the deterministic route and the geometry-converted
    violation radius on the probabilistic one.
    """

    mode: str  # "deterministic" | "probabilistic"
    condition: float
    slack: float
    lipschitz: float
    radius: float
    confidence: float
    violation_level: Optional[float] = None
    risk: Optional[float] = None
    decision_count: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.condition <= 0.0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}


def check_deterministic(slack: float, lipschitz: float, covering_radius: float) -> CertificationReport:
    """Pass when ``lipschitz * covering_radius + slack <= 0`` (confidence 1)."""
    if covering_radius <= 0:
        raise DomainError("covering radius must be positive")
    if lipschitz < 0:
        raise DomainError("lipschitz constant must be non-negative")
    condition = lipschitz * covering_radius + slack
    return CertificationReport(
        mode="deterministic",
        condition=condition,
        slack=slack,
        lipschitz=lipschitz,
        radius=covering_radius,
        confidence=1.0,
    )


def check_probabilistic(
    slack: float,
    lipschitz: float,
    violation_level: float,
    geometry: GeometryFactor,
    risk: float,
    decision_count: Optional[int] = None,
) -> CertificationReport:
    """Pass when ``slack + lipschitz * radius(violation_level) <= 0``.

    The verdict holds with confidence ``1 - risk``; saturation of the
    geometry map (level >= 1) is an error rather than a silent fail.
    """
    if lipschitz < 0:
        raise DomainError("lipschitz constant must be non-negative")
    if not (0.0 < risk < 1.0):
        raise DomainError("risk must lie strictly between 0 and 1")
    radius = geometry.radius(violation_level)
    condition = slack + lipschitz * radius
    return CertificationReport(
        mode="probabilistic",
        condition=condition,
        slack=slack,
        lipschitz=lipschitz,
        radius=radius,
        confidence=1.0 - risk,
        violation_level=violation_level,
        risk=risk,
        decision_count=decision_count,
    )
