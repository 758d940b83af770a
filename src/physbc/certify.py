"""Certification conditions and the scenario level behind the probabilistic one.

The initial and unsafe conditions need no certification step: their rows
bound the barrier's Bernstein coefficients, so they already hold on the
whole region (see :mod:`physbc.barrier`).  Only the flow condition rests on
samples, and ``lipschitz`` is the flow expression's constant.  The
deterministic route needs only arithmetic: the flow condition generalises
from samples to the whole domain when
``lipschitz * covering_radius + slack <= 0``.

The probabilistic route bounds the measure of the violating set.  With ``P``
retained i.i.d. samples and ``c`` scenario decision variables, the violation
level at confidence ``1 - risk`` is the root of the binomial tail (Campi &
Garatti, "The exact feasibility of randomized solutions of uncertain convex
programs", SIAM J. Optim. 2008)::

    sum_{i < c} C(P, i) eps^i (1 - eps)^(P - i) = risk

The tail falls as ``eps`` grows, so any level at or above the root is sound.
:func:`min_violation_level` bisects on the log of the tail and keeps a bracket
end only where the computed log tail lies below ``log(risk)`` by more than a
bound on its rounding error; the exact tail at the returned level is
therefore at most ``risk``.  :func:`check_probabilistic` then turns that
measure into a radius on the domain interval, and the check mirrors the
deterministic one with the radius in place of the covering radius.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Integral
from typing import Optional

from .errors import PhysbcError

_ROUNDOFF = 2.0 ** -53


def min_violation_level(risk: float, decision_count: int, retained_count: int) -> float:
    """Smallest violation level defensible at confidence ``1 - risk``.

    ``decision_count`` (``c``) is the scenario program's decision-variable
    count and ``retained_count`` (``P``) the number of samples that survived
    filtering.  The level grows with the decision count and shrinks as
    samples accumulate.

    Bisection on ``[0, 1]`` runs until the bracket ends are adjacent floats
    and returns the upper end.  At each midpoint the log tail is the
    log-sum-exp of the ``c`` terms ``log C(P, i) + i log eps + (P - i)
    log(1 - eps)``, so no term underflows; ``C(P, i)`` is an exact integer.
    With ``M`` the largest term magnitude, each term is off by at most about
    ``4 u M`` in unit roundoff ``u``, and the log-sum-exp and ``log(risk)``
    add at most ``2 u M + 2 (c - 1) u``.  A midpoint counts as above the root
    only when its log tail is below ``log(risk) - 8 u (M + c - 1)``, which
    covers both; the level then exceeds the exact root by that margin over
    the tail's log-log slope, near 1e-12 relative.
    """
    if not (0.0 < risk < 1.0):
        raise PhysbcError("risk must lie strictly between 0 and 1")
    for name, value in (("decision_count", decision_count), ("retained_count", retained_count)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise PhysbcError(f"{name} must be an integer, got {value!r}")
    if decision_count < 1:
        raise PhysbcError("decision_count must be positive")
    if retained_count <= decision_count:
        raise PhysbcError(
            f"{retained_count} retained samples cannot support "
            f"{decision_count} decision variables"
        )
    c, count = int(decision_count), int(retained_count)  # exact binomials, never int64
    log_binom, binom = [], 1
    for i in range(c):
        log_binom.append(math.log(binom))
        binom = binom * (count - i) // (i + 1)
    largest_binom = max(log_binom)
    log_risk = math.log(risk)
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        log_eps, log_rest = math.log(mid), math.log1p(-mid)
        terms = [lb + i * log_eps + (count - i) * log_rest for i, lb in enumerate(log_binom)]
        top = max(terms)
        log_tail = top + math.log(sum([math.exp(t - top) for t in terms]))
        magnitude = largest_binom - (c - 1) * log_eps - count * log_rest
        if log_tail > log_risk - 8.0 * _ROUNDOFF * (magnitude + c - 1):
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class CertificationReport:
    """Certification outcome with every input echoed.

    ``condition`` must be non-positive for a pass.  ``radius`` is the
    covering radius on the deterministic route and the violation radius,
    ``violation_level * domain_length``, on the probabilistic one.
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
        raise PhysbcError("covering radius must be positive")
    if lipschitz < 0:
        raise PhysbcError("lipschitz constant must be non-negative")
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
    domain_length: float,
    risk: float,
    decision_count: Optional[int] = None,
) -> CertificationReport:
    """Pass when ``slack + lipschitz * violation_level * domain_length <= 0``.

    A ball of radius ``r`` centred in an interval of length ``L`` covers at
    least the half-interval ``[0, r]`` at an end, a uniform mass of ``r / L``.
    With ``r = violation_level * L`` every such ball holds at least the mass
    the violating set may hold, and with it a non-violating point.  The
    paper writes that mass as
    ``sqrt(pi) r / (1.77 L)``, with 1.77 its rounding of ``2 * Gamma(3/2) =
    sqrt(pi)``; the rounding makes the radius 0.14% too small, on the
    optimistic side, so the exact ``1 / L`` is used.  The mass saturates at
    1, so a level of 1 or more gives no radius: that is an error rather than
    a silent fail.  The verdict holds with confidence ``1 - risk``.
    """
    if lipschitz < 0:
        raise PhysbcError("lipschitz constant must be non-negative")
    if not (0.0 < risk < 1.0):
        raise PhysbcError("risk must lie strictly between 0 and 1")
    if not domain_length > 0:
        raise PhysbcError("domain length must be positive")
    if violation_level < 0:
        raise PhysbcError("level must be non-negative")
    if violation_level >= 1.0:
        raise PhysbcError(f"violation level {violation_level} saturates the domain")
    radius = violation_level * domain_length
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
