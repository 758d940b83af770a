"""Barrier function templates, fitted certificates, and scenario constraints.

A certificate ``B(x)`` is a linear combination of monomials.  The basis
matrix builds every monomial column by repeated multiplication of per-axis
integer powers (``x_i``, ``x_i*x_i``, ...), with no floating-point ``pow``.
Safety is encoded by three families of affine constraints on the stacked
decision vector ``[unsafe_level, coefficients...]``:

* initial rows:  ``B(x) - initial_level          <= slack``  on the initial set,
* unsafe rows:   ``unsafe_level - B(x)           <= slack``  on the unsafe set,
* flow rows:     ``B(successor) - decay * B(x)   <= slack``  on recorded pairs.

``initial_level`` is the fixed small positive constant :data:`INITIAL_LEVEL`
rather than a decision entry.  Left free, it only ever adds a translation
degree of freedom: the optimiser shifts the whole barrier downward, parking
both levels far below zero where the decay chain makes the certificate
vacuous (see :class:`BarrierCertificate`).  Pinning it removes that freedom
and, together with the level-gap row, keeps every negative-slack solution
valid by construction.

Every row is an affine function of the decision vector that must stay below
the shared slack variable; minimising the slack over all rows is the job of
:mod:`physbc.solver`.  Besides the sample rows, every assembled system ends
in the same auxiliary rows: ``2 * width`` symmetric bound rows that keep the
polytope bounded, and one level-gap row ``initial_level - unsafe_level <=
slack`` so that a negative optimal slack certifies ``unsafe_level >
initial_level`` instead of letting the optimiser collapse the separation.
:func:`assemble` writes every row into one preallocated, read-only stack that
the solver receives uncopied.  The rows come in the order of
:data:`FAMILIES`, so a row's family follows from its position and the
per-family row counts alone.

After the solve, :func:`sample_values` evaluates the certificate once on the
recorded pairs; the residual audit (:func:`check_certificate`) and the
Lipschitz estimators read those values instead of evaluating it again.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import ModelMismatchError, RegionViolationError
from .models import RegionBox
from .sampling import Dataset

# row families, in stack order: the three sample families, then the auxiliary rows
FAMILIES = ("initial", "unsafe", "flow", "bound", "gap")

DEFAULT_COEFF_BOUND = 100.0
INITIAL_LEVEL = 1e-4  # the pinned barrier level on the initial set


@dataclass(frozen=True, eq=False)
class BarrierTemplate:
    """Monomial basis given as one exponent tuple per basis function."""

    exponents: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        exps = tuple(tuple(int(e) for e in row) for row in self.exponents)
        if not exps:
            raise ValueError("template needs at least one monomial")
        width = len(exps[0])
        if width == 0 or any(len(row) != width for row in exps):
            raise ValueError("every exponent tuple must have the same positive length")
        if any(e < 0 for row in exps for e in row):
            raise ValueError("exponents must be non-negative")
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate monomials in template")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def from_degree(cls, degree: int, dimension: int = 1) -> "BarrierTemplate":
        """All monomials of total degree <= ``degree``, highest degree first.

        In one dimension with ``degree=2`` this is the quadratic basis
        (x^2, x, 1).
        """
        if degree < 0 or dimension < 1:
            raise ValueError("degree must be >= 0 and dimension >= 1")
        rows = []
        for total in range(degree, -1, -1):
            level = [
                exp
                for exp in itertools.product(range(total, -1, -1), repeat=dimension)
                if sum(exp) == total
            ]
            rows.extend(level)
        return cls(tuple(rows))

    @classmethod
    def quadratic(cls, dimension: int = 1) -> "BarrierTemplate":
        return cls.from_degree(2, dimension)

    @property
    def dimension(self) -> int:
        return len(self.exponents[0])

    @property
    def size(self) -> int:
        return len(self.exponents)

    def basis_matrix(self, states: np.ndarray) -> np.ndarray:
        """Evaluate all monomials at a batch of states: ``(N, n) -> (N, z)``.

        Per axis, the integer powers ``x_i, x_i*x_i, ...`` are built by
        repeated multiplication; a monomial multiplies its nonzero-exponent
        powers left to right over the axes.  Exponent 0 contributes no factor,
        so a constant monomial is exactly 1.0, as ``x**0`` is, also for inf
        and nan states.
        """
        x = np.atleast_2d(np.asarray(states, dtype=float))
        if x.shape[1] != self.dimension:
            raise ValueError(
                f"template is {self.dimension}-dimensional, states are {x.shape[1]}-dimensional"
            )
        powers = []  # powers[i][e - 1] is x_i ** e
        for i, top in enumerate(np.max(self.exponents, axis=0)):
            axis = [np.ascontiguousarray(x[:, i])] if top else []
            for _ in range(1, top):
                axis.append(axis[-1] * axis[0])
            powers.append(axis)
        out = np.empty((len(x), self.size))
        for j, row in enumerate(self.exponents):
            factors = [powers[i][e - 1] for i, e in enumerate(row) if e]
            column = out[:, j]
            if not factors:
                column.fill(1.0)
            elif len(factors) == 1:
                column[...] = factors[0]
            else:
                np.multiply(factors[0], factors[1], out=column)
                for factor in factors[2:]:
                    np.multiply(column, factor, out=column)
        return out

    def to_dict(self) -> dict:
        return {"exponents": [list(row) for row in self.exponents]}

    @classmethod
    def from_dict(cls, data: dict) -> "BarrierTemplate":
        return cls(tuple(tuple(row) for row in data["exponents"]))


@dataclass(frozen=True, eq=False)
class BarrierCertificate:
    """A fitted barrier: coefficients over a template plus its level structure.

    ``decay`` is the multiplicative decrease factor required along the flow,
    in (0, 1].  A certificate is only meaningful when ``unsafe_level``
    strictly exceeds ``initial_level`` and, for ``decay < 1``, is itself
    non-negative: starting below a negative ``initial_level``, the chain
    ``B(x_k) <= decay^k * B(x_0)`` climbs towards zero and would cross any
    negative ``unsafe_level``.  Validity is not enforced at construction
    because solver output is recorded verbatim; check ``definition_ok``.
    """

    template: BarrierTemplate
    coefficients: np.ndarray
    decay: float
    initial_level: float
    unsafe_level: float

    def __post_init__(self):
        q = np.asarray(self.coefficients, dtype=float)
        if q.shape != (self.template.size,):
            raise ValueError(
                f"expected {self.template.size} coefficients, got shape {q.shape}"
            )
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must lie in (0, 1]")
        q.flags.writeable = False
        object.__setattr__(self, "coefficients", q)

    @property
    def definition_ok(self) -> bool:
        separated = self.unsafe_level > self.initial_level
        return separated and (self.decay == 1.0 or self.unsafe_level >= 0.0)

    def evaluate(self, states: np.ndarray) -> np.ndarray:
        """Barrier values; a single state yields a scalar."""
        single = np.asarray(states).ndim <= 1
        values = self.template.basis_matrix(states) @ self.coefficients
        return float(values[0]) if single else values

    def to_dict(self) -> dict:
        return {
            "template": self.template.to_dict(),
            "coefficients": self.coefficients.tolist(),
            "decay": self.decay,
            "initial_level": self.initial_level,
            "unsafe_level": self.unsafe_level,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BarrierCertificate":
        return cls(
            template=BarrierTemplate.from_dict(data["template"]),
            coefficients=np.asarray(data["coefficients"], dtype=float),
            decay=float(data["decay"]),
            initial_level=float(data["initial_level"]),
            unsafe_level=float(data["unsafe_level"]),
        )


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Affine rows ``rows @ d + offsets <= slack`` over the decision vector.

    The pinned :data:`INITIAL_LEVEL` is folded into the offsets, so the
    decision vector is ``[unsafe_level, coefficients...]``.  ``rows`` and
    ``offsets`` are one read-only stack, the solver's input as is.
    ``family_sizes`` holds the row count of each of :data:`FAMILIES`, whose
    rows lie in that order, one block after another.
    """

    template: BarrierTemplate
    decay: float
    rows: np.ndarray
    offsets: np.ndarray
    family_sizes: Tuple[int, int, int, int, int]

    def __post_init__(self):
        self.rows.flags.writeable = False
        self.offsets.flags.writeable = False

    @property
    def decision_size(self) -> int:
        """Width of the decision vector: the unsafe level plus the coefficients."""
        return 1 + self.template.size

    @property
    def counts(self) -> dict:
        """Constraint samples per sample family (initial, unsafe, flow)."""
        return dict(zip(FAMILIES[:3], self.family_sizes))

    def family_counts(self, indices: np.ndarray) -> dict:
        """Rows per family among ``indices``, positions in the stack; every family is a key."""
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self.offsets)):
            raise IndexError("row index outside the constraint stack")
        family = np.searchsorted(np.cumsum(self.family_sizes), indices, side="right")
        return dict(zip(FAMILIES, np.bincount(family, minlength=len(FAMILIES)).tolist()))

    def certificate_from_decision(self, decision: np.ndarray) -> BarrierCertificate:
        d = np.asarray(decision, dtype=float)
        return BarrierCertificate(
            template=self.template,
            coefficients=d[1:],
            decay=self.decay,
            initial_level=INITIAL_LEVEL,
            unsafe_level=float(d[0]),
        )


def _require_inside(
    samples: np.ndarray, region: Optional[RegionBox], label: str
) -> None:
    if region is None or samples.size == 0:
        return
    ok = region.contains(samples, rtol=1e-12)
    if not np.all(ok):
        first = int(np.nonzero(~ok)[0][0])
        raise RegionViolationError(
            f"{label} sample row {first} lies outside its declared region: {samples[first]}"
        )


def assemble(
    template: BarrierTemplate,
    decay: float,
    data: Dataset,
    initial_samples: np.ndarray,
    unsafe_samples: np.ndarray,
    domain: Optional[RegionBox] = None,
    initial_region: Optional[RegionBox] = None,
    unsafe_region: Optional[RegionBox] = None,
    coeff_bound: float = DEFAULT_COEFF_BOUND,
) -> ConstraintSystem:
    """Build the scenario constraint system for one dataset.

    ``initial_samples`` and ``unsafe_samples`` are deterministic covers of
    their regions; the recorded pairs in ``data`` feed the flow rows only.
    When regions are passed, every sample is validated against them.
    ``coeff_bound`` (> 0) bounds every decision entry in magnitude through
    the symmetric bound rows.
    """
    if not (0.0 < decay <= 1.0):
        raise ValueError("decay must lie in (0, 1]")
    if not coeff_bound > 0:
        raise ValueError("coeff_bound must be positive")
    if template.dimension != data.dimension:
        raise ValueError("template and dataset dimensions differ")

    x0 = np.atleast_2d(np.asarray(initial_samples, dtype=float))
    xu = np.atleast_2d(np.asarray(unsafe_samples, dtype=float))
    if x0.size == 0:
        x0 = x0.reshape(0, template.dimension)
    if xu.size == 0:
        xu = xu.reshape(0, template.dimension)
        warnings.warn("assembling with zero unsafe samples", stacklevel=2)
    if x0.size == 0:
        warnings.warn("assembling with zero initial samples", stacklevel=2)

    _require_inside(data.states, domain, "flow")
    _require_inside(x0, initial_region, "initial")
    _require_inside(xu, unsafe_region, "unsafe")

    width = 1 + template.size
    family_sizes = (len(x0), len(xu), data.count, 2 * width, 1)
    samples = sum(family_sizes[:3])
    rows = np.zeros((sum(family_sizes), width))
    offsets = np.zeros(len(rows))
    initial = slice(0, len(x0))
    unsafe = slice(initial.stop, initial.stop + len(xu))
    flow = slice(unsafe.stop, samples)

    if len(x0):
        rows[initial, 1:] = template.basis_matrix(x0)
    offsets[initial] = -INITIAL_LEVEL

    rows[unsafe, 0] = 1.0
    if len(xu):
        np.negative(template.basis_matrix(xu), out=rows[unsafe, 1:])

    if data.count:
        discounted = template.basis_matrix(data.states)
        discounted *= decay
        np.subtract(template.basis_matrix(data.successors), discounted, out=rows[flow, 1:])

    # each decision entry gets a +e_j and a -e_j row, then the gap row closes the stack
    bounds = rows[samples:-1]
    bounds[0::2] = np.eye(width)
    bounds[1::2] = -np.eye(width)
    offsets[samples:-1] = -coeff_bound
    rows[-1, 0] = -1.0
    offsets[-1] = INITIAL_LEVEL

    return ConstraintSystem(
        template=template,
        decay=decay,
        rows=rows,
        offsets=offsets,
        family_sizes=family_sizes,
    )


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case constraint residuals of a certificate against data.

    Each entry is the maximum row value of its family (``-inf`` when the
    family is empty); the certificate passes at slack level ``s`` when every
    residual is at most ``s`` within the stored tolerance.
    """

    initial_max: float
    unsafe_max: float
    flow_max: float
    definition_ok: bool
    tolerance: float

    @property
    def worst(self) -> float:
        return max(self.initial_max, self.unsafe_max, self.flow_max)

    def passes_at(self, slack: float) -> bool:
        return self.worst <= slack + self.tolerance

    def to_dict(self) -> dict:
        return asdict(self)


class SampleValues(NamedTuple):
    """A certificate on recorded pairs, one entry per pair.

    ``barrier`` is ``B(x)`` and ``flow`` is ``B(successor) - decay * B(x)``.
    """

    barrier: np.ndarray
    flow: np.ndarray


def sample_values(certificate: BarrierCertificate, data: Dataset) -> SampleValues:
    """Evaluate a certificate once on a dataset's states and successors.

    The residual audit and the Lipschitz estimators both read the result, so
    a run evaluates the barrier on its retained pairs exactly twice.
    """
    if certificate.template.dimension != data.dimension:
        raise ModelMismatchError("certificate and dataset dimensions differ")
    barrier = certificate.evaluate(data.states)
    flow = certificate.evaluate(data.successors) - certificate.decay * barrier
    return SampleValues(barrier, flow)


def check_certificate(
    certificate: BarrierCertificate,
    tolerance: float,
    values: SampleValues,
    initial_samples: np.ndarray,
    unsafe_samples: np.ndarray,
) -> ResidualReport:
    """Evaluate all three residual families for a fitted certificate.

    The flow family is read from ``values``, the certificate's
    :func:`sample_values` on the recorded pairs.
    """
    x0 = np.atleast_2d(np.asarray(initial_samples, dtype=float))
    xu = np.atleast_2d(np.asarray(unsafe_samples, dtype=float))

    def group_max(family: np.ndarray) -> float:
        return float(family.max()) if family.size else float("-inf")

    initial_max = group_max(
        certificate.evaluate(x0) - certificate.initial_level if x0.size else np.empty(0)
    )
    unsafe_max = group_max(
        certificate.unsafe_level - certificate.evaluate(xu) if xu.size else np.empty(0)
    )
    return ResidualReport(
        initial_max=initial_max,
        unsafe_max=unsafe_max,
        flow_max=group_max(values.flow),
        definition_ok=certificate.definition_ok,
        tolerance=tolerance,
    )
