"""Barrier certificates, their monomial basis, and scenario constraints.

A certificate ``B(x)`` of degree ``d`` is a linear combination of the
monomials ``x^d, ..., x, 1`` of a scalar state, highest power first, so its
coefficient count fixes ``d``; the functions here take the degree as a plain
integer.  :func:`basis_matrix` builds every power by repeated multiplication
(``x``, ``x*x``, ...), with no floating-point ``pow``; :func:`bernstein_rows`
reads the powers of a region's two ends from it.
Safety is encoded by three families of affine constraints on the stacked
decision vector ``[unsafe_level, coefficients...]``:

* initial rows:  ``b_k - initial_level           <= slack``  per Bernstein coefficient on the initial interval,
* unsafe rows:   ``unsafe_level - b_k            <= slack``  per Bernstein coefficient on the unsafe interval,
* flow rows:     ``B(successor) - decay * B(x)   <= slack``  on recorded pairs.

The two region families hold on the whole region, not only at sample points.
On an interval ``[a, a + h]`` write ``x = a + h t`` with ``t`` in ``[0, 1]``.
``B`` is then a combination ``sum_k b_k C(d, k) t^k (1 - t)^(d - k)`` of
Bernstein polynomials.  Those are
non-negative and sum to one on ``[0, 1]``, so every value of ``B`` on the
interval is a convex combination of the ``b_k``: ``min b_k <= B(x) <= max
b_k`` (Farouki, "The Bernstein polynomial basis: a centennial
retrospective", CAGD 2012).  Each ``b_k`` is linear in the barrier's
coefficients (:func:`bernstein_rows`), so ``max b_k <= initial_level`` is
``d + 1`` affine rows and implies ``B <= initial_level`` on the entire
initial interval, and likewise for the unsafe interval.  The end
coefficients are ``B`` at the interval's ends, so the enclosure is tight
wherever ``B`` peaks at an end.

``initial_level`` is the fixed small positive constant :data:`INITIAL_LEVEL`
rather than a decision entry.  Left free, it only ever adds a translation
degree of freedom: the optimiser shifts the whole barrier downward, parking
both levels far below zero where the decay chain makes the certificate
vacuous (see :class:`BarrierCertificate`).  Pinning it removes that freedom
and, together with the level-gap row, keeps every negative-slack solution
valid by construction.

Every row is an affine function of the decision vector that must stay below
the shared slack variable; minimising the slack over all rows is the job of
:mod:`physbc.solver`.  Besides the region and sample rows, every assembled
system holds the same auxiliary rows: ``2 * width`` symmetric bound rows
that keep the polytope bounded, and one level-gap row ``initial_level -
unsafe_level <= slack`` so that a negative optimal slack certifies
``unsafe_level > initial_level`` instead of letting the optimiser collapse
the separation.  The rows come in the order of :data:`FAMILIES`, so a row's
family follows from its position and the per-family row counts alone.  A
flow row ``[0, y^d - decay x^d, ..., y - decay x, 1 - decay]`` varies in its
``d`` middle entries only, so :func:`assemble` writes the region, bound and
gap rows into one small dense block, the head, and keeps just those columns
of the flow rows after it: a :class:`physbc.solver.RowSystem`, with no ``N x
(d + 2)`` stack.

After the solve, :func:`sample_values` evaluates the flow expression once on
the recorded pairs; the residual audit (:func:`check_certificate`) and the
Lipschitz estimators read those values instead of evaluating it again.
Everything the audit computes is elementwise arithmetic in a fixed order,
with no BLAS call: :meth:`BarrierCertificate.evaluate` runs Horner's rule,
and :func:`check_certificate` sums the Bernstein values column by column,
left to right.  So each value is the same on any BLAS kernel and any split
of the pairs, and :func:`sample_values` bounds its rounding error.

Full-length arrays, those with a row per pair: :func:`assemble` makes the
flow columns and nothing else; it writes them ``_POWER_ROWS`` pairs at a
time, from two power columns of that length that each block reuses.
:func:`sample_values` holds two value columns and no basis matrix; Horner's
rule works in place in the column it returns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb
from numbers import Integral, Real
from typing import Tuple

import numpy as np

from .errors import PhysbcError
from .models import RegionBox, real_array
from .sampling import Dataset
from .solver import RowSystem

# row families, in row order: the dense ones (the two region families and the
# auxiliary rows), then the flow samples
FAMILIES = ("initial", "unsafe", "bound", "gap", "flow")

DEFAULT_COEFF_BOUND = 100.0
INITIAL_LEVEL = 1e-4  # the pinned barrier level on the initial set
RESIDUAL_TOLERANCE = 1e-7  # the residual audit's allowance above the slack

# Pairs whose powers assemble holds at a time while it writes the flow columns.
_POWER_ROWS = 8192


def _degree(degree) -> int:
    """``degree`` as an int; numpy's integers count, while 2.7, 2.0, "2" and true
    are refused, not truncated or cast."""
    if isinstance(degree, bool) or not isinstance(degree, Integral) or degree < 0:
        raise ValueError(f"template degree must be a non-negative integer, got {degree!r}")
    return int(degree)


def basis_matrix(states: np.ndarray, degree: int) -> np.ndarray:
    """Every monomial up to ``degree`` at a batch of states: ``(N,) -> (N, degree + 1)``.

    Column ``j`` holds ``x^(degree - j)``.  Each power ``x^e`` is ``x^(e - 1) *
    x``, written straight into its column.  The last column, ``x^0``, is
    exactly 1.0, as ``x**0`` is, also for inf and nan states.
    """
    d = _degree(degree)
    x = np.asarray(states, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected (N,) states, got {x.shape}")
    out = np.empty((x.size, d + 1))
    out[:, d] = 1.0
    if d:
        out[:, d - 1] = x
    for j in range(d - 2, -1, -1):
        np.multiply(out[:, j + 1], x, out=out[:, j])
    return out


@dataclass(frozen=True, eq=False)
class BarrierCertificate:
    """A fitted barrier: its coefficients, highest power first, plus its level structure.

    The coefficients are those of ``x^d, ..., x, 1``, so their count fixes
    the degree ``d``.  ``decay`` is the multiplicative decrease factor
    required along the flow, in (0, 1].  A certificate is only meaningful
    when ``unsafe_level`` strictly exceeds ``initial_level`` and, for ``decay
    < 1``, is itself non-negative: starting below a negative
    ``initial_level``, the chain ``B(x_k) <= decay^k * B(x_0)`` climbs towards
    zero and would cross any negative ``unsafe_level``.  Validity is not
    enforced at construction because solver output is recorded verbatim;
    check ``definition_ok``.
    """

    coefficients: np.ndarray
    decay: float
    initial_level: float
    unsafe_level: float

    def __post_init__(self):
        q = np.asarray(self.coefficients, dtype=float)
        if q.ndim != 1 or not q.size:
            raise ValueError(f"expected a non-empty (N,) array of coefficients, got shape"
                             f" {q.shape}")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must lie in (0, 1]")
        q.flags.writeable = False
        object.__setattr__(self, "coefficients", q)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    @property
    def definition_ok(self) -> bool:
        separated = self.unsafe_level > self.initial_level
        return separated and (self.decay == 1.0 or self.unsafe_level >= 0.0)

    def evaluate(self, states):
        """Barrier values at a batch ``(N,)``; a single state yields a float.

        Horner's rule, elementwise and in place.  With ``c_0, ..., c_d`` the
        coefficients, highest power first: ``v = c_0 * x``, then ``v += c_j;
        v *= x`` for ``j = 1, ..., d - 1``, and last ``v += c_d``; at degree
        0 every value is ``c_0``.  Each value is those ``2 d`` correctly
        rounded operations on its own state, in that order, whatever the
        batch.  Barring underflow and overflow, the computed value is
        within ``gamma_2d * P(|x|)`` of the exact ``B(x)``, where ``P(t) =
        sum_j |c_j| t^(d - j)``, ``gamma_n = n u / (1 - n u)`` and ``u =
        2^-53`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., section 5.1).
        """
        x = np.atleast_1d(np.asarray(states, dtype=float))
        if x.ndim != 1:
            raise ValueError(f"expected (N,) states, got {x.shape}")
        c = self.coefficients.tolist()
        if len(c) == 1:
            values = np.full(x.shape, c[0])
        else:
            values = np.multiply(x, c[0])
            for cj in c[1:-1]:
                values += cj
                values *= x
            values += c[-1]
        return float(values[0]) if np.ndim(states) == 0 else values

    def to_dict(self) -> dict:
        return {
            # the JSON form keeps one exponent list per monomial: [[2], [1], [0]]
            "template": {"exponents": [[e] for e in range(self.degree, -1, -1)]},
            "coefficients": self.coefficients.tolist(),
            "decay": self.decay,
            "initial_level": self.initial_level,
            "unsafe_level": self.unsafe_level,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BarrierCertificate":
        """Inverse of :meth:`to_dict`; every number must be a JSON number, not a
        string or a boolean.  A monomial over any number of axes but one, an
        exponent that is not a JSON integer, any exponent list but ``[[d], ...,
        [0]]`` and a coefficient count other than the exponents' are refused."""
        levels = {}
        for key in ("decay", "initial_level", "unsafe_level"):
            value = data[key]
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"certificate {key} must be a real number, got {value!r}")
            levels[key] = float(value)
        rows = data["template"]["exponents"]
        for row in rows:
            if len(row) != 1:
                raise ValueError(f"template must be one-dimensional, got {len(row)} axes")
        exponents = [row[0] for row in rows]
        for e in exponents:
            if isinstance(e, bool) or not isinstance(e, Integral):
                raise TypeError(f"template exponents must be integers, got {e!r}")
        if not exponents or exponents != list(range(len(exponents) - 1, -1, -1)):
            raise ValueError("template exponents must be every power from the degree down"
                             f" to 0, [[d], ..., [1], [0]], got {rows}")
        coefficients = real_array(data["coefficients"], "certificate coefficients")
        if coefficients.shape != (len(exponents),):
            raise ValueError(f"expected {len(exponents)} coefficients, got shape"
                             f" {coefficients.shape}")
        return cls(coefficients, **levels)


@dataclass(frozen=True, eq=False)
class ConstraintSystem(RowSystem):
    """Affine rows ``a_i . d + b_i <= slack`` over the decision vector.

    The pinned :data:`INITIAL_LEVEL` is folded into the offsets, so the
    decision vector is ``[unsafe_level, coefficients...]``.  ``head`` holds
    the initial, unsafe, bound and gap rows, and ``flow`` column ``j`` is
    ``y^(d - j) - decay x^(d - j)``; every array is read-only, the solver's
    input as is.  ``family_sizes`` holds the row count of each of
    :data:`FAMILIES`, whose rows lie in that order.
    """

    decay: float
    family_sizes: Tuple[int, int, int, int, int]

    def __post_init__(self):
        for array in (self.head, self.head_offsets, self.flow):
            array.flags.writeable = False

    @property
    def counts(self) -> dict:
        """Rows per region or sample family (initial, unsafe, flow)."""
        sizes = dict(zip(FAMILIES, self.family_sizes))
        return {family: sizes[family] for family in ("initial", "unsafe", "flow")}

    def family_counts(self, indices: np.ndarray) -> dict:
        """Rows per family among ``indices``, row positions; every family is a key."""
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.count):
            raise IndexError("row index outside the constraint system")
        family = np.searchsorted(np.cumsum(self.family_sizes), indices, side="right")
        return dict(zip(FAMILIES, np.bincount(family, minlength=len(FAMILIES)).tolist()))

    def certificate_from_decision(self, decision: np.ndarray) -> BarrierCertificate:
        d = np.asarray(decision, dtype=float)
        return BarrierCertificate(
            coefficients=d[1:],
            decay=self.decay,
            initial_level=INITIAL_LEVEL,
            unsafe_level=float(d[0]),
        )


def bernstein_rows(degree: int, region: RegionBox) -> np.ndarray:
    """Rows ``R`` such that ``R @ q`` lists the Bernstein coefficients of ``B`` on ``region``.

    ``R`` has ``d + 1`` rows, ``d`` the degree, and its column ``j`` belongs
    to ``x^(d - j)``, as in :func:`basis_matrix`.  On ``[lo, hi]`` the
    coefficient ``k`` of ``x^e`` is the polar form of ``x^e`` at ``k`` copies
    of ``hi`` and ``d - k`` of ``lo``:
    ``sum_j C(k, j) C(d - k, e - j) / C(d, e) * hi^j * lo^(e - j)``, the same
    numbers as expanding ``(lo + (hi - lo) t)^e`` and converting powers of
    ``t`` to the Bernstein basis.  This form needs no ``hi - lo`` and keeps
    the ends exact.  The powers of ``lo`` and ``hi`` are read from
    :func:`basis_matrix` at the two ends, so the first and last rows equal
    the basis matrix there, bit for bit.
    """
    degree = _degree(degree)
    # lo[p] is lo ** p and hi[p] is hi ** p, the basis matrix's columns lowest power first
    lo, hi = basis_matrix(np.array([region.lower, region.upper]), degree)[:, ::-1].tolist()
    table = np.array([
        [sum(comb(k, j) * comb(degree - k, e - j) / comb(degree, e) * hi[j] * lo[e - j]
             for j in range(max(0, e - degree + k), min(k, e) + 1))
         for e in range(degree + 1)]
        for k in range(degree + 1)
    ])
    return table[:, ::-1]  # column e is x^e; the basis's column j is x^(d - j)


def assemble(
    degree: int,
    decay: float,
    data: Dataset,
    initial_region: RegionBox,
    unsafe_region: RegionBox,
    coeff_bound: float = DEFAULT_COEFF_BOUND,
) -> ConstraintSystem:
    """Build the scenario constraint system for one dataset and barrier degree.

    The initial and unsafe rows are the :func:`bernstein_rows` of their
    regions, so they impose both conditions on the whole region; the
    recorded pairs in ``data`` feed the flow rows only, and the
    :class:`Dataset` has already refused any state outside its domain.
    ``coeff_bound`` (> 0) bounds every decision entry in magnitude through
    the symmetric bound rows.  A flow row that is not finite, as when a
    successor's powers overflow, raises :class:`PhysbcError` naming the
    first such state and its successor.

    The flow columns, ``y^e - decay * x^e`` each, are the one full-length
    array this makes.  They are written ``_POWER_ROWS`` pairs at a time:
    each power is the previous one times the state or successor, written
    into one of two reused power columns, so every entry is the same
    operations on its own pair as over all the pairs at once.  Their block
    extremes
    (:attr:`physbc.solver.RowSystem.extremes`), which the solver reads
    too, check every flow row: a nan or an infinity shows in them, so no
    full-length mask is made.
    """
    if not (0.0 < decay <= 1.0):
        raise ValueError("decay must lie in (0, 1]")
    if not coeff_bound > 0:
        raise ValueError("coeff_bound must be positive")

    d = _degree(degree)
    width = 2 + d  # the unsafe level and the d + 1 coefficients
    # the Bernstein rows of both regions, then a +e_j and a -e_j row per
    # decision entry, then the gap row
    regions = 2 * (d + 1)
    head = np.zeros((regions + 2 * width + 1, width))
    head[:d + 1, 1:] = bernstein_rows(d, initial_region)
    head[d + 1:regions, 0] = 1.0
    np.negative(bernstein_rows(d, unsafe_region), out=head[d + 1:regions, 1:])
    head[regions:-1:2] = np.eye(width)
    head[regions + 1:-1:2] = -np.eye(width)
    head[-1, 0] = -1.0
    head_offsets = np.concatenate([np.repeat([-INITIAL_LEVEL, 0.0], d + 1),
                                   np.full(2 * width, -coeff_bound, dtype=float), [INITIAL_LEVEL]])

    # column d - e is y^e - decay * x^e, each power the previous one times the
    # state, written _POWER_ROWS rows at a time from two reused power columns
    flow = np.empty((data.count, d), order="F")
    powers = np.empty((2, min(_POWER_ROWS, data.count)))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below says it all
        for start in range(0, data.count, _POWER_ROWS):
            xs = data.states[start:start + _POWER_ROWS]
            ys = data.successors[start:start + _POWER_ROWS]
            px, py = xs, ys
            for e in range(1, d + 1):
                if e > 1:
                    px = np.multiply(px, xs, out=powers[0, :len(xs)])
                    py = np.multiply(py, ys, out=powers[1, :len(xs)])
                column = flow[start:start + len(xs), d - e]
                np.multiply(px, decay, out=column)
                np.subtract(py, column, out=column)
    system = ConstraintSystem(head, head_offsets, flow, 1.0 - 1.0 * decay, decay,
                              (d + 1, d + 1, 2 * width, 1, data.count))
    first = system.first_non_finite()
    if first >= 0:
        raise PhysbcError(
            f"the flow row of state {float(data.states[first])!r} and successor"
            f" {float(data.successors[first])!r} is not finite at degree {d}")
    return system


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case constraint residuals of a certificate against its regions and data.

    ``initial_max`` and ``unsafe_max`` come from the Bernstein coefficients
    on the regions, so they bound the residual over the whole region;
    ``flow_max`` is the maximum over the recorded pairs (``-inf`` when there
    are none).  The certificate passes at slack level ``s`` when every
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


def sample_values(certificate: BarrierCertificate, data: Dataset) -> np.ndarray:
    """The flow expression ``B(successor) - decay * B(x)``, once per recorded pair.

    The residual audit and the Lipschitz estimators both read the result, so
    a run evaluates the barrier on its retained pairs exactly twice: one
    :meth:`BarrierCertificate.evaluate` over all the successors and one over
    all the states.  The value at a pair ``(x, y)`` is then ``fl(B^(y) -
    fl(decay * B^(x)))``, with ``B^`` Horner's computed value.

    Its rounding error, barring underflow and overflow.  Every correctly
    rounded operation multiplies its exact result by some ``1 + delta``,
    ``|delta| <= u = 2^-53``.  Horner's rule at degree ``d`` gives ``B^(t) =
    sum_j c_j t^(d - j) (1 + theta_j)``, each ``1 + theta_j`` a product of at
    most ``2 d`` such factors (Higham, section 5.1).  The product by
    ``decay`` adds one factor to the terms of ``B^(x)``, and the difference
    one to every term, so the computed value is ``sum_j c_j y^(d - j) (1 +
    theta'_j) - decay * sum_j c_j x^(d - j) (1 + theta''_j)``, with at most
    ``2 d + 1`` factors in each ``1 + theta'_j`` and ``2 d + 2`` in each
    ``1 + theta''_j``.  A product of ``n`` such factors is ``1 + theta`` with
    ``|theta| <= gamma_n = n u / (1 - n u)`` (Higham, lemma 3.1), and
    ``gamma_n`` grows with ``n``.  So the computed value lies within
    ``gamma_(2d+2) * (P(|y|) + decay * P(|x|))`` of the exact flow
    expression, where ``P(t) = sum_j |c_j| t^(d - j)``.
    """
    values = certificate.evaluate(data.successors)
    barrier = certificate.evaluate(data.states)
    barrier *= certificate.decay
    values -= barrier
    return values


def _bernstein_values(certificate: BarrierCertificate, region: RegionBox) -> np.ndarray:
    """The certificate's Bernstein coefficients on ``region``: its
    :func:`bernstein_rows` times its coefficients, summed column by column
    from the left, elementwise."""
    rows = bernstein_rows(certificate.degree, region)
    c = certificate.coefficients.tolist()
    values = rows[:, 0] * c[0]
    for j in range(1, len(c)):
        values += rows[:, j] * c[j]
    return values


def check_certificate(
    certificate: BarrierCertificate,
    flow: np.ndarray,
    initial_region: RegionBox,
    unsafe_region: RegionBox,
) -> ResidualReport:
    """Evaluate all three residual families for a fitted certificate.

    The region families read the certificate's Bernstein coefficients on
    each region, the numbers the assembled rows bound; the flow family is
    read from ``flow``, the certificate's :func:`sample_values` on the
    recorded pairs.  The report allows :data:`RESIDUAL_TOLERANCE` above the
    slack.
    """
    initial = _bernstein_values(certificate, initial_region)
    unsafe = _bernstein_values(certificate, unsafe_region)
    return ResidualReport(
        initial_max=float((initial - certificate.initial_level).max()),
        unsafe_max=float((certificate.unsafe_level - unsafe).max()),
        flow_max=float(flow.max()) if flow.size else float("-inf"),
        definition_ok=certificate.definition_ok,
        tolerance=RESIDUAL_TOLERANCE,
    )
