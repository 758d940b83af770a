"""Exception types shared across the package.

Every failure that callers are expected to handle gets its own class so
pipelines can react per kind instead of string-matching messages.
"""


class PhysbcError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(PhysbcError):
    """A batch of states is not an ``(N,)`` array, or a system maps a state to a non-finite one."""


class CapacityError(PhysbcError):
    """A requested generation would exceed the configured size limit."""


class NoCoverError(PhysbcError):
    """A covering radius was requested for an empty state set."""


class DatasetParseError(PhysbcError):
    """A persisted dataset could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ModelMismatchError(PhysbcError):
    """Per-sample values and their dataset disagree in size."""


class RegionViolationError(PhysbcError):
    """A constraint sample lies outside its declared region."""


class DegenerateDataError(PhysbcError):
    """Slope estimation found no usable pairs (all states coincide)."""


class DomainError(PhysbcError):
    """An argument is outside the mathematical domain of a function."""


class InsufficientSamplesError(PhysbcError):
    """Too few retained samples for the requested confidence bound."""


class GeometrySaturationError(PhysbcError):
    """A violation level of 1 or more covers the whole domain; no radius exists."""


class SolverInternalError(PhysbcError):
    """The LP backend reported a status that cannot occur for well-formed input."""
