"""Exception types shared across the package.

Every input the pipeline refuses raises :class:`PhysbcError`, and the CLI
boundary catches only that class: it prints the message as one ``error: …``
line and exits 1.  The message names the kind of failure, so no handler
needs a subclass per kind.  :class:`DatasetParseError` stays apart because
its ``line`` attribute and ``line N:`` message prefix are a format of their
own.
"""


class PhysbcError(Exception):
    """An input or state the package refuses; the message says which and why."""


class DatasetParseError(PhysbcError):
    """A persisted dataset could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
