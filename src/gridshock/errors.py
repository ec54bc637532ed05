"""Exception types shared across the package.

Everything raised deliberately by this package derives from GridShockError,
so callers (and the CLI) can separate domain failures from programming bugs.
"""

from __future__ import annotations


class GridShockError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GridShockError):
    """A data file is syntactically malformed.

    Carries the 1-based line number of the offending row when known, and
    the name of the file when given: `current.csv line 3: message`.
    """

    def __init__(self, message: str, line: int | None = None, file: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if file is not None:
            message = f"{file} {message}" if line is not None else f"{file}: {message}"
        super().__init__(message)
        self.line = line
        self.file = file


class ValidationError(GridShockError):
    """Structurally well-formed input violates a model invariant."""


class NoDemand(ValidationError):
    """A dispatch problem was posed with no positive demand."""


class SingularMatrix(GridShockError):
    """A linear system has no usable pivot (matrix is singular)."""


class NumericalBreakdown(GridShockError):
    """An iterative solver exceeded its iteration budget or lost precision."""


class Unstable(GridShockError):
    """No feasible network state exists even after shedding all demand."""


class MisalignedHours(ValidationError):
    """Two hourly series do not share the same hour axis."""


class SharesNotNormalized(ValidationError):
    """End-use shares for some region do not sum to one."""


class UnbalancedTables(ValidationError):
    """Supply and use tables violate the regional product balance."""


class BaselineMismatch(GridShockError):
    """The cost-minimizing baseline does not reproduce recorded outputs."""


class MissingCosts(GridShockError):
    """A result record has no matching economic cost."""


class ProvenanceMismatch(GridShockError):
    """Stage outputs were not written from the current inputs."""


class DegeneratePeaks(GridShockError):
    """Marginal cost is undefined because all scenarios share one peak demand."""
