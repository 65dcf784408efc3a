"""Exception types shared across the package.

Two broad families: input problems (bad arguments, malformed or invalid
files) and numerical problems (degenerate data, failed or meaningless
estimation). The CLI maps the first family to exit code 2 and the second
to exit code 3.
"""


class DohazardError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(DohazardError, ValueError):
    """An argument violates a documented precondition."""


class ParseError(DohazardError, ValueError):
    """A file could not be parsed; message carries the line number."""


class ValidationError(DohazardError, ValueError):
    """Parsed content violates a schema or value constraint."""


class NumericalError(DohazardError, RuntimeError):
    """Estimation failed for numerical reasons."""


class DegenerateCovariateError(NumericalError):
    """A covariate has zero sample variance and cannot be fitted."""


class NoEventsError(NumericalError):
    """The dataset contains no events; partial likelihood is undefined."""


class MonotoneLikelihoodError(NumericalError):
    """A coefficient diverged during fitting (separable data)."""


class DegenerateOracleError(NumericalError):
    """A Monte Carlo arm produced no events; the ratio is undefined."""
