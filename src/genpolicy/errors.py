"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: config errors -> 2, io/format
errors -> 3, numeric divergence -> 4.
"""

import struct
from contextlib import contextmanager


class ConfigError(ValueError):
    """Bad or missing configuration (unknown key, unparseable value)."""


class DataFormatError(ValueError):
    """Malformed dataset or checkpoint file."""


@contextmanager
def data_format_errors(where: str):
    """Report any parse failure inside the block as a ``DataFormatError``.

    A truncated or garbled file fails in whatever decoder meets it first
    (JSON, UTF-8, struct, a short numpy buffer, a missing header key, a
    header value of the wrong type); all of them mean the same thing.
    """
    try:
        yield
    except DataFormatError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError, struct.error) as exc:
        raise DataFormatError(f"{where}: malformed file ({type(exc).__name__}: {exc})") from exc


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared in a tensor operation or gradient."""


class NumericDomainError(ValueError):
    """A schedule or conversion was evaluated outside its valid domain."""


class UnsupportedKindError(ValueError):
    """Operation not defined for this path-schedule kind."""


class IntegrationDivergedError(NonFiniteError):
    """ODE state became non-finite; carries the offending step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"integration diverged at step {step}")


class TrainingDivergedError(NonFiniteError):
    """A training loss became non-finite."""
