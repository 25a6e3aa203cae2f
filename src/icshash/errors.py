"""Exception hierarchy shared across the toolkit.

Each error class carries the process exit code the command-line driver
maps it to: 2 for usage/configuration problems, 3 for bad data, 4 for
violated internal invariants. Plain ``ValueError`` is used for
programming-level argument errors (shape or domain mismatches) and is
also surfaced as a usage error (exit 2) by the CLI.
"""

import operator


class ToolkitError(Exception):
    exit_code = 1


class CapacityError(ToolkitError):
    """A requested size exceeds what the toolkit supports."""

    exit_code = 2


class ConfigError(ToolkitError):
    """Run configuration is internally inconsistent."""

    exit_code = 2


class DataError(ToolkitError):
    """Dataset content violates a documented constraint."""

    exit_code = 3


class ParseError(DataError):
    """A file could not be parsed; remembers the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EvaluationError(DataError):
    """A metric or statistic is undefined for the given inputs."""


class InternalInvariantError(ToolkitError):
    """A state that the implementation promises can never occur."""

    exit_code = 4


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an int; a ``ValueError`` naming ``name`` when it is
    not an integer (a float such as 2.0 or nan included) or is below
    ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return value
