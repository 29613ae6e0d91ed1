"""Error taxonomy shared across the package.

Four tiers map onto CLI exit codes: configuration problems (2), input data
problems (3), solver failures (4), output/I-O failures (5). Concrete errors
subclass the tier that owns their exit semantics. The shared input checks
live here too: `is_finite_number` (books and Monte Carlo distributions),
`check_nonnegative` (every pricing and demand quantity) and
`check_book_fields` (both parameter books' common field rule).
"""

from __future__ import annotations

import dataclasses
import math


class FiberPlanError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(FiberPlanError):
    """Scenario configuration is missing, malformed, or inconsistent."""

    exit_code = 2


class DataError(FiberPlanError):
    """Input data violates a structural or semantic precondition."""

    exit_code = 3


class SolverError(FiberPlanError):
    """A network design routine cannot produce a valid result."""

    exit_code = 4


class OutputError(FiberPlanError):
    """An output artifact could not be written."""

    exit_code = 5


def is_finite_number(value: object) -> bool:
    """Whether value is a real, finite int or float (bools are not numbers
    here). The books and Monte Carlo distributions accept only these."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def check_nonnegative(**values: float) -> None:
    """ValueError naming the first of values, in argument order, that is
    below 0 (a nan is not)."""
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def check_book_fields(book: object) -> None:
    """ValueError naming the first field of the dataclass book, in field
    order, that is not a finite number >= 0."""
    for f in dataclasses.fields(book):
        value = getattr(book, f.name)
        if not is_finite_number(value):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        check_nonnegative(**{f.name: value})
