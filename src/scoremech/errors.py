"""Semantic exception hierarchy shared by all scoremech modules.

Public functions never raise bare ValueError/ArithmeticError; they raise one
of the classes below so callers (and the CLI exit-code mapping) can tell
contract violations apart from numeric trouble and from inconsistent inputs.
"""

from __future__ import annotations


class MechanismError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MechanismError, ValueError):
    """Inputs violate a documented precondition (domain, shape, range)."""


class DegenerateCorrelationError(ValidationError):
    """|rho| = 1: the two signals jointly reveal the outcome exactly."""


class NumericError(MechanismError, ArithmeticError):
    """A numeric routine failed to converge or hit an ill-posed point."""


class DiscountIneffectiveError(MechanismError):
    """No finite discount ratio restores prompt truthfulness."""


class LogConsistencyError(MechanismError):
    """A trade log fails verification; `index` is the first offending record."""

    def __init__(self, message: str, index: int):
        super().__init__(f"record {index}: {message}")
        self.index = index
