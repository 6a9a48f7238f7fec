"""Semantic exception hierarchy shared by all scoremech modules, and the one
reader of JSON input.

Public functions never raise bare ValueError/ArithmeticError; they raise one
of the classes below so callers (and the CLI exit-code mapping) can tell
contract violations apart from numeric trouble and from inconsistent inputs.

Configs and trade logs read every field through ``_field`` with one of the
casts below, so each typing rule is written once and every refused field
is named with the path of its record.
"""

from __future__ import annotations

import sys


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


# The precisions a model, a market prior or a classify grid may hold; a
# model's prior precision tau_c may also be 0. Within this range every
# analytic quantity agrees with a 60-digit evaluation to 1e-9 relative (the
# test suite checks it). Beyond it float64 loses them: at precisions near
# 1e-227 the log rule's k_min read 0.951 against an exact 0.249.
_MIN_PRECISION, _MAX_PRECISION = 1e-100, 1e100


def _field(record: dict, key: str, where: str, cast, default=None):
    """``cast(record[key])``, or ``default`` when the key is absent and a
    default is given. A missing field, or a value that ``cast`` refuses
    with TypeError or ValueError, raises ValidationError naming the field
    after ``where``, the path of ``record`` (none when empty)."""
    prefix = f"{where}: " if where else ""
    if key not in record:
        if default is None:
            raise ValidationError(f"{prefix}field {key!r} is missing")
        return default
    try:
        return cast(record[key])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{prefix}field {key!r}: {exc}") from exc


def _is_real(value) -> bool:
    """An int or float, not a bool, that a finite float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _json_int(value) -> int:
    """``value`` if it is a JSON integer (not a float, string or boolean)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be a JSON integer, not {value!r}")
    return value


def _real(value):
    """``value`` if it is a JSON number that a finite float holds (not a
    boolean or a string)."""
    if not _is_real(value):
        raise TypeError(f"must be a finite number, not {value!r}")
    return value


def _precision(value, zero_ok: bool = False):
    """``value`` if it is a JSON number in [``_MIN_PRECISION``,
    ``_MAX_PRECISION``], or 0 when ``zero_ok``."""
    if not (_is_real(value) and (
            _MIN_PRECISION <= value <= _MAX_PRECISION or (zero_ok and value == 0))):
        raise ValueError(f"must be {'0 or ' if zero_ok else ''}a number in "
                         f"[{_MIN_PRECISION!r}, {_MAX_PRECISION!r}], not {value!r}")
    return value


def _finite_list(value) -> tuple[float, ...]:
    """``value`` as floats if it is a non-empty JSON array of finite numbers."""
    if not (isinstance(value, list) and value):
        raise TypeError("must be a non-empty list of numbers")
    if not all(_is_real(v) for v in value):
        raise ValueError("entries must be finite numbers")
    return tuple(float(v) for v in value)


def _object(value) -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise TypeError(f"must be a JSON object, not {type(value).__name__}")
    return value


def _text(value) -> str:
    """``value`` if it is a JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"must be a string, not {value!r}")
    return value
