"""Exception types shared across the package, and the checks that raise ValidationError."""

import dataclasses
import numbers
import types
import typing


class DtsError(Exception):
    """Base class for all package errors."""


class ValidationError(DtsError):
    """An argument or configuration value violates its contract; ``problems`` lists each violation."""

    def __init__(self, *problems: str) -> None:
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def require_all(checks) -> None:
    """Raise one ValidationError naming every failed ``(ok, message)`` check."""
    problems = [msg for ok, msg in checks if not ok]
    if problems:
        raise ValidationError(*problems)


def replace_fields(obj, raw: dict, where: str = ""):
    """``obj`` with the fields that ``raw`` names set to its values; a name ``obj`` lacks is refused."""
    unknown = set(raw) - {f.name for f in dataclasses.fields(obj)}
    if unknown:
        raise ValidationError(f"{where}unknown config fields: {sorted(unknown)}")
    return dataclasses.replace(obj, **raw)


def type_checks(obj) -> list:
    """One ``(ok, message)`` check per dataclass field: does the value have its annotated type?

    An integral value is a valid float, a bool is neither; list and tuple
    fields are checked element by element.
    """
    hints = typing.get_type_hints(type(obj))
    checks = []
    for f in dataclasses.fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        name = str(hint) if typing.get_origin(hint) else hint.__name__
        checks.append((_has_type(value, hint), f"{f.name}: expected {name}, got {value!r}"))
    return checks


def _has_type(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, h) for h in args)
    if origin in (tuple, list):
        return isinstance(value, (tuple, list)) and all(_has_type(v, args[0]) for v in value)
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    return isinstance(value, hint)


class CapacityError(DtsError):
    """A split request asks for more examples than a pool contains."""


class GenerationError(DtsError):
    """Synthetic data generation failed (e.g. cluster placement)."""


class ShapeError(DtsError):
    """Array dimensions do not match what an operation requires."""


class StateError(DtsError):
    """An operation was called on an object in the wrong lifecycle state."""


class UndefinedMetricError(DtsError):
    """A metric is undefined for the given inputs (e.g. single-class AUROC)."""


class DivergenceError(DtsError):
    """Training produced a non-finite parameter or loss value."""
