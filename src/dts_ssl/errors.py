"""Exception types shared across the package."""


class DtsError(Exception):
    """Base class for all package errors."""


class ValidationError(DtsError):
    """An argument or configuration value violates its contract."""


def require_all(checks) -> None:
    """Raise one ValidationError naming every failed ``(ok, message)`` check."""
    problems = [msg for ok, msg in checks if not ok]
    if problems:
        raise ValidationError("; ".join(problems))


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
