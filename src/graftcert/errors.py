"""Exception hierarchy shared across the package, and the integer and
finite-number checks the config dataclasses share."""

import dataclasses
import math
import numbers

__all__ = ["GraftcertError", "StructuralError", "DomainError", "UsageError", "FormatError",
           "DivergenceError", "UndecidableRegion", "PipelineError", "require_integers",
           "require_finite"]


class GraftcertError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(GraftcertError):
    """Shapes or layer wiring are inconsistent (e.g. dimension mismatch)."""


class DomainError(GraftcertError):
    """A value is outside the mathematical domain of the operation
    (non-finite input, negative radius, inverted clip range, ...)."""


class UsageError(GraftcertError):
    """The call violates an API precondition (bad neuron id, unknown
    method name, grafting an already-grafted neuron, ...)."""


class FormatError(GraftcertError):
    """A file could not be parsed (bad magic, truncated payload, ...)."""


class DivergenceError(GraftcertError):
    """Training produced a non-finite loss."""


class UndecidableRegion(GraftcertError):
    """The input-splitting oracle hit its resolution limit without
    proving or disproving the property.  Callers running cross-checks
    should treat this as a skip, not a failure."""


class PipelineError(GraftcertError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


def require_integers(**values) -> None:
    """Raise ``UsageError`` naming the first key whose value is not an
    integer (a bool is not one), so that a fractional count fails when the
    config is built, not inside the stage that first uses it."""
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise UsageError(f"{key} must be an integer, got {value!r}")


def require_finite(config) -> None:
    """Raise ``UsageError`` naming the first field of a config dataclass
    annotated ``float`` (or ``float | None``, which may be None) that is
    NaN or infinite, as a JSON config can spell them (``NaN``,
    ``Infinity``)."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("float", "float | None") and value is not None and not math.isfinite(value):
            raise UsageError(f"{f.name} must be finite, got {value!r}")
