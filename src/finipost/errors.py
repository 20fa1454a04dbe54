"""Package-wide error type carrying a stable short code.

Codes are part of the public contract ("empty-sample", "space-mismatch",
"bad-horizon", ...) so callers and the CLI can branch on them without
parsing messages.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["FiniPostError", "config_int", "config_float"]


class FiniPostError(ValueError):
    def __init__(self, code: str, message: str | None = None):
        self.code = code
        super().__init__(message if message is not None else code)


def config_int(value, field: str) -> int:
    """An integral config value: an integer, or a float with no fractional
    part.  Booleans, strings and fractional numbers are config errors."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise FiniPostError("config-error", f"{field} must be an integer, not {value!r}")
    return int(value)


def config_float(value, field: str) -> float:
    """A real config value: a finite integer or float.  Booleans, strings,
    NaN and infinities are config errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise FiniPostError("config-error", f"{field} must be a finite number, not {value!r}")
    return float(value)
