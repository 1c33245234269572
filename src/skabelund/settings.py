"""Integer settings read from the environment, and the oracle caps they set.

The CLI and validate_export read the curve-size cap SKABELUND_MAX_S through
max_s; the oracle reads its two brute-force caps through max_elements_cap
and max_closure_m.  A value that is not an integer, or is below its minimum,
raises SettingError.  An element-cap override (run_oracle_suite's
max_elements, the CLI's --max-elements) is held to the same rule as
SKABELUND_MAX_ELEMENTS: an int of at least 0.
"""

from __future__ import annotations

import os

from .curves import Family

DEFAULT_MAX_S = {Family.SUZUKI: 6, Family.REE: 5}
DEFAULT_MAX_ELEMENTS = 400_000
DEFAULT_MAX_CLOSURE_M = 60


class SettingError(ValueError):
    """Raised when an environment setting does not hold a valid value."""


def _at_least(name: str, value: int, minimum: int) -> int:
    if value < minimum:
        raise SettingError(f"{name} must be at least {minimum}, got {value}")
    return value


def env_int(name: str, default: int, minimum: int) -> int:
    """Integer value of environment variable name, at least minimum, or
    default when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise SettingError(f"{name} must be an integer, got {raw!r}") from None
    return _at_least(name, value, minimum)


def max_s(family: Family) -> int:
    """Largest s run without --allow-large-s (env SKABELUND_MAX_S)."""
    return env_int("SKABELUND_MAX_S", DEFAULT_MAX_S[family], minimum=1)


def max_elements_cap(override: int | None = None) -> int:
    """Per-subgroup element-enumeration cap (env SKABELUND_MAX_ELEMENTS), or
    override when given; either must be an int of at least 0."""
    if override is None:
        return env_int("SKABELUND_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS, minimum=0)
    # not isinstance: True is an int, and would cap at one element
    if type(override) is not int:
        raise SettingError(f"max_elements must be an integer, got {override!r}")
    return _at_least("max_elements", override, 0)


def max_closure_m() -> int:
    """Largest m for closure subgroup enumeration (env SKABELUND_MAX_CLOSURE_M)."""
    return env_int("SKABELUND_MAX_CLOSURE_M", DEFAULT_MAX_CLOSURE_M, minimum=0)
