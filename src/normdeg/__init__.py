"""Exact normality-degree computations on finite group subgroup lattices."""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    ConstraintError,
    NormdegError,
    SieveExhaustedError,
    SpecParseError,
)
from .numtheory import format_ratio, parse_ratio

__all__ = [
    "__version__",
    "CapExceededError",
    "ConstraintError",
    "NormdegError",
    "SieveExhaustedError",
    "SpecParseError",
    "format_ratio",
    "parse_ratio",
]
