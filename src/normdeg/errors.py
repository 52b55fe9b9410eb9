"""Exception types shared across the package."""

from __future__ import annotations


class NormdegError(Exception):
    """Base class for all package-specific errors."""


class SpecParseError(NormdegError):
    """Raised when a group spec string cannot be parsed.

    `position` is the character offset where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConstraintError(NormdegError):
    """Raised when constructor or formula parameters violate a family constraint."""

    def __init__(self, constraint: str, detail: str = ""):
        msg = constraint if not detail else f"{constraint}: {detail}"
        super().__init__(msg)
        self.constraint = constraint


class CapExceededError(NormdegError):
    """Raised when a group is too large for subgroup enumeration."""

    def __init__(self, order: int, cap: int):
        try:
            text = str(order)
        except ValueError:  # past Python's integer-string digit limit
            text = f"of {order.bit_length()} bits"
        super().__init__(f"group order {text} exceeds enumeration cap {cap}")
        self.order = order
        self.cap = cap


class SieveExhaustedError(NormdegError):
    """Raised when a prime-index request exceeds the extendable sieve bound."""
