"""Shared exception types and the budget counter."""

from __future__ import annotations

from dataclasses import dataclass, field


class OrderSizeError(Exception):
    """Base class for package errors."""


class ShapeError(OrderSizeError, ValueError):
    """Density arguments do not match a supported set shape."""


class BudgetExhausted(OrderSizeError):
    """A bounded search ran out of its evaluation budget before completing."""

    def __init__(self, message: str, used: int):
        super().__init__(message)
        self.used = used


class FactorizationError(OrderSizeError):
    """A coloring fails to factor through the claimed lower-arity coloring."""

    def __init__(self, message: str, offending: tuple[int, ...]):
        super().__init__(message)
        self.offending = offending


class VerificationError(OrderSizeError):
    """A result failed its own re-verification: the program is at fault."""


def ensure(ok: bool, what: str) -> None:
    """Raise VerificationError unless the postcondition ``what`` holds.

    Unlike ``assert``, the check still runs under ``python -O``.
    """
    if not ok:
        raise VerificationError(f"postcondition failed: {what}")


def at_least(low: int, **counts: int) -> None:
    """Reject a count below ``low``, which is 0 or 1, with a ValueError."""
    for name, value in counts.items():
        if value < low:
            raise ValueError(f"{name} must be {'positive' if low else 'nonnegative'}, got {value}")


class SearchFailed(OrderSizeError):
    """A constructive search failed; carries a machine-readable reason."""

    def __init__(self, message: str, reason: str = "", detail: dict | None = None):
        super().__init__(message)
        self.reason = reason or message
        self.detail = detail or {}


@dataclass
class Budget:
    """Evaluation budget shared across the stages of a search.

    ``limit=None`` means unlimited, and a negative limit is invalid. ``spend``
    raises once the limit is passed, so callers can tell "absent" from "gave up".
    """

    limit: int | None = None
    used: int = field(default=0)

    def __post_init__(self) -> None:
        if self.limit is not None:
            at_least(0, budget=self.limit)

    def spend(self, amount: int = 1) -> None:
        """Spend ``amount`` units as that many single-unit spends would: the
        one that passes the limit raises, with ``used`` at limit + 1."""
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            self.used = self.limit + 1
            raise BudgetExhausted(f"budget of {self.limit} evaluations exhausted", self.used)
