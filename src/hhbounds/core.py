"""Shared value types, exceptions and float helpers used across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Raised when an expression is evaluated outside its domain."""


class ParseError(ValueError):
    """Syntax or naming error in an expression string.

    Carries the 0-based byte offset of the offending token in
    ``position``; the offset is also embedded in the message.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class BudgetError(RuntimeError):
    """Raised when an adaptive routine exceeds its evaluation budget."""


@dataclass(frozen=True)
class Interval:
    """Closed integration domain [a, b] with a < b, both inside (-2^1023, 2^1023).

    Any two floats inside that range have a finite sum and difference, so
    no midpoint, quarter point, quadrature or Chebyshev node, or panel
    length on the interval leaves the float range.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not max(abs(self.a), abs(self.b)) < 2.0 ** 1023:
            raise ValueError(
                f"interval endpoints must lie inside (-2^1023, 2^1023), got [{self.a}, {self.b}]"
            )
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Enclosure:
    """Certified bracket [lower, upper] around a real quantity.

    Construction rejects grossly inverted pairs; a relative slack of
    1e-12 absorbs harmless rounding in degenerate (zero width) cases.
    """

    lower: float
    upper: float

    def __post_init__(self):
        scale = max(1.0, abs(self.lower), abs(self.upper))
        if not self.lower <= self.upper + 1e-12 * scale:
            raise ValueError(f"enclosure inverted: lower={self.lower} > upper={self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack

    def holds(self, value: float, magnitude: float, tol: float = 0.0) -> bool:
        """The one containment rule: to tol + 1e-13 * the size of the terms value came from."""
        return self.contains(value, tol + 1e-13 * magnitude)


@dataclass(frozen=True)
class WeightPair:
    """Endpoint/midpoint weights (w_end, w_mid) with 2*w_end + w_mid = 1.

    The weighted combination w_end*(f(a)+f(b)) + w_mid*f(mid) bounds the
    mean of a convex f from above only for w_end in [1/4, 1/2]; outside
    that range the pair stays constructible (counterexample probes need
    negative weights) and `upper_bound_valid` reports the status.
    """

    endpoint_weight: float
    midpoint_weight: float

    def __post_init__(self):
        if abs(2.0 * self.endpoint_weight + self.midpoint_weight - 1.0) > 1e-12:
            raise ValueError("weights must satisfy 2*endpoint_weight + midpoint_weight = 1")

    @classmethod
    def from_endpoint(cls, endpoint_weight: float) -> "WeightPair":
        return cls(endpoint_weight, 1.0 - 2.0 * endpoint_weight)

    @property
    def upper_bound_valid(self) -> bool:
        return 0.25 - 1e-12 <= self.endpoint_weight <= 0.5 + 1e-12


def ldexp_or_inf(x: float, e: int) -> float:
    """x * 2^e rounded once, and +-inf past the float range as a product is."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)
