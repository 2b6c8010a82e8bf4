"""Residual reports shared by the verifier modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def worst(*residuals: float) -> float:
    """The largest of ``residuals``, or NaN if any of them is NaN.

    ``max`` keeps a NaN only in first place (max(nan, 1.0) is nan, but
    max(1.0, nan) is 1.0), so every fold of residuals goes through here.
    """
    for r in residuals:
        if r != r:  # NaN, the one value unequal to itself
            return math.nan
    return max(residuals)


@dataclass
class ResidualReport:
    """Outcome of one identity check over a probe or draw set: the largest
    residual, and the largest residual of each sub-identity.  A NaN residual
    stays NaN whatever is merged after it."""

    max_residual: float = 0.0
    details: dict[str, float] = field(default_factory=dict)

    def merge(self, key: str, value: float):
        # ``worst`` of two, written out: this runs once per probe and identity
        if value != value:
            self.details[key] = self.max_residual = math.nan
            return
        details = self.details
        old = details.get(key, 0.0)
        # a NaN already held compares false and stays
        details[key] = value if value > old else old
        if value > self.max_residual:
            self.max_residual = value
