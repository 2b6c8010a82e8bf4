"""Residual reports shared by the verifier modules."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ResidualReport:
    """Outcome of one identity check over a probe or draw set: the largest
    residual, and the largest residual of each sub-identity."""

    max_residual: float = 0.0
    details: dict[str, float] = field(default_factory=dict)

    def merge(self, key: str, value: float):
        self.details[key] = max(self.details.get(key, 0.0), value)
        self.max_residual = max(self.max_residual, value)
