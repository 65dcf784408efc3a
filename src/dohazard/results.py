"""Common result container for the causal estimators."""

from __future__ import annotations

from dataclasses import dataclass

RARITY_THRESHOLD = 0.1  # the bound of CausalEstimate.rarity_flag


@dataclass(frozen=True)
class CausalEstimate:
    """One estimated causal quantity with its uncertainty.

    ``rarity_flag`` is True when a cumulative hazard behind the estimate
    exceeds ``RARITY_THRESHOLD`` (0.1), where the hazard-to-probability shortcut is off by more
    than about five percent and the number should be treated as coarse.
    """

    value: float
    std_err: float
    method: str
    rarity_flag: bool = False
