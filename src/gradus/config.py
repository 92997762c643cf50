"""Run configuration shared by the numeric pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    """Knobs for every numeric computation.

    precision          working precision in bits for embeddings and Gram forms
    enumeration_cap    hard cap on the short vectors of each factor's search in
                       roots_of_unity
    seed               seed for the deterministic choice of splitting elements
    """

    precision: int = 192
    enumeration_cap: int = 10**6
    seed: int = 0

    def __post_init__(self):
        if self.precision < 64:
            raise ValueError("precision must be at least 64 bits")
        if self.enumeration_cap < 1:
            raise ValueError("enumeration cap must be at least 1")


DEFAULT_CONFIG = RunConfig()
