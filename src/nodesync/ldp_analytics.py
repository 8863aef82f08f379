"""Closed-form tail-decay quantities for the stable request queue.

For Poisson arrivals at rate lam and responses at rate mu > lam, the tail
probability of the supremum backlog decays exponentially with rate
ln(mu/lam) per unit of capacity.  This module evaluates that decay rate,
the resulting failure-rate approximation, and its two inversions: the
minimum capacity and the minimum response rate meeting a failure tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .queue_model import RateParams


@dataclass(frozen=True)
class ToleranceSpec:
    """Upper bound allowed on the response failure rate, in (0, 1]."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"tolerance must be in (0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class DecayPoint:
    """Decay rate i_value at capacity parameter x and rate gap mu - lam."""

    x: float
    rate_gap: float
    i_value: float


def rate_function(x: float, params: RateParams) -> float:
    """Exponential decay rate x * ln(mu/lam) of the backlog tail."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return x * math.log(params.mu / params.lam)


def failure_rate_approx(gamma: float, params: RateParams) -> float:
    """Tail approximation P(sup backlog > gamma) ~ (lam/mu) ** gamma."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return math.exp(-gamma * math.log(params.mu / params.lam))


def effective_capacity(tol: ToleranceSpec, params: RateParams) -> float:
    """Minimum capacity keeping the failure rate at or below the tolerance.
    Subtracting from 0.0 keeps epsilon = 1 at +0.0 rather than -0.0."""
    return (0.0 - math.log(tol.epsilon)) / math.log(params.mu / params.lam)


def effective_rate(tol: ToleranceSpec, gamma: float, lam: float) -> float:
    """Minimum response rate keeping the failure rate at or below the
    tolerance for a given capacity; always at least lam.  A rate beyond the
    float range is invalid input, not an answer."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"arrival rate must be positive and finite, got {lam}")
    try:
        rate = lam * math.exp(-math.log(tol.epsilon) / gamma)
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise ValueError(
            f"the response rate for tolerance {tol.epsilon} at gamma={gamma} overflows a float"
        )
    return rate


def decay_surface(
    x_grid: Sequence[float], gap_grid: Sequence[float], lam: float
) -> list[list[DecayPoint]]:
    """Decay rate over the Cartesian grid of x values and rate gaps.

    Gap zero (mu equal to lam) is admitted here and yields a zero rate; the
    surface is what gets tabulated, not a stable operating point.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"arrival rate must be positive and finite, got {lam}")
    if any(not (math.isfinite(x) and x >= 0) for x in x_grid):
        raise ValueError("x grid entries must be nonnegative and finite")
    if any(not (math.isfinite(gap) and gap >= 0) for gap in gap_grid):
        raise ValueError("rate gap grid entries must be nonnegative and finite")
    if not math.isfinite((lam + max(gap_grid, default=0.0)) / lam):
        raise ValueError(f"rate ratios (lam + gap) / lam overflow a float at lam={lam}")
    surface = []
    for x in x_grid:
        row = [
            DecayPoint(x=x, rate_gap=gap, i_value=x * math.log((lam + gap) / lam))
            for gap in gap_grid
        ]
        surface.append(row)
    return surface
