"""Request-strategy model for a partial node facing m full nodes.

Each of the m send decisions is treated as one player of a common-payoff
game: sending to a node costs a fee and shares a reliability-weighted unit
of profit among all senders.  The best correlated equilibrium is found by
maximizing the expected total utility over the equilibrium polytope, which
is a linear program over all 2^m decision profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp_solver
from .lp_solver import LpProblem, LpStatus, Relation, _frozen

MAX_NODES = 12

# Probability below which a profile is not considered part of the support
# when a single decision vector is extracted from a distribution.
SUPPORT_MASS = 1e-6


@dataclass(frozen=True)
class GameSpec:
    """Per-node failure tolerances, profit scalars, and request costs, each
    stored as the spec's own tuple of floats."""

    m: int
    epsilon: tuple[float, ...]
    alpha: tuple[float, ...]
    cost: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_NODES:
            raise ValueError(f"m must be in [1, {MAX_NODES}], got {self.m}")
        for name in ("epsilon", "alpha", "cost"):
            values = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, values)
            if len(values) != self.m:
                raise ValueError(f"{name} must have length m={self.m}, got {len(values)}")
        if any(not 0 < e < 1 for e in self.epsilon):
            raise ValueError(f"failure tolerances must be in (0, 1), got {self.epsilon}")
        if any(not (math.isfinite(a) and a > 0) for a in self.alpha):
            raise ValueError(f"profit scalars must be positive and finite, got {self.alpha}")
        if any(not (math.isfinite(c) and c >= 0) for c in self.cost):
            raise ValueError(f"request costs must be nonnegative and finite, got {self.cost}")

    @classmethod
    def uniform(cls, m: int, epsilon: float, alpha: float, cost: float) -> "GameSpec":
        return cls(m=m, epsilon=(epsilon,) * m, alpha=(alpha,) * m, cost=(cost,) * m)


@dataclass(frozen=True)
class Profile:
    """Send (1) / skip (0) decision for each of the m full nodes."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("a profile needs at least one decision")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"decisions must be 0 or 1, got {self.bits}")

    @property
    def index(self) -> int:
        """Canonical encoding: bit i of the index is the decision for node i."""
        return sum(bit << i for i, bit in enumerate(self.bits))

    @classmethod
    def from_index(cls, index: int, m: int) -> "Profile":
        if not 0 <= index < (1 << m):
            raise ValueError(f"index {index} out of range for m={m}")
        return cls(bits=tuple((index >> i) & 1 for i in range(m)))


@dataclass(frozen=True)
class CorrelatedDistribution:
    """Probability distribution over all 2^m profiles, indexed by encoding.
    `g` is kept as a read-only float64 copy, so changing the caller's array
    after the checks changes nothing here."""

    m: int
    g: np.ndarray

    def __post_init__(self) -> None:
        g = _frozen(self.g, 1)
        object.__setattr__(self, "g", g)
        if g.shape != (1 << self.m,):
            raise ValueError(f"need {1 << self.m} probabilities, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("probabilities must be finite")
        if g.min(initial=0.0) < 0:
            raise ValueError(f"probabilities must be nonnegative, min is {g.min()}")
        if abs(g.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {g.sum()}")

    @classmethod
    def point_mass(cls, profile: Profile) -> "CorrelatedDistribution":
        g = np.zeros(1 << len(profile.bits))
        g[profile.index] = 1.0
        return cls(m=len(profile.bits), g=g)


@dataclass(frozen=True)
class DecisionReport:
    """Solved request strategy plus the headline numbers around it."""

    distribution: CorrelatedDistribution
    objective: float
    marginals: tuple[float, ...]
    chosen_profile: Profile


class CeCheck(NamedTuple):
    ok: bool
    max_violation: float


def _equilibrium_lp(spec: GameSpec) -> LpProblem:
    """The program for the best correlated equilibrium over all 2^m
    profiles, built once per solve; index k = profile k.

    One variable per profile probability; the objective holds the sum of
    the m utilities under each profile.  Row 0 of the (2m + 1, 2^m) matrix
    is normalization (ones, == 1).  Each decision i adds two >= 0 rows, one
    per ordered pair of actions (held, alt): told to play `held`, switching
    to `alt` must not pay in expectation.  Row 1 + 2i (skip) and row 2 + 2i
    (send) hold what node i gains under profile k by keeping its decision
    instead of switching, on the profiles where it plays that decision, and
    0 elsewhere.

    A sender's share is its success weight 1 - epsilon_i over the weight sum
    of all senders; a non-sender earns nothing, so node i's keep gain is its
    utility where it sends and 0.0 minus the utility it would earn by
    sending where it skips.  Weight sums and totals are accumulated node by
    node in ascending order, so every entry carries the same rounding as a
    scalar left-to-right loop over the nodes.
    """
    m = spec.m
    index = np.arange(1 << m)
    weight_sum = np.zeros(1)
    for eps in spec.epsilon:
        weight_sum = np.concatenate([weight_sum, weight_sum + (1.0 - eps)])
    a = np.zeros((2 * m + 1, 1 << m))
    a[0] = 1.0
    total = np.zeros(1 << m)
    with np.errstate(over="ignore"):  # rejected below
        for i in range(m):
            send = (index & (1 << i)) != 0
            utility = a[2 + 2 * i]
            share = (1.0 - spec.epsilon[i]) / weight_sum[send]
            utility[send] = spec.alpha[i] * share - spec.cost[i]
            total += utility
            # The flipped profile of a sender skips, so its entry is 0.0 - 0.0.
            a[1 + 2 * i] = 0.0 - utility[index ^ (1 << i)]
    # A utility lies in [-cost, alpha] and a keep gain is plus or minus one
    # utility, so only the sums over the m nodes can leave the float range.
    if not np.isfinite(total).all():
        raise ValueError("the game's utility totals overflow floats at these profits and costs")
    rhs = np.zeros(2 * m + 1)
    rhs[0] = 1.0
    relations = (Relation.EQ,) + (Relation.GE,) * (2 * m)
    return LpProblem(total, a, relations, rhs)


def is_correlated_equilibrium(
    dist: CorrelatedDistribution, spec: GameSpec, tol: float = 1e-8
) -> CeCheck:
    """Check all 2m deviation constraints; reports the worst violation."""
    if dist.m != spec.m:
        raise ValueError(f"distribution is over m={dist.m} nodes, spec has m={spec.m}")
    return _ce_check(dist.g, _equilibrium_lp(spec), tol)


def _ce_check(g: np.ndarray, lp: LpProblem, tol: float) -> CeCheck:
    # Each row's expectation is summed in profile order (cumsum is sequential).
    lhs = np.cumsum(lp.a[1:] * g, axis=1)[:, -1]
    worst = max(0.0, float(-lhs.min()))
    return CeCheck(ok=worst <= tol, max_violation=worst)


def solve_ns(spec: GameSpec) -> DecisionReport:
    """Best correlated equilibrium of the request game.

    Solves the LP, normalizes the returned distribution, extracts a single
    decision vector, and re-verifies the equilibrium constraints before
    reporting.  The equilibrium polytope of a finite game is never empty,
    so a non-optimal LP status is an internal failure.

    The simplex starts at the best pure-profile equilibrium when one exists:
    its point mass is a vertex of the polytope, with the profile's column
    and the 2m surplus columns as basis, and the optimum is never below it.
    """
    lp = _equilibrium_lp(spec)
    try:
        start = [_best_pure_index(lp)] + list(range(lp.n, lp.n + 2 * spec.m))
    except LookupError:
        start = None
    solution = lp_solver.solve(lp, start=start)
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(
            f"equilibrium program reported {solution.status.value}; "
            "the equilibrium polytope is never empty"
        )
    g = solution.x / solution.x.sum()
    dist = CorrelatedDistribution(m=spec.m, g=g)
    check = _ce_check(g, lp, tol=1e-8)
    if not check.ok:
        raise RuntimeError(
            f"solver output fails the equilibrium check by {check.max_violation}"
        )
    index = np.arange(lp.n)
    marginals = tuple(float(g[(index & (1 << i)) != 0].sum()) for i in range(spec.m))
    # cumsum keeps a plain left-to-right sum in profile order.
    objective = float(np.cumsum(g * lp.objective)[-1])
    return DecisionReport(
        distribution=dist,
        objective=objective,
        marginals=marginals,
        chosen_profile=_extract_profile(g, lp.objective, spec.m),
    )


def _extract_profile(g: np.ndarray, total: np.ndarray, m: int) -> Profile:
    """Single decision vector for a distribution: among support profiles of
    maximum conditional total utility, take the most probable one, then the
    lowest encoding."""
    support = g > SUPPORT_MASS
    candidates = support & (total >= total[support].max() - 1e-9)
    top_mass = g[candidates].max()
    chosen = int(np.flatnonzero(candidates & (g >= top_mass - 1e-12))[0])
    return Profile.from_index(chosen, m)


def best_pure_profile(spec: GameSpec) -> tuple[Profile, float]:
    """Brute-force baseline: the best single profile whose point mass is a
    correlated equilibrium.  The optimum of the LP is at least this good."""
    lp = _equilibrium_lp(spec)
    best = _best_pure_index(lp)
    return Profile.from_index(best, spec.m), float(lp.objective[best])


def _best_pure_index(lp: LpProblem) -> int:
    """Lowest-encoding profile of maximum total among those whose point
    mass passes the equilibrium check (at tolerance 1e-9), i.e. where no
    decision gains more than that by switching away.

    Such a profile always exists, because the request game aggregates.
    With weights w_j = 1 - epsilon_j, decision i's payoff depends only on
    its own bit b_i and on W_-i = sum_{j != i} w_j b_j: a sender earns
    alpha_i w_i / (w_i + W_-i) - c_i, a non-sender 0.  So i sends iff
    W_-i <= w_i (alpha_i / c_i - 1) (always when c_i = 0), and its best
    reply falls as the aggregate grows (strategic substitutes).  Read as actions in
    {0, w_j}, this is a finite game of strategic substitutes with
    aggregation, which always has a pure Nash equilibrium (Dubey, Haimanko
    and Zapechelnyuk, Games Econ. Behav. 2006).  The LookupError below
    therefore cannot fire on exact data.
    """
    # Column k of the deviation rows holds each decision's keep gain under
    # profile k, beside a 0 in the decision's other row.
    stable = np.all(lp.a[1:] >= -1e-9, axis=0)
    if not stable.any():
        raise LookupError("no pure-profile correlated equilibrium exists for this spec")
    return int(np.argmax(np.where(stable, lp.objective, -np.inf)))
