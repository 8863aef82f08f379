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
from typing import NamedTuple, Sequence

import numpy as np

from . import lp_solver
from .lp_solver import Constraint, LpProblem, LpStatus, Relation

MAX_NODES = 12

# Probability below which a profile is not considered part of the support
# when a single decision vector is extracted from a distribution.
SUPPORT_MASS = 1e-6


@dataclass(frozen=True)
class GameSpec:
    """Per-node failure tolerances, profit scalars, and request costs."""

    m: int
    epsilon: tuple[float, ...]
    alpha: tuple[float, ...]
    cost: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_NODES:
            raise ValueError(f"m must be in [1, {MAX_NODES}], got {self.m}")
        for name, values in (("epsilon", self.epsilon), ("alpha", self.alpha), ("cost", self.cost)):
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
    """Probability distribution over all 2^m profiles, indexed by encoding."""

    m: int
    g: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if g.shape != (1 << self.m,):
            raise ValueError(f"need {1 << self.m} probabilities, got shape {g.shape}")
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
    cautious_failure: float


class CeCheck(NamedTuple):
    ok: bool
    max_violation: float


class _Tables(NamedTuple):
    """Everything the game needs about its 2^m profiles, row k = profile k.

    Built once per solve: the LP, the pure-profile start and the equilibrium
    re-check all read from it.  `total` and `rows` go into the LP as they
    are, so both are read-only.
    """

    bits: np.ndarray  # B[k, i]: profile k sends to node i
    total: np.ndarray  # T[k]: sum of the m utilities under profile k
    gains: np.ndarray  # G[k, i]: what decision i gains under k by keeping its action
    rows: np.ndarray  # (2m, 2^m) equilibrium rows, see _deviation_rows


def _tables(spec: GameSpec) -> _Tables:
    """Bit matrix, totals, keep gains and deviation rows for all 2^m profiles.

    A sender's share is its success weight 1 - epsilon_i over the weight sum
    of all senders; a non-sender earns nothing.  Weight sums and totals are
    accumulated node by node in ascending order, so every entry carries the
    same rounding as a scalar left-to-right loop over the nodes.
    """
    m = spec.m
    index = np.arange(1 << m)
    bits = ((index[:, None] >> np.arange(m)) & 1).astype(bool)
    weight_sum = np.zeros(1)
    for eps in spec.epsilon:
        weight_sum = np.concatenate([weight_sum, weight_sum + (1.0 - eps)])
    utility = np.zeros((1 << m, m))
    total = np.zeros(1 << m)
    for i in range(m):
        send = bits[:, i]
        share = (1.0 - spec.epsilon[i]) / weight_sum[send]
        utility[send, i] = spec.alpha[i] * share - spec.cost[i]
        total += utility[:, i]
    gains = _keep_gains(utility)
    rows = _deviation_rows(gains, bits)
    total.flags.writeable = False
    rows.flags.writeable = False
    return _Tables(bits=bits, total=total, gains=gains, rows=rows)


def _keep_gains(utility: np.ndarray) -> np.ndarray:
    """G[k, i] = U[k, i] - U[k ^ (1 << i), i]: what decision i gains under
    profile k by keeping its action instead of switching."""
    n, m = utility.shape
    flipped = np.arange(n)[:, None] ^ (1 << np.arange(m))
    return utility - np.take_along_axis(utility, flipped, axis=0)


def _deviation_rows(gains: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """(2m, 2^m) equilibrium rows: row 2i + held carries decision i's keep
    gain on the profiles where it plays `held`, and 0 elsewhere."""
    gains, sends = gains.T, bits.T
    rows = np.stack([np.where(sends, 0.0, gains), np.where(sends, gains, 0.0)], axis=1)
    return rows.reshape(-1, gains.shape[1])


def cautious_failure(epsilon: Sequence[float]) -> float:
    """Failure probability when requesting from every node: the product of
    the per-node failure tolerances."""
    if len(epsilon) == 0:
        raise ValueError("epsilon must be nonempty")
    if any(not 0 < e < 1 for e in epsilon):
        raise ValueError(f"failure tolerances must be in (0, 1), got {tuple(epsilon)}")
    return math.prod(epsilon)


def build_ns_lp(spec: GameSpec) -> LpProblem:
    """Linear program for the best correlated equilibrium.

    One variable per profile probability; the objective is the expected
    total utility.  Besides normalization, each decision i contributes two
    rows, one per ordered pair of actions (held, alt): conditional on being
    told to play `held`, switching to `alt` must not pay in expectation.
    The objective and the deviation rows are read-only array views of one
    profile table.
    """
    return _ns_lp(_tables(spec))


def _ns_lp(tables: _Tables) -> LpProblem:
    # tables.rows and tables.total are read-only, so the LP keeps them uncopied.
    n = tables.total.shape[0]
    rows = [Constraint(coeffs=np.ones(n), relation=Relation.EQ, rhs=1.0)]
    rows += [Constraint(coeffs=coeffs, relation=Relation.GE, rhs=0.0) for coeffs in tables.rows]
    return LpProblem(n=n, objective=tables.total, constraints=tuple(rows))


def is_correlated_equilibrium(
    dist: CorrelatedDistribution, spec: GameSpec, tol: float = 1e-8
) -> CeCheck:
    """Check all 2m deviation constraints; reports the worst violation."""
    if dist.m != spec.m:
        raise ValueError(f"distribution is over m={dist.m} nodes, spec has m={spec.m}")
    return _ce_check(dist.g, _tables(spec), tol)


def _ce_check(g: np.ndarray, tables: _Tables, tol: float) -> CeCheck:
    # Each row's expectation is summed in profile order (cumsum is sequential).
    lhs = np.cumsum(tables.rows * g, axis=1)[:, -1]
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
    tables = _tables(spec)
    n = tables.total.shape[0]
    try:
        start = [_best_pure_index(tables)] + list(range(n, n + 2 * spec.m))
    except LookupError:
        start = None
    solution = lp_solver.solve(_ns_lp(tables), start=start)
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(
            f"equilibrium program reported {solution.status.value}; "
            "the equilibrium polytope is never empty"
        )
    g = np.clip(np.asarray(solution.x, dtype=float), 0.0, None)
    g /= g.sum()
    dist = CorrelatedDistribution(m=spec.m, g=g)
    check = _ce_check(g, tables, tol=1e-8)
    if not check.ok:
        raise RuntimeError(
            f"solver output fails the equilibrium check by {check.max_violation}"
        )
    marginals = tuple(float(g[tables.bits[:, i]].sum()) for i in range(spec.m))
    # Iterating the array keeps a plain left-to-right sum in profile order.
    objective = float(sum(g * tables.total))
    return DecisionReport(
        distribution=dist,
        objective=objective,
        marginals=marginals,
        chosen_profile=_extract_profile(g, tables),
        cautious_failure=cautious_failure(spec.epsilon),
    )


def _extract_profile(g: np.ndarray, tables: _Tables) -> Profile:
    """Single decision vector for a distribution: among support profiles of
    maximum conditional total utility, take the most probable one, then the
    lowest encoding."""
    support = g > SUPPORT_MASS
    candidates = support & (tables.total >= tables.total[support].max() - 1e-9)
    top_mass = g[candidates].max()
    chosen = int(np.flatnonzero(candidates & (g >= top_mass - 1e-12))[0])
    return Profile.from_index(chosen, tables.bits.shape[1])


def best_pure_profile(spec: GameSpec) -> tuple[Profile, float]:
    """Brute-force baseline: the best single profile whose point mass is a
    correlated equilibrium.  The optimum of the LP is at least this good."""
    tables = _tables(spec)
    best = _best_pure_index(tables)
    return Profile.from_index(best, spec.m), float(tables.total[best])


def _best_pure_index(tables: _Tables) -> int:
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
    stable = np.all(-tables.gains <= 1e-9, axis=1)
    if not stable.any():
        raise LookupError("no pure-profile correlated equilibrium exists for this spec")
    return int(np.argmax(np.where(stable, tables.total, -np.inf)))
