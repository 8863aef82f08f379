"""Round-based simulation of partial nodes pulling from full nodes.

Every full node runs a reflected request queue fed by ambient Poisson
traffic plus the requests routed to it each round; a routed request fails
when the post-arrival backlog exceeds the node's capacity.  A partial node
synchronizes in a round when at least one of its routed requests succeeds.
Full nodes use independent streams, so their failure processes are
independent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .seeding import derive_seed, make_rng
from .queue_model import RateParams, check_sampling_rate, poisson_counts
from .sync_game import GameSpec, solve_ns

# Stream purposes under the master seed; each node or partial then gets its
# own child stream per purpose.
_ARRIVAL_STREAMS = 1
_RESPONSE_STREAMS = 2
_ROUTING_STREAMS = 3


@dataclass(frozen=True)
class CautiousAll:
    """Send a request to every connected full node, every round."""


@dataclass(frozen=True)
class Equilibrium:
    """Sample each round's request profile from the solved equilibrium."""

    spec: GameSpec

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Cumulative profile probabilities of the solved equilibrium.

        Solved on first use, so every run that shares this strategy object
        shares one solve; the array is read-only for the same reason.
        """
        cumulative = np.cumsum(solve_ns(self.spec).distribution.g)
        cumulative.flags.writeable = False
        return cumulative


Strategy = Union[CautiousAll, Equilibrium]


@dataclass(frozen=True)
class FullNode:
    """Ambient traffic rates and response capacity of one full node."""

    params: RateParams
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be nonnegative, got {self.capacity}")
        # Both rates are sampled every round.
        check_sampling_rate(self.params.lam)
        check_sampling_rate(self.params.mu)


@dataclass(frozen=True)
class NetSimConfig:
    full_nodes: tuple[FullNode, ...]
    n_partial: int
    strategy: Strategy
    rounds: int
    master_seed: int

    def __post_init__(self) -> None:
        if len(self.full_nodes) == 0:
            raise ValueError("need at least one full node")
        if len(self.full_nodes) > 63:
            # Request profiles are stored as int64 bit masks, one bit per node.
            raise ValueError(f"at most 63 full nodes are supported, got {len(self.full_nodes)}")
        if self.n_partial < 1:
            raise ValueError(f"need at least one partial node, got {self.n_partial}")
        if self.rounds < 1:
            raise ValueError(f"need at least one round, got {self.rounds}")
        if isinstance(self.strategy, Equilibrium):
            if self.strategy.spec.m != len(self.full_nodes):
                raise ValueError(
                    f"strategy is for m={self.strategy.spec.m} nodes, "
                    f"config has {len(self.full_nodes)}"
                )


@dataclass(frozen=True)
class SyncReport:
    """Empirical outcome of one simulation.

    per_node_failure entries are measured over the rounds in which the node
    received at least one routed request; a node that was never requested
    reports NaN and is left out of the product-form prediction.
    """

    per_node_failure: tuple[float, ...]
    sync_success_rate: float
    predicted_success: float
    rounds_used: int


@dataclass(frozen=True)
class NetRunDetail:
    """SyncReport plus the request/redundancy accounting of one run."""

    report: SyncReport
    total_requests: int
    redundant_responses: int


def _routing_matrix(config: NetSimConfig) -> np.ndarray:
    """Profile index sampled per (partial node, round)."""
    m = len(config.full_nodes)
    if isinstance(config.strategy, CautiousAll):
        return np.full((config.n_partial, config.rounds), (1 << m) - 1, dtype=np.int64)
    cumulative = config.strategy.cumulative
    profiles = np.empty((config.n_partial, config.rounds), dtype=np.int64)
    routing_root = derive_seed(config.master_seed, _ROUTING_STREAMS)
    for j in range(config.n_partial):
        rng = make_rng(derive_seed(routing_root, j))
        u = rng.random(config.rounds)
        profiles[j] = np.minimum(
            np.searchsorted(cumulative, u, side="right"), (1 << m) - 1
        )
    return profiles


def _fail_series(
    backlog_inflow: np.ndarray, responses: np.ndarray, capacity: int
) -> np.ndarray:
    """Per-round overflow flags of one reflected queue, starting empty.

    Round t's requests overflow when the carried backlog plus the round's
    inflow exceeds the capacity.  The carried backlog follows Lindley's
    recursion q_t = max(q_{t-1} + x_t, 0) with x_t = inflow_t - responses_t,
    whose closed form is q_t = S_t - min(0, min_{s<=t} S_s) for the partial
    sums S_t of x (Lindley 1952).
    """
    walk = np.cumsum(backlog_inflow - responses)
    backlog = walk - np.minimum(np.minimum.accumulate(walk), 0)
    carried = np.concatenate(([0], backlog[:-1]))
    return carried + backlog_inflow > capacity


def simulate_detail(config: NetSimConfig) -> NetRunDetail:
    m = len(config.full_nodes)
    rounds = config.rounds
    profiles = _routing_matrix(config)

    # (partial, node, round) routing bits and per-node routed totals
    node_ids = np.arange(m, dtype=np.int64)
    bits = ((profiles[:, None, :] >> node_ids[None, :, None]) & 1).astype(bool)
    routed = bits.sum(axis=0, dtype=np.int64)

    arrival_root = derive_seed(config.master_seed, _ARRIVAL_STREAMS)
    response_root = derive_seed(config.master_seed, _RESPONSE_STREAMS)
    fails = np.empty((m, rounds), dtype=bool)
    for i, node in enumerate(config.full_nodes):
        ambient = poisson_counts(node.params.lam, rounds, make_rng(derive_seed(arrival_root, i)))
        served = poisson_counts(node.params.mu, rounds, make_rng(derive_seed(response_root, i)))
        fails[i] = _fail_series(ambient + routed[i], served, node.capacity)

    successes = bits & ~fails[None, :, :]
    success_counts = successes.sum(axis=1, dtype=np.int64)
    sync_success_rate = float(successes.any(axis=1).mean())

    per_node = []
    predicted = 1.0
    any_measured = False
    for i in range(m):
        requested = routed[i] > 0
        if requested.any():
            p_fail = float(fails[i, requested].mean())
            per_node.append(p_fail)
            predicted *= p_fail
            any_measured = True
        else:
            per_node.append(float("nan"))
    predicted_success = 1.0 - predicted if any_measured else float("nan")

    report = SyncReport(
        per_node_failure=tuple(per_node),
        sync_success_rate=sync_success_rate,
        predicted_success=predicted_success,
        rounds_used=rounds,
    )
    return NetRunDetail(
        report=report,
        total_requests=int(bits.sum(dtype=np.int64)),
        redundant_responses=int(np.maximum(success_counts - 1, 0).sum(dtype=np.int64)),
    )


def run_network_sim(config: NetSimConfig) -> SyncReport:
    """Simulate the configured rounds and report realized and predicted
    synchronization success."""
    return simulate_detail(config).report

