"""Round-based simulation of partial nodes pulling from full nodes.

Every full node runs a reflected request queue fed by ambient Poisson
traffic plus the requests routed to it each round; a routed request fails
when the post-arrival backlog exceeds the node's capacity.  A partial node
synchronizes in a round when at least one of its routed requests succeeds.
Full nodes use independent streams, so their failure processes are
independent by construction.  The strategies of one rep share each full
node's series: `simulate` draws them once and runs every strategy's routed
requests through the same draw, so their reports are a paired comparison
on common random numbers.  `run_network_sim` is `simulate` for one
configuration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .seeding import derive_seed, fill_streams, make_rng
from .queue_model import RateParams, check_sampling_rate, poisson_counts
from .sync_game import CorrelatedDistribution

# Stream purposes under the master seed; each node or partial then gets its
# own child stream per purpose.
_ARRIVAL_STREAMS = 1
_RESPONSE_STREAMS = 2
_ROUTING_STREAMS = 3

# Cap on the NumPy memory of one rep of `simulate`, which NetSimConfig
# estimates before anything is allocated: per round, for m full nodes,
# n_partial * (10 * m + 24) + 8 * m + 48 bytes.  Per partial node that is
# 10 bytes per full node (request flags, and under an equilibrium strategy
# their int64 decoding) and 24 for routing uniforms, profiles and success
# counts; per full node, 8 for overflow flags and routed sums; and 48 for
# the one full node's traffic series held at a time.  On compare runs (both
# strategies on shared traffic) whose tracemalloc peaks ranged from 0.7 to
# 184 MB, the estimate was 1.06 to 4.1 times the peak.  A larger run would
# not raise MemoryError: the kernel kills the process when it touches the
# pages.
MAX_SIM_BYTES = 2**31


@dataclass(frozen=True)
class CautiousAll:
    """Send a request to every connected full node, every round."""


# Under a CorrelatedDistribution every round's request profile is sampled from it.
Strategy = Union[CautiousAll, CorrelatedDistribution]


@dataclass(frozen=True)
class FullNode:
    """Ambient traffic rates and response capacity of one full node.  The
    capacity is a finite, whole, nonnegative number of requests, stored as
    an int."""

    params: RateParams
    capacity: int

    def __post_init__(self) -> None:
        cap = self.capacity
        whole = isinstance(cap, numbers.Integral) or (math.isfinite(cap) and cap == int(cap))
        if not (whole and cap >= 0):
            raise ValueError(f"capacity must be a nonnegative whole number of requests, got {cap}")
        object.__setattr__(self, "capacity", int(cap))
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
        object.__setattr__(self, "full_nodes", tuple(self.full_nodes))
        if len(self.full_nodes) == 0:
            raise ValueError("need at least one full node")
        if self.n_partial < 1:
            raise ValueError(f"need at least one partial node, got {self.n_partial}")
        if self.rounds < 1:
            raise ValueError(f"need at least one round, got {self.rounds}")
        m = len(self.full_nodes)
        size = self.rounds * (self.n_partial * (10 * m + 24) + 8 * m + 48)
        if size > MAX_SIM_BYTES:
            raise ValueError(
                f"{self.n_partial} partial nodes x {m} full nodes x {self.rounds} rounds "
                f"would take about {size / 2**20:,.0f} MiB of arrays, over the "
                f"{MAX_SIM_BYTES / 2**20:,.0f} MiB cap (MAX_SIM_BYTES)"
            )
        if isinstance(self.strategy, CorrelatedDistribution):
            if self.strategy.m != m:
                raise ValueError(f"strategy is for m={self.strategy.m} nodes, config has {m}")
        elif not isinstance(self.strategy, CautiousAll):
            name = type(self.strategy).__name__
            raise ValueError(f"strategy must be CautiousAll or a CorrelatedDistribution, got {name}")


@dataclass(frozen=True)
class SyncReport:
    """Empirical outcome of one simulation.

    per_node_failure entries are measured over the rounds in which the node
    received at least one routed request; a node that was never requested
    reports NaN and is left out of the product-form prediction.
    total_requests counts every routed request, and redundant_responses
    every successful response beyond the first one a partial node gets in
    a round.
    """

    per_node_failure: tuple[float, ...]
    sync_success_rate: float
    predicted_success: float
    rounds_used: int
    total_requests: int
    redundant_responses: int


def _routing_bits(config: NetSimConfig) -> np.ndarray:
    """(partial, node, round) request flags.  Partial node j samples its profiles
    from child stream j of the routing root; fill_streams sets them in one batch."""
    m = len(config.full_nodes)
    if isinstance(config.strategy, CautiousAll):
        return np.ones((config.n_partial, m, config.rounds), dtype=bool)
    cumulative = np.cumsum(config.strategy.g)
    u = np.empty((config.n_partial, config.rounds))
    fill_streams(derive_seed(config.master_seed, _ROUTING_STREAMS), 0, u)
    profiles = np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)
    return (profiles[:, None, :] & (1 << np.arange(m))[None, :, None]) != 0


def _fail_series(inflow: np.ndarray, responses: np.ndarray, capacity: int) -> np.ndarray:
    """Per-round overflow flags of one reflected queue, starting empty.

    Round t's requests overflow when the carried backlog plus the round's
    inflow exceeds the capacity.  The carried backlog follows Lindley's
    recursion q_t = max(q_{t-1} + x_t, 0) with x_t = inflow_t - responses_t,
    whose closed form is q_t = S_t - min(0, min_{s<=t} S_s) for the partial
    sums S_t of x (Lindley 1952).  The backlog is built in the walk's own
    buffer, which then holds q_{t-1} + inflow_t for every round after the
    first.
    """
    walk = np.subtract(inflow, responses)
    np.cumsum(walk, out=walk)
    floor = np.minimum.accumulate(walk)
    np.minimum(floor, 0, out=floor)
    walk -= floor
    walk[:-1] += inflow[1:]
    fails = np.empty(len(walk), dtype=bool)
    fails[0] = inflow[0] > capacity
    np.greater(walk[:-1], capacity, out=fails[1:])
    return fails


def _report(bits: np.ndarray, routed: np.ndarray, fails: np.ndarray) -> SyncReport:
    """The report of one strategy from its (partial, node, round) request
    flags, their per-node sums and the (node, round) overflow flags."""
    success_counts = (bits & ~fails[None]).sum(axis=1, dtype=np.int64)
    requested = routed > 0
    with np.errstate(invalid="ignore"):  # a never-requested node reports 0/0 = NaN
        per_node = ((fails & requested).sum(axis=1) / requested.sum(axis=1)).tolist()
    measured = [p for p in per_node if not math.isnan(p)]

    return SyncReport(
        per_node_failure=tuple(per_node),
        sync_success_rate=float((success_counts > 0).mean()),
        predicted_success=1.0 - math.prod(measured) if measured else float("nan"),
        rounds_used=fails.shape[1],
        total_requests=int(routed.sum()),
        redundant_responses=int(np.maximum(success_counts - 1, 0).sum(dtype=np.int64)),
    )


def simulate(configs: Sequence[NetSimConfig]) -> list[SyncReport]:
    """Simulate the strategies of one rep on shared full-node traffic.

    The configurations may differ only in their strategy.  Each full node's
    ambient and service series is drawn once and every strategy's routed
    requests join the same draw, so the reports are a paired comparison
    (common random numbers), each equal to the strategy's own run.
    """
    if len({(c.full_nodes, c.n_partial, c.rounds, c.master_seed) for c in configs}) != 1:
        raise ValueError("simulate takes one or more configurations that differ only in strategy")
    first = configs[0]
    rounds = first.rounds
    bits = [_routing_bits(config) for config in configs]
    # int32 sums hold any partial count whose flags fit in memory, and keep a
    # two-strategy rep's peak memory at that of one int64 strategy.
    routed = [flags.sum(axis=0, dtype=np.int32) for flags in bits]

    arrival_root = derive_seed(first.master_seed, _ARRIVAL_STREAMS)
    response_root = derive_seed(first.master_seed, _RESPONSE_STREAMS)
    fails = np.empty((len(configs), len(first.full_nodes), rounds), dtype=bool)
    for i, node in enumerate(first.full_nodes):
        ambient = poisson_counts(node.params.lam, rounds, make_rng(derive_seed(arrival_root, i)))
        served = poisson_counts(node.params.mu, rounds, make_rng(derive_seed(response_root, i)))
        for k, requests in enumerate(routed):
            fails[k, i] = _fail_series(ambient + requests[i], served, node.capacity)

    return [_report(*arrays) for arrays in zip(bits, routed, fails)]


def run_network_sim(config: NetSimConfig) -> SyncReport:
    """Simulate one configuration and report realized and predicted
    synchronization success."""
    return simulate([config])[0]
