"""Round-based simulation of partial nodes pulling from full nodes.

Every full node runs a reflected request queue fed by ambient Poisson
traffic plus the requests routed to it each round; a routed request fails
when the post-arrival backlog exceeds the node's capacity.  A partial node
synchronizes in a round when at least one of its routed requests succeeds.
Full nodes use independent streams, so their failure processes are
independent by construction.  The strategies of one rep share each full
node's traffic: `simulate` draws it once for all of them, from the same
seeds, so their reports are a paired comparison on common random
numbers.  Each full node runs one queue per distinct routed inflow: one
for all the fixed routes that request it (each sends it every partial
node every round), one per drawn route, and none when no strategy can
request it.  `run_network_sim` is `simulate` for one configuration.

`simulate` runs the rounds in chunks of at most _CHUNK, carrying every
stream and queue backlog from one chunk to the next and summing integer
counts, so its memory is flat in the number of rounds and its reports
equal those of one pass.  MAX_SIM_BYTES bounds what one chunk holds:
partial nodes times full nodes, plus 4 KiB per full node.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .seeding import derive_seed, fill_streams, make_rng
from .queue_model import RateParams, _carried_cumsum, _poisson_inverse, check_sampling_rate
from .sync_game import CorrelatedDistribution

# Stream purposes under the master seed; each node or partial then gets its
# own child stream per purpose.
_ARRIVAL_STREAMS = 1
_RESPONSE_STREAMS = 2
_ROUTING_STREAMS = 3

# Rounds simulated at a time; every array of `simulate` spans at most this
# many rounds, so its memory does not grow with the number of rounds.
_CHUNK = 2**15

# Cap on the NumPy memory of one rep of `simulate`, which NetSimConfig
# estimates before anything is allocated (a rep over it would not raise
# MemoryError: the kernel kills the process on touching the pages).  Every
# array spans at most one chunk of min(rounds, _CHUNK) rounds; per round of a
# chunk, for m full nodes, the estimate is
# n_partial * (7 * m + 24) + 8 * m + 48 bytes, plus 4096 per full node.  Per
# partial node that is 7 bytes per full node and 24 for routing uniforms,
# table rows and sync flags; per full node, 8 for routed sums and overflow
# flags; and 48 for the traffic series and the Lindley walks of two queues.
# The request flags of two strategies and the successes counted from them
# take 3 of the 7; the rest was fitted with tracemalloc.  The 4096 bytes
# cover a node's two PCG64 generators (one-round runs of 1,000 to 100,000
# full nodes traced 1,913 bytes per node).  On runs of 1 to 200 partial
# nodes, 1 to 12 full nodes and 2,000 to 98,309 rounds, with one or two
# drawn routes, at rates 3/6 and 40,000/50,000, whose peaks ranged from 0.2
# to 267 MB, the estimate was 1.000 to 3.8 times the peak, closest on one
# partial node at the high rates.  So a run of any length fits once one
# chunk does.  The budget is two drawn routes' flags per _CHUNK rounds;
# `simulate` runs k > 2 drawn routes in chunks of 2 * _CHUNK // k rounds,
# so theirs take no more.  A fixed route stores one flag per full node, but
# the estimate still budgets it, so it is conservative there.
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
        size = min(self.rounds, _CHUNK) * (self.n_partial * (7 * m + 24) + 8 * m + 48) + 4096 * m
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


def _route(strategy: Strategy, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, m) bool table of the profiles that a round can draw, and the
    sorted breaks between them: a round with uniform u sends by row
    searchsorted(breaks, u, "right").  A distribution picks profile
    min(searchsorted(cumsum(g), u, "right"), 2**m - 1) for u in
    [0, 1 - 2**-53], the doubles of random(), which is the search over all
    but the last cumulative value.  It changes only where the sorted
    cumulative sum rises, so those values in (0, 1 - 2**-53] are the breaks.
    It is monotone, so a route whose first and last rows agree is fixed: one
    row and no breaks, like CautiousAll's."""
    if isinstance(strategy, CautiousAll):
        return np.ones((1, m), dtype=bool), np.empty(0)
    cumulative = np.cumsum(strategy.g)
    breaks = cumulative[(np.diff(cumulative, prepend=0.0) > 0.0) & (cumulative <= 1.0 - 2.0**-53)]
    profiles = np.searchsorted(cumulative[:-1], np.append(0.0, breaks), side="right")
    if profiles[0] == profiles[-1]:
        profiles, breaks = profiles[:1], breaks[:0]
    return (profiles[:, None] >> np.arange(m) & 1).astype(bool), breaks


def _routing_bits(config: NetSimConfig, route: tuple, start: int, count: int) -> np.ndarray:
    """(node, partial, round) request flags of the `count` rounds from round
    `start` on, gathered from `route`, _route's table for the config's
    strategy, in one take.  Partial node j draws its uniforms from child
    stream j of the routing root, continued at its `start`-th double;
    fill_streams sets the streams in one batch.  A fixed route draws
    nothing, and no other draw reads the routing streams: its flags are its
    one row, shaped (m, 1, 1), which every partial node sends every round.
    """
    flags, breaks = route
    if not len(breaks):
        return flags.T[..., None]
    u = np.empty((config.n_partial, count))
    fill_streams(derive_seed(config.master_seed, _ROUTING_STREAMS), 0, u, start)
    return np.take(flags.T, np.searchsorted(breaks, u, side="right"), axis=1)


def _fail_series(
    walk: np.ndarray,
    responses: np.ndarray,
    capacity: int,
    backlog: np.ndarray,
    floor: np.ndarray,
    fails: np.ndarray,
) -> None:
    """Per-round overflow flags of reflected queues, one per row of `walk`,
    which holds each queue's per-round inflow; the queues start with
    `backlog` queued requests and share their per-round `responses`.

    Round t's requests overflow when the carried backlog plus the round's
    inflow exceeds the capacity.  The carried backlog follows Lindley's
    recursion q_t = max(q_{t-1} + x_t, 0) from q_{-1} = backlog, with
    x_t = inflow_t - responses_t, whose closed form is q_t = S_t - m_t for
    the partial sums S_t = backlog + x_0 + ... + x_t and their floor
    m_t = min(0, min_{s<=t} S_s) (Lindley 1952).  So round t overflows when
    q_{t-1} + inflow_t = S_t + responses_t - m_{t-1} exceeds the capacity,
    with m_{-1} = 0, and a series split at any round, the second part
    started from the first's end backlog, flags the same rounds as one pass.

    The flags are written to `fails` and the end backlogs q_{n-1} to
    `backlog`; `walk` and `floor` (the same shape) are overwritten, so one
    set of buffers serves every chunk of a run.
    """
    walk -= responses
    _carried_cumsum(walk, backlog)
    np.minimum.accumulate(walk, axis=-1, out=floor)
    np.minimum(floor, 0, out=floor)
    backlog -= floor[..., -1]
    walk += responses
    walk[..., 1:] -= floor[..., :-1]
    np.greater(walk, capacity, out=fails)


class _Totals:
    """Integer counts of one strategy's run, summed chunk by chunk: the
    (partial, round) pairs that synced, the successful responses, the routed
    requests, and per full node the requested rounds and those of them that
    overflowed.  Every count stays below 2**53, so the report's divisions of
    the totals give the floats that means over the whole run would."""

    def __init__(self, m: int, n_partial: int) -> None:
        self.n_partial = n_partial
        self.synced = self.successes = self.requests = 0
        self.failed = np.zeros(m, dtype=np.int64)
        self.requested = np.zeros(m, dtype=np.int64)

    def add(self, bits: np.ndarray, routed: np.ndarray, fails: np.ndarray) -> None:
        """Count one chunk from its (node, partial, round) request flags, or
        a fixed route's (node, 1, 1) one that counts for every partial node,
        their per-node sums and the (node, round) overflow flags."""
        # bits & ~fails as one comparison of bools, which numpy vectorises.
        success = bits > fails[:, None]
        copies = self.n_partial // bits.shape[1]
        self.synced += copies * int(np.count_nonzero(success.any(axis=0)))
        self.successes += copies * int(np.count_nonzero(success))
        self.requests += int(routed.sum(dtype=np.int64))
        requested = routed > 0
        # One count per node row: count_nonzero(..., axis=1) sums bools as intp, slower.
        self.failed += [np.count_nonzero(row) for row in fails & requested]
        self.requested += [np.count_nonzero(row) for row in requested]

    def report(self, rounds: int) -> SyncReport:
        """The report of the partial nodes over `rounds` rounds."""
        with np.errstate(invalid="ignore"):  # a never-requested node reports 0/0 = NaN
            per_node = (self.failed / self.requested).tolist()
        measured = [p for p in per_node if not math.isnan(p)]
        return SyncReport(
            per_node_failure=tuple(per_node),
            sync_success_rate=self.synced / (self.n_partial * rounds),
            predicted_success=1.0 - math.prod(measured) if measured else float("nan"),
            rounds_used=rounds,
            total_requests=self.requests,
            # Every success beyond a pair's first is redundant.
            redundant_responses=self.successes - self.synced,
        )


def simulate(configs: Sequence[NetSimConfig]) -> list[SyncReport]:
    """Simulate the strategies of one rep on shared full-node traffic.

    The configurations may differ only in their strategy.  Each chunk draws
    every full node's ambient and service series once, from the same seeds,
    and runs every strategy's queue on them, so the reports are a paired
    comparison (common random numbers), each equal to the strategy's own run.

    The queues are rows of buffers allocated once per call.  Row 0, there
    when any route is fixed, is the queue that the fixed routes share, fed
    by every partial node every round; each drawn route has a row of its
    own after it.  A full node runs its rows, from row 0 if a fixed route
    requests it and from the first drawn row otherwise, in one _fail_series
    call per chunk, and each strategy reads its row's flags in place.  A
    node with no row draws nothing.  The rounds run in chunks of _CHUNK, or
    of 2 * _CHUNK // k rounds when k > 2 routes are drawn; every stream and
    backlog carries over, so the reports are those of one pass.
    """
    if len({(c.full_nodes, c.n_partial, c.rounds, c.master_seed) for c in configs}) != 1:
        raise ValueError("simulate takes one or more configurations that differ only in strategy")
    first = configs[0]
    m = len(first.full_nodes)
    routes = [_route(config.strategy, m) for config in configs]
    drawn = [k for k, (_, breaks) in enumerate(routes) if len(breaks)]
    # Row 0 is the fixed routes' shared queue, if any route is fixed; drawn
    # route j has row base + j.
    base = int(len(drawn) < len(configs))
    row = [0] * len(configs)
    for r, k in enumerate(drawn, start=base):
        row[k] = r
    # The nodes that some fixed route requests.
    shared = np.reshape([flags[0] for flags, breaks in routes if not len(breaks)], (-1, m)).any(axis=0)
    arrival_root = derive_seed(first.master_seed, _ARRIVAL_STREAMS)
    response_root = derive_seed(first.master_seed, _RESPONSE_STREAMS)
    # Per node with a row: its first row and its two streams.
    streams = [
        (i, node, 0 if shared[i] else base)
        + (make_rng(derive_seed(arrival_root, i)), make_rng(derive_seed(response_root, i)))
        for i, node in enumerate(first.full_nodes)
        if shared[i] or drawn
    ]
    # NetSimConfig budgets two drawn routes' flags per _CHUNK rounds.
    width = max(1, 2 * _CHUNK // max(2, len(drawn)))
    shape = (base + len(drawn), m, min(first.rounds, width))
    # int32 sums hold any partial count whose flags fit in memory.
    routed = np.empty(shape, dtype=np.int32)
    # Row 0 of a node that no fixed route requests is never run; the fixed
    # routes send nothing there, so _Totals.add reads none of its flags.
    fails = np.zeros(shape, dtype=bool)
    scratch = np.empty((2, shape[0], shape[2]), dtype=np.int64)
    backlog = np.zeros(shape[:2], dtype=np.int64)
    totals = [_Totals(m, first.n_partial) for _ in configs]
    for start in range(0, first.rounds, width):
        count = min(width, first.rounds - start)
        sums, overflows, (walk, floor) = (buf[..., :count] for buf in (routed, fails, scratch))
        bits = [_routing_bits(config, route, start, count) for config, route in zip(configs, routes)]
        sums[:base] = first.n_partial  # the shared queue takes every partial node
        for k in drawn:
            bits[k].sum(axis=1, out=sums[row[k]])
        for i, node, r, arrivals, responses in streams:
            ambient = _poisson_inverse(node.params.lam, arrivals.random(count))
            # int64 for speed only: _fail_series flags the same on narrow counts, but slower.
            served = _poisson_inverse(node.params.mu, responses.random(count)).astype(np.int64)
            np.add(ambient, sums[r:, i], out=walk[r:])
            _fail_series(walk[r:], served, node.capacity, backlog[r:, i], floor[r:], overflows[r:, i])
        for k, total in enumerate(totals):
            if row[k] < base:  # a fixed route: row 0's queues have run, so it takes this route's sums
                sums[0] = bits[k][:, 0] * np.int32(first.n_partial)
            total.add(bits[k], sums[row[k]], overflows[row[k]])
        del bits  # freed before the next chunk draws its own
    return [total.report(first.rounds) for total in totals]


def run_network_sim(config: NetSimConfig) -> SyncReport:
    """Simulate one configuration and report realized and predicted
    synchronization success."""
    return simulate([config])[0]
