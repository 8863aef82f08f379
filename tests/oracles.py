"""Scalar reference implementations of the vectorised model kernels.

Each function here is the plain form of a quantity the package computes by
a faster path: a Poisson draw by sequential search over its log-space
CDF terms, a block of draws by one binary search per uniform, the backlog
walk's supremum in int64, a request profile's per-decision utility and
total, the reflected queue's per-round overflow flags by Lindley's
recursion, a network's routing flags from one generator per partial node,
its full nodes' overflow flags, and its report by a loop over the nodes.
The arithmetic is the same operation for operation, so the tests demand exact
equality with the fast paths, not a tolerance.  The one exception is the
class-count equilibrium LP, a smaller program with the same optimum, which
is checked to a relative tolerance.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np
import pytest

from nodesync.queue_model import MAX_VECTOR_RATE, RateParams, _poisson_table
from nodesync.seeding import derive_seed, make_rng
from nodesync.sim_harness import (
    _ARRIVAL_STREAMS,
    _RESPONSE_STREAMS,
    _ROUTING_STREAMS,
    CautiousAll,
    NetSimConfig,
    SyncReport,
)
from nodesync.sync_game import GameSpec, Profile


def sample_poisson(rate: float, rng: np.random.Generator) -> int:
    """One Poisson(rate) draw by inversion with sequential search.

    Takes a single uniform u from `rng` and walks the CDF partial sums
    F_k, adding one log-space term exp(k ln rate - rate - lgamma(k + 1)) per
    step, to the smallest k with u <= F_k.  The search stops at
    k = int(rate + 12 sqrt(rate) + 20), where the package's CDF table ends.
    Each term goes through numpy's exp, as the table's do: the C library's
    exp rounds some of them differently in the last place.  The walk takes
    about `rate` steps per draw.
    """
    if not 0 < rate <= MAX_VECTOR_RATE:
        raise ValueError(f"rate must be in (0, {MAX_VECTOR_RATE}] for sampling, got {rate}")
    u = float(rng.random())
    hi = int(rate + 12.0 * math.sqrt(rate) + 20.0)
    log_rate = math.log(rate)

    def term(k: int) -> float:
        return float(np.exp(k * log_rate - rate - math.lgamma(k + 1)))

    k = 0
    total = term(0)
    while u > total and k < hi:
        k += 1
        total += term(k)
    return k


def poisson_inverse(rate: float, u: np.ndarray) -> np.ndarray:
    """Poisson(rate) draws from uniforms: the smallest k with u <= F_k of the
    package's CDF table, by binary search, clipped to the table's last
    entry."""
    cdf = _poisson_table(rate)[0]
    return np.minimum(np.searchsorted(cdf, u, side="left"), len(cdf) - 1)


def walk_sups(params: RateParams, uniforms: np.ndarray) -> np.ndarray:
    """Supremum, floored at zero, of the int64 walk of arrivals (inverted
    from the first half of each row of uniforms) minus responses (the
    second half)."""
    horizon = uniforms.shape[1] // 2
    arrivals = poisson_inverse(params.lam, uniforms[:, :horizon]).astype(np.int64)
    responses = poisson_inverse(params.mu, uniforms[:, horizon:]).astype(np.int64)
    return np.maximum(np.cumsum(arrivals - responses, axis=1).max(axis=1), 0)


def profit(p: Profile, i: int, epsilon: Sequence[float]) -> float:
    """Reliability-weighted share of the unit profit earned by decision i.

    Sending nodes split the unit in proportion to their success weights
    1 - epsilon; a non-sender earns nothing, and the all-zero profile earns
    zero for everyone by convention.
    """
    m = len(p.bits)
    if len(epsilon) != m:
        raise ValueError(f"epsilon must have length {m}, got {len(epsilon)}")
    if not 0 <= i < m:
        raise ValueError(f"node index must be in [0, {m}), got {i}")
    if p.bits[i] == 0:
        return 0.0
    # Explicit left-to-right loops: sum() over floats is compensated from
    # Python 3.12 on, which the package's node-by-node sums are not.
    weight_sum = 0.0
    for j in range(m):
        if p.bits[j]:
            weight_sum += 1.0 - epsilon[j]
    if weight_sum == 0.0:
        return 0.0
    return (1.0 - epsilon[i]) / weight_sum


def utility(p: Profile, i: int, spec: GameSpec) -> float:
    """Profit scaled by alpha_i minus the request cost when sending."""
    if len(p.bits) != spec.m:
        raise ValueError(f"profile has {len(p.bits)} decisions for m={spec.m}")
    return spec.alpha[i] * profit(p, i, spec.epsilon) - p.bits[i] * spec.cost[i]


def total_utility(p: Profile, spec: GameSpec) -> float:
    """Sum of the m per-decision utilities under one profile."""
    total = 0.0
    for i in range(spec.m):
        total += utility(p, i, spec)
    return total


def ns_lp_tables(spec: GameSpec) -> tuple[list[float], list[list[float]]]:
    """Objective and the 2m deviation rows of the equilibrium LP, entry by
    entry: row 2i + held is U_i(k) - U_i(k ^ (1 << i)) on the profiles k
    where decision i plays `held`, and 0 elsewhere."""
    n = 1 << spec.m
    profiles = [Profile.from_index(k, spec.m) for k in range(n)]
    u = [[utility(p, i, spec) for i in range(spec.m)] for p in profiles]
    objective = [total_utility(p, spec) for p in profiles]
    rows = []
    for i in range(spec.m):
        for held in (0, 1):
            rows.append(
                [
                    u[k][i] - u[k ^ (1 << i)][i] if (k >> i) & 1 == held else 0.0
                    for k in range(n)
                ]
            )
    return objective, rows


def ce_violation(g: Sequence[float], spec: GameSpec) -> float:
    """Worst shortfall over the deviation rows, each expectation summed in
    profile order over the profiles with positive probability."""
    _, rows = ns_lp_tables(spec)
    worst = 0.0
    for row in rows:
        lhs = 0.0
        for k, coeff in enumerate(row):
            if g[k] > 0.0:
                lhs += g[k] * coeff
        worst = max(worst, -lhs)
    return worst


def class_lp_objective(spec: GameSpec) -> float:
    """Total utility of the best correlated equilibrium, from the LP over
    class-count vectors (Papadimitriou and Roughgarden, JACM 2008).

    Nodes of equal (epsilon, alpha, cost) form a class c of n_c nodes.  The
    game is invariant under permutations within a class, so averaging an
    equilibrium over them keeps its total, and the optimum is found among
    distributions that depend only on the count vector s of senders per
    class.  With w_c = 1 - epsilon_c, W(s) = sum_c s_c w_c and
    u_c(s) = alpha_c w_c / W(s) - cost_c, the LP has one variable per s,
    the objective sum_c s_c u_c(s), normalization, and two >= 0 rows per
    class: s_c u_c(s) (keep sending) and -(n_c - s_c) u_c(s + e_c) (keep
    skipping).  Everything is built from the spec and solved by HiGHS.
    """
    optimize = pytest.importorskip("scipy.optimize")
    sizes = Counter(zip(spec.epsilon, spec.alpha, spec.cost))
    classes = list(sizes)

    def u(c: int, s: tuple[int, ...]) -> float:
        eps, alpha, cost = classes[c]
        weight = sum(k * (1.0 - e) for k, (e, _, _) in zip(s, classes))
        return alpha * (1.0 - eps) / weight - cost

    objective = []
    rows: list[list[float]] = [[] for _ in range(2 * len(classes))]
    for s in itertools.product(*(range(sizes[k] + 1) for k in classes)):
        objective.append(sum(s[c] * u(c, s) for c in range(len(classes)) if s[c]))
        for c, kind in enumerate(classes):
            rows[2 * c].append(s[c] * u(c, s) if s[c] else 0.0)
            more = s[:c] + (s[c] + 1,) + s[c + 1 :]
            skipping = sizes[kind] - s[c]
            rows[2 * c + 1].append(-skipping * u(c, more) if skipping else 0.0)
    res = optimize.linprog(
        -np.array(objective),
        A_ub=-np.array(rows),
        b_ub=np.zeros(len(rows)),
        A_eq=np.ones((1, len(objective))),
        b_eq=[1.0],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def step_queue(q_prev: int, arrivals: int, responses: int) -> int:
    """Lindley update: (q_prev + arrivals - responses) floored at zero."""
    if q_prev < 0 or arrivals < 0 or responses < 0:
        raise ValueError(
            f"backlog and counts must be nonnegative, got {(q_prev, arrivals, responses)}"
        )
    return max(q_prev + arrivals - responses, 0)


def fail_series(
    inflow: Sequence[int], responses: Sequence[int], capacity: int, backlog: int = 0
) -> tuple[list[bool], int]:
    """Per-round overflow flags of one reflected queue that starts with
    `backlog` queued requests, and its backlog after the last round: the
    round overflows when the carried backlog plus its inflow exceeds the
    capacity."""
    fails = []
    q = backlog
    for arrived, served in zip(inflow, responses):
        fails.append(q + arrived > capacity)
        q = step_queue(q, arrived, served)
    return fails, q


def routing_bits(config: NetSimConfig) -> np.ndarray:
    """(partial, node, round) request flags.  Every profile index is an int64
    bit mask: all ones under CautiousAll, and under a CorrelatedDistribution
    the first profile whose cumulative probability exceeds a uniform from
    partial node j's own generator make_rng(derive_seed(routing root, j)).
    Node i's flag is bit i of the mask."""
    m = len(config.full_nodes)
    if isinstance(config.strategy, CautiousAll):
        profiles = np.full((config.n_partial, config.rounds), (1 << m) - 1, dtype=np.int64)
    else:
        cumulative = np.cumsum(config.strategy.g)
        profiles = np.empty((config.n_partial, config.rounds), dtype=np.int64)
        routing_root = derive_seed(config.master_seed, _ROUTING_STREAMS)
        for j in range(config.n_partial):
            u = make_rng(derive_seed(routing_root, j)).random(config.rounds)
            profiles[j] = np.minimum(np.searchsorted(cumulative, u, side="right"), (1 << m) - 1)
    node_ids = np.arange(m, dtype=np.int64)
    return ((profiles[:, None, :] >> node_ids[None, :, None]) & 1).astype(bool)


def node_fails(config: NetSimConfig, routed: np.ndarray) -> np.ndarray:
    """(node, round) overflow flags.  Node i's ambient and response counts
    invert the uniforms of its own generators under the arrival and
    response roots; the routed requests join the ambient ones, and the
    round-by-round Lindley loop flags the overflows."""
    arrival_root = derive_seed(config.master_seed, _ARRIVAL_STREAMS)
    response_root = derive_seed(config.master_seed, _RESPONSE_STREAMS)
    fails = np.empty((len(config.full_nodes), config.rounds), dtype=bool)
    for i, node in enumerate(config.full_nodes):
        u_arrival = make_rng(derive_seed(arrival_root, i)).random(config.rounds)
        u_response = make_rng(derive_seed(response_root, i)).random(config.rounds)
        ambient = poisson_inverse(node.params.lam, u_arrival)
        served = poisson_inverse(node.params.mu, u_response)
        fails[i] = fail_series((ambient + routed[i]).tolist(), served.tolist(), node.capacity)[0]
    return fails


def sync_report(bits: np.ndarray, fails: np.ndarray) -> SyncReport:
    """The report from (partial, node, round) request flags and (node,
    round) overflow flags.  A partial node syncs in a round when one of its
    requests meets no overflow.  Node by node, the failure rate is taken
    over the rounds it was requested in (NaN if none), and the predicted
    success is one minus the product of the measured rates (NaN if none)."""
    successes = bits & ~fails[None, :, :]
    success_counts = successes.sum(axis=1, dtype=np.int64)
    routed = bits.sum(axis=0, dtype=np.int64)
    per_node = []
    predicted = 1.0
    any_measured = False
    for i in range(fails.shape[0]):
        requested = routed[i] > 0
        if requested.any():
            p_fail = float(fails[i, requested].mean())
            per_node.append(p_fail)
            predicted *= p_fail
            any_measured = True
        else:
            per_node.append(float("nan"))
    return SyncReport(
        per_node_failure=tuple(per_node),
        sync_success_rate=float(successes.any(axis=1).mean()),
        predicted_success=1.0 - predicted if any_measured else float("nan"),
        rounds_used=fails.shape[1],
        total_requests=int(bits.sum(dtype=np.int64)),
        redundant_responses=int(np.maximum(success_counts - 1, 0).sum(dtype=np.int64)),
    )
