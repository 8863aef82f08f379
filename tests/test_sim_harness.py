from __future__ import annotations

import math

import numpy as np
import pytest

from nodesync.queue_model import RateParams
from nodesync.seeding import make_rng
from nodesync.sim_harness import (
    CautiousAll,
    Equilibrium,
    FullNode,
    NetSimConfig,
    _fail_series,
    run_network_sim,
    simulate_detail,
)
from nodesync.sync_game import GameSpec
from oracles import fail_series


def _config(m=3, lam=3.0, mu=6.0, capacity=4, n_partial=1, rounds=5000, strategy=None, seed=42):
    nodes = tuple(
        FullNode(params=RateParams(lam=lam, mu=mu), capacity=capacity) for _ in range(m)
    )
    return NetSimConfig(
        full_nodes=nodes,
        n_partial=n_partial,
        strategy=strategy or CautiousAll(),
        rounds=rounds,
        master_seed=seed,
    )


def _combined_error(report, rounds):
    """Quadrature of the realized-rate error and the delta-method error of
    the product-form prediction."""
    s = report.sync_success_rate
    se_realized = math.sqrt(max(s * (1 - s), 1e-12) / rounds)
    fails = [p for p in report.per_node_failure if not math.isnan(p)]
    var_product = 0.0
    for i, p in enumerate(fails):
        rest = math.prod(q for j, q in enumerate(fails) if j != i)
        var_product += (rest**2) * p * (1 - p) / rounds
    return math.sqrt(se_realized**2 + var_product)


def test_huge_capacity_never_fails():
    report = run_network_sim(_config(capacity=10**9, rounds=2000))
    assert report.sync_success_rate == 1.0
    assert report.per_node_failure == (0.0, 0.0, 0.0)
    assert report.predicted_success == 1.0


def test_single_node_success_is_complement_of_failure():
    report = run_network_sim(_config(m=1, mu=3.5, capacity=0, rounds=20_000))
    assert report.sync_success_rate == pytest.approx(1.0 - report.per_node_failure[0])
    assert report.predicted_success == pytest.approx(1.0 - report.per_node_failure[0])


def test_product_form_for_independent_nodes():
    report = run_network_sim(_config(rounds=20_000))
    gap = abs(report.sync_success_rate - report.predicted_success)
    assert gap <= 3 * _combined_error(report, 20_000)


def test_seed_determinism_and_sensitivity():
    first = run_network_sim(_config(rounds=3000, seed=7))
    again = run_network_sim(_config(rounds=3000, seed=7))
    other = run_network_sim(_config(rounds=3000, seed=8))
    assert first == again
    assert first != other


def test_cautious_request_count_is_exact():
    config = _config(n_partial=4, rounds=1000)
    detail = simulate_detail(config)
    assert detail.total_requests == 4 * 3 * 1000


def test_equilibrium_single_sender_requests():
    spec = GameSpec.uniform(3, 0.2, 10.0, 5.0)
    config = _config(n_partial=2, rounds=2000, strategy=Equilibrium(spec=spec))
    detail = simulate_detail(config)
    assert detail.total_requests == 2 * 2000
    assert detail.redundant_responses == 0
    # Nodes outside the equilibrium support never see a request.
    assert math.isnan(detail.report.per_node_failure[1])
    assert math.isnan(detail.report.per_node_failure[2])


def _cautious_and_equilibrium(spec, **kwargs):
    """Cautious and equilibrium runs of one configuration on the same seed."""
    cautious = simulate_detail(_config(**kwargs))
    equilibrium = simulate_detail(_config(strategy=Equilibrium(spec=spec), **kwargs))
    return cautious, equilibrium


def test_equilibrium_sends_everywhere_when_costs_vanish():
    spec = GameSpec.uniform(3, 0.2, 100.0, 1.0)
    cautious, equilibrium = _cautious_and_equilibrium(spec, n_partial=2, rounds=500)
    assert equilibrium.total_requests == cautious.total_requests


def test_strategy_dominance_on_shared_seeds():
    spec = GameSpec.uniform(3, 0.2, 10.0, 5.0)
    cautious, equilibrium = _cautious_and_equilibrium(spec, n_partial=2, rounds=20_000)
    assert cautious.report.sync_success_rate >= equilibrium.report.sync_success_rate
    assert equilibrium.total_requests <= cautious.total_requests
    assert equilibrium.redundant_responses <= cautious.redundant_responses


def test_compare_requires_matching_dimensions():
    spec = GameSpec.uniform(2, 0.2, 10.0, 5.0)
    with pytest.raises(ValueError):
        _cautious_and_equilibrium(spec, m=3)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(rounds=0)
    with pytest.raises(ValueError):
        _config(n_partial=0)
    with pytest.raises(ValueError):
        FullNode(params=RateParams(lam=3.0, mu=6.0), capacity=-1)
    with pytest.raises(ValueError):
        NetSimConfig(
            full_nodes=(),
            n_partial=1,
            strategy=CautiousAll(),
            rounds=10,
            master_seed=0,
        )
    spec = GameSpec.uniform(2, 0.2, 10.0, 5.0)
    with pytest.raises(ValueError):
        _config(m=3, strategy=Equilibrium(spec=spec))


def test_fail_series_closed_form_matches_lindley_loop():
    rng = make_rng(1952)
    for _ in range(300):
        rounds = int(rng.integers(1, 400))
        lam, mu = rng.uniform(0.0, 12.0, size=2)
        inflow = rng.poisson(lam, rounds) + rng.integers(0, 3) * rng.integers(0, 2, rounds)
        served = rng.poisson(mu, rounds)
        capacity = int(rng.choice([0, 1, 4, 25, 10**9]))
        got = _fail_series(inflow, served, capacity)
        assert got.tolist() == fail_series(inflow.tolist(), served.tolist(), capacity)
    # Saturated: every round brings more than capacity and is never drained.
    inflow = np.full(50, 7)
    assert _fail_series(inflow, np.full(50, 2), 6).all()
    # Capacity 0 with nothing routed never overflows.
    assert not _fail_series(np.zeros(20, dtype=np.int64), np.full(20, 3), 0).any()


def test_saturated_nodes_fail_every_round():
    # Ten partial nodes add ten requests per round on top of ambient load;
    # every post-arrival backlog overshoots the capacity from round one.
    report = run_network_sim(_config(n_partial=10, rounds=2000))
    assert report.per_node_failure == (1.0, 1.0, 1.0)
    assert report.sync_success_rate == 0.0
    assert report.predicted_success == 0.0
