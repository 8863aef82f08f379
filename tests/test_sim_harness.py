from __future__ import annotations

import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import nodesync
from nodesync import cli, sim_harness
from nodesync.queue_model import RateParams, _poisson_inverse
from nodesync.seeding import fill_streams, make_rng
from nodesync.sim_harness import (
    CautiousAll,
    FullNode,
    NetSimConfig,
    _fail_series,
    _route,
    _routing_bits,
    run_network_sim,
    simulate,
)
from nodesync.sync_game import CorrelatedDistribution, GameSpec, Profile, solve_ns
from oracles import fail_series, node_fails, routing_bits, sync_report


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
    detail = run_network_sim(config)
    assert detail.total_requests == 4 * 3 * 1000


def test_equilibrium_single_sender_requests():
    spec = GameSpec.uniform(3, 0.2, 10.0, 5.0)
    config = _config(n_partial=2, rounds=2000, strategy=solve_ns(spec).distribution)
    detail = run_network_sim(config)
    assert detail.total_requests == 2 * 2000
    assert detail.redundant_responses == 0
    # Nodes outside the equilibrium support never see a request.
    assert math.isnan(detail.per_node_failure[1])
    assert math.isnan(detail.per_node_failure[2])


def _cautious_and_equilibrium(spec, **kwargs):
    """Cautious and equilibrium runs of one configuration on the same seed."""
    cautious = run_network_sim(_config(**kwargs))
    equilibrium = run_network_sim(_config(strategy=solve_ns(spec).distribution, **kwargs))
    return cautious, equilibrium


def test_equilibrium_sends_everywhere_when_costs_vanish():
    spec = GameSpec.uniform(3, 0.2, 100.0, 1.0)
    cautious, equilibrium = _cautious_and_equilibrium(spec, n_partial=2, rounds=500)
    assert equilibrium.total_requests == cautious.total_requests


def test_strategy_dominance_on_shared_seeds():
    spec = GameSpec.uniform(3, 0.2, 10.0, 5.0)
    cautious, equilibrium = _cautious_and_equilibrium(spec, n_partial=2, rounds=20_000)
    assert cautious.sync_success_rate >= equilibrium.sync_success_rate
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
        _config(m=3, strategy=solve_ns(spec).distribution)


def test_config_rejects_runs_over_the_memory_cap():
    # Only configurations are built here: the size is checked before
    # anything is allocated, and nothing is simulated.
    def per_round(n_partial, m):
        return n_partial * (7 * m + 24) + 8 * m + 48

    cap = sim_harness.MAX_SIM_BYTES
    chunk = sim_harness._CHUNK
    with pytest.raises(ValueError, match=r"over the 2,048 MiB cap \(MAX_SIM_BYTES\)"):
        _config(n_partial=100_000_000, rounds=5)
    # The estimate covers one chunk of rounds, so the number of rounds does
    # not count once it passes a chunk: the boundary is in partial nodes.
    assert _config(n_partial=1, rounds=10**8).rounds == 10**8
    largest = (cap // chunk - per_round(0, 3)) // (per_round(1, 3) - per_round(0, 3))
    assert _config(n_partial=largest, rounds=10**8).n_partial == largest
    with pytest.raises(ValueError, match="MAX_SIM_BYTES"):
        _config(n_partial=largest + 1, rounds=chunk)
    # Below a chunk the boundary is in rounds.
    rounds = cap // per_round(largest + 1, 3)
    assert rounds < chunk
    assert _config(n_partial=largest + 1, rounds=rounds).rounds == rounds
    with pytest.raises(ValueError, match="MAX_SIM_BYTES"):
        _config(n_partial=largest + 1, rounds=rounds + 1)
    # Each full node adds 4096 bytes whatever the rounds, so 2,000,000 full
    # nodes are refused even for one round (they share one node object here).
    node = FullNode(params=RateParams(lam=3.0, mu=6.0), capacity=4)
    with pytest.raises(ValueError, match=r"2000000 full nodes x 1 rounds would take about 7,8"):
        NetSimConfig(full_nodes=(node,) * 2_000_000, n_partial=1, strategy=CautiousAll(), rounds=1, master_seed=0)
    # The largest runs that the CLI checks and the benchmark times stay at
    # least 50 times below the cap.
    runs = ((200, 3, 2000), (1, 3, 200_000), (1, 64, 200), (5, 6, 3000), (3, 5, 70_000))
    for n_partial, m, rounds in runs:
        assert 50 * per_round(n_partial, m) * min(rounds, chunk) < cap
        _config(n_partial=50 * n_partial, m=m, rounds=rounds)


def test_full_node_capacity_is_a_whole_nonnegative_int():
    # NaN and inf would never overflow, and 4.5 would act as 4.
    params = RateParams(lam=3.0, mu=6.0)
    for bad in (math.nan, math.inf, 4.5, -1):
        with pytest.raises(ValueError, match="capacity"):
            FullNode(params=params, capacity=bad)
    for good in (4, 4.0, np.int64(4)):
        capacity = FullNode(params=params, capacity=good).capacity
        assert capacity == 4 and type(capacity) is int


def test_a_list_of_full_nodes_runs_as_a_tuple():
    node = FullNode(params=RateParams(lam=3.0, mu=6.0), capacity=4)
    kwargs = dict(n_partial=2, strategy=CautiousAll(), rounds=500, master_seed=7)
    listed = NetSimConfig(full_nodes=[node] * 3, **kwargs)
    assert listed.full_nodes == (node,) * 3
    assert run_network_sim(listed) == run_network_sim(NetSimConfig(full_nodes=(node,) * 3, **kwargs))


def test_a_game_spec_is_not_a_strategy():
    with pytest.raises(ValueError, match="GameSpec"):
        _config(m=3, strategy=GameSpec.uniform(3, 0.2, 10.0, 5.0))


def test_any_distribution_routes():
    profile = Profile((0, 1, 0))
    config = _config(n_partial=3, rounds=400, strategy=CorrelatedDistribution.point_mass(profile))
    bits = _routing_bits(config, _route(config.strategy, 3), 0, 400)
    # A fixed route is one column, which every partial node sends every round.
    assert bits.shape == (3, 1, 1)
    assert bits[:, 0, 0].tolist() == [False, True, False]
    detail = run_network_sim(config)
    assert detail.total_requests == 3 * 400
    assert math.isnan(detail.per_node_failure[0]) and math.isnan(detail.per_node_failure[2])


def test_routing_bits_match_per_partial_streams():
    rng = np.random.default_rng(18)
    mixed = fixed = 0
    for m in range(1, 7):
        strategies = [
            CautiousAll(),
            CorrelatedDistribution.point_mass(Profile.from_index(0, m)),
            CorrelatedDistribution.point_mass(Profile.from_index((1 << m) - 1, m)),
        ]
        for _ in range(3):
            spec = GameSpec(
                m=m,
                epsilon=tuple(float(v) for v in rng.uniform(0.05, 0.95, size=m)),
                alpha=tuple(float(v) for v in rng.uniform(0.5, 20.0, size=m)),
                cost=tuple(float(v) for v in rng.uniform(0.0, 12.0, size=m)),
            )
            strategies.append(solve_ns(spec).distribution)
            mixed += np.count_nonzero(np.diff(np.cumsum(strategies[-1].g), prepend=0.0)) > 1
        for strategy in strategies:
            # CautiousAll and point masses route the same every round, as
            # one (m, 1, 1) column; a drawn route is stored per partial node.
            is_fixed = isinstance(strategy, CautiousAll) or np.count_nonzero(strategy.g) == 1
            route = _route(strategy, m)
            for n_partial in range(1, 5):
                for seed in (0, 7, -3):
                    config = _config(m=m, n_partial=n_partial, rounds=257, strategy=strategy, seed=seed)
                    want = routing_bits(config)
                    # The whole run, then chunks that continue each partial node's stream.
                    for start, count in ((0, 257), (0, 100), (100, 100), (200, 57)):
                        bits = _routing_bits(config, route, start, count)
                        assert bits.dtype == bool
                        assert bits.shape == ((m, 1, 1) if is_fixed else (m, n_partial, count))
                        got = np.broadcast_to(bits, (m, n_partial, count)).transpose(1, 0, 2)
                        assert np.array_equal(got, want[..., start : start + count])
                    fixed += is_fixed
    # Some equilibria spread their mass, so the profile search is exercised,
    # and some are pure, besides the point masses given.
    assert mixed >= 3
    assert fixed > 6 * 3 * 4 * 3


def _full_rule(strategy, m, u):
    """(uniform, node) request flags by the sampling rule applied in full:
    all ones under CautiousAll, else the profile
    min(searchsorted(cumsum(g), u, "right"), 2**m - 1)."""
    if isinstance(strategy, CautiousAll):
        return np.ones((len(u), m), dtype=bool)
    profiles = np.minimum(np.searchsorted(np.cumsum(strategy.g), u, side="right"), (1 << m) - 1)
    return np.array([[p >> i & 1 for i in range(m)] for p in profiles.tolist()], dtype=bool).reshape(-1, m)


def test_route_table_matches_the_full_rule():
    # At the lowest and highest uniforms, at every break and at the doubles
    # next to it, the table's row is the profile that the full rule picks;
    # a route is fixed, one row and no breaks, exactly when the lowest and
    # highest uniforms pick the same profile.
    top = 1.0 - 2.0**-53
    rng = np.random.default_rng(34)
    fixed = drawn = 0
    for m in range(1, 13):
        size = 1 << m
        near = np.full(size, 1e-12 / (size - 1))
        near[1] = 1.0 - 1e-12
        tiny = np.zeros(size)  # a second profile holding about 1e-16
        tiny[[0, size - 1]] = 1e-16, 1.0 - 1e-16
        short, short_last = np.zeros(size), np.zeros(size)
        short[0] = short_last[-1] = 1.0 - 1e-10  # cumulative ending below 1.0
        strategies = [CautiousAll()] + [
            CorrelatedDistribution(m=m, g=g) for g in (near, near[::-1].copy(), tiny, short, short_last)
        ]
        strategies += [
            CorrelatedDistribution.point_mass(Profile.from_index(k, m))
            for k in sorted({0, 1, size - 1, int(rng.integers(size))})
        ]
        if m <= 8:
            strategies += [CorrelatedDistribution(m=m, g=rng.dirichlet(np.ones(size))) for _ in range(2)]
        for _ in range(3):
            spec = GameSpec(
                m=m,
                epsilon=tuple(float(v) for v in rng.uniform(0.05, 0.95, size=m)),
                alpha=tuple(float(v) for v in rng.uniform(0.5, 20.0, size=m)),
                cost=tuple(float(v) for v in rng.uniform(0.0, 12.0, size=m)),
            )
            strategies.append(solve_ns(spec).distribution)
        for strategy in strategies:
            flags, breaks = _route(strategy, m)
            assert flags.dtype == bool and flags.shape == (len(breaks) + 1, m)
            assert np.all(np.diff(breaks) > 0) and np.all((breaks > 0) & (breaks <= top))
            u = np.concatenate([[0.0, top], breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0)])
            u = u[u <= top]
            assert np.array_equal(flags[np.searchsorted(breaks, u, side="right")], _full_rule(strategy, m, u))
            ends = _full_rule(strategy, m, np.array([0.0, top]))
            assert (len(flags) == 1) == (ends[0] == ends[1]).all()
            fixed += len(flags) == 1
            drawn += len(flags) > 1
    assert fixed > 12 * 5 and drawn > 12 * 3


def _assert_report_matches_oracle(config):
    bits = routing_bits(config)
    got = run_network_sim(config)
    # repr prints every float exactly and NaN as nan, so equal reprs mean
    # equal fields, NaN positions included.
    assert repr(got) == repr(sync_report(bits, node_fails(config, bits.sum(axis=0))))
    return got


def test_report_matches_node_loop():
    rng = np.random.default_rng(20)
    seen = {"nan": 0, "saturated": 0, "no_prediction": 0}
    for m in range(1, 6):
        strategies = [
            CautiousAll(),
            CorrelatedDistribution.point_mass(Profile.from_index(0, m)),
            CorrelatedDistribution.point_mass(Profile.from_index(1, m)),
        ]
        for _ in range(2):
            spec = GameSpec(
                m=m,
                epsilon=tuple(float(v) for v in rng.uniform(0.05, 0.95, size=m)),
                alpha=tuple(float(v) for v in rng.uniform(0.5, 20.0, size=m)),
                cost=tuple(float(v) for v in rng.uniform(0.0, 12.0, size=m)),
            )
            strategies.append(solve_ns(spec).distribution)
        for strategy in strategies:
            for n_partial in range(1, 5):
                nodes = tuple(
                    FullNode(
                        params=RateParams(lam=float(lam), mu=float(lam + gap)),
                        capacity=int(rng.choice([0, 1, 4, 10**9])),
                    )
                    for lam, gap in rng.uniform(0.5, 6.0, size=(m, 2))
                )
                config = NetSimConfig(
                    full_nodes=nodes,
                    n_partial=n_partial,
                    strategy=strategy,
                    rounds=200,
                    master_seed=int(rng.integers(-100, 100)),
                )
                got = _assert_report_matches_oracle(config)
                seen["nan"] += any(math.isnan(p) for p in got.per_node_failure)
                seen["saturated"] += 1.0 in got.per_node_failure
                seen["no_prediction"] += math.isnan(got.predicted_success)
    assert min(seen.values()) > 0, seen
    # Six overloaded nodes: their failure rates are near 1, so the predicted
    # success keeps the last bits of the product, which depend on the order
    # of its factors.
    got = _assert_report_matches_oracle(_config(m=6, lam=3.0, mu=4.0, capacity=5, n_partial=2, rounds=200))
    fails = got.per_node_failure
    assert 1.0 - math.prod(fails) != 1.0 - math.prod(reversed(fails))
    # 200 partial nodes: routed counts and inflows beyond the int8 range of
    # the inverted ambient counts, against a capacity that some rounds pass.
    cautious = _config(n_partial=200, capacity=20_000, rounds=300)
    g = np.random.default_rng(200).dirichlet(np.ones(8))
    mixed = replace(cautious, strategy=CorrelatedDistribution(m=3, g=g))
    reports = simulate([cautious, mixed])
    assert repr(reports) == repr([_oracle_report(cautious), _oracle_report(mixed)])
    assert all(0.1 < p < 0.7 for report in reports for p in report.per_node_failure), reports


def test_simulate_matches_each_strategy_alone():
    rng = np.random.default_rng(21)
    for m in range(1, 6):
        strategies = [
            CautiousAll(),
            CorrelatedDistribution.point_mass(Profile.from_index(0, m)),
            CorrelatedDistribution.point_mass(Profile.from_index(1, m)),
        ]
        for _ in range(2):
            spec = GameSpec(
                m=m,
                epsilon=tuple(float(v) for v in rng.uniform(0.05, 0.95, size=m)),
                alpha=tuple(float(v) for v in rng.uniform(0.5, 20.0, size=m)),
                cost=tuple(float(v) for v in rng.uniform(0.0, 12.0, size=m)),
            )
            strategies.append(solve_ns(spec).distribution)
        # Mass on every profile, so the strategies' routed counts differ
        # on requested nodes.
        strategies.append(CorrelatedDistribution(m=m, g=rng.dirichlet(np.ones(1 << m))))
        for n_partial in range(1, 5):
            for rounds in (200, 1):
                nodes = tuple(
                    FullNode(
                        params=RateParams(lam=float(lam), mu=float(lam + gap)),
                        capacity=int(rng.choice([0, 1, 4, 10**9])),
                    )
                    for lam, gap in rng.uniform(0.5, 6.0, size=(m, 2))
                )
                base = NetSimConfig(
                    full_nodes=nodes,
                    n_partial=n_partial,
                    strategy=CautiousAll(),
                    rounds=rounds,
                    master_seed=int(rng.integers(-100, 100)),
                )
                configs = [replace(base, strategy=strategy) for strategy in strategies]
                assert repr(simulate(configs)) == repr([run_network_sim(c) for c in configs])


def _oracle_report(config):
    bits = routing_bits(config)
    return sync_report(bits, node_fails(config, bits.sum(axis=0)))


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunked_reports_match_node_loop(monkeypatch, chunk):
    # 200 rounds cross many chunk boundaries: every stream must continue
    # and every queue carry its backlog, or a report differs.
    monkeypatch.setattr(sim_harness, "_CHUNK", chunk)
    rng = np.random.default_rng(26 + chunk)
    for m in range(1, 6):
        spec = GameSpec(
            m=m,
            epsilon=tuple(float(v) for v in rng.uniform(0.05, 0.95, size=m)),
            alpha=tuple(float(v) for v in rng.uniform(0.5, 20.0, size=m)),
            cost=tuple(float(v) for v in rng.uniform(0.0, 12.0, size=m)),
        )
        # Point masses, an equilibrium and three distributions with mass on
        # every profile: with three or more drawn routes, chunks shrink to
        # 2 * chunk // 3 rounds or fewer.
        strategies = [
            CautiousAll(),
            CorrelatedDistribution.point_mass(Profile.from_index(0, m)),
            CorrelatedDistribution.point_mass(Profile.from_index(1, m)),
            solve_ns(spec).distribution,
        ] + [CorrelatedDistribution(m=m, g=rng.dirichlet(np.ones(1 << m))) for _ in range(3)]
        for n_partial in range(1, 5):
            nodes = tuple(
                FullNode(
                    params=RateParams(lam=float(lam), mu=float(lam + gap)),
                    capacity=int(rng.choice([0, 1, 4, 10**9])),
                )
                for lam, gap in rng.uniform(0.5, 6.0, size=(m, 2))
            )
            base = NetSimConfig(
                full_nodes=nodes,
                n_partial=n_partial,
                strategy=CautiousAll(),
                rounds=200,
                master_seed=int(rng.integers(-100, 100)),
            )
            configs = [replace(base, strategy=strategy) for strategy in strategies]
            assert repr(simulate(configs)) == repr([_oracle_report(c) for c in configs])


def test_report_matches_node_loop_one_round_past_a_chunk():
    rng = np.random.default_rng(27)
    nodes = tuple(
        FullNode(params=RateParams(lam=lam, mu=lam + 1.5), capacity=capacity)
        for lam, capacity in ((3.0, 4), (1.0, 1), (5.0, 9))
    )
    base = NetSimConfig(
        full_nodes=nodes,
        n_partial=2,
        strategy=CautiousAll(),
        rounds=sim_harness._CHUNK + 1,
        master_seed=-26,
    )
    mixed = replace(base, strategy=CorrelatedDistribution(m=3, g=rng.dirichlet(np.ones(8))))
    assert repr(simulate([base, mixed])) == repr([_oracle_report(base), _oracle_report(mixed)])


def test_each_node_scans_one_series_per_distinct_inflow(monkeypatch):
    # Per chunk, a full node scans one series for the fixed routes that
    # request it, which share their inflow, one per drawn route, and none
    # for a fixed route that never requests it; every report still matches
    # the node-loop oracle across chunk boundaries.
    rows = []

    def counted(walk, *args):
        rows.append(walk.shape[0])
        _fail_series(walk, *args)

    monkeypatch.setattr(sim_harness, "_fail_series", counted)
    monkeypatch.setattr(sim_harness, "_CHUNK", 64)
    chunks = 4  # 200 rounds
    parser, _ = cli.build_parser()
    args = parser.parse_args(
        ["netsim", "--strategy", "compare", "--m", "3", "--lam", "3", "--mu", "6", "--gamma", "4"]
        + ["--rounds", "200", "--reps", "1", "--seed", "11"]
    )
    cautious, equilibrium = (config for _, config in cli._netsim_configs(args))
    # The benchmark's op: its equilibrium is a point mass on one node.
    assert [_route(c.strategy, 3)[0].sum(axis=1).tolist() for c in (cautious, equilibrium)] == [[3], [1]]
    rng = np.random.default_rng(31)
    mixed, other = (
        replace(cautious, strategy=CorrelatedDistribution(m=3, g=rng.dirichlet(np.ones(8)))) for _ in range(2)
    )
    # Point masses on the empty profile and on the second node alone.
    empty, second = (
        replace(cautious, strategy=CorrelatedDistribution.point_mass(Profile.from_index(k, 3))) for k in (0, 2)
    )
    for configs, per_chunk in [
        ([cautious, equilibrium], [1, 1, 1]),
        ([cautious, cautious], [1, 1, 1]),
        ([empty], []),
        ([cautious, empty], [1, 1, 1]),
        ([second], [1]),
        ([empty, mixed], [1, 1, 1]),
        ([mixed, other], [2, 2, 2]),
        ([cautious, mixed], [2, 2, 2]),
        ([second, mixed], [1, 2, 1]),
    ]:
        rows.clear()
        assert repr(simulate(configs)) == repr([_oracle_report(c) for c in configs])
        assert rows == per_chunk * chunks
    # Any number of strategies run in one pass: per node, the fixed routes'
    # shared row and the drawn route's row.
    rows.clear()
    simulate([cautious, equilibrium, mixed])
    assert rows == [2, 2, 2] * chunks


def test_each_node_inverts_its_traffic_once_per_chunk(monkeypatch):
    # However many strategies a rep runs, each chunk inverts each full
    # node's ambient and service series once, and every report still
    # matches the node-loop oracle.
    inverted = []

    def counted(rate, u):
        inverted.append(rate)
        return _poisson_inverse(rate, u)

    monkeypatch.setattr(sim_harness, "_poisson_inverse", counted)
    monkeypatch.setattr(sim_harness, "_CHUNK", 64)
    rng = np.random.default_rng(33)
    base = _config(rounds=200)
    point = CorrelatedDistribution.point_mass(Profile.from_index(2, 3))
    mixed, other = (CorrelatedDistribution(m=3, g=rng.dirichlet(np.ones(8))) for _ in range(2))
    configs = [replace(base, strategy=strategy) for strategy in (CautiousAll(), point, mixed, other, point)]
    assert repr(simulate(configs)) == repr([_oracle_report(c) for c in configs])
    # Two drawn routes keep chunks of 64 rounds: 2 series x 3 nodes x 4 chunks.
    assert len(inverted) == 2 * 3 * 4


def _refuse_to_draw(*args, **kwargs):
    raise AssertionError("a fixed route drew routing uniforms")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_fixed_routes_draw_nothing(monkeypatch, m):
    # CautiousAll, every point mass, and mass short of 1.0 on the last
    # profile (where every uniform clips to) route the same every round:
    # their reports match the oracle's drawn flags with no routing draw,
    # across chunk boundaries too.
    monkeypatch.setattr(sim_harness, "fill_streams", _refuse_to_draw)
    monkeypatch.setattr(sim_harness, "_CHUNK", 64)
    rng = np.random.default_rng(30 + m)
    short_last = np.zeros(1 << m)
    short_last[-1] = 1.0 - 1e-10
    strategies = [CautiousAll(), CorrelatedDistribution(m=m, g=short_last)] + [
        CorrelatedDistribution.point_mass(Profile.from_index(k, m)) for k in range(1 << m)
    ]
    for n_partial in range(1, 5):
        nodes = tuple(
            FullNode(
                params=RateParams(lam=float(lam), mu=float(lam + gap)),
                capacity=int(rng.choice([0, 1, 4, 10**9])),
            )
            for lam, gap in rng.uniform(0.5, 6.0, size=(m, 2))
        )
        base = NetSimConfig(
            full_nodes=nodes,
            n_partial=n_partial,
            strategy=CautiousAll(),
            rounds=200,
            master_seed=int(rng.integers(-100, 100)),
        )
        for strategy in strategies:
            _assert_report_matches_oracle(replace(base, strategy=strategy))


def test_fixed_routes_count_one_row_for_all_partial_nodes(monkeypatch):
    # A fixed route reaches the counts as one (m, 1, 1) column however many
    # partial nodes send it, and every report still equals the oracle's,
    # which flags each partial node in each round, across chunk boundaries.
    shapes = []
    add = sim_harness._Totals.add

    def counted(self, bits, *args):
        shapes.append(bits.shape)
        add(self, bits, *args)

    monkeypatch.setattr(sim_harness._Totals, "add", counted)
    monkeypatch.setattr(sim_harness, "_CHUNK", 64)
    rng = np.random.default_rng(35)
    point = CorrelatedDistribution.point_mass(Profile.from_index(5, 3))
    mixed = CorrelatedDistribution(m=3, g=rng.dirichlet(np.ones(8)))
    for n_partial in (1, 2, 5, 64, 127, 128, 200):
        # Service keeps pace with the routed load, so some rounds overflow and some do not.
        base = _config(mu=n_partial + 6.0, capacity=n_partial + 4, n_partial=n_partial, rounds=200)
        configs = [replace(base, strategy=strategy) for strategy in (CautiousAll(), point, mixed)]
        shapes.clear()
        assert repr(simulate(configs)) == repr([_oracle_report(c) for c in configs])
        assert shapes == [(3, 1, 1), (3, 1, 1), (3, n_partial, 64)] * 3 + [(3, 1, 1), (3, 1, 1), (3, n_partial, 8)]


def test_near_point_masses_still_draw(monkeypatch):
    draws = []

    def counted(*args, **kwargs):
        draws.append(args)
        fill_streams(*args, **kwargs)

    monkeypatch.setattr(sim_harness, "fill_streams", counted)
    for m in range(1, 6):
        # All but 1e-12 of the mass on profile 1, the rest spread: the
        # lowest uniform picks profile 0.
        near = np.full(1 << m, 1e-12 / ((1 << m) - 1))
        near[1] = 1.0 - 1e-12
        # A cumulative ending below 1.0 with its mass on profile 0: the
        # highest uniform clips to the last profile.
        short = np.zeros(1 << m)
        short[0] = 1.0 - 1e-10
        for g in (near, short):
            strategy = CorrelatedDistribution(m=m, g=g)
            for n_partial in range(1, 5):
                draws.clear()
                _assert_report_matches_oracle(_config(m=m, n_partial=n_partial, rounds=200, strategy=strategy))
                assert len(draws) == 1


def test_memory_is_flat_in_rounds():
    spec = GameSpec.uniform(3, 0.2, 10.0, 5.0)

    def peak(rounds):
        cautious = _config(rounds=rounds)
        configs = [cautious, replace(cautious, strategy=solve_ns(spec).distribution)]
        tracemalloc.start()
        try:
            simulate(configs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunk = sim_harness._CHUNK
    assert peak(8 * chunk) <= 1.25 * peak(2 * chunk)


def test_many_strategies_stay_within_the_estimate():
    # NetSimConfig budgets one rep for two drawn routes' flags; with more
    # drawn routes the chunks shrink in proportion, so ten strategies peak
    # no higher than two.
    rng = np.random.default_rng(29)
    base = _config(n_partial=20, rounds=sim_harness._CHUNK)
    strategies = [CorrelatedDistribution(m=3, g=rng.dirichlet(np.ones(8))) for _ in range(9)]
    configs = [base] + [replace(base, strategy=strategy) for strategy in strategies]

    def peak(configs):
        tracemalloc.start()
        try:
            simulate(configs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    estimate = sim_harness._CHUNK * (20 * (7 * 3 + 24) + 8 * 3 + 48)
    # Two drawn routes: CautiousAll, the first config, stores no flags.
    ten, two = peak(configs), peak(configs[1:3])
    assert ten <= estimate and ten <= 1.1 * two


def test_simulate_takes_one_rep():
    base = _config(rounds=50)
    spec = GameSpec.uniform(3, 0.2, 10.0, 5.0)
    equilibrium = replace(base, strategy=solve_ns(spec).distribution)
    assert len(simulate([base, equilibrium, base])) == 3
    other_nodes = replace(
        base, full_nodes=base.full_nodes[:2] + (FullNode(params=RateParams(lam=3.0, mu=6.0), capacity=5),)
    )
    for other in (
        other_nodes,
        replace(base, n_partial=2),
        replace(base, rounds=51),
        replace(base, master_seed=43),
    ):
        with pytest.raises(ValueError, match="differ only in strategy"):
            simulate([equilibrium, other])
    with pytest.raises(ValueError):
        simulate([])


def test_package_exports_one_simulation_routine():
    assert [name for name in nodesync.__all__ if not hasattr(nodesync, name)] == []
    assert "simulate" in nodesync.__all__ and nodesync.simulate is simulate
    public = {
        name
        for name, obj in vars(sim_harness).items()
        if inspect.isfunction(obj) and obj.__module__ == sim_harness.__name__ and name[0] != "_"
    }
    assert public == {"simulate", "run_network_sim"}
    assert run_network_sim.__name__ == "run_network_sim"


def _fail_flags(inflow, served, capacity, backlog=0):
    """_fail_series on one queue, in fresh buffers: its flags and end backlog."""
    walk = np.array(inflow, dtype=np.int64)
    fails = np.empty(len(walk), dtype=bool)
    end = np.array(backlog, dtype=np.int64)
    _fail_series(walk, served, capacity, end, np.empty_like(walk), fails)
    return fails, int(end)


def test_fail_series_closed_form_matches_lindley_loop():
    rng = make_rng(1952)
    for _ in range(300):
        rounds = int(rng.integers(1, 400))
        lam, mu = rng.uniform(0.0, 12.0, size=2)
        inflow = rng.poisson(lam, rounds) + rng.integers(0, 3) * rng.integers(0, 2, rounds)
        served = rng.poisson(mu, rounds)
        capacity = int(rng.choice([0, 1, 4, 25, 10**9]))
        got, end = _fail_flags(inflow, served, capacity)
        assert (got.tolist(), end) == fail_series(inflow.tolist(), served.tolist(), capacity)
    # Saturated: every round brings more than capacity and is never drained.
    inflow = np.full(50, 7)
    assert _fail_flags(inflow, np.full(50, 2), 6)[0].all()
    # Capacity 0 with nothing routed never overflows.
    assert not _fail_flags(np.zeros(20, dtype=np.int64), np.full(20, 3), 0)[0].any()


def test_fail_series_edges_match_lindley_loop():
    rng = make_rng(2021)
    cases = [(np.array([a]), np.array([b]), c) for a in (0, 1, 5) for b in (0, 3) for c in (0, 1, 4, 10**20)]
    for rounds in (2, 3, 50, 400):
        for capacity in (0, 10**20):
            inflow = rng.poisson(float(rng.uniform(0.0, 8.0)), rounds)
            served = rng.poisson(float(rng.uniform(0.0, 8.0)), rounds)
            cases.append((inflow, served, capacity))
    # A backlog far above the int32 range stays below a capacity above int64.
    cases.append((np.full(30, 2**40), np.zeros(30, dtype=np.int64), 10**20))
    for inflow, served, capacity in cases:
        got, end = _fail_flags(inflow, served, capacity)
        assert got.dtype == bool and got.shape == inflow.shape
        assert (got.tolist(), end) == fail_series(inflow.tolist(), served.tolist(), capacity)


def test_fail_series_split_at_any_round_matches_one_pass():
    rng = make_rng(1953)
    for _ in range(60):
        rounds = int(rng.integers(2, 60))
        lam, mu = rng.uniform(0.0, 10.0, size=2)
        inflow = rng.poisson(lam, rounds)
        served = rng.poisson(mu, rounds)
        capacity = int(rng.choice([0, 2, 6, 10**9]))
        backlog = int(rng.choice([0, 3, 40]))
        whole, end = _fail_flags(inflow, served, capacity, backlog)
        assert (whole.tolist(), end) == fail_series(inflow.tolist(), served.tolist(), capacity, backlog)
        for cut in range(1, rounds):
            head, carried = _fail_flags(inflow[:cut], served[:cut], capacity, backlog)
            tail, last = _fail_flags(inflow[cut:], served[cut:], capacity, carried)
            assert np.concatenate([head, tail]).tolist() == whole.tolist()
            assert last == end


def test_fail_series_rows_are_queues_on_shared_responses():
    # simulate runs one queue per strategy of a full node as the rows of
    # one call, writing the flags into a strided view of its buffer.
    rng = make_rng(1954)
    rounds = 300
    inflow = rng.poisson(4.0, size=(3, rounds)) + rng.integers(0, 3, size=(3, rounds))
    served = rng.poisson(5.0, rounds)
    backlog = np.array([0, 7, 30], dtype=np.int64)
    walk = inflow.astype(np.int64)
    fails = np.ones((3, 2, rounds), dtype=bool)
    end = np.zeros((2, 3), dtype=np.int64)
    end[1] = backlog
    _fail_series(walk, served, 5, end[1], np.empty_like(walk), fails[:, 1])
    for row in range(3):
        want = fail_series(inflow[row].tolist(), served.tolist(), 5, int(backlog[row]))
        assert (fails[row, 1].tolist(), int(end[1, row])) == want
    assert fails[:, 0].all() and not end[0].any()


def test_saturated_nodes_fail_every_round():
    # Ten partial nodes add ten requests per round on top of ambient load;
    # every post-arrival backlog overshoots the capacity from round one.
    report = run_network_sim(_config(n_partial=10, rounds=2000))
    assert report.per_node_failure == (1.0, 1.0, 1.0)
    assert report.sync_success_rate == 0.0
    assert report.predicted_success == 0.0
