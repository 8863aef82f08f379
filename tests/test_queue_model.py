from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import nodesync.queue_model as qm
from nodesync.queue_model import (
    MAX_VECTOR_RATE,
    RateParams,
    TailEstimate,
    estimate_tail,
    fit_decay_slope,
)
from nodesync.seeding import derive_seed, make_rng
from oracles import poisson_inverse, sample_poisson, step_queue, walk_sups


def _sups(params, uniforms):
    """_walk_sups over whole walks, one per row of uniforms, carried from
    zero in int64."""
    total, sup = np.zeros((2, len(uniforms)), dtype=np.int64)
    qm._walk_sups(params, uniforms, total, sup)
    return sup


def _walk_sup(params, horizon, rng):
    """Supremum of one backlog walk over `horizon` slots, drawn from `rng`."""
    return int(_sups(params, rng.random((1, 2 * horizon)))[0])


def _oracle_hits(params, gammas, runs, horizon, master_seed):
    """Hits per threshold of the oracle's int64 walks, one stream per run."""
    sups = [
        int(walk_sups(params, make_rng(derive_seed(master_seed, i)).random((1, 2 * horizon)))[0])
        for i in range(runs)
    ]
    return [sum(s > g for s in sups) for g in gammas]


def test_rate_params_require_stability():
    RateParams(lam=3.0, mu=6.0)
    with pytest.raises(ValueError):
        RateParams(lam=0.0, mu=6.0)
    with pytest.raises(ValueError):
        RateParams(lam=-1.0, mu=6.0)
    with pytest.raises(ValueError):
        RateParams(lam=3.0, mu=3.0)
    # mu / lam must stay finite too: at 1e300 / 1e-300 it overflows to inf.
    for lam, mu in ((math.nan, 6.0), (math.inf, math.inf), (3.0, math.inf), (3.0, math.nan),
                    (1e-300, 1e300), (1e-310, 1.0)):
        with pytest.raises(ValueError):
            RateParams(lam=lam, mu=mu)


def test_sample_poisson_rejects_unsupported_rates():
    rng = make_rng(1)
    for rate in (0.0, -2.0, MAX_VECTOR_RATE * 1.01, float("nan")):
        with pytest.raises(ValueError):
            qm._poisson_inverse(rate, rng.random(10))
    for rate in (0.0, MAX_VECTOR_RATE * 1.01):
        with pytest.raises(ValueError):
            sample_poisson(rate, rng)


def test_sample_poisson_tiny_rate_is_almost_surely_zero():
    assert not qm._poisson_inverse(1e-9, make_rng(7).random(1000)).any()


def test_sample_poisson_matches_poisson_moments():
    rng = make_rng(2024)
    n = 1_000_000
    draws = np.array([sample_poisson(3.0, rng) for _ in range(n)])
    assert draws.mean() == pytest.approx(3.0, abs=0.01)
    assert draws.var(ddof=1) == pytest.approx(3.0, abs=0.05)


def test_sample_poisson_deterministic_given_stream():
    a = [sample_poisson(3.0, make_rng(99)) for _ in range(1)]
    b = [sample_poisson(3.0, make_rng(99)) for _ in range(1)]
    assert a == b
    rng1, rng2 = make_rng(5), make_rng(5)
    assert [sample_poisson(6.0, rng1) for _ in range(200)] == [
        sample_poisson(6.0, rng2) for _ in range(200)
    ]


def test_poisson_counts_matches_scalar_inversion():
    # The oracle walks about `rate` terms per draw, so the largest rate gets
    # fewer draws.
    for rate, n in ((1e-9, 300), (0.5, 300), (3.0, 300), (6.0, 300), (17.25, 300),
                    (30.0, 300), (30.5, 300), (130.0, 300), (3000.0, 100)):
        block = qm._poisson_inverse(rate, make_rng(11).random(n))
        rng = make_rng(11)
        scalar = [sample_poisson(rate, rng) for _ in range(n)]
        assert block.tolist() == scalar


# sha256 over the little-endian int64 draws _poisson_inverse(rate,
# make_rng(seed).random(2**17)) for seeds 0 to 7 in turn, at rates up to
# 30.  They were recorded while these tables were still built by the
# p_{k+1} = p_k * rate/(k+1) recurrence, and the log-space tables draw the
# same counts.  The rates from 130 up were recorded later; their tables
# have no head, so every uniform goes to the binary search.
_GOLDEN_DRAWS = {
    1e-9: "2daeb1f36095b44b318410b3f4e8b5d989dcc7bb023d1426c492dab0a3053e74",
    1e-3: "3b3ffb88fa21a69cb9621cb5eecfb14aa04a4e8cb3a415f005c82469b754cb72",
    0.5: "fd621eedfb54ab30f733ffb15f353e88d4a40c830f7692c2c8c818475c843368",
    3.0: "2793379354bc6e796d9df852877b60fba129f9c261bd87b0ff287ba6fefc6e52",
    6.0: "6ecd375fd05c3d83d4ebe8b3e1e7e199f0ec3d14e36398e1b713e161b9e52329",
    10.0: "ccb77d678a1f2c3d8101b0b24f61c2ccd7664941ad61695a810f3d779c811514",
    29.9: "577e3b5d673f3303f40831c6f3685e070dfe5304ac15bdba7839da3914cf0b02",
    30.0: "cedccdd01bebef135706e5cf4d222f5ac5da6879baf5f1858da02c495ce1a9e4",
    130.0: "b789c1498c47dc69c20946fc1c536755c6e3adb15d7a946e21cef1b177a2684b",
    240.0: "50ce2541134f3a8872b5447a51232c3924beaed489d95783e150e5faa58feb9f",
    3000.0: "fbdede9439d0ed3f4044f800bddbb28afe173a3251d20d951ff2206632c8a040",
    50_000.0: "7b6a4a0b83467e04839c6a69abe41a8419b265ddd5f179a92bd14d0a8d0af88f",
}


@pytest.mark.parametrize("rate", sorted(_GOLDEN_DRAWS))
def test_poisson_counts_keep_their_recorded_draws(rate):
    digest = hashlib.sha256()
    for seed in range(8):
        draws = qm._poisson_inverse(rate, make_rng(seed).random(2**17))
        digest.update(draws.astype("<i8").tobytes())
    assert digest.hexdigest() == _GOLDEN_DRAWS[rate]


def test_estimate_tail_rejects_rates_beyond_table_guard():
    # The CDF table grows with the rate; above the guard the rate is refused,
    # as it is in netsim, instead of building a table of that size.
    with pytest.raises(ValueError):
        estimate_tail(RateParams(lam=60_000.0, mu=70_000.0), [1], runs=2, horizon=3, master_seed=0)
    with pytest.raises(ValueError):
        _walk_sup(RateParams(lam=3.0, mu=1e9), 3, make_rng(0))


@pytest.mark.parametrize(
    "rate", [1e-9, 0.5, 3.0, 6.0, 29.9, 30.5, 90.0, 200.0, 3000.0, 50_000.0]
)
def test_poisson_inverse_equals_binary_search_oracle(rate):
    # Seeded uniforms plus every point where a comparison could go the other
    # way: each table entry, its neighbours in both directions, and the ends
    # of the uniform range.
    cdf, _, dtype = qm._poisson_table(rate)
    u = np.concatenate(
        [
            make_rng(17).random(200_000),
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf[cdf < 1.0], 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ]
    )
    draws = qm._poisson_inverse(rate, u)
    assert np.array_equal(draws, poisson_inverse(rate, u))
    assert draws.dtype == dtype
    # A strided two-dimensional view, as the walk passes its halves, inverts
    # alike.
    grid = make_rng(18).random((300, 900))[:, 100:800]
    assert np.array_equal(qm._poisson_inverse(rate, grid), poisson_inverse(rate, grid))


def test_table_head_cutoff():
    # The exactness rates above cover both sides of the cut-off: 90 is
    # counted over its whole head, 200 goes to the binary search alone.
    assert 0 < qm._poisson_table(90.0)[1] <= qm._MAX_HEAD
    assert qm._poisson_table(200.0)[1] == 0


def test_table_count_type_holds_table_range():
    # Table lengths 21 to 52,704, with 128 and 129 (rates 35.6 and 36) on
    # either side of the int8 limit; rates 30.5, 200 and 50,000 have 117,
    # 390 and 52,704 entries.
    dtypes = {}
    for rate in (1e-9, 3.0, 6.0, 30.5, 35.6, 36.0, 200.0, 3000.0, 40_000.0, 50_000.0):
        cdf, _, dtype = qm._poisson_table(rate)
        info = np.iinfo(dtype)
        assert info.min <= -(len(cdf) - 1) and len(cdf) - 1 <= info.max
        dtypes[rate] = dtype
    assert dtypes[30.5] == dtypes[35.6] == np.int8
    assert dtypes[36.0] == dtypes[200.0] == np.int16
    assert dtypes[50_000.0] == np.int32


def test_poisson_table_is_built_once_per_rate():
    before = qm._poisson_table.cache_info().misses
    u = make_rng(5).random(1000)
    for _ in range(100):
        qm._poisson_inverse(7.125, u)
    assert qm._poisson_table.cache_info().misses == before + 1
    # Every caller shares the cached table, so no caller can write to it.
    assert not qm._poisson_table(7.125)[0].flags.writeable
    # A rejected rate is never cached: it raises on every call.
    for _ in range(2):
        with pytest.raises(ValueError):
            qm._poisson_inverse(50_001.0, u)


def test_walk_dtype_width_rule():
    # |S_t| <= horizon * (table_len - 1), so int32 suffices below 2**31.
    assert qm._walk_dtype(5000, 36) == np.int32
    assert qm._walk_dtype(2**31 // 35, 36) == np.int32
    assert qm._walk_dtype(2**31 // 35 + 1, 36) == np.int64
    assert qm._walk_dtype(1, 2**31) == np.int32
    assert qm._walk_dtype(1, 2**31 + 1) == np.int64
    assert qm._walk_dtype(50_000, 52_704) == np.int64


@pytest.mark.parametrize(
    "lam, mu", [(3.0, 6.0), (0.5, 0.9), (20.0, 25.0), (29.0, 45.0), (400.0, 420.0)]
)
def test_walk_sups_equals_int64_oracle_walk(lam, mu):
    params = RateParams(lam=lam, mu=mu)
    for seed in range(3):
        uniforms = make_rng(seed).random((40, 2 * 700))
        assert np.array_equal(_sups(params, uniforms), walk_sups(params, uniforms))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_walk_sups_carried_across_chunks_equal_whole_walks(dtype):
    # A chunk's row is its arrival uniforms, then its response uniforms.
    params = RateParams(lam=5.0, mu=5.2)
    horizon = 700
    uniforms = make_rng(8).random((30, 2 * horizon))
    total, sup = np.zeros((2, 30), dtype=dtype)
    for t0, t1 in ((0, 1), (1, 300), (300, 301), (301, horizon)):
        chunk = np.hstack([uniforms[:, t0:t1], uniforms[:, horizon + t0 : horizon + t1]])
        qm._walk_sups(params, chunk, total, sup)
    assert np.array_equal(sup, walk_sups(params, uniforms))
    arrivals = poisson_inverse(5.0, uniforms[:, :horizon])
    responses = poisson_inverse(5.2, uniforms[:, horizon:])
    assert np.array_equal(total, (arrivals - responses).sum(axis=1))
    assert 0 < np.count_nonzero(sup) < 30


def test_poisson_counts_large_rate_moments():
    draws = qm._poisson_inverse(3000.0, make_rng(3).random(20_000))
    assert draws.mean() == pytest.approx(3000.0, abs=2.0)
    assert draws.var(ddof=1) == pytest.approx(3000.0, rel=0.05)


@pytest.mark.parametrize(
    "q, a, r, expected",
    [(0, 0, 0, 0), (2, 3, 4, 1), (1, 0, 5, 0), (10, 2, 3, 9)],
)
def test_step_queue_examples(q, a, r, expected):
    assert step_queue(q, a, r) == expected


def test_step_queue_rejects_negative_inputs():
    for bad in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
        with pytest.raises(ValueError):
            step_queue(*bad)


def test_step_queue_positive_part_identity():
    rng = make_rng(13)
    for _ in range(500):
        q, a, r = (int(v) for v in rng.integers(0, 50, size=3))
        out = step_queue(q, a, r)
        assert out >= 0
        assert out >= q + a - r
        assert out == max(q + a - r, 0)


def test_walk_sups_basics():
    params = RateParams(lam=3.0, mu=6.0)
    # One supremum per row; a row of 2 * 500 uniforms is a 500-slot walk.
    sups = _sups(params, make_rng(1).random((3, 2 * 500)))
    assert sups.shape == (3,)
    assert sups.min() >= 0
    with pytest.raises(ValueError):
        estimate_tail(params, [1], runs=1, horizon=0, master_seed=1)


def test_walk_sups_draw_order_contract():
    params = RateParams(lam=3.0, mu=6.0)
    horizon = 200
    sup = _walk_sup(params, horizon, make_rng(77))
    rng = make_rng(77)
    arrivals = qm._poisson_inverse(3.0, rng.random(horizon))
    responses = qm._poisson_inverse(6.0, rng.random(horizon))
    walk = np.cumsum(arrivals - responses, dtype=np.int64)
    assert sup == max(int(walk.max()), 0)


def test_walk_sups_overwhelming_response_rate():
    # Drift of -2997 per slot: the first-slot arrivals never beat the
    # responses, so the supremum stays at the floor.
    params = RateParams(lam=3.0, mu=3000.0)
    for seed in range(10):
        assert _walk_sup(params, 10_000, make_rng(seed)) == 0


def test_estimate_tail_shares_one_run_set():
    params = RateParams(lam=3.0, mu=6.0)
    estimates = estimate_tail(params, [0, 3, 6], runs=2000, horizon=300, master_seed=42)
    p = [e.p_hat for e in estimates]
    assert 0 < p[0] < 1
    assert p[0] >= p[1] >= p[2]
    for e in estimates:
        assert e.runs == 2000
        assert e.hits == round(e.p_hat * e.runs)
        assert e.std_err == pytest.approx(math.sqrt(e.p_hat * (1 - e.p_hat) / e.runs))
        assert type(e.p_hat) is float


def test_estimate_tail_validation():
    params = RateParams(lam=3.0, mu=6.0)
    with pytest.raises(ValueError):
        estimate_tail(params, [], runs=10, horizon=10, master_seed=0)
    with pytest.raises(ValueError):
        estimate_tail(params, [3, 3], runs=10, horizon=10, master_seed=0)
    with pytest.raises(ValueError):
        estimate_tail(params, [5, 3], runs=10, horizon=10, master_seed=0)
    with pytest.raises(ValueError):
        estimate_tail(params, [1], runs=0, horizon=10, master_seed=0)
    with pytest.raises(ValueError):
        estimate_tail(params, [1], runs=10, horizon=0, master_seed=0)
    for gammas in ([-math.inf, 3], [3, math.inf], [math.inf], [math.nan]):
        with pytest.raises(ValueError):
            estimate_tail(params, gammas, runs=10, horizon=10, master_seed=0)


def test_estimate_tail_accepts_thresholds_whose_gap_overflows():
    # 1e308 - (-1e308) overflows, so the order check must not subtract.
    estimates = estimate_tail(RateParams(3, 6), [-1e308, 1e308], 20, 20, 1)
    assert [est.hits for est in estimates] == [20, 0]


def test_estimate_tail_equals_independent_walks():
    params = RateParams(lam=3.0, mu=6.0)
    runs, horizon = 40, 120
    estimates = estimate_tail(params, [2, 5], runs=runs, horizon=horizon, master_seed=9)
    sups = [_walk_sup(params, horizon, make_rng(derive_seed(9, i))) for i in range(runs)]
    assert estimates[0].hits == sum(s > 2 for s in sups)
    assert estimates[1].hits == sum(s > 5 for s in sups)


@pytest.mark.parametrize("lam, mu", [(3.0, 6.0), (200.0, 240.0)])
@pytest.mark.parametrize("master_seed", [-1, 2**64 + 3])
def test_estimate_tail_matches_independent_walks_across_batches(monkeypatch, lam, mu, master_seed):
    params = RateParams(lam=lam, mu=mu)
    runs, horizon, gammas = 53, 80, [0, 2, 5]
    # 6-walk batches: eight full ones, then one of 5.
    monkeypatch.setattr(qm, "_BLOCK", 6 * horizon + 7)
    estimates = estimate_tail(params, gammas, runs=runs, horizon=horizon, master_seed=master_seed)
    sups = [_walk_sup(params, horizon, make_rng(derive_seed(master_seed, i))) for i in range(runs)]
    assert [est.hits for est in estimates] == [sum(s > g for s in sups) for g in gammas]
    assert 0 < estimates[0].hits < runs


def test_estimate_tail_independent_of_batch_size(monkeypatch):
    params = RateParams(lam=3.0, mu=6.0)
    baseline = estimate_tail(params, [1, 4], runs=300, horizon=100, master_seed=3)
    # 7-walk batches, which do not divide the runs, and the 1-walk floor.
    for block in (7 * 100, 50):
        monkeypatch.setattr(qm, "_BLOCK", block)
        rebatched = estimate_tail(params, [1, 4], runs=300, horizon=100, master_seed=3)
        assert baseline == rebatched


@pytest.mark.parametrize("lam, mu", [(3.0, 6.0), (200.0, 240.0)])
@pytest.mark.parametrize(
    "block, horizon, runs",
    [
        (64, 150, 120),  # one-walk batches in chunks of 64, 64 and 22 slots
        (64, 30, 125),  # 2-walk batches of whole walks, the last of one walk
        (64, 64, 100),  # one-walk batches, each walk one full chunk
        (50, 1, 420),  # 50 one-slot walks a batch, the last of 20
    ],
)
def test_estimate_tail_in_slot_chunks_matches_oracle_walks(monkeypatch, lam, mu, block, horizon, runs):
    params = RateParams(lam=lam, mu=mu)
    gammas = [0, 2, 5]
    monkeypatch.setattr(qm, "_BLOCK", block)
    estimates = estimate_tail(params, gammas, runs=runs, horizon=horizon, master_seed=-7)
    assert [est.hits for est in estimates] == _oracle_hits(params, gammas, runs, horizon, -7)
    assert 0 < estimates[0].hits < runs


def test_estimate_tail_walk_longer_than_a_block_matches_oracle():
    params = RateParams(lam=5.0, mu=5.2)
    gammas = [0, 10, 50, 100]
    horizon = 300_000  # chunks of 2^17, 2^17 and 37,856 slots
    estimates = estimate_tail(params, gammas, runs=2, horizon=horizon, master_seed=3)
    assert [est.hits for est in estimates] == _oracle_hits(params, gammas, 2, horizon, 3)
    assert estimates[1].hits > 0


def test_estimate_tail_inverts_at_most_one_block(monkeypatch):
    sizes = []
    inverse = qm._poisson_inverse

    def recording_inverse(rate, u):
        sizes.append(u.size)
        return inverse(rate, u)

    monkeypatch.setattr(qm, "_poisson_inverse", recording_inverse)
    estimate_tail(RateParams(lam=3.0, mu=6.0), [2], runs=60, horizon=5000, master_seed=4)
    assert sizes and max(sizes) <= qm._BLOCK
    sizes.clear()
    # A walk longer than a block is drawn in chunks of at most one block.
    estimate_tail(RateParams(lam=3.0, mu=6.0), [2], runs=1, horizon=300_000, master_seed=4)
    assert sizes == [qm._BLOCK] * 4 + [300_000 - 2 * qm._BLOCK] * 2


def test_estimate_tail_bounds_the_horizon_before_drawing(monkeypatch):
    params = RateParams(lam=3.0, mu=6.0)

    def unreachable(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(qm, "fill_streams", unreachable)
    with pytest.raises(ValueError, match=r"at most 67108864 slots \(MAX_HORIZON\), got 67108865"):
        estimate_tail(params, [2], runs=1, horizon=qm.MAX_HORIZON + 1, master_seed=1)
    monkeypatch.undo()
    # The bound itself is accepted, shown on a smaller one.
    monkeypatch.setattr(qm, "MAX_HORIZON", 1000)
    assert len(estimate_tail(params, [2], runs=1, horizon=1000, master_seed=1)) == 1
    with pytest.raises(ValueError, match="MAX_HORIZON"):
        estimate_tail(params, [2], runs=1, horizon=1001, master_seed=1)


def test_estimate_tail_counts_many_thresholds_without_a_hit_matrix():
    # 20,000 walks against 200,000 thresholds: a walks x thresholds matrix
    # of bools alone would take 4 GB.
    params = RateParams(lam=3.0, mu=6.0)
    gammas = np.arange(-100_000, 100_000) / 20_000
    estimates = estimate_tail(params, gammas, runs=20_000, horizon=1, master_seed=6)
    sups = np.empty((20_000, 2))
    qm.fill_streams(6, 0, sups)
    sups = np.sort(walk_sups(params, sups))
    want = 20_000 - np.searchsorted(sups, gammas, side="right")
    assert [est.hits for est in estimates] == want.tolist()
    assert estimates[0].hits == 20_000 and 0 < estimates[100_000].hits < 20_000


def _traced_peak(*args):
    """Traced peak of one estimate_tail call; the tables are built first."""
    estimate_tail(*args)
    tracemalloc.start()
    try:
        estimate_tail(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_walk_traced_peak_is_flat_in_the_horizon():
    params = RateParams(lam=3.0, mu=6.0)
    peaks = [_traced_peak(params, [2], 1, horizon, 5) for horizon in (2**17 + 1, 10**6, 10**7)]
    # A whole walk of 10^6 slots took 25.8 MiB, one of 10^7 about 258 MiB.
    assert max(peaks) <= 4 * 2**20
    assert max(peaks) <= 1.1 * min(peaks)


@pytest.mark.parametrize(
    "lam, mu, horizon, runs, thresholds, wide",
    [
        (3.0, 6.0, 1000, 200, 3, False),
        (3.0, 6.0, 20_000, 1, 1, True),
        (3.0, 6.0, 1, 3000, 2, False),
        (3.0, 6.0, 10, 3000, 500, False),
        (200.0, 240.0, 3000, 50, 3, False),
        (3.0, 3000.0, 20_000, 1, 1, True),
        (200.0, 240.0, 1_000_000, 1, 1, True),
    ],
)
def test_tail_traced_peak_stays_within_one_block(monkeypatch, lam, mu, horizon, runs, thresholds, wide):
    # `wide` forces the int64 sums that only walks of millions of slots need.
    if wide:
        monkeypatch.setattr(qm, "_walk_dtype", lambda horizon, table_len: np.int64)
    peak = _traced_peak(RateParams(lam=lam, mu=mu), list(range(1, thresholds + 1)), runs, horizon, 2)
    # A batch draws at most _BLOCK slots of walks at a time, at under 64
    # bytes a slot, and holds a stream state and two carries per walk.
    rows = max(1, min(qm._BLOCK // horizon, runs))
    assert peak <= 64 * qm._BLOCK + 256 * rows + 64 * thresholds


def test_estimate_tail_deterministic_and_seed_sensitive():
    params = RateParams(lam=3.0, mu=6.0)
    first = estimate_tail(params, [2], runs=500, horizon=100, master_seed=10)
    second = estimate_tail(params, [2], runs=500, horizon=100, master_seed=10)
    other = estimate_tail(params, [2], runs=500, horizon=100, master_seed=11)
    assert first == second
    assert first != other


def test_mean_supremum_shrinks_with_faster_responses():
    runs, horizon = 10_000, 200
    means = []
    for mu in (5.0, 8.0):
        params = RateParams(lam=3.0, mu=mu)
        sups = [_walk_sup(params, horizon, make_rng(derive_seed(21, i))) for i in range(runs)]
        means.append(sum(sups) / runs)
    assert means[1] < means[0]


def test_decay_slope_recovered_from_moderate_sample():
    params = RateParams(lam=3.0, mu=6.0)
    estimates = estimate_tail(
        params, list(range(2, 9)), runs=20_000, horizon=1500, master_seed=5
    )
    fit = fit_decay_slope(estimates)
    assert fit.slope == pytest.approx(math.log(2.0), rel=0.20)


def _synthetic(gammas, rate):
    return [
        TailEstimate(gamma=g, runs=1, hits=1, p_hat=math.exp(-rate * g), std_err=0.0)
        for g in gammas
    ]


def test_fit_decay_slope_exact_on_synthetic_exponential():
    fit = fit_decay_slope(_synthetic([1, 2, 3, 4, 5], 0.7))
    assert fit.slope == pytest.approx(0.7, abs=1e-12)
    assert fit.n_used == 5
    assert fit.n_excluded == 0


def test_fit_decay_slope_constant_input_gives_zero():
    estimates = [
        TailEstimate(gamma=g, runs=1, hits=1, p_hat=0.25, std_err=0.0) for g in (1.0, 4.0)
    ]
    assert fit_decay_slope(estimates).slope == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_slope_excludes_zero_cells():
    estimates = _synthetic([1, 2, 3], 0.5)
    estimates.append(TailEstimate(gamma=9.0, runs=10, hits=0, p_hat=0.0, std_err=0.0))
    fit = fit_decay_slope(estimates)
    assert fit.n_excluded == 1
    assert fit.slope == pytest.approx(0.5, abs=1e-12)


def test_fit_decay_slope_needs_two_usable_points():
    lone = _synthetic([1], 0.5)
    with pytest.raises(ValueError):
        fit_decay_slope(lone)
    lone.append(TailEstimate(gamma=2.0, runs=10, hits=0, p_hat=0.0, std_err=0.0))
    with pytest.raises(ValueError):
        fit_decay_slope(lone)
