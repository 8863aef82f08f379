from __future__ import annotations

import math
import time

import numpy as np
import pytest

from nodesync import lp_solver, sync_game
from nodesync.cli import main
from nodesync.lp_solver import LpProblem, LpSolution, LpStatus, Relation
from nodesync.sync_game import (
    MAX_NODES,
    CorrelatedDistribution,
    GameSpec,
    Profile,
    _best_pure_index,
    _equilibrium_lp,
    best_pure_profile,
    is_correlated_equilibrium,
    solve_ns,
)
from oracles import (
    ce_violation,
    class_lp_objective,
    ns_lp_tables,
    profit,
    total_utility,
    utility,
)


def _uniform(m, eps=0.2, alpha=10.0, cost=5.0):
    return GameSpec.uniform(m, eps, alpha, cost)


def _random_spec(rng, m=None):
    m = m or int(rng.integers(1, 7))
    return GameSpec(
        m=m,
        epsilon=tuple(float(v) for v in rng.uniform(0.05, 0.95, size=m)),
        alpha=tuple(float(v) for v in rng.uniform(0.5, 20.0, size=m)),
        cost=tuple(float(v) for v in rng.uniform(0.0, 12.0, size=m)),
    )


def test_game_spec_validation():
    with pytest.raises(ValueError):
        GameSpec(m=0, epsilon=(), alpha=(), cost=())
    with pytest.raises(ValueError):
        GameSpec(m=13, epsilon=(0.2,) * 13, alpha=(1.0,) * 13, cost=(0.0,) * 13)
    with pytest.raises(ValueError):
        GameSpec(m=2, epsilon=(0.2,), alpha=(1.0, 1.0), cost=(0.0, 0.0))
    with pytest.raises(ValueError):
        GameSpec(m=1, epsilon=(0.0,), alpha=(1.0,), cost=(0.0,))
    with pytest.raises(ValueError):
        GameSpec(m=1, epsilon=(1.0,), alpha=(1.0,), cost=(0.0,))
    with pytest.raises(ValueError):
        GameSpec(m=1, epsilon=(0.5,), alpha=(0.0,), cost=(0.0,))
    with pytest.raises(ValueError):
        GameSpec(m=1, epsilon=(0.5,), alpha=(1.0,), cost=(-0.1,))
    # Non-finite inputs would reach the LP as NaN coefficients.
    for alpha, cost in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            GameSpec(m=1, epsilon=(0.5,), alpha=(alpha,), cost=(cost,))


def test_game_spec_keeps_its_own_tuples():
    epsilon, alpha, cost = [0.1, 0.2], np.array([10.0, 8.0]), [1, 2]
    exact = GameSpec(m=2, epsilon=(0.1, 0.2), alpha=(10.0, 8.0), cost=(1.0, 2.0))
    spec = GameSpec(m=2, epsilon=epsilon, alpha=alpha, cost=cost)
    assert spec == exact and hash(spec) == hash(exact)
    assert all(type(v) is float for v in spec.epsilon + spec.alpha + spec.cost)
    want = solve_ns(exact)
    # Invalid values written into the sources after the checks.
    epsilon[0], alpha[0], cost[1] = 5.0, -1.0, math.nan
    got = solve_ns(spec)
    assert spec == exact
    assert (got.objective, got.marginals, got.chosen_profile) == (
        want.objective, want.marginals, want.chosen_profile
    )
    assert got.distribution.g.tobytes() == want.distribution.g.tobytes()


def test_profile_roundtrip_and_validation():
    for m in (1, 3, 6):
        for k in range(1 << m):
            assert Profile.from_index(k, m).index == k
    assert Profile(bits=(1, 0, 1)).index == 0b101
    with pytest.raises(ValueError):
        Profile(bits=())
    with pytest.raises(ValueError):
        Profile(bits=(0, 2))
    with pytest.raises(ValueError):
        Profile.from_index(4, 2)


def test_profit_examples():
    eps = (0.2, 0.2)
    assert profit(Profile(bits=(0, 0)), 0, eps) == 0.0
    assert profit(Profile(bits=(1, 0)), 0, eps) == pytest.approx(1.0)
    assert profit(Profile(bits=(1, 1)), 0, eps) == pytest.approx(0.5)
    assert profit(Profile(bits=(1, 1)), 0, (0.2, 0.6)) == pytest.approx(2.0 / 3.0)
    assert profit(Profile(bits=(1, 1)), 1, (0.2, 0.6)) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        profit(Profile(bits=(1, 0)), 2, eps)
    with pytest.raises(ValueError):
        profit(Profile(bits=(1, 0)), 0, (0.2,))


def test_profit_shares_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(200):
        spec = _random_spec(rng)
        k = int(rng.integers(1, 1 << spec.m))
        p = Profile.from_index(k, spec.m)
        total = sum(profit(p, i, spec.epsilon) for i in range(spec.m))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_utility_examples():
    assert utility(Profile(bits=(0,)), 0, _uniform(1)) == 0.0
    assert utility(Profile(bits=(1,)), 0, _uniform(1)) == pytest.approx(5.0)
    assert utility(Profile(bits=(1, 1)), 0, _uniform(2)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        utility(Profile(bits=(1,)), 0, _uniform(2))


def test_total_utility_under_uniform_parameters():
    # The LP objective is the table of profile totals.
    total = _equilibrium_lp(_uniform(4)).objective
    assert total[Profile(bits=(0, 0, 0, 0)).index] == 0.0
    for k in (1, 2, 8):
        assert total[k] == pytest.approx(5.0)
    assert total[Profile(bits=(1, 1, 0, 0)).index] == pytest.approx(0.0)
    assert total[Profile(bits=(1, 1, 1, 0)).index] == pytest.approx(-5.0)


def test_utility_table_matches_scalar_oracle_exactly():
    rng = np.random.default_rng(2206)
    for m in range(1, 13):
        spec = _random_spec(rng, m=m)
        lp = _equilibrium_lp(spec)
        objective, rows = ns_lp_tables(spec)
        assert np.array(lp.objective).tobytes() == np.array(objective).tobytes()
        assert lp.a.shape[0] == 1 + len(rows)
        for got, expected in zip(lp.a[1:], rows):
            assert got.tobytes() == np.array(expected).tobytes()
        if m <= 8:
            for _ in range(3):
                g = rng.dirichlet(np.full(1 << m, 0.3))
                dropped = rng.random(1 << m) < 0.3
                dropped[np.argmax(g)] = False
                g[dropped] = 0.0
                g /= g.sum()
                dist = CorrelatedDistribution(m=m, g=g)
                check = is_correlated_equilibrium(dist, spec)
                assert check.max_violation == ce_violation(g, spec)


def test_ns_lp_structure():
    small = _equilibrium_lp(_uniform(1))
    assert small.n == 2
    assert small.a.shape == (3, 2)
    assert small.relations[0] is Relation.EQ
    assert all(rel is Relation.GE for rel in small.relations[1:])
    assert small.a[0].tolist() == [1.0, 1.0]
    assert small.rhs.tolist() == [1.0, 0.0, 0.0]

    big = _equilibrium_lp(_uniform(8))
    assert big.n == 256
    assert big.a.shape == (17, 256)


def test_ns_lp_data_is_read_only():
    lp = sync_game._equilibrium_lp(_random_spec(np.random.default_rng(17), m=5))
    assert lp.a.shape == (11, 32)
    for arr in (lp.objective, lp.a, lp.rhs):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_objective_is_a_plain_sum_in_profile_order():
    # Python 3.12's sum() over floats is compensated; the reported objective
    # must stay the uncompensated left-to-right sum over the profiles.  At
    # cost 3 the two differ in the last bit, so this spec tells them apart.
    spec = GameSpec.uniform(m=8, epsilon=0.2, alpha=10.0, cost=3.0)
    report = solve_ns(spec)
    g, total = report.distribution.g.tolist(), _equilibrium_lp(spec).objective.tolist()
    terms = [gk * tk for gk, tk in zip(g, total)]
    plain = 0.0
    for term in terms:
        plain += term
    assert plain != math.fsum(terms)
    assert report.objective == plain


def test_ns_lp_objective_vector_m2():
    lp = _equilibrium_lp(_uniform(2))
    assert lp.objective == pytest.approx((0.0, 5.0, 5.0, 0.0))


def test_point_mass_equilibrium_checks():
    # No profitable unilateral send when every alpha is below the cost.
    timid = GameSpec(m=3, epsilon=(0.2,) * 3, alpha=(4.0,) * 3, cost=(5.0,) * 3)
    zeros = CorrelatedDistribution.point_mass(Profile(bits=(0, 0, 0)))
    assert is_correlated_equilibrium(zeros, timid).ok

    eager = GameSpec(m=3, epsilon=(0.2,) * 3, alpha=(6.0,) * 3, cost=(5.0,) * 3)
    check = is_correlated_equilibrium(zeros, eager)
    assert not check.ok
    assert check.max_violation == pytest.approx(1.0)


def test_single_sender_point_mass_iff_lowest_tolerance():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(2, 7))
        eps = rng.uniform(0.05, 0.95, size=m)
        while len(set(np.round(eps, 6))) < m:
            eps = rng.uniform(0.05, 0.95, size=m)
        spec = GameSpec(
            m=m, epsilon=tuple(float(v) for v in eps), alpha=(10.0,) * m, cost=(5.0,) * m
        )
        lowest = int(np.argmin(eps))
        for k in range(m):
            point = CorrelatedDistribution.point_mass(
                Profile.from_index(1 << k, m)
            )
            assert is_correlated_equilibrium(point, spec).ok == (k == lowest)


def test_is_correlated_equilibrium_dimension_check():
    dist = CorrelatedDistribution.point_mass(Profile(bits=(1, 0)))
    with pytest.raises(ValueError):
        is_correlated_equilibrium(dist, _uniform(3))
    # Wrong shape, a negative entry, a sum off 1, and entries that are not finite.
    nan = float("nan")
    for g in (
        (0.5, 0.5),
        (1.5, -0.5, 0.0, 0.0),
        (0.25, 0.25, 0.25, 0.2),
        (nan, nan, nan, nan),
        (1.0, nan, 0.0, 0.0),
    ):
        with pytest.raises(ValueError):
            CorrelatedDistribution(m=2, g=np.array(g))


def test_distribution_keeps_a_read_only_copy():
    # A source array set to NaN after the checks would route nothing.
    source = np.full(4, 0.25)
    dist = CorrelatedDistribution(m=2, g=source)
    source[:] = np.nan
    assert dist.g.tolist() == [0.25] * 4
    assert dist.g.dtype == np.float64 and not dist.g.flags.writeable
    with pytest.raises(ValueError):
        dist.g[0] = 1.0


def test_best_pure_profile_examples():
    profile, value = best_pure_profile(GameSpec(m=1, epsilon=(0.2,), alpha=(10.0,), cost=(5.0,)))
    assert profile.bits == (1,)
    assert value == pytest.approx(5.0)

    profile, value = best_pure_profile(GameSpec(m=1, epsilon=(0.2,), alpha=(10.0,), cost=(15.0,)))
    assert profile.bits == (0,)
    assert value == 0.0

    profile, value = best_pure_profile(
        GameSpec(m=2, epsilon=(0.2, 0.4), alpha=(10.0, 10.0), cost=(5.0, 5.0))
    )
    assert profile.bits == (1, 0)
    assert value == pytest.approx(5.0)


def test_solve_ns_request_decision_sweeps():
    # Sweep of the first node's tolerance with the rest pinned low, then high.
    for eps_rest, expected_p1 in (
        (0.2, [1, 1, 0, 0, 0, 0, 0, 0, 0]),
        (0.8, [1, 1, 1, 1, 1, 1, 1, 1, 0]),
    ):
        got = []
        for step in range(1, 10):
            eps1 = round(0.1 * step, 1)
            spec = GameSpec(
                m=8,
                epsilon=(eps1,) + (eps_rest,) * 7,
                alpha=(10.0,) * 8,
                cost=(5.0,) * 8,
            )
            report = solve_ns(spec)
            got.append(report.chosen_profile.bits[0])
            assert report.objective == pytest.approx(5.0, abs=1e-8)
        assert got == expected_p1


def test_solve_ns_uniform_boundary_value():
    report = solve_ns(_uniform(8))
    assert report.objective == pytest.approx(5.0, abs=1e-8)
    assert sum(report.chosen_profile.bits) == 1


def test_solve_ns_report_consistency_on_random_specs():
    rng = np.random.default_rng(91)
    for _ in range(40):
        spec = _random_spec(rng, m=int(rng.integers(1, 6)))
        report = solve_ns(spec)
        g = report.distribution.g
        assert g.min() >= 0
        assert g.sum() == pytest.approx(1.0, abs=1e-9)
        assert is_correlated_equilibrium(report.distribution, spec, tol=1e-8).ok
        expected = sum(
            g[k] * total_utility(Profile.from_index(k, spec.m), spec)
            for k in range(1 << spec.m)
        )
        assert report.objective == pytest.approx(expected, abs=1e-8)
        for i, marginal in enumerate(report.marginals):
            assert -1e-12 <= marginal <= 1 + 1e-12
            mass = sum(g[k] for k in range(1 << spec.m) if (k >> i) & 1)
            assert marginal == pytest.approx(mass, abs=1e-12)


def test_solve_ns_dominates_best_pure_profile():
    rng = np.random.default_rng(17)
    for _ in range(40):
        spec = _random_spec(rng)
        report = solve_ns(spec)
        _, pure_value = best_pure_profile(spec)
        assert report.objective >= pure_value - 1e-8


def test_parameter_scaling_preserves_decision():
    rng = np.random.default_rng(55)
    for _ in range(15):
        spec = _random_spec(rng, m=4)
        factor = 2.75
        scaled = GameSpec(
            m=spec.m,
            epsilon=spec.epsilon,
            alpha=tuple(factor * a for a in spec.alpha),
            cost=tuple(factor * c for c in spec.cost),
        )
        base = solve_ns(spec)
        lifted = solve_ns(scaled)
        assert lifted.objective == pytest.approx(factor * base.objective, abs=1e-8)
        assert lifted.chosen_profile == base.chosen_profile


def test_chosen_profile_is_minimal_tolerance_sender():
    # With uniform alpha=10, cost=5 and distinct tolerances, the single
    # point-mass equilibria sit exactly on the minimum-tolerance nodes.
    rng = np.random.default_rng(123)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        eps = sorted(float(v) for v in rng.uniform(0.05, 0.95, size=m))
        if len(set(eps)) < m:
            continue
        order = rng.permutation(m)
        eps_vec = tuple(eps[int(np.nonzero(order == i)[0][0])] for i in range(m))
        spec = GameSpec(m=m, epsilon=eps_vec, alpha=(10.0,) * m, cost=(5.0,) * m)
        report = solve_ns(spec)
        assert sum(report.chosen_profile.bits) == 1
        sender = report.chosen_profile.bits.index(1)
        assert eps_vec[sender] == min(eps_vec)


# Specs on which the cold-start simplex (phase 1 from the artificial basis,
# Bland's rule) ended in "basis matrix became singular" after thousands of
# degenerate pivots.  The first is spec 13 of the benchmark's game_hetero
# catalogue (seed 2206); the others are linspace(0.1, 0.5, m).
_SINGULAR_COLD_START = {
    "catalogue13": (
        0.13696185272000977, 0.23274700421690392, 0.2052927274439167, 0.19400631149760833,
        0.24011745891715625, 0.1778969651186969, 0.08238863550718152, 0.19441458119669314,
        0.5954820364125181, 0.39796303253609544,
    ),
    **{f"linspace{m}": tuple(np.linspace(0.1, 0.5, m).tolist()) for m in (10, 11, 12)},
}


@pytest.mark.parametrize("name", sorted(_SINGULAR_COLD_START))
def test_solve_ns_degenerate_regressions(name):
    epsilon = _SINGULAR_COLD_START[name]
    m = len(epsilon)
    spec = GameSpec(m=m, epsilon=epsilon, alpha=(10.0,) * m, cost=(5.0,) * m)
    start = time.perf_counter()
    report = solve_ns(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert is_correlated_equilibrium(report.distribution, spec, tol=1e-8).ok
    assert report.objective >= best_pure_profile(spec)[1] - 1e-8


def test_solve_ns_random_sweep_up_to_max_nodes():
    rng = np.random.default_rng(2026)
    sizes = []
    for _ in range(240):
        spec = _random_spec(rng, m=int(rng.integers(1, MAX_NODES + 1)))
        sizes.append(spec.m)
        report = solve_ns(spec)
        check = is_correlated_equilibrium(report.distribution, spec, tol=1e-8)
        assert check.ok, f"violation {check.max_violation} for {spec}"
        assert report.objective >= best_pure_profile(spec)[1] - 1e-8, spec
    assert set(sizes) == set(range(1, MAX_NODES + 1))


def test_solve_ns_without_pure_equilibrium_runs_phase_1(monkeypatch):
    # No spec without a pure equilibrium is known, so the lookup is made to
    # fail: the LP then runs from the artificial basis and must agree.
    def no_pure(tables):
        raise LookupError("no pure-profile correlated equilibrium exists for this spec")

    rng = np.random.default_rng(8)
    specs = [_random_spec(rng) for _ in range(15)]
    warm = [solve_ns(spec) for spec in specs]
    monkeypatch.setattr(sync_game, "_best_pure_index", no_pure)
    for spec, want in zip(specs, warm):
        got = solve_ns(spec)
        assert got.objective == pytest.approx(want.objective, abs=1e-8)
        assert is_correlated_equilibrium(got.distribution, spec, tol=1e-8).ok


def test_best_pure_index_raises_when_every_profile_has_a_gain_to_switch():
    # Node 0's skip row gets a keep gain just below the -1e-9 tolerance in
    # every column.
    lp = _equilibrium_lp(_uniform(2))
    a = lp.a.copy()
    a[1] = -2e-9
    edited = LpProblem(lp.objective, a, lp.relations, lp.rhs)
    with pytest.raises(LookupError, match="no pure-profile"):
        _best_pure_index(edited)


_FAILED_SOLVES = {
    "infeasible": (
        LpSolution(status=LpStatus.INFEASIBLE),
        "equilibrium program reported infeasible",
    ),
    # Nobody sends, although each node would earn alpha - cost > 0 alone.
    "non_equilibrium": (
        LpSolution(status=LpStatus.OPTIMAL, x=np.array([1.0, 0.0, 0.0, 0.0]), objective_value=0.0),
        "fails the equilibrium check",
    ),
}


@pytest.mark.parametrize("name", sorted(_FAILED_SOLVES))
def test_solve_ns_rejects_a_bad_answer(name, monkeypatch, capsys):
    answer, message = _FAILED_SOLVES[name]
    monkeypatch.setattr(lp_solver, "solve", lambda problem, start=None: answer)
    with pytest.raises(RuntimeError, match=message):
        solve_ns(GameSpec.uniform(2, 0.2, 10.0, 1.0))
    code = main(["decide", "--m", "2", "--alpha", "10", "--cost", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err


def _highs_objective(optimize, spec):
    """The best correlated equilibrium's total utility, as HiGHS finds it."""
    lp = _equilibrium_lp(spec)
    res = optimize.linprog(
        -lp.objective,
        A_ub=-lp.a[1:],
        b_ub=np.zeros(len(lp.a) - 1),
        A_eq=lp.a[:1],
        b_eq=[1.0],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def test_solve_ns_objective_matches_highs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(404)
    specs = [_random_spec(rng, m=int(rng.integers(1, MAX_NODES + 1))) for _ in range(40)]
    specs += [
        GameSpec(m=len(eps), epsilon=eps, alpha=(10.0,) * len(eps), cost=(5.0,) * len(eps))
        for eps in _SINGULAR_COLD_START.values()
    ]
    for spec in specs:
        want = _highs_objective(optimize, spec)
        assert solve_ns(spec).objective == pytest.approx(want, abs=1e-7), spec


def _high_ratio_specs():
    """Thirty specs where profit is high next to cost: m = 8..10,
    tolerances round(U[0.05, 0.95], 2), alpha = 10 and alpha/cost in
    {20, 60, 100, 260}.  Their equilibrium LPs are massively degenerate:
    the simplex makes thousands of pivots, most of them at one vertex.
    Two specs from the same generator at seed 8 (its specs 17 and 26)
    close the list: on them the simplex re-entered a basic column whose
    reduced cost round-off made negative, and pivoted on a round-off entry
    into a singular basis."""
    rng = np.random.default_rng(20261018)
    specs = {}
    for k in range(30):
        m = 8 + k % 3
        ratio = (20, 60, 100, 260)[k % 4]
        eps = tuple(round(float(e), 2) for e in rng.uniform(0.05, 0.95, size=m))
        specs[f"spec{k}"] = (eps, ratio)
    specs["basic_column"] = ((0.68, 0.43, 0.19, 0.27, 0.95, 0.33, 0.35, 0.51, 0.15, 0.19), 60)
    specs["round_off_pivot"] = ((0.81, 0.42, 0.06, 0.24, 0.25, 0.11, 0.92, 0.44, 0.55, 0.59), 100)
    return {
        name: GameSpec(m=len(e), epsilon=e, alpha=(10.0,) * len(e), cost=(10.0 / r,) * len(e))
        for name, (e, r) in specs.items()
    }


_HIGH_RATIO = _high_ratio_specs()


def _warm_pivots(spec):
    """Pivots of the equilibrium LP from solve_ns's start: the best pure
    profile's point mass with the 2m surplus columns basic."""
    n = 1 << spec.m
    start = [best_pure_profile(spec)[0].index] + list(range(n, n + 2 * spec.m))
    return lp_solver.solve(_equilibrium_lp(spec), start=start).pivots


@pytest.mark.parametrize("name", list(_HIGH_RATIO))
def test_solve_ns_high_profit_to_cost_sweep(name):
    spec = _HIGH_RATIO[name]
    start = time.perf_counter()
    report = solve_ns(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert is_correlated_equilibrium(report.distribution, spec, tol=1e-8).ok
    assert report.objective >= best_pure_profile(spec)[1] - 1e-8
    # The relaxed phase 2 made at most 1,264 pivots on these specs; Bland's
    # rule on the true bounds made up to 22,711.
    pivots = _warm_pivots(spec)
    assert pivots < 5000, f"{pivots} pivots"
    # Cold, phase 1 starts the 2m deviation rows on their surplus columns
    # and runs relaxed like phase 2: at most 1,333 pivots on these specs,
    # where Bland's rule from 2m + 1 artificials made up to 4,918.
    cold = lp_solver.solve(_equilibrium_lp(spec))
    assert cold.status is LpStatus.OPTIMAL
    assert cold.objective_value == pytest.approx(report.objective, abs=1e-9)
    assert cold.pivots < 2000, f"{cold.pivots} cold pivots"
    try:
        from scipy import optimize
    except ImportError:
        return
    assert report.objective == pytest.approx(_highs_objective(optimize, spec), abs=1e-7)


def test_solve_ns_degenerate_stall_spec():
    # The start, the point mass on "send to all 10", is already optimal, so
    # every pivot is degenerate: Bland's rule on the true bounds walked
    # 96,995 bases at this vertex before proving optimality.
    m = 10
    eps = (0.63, 0.37, 0.68, 0.13, 0.47, 0.58, 0.61, 0.67, 0.85, 0.27)
    spec = GameSpec(m=m, epsilon=eps, alpha=(10.0,) * m, cost=(0.16666666666666666,) * m)
    start = time.perf_counter()
    report = solve_ns(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.2f}s"
    assert is_correlated_equilibrium(report.distribution, spec, tol=1e-8).ok
    assert report.chosen_profile.bits == (1,) * m
    assert report.objective == pytest.approx(best_pure_profile(spec)[1], abs=1e-12)
    assert _warm_pivots(spec) < 5000
    optimize = pytest.importorskip("scipy.optimize")
    assert report.objective == pytest.approx(_highs_objective(optimize, spec), abs=1e-7)


# decide --eps1 0.5 specs (the other tolerances at 0.2, cost 1) on which
# the relaxed phase 2 walked a round of about 700 and 1,500 bases without
# end: with profit this high next to cost, rounding took levels below
# zero by more than the snap threshold, and the ratio test then stepped
# back.  The run now stops at its first revisited basis and phase 2 reruns
# unrelaxed from the start: 3,293 more pivots at m = 10 and 13,055 at
# m = 12, the latter about 1 s on a 2-core x86 VM.
_CYCLING_RELAXED = {"m10_alpha1e4": (10, 1e4), "m12_alpha1e3": (12, 1e3)}


@pytest.mark.parametrize("name", sorted(_CYCLING_RELAXED))
def test_solve_ns_relaxed_cycle_falls_back(name):
    m, alpha = _CYCLING_RELAXED[name]
    spec = GameSpec(m=m, epsilon=(0.5,) + (0.2,) * (m - 1), alpha=(alpha,) * m, cost=(1.0,) * m)
    start = time.perf_counter()
    report = solve_ns(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert is_correlated_equilibrium(report.distribution, spec, tol=1e-8).ok
    assert report.objective >= best_pure_profile(spec)[1] - 1e-8
    optimize = pytest.importorskip("scipy.optimize")
    assert report.objective == pytest.approx(_highs_objective(optimize, spec), abs=1e-7)


def _class_structured_specs():
    """Specs whose nodes fall into few classes of equal (epsilon, alpha,
    cost), grouped by where they come from: criterion 04's two eps1 sweeps,
    criteria 05's and 06's alpha and cost sweeps (game_sym's shape), a
    seeded uniform draw, and the two relaxed-cycle specs above."""
    crit04 = [
        GameSpec(m=8, epsilon=(round(0.1 * step, 1),) + (rest,) * 7, alpha=(10.0,) * 8, cost=(5.0,) * 8)
        for rest in (0.2, 0.8)
        for step in range(1, 10)
    ]
    sweeps = [GameSpec.uniform(8, 0.2, float(v), 5.0) for v in range(1, 11)]
    sweeps += [GameSpec.uniform(8, 0.2, 10.0, float(v)) for v in range(1, 11)]
    # 40 uniform specs: m in 2..10, eps = round(U[0.05, 0.95], 2),
    # cost = 10^U[-2, 1] and alpha / cost = 10^U[0, 3].
    rng = np.random.default_rng(2008)
    draw = []
    for _ in range(40):
        m = int(rng.integers(2, 11))
        eps = round(float(rng.uniform(0.05, 0.95)), 2)
        cost = 10.0 ** rng.uniform(-2, 1)
        draw.append(GameSpec.uniform(m, eps, cost * 10.0 ** rng.uniform(0, 3), cost))
    cycling = [
        GameSpec(m=m, epsilon=(0.5,) + (0.2,) * (m - 1), alpha=(alpha,) * m, cost=(1.0,) * m)
        for m, alpha in _CYCLING_RELAXED.values()
    ]
    return {"crit04": crit04, "sweeps": sweeps, "draw": draw, "cycling": cycling}


_CLASS_STRUCTURED = _class_structured_specs()


@pytest.mark.parametrize("group", list(_CLASS_STRUCTURED))
def test_solve_ns_matches_the_class_count_lp(group):
    # The class-count LP shares neither the table build nor the simplex
    # with solve_ns, and has the same optimum.
    for spec in _CLASS_STRUCTURED[group]:
        got = solve_ns(spec).objective
        want = class_lp_objective(spec)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(got)), (spec, got, want)


def test_each_entry_point_builds_one_lp(monkeypatch):
    # The start, the simplex, the re-check, the marginals and the chosen
    # profile all read the one LP that the call builds.
    build = sync_game._equilibrium_lp
    built = []

    def counted(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(sync_game, "_equilibrium_lp", counted)
    spec = GameSpec(m=5, epsilon=(0.63, 0.15, 0.67, 0.62, 0.39), alpha=(5.0,) * 5, cost=(1.0,) * 5)
    report = solve_ns(spec)
    assert built == [spec]
    best_pure_profile(spec)
    assert built == [spec] * 2
    assert is_correlated_equilibrium(report.distribution, spec).ok
    assert built == [spec] * 3
