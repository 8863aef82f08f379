from __future__ import annotations

import warnings
from itertools import combinations

import numpy as np
import pytest

from bruteforce import brute_force_solve, random_feasible_problem, random_problem
from nodesync import lp_solver
from nodesync.cli import main
from nodesync.lp_solver import (
    FEAS_TOL,
    PIVOT_TOL,
    LpProblem,
    LpStatus,
    Relation,
    _check_feasible,
    _Simplex,
    solve,
)
from nodesync.sync_game import GameSpec, _equilibrium_lp, best_pure_profile, solve_ns

LE, EQ, GE = Relation.LE, Relation.EQ, Relation.GE


def test_single_bound():
    sol = solve(LpProblem([1], [[1]], [LE], [1]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)


def test_infeasible_interval():
    sol = solve(LpProblem([1], [[1], [1]], [GE, LE], [2, 1]))
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.x is None


def test_equality_split():
    sol = solve(LpProblem([1, 1], [[1, 1]], [EQ], [1]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_unbounded_direction():
    sol = solve(LpProblem([1, 0], [[0, 1]], [LE], [5]))
    assert sol.status is LpStatus.UNBOUNDED


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2; minimize x via maximize -x.
    sol = solve(LpProblem([-1], [[-1]], [LE], [-2]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)


def test_redundant_equalities_are_dropped():
    sol = solve(LpProblem([3, 1], [[1, 1], [2, 2], [1, 0]], [EQ, EQ, LE], [1, 2, 1]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_degenerate_zero_rhs_rows_terminate():
    a = [[1, -1, 0], [0, 1, -1], [1, 1, 1]]
    sol = solve(LpProblem([1, 2, 3], a, [GE, GE, EQ], [0, 0, 1]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)


def test_validation_distinct_from_infeasible():
    row = np.array([[1.0, 2.0]])
    for objective, a, relations, rhs in (
        ((1.0,), np.empty((0, 2)), (), ()),  # two columns, one variable
        ((1.0, 2.0), [[1.0]], (LE,), (1.0,)),  # one column, two variables
        ((), np.empty((0, 0)), (), ()),  # no variable
        ((0.0,) * 70000, np.empty((0, 70000)), (), ()),  # over MAX_VARS
        ((1.0, 2.0), row, (), ()),  # one row, no relation
        ((1.0, 2.0), row, (LE, LE), (1.0, 1.0)),  # one row, two relations
        ((1.0, 2.0), row, (LE,), ()),  # rhs too short
        ((1.0, 2.0), row, (LE,), (1.0, 2.0)),  # rhs too long
        ((1.0, 2.0), row, ("<=",), (1.0,)),  # relation is not a Relation
    ):
        with pytest.raises(ValueError):
            LpProblem(objective, a, relations, rhs)


@pytest.mark.parametrize("field", ["objective", "a", "rhs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected_by_name(field, bad):
    data = {"objective": [1.0, 2.0], "a": [[1.0, 1.0]], "rhs": [4.0]}
    data[field] = np.array(data[field])
    data[field].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{field} has a non-finite entry"):
        LpProblem(data["objective"], data["a"], (LE,), data["rhs"])


def test_program_with_no_rows():
    # x >= 0 is the only constraint: any positive cost is unbounded, and
    # otherwise x = 0 is optimal, with a signless zero objective.
    for objective in ([1.0], [1.0, -2.0]):
        sol = solve(LpProblem(objective, np.zeros((0, len(objective))), [], []))
        assert sol.status is LpStatus.UNBOUNDED
    for objective in ([-1.0], [0.0]):
        sol = solve(LpProblem(objective, np.zeros((0, 1)), [], []))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x.tolist() == [0.0] and not np.signbit(sol.x).any()
        assert sol.objective_value == 0.0 and not np.signbit(sol.objective_value)


def test_row_cap_enforced():
    with pytest.raises(ValueError):
        LpProblem((1.0,), np.ones((4097, 1)), (LE,) * 4097, np.ones(4097))


def _as_tuples(prob):
    """Copy of prob with every coefficient handed over as a Python tuple."""
    return LpProblem(
        tuple(prob.objective.tolist()),
        tuple(tuple(row) for row in prob.a.tolist()),
        prob.relations,
        tuple(prob.rhs.tolist()),
    )


def _as_array_views(prob):
    """Copy of prob whose matrix is a read-only array and whose vectors
    are writable arrays."""
    a = np.array(prob.a)
    a.flags.writeable = False
    return LpProblem(np.array(prob.objective), a, prob.relations, np.array(prob.rhs))


def test_problem_stores_coefficients_as_read_only_float64():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    view = source[1:]
    view.flags.writeable = False
    for objective, a, rhs in (
        ((1, 2), [[5, 6]], [1]),
        (source[0], view, np.ones(1)),
        ([1.5, 2.5], ((7.0, 8.0),), (1.0,)),
    ):
        prob = LpProblem(objective, a, (LE,), rhs)
        for arr, shape in ((prob.objective, (2,)), (prob.a, (1, 2)), (prob.rhs, (1,))):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.float64 and arr.shape == shape
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0
        assert prob.n == 2
    # Every array is copied, a read-only view included, so changing the
    # caller's data later cannot change the problem.
    writable = np.array([[5.0, 6.0]])
    prob = LpProblem(source[0], view, (LE,), (1.0,))
    copied = LpProblem(source[0], writable, (LE,), (1.0,))
    source[:, 0] = 99.0
    writable[0, 0] = 99.0
    assert prob.objective.tolist() == [1.0, 2.0]
    assert prob.a is not view and prob.a.tolist() == [[3.0, 4.0]]
    assert copied.a is not writable and copied.a.tolist() == [[5.0, 6.0]]
    with pytest.raises(ValueError):
        LpProblem((1.0, 2.0), [1.0, 2.0], (LE,), (1.0,))  # a is 1-D
    with pytest.raises(ValueError):
        LpProblem([[1.0, 2.0]], [[1.0, 2.0]], (LE,), (1.0,))  # objective is 2-D
    with pytest.raises(TypeError):
        LpProblem((1.0, 2.0), [[1.0, 2.0]], (LE,), (1.0,), n=2)  # n is not an argument


def test_problem_ignores_writes_through_a_read_only_view():
    # A read-only view still sees writes to its writable base array.
    base = np.array([1.0, 1.0])
    view = base.view()
    view.flags.writeable = False
    problem = LpProblem(view, [[1.0, 1.0]], (LE,), (1.0,))
    base[0] = np.nan
    assert problem.objective.tolist() == [1.0, 1.0]
    sol = solve(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert np.isfinite(sol.objective_value)


def test_tuple_and_array_built_problems_solve_identically():
    rng = np.random.default_rng(404)
    optimal = 0
    for _ in range(100):
        prob = random_problem(rng)
        from_tuples, from_views = solve(_as_tuples(prob)), solve(_as_array_views(prob))
        assert from_tuples.status is from_views.status
        if from_tuples.status is LpStatus.OPTIMAL:
            optimal += 1
            assert from_tuples.x.tobytes() == from_views.x.tobytes()
            assert from_tuples.objective_value == from_views.objective_value
    assert optimal >= 20


def test_negated_rows_solve_identically():
    # Rows are kept as given, and IEEE rounding is symmetric under sign
    # changes, so a row multiplied by -1, with its relation swapped,
    # changes no pivot and no bit of x.  (Only an exact zero can change its
    # sign; none does on these programs.)
    swap = {LE: GE, GE: LE, EQ: EQ}
    rng = np.random.default_rng(515)
    negated_bounds = 0
    for _ in range(300):
        prob = random_problem(rng)
        flip = rng.random(len(prob.relations)) < 0.5
        sign = np.where(flip, -1.0, 1.0)
        relations = tuple(swap[rel] if f else rel for rel, f in zip(prob.relations, flip))
        negated = LpProblem(prob.objective, prob.a * sign[:, None], relations, prob.rhs * sign)
        negated_bounds += bool((negated.rhs < 0).any())
        want, got = solve(prob), solve(negated)
        assert got.status is want.status
        assert got.pivots == want.pivots
        if want.status is LpStatus.OPTIMAL:
            assert got.x.tobytes() == want.x.tobytes()
            assert got.objective_value == want.objective_value
    assert negated_bounds > 150


def test_deterministic_resolve():
    rng = np.random.default_rng(77)
    for _ in range(20):
        prob = random_problem(rng)
        first = solve(prob)
        second = solve(prob)
        assert first.status is second.status
        if first.status is LpStatus.OPTIMAL:
            assert np.array_equal(first.x, second.x)


def test_optimal_x_has_no_negative_zero():
    # Zero right-hand sides make degenerate vertices, where a basic level of
    # exactly zero can carry the sign of its pivot.
    rng = np.random.default_rng(2_000)
    degenerate = 0
    for draw in range(2_000):
        prob = (random_problem if draw % 2 else random_feasible_problem)(rng)
        if draw % 4 < 2:
            rhs = np.where(rng.random(len(prob.rhs)) < 0.5, 0.0, prob.rhs)
            prob = LpProblem(prob.objective, prob.a, prob.relations, rhs)
        sol = solve(prob)
        if sol.status is LpStatus.OPTIMAL:
            assert not np.signbit(sol.x[sol.x == 0.0]).any()
            degenerate += draw % 4 < 2
    assert degenerate > 300


def test_objective_scaling_keeps_argmax():
    rng = np.random.default_rng(123)
    scaled_checked = 0
    while scaled_checked < 25:
        prob = random_feasible_problem(rng)
        base = solve(prob)
        if base.status is not LpStatus.OPTIMAL:
            continue
        factor = 3.5
        scaled = LpProblem(factor * prob.objective, prob.a, prob.relations, prob.rhs)
        scaled_sol = solve(scaled)
        assert scaled_sol.status is LpStatus.OPTIMAL
        assert scaled_sol.objective_value == pytest.approx(
            factor * base.objective_value, abs=1e-8
        )
        # The original maximizer must attain the scaled optimum too.
        value_of_base = float(np.dot(scaled.objective, base.x))
        assert value_of_base == pytest.approx(scaled_sol.objective_value, abs=1e-8)
        scaled_checked += 1


def test_solution_feasibility_of_random_optima():
    rng = np.random.default_rng(2025)
    seen_optimal = 0
    for _ in range(150):
        prob = random_problem(rng)
        sol = solve(prob)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        seen_optimal += 1
        x = sol.x
        assert x.min(initial=0.0) >= -1e-9
        for coeffs, relation, rhs in zip(prob.a, prob.relations, prob.rhs):
            value = float(np.dot(coeffs, x))
            if relation is LE:
                assert value <= rhs + 1e-8
            elif relation is GE:
                assert value >= rhs - 1e-8
            else:
                assert value == pytest.approx(rhs, abs=1e-8)
    assert seen_optimal > 10


def test_matches_bruteforce_oracle_sample():
    rng = np.random.default_rng(4242)
    agreements = 0
    for _ in range(120):
        prob = random_problem(rng)
        want_status, want_value = brute_force_solve(prob)
        got = solve(prob)
        assert got.status.value == want_status
        if want_status == "optimal":
            assert got.objective_value == pytest.approx(want_value, abs=1e-9)
        agreements += 1
    assert agreements == 120


def _real_columns(prob):
    """[A | S] in the original row orientation: the structural columns, then
    one slack (+1, <= row) or surplus (-1, >= row) column per inequality."""
    slacks = [
        (i, 1.0 if rel is LE else -1.0) for i, rel in enumerate(prob.relations) if rel is not EQ
    ]
    s = np.zeros((len(prob.relations), len(slacks)))
    for j, (i, sign) in enumerate(slacks):
        s[i, j] = sign
    return np.hstack([prob.a, s])


def _bases(prob):
    """Every nonsingular basis of the real columns, with its basic levels."""
    a = _real_columns(prob)
    b = prob.rhs
    for cols in combinations(range(a.shape[1]), a.shape[0]):
        base = a[:, cols]
        if np.linalg.matrix_rank(base) == a.shape[0]:
            yield list(cols), np.linalg.solve(base, b)


def test_feasible_start_reaches_the_cold_start_optimum():
    rng = np.random.default_rng(31)
    warm_solved = 0
    for _ in range(150):
        prob = random_problem(rng)
        cold = solve(prob)
        feasible = [cols for cols, levels in _bases(prob) if levels.min() >= 0.0]
        for start in feasible[:3]:
            warm = solve(prob, start=start)
            assert warm.status is cold.status
            if cold.status is LpStatus.OPTIMAL:
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
                warm_solved += 1
    assert warm_solved > 50


def test_unusable_start_runs_phase_1():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(80):
        prob = random_problem(rng)
        rows, n_real = len(prob.relations), _real_columns(prob).shape[1]
        cold = solve(prob)
        infeasible = next((cols for cols, levels in _bases(prob) if levels.min() < -1e-6), None)
        for start in (
            [0] * rows,  # singular unless there is a single row
            infeasible,
            [n_real] + list(range(rows - 1)),  # names an artificial column
            list(range(rows + 1)),  # wrong length
        ):
            if start is None or (rows == 1 and start == [0]):
                continue
            got = solve(prob, start=start)
            assert got.status is cold.status
            if cold.status is LpStatus.OPTIMAL:
                assert np.array_equal(got.x, cold.x)
            checked += 1
    assert checked > 200


def test_start_at_an_optimal_vertex_is_returned_exactly():
    # maximize x + y on [0, 1] x [0, 2]: the vertex (1, 2) with x, y basic.
    prob = LpProblem([1, 1], [[1, 0], [0, 1]], [LE, LE], [1, 2])
    sol = solve(prob, start=[0, 1])
    assert np.array_equal(sol.x, [1.0, 2.0])
    # A point mass on the best pure profile of the request game, with the
    # 2m surplus columns basic beside it.
    m = 8
    spec = GameSpec.uniform(m, 0.2, 10.0, 5.0)
    best, value = best_pure_profile(spec)
    n = 1 << m
    sol = solve(_equilibrium_lp(spec), start=[best.index] + list(range(n, n + 2 * m)))
    assert np.array_equal(sol.x, np.eye(n)[best.index])
    assert sol.objective_value == value


def _count_basis_solves(monkeypatch):
    """Record the shape of the right-hand side of every basis solve."""
    calls = []
    real = lp_solver._lapack_solve

    def counting(matrix, rhs):
        calls.append(np.shape(rhs))
        return real(matrix, rhs)

    monkeypatch.setattr(lp_solver, "_lapack_solve", counting)
    return calls


def test_accepted_start_costs_two_basis_solves(monkeypatch):
    # The start basis's levels accept it and are the final levels; one
    # pricing finds no entering column.
    spec = GameSpec.uniform(8, 0.2, 10.0, 5.0)
    calls = _count_basis_solves(monkeypatch)
    solve_ns(spec)
    assert len(calls) <= 2


# maximize x1 + x2  subject to  x1 + x2 == 1  and  x1 >= 0.25.
_TWO_ROW = LpProblem([1, 1], [[1, 1], [1, 0]], [EQ, GE], [1, 0.25])


def test_basis_solves_take_at_most_two_right_hand_sides(monkeypatch):
    # Each solve is a vector or the pair [b | entering column], never a
    # solve for every column of the program.
    calls = _count_basis_solves(monkeypatch)
    assert solve(_TWO_ROW).status is LpStatus.OPTIMAL
    solve_ns(GameSpec.uniform(8, 0.2, 10.0, 5.0))
    assert calls and all(len(shape) == 1 or shape[1] <= 2 for shape in calls), calls


def test_cold_two_phase_solve_costs_eight_basis_solves(monkeypatch):
    # Phase 1 from the artificial basis (both rows need one): one pricing
    # (1), whose entering column the relaxed run takes: two pivots of a
    # [b | entering column] solve and a pricing each, the last pricing
    # finding no entering column (4).  Then the levels of the final basis
    # with the true bounds (1), which accept it and show zero infeasibility.
    # Phase 2 from phase 1's basis: one pricing (1); with no pivot, that
    # basis's levels are the answer (1).
    calls = _count_basis_solves(monkeypatch)
    sol = solve(_TWO_ROW)
    assert sol.status is LpStatus.OPTIMAL and sol.objective_value == pytest.approx(1.0)
    assert len(calls) == 8
    assert sol.pivots == 2


# maximize x + y  subject to  10 x <= 10,  10 y <= 10  and  x + y <= 1.5.
_CAPPED_SUM = LpProblem([1, 1], [[10, 0], [0, 10], [1, 1]], [LE, LE, LE], [10, 10, 1.5])


def _plain_capped_sum():
    """Bland's rule on _CAPPED_SUM's true bounds from the slack basis, with
    no relaxation: the maximizer and the pivots."""
    a_ext = np.hstack([_CAPPED_SUM.a, np.eye(3)])
    plain = _Simplex(a_ext, _CAPPED_SUM.rhs, np.array([1.0, 1, 0, 0, 0]), [2, 3, 4], phase=2)
    assert plain.run() == "optimal"
    x = np.zeros(2)
    structural = plain.basis < 2
    x[plain.basis[structural]] = plain.levels()[structural]
    return x, plain.pivots


def test_relaxed_phase_2_matches_the_plain_run():
    # The slack basis is a feasible start that prices an entering column,
    # so phase 2 runs on the relaxed bounds first, whether the caller hands
    # it over or solve starts there because every row is <=.
    x, pivots = _plain_capped_sum()
    for relaxed in (solve(_CAPPED_SUM), solve(_CAPPED_SUM, start=[2, 3, 4])):
        assert float(np.dot(_CAPPED_SUM.objective, x)) == relaxed.objective_value
        assert relaxed.objective_value == pytest.approx(1.5)
        assert np.array_equal(x, relaxed.x)
        assert pivots == relaxed.pivots == 2


def test_warm_relaxed_solve_costs_seven_basis_solves(monkeypatch):
    # The start's levels, which accept it (1), and one pricing (1), whose
    # entering column the relaxed run takes: two pivots of a [b | entering
    # column] solve and a pricing each (4).  Then the levels of the final
    # basis with the true bounds (1), which are also the answer.
    calls = _count_basis_solves(monkeypatch)
    sol = solve(_CAPPED_SUM, start=[2, 3, 4])
    assert sol.objective_value == pytest.approx(1.5)
    assert len(calls) == 7
    assert sol.pivots == 2


def test_relaxed_basis_infeasible_for_true_bounds_falls_back(monkeypatch):
    # At scale 1 the bounds relax to about x <= 1.16, y <= 1.12 and
    # x + y <= 3.35, so the relaxed optimum has the sum's slack basic.  Under
    # the true bounds that slack is 1.5 - 2 < 0: phase 2 reruns unrelaxed
    # from its start, and its answer is the plain run's, exactly.
    x, pivots = _plain_capped_sum()
    monkeypatch.setattr(lp_solver, "_RELAX", 1.0)
    for forced in (solve(_CAPPED_SUM), solve(_CAPPED_SUM, start=[2, 3, 4])):
        assert forced.status is LpStatus.OPTIMAL
        assert np.array_equal(forced.x, x)
        assert forced.objective_value == float(np.dot(_CAPPED_SUM.objective, x))
        # The relaxed run's two pivots, then the rerun's.
        assert forced.pivots == 2 + pivots


def _stuck_when_relaxed(monkeypatch, true_b):
    """Make every pivot on a right-hand side other than true_b leave the
    basis as it was, so that a relaxed run revisits its basis at once."""
    real = _Simplex.pivot

    def stuck_when_relaxed(self, row, col):
        if np.array_equal(self.b, true_b):
            real(self, row, col)
        else:
            self.pivots += 1

    monkeypatch.setattr(_Simplex, "pivot", stuck_when_relaxed)


def test_relaxed_run_that_cycles_falls_back(monkeypatch):
    # A pivot that leaves the basis as it was revisits it at once.  Made to
    # happen on the relaxed bounds only, it sends phase 2 to the unrelaxed
    # rerun from the start, which answers as the plain run does.
    x, pivots = _plain_capped_sum()
    _stuck_when_relaxed(monkeypatch, _CAPPED_SUM.rhs)
    sol = solve(_CAPPED_SUM, start=[2, 3, 4])
    assert np.array_equal(sol.x, x)
    assert sol.pivots == 1 + pivots


def _plain_two_row():
    """Bland's rule on _TWO_ROW's true bounds, with no relaxation: phase 1
    from the two artificials, then phase 2, whose start prices optimal
    because x1 + x2 is fixed.  The maximizer and the phase-1 pivots."""
    # x1, x2, the surplus of x1 >= 0.25, then the two artificials.
    a_ext = np.array([[1.0, 1, 0, 1, 0], [1, 0, -1, 0, 1]])
    phase1 = _Simplex(a_ext, _TWO_ROW.rhs, np.array([0.0, 0, 0, -1, -1]), [3, 4], phase=1)
    assert phase1.run() == "optimal"
    assert phase1.basis.max() < 3  # no artificial left to drive out
    phase2 = _Simplex(a_ext[:, :3], _TWO_ROW.rhs, np.array([1.0, 1, 0]), phase1.basis, phase=2)
    assert phase2.entering() is None
    x = np.zeros(2)
    structural = phase2.basis < 2
    x[phase2.basis[structural]] = phase2.levels()[structural]
    return x, phase1.pivots


def test_relaxed_phase_1_that_cycles_falls_back(monkeypatch):
    # Phase 1 runs on relaxed bounds first, as phase 2 does, and falls back
    # the same way: its relaxed run, stuck, revisits its basis after one
    # pivot, and the unrelaxed rerun from the artificial basis answers as
    # the plain two-phase run does.
    x, pivots = _plain_two_row()
    _stuck_when_relaxed(monkeypatch, _TWO_ROW.rhs)
    sol = solve(_TWO_ROW)
    assert np.array_equal(sol.x, x)
    assert sol.pivots == 1 + pivots


def test_rows_start_on_slack_or_surplus_columns_with_nonnegative_levels(monkeypatch):
    # Every row starts on its own slack or surplus column when that
    # column's level there is nonnegative.  The game's 2m deviation rows
    # have bound 0, so only its normalization row (==) needs an artificial.
    built = []
    real = _Simplex.__init__

    def recording(self, a, b, costs, basis, phase):
        built.append((phase, a.shape[1], list(basis)))
        real(self, a, b, costs, basis, phase)

    monkeypatch.setattr(_Simplex, "__init__", recording)
    m = 8
    spec = GameSpec.uniform(m, 0.2, 10.0, 5.0)
    n = 1 << m
    sol = solve(_equilibrium_lp(spec))
    assert sol.objective_value == pytest.approx(solve_ns(spec).objective, abs=1e-9)
    phase1 = [(cols, basis) for phase, cols, basis in built if phase == 1]
    assert phase1[0] == (n + 2 * m + 1, [n + 2 * m] + list(range(n, n + 2 * m)))
    assert all(cols == n + 2 * m + 1 for cols, _ in phase1)
    # Only <= rows and zero-bound >= rows: the slack and surplus basis is
    # feasible, so no phase 1 runs.
    built.clear()
    a = [[1, -1, 0], [0, 1, -1], [1, 1, 1]]
    sol = solve(LpProblem([1, 2, 3], a, [GE, GE, LE], [0, 0, 1]))
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
    assert built and all(phase == 2 for phase, _, _ in built)
    # A >= row with a negative bound starts on its surplus column at a
    # positive level, so negative bounds on >= rows alone run no phase 1
    # either: maximize x + 2y  subject to  x + y <= 4  and  x - y >= -2.
    built.clear()
    sol = solve(LpProblem([1, 2], [[1, 1], [1, -1]], [LE, GE], [4, -2]))
    assert sol.objective_value == pytest.approx(7.0, abs=1e-9)
    assert built and all(phase == 2 for phase, _, _ in built)


def test_basis_revisit_outside_the_relaxed_run_raises(monkeypatch):
    # With no pivot ever changing the basis, every relaxed run cycles and
    # so does the unrelaxed rerun that follows it in either phase, which
    # has no fallback.  Both phases raise instead of looping, and phase 1
    # does not call a cycle unbounded.
    def stuck(self, row, col):
        self.pivots += 1

    monkeypatch.setattr(_Simplex, "pivot", stuck)
    with pytest.raises(ArithmeticError, match=r"cycled in phase 2 after 1 pivots"):
        solve(_CAPPED_SUM, start=[2, 3, 4])
    with pytest.raises(ArithmeticError, match=r"cycled in phase 1 after 1 pivots"):
        solve(_TWO_ROW)


def test_relaxation_lifts_only_basic_slack_levels():
    # maximize y  subject to  x <= 1,  x + y >= 1  and  y <= 1.  The start
    # has x, y and the last slack basic at (1, 0, 1), y a degenerate zero.
    # Relaxing the first two bounds would move y to -delta_1 - delta_2;
    # only the last one, whose slack is basic, moves, and only its slack.
    prob = LpProblem([0, 1], [[1, 0], [1, 1], [0, 1]], [LE, GE, LE], [1, 1, 1])
    a_ext = np.array([[1.0, 0, 1, 0, 0], [1, 1, 0, -1, 0], [0, 1, 0, 0, 1]])
    warm = _Simplex(a_ext, prob.rhs, np.array([0.0, 1, 0, 0, 0]), [0, 1, 4], phase=2)
    relaxed = _Simplex(a_ext, lp_solver._relaxed_b(warm, 2), warm.costs, warm.basis, phase=2)
    assert relaxed.levels()[:2].tolist() == [1.0, 0.0]
    assert 1 + 1e-7 <= relaxed.levels()[2] < 1 + 2e-7
    got = solve(prob, start=[0, 1, 4])
    assert got.objective_value == 1.0


def test_singular_basis_error_names_phase_and_pivots():
    a_ext = np.array([[1.0, 1.0], [1.0, 1.0]])
    state = _Simplex(a_ext, np.ones(2), np.zeros(2), [0, 1], phase=1)
    with pytest.raises(ArithmeticError, match=r"singular in phase 1 after 0 pivots"):
        state.levels()


def _systems():
    """Random and Hilbert (ill-conditioned) systems of 1 to 25 rows, each as
    a C-contiguous matrix and as the transposed view that pricing solves
    with, with a 1-D and an (n, 2) right-hand side."""
    rng = np.random.default_rng(7)
    for n in range(1, 26):
        index = np.arange(n)
        for matrix in (rng.standard_normal((n, n)), 1.0 / np.add.outer(index, index + 1.0)):
            for view in (matrix, np.ascontiguousarray(matrix.T).T):
                yield view, rng.standard_normal(n)
                yield view, rng.standard_normal((n, 2))


def test_basis_solve_is_np_linalg_solve_bit_for_bit():
    count = 0
    for matrix, rhs in _systems():
        got = lp_solver._lapack_solve(matrix, rhs)
        want = np.linalg.solve(matrix, rhs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (matrix.shape, rhs.shape)
        count += 1
    assert count == 25 * 8


def test_singular_basis_raises_under_any_caller_errstate():
    # LAPACK reports a singular matrix as an invalid value.  The solve must
    # turn that into the named error whatever the caller's errstate: no
    # RuntimeWarning at numpy's default, and not a FloatingPointError under
    # the errstate that _optimize sets, which it would report as
    # "invalid value encountered".
    a_ext = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    message = r"basis matrix became singular in phase 1 after 0 pivots \(2 rows\)"
    for errstate in ({}, {"all": "ignore"}, {"invalid": "raise", "over": "raise"}):
        with warnings.catch_warnings(), np.errstate(**errstate):
            warnings.simplefilter("error")
            state = _Simplex(a_ext, np.ones(2), np.array([0.0, 0.0, 1.0]), [0, 1], phase=1)
            with pytest.raises(ArithmeticError, match=message):
                state.levels()
            with pytest.raises(ArithmeticError, match=message):
                lp_solver._optimize(state, 3)


def _count_pivots(monkeypatch):
    """Record the pivots and objective value of every lp_solver.solve call."""
    calls = []
    real = lp_solver.solve

    def counting(problem, start=None):
        sol = real(problem, start)
        calls.append((sol.pivots, sol.objective_value))
        return sol

    monkeypatch.setattr(lp_solver, "solve", counting)
    return calls


def test_default_cost_sweep_pivot_path(monkeypatch):
    # `sweep --param cost` at its defaults, each solve warm-started at the
    # best pure profile: the pivots of each point pin the path.
    calls = _count_pivots(monkeypatch)
    for cost in range(1, 11):
        solve_ns(GameSpec.uniform(8, 0.2, 10.0, float(cost)))
    assert [pivots for pivots, _ in calls] == [291, 55, 10, 8, 0, 0, 0, 0, 0, 0]


def test_long_relaxed_walk_pivot_path(monkeypatch, capfd):
    # The relaxed phase 2 cycles and the unrelaxed rerun answers, 5,793
    # pivots in all.
    calls = _count_pivots(monkeypatch)
    assert main(["decide", "--m", "10", "--eps1", "0.5", "--alpha", "1e4", "--cost", "1"]) == 0
    capfd.readouterr()
    assert calls == [(5793, float.fromhex("0x1.382ffffffffffp+13"))]


def test_check_feasible_names_the_violated_row():
    # x0 <= 0, -x1 >= 0 and x2 == 0: each row holds at exactly FEAS_TOL and
    # fails at twice that.
    prob = LpProblem([0, 0, 0], np.diag([1.0, -1.0, 1.0]), [LE, GE, EQ], [0, 0, 0])
    _check_feasible(prob, np.full(3, FEAS_TOL))
    for row in range(3):
        x = np.zeros(3)
        x[row] = 2 * FEAS_TOL
        with pytest.raises(ArithmeticError, match=rf"violates constraint {row}: "):
            _check_feasible(prob, x)


def test_check_feasible_rejects_a_coordinate_below_the_snap():
    prob = LpProblem([0], [[1]], [LE], [1])
    _check_feasible(prob, np.array([-PIVOT_TOL]))
    with pytest.raises(ArithmeticError, match="negative coordinate"):
        _check_feasible(prob, np.array([-2 * PIVOT_TOL]))


def test_level_at_minus_pivot_tol_snaps_to_zero(monkeypatch):
    # The largest negative level that the check lets through must be
    # snapped, or the answer keeps a negative coordinate.
    class Final:
        basis = np.array([0, 1])
        pivots = 0

        def levels(self):
            return np.array([-PIVOT_TOL, 1.0])

    monkeypatch.setattr(lp_solver, "_optimize", lambda start, n: ("optimal", Final()))
    sol = solve(LpProblem([0, 1], [[1, 1], [0, 1]], [LE, LE], [1, 1]))
    assert sol.status is LpStatus.OPTIMAL
    assert list(sol.x) == [0.0, 1.0]
    assert not np.signbit(sol.x).any()
