"""Brute-force LP oracle: exact classification and optimum for tiny programs.

Candidate vertices are every intersection of n constraint/bound hyperplanes;
unboundedness is decided by enumerating the recession cone's extreme rays the
same way.  Completely independent of the simplex implementation.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from nodesync.lp_solver import LpProblem, Relation

FEAS = 1e-7


def _satisfies(
    x: np.ndarray, a: np.ndarray, relations: tuple[Relation, ...], rhs: np.ndarray
) -> bool:
    if x.min(initial=0.0) < -1e-9:
        return False
    for coeffs, relation, bound in zip(a, relations, rhs):
        value = float(coeffs @ x)
        if relation is Relation.LE and value > bound + FEAS:
            return False
        if relation is Relation.GE and value < bound - FEAS:
            return False
        if relation is Relation.EQ and abs(value - bound) > FEAS:
            return False
    return True


def _vertices(
    a: np.ndarray, relations: tuple[Relation, ...], rhs: np.ndarray
) -> list[np.ndarray]:
    """Points of a x (relations) rhs, x >= 0, where n of the hyperplanes
    a[i] . x = rhs[i] and x_j = 0 meet."""
    n = a.shape[1]
    planes = np.vstack([a, np.eye(n)])
    levels = np.concatenate([rhs, np.zeros(n)])
    points = []
    for combo in combinations(range(len(planes)), n):
        sub_a, sub_b = planes[list(combo)], levels[list(combo)]
        try:
            x = np.linalg.solve(sub_a, sub_b)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(sub_a @ x - sub_b)) > FEAS:
            continue
        if _satisfies(x, a, relations, rhs):
            points.append(x)
    return points


def brute_force_solve(problem: LpProblem) -> tuple[str, float | None]:
    """Returns ('optimal', value), ('infeasible', None), or ('unbounded', None).

    With x >= 0 the feasible region contains no line, so it is nonempty iff
    it has a vertex, and the maximum is unbounded iff some extreme recession
    ray improves the objective.
    """
    n = problem.n
    vertices = _vertices(problem.a, problem.relations, problem.rhs)
    if not vertices:
        return ("infeasible", None)

    # Recession cone sliced by sum(d) = 1: extreme rays become vertices.
    ray_a = np.vstack([problem.a, np.ones(n)])
    ray_rhs = np.append(np.zeros(len(problem.rhs)), 1.0)
    c = problem.objective
    for ray in _vertices(ray_a, problem.relations + (Relation.EQ,), ray_rhs):
        if float(c @ ray) > FEAS:
            return ("unbounded", None)

    return ("optimal", max(float(c @ x) for x in vertices))


def random_problem(rng: np.random.Generator) -> LpProblem:
    """Dense random instance with n, rows <= 6 and coefficients in [-5, 5]."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    relations = rng.choice(
        [Relation.LE, Relation.GE, Relation.EQ], size=m, p=[0.6, 0.25, 0.15]
    )
    a, rhs = np.empty((m, n)), np.empty(m)
    for i in range(m):
        a[i] = rng.uniform(-5, 5, size=n)
        rhs[i] = rng.uniform(-5, 5)
    return LpProblem(rng.uniform(-5, 5, size=n), a, tuple(relations), rhs)


def random_feasible_problem(rng: np.random.Generator) -> LpProblem:
    """Like random_problem but guaranteed feasible: <= rows with positive
    right-hand sides admit the origin.  Raises the share of instances whose
    optimum value actually gets compared."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    a, rhs = np.empty((m, n)), np.empty(m)
    for i in range(m):
        a[i] = rng.uniform(-5, 5, size=n)
        rhs[i] = rng.uniform(0.5, 5)
    return LpProblem(rng.uniform(-5, 5, size=n), a, (Relation.LE,) * m, rhs)
