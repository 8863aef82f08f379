"""Two-phase revised simplex with Bland's anti-cycling rule.

Solves   maximize c . x   subject to   a x (relations) rhs   and   x >= 0,
where the constraint matrix `a` has one row per relation (<=, == or >=)
and one column per variable.  The entering variable is the lowest
eligible index and ratio-test ties leave the row whose basic variable has
the lowest index, which makes the result deterministic and guarantees
termination.  The state is the basis alone (Dantzig and Orchard-Hays
1954): each pivot solves with B = a[:, basis], taken from the original
data, for the prices y = B^-T c_B and for B^-1 [b | a_j], so round-off
cannot build up from pivot to pivot, and the answer is B^-1 b of the last
basis.

Rows are kept as given.  Phase 1 starts every row on its own slack or
surplus column when that column's level there, b_i / (+-1), is
nonnegative: every <= row with b_i >= 0 and every >= row with b_i <= 0.
Each other row, == rows included, gets an artificial column signed like
b_i, whose level |b_i| is nonnegative, and a program without one skips
phase 1.  A caller that already knows a
feasible vertex may pass its basis as `start`.  A start of real
(structural or slack/surplus) columns whose levels solve and, once tiny
levels snap to zero, are all nonnegative skips phase 1; any other start
runs phase 1 as if none were given.  On a degenerate polytope this
matters: the cold start can spend thousands of stalled pivots finding a
vertex that the caller hands over for free.

Both phases run one driver from a feasible basis: phase 1 from its
starting basis, phase 2 from the accepted start or from phase 1's last
basis.  A basis that prices optimal is the answer.  From one that is not,
the driver first runs on relaxed bounds (Charnes 1952): the right-hand
side of every row whose slack, surplus or artificial column is basic
there moves by a distinct delta of about 1e-7, from a fixed sequence, so
that the column's level rises.  That lifts those levels off zero and
moves no other, so the basis stays feasible, and Bland's rule need not
walk the many bases of one degenerate vertex.  The prices depend on the
basis alone, so the relaxed run's final basis is dual optimal for the
true b too, and one solve for its levels with the true b finishes the
phase when none is negative.  When one is, or when round-off makes the
relaxed run return to a basis it has visited, the phase reruns unrelaxed
from the same start.  A cycle in that rerun raises ArithmeticError
instead of running forever, and so does a float overflow or invalid
value anywhere in a phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8

MAX_VARS = 65536
MAX_ROWS = 4096

# Basic levels below this magnitude are degenerate zeros.
_RHS_SNAP = 1e-11

# Each phase first relaxes the bound of the row of column n + k - 1, the
# k-th past the n structural ones (k = 1, 2, ...), by
# delta_k = _RELAX * (1 + frac(k * golden ratio)): distinct values in
# [1e-7, 2e-7), the same on every call.
_RELAX = 1e-7
_GOLDEN = (1.0 + 5.0**0.5) / 2.0


class Relation(enum.Enum):
    LE = "<="
    EQ = "=="
    GE = ">="


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _frozen(values: Sequence | np.ndarray, ndim: int) -> np.ndarray:
    """`values` as a private, read-only float64 copy of `ndim` dimensions.
    A read-only array is copied too: as a view it still sees writes to its
    base, and no caller may change the data afterwards."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  a x (relations) rhs  and  x >= 0.

    Row i reads  a[i] . x (relations[i]) rhs[i].  `objective`, `a` and `rhs`
    are each stored as one private, read-only float64 copy, every entry
    finite, and `relations` as a tuple, so the number of variables is
    len(objective) and of rows len(relations).
    """

    objective: np.ndarray
    a: np.ndarray
    relations: tuple[Relation, ...]
    rhs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", _frozen(self.objective, 1))
        object.__setattr__(self, "a", _frozen(self.a, 2))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "rhs", _frozen(self.rhs, 1))
        n, rows = self.n, len(self.relations)
        if not 1 <= n <= MAX_VARS:
            raise ValueError(f"need 1 to {MAX_VARS} variables (the dense-matrix cap), got {n}")
        if rows > MAX_ROWS:
            raise ValueError(f"{rows} rows exceed the dense-matrix cap of {MAX_ROWS}")
        if self.a.shape != (rows, n) or self.rhs.shape != (rows,):
            raise ValueError(
                f"a has shape {self.a.shape} and rhs {self.rhs.shape}; "
                f"{rows} relations and {n} variables need ({rows}, {n}) and ({rows},)"
            )
        if not all(isinstance(rel, Relation) for rel in self.relations):
            raise ValueError(f"relations must be Relation members, got {self.relations}")
        for name in ("objective", "a", "rhs"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has a non-finite entry; every coefficient must be finite")

    @property
    def n(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    """`pivots` counts every basis change the solve made, in phase 1 (its
    drive-out of artificials included) and in phase 2.  Each phase adds its
    relaxed run's pivots plus, when that run's final basis failed the true
    b or the run cycled, those of the unrelaxed rerun."""

    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    pivots: int = 0


class _Simplex:
    """Simplex state over an immutable system a x = b: the basis, as its
    column indices and the basis matrix a[:, basis]."""

    def __init__(
        self, a: np.ndarray, b: np.ndarray, costs: np.ndarray, basis: Sequence[int], phase: int
    ):
        self.a = a
        self.b = b
        self.costs = costs
        self.basis = np.array(basis, dtype=np.intp)
        self.phase = phase
        self.pivots = 0
        self._floor = costs - PIVOT_TOL  # a reduced cost below -PIVOT_TOL
        self.matrix = a[:, self.basis]
        self._levels = None

    def _solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(
                f"basis matrix became singular in phase {self.phase} after "
                f"{self.pivots} pivots ({len(self.basis)} rows)"
            ) from exc

    def levels(self) -> np.ndarray:
        """The basic levels B^-1 b, unsnapped; solved once per basis."""
        if self._levels is None:
            self._levels = self._solve(self.matrix, self.b)
        return self._levels

    def feasible(self) -> bool:
        """Whether every basic level is nonnegative once tiny ones snap to zero."""
        return self.levels().min(initial=0.0) > -_RHS_SNAP

    def pivot(self, row: int, col: int) -> None:
        self.matrix[:, row] = self.a[:, col]
        self.basis[row] = col
        self.pivots += 1
        self._levels = None

    def entering(self) -> int | None:
        """Bland's entering column: the lowest index whose reduced cost is
        below -PIVOT_TOL, or None when the basis is optimal.  The prices
        y = B^-T c_B depend on the basis alone, not on b."""
        eligible = self._solve(self.matrix.T, self.costs[self.basis]) @ self.a < self._floor
        eligible[self.basis] = False  # a basic column prices at zero, whatever the round-off
        col = int(eligible.argmax())
        return col if eligible[col] else None

    def run(self, col: int | None = None) -> str:
        """Pivot until optimal or unbounded, Bland's rule on both choices,
        from `col` when the start is already priced.  Returns "cycled" on
        reaching a basis this run has visited: in exact arithmetic Bland's
        rule never does (Bland 1977), so only round-off gets there."""
        basis = self.basis
        visited = {basis.tobytes()}
        rhs = np.stack([self.b, self.b], axis=1)  # [b | entering column]
        vertex = None
        if col is None:
            col = self.entering()
        while col is not None:
            rhs[:, 1] = self.a[:, col]
            fresh = self._solve(self.matrix, rhs)
            direction = fresh[:, 1]
            # Round-off grows with the column's largest entry; a pivot on
            # round-off would leave the basis singular.  A program with no
            # rows has an empty column, and every such direction is a ray.
            open_rows = (direction > PIVOT_TOL * max(1.0, direction.max(initial=0.0))).nonzero()[0]
            if open_rows.size == 0:
                return "unbounded"
            # Ties must be recognized exactly (degenerate rows carry an
            # exact zero level) or the anti-cycling guarantee is void.  A
            # degenerate pivot does not move the vertex, so its snapped
            # levels are kept until a pivot does: all its bases see one tie set.
            if vertex is None:
                vertex = fresh[:, 0]
                vertex[np.abs(vertex) < _RHS_SNAP] = 0.0
            ratios = vertex[open_rows] / direction[open_rows]
            step = ratios.min()
            tied = open_rows[ratios <= step]
            self.pivot(int(tied[basis[tied].argmin()]), col)
            if step != 0.0:
                vertex = None
            key = basis.tobytes()
            if key in visited:
                return "cycled"
            visited.add(key)
            col = self.entering()
        return "optimal"


def _relaxed_b(start: _Simplex, n: int) -> np.ndarray:
    """start.b moved so that the level of every basic column past the n
    structural ones (slack, surplus or, in phase 1, artificial) rises:
    column n + k - 1's by delta_k.  No other level moves, so the start
    stays feasible."""
    extra = start.basis >= n
    k = start.basis[extra] - n + 1
    return start.b + start.matrix[:, extra] @ (_RELAX * (1.0 + k * _GOLDEN % 1.0))


def _optimize(start: _Simplex, n: int) -> tuple[str, _Simplex]:
    """Either phase from a feasible basis (see the module notes): the status
    and the final state, whose `pivots` count every pivot of the phase.  A
    start that prices optimal is returned as it is, with no relaxed data
    built.  Overflow or an invalid value anywhere in the phase raises
    ArithmeticError."""
    relaxed = None
    try:
        with np.errstate(invalid="raise", over="raise"):
            col = start.entering()
            if col is None:
                return "optimal", start
            relaxed = _Simplex(start.a, _relaxed_b(start, n), start.costs, start.basis, start.phase)
            status = relaxed.run(col)
            if status == "unbounded":
                # The ray of the last basis (B^-1 a_col <= 0) does not depend
                # on b, and the start is feasible for the true b: that
                # program is unbounded too.
                return status, relaxed
            if status == "optimal":
                final = _Simplex(start.a, start.b, start.costs, relaxed.basis, start.phase)
                if final.feasible():
                    final.pivots = relaxed.pivots
                    return status, final
            status = start.run(col)
    except FloatingPointError as exc:
        pivots = start.pivots + (relaxed.pivots if relaxed is not None else 0)
        raise ArithmeticError(
            f"{exc} in phase {start.phase} after {pivots} pivots ({len(start.basis)} rows)"
        ) from exc
    if status == "cycled":
        raise ArithmeticError(
            f"simplex cycled in phase {start.phase} after {start.pivots} pivots "
            f"({len(start.basis)} rows)"
        )
    start.pivots += relaxed.pivots
    return status, start


def solve(problem: LpProblem, start: Sequence[int] | None = None) -> LpSolution:
    """Two-phase simplex; classifies the problem or returns a maximizer.

    `start` optionally names a starting basis, one column per row of
    `problem.a`: columns 0..n-1 are the structural variables and n, n+1,
    ... the slack/surplus columns of the non-equality rows, in row order.  A start
    naming an artificial column, a singular basis, or a negative basic
    level is ignored and phase 1 runs as without it.
    """
    a, b = problem.a, problem.rhs
    m, n = a.shape

    # Each inequality row has a slack (+1, <=) or surplus (-1, >=) column.
    # A row starts on it when its level there, b_i / (+-1), is nonnegative.
    # Each other row starts on an artificial column of its own, signed like
    # b_i so that the artificial's level |b_i| is nonnegative too.
    sign_of = {Relation.LE: 1.0, Relation.GE: -1.0, Relation.EQ: 0.0}
    slack_sign = np.array([sign_of[rel] for rel in problem.relations])
    slack_rows = slack_sign.nonzero()[0]
    art_rows = ((slack_sign == 0.0) | (slack_sign * b < 0.0)).nonzero()[0]
    n_real = n + len(slack_rows)
    n_art = len(art_rows)
    slack_cols = np.arange(n, n_real)
    art_cols = np.arange(n_real, n_real + n_art)

    a_ext = np.zeros((m, n_real + n_art))
    a_ext[:, :n] = a
    a_ext[slack_rows, slack_cols] = slack_sign[slack_rows]
    a_ext[art_rows, art_cols] = np.where(b[art_rows] < 0.0, -1.0, 1.0)
    basis = np.zeros(m, dtype=np.intp)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols

    phase2_costs = np.zeros(n_real)
    phase2_costs[:n] = problem.objective
    phase2_start = None
    if start is not None:
        cols = [int(col) for col in start]
        if len(cols) == m and all(0 <= col < n_real for col in cols):
            # The phase-2 state on the start basis is its own test: a
            # singular basis fails to solve for its levels, and a feasible
            # one has none below zero once tiny levels snap to zero.
            phase2_start = _Simplex(a_ext[:, :n_real], b, phase2_costs, cols, phase=2)
            try:
                if not phase2_start.feasible():
                    phase2_start = None
            except ArithmeticError:
                phase2_start = None
    pivots = 0
    if phase2_start is None and n_art > 0:
        phase1_costs = np.zeros(n_real + n_art)
        phase1_costs[n_real:] = -1.0
        status, state = _optimize(_Simplex(a_ext, b, phase1_costs, basis, phase=1), n)
        if status != "optimal":
            raise ArithmeticError("phase 1 is bounded by construction")
        infeasibility = float(state.levels()[state.basis >= n_real].sum())
        if infeasibility > FEAS_TOL:
            return LpSolution(status=LpStatus.INFEASIBLE, pivots=state.pivots)

        # Artificials basic at level zero: pivot them out on the strongest
        # structural column, or drop the row entirely when it is redundant.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if state.basis[i] < n_real:
                continue
            # Row i of B^-1 a, read as (B^-T e_i) . a.
            magnitudes = np.abs(state._solve(state.matrix.T, np.eye(m)[i]) @ a_ext[:, :n_real])
            col = int(magnitudes.argmax())
            if magnitudes[col] > PIVOT_TOL:
                state.pivot(i, col)
            else:
                keep[i] = False
        a_ext = a_ext[keep]
        b = b[keep]
        basis = state.basis[keep]
        pivots = state.pivots

    if phase2_start is None:
        phase2_start = _Simplex(a_ext[:, :n_real], b, phase2_costs, basis, phase=2)
    status, state = _optimize(phase2_start, n)
    pivots += state.pivots
    if status == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED, pivots=pivots)

    x = np.zeros(n)
    structural = state.basis < n
    x[state.basis[structural]] = state.levels()[structural]
    x[(x <= 0) & (x >= -PIVOT_TOL)] = 0.0
    _check_feasible(problem, x)
    # "+ 0.0" turns a sum of -0.0 terms (a negative cost at x = 0) into 0.0.
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective_value=float(np.dot(problem.objective, x)) + 0.0,
        pivots=pivots,
    )


def _check_feasible(problem: LpProblem, x: np.ndarray) -> None:
    """Raise on the first row of the problem's constraints that x violates."""
    if x.min(initial=0.0) < -PIVOT_TOL:
        raise ArithmeticError(f"solution has a negative coordinate: {x.min()}")
    b, relations = problem.rhs, problem.relations
    values = problem.a @ x
    le = np.array([rel is Relation.LE for rel in relations], dtype=bool)
    ge = np.array([rel is Relation.GE for rel in relations], dtype=bool)
    bad = np.where(
        le,
        values > b + FEAS_TOL,
        np.where(ge, values < b - FEAS_TOL, np.abs(values - b) > FEAS_TOL),
    )
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise ArithmeticError(
            f"solution violates constraint {idx}: {values[idx]} vs "
            f"{relations[idx].value} {b[idx]}"
        )
