"""The benchmark's four workloads: the CLI call each op makes, how much work
an op completes, and the checks on its CSV output.

Every input is a pure function of the workload seed and the op index, so a
seed names one exact sequence of CLI calls.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class Workload:
    """One closed loop of `nodesync` CLI calls; subclasses fill in the ops."""

    name = ""
    unit = ""  # what one unit of units_per_s counts
    # A timed run ends only after a whole number of passes of this many ops.
    pass_ops = 1
    # Ops per second of --seconds in a traced run; fixed so that parent and
    # change trace the same op list.
    trace_rate = 1.0
    # The leading ops whose CSV goes into the run's digest.
    digest_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.notes: list[str] = []  # report lines added by the checks

    def op_seed(self, i: int) -> int:
        """The CLI --seed of op i, derived from the workload seed."""
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def input_of(self, i: int) -> int:
        """Identity of op i's input; ops with the same input repeat work."""
        return i

    def args(self, i: int) -> list[str]:
        raise NotImplementedError

    def units(self, i: int) -> int:
        """Work one successful op i completes."""
        raise NotImplementedError

    def check(self, i: int, text: str) -> str | None:
        """A problem with the CSV of a successful op i, or None."""
        raise NotImplementedError

    def check_run(self, texts: dict[int, str]) -> list[str]:
        """Problems visible only in the pooled output of successful ops."""
        return []

    def trace_ops(self, seconds: float) -> int:
        n = max(1, math.ceil(self.trace_rate * seconds / 2))
        return -(-n // self.pass_ops) * self.pass_ops


class Tail(Workload):
    """`nodesync tail` at the CLI's rates and thresholds, one rep per op."""

    name = "tail"
    unit = "walks at horizon 5000"
    trace_rate = 2.0
    digest_ops = 8
    LAM, MU = 3.0, 6.0
    GAMMAS = tuple(float(g) for g in range(3, 11))
    HORIZON = 5000
    # Enough walks that every op has at least two thresholds with hits, so the
    # CLI's own slope fit always has data (P(fewer) is about 1e-6 per op).
    RUNS = 1000
    # Criterion 01's tolerance on the fitted decay slope.
    SLOPE_TOL = 0.15
    # Below this many pooled walks the fitted slope's standard deviation
    # passes 3 %, too close to the tolerance to judge the program by.
    MIN_POOLED_WALKS = 20_000
    HEADER = ["gamma", "hits", "runs", "p_hat", "std_err"]

    def args(self, i: int) -> list[str]:
        return [
            "tail", "--lam", str(self.LAM), "--mu", str(self.MU),
            "--gammas", _csv_list(self.GAMMAS), "--horizon", str(self.HORIZON),
            "--runs", str(self.RUNS), "--reps", "1", "--seed", str(self.op_seed(i)),
        ]

    def units(self, i: int) -> int:
        return self.RUNS

    def _hits(self, text: str) -> list[int]:
        rows = _rows(text)
        if rows[0] != self.HEADER:
            raise ValueError(f"header {rows[0]}")
        body = rows[1:1 + len(self.GAMMAS)]
        if [float(r[0]) for r in body] != list(self.GAMMAS):
            raise ValueError(f"gammas {[r[0] for r in body]}")
        if any(int(r[2]) != self.RUNS for r in body):
            raise ValueError("runs column differs from --runs")
        if len(rows) != len(self.GAMMAS) + 2 or rows[-1][0] != "slope":
            raise ValueError("missing slope row")
        return [int(r[1]) for r in body]

    def check(self, i: int, text: str) -> str | None:
        hits = self._hits(text)
        if any(b > a for a, b in zip(hits, hits[1:])):
            return f"hits increase with gamma: {hits}"
        return None

    def check_run(self, texts: dict[int, str]) -> list[str]:
        if not texts:
            return []
        hits = np.sum([self._hits(t) for t in texts.values()], axis=0)
        runs = self.RUNS * len(texts)
        if runs < self.MIN_POOLED_WALKS:
            self.notes.append(f"pooled slope not checked: {runs} walks < {self.MIN_POOLED_WALKS}")
            return []
        used = hits > 0
        if used.sum() < 2:
            return [f"pooled hits {hits.tolist()} leave fewer than 2 points to fit"]
        # Weighted by hits, the inverse variance of each -ln(p_hat): an
        # unweighted fit over 45k walks has a 5.5 % standard deviation and
        # would fail a correct program about once in a hundred runs.
        gammas = np.array(self.GAMMAS)[used]
        slope = float(np.polyfit(gammas, -np.log(hits[used] / runs), 1, w=np.sqrt(hits[used]))[0])
        target = math.log(self.MU / self.LAM)
        self.notes.append(f"pooled slope {slope!r} over {runs} walks (target {target!r})")
        if abs(slope - target) > self.SLOPE_TOL * target:
            return [f"pooled slope {slope:.4f} over {runs} walks is not within 15% of {target:.4f}"]
        return []


class GameSym(Workload):
    """`nodesync sweep` over alpha twice, then over cost once, at m=8 with one
    uniform tolerance per run.

    A cost sweep takes about three times the pivots of an alpha sweep.  With
    the two in equal numbers the median op would fall in the gap between
    them and swing with single ops; at two to one it falls among the alpha
    sweeps.
    """

    name = "game_sym"
    unit = "equilibria"
    trace_rate = 2.8
    digest_ops = 6
    M = 8
    VALUES = tuple(float(v) for v in range(1, 11))
    ALPHA, COST = 10.0, 5.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.eps = float(np.random.default_rng([seed, 1]).uniform(0.05, 0.6))
        self._pure: dict[tuple[str, float], float] = {}

    def _param(self, i: int) -> str:
        return ("alpha", "alpha", "cost")[i % 3]

    def args(self, i: int) -> list[str]:
        return [
            "sweep", "--param", self._param(i), "--values", _csv_list(self.VALUES),
            "--m", str(self.M), "--eps", repr(self.eps), "--alpha", str(self.ALPHA),
            "--cost", str(self.COST), "--seed", str(self.op_seed(i)),
        ]

    def units(self, i: int) -> int:
        return len(self.VALUES)

    def _best_pure(self, param: str, value: float) -> float:
        from nodesync.sync_game import GameSpec, best_pure_profile

        key = (param, value)
        if key not in self._pure:
            alpha = value if param == "alpha" else self.ALPHA
            cost = value if param == "cost" else self.COST
            spec = GameSpec.uniform(self.M, self.eps, alpha, cost)
            self._pure[key] = best_pure_profile(spec)[1]
        return self._pure[key]

    def check(self, i: int, text: str) -> str | None:
        rows = _rows(text)
        if rows[0] != ["param_value", "max_total_utility"]:
            return f"header {rows[0]}"
        if [float(r[0]) for r in rows[1:]] != list(self.VALUES):
            return f"param values {[r[0] for r in rows[1:]]}"
        param = self._param(i)
        for value, objective in ((float(r[0]), float(r[1])) for r in rows[1:]):
            pure = self._best_pure(param, value)
            if not objective >= pure - 1e-9:
                return f"{param}={value}: objective {objective} below best pure profile {pure}"
        return None


class GameHetero(Workload):
    """One `nodesync decide` per op on a degenerate heterogeneous spec.

    The specs form a fixed catalogue, drawn once from CATALOGUE_SEED: m
    alternates 9, 10 and every tolerance is i.i.d. U[0.05, 0.6].  The
    workload seed orders each pass over it.  Pivot counts differ by orders
    of magnitude between such specs, so a run that drew its own specs would
    measure its draw more than the program; whole passes over one catalogue
    keep runs comparable.  Specs the solver fails on stay in the catalogue.
    """

    name = "game_hetero"
    unit = "equilibria"
    CATALOGUE_SEED = 2206
    CATALOGUE_SIZE = 16
    pass_ops = CATALOGUE_SIZE
    trace_rate = 1.6
    digest_ops = CATALOGUE_SIZE
    ALPHA, COST = 10.0, 5.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(self.CATALOGUE_SEED)
        self.catalogue = [
            tuple(float(e) for e in rng.uniform(0.05, 0.6, 9 + k % 2))
            for k in range(self.CATALOGUE_SIZE)
        ]

    def input_of(self, i: int) -> int:
        """Catalogue index of op i's spec."""
        n = self.CATALOGUE_SIZE
        return int(np.random.default_rng([self.seed, 2, i // n]).permutation(n)[i % n])

    def spec(self, i: int) -> tuple[float, ...]:
        return self.catalogue[self.input_of(i)]

    def args(self, i: int) -> list[str]:
        epsilon = self.spec(i)
        return [
            "decide", "--m", str(len(epsilon)), "--epsilon", _csv_list(epsilon),
            "--alpha", str(self.ALPHA), "--cost", str(self.COST),
            "--seed", str(self.op_seed(i)),
        ]

    def units(self, i: int) -> int:
        return 1

    def check(self, i: int, text: str) -> str | None:
        m = len(self.spec(i))
        rows = _rows(text)
        header = (
            ["eps1"] + [f"p_{k + 1}" for k in range(m)] + ["objective"]
            + [f"marginal_{k + 1}" for k in range(m)]
        )
        if rows[0] != header:
            return f"header {rows[0]}"
        if len(rows) != 2:
            return f"{len(rows) - 1} data rows, expected 1"
        row = rows[1]
        bits = row[1:1 + m]
        if any(b not in ("0", "1") for b in bits):
            return f"decision bits {bits}"
        if not math.isfinite(float(row[1 + m])):
            return f"objective {row[1 + m]}"
        marginals = [float(v) for v in row[2 + m:]]
        if any(not -1e-12 <= v <= 1 + 1e-12 for v in marginals):
            return f"marginals outside [0, 1]: {marginals}"
        return None


class Netsim(Workload):
    """`nodesync netsim --strategy compare` at the CLI node defaults, long runs."""

    name = "netsim"
    unit = "node-rounds"
    trace_rate = 2.0
    digest_ops = 4
    M = 3
    ROUNDS = 200_000
    STRATEGIES = 2
    HEADER = (
        ["rep", "strategy", "sync_success_rate", "predicted_success", "rounds"]
        + ["total_requests", "redundant_responses"]
        + [f"failure_{k + 1}" for k in range(M)]
    )

    def args(self, i: int) -> list[str]:
        return [
            "netsim", "--strategy", "compare", "--m", str(self.M), "--lam", "3",
            "--mu", "6", "--gamma", "4", "--rounds", str(self.ROUNDS), "--reps", "1",
            "--seed", str(self.op_seed(i)),
        ]

    def units(self, i: int) -> int:
        return self.STRATEGIES * self.M * self.ROUNDS

    def check(self, i: int, text: str) -> str | None:
        rows = _rows(text)
        if rows[0] != self.HEADER:
            return f"header {rows[0]}"
        runs = {r[1]: r for r in rows[1:] if r[0] == "0"}
        if sorted(runs) != ["cautious", "equilibrium"]:
            return f"strategies {sorted(runs)}"
        for label, row in runs.items():
            rates = [float(row[2]), float(row[3])]
            if not all(0.0 <= r <= 1.0 for r in rates):
                return f"{label} rates outside [0, 1]: {rates}"
            if int(row[4]) != self.ROUNDS:
                return f"{label} ran {row[4]} rounds"
        if int(runs["equilibrium"][5]) > int(runs["cautious"][5]):
            return "equilibrium sent more requests than cautious"
        return None


WORKLOADS = {w.name: w for w in (Tail, GameSym, GameHetero, Netsim)}
