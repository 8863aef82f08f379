"""Experiment runner: every analysis is a subcommand that emits CSV.

Exit codes: 0 on success, 1 on input validation problems or when memory
runs out, 2 on numerical or solver failures.  A call that exits 1 or 2
writes nothing to stdout or --out.  All output is deterministic given
flags and --seed; repeated invocations produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from dataclasses import replace
from typing import Sequence

from .ldp_analytics import (
    ToleranceSpec,
    decay_surface,
    effective_capacity,
    effective_rate,
)
from .queue_model import RateParams, TailEstimate, estimate_tail, fit_decay_slope
from .seeding import derive_seed
from .sim_harness import (
    CautiousAll,
    Equilibrium,
    FullNode,
    NetRunDetail,
    NetSimConfig,
    simulate_detail,
)
from .sync_game import GameSpec, solve_ns

_STDOUT = "-"


class _Parser(argparse.ArgumentParser):
    """Flag problems are input-validation failures, so exit 1 rather than
    argparse's default of 2 (which this tool reserves for numerical trouble)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc


def _broadcast(values: tuple[float, ...], m: int, name: str) -> tuple[float, ...]:
    if len(values) == 1:
        return values * m
    if len(values) == m:
        return values
    raise ValueError(f"{name} must have 1 or m={m} values, got {len(values)}")


def _fmt(value: object) -> str:
    return str(value)


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 2:
        raise ValueError(f"need at least 2 grid steps, got {steps}")
    if hi < lo:
        raise ValueError(f"grid range is empty: [{lo}, {hi}]")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _cmd_decay(args: argparse.Namespace, writer) -> None:
    xs = _grid(args.x_min, args.x_max, args.x_steps)
    gaps = _grid(args.gap_min, args.gap_max, args.gap_steps)
    surface = decay_surface(xs, gaps, args.lam)
    writer.writerow(["x", "mu_minus_lambda", "i_value"])
    for row in surface:
        for point in row:
            writer.writerow([_fmt(point.x), _fmt(point.rate_gap), _fmt(point.i_value)])


def _merge_tail(per_rep: list[list[TailEstimate]]) -> list[TailEstimate]:
    merged = []
    for cells in zip(*per_rep):
        runs = sum(c.runs for c in cells)
        hits = sum(c.hits for c in cells)
        p_hat = hits / runs
        merged.append(
            TailEstimate(
                gamma=cells[0].gamma,
                runs=runs,
                hits=hits,
                p_hat=p_hat,
                std_err=math.sqrt(p_hat * (1.0 - p_hat) / runs),
            )
        )
    return merged


def _rep_seeds(args: argparse.Namespace) -> list[int]:
    """--seed itself for a single repetition, else one child seed of it per repetition."""
    if args.reps < 1:
        raise ValueError(f"reps must be at least 1, got {args.reps}")
    if args.reps == 1:
        return [args.seed]
    return [derive_seed(args.seed, rep) for rep in range(args.reps)]


def _cmd_tail(args: argparse.Namespace, writer) -> None:
    params = RateParams(lam=args.lam, mu=args.mu)
    seeds = _rep_seeds(args)
    if len(args.gammas) < 2:
        raise ValueError(f"the decay slope needs at least 2 thresholds, got {len(args.gammas)}")
    estimates = _merge_tail(
        [estimate_tail(params, args.gammas, args.runs, args.horizon, seed) for seed in seeds]
    )
    if all(est.hits == 0 for est in estimates):
        raise RuntimeError("every threshold had zero hits; nothing to fit")
    fit = fit_decay_slope(estimates)
    if fit.n_excluded:
        print(f"note: {fit.n_excluded} zero-hit thresholds excluded from the fit", file=sys.stderr)
    writer.writerow(["gamma", "hits", "runs", "p_hat", "std_err"])
    for est in estimates:
        writer.writerow(
            [_fmt(est.gamma), est.hits, est.runs, _fmt(est.p_hat), _fmt(est.std_err)]
        )
    writer.writerow(["slope", "", "", _fmt(fit.slope), _fmt(math.log(args.mu / args.lam))])


def _cmd_capacity(args: argparse.Namespace, writer) -> None:
    params = RateParams(lam=args.lam, mu=args.mu)
    writer.writerow(["epsilon", "gamma_star"])
    for eps in args.epsilons:
        writer.writerow([_fmt(eps), _fmt(effective_capacity(ToleranceSpec(eps), params))])


def _cmd_rate(args: argparse.Namespace, writer) -> None:
    writer.writerow(["epsilon", "mu_star"])
    for eps in args.epsilons:
        writer.writerow([_fmt(eps), _fmt(effective_rate(ToleranceSpec(eps), args.gamma, args.lam))])


def _cmd_decide(args: argparse.Namespace, writer) -> None:
    m = args.m
    alpha = _broadcast(args.alpha, m, "alpha")
    cost = _broadcast(args.cost, m, "cost")
    if args.epsilon is not None:
        sweep = [_broadcast(args.epsilon, m, "epsilon")]
    else:
        sweep = [(eps1,) + (args.eps_rest,) * (m - 1) for eps1 in args.eps1]
    writer.writerow(
        ["eps1"]
        + [f"p_{i + 1}" for i in range(m)]
        + ["objective"]
        + [f"marginal_{i + 1}" for i in range(m)]
    )
    for epsilon in sweep:
        report = solve_ns(GameSpec(m=m, epsilon=epsilon, alpha=alpha, cost=cost))
        row = [_fmt(epsilon[0]), *report.chosen_profile.bits, _fmt(report.objective)]
        writer.writerow(row + [_fmt(v) for v in report.marginals])


def _cmd_sweep(args: argparse.Namespace, writer) -> None:
    m = args.m
    epsilon = _broadcast(args.eps, m, "eps")
    writer.writerow(["param_value", "max_total_utility"])
    for value in args.values:
        alpha, cost = (value, args.cost) if args.param == "alpha" else (args.alpha, value)
        spec = GameSpec(m=m, epsilon=epsilon, alpha=(alpha,) * m, cost=(cost,) * m)
        writer.writerow([_fmt(value), _fmt(solve_ns(spec).objective)])


def _netsim_configs(args: argparse.Namespace) -> list[tuple[str, NetSimConfig]]:
    """The labelled configurations one rep runs, at --seed: cautious,
    equilibrium, or both for --strategy compare.  The equilibrium strategy
    is one object per call, so every rep shares its solve."""
    m = args.m
    lams = _broadcast(args.lam, m, "lam")
    mus = _broadcast(args.mu, m, "mu")
    gammas = _broadcast(args.gamma, m, "gamma")
    if any(not (math.isfinite(cap) and cap == int(cap)) for cap in gammas):
        raise ValueError(f"capacities must be finite whole numbers of requests, got {gammas}")
    nodes = tuple(
        FullNode(params=RateParams(lam=lam, mu=mu), capacity=int(cap))
        for lam, mu, cap in zip(lams, mus, gammas)
    )
    strategies = []
    if args.strategy in ("cautious", "compare"):
        strategies.append(("cautious", CautiousAll()))
    if args.strategy in ("equilibrium", "compare"):
        spec = GameSpec(
            m=m,
            epsilon=_broadcast(args.eps, m, "eps"),
            alpha=_broadcast(args.alpha, m, "alpha"),
            cost=_broadcast(args.cost, m, "cost"),
        )
        strategies.append(("equilibrium", Equilibrium(spec=spec)))
    return [
        (label, NetSimConfig(full_nodes=nodes, n_partial=args.n_partial, strategy=strategy,
                             rounds=args.rounds, master_seed=args.seed))
        for label, strategy in strategies
    ]


def _netsim_row(rep: int, label: str, detail: NetRunDetail) -> list:
    report = detail.report
    return (
        [rep, label, report.sync_success_rate, report.predicted_success, report.rounds_used]
        + [detail.total_requests, detail.redundant_responses]
        + list(report.per_node_failure)
    )


def _netsim_footers(label: str, rows: list[list]) -> list[list]:
    """Mean and standard-error rows over the numeric columns of one strategy."""
    columns = list(zip(*[[float(v) for v in row[2:]] for row in rows]))
    n = len(rows)
    means = [sum(col) / n for col in columns]
    if n > 1:
        errs = [
            math.sqrt(sum((v - mean) ** 2 for v in col) / (n - 1) / n)
            for col, mean in zip(columns, means)
        ]
    else:
        errs = [0.0] * len(means)
    return [["mean", label] + means, ["stderr", label] + errs]


def _cmd_netsim(args: argparse.Namespace, writer) -> None:
    seeds = _rep_seeds(args)
    runs = _netsim_configs(args)
    writer.writerow(
        ["rep", "strategy", "sync_success_rate", "predicted_success", "rounds"]
        + ["total_requests", "redundant_responses"]
        + [f"failure_{i + 1}" for i in range(args.m)]
    )
    by_label: dict[str, list[list]] = {}
    for rep, seed in enumerate(seeds):
        for label, config in runs:
            row = _netsim_row(rep, label, simulate_detail(replace(config, master_seed=seed)))
            writer.writerow([_fmt(v) for v in row])
            by_label.setdefault(label, []).append(row)
    for label in sorted(by_label):
        for footer in _netsim_footers(label, by_label[label]):
            writer.writerow([_fmt(v) for v in footer])


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    parser.add_argument("--out", default=_STDOUT, help="output CSV path, '-' for stdout")
    parser.add_argument("--config", default=None, help="flat key=value config file; flags override it")
    parser.add_argument(
        "--reps",
        type=int,
        default=20,
        help="repetitions for statistical subcommands (default 20); deterministic subcommands ignore it",
    )


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """A fresh parser tree: the top-level parser and each subcommand's parser.

    Every default is immutable (list flags default to tuples), so parsing
    never changes the tree and one tree can serve any number of calls.
    """
    parser = _Parser(prog="nodesync", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    p = subs.add_parser("decay", parents=[], help="tabulate the tail decay-rate surface")
    p.add_argument("--lam", type=float, default=3.0)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--x-steps", type=int, default=51)
    p.add_argument("--gap-min", type=float, default=0.0)
    p.add_argument("--gap-max", type=float, default=10.0)
    p.add_argument("--gap-steps", type=int, default=51)
    _add_common(p)
    p.set_defaults(func=_cmd_decay)
    registry["decay"] = p

    p = subs.add_parser("tail", help="Monte Carlo tail probabilities and the fitted decay slope")
    p.add_argument("--lam", type=float, default=3.0)
    p.add_argument("--mu", type=float, default=6.0)
    p.add_argument("--gammas", type=_float_list, default=(3, 4, 5, 6, 7, 8, 9, 10))
    p.add_argument("--runs", type=int, default=5000, help="walks per repetition")
    p.add_argument("--horizon", type=int, default=5000)
    _add_common(p)
    p.set_defaults(func=_cmd_tail)
    registry["tail"] = p

    p = subs.add_parser("capacity", help="minimum capacity meeting each failure tolerance")
    p.add_argument("--lam", type=float, default=3.0)
    p.add_argument("--mu", type=float, default=6.0)
    p.add_argument("--epsilons", type=_float_list, default=(0.01, 0.05, 0.1, 0.2, 0.5, 1.0))
    _add_common(p)
    p.set_defaults(func=_cmd_capacity)
    registry["capacity"] = p

    p = subs.add_parser("rate", help="minimum response rate meeting each failure tolerance")
    p.add_argument("--lam", type=float, default=3.0)
    p.add_argument("--gamma", type=float, default=10.0)
    p.add_argument("--epsilons", type=_float_list, default=(0.01, 0.05, 0.1, 0.2, 0.5, 1.0))
    _add_common(p)
    p.set_defaults(func=_cmd_rate)
    registry["rate"] = p

    p = subs.add_parser("decide", help="equilibrium request decisions over a tolerance sweep")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--eps1", type=_float_list, default=tuple(round(0.1 * i, 1) for i in range(1, 10)))
    p.add_argument("--eps-rest", type=float, default=0.2)
    p.add_argument("--epsilon", type=_float_list, default=None, help="full tolerance vector; disables the eps1 sweep")
    p.add_argument("--alpha", type=_float_list, default=(10.0,))
    p.add_argument("--cost", type=_float_list, default=(5.0,))
    _add_common(p)
    p.set_defaults(func=_cmd_decide)
    registry["decide"] = p

    p = subs.add_parser("sweep", help="maximized total utility over a parameter sweep")
    p.add_argument("--param", choices=("alpha", "cost"), default="alpha")
    p.add_argument("--values", type=_float_list, default=tuple(float(v) for v in range(1, 11)))
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--eps", type=_float_list, default=(0.2,))
    p.add_argument("--alpha", type=float, default=10.0, help="fixed alpha when sweeping cost")
    p.add_argument("--cost", type=float, default=5.0, help="fixed cost when sweeping alpha")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)
    registry["sweep"] = p

    p = subs.add_parser("netsim", help="round-based network simulation of request strategies")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--lam", type=_float_list, default=(3.0,))
    p.add_argument("--mu", type=_float_list, default=(6.0,))
    p.add_argument("--gamma", type=_float_list, default=(4.0,))
    p.add_argument("--n-partial", type=int, default=1)
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--strategy", choices=("cautious", "equilibrium", "compare"), default="cautious")
    p.add_argument("--eps", type=_float_list, default=(0.2,))
    p.add_argument("--alpha", type=_float_list, default=(10.0,))
    p.add_argument("--cost", type=_float_list, default=(5.0,))
    _add_common(p)
    p.set_defaults(func=_cmd_netsim)
    registry["netsim"] = p

    return parser, registry


def _read_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _config_tokens(sub: argparse.ArgumentParser, entries: dict[str, str], path: str) -> list[str]:
    known = {
        action.dest: action.option_strings[0]
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    }
    tokens: list[str] = []
    for key, value in entries.items():
        dest = key.replace("-", "_")
        if dest == "config":
            raise ValueError(f"{path}: config files cannot set 'config'")
        if dest not in known:
            raise ValueError(f"{path}: unknown key {key!r} for this subcommand")
        tokens += [known[dest], value]
    return tokens


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser tree of every main() call in this process, built on the
    first one.  Only the tree is shared: each call parses into its own
    namespace and solves its own work."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = _shared_parser()
    try:
        args = parser.parse_args(raw_argv)
        if args.config is not None:
            command = raw_argv[0]
            tokens = _config_tokens(registry[command], _read_config(args.config), args.config)
            args = parser.parse_args([command] + tokens + raw_argv[1:])
        _dispatch(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, OSError) as exc:
        print(f"nodesync: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"nodesync: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, LookupError) as exc:
        print(f"nodesync: failure: {exc}", file=sys.stderr)
        return 2
    return 0


def _dispatch(args: argparse.Namespace) -> None:
    # Rows are written out only once the subcommand returns, so a failed
    # call writes nothing to stdout or --out.
    rows = io.StringIO()
    args.func(args, csv.writer(rows, lineterminator="\n"))
    if args.out == _STDOUT:
        sys.stdout.write(rows.getvalue())
        return
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(rows.getvalue())


if __name__ == "__main__":
    sys.exit(main())
