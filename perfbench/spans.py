"""Spans around the calls into each nodesync layer, and the per-layer table
derived from them.

The tracer replaces a layer's public functions at the module attribute that
callers look them up by, so no program code changes.  Spans stay in memory
during the run and are written to a JSON-lines file when it ends; the
per-layer table is then computed from that file alone.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs wrapped besides cli.main and the functions
# nodesync.cli imports.  Missing attributes are skipped.
HOOKS = (
    ("nodesync.queue_model", "derive_seed"),
    ("nodesync.queue_model", "make_rng"),
    ("nodesync.sim_harness", "derive_seed"),
    ("nodesync.sim_harness", "make_rng"),
    ("nodesync.sim_harness", "poisson_counts"),
    ("nodesync.sim_harness", "solve_ns"),
    ("nodesync.sync_game", "build_ns_lp"),
    ("nodesync.sync_game", "is_correlated_equilibrium"),
    ("nodesync.lp_solver", "solve"),
)

# Work a span does, computed from the bound call arguments after the run.
WORK = {
    "queue_model.estimate_tail": lambda a: a["runs"] * a["horizon"],
    "queue_model.poisson_counts": lambda a: a["n"],
    "sync_game.solve_ns": lambda a: 1 << a["spec"].m,
    "sim_harness.compare_strategies": lambda a: 2 * len(a["config"].full_nodes) * a["config"].rounds,
    "sim_harness.simulate_detail": lambda a: len(a["config"].full_nodes) * a["config"].rounds,
}

LAYERS = ("cli", "seeding", "queue_model", "lp_solver", "sync_game", "sim_harness")

# Per-layer metrics in output order: name -> unit.
METRICS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "seeding.calls": "count",
    "seeding.s": "s",
    "queue_model.estimate_tail.self_s": "s",
    "queue_model.walk_slots": "count",
    "queue_model.poisson_counts.s": "s",
    "queue_model.draws": "count",
    "lp_solver.solve.calls": "count",
    "lp_solver.solve.s": "s",
    "lp_solver.failures": "count",
    "lp_solver.ok_ratio": "ratio",
    "sync_game.build_ns_lp.s": "s",
    "sync_game.recheck.s": "s",
    "sync_game.solve_ns.self_s": "s",
    "sync_game.profiles": "count",
    "sim_harness.self_s": "s",
    "sim_harness.node_rounds": "count",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.op = -1  # index of the op in flight: one op per root span
        self._spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._signatures: dict[str, inspect.Signature] = {}
        self._restore: list[tuple] = []

    def install(self, cli) -> None:
        targets = [(sys.modules[mod], attr) for mod, attr in HOOKS]
        targets.append((cli, "main"))
        targets += [
            (cli, attr)
            for attr, value in vars(cli).items()
            if inspect.isfunction(value)
            and value.__module__.startswith("nodesync.")
            and value.__module__ != cli.__name__
        ]
        for module, attr in targets:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if name in WORK:
            self._signatures[name] = inspect.signature(fn)
        keep_args = name in WORK
        spans, stack, ids = self._spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            if not stack:
                self.op += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                call = (args, kwargs) if keep_args else None
                spans.append((sid, name, start, end, parent, self.op, ok, call))

        return traced

    def write(self, path: Path) -> int:
        """Write every span as one JSON object per line; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op, ok, call in self._spans:
                work = None
                if call is not None:
                    bound = self._signatures[name].bind(*call[0], **call[1])
                    work = WORK[name](bound.arguments)
                record = {
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "ok": ok, "work": work,
                }
                handle.write(json.dumps(record) + "\n")
        return len(self._spans)


def layer_table(path: Path, wall_s: float, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from a span file.

    `wall_s` is the traced ops' wall time as the caller timed them.  A span's
    self time is its duration minus the durations of its direct children.
    """
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    total = defaultdict(float)  # span time per function name
    own = defaultdict(float)  # self time per function name
    calls = defaultdict(int)
    failures = defaultdict(int)
    work = defaultdict(int)
    for s in spans:
        name, duration = s["name"], s["end"] - s["start"]
        total[name] += duration
        own[name] += duration - child_time[s["id"]]
        calls[name] += 1
        failures[name] += not s["ok"]
        work[name] += s["work"] or 0

    def of_layer(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    solves = calls["lp_solver.solve"]
    m = {
        "cli.calls": calls["cli.main"],
        "cli.self_s": of_layer(own, "cli"),
        "seeding.calls": of_layer(calls, "seeding"),
        "seeding.s": of_layer(total, "seeding"),
        "queue_model.estimate_tail.self_s": own["queue_model.estimate_tail"],
        "queue_model.walk_slots": work["queue_model.estimate_tail"],
        "queue_model.poisson_counts.s": total["queue_model.poisson_counts"],
        "queue_model.draws": work["queue_model.poisson_counts"],
        "lp_solver.solve.calls": solves,
        "lp_solver.solve.s": total["lp_solver.solve"],
        "lp_solver.failures": failures["lp_solver.solve"],
        "lp_solver.ok_ratio": (solves - failures["lp_solver.solve"]) / solves if solves else 1.0,
        "sync_game.build_ns_lp.s": total["sync_game.build_ns_lp"],
        "sync_game.recheck.s": total["sync_game.is_correlated_equilibrium"],
        "sync_game.solve_ns.self_s": own["sync_game.solve_ns"],
        "sync_game.profiles": work["sync_game.solve_ns"],
        "sim_harness.self_s": of_layer(own, "sim_harness"),
        "sim_harness.node_rounds": of_layer(work, "sim_harness"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = of_layer(own, layer) / wall_s
    m["trace.wall_s"] = wall_s
    m["trace.coverage"] = sum(own.values()) / wall_s
    m["trace.overhead_ratio"] = overhead_ratio
    return {k: int(v) if METRICS[k] == "count" else float(v) for k, v in m.items()}
