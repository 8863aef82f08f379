"""Smoke check of the benchmark harness at a tiny size.

    python3 perfbench/smoke.py

1. Runs every workload for a fraction of a second in both trace modes and
   checks that the result line and the report carry every metric that
   BENCHMARK.json names, with its unit.
2. Runs a game_hetero loop whose first op is the spec known to end in exit 2
   (`decide --m 10 --epsilon linspace(0.1, 0.5, 10)`) and checks that it is
   counted as one failed op and that the run goes on.
3. Runs the benchmark from a directory holding only BENCHMARK.json and
   perfbench/ and checks that it exits nonzero without printing a result.

Exits 0 when all of these hold; takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
from workloads import WORKLOADS, GameHetero

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "0.1", "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300, check=False)


def check_metrics() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(run.ROOT, workload, trace)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: incorrect output")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {got} != {want}")
            for name, unit in want.items():
                if not any(line.startswith(f"{name} ") and f" {unit} (" in line for line in lines):
                    problems.append(f"{workload} trace {trace}: report lacks {name} in {unit}")
            print(f"{workload} trace {trace}: {len(got)} metrics, exit {proc.returncode}")
    return problems


class KnownCrash(GameHetero):
    """game_hetero with the known singular-basis spec as op 0."""

    pass_ops = 2

    def spec(self, i: int) -> tuple[float, ...]:
        if i == 0:
            return tuple(float(e) for e in np.linspace(0.1, 0.5, 10))
        return super().spec(i)


def check_known_crash() -> list[str]:
    cli = run.load_cli()
    run.OUT.mkdir(exist_ok=True)
    workload = KnownCrash(seed=7)
    ops = run.timed_loop(cli, workload, 0.0, run.OUT / "smoke-crash.csv")
    failed, problems = run.assess(workload, ops)
    print(f"known crash: exit codes {[op.rc for op in ops]}, failed {failed} of {len(ops)}")
    if ops[0].rc != run.NUMERICAL_FAILURE:
        print("known crash: the spec no longer fails; checking the accounting only")
    expected = sum(op.rc != 0 for op in ops)
    if len(ops) != 2 or failed != expected or problems:
        return [f"known crash: {len(ops)} ops, failed {failed} (expected {expected}), {problems}"]
    return []


def check_bare_directory() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "tail", 0)
    shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}, stderr {proc.stderr.strip()[-120:]!r}")
    if proc.returncode == 0 or proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark did not fail cleanly"]
    return []


def main() -> int:
    problems = check_known_crash() + check_bare_directory() + check_metrics()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check passed" if not problems else f"smoke check failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
