"""Benchmark of the nodesync CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: this one process calls
`nodesync.cli.main([...])` in-process, one op after the other, with inputs
derived from --seed.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs a fixed op list under span tracing, then the same ops
untraced, and reports the per-layer metrics.  Every op's CSV is checked
after the timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload in turn, each in its own process.

The program is imported from src/ of the checkout this file sits in; without
it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh-interpreter starts timed for setup_s, half before and half after the
# timed loop so that they sample more of the host's speed drift; the median is
# reported.  Scaling by the reference kernel does not steady them.
COLD_STARTS = 12
COLD_START_CODE = (
    "import sys, nodesync, nodesync.cli as cli; "
    "sys.exit(cli.main(['rate', '--out', sys.argv[1]]))"
)
# The host's speed drifts by up to 1.6x over tens of seconds on a shared
# machine.  Every op is bracketed by a fixed reference kernel, and op times
# are reported at the speed at which that kernel takes REF_SECONDS.
REF_SECONDS = 0.005
# Exit code with which the CLI reports a numerical or solver failure.
NUMERICAL_FAILURE = 2
# Least share of the traced ops' wall time that the layer self times must
# account for.
MIN_TRACE_COVERAGE = 0.98
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Op:
    index: int
    rc: int | None  # None when an exception escaped cli.main
    seconds: float
    text: str
    stderr: str
    ref: float = REF_SECONDS  # reference kernel time around the op

    @property
    def scaled(self) -> float:
        """Op time at reference speed."""
        return self.seconds * REF_SECONDS / self.ref


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter steps and small NumPy calls.

    Of the kernels tried (interpreter loop, small NumPy calls, large-array
    passes, rank-one updates of a tableau-sized array), this pair tracked
    the drift of all four workloads best.
    """
    start = perf_counter()
    total = 0
    for k in range(25_000):
        total += k * k % 7
    v = np.ones(20)
    for _ in range(1_750):
        np.dot(v, v)
    return perf_counter() - start


def load_cli():
    if not (SRC / "nodesync" / "cli.py").is_file():
        raise BenchError(f"no nodesync sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nodesync.cli

    if Path(nodesync.cli.__file__).resolve() != (SRC / "nodesync" / "cli.py").resolve():
        raise BenchError(f"imported nodesync from {nodesync.cli.__file__}, not {SRC}")
    return nodesync.cli


def run_op(cli, workload, i: int, out: Path) -> Op:
    """Run op i once; only the cli.main call is timed."""
    argv = workload.args(i) + ["--out", str(out)]
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a CLI run would die with a traceback: a failed op
            rc = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return Op(i, rc, seconds, text, err.getvalue())


def run_ops(cli, workload, out: Path, done) -> list[Op]:
    """Ops 0, 1, ... until done(ops), each bracketed by reference kernel runs."""
    ops: list[Op] = []
    before = reference_seconds()
    while not done(ops):
        op = run_op(cli, workload, len(ops), out)
        after = reference_seconds()
        op.ref, before = (before + after) / 2, after
        ops.append(op)
    return ops


def timed_loop(cli, workload, seconds: float, out: Path) -> list[Op]:
    """Ops until `seconds` have passed, ending at a pass boundary."""
    start = perf_counter()
    return run_ops(
        cli, workload, out,
        lambda ops: ops and perf_counter() - start >= seconds and len(ops) % workload.pass_ops == 0,
    )


def assess(workload, ops: list[Op]) -> tuple[int, list[str]]:
    """Failed-op count and the problems that make the run incorrect.

    An op fails when it exits nonzero or its CSV fails a check.  Exit 2 is
    the CLI's report of a numerical failure: it counts as failed but not as
    a wrong answer.  Any other nonzero exit on the valid inputs the
    workloads generate is a wrong answer.
    """
    failed = 0
    problems: list[str] = []
    good: dict[int, str] = {}
    for op in ops:
        if op.rc != 0:
            failed += 1
            if op.rc != NUMERICAL_FAILURE:
                last = op.stderr.strip().splitlines()[-1:] or [""]
                problems.append(f"op {op.index} exited {op.rc}: {last[0]}")
            continue
        try:
            problem = workload.check(op.index, op.text)
        except (ValueError, IndexError, KeyError) as exc:
            problem = f"unreadable CSV: {exc!r}"
        if problem:
            failed += 1
            problems.append(f"op {op.index}: {problem}")
        else:
            good[op.index] = op.text
    try:
        problems += workload.check_run(good)
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"pooled check: unreadable CSV: {exc!r}")
    return failed, problems


def csv_digest(cli, workload, ops: list[Op], out: Path) -> str:
    """sha256 over exit code and CSV of ops 0..digest_ops-1, running any the
    loop did not reach."""
    by_index = {op.index: op for op in ops}
    digest = hashlib.sha256()
    for i in range(workload.digest_ops):
        op = by_index.get(i) or run_op(cli, workload, i, out)
        digest.update(f"op {i} exit {op.rc}\n".encode())
        digest.update(op.text.encode())
    return digest.hexdigest()


def cold_start_seconds(out: Path, n: int) -> list[float]:
    """Wall times of n fresh-interpreter starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(n):
        out.unlink(missing_ok=True)
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_CODE, str(out)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=60, check=False,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not out.exists() or not out.read_text().startswith("epsilon,mu_star\n"):
            raise BenchError(f"cold start of `nodesync rate` failed: {proc.stderr.decode()[-500:]}")
    return times


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset (library default)") for v in BLAS_THREAD_VARS},
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(cli, workload, seconds: float, out: Path) -> tuple[dict, list[Op], list[str]]:
    """End-to-end metrics of one untraced run (set-up excluded)."""
    ops = timed_loop(cli, workload, seconds, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [op.seconds for op in ops]
    latencies = [op.scaled for op in ops]
    n = len(ops)
    # Host slowdowns only ever lengthen an op, so an input run more than once
    # is timed by its fastest run.
    fastest: dict[int, Op] = {}
    for op in ops:
        key = workload.input_of(op.index)
        if key not in fastest or op.scaled < fastest[key].scaled:
            fastest[key] = op
    done = sum(workload.units(op.index) for op in fastest.values() if op.rc == 0)
    units_per_s = done / sum(op.scaled for op in fastest.values())
    done_raw = sum(workload.units(op.index) for op in ops if op.rc == 0)
    lines = [
        f"units_per_s {units_per_s!r} 1/s (at reference speed over {len(fastest)} distinct inputs; "
        f"raw {done_raw / sum(raw):.6g}; {done_raw} {workload.unit} in {sum(raw):.3f} s busy; n={n} ops)",
        f"op_p50_ms {statistics.median(latencies) * 1e3!r} ms (at reference speed; "
        f"raw {statistics.median(raw) * 1e3:.6g}; n={n} ops)",
    ]
    if n >= P90_MIN_OPS:
        lines.append(
            f"op_p90_ms {percentile(latencies, 90) * 1e3!r} ms (at reference speed; "
            f"raw {percentile(raw, 90) * 1e3:.6g}; n={n} ops)"
        )
    else:
        lines.append(f"op_p90_ms not reported: {n} ops < {P90_MIN_OPS}")
    lines.append(f"peak_rss_mb {peak_rss_mb!r} MiB (n=1 process)")
    lines.append(
        f"reference_ms {statistics.median(op.ref for op in ops) * 1e3:.6g} ms "
        f"(median; nominal {REF_SECONDS * 1e3:g}; n={n + 1} runs)"
    )
    metrics = {
        "units_per_s": (units_per_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    return metrics, ops, lines


def measure_traced(
    cli, workload, seconds: float, out: Path, spans: Path
) -> tuple[dict, list[Op], list[str], list[str]]:
    """Per-layer metrics: a fixed op list traced, then the same ops untraced."""
    from spans import METRICS, Tracer, layer_table

    n = workload.trace_ops(seconds)
    tracer = Tracer()
    tracer.install(cli)
    try:
        ops = run_ops(cli, workload, out, lambda ops: len(ops) == n)
    finally:
        tracer.uninstall()
    replay = run_ops(cli, workload, out, lambda ops: len(ops) == n)
    lines = [f"spans {tracer.write(spans)} written to {spans.relative_to(ROOT)}"]
    problems = [
        f"op {a.index} differs between traced and untraced runs"
        for a, b in zip(ops, replay)
        if (a.rc, a.text) != (b.rc, b.text)
    ]
    overhead = sum(op.scaled for op in ops) / sum(op.scaled for op in replay)
    table = layer_table(spans, sum(op.seconds for op in ops), overhead)
    metrics = {name: (table[name], unit) for name, unit in METRICS.items()}
    if table["trace.coverage"] < MIN_TRACE_COVERAGE:
        problems.append(f"layer self times cover {table['trace.coverage']:.4f} of the traced wall time")
    lines += [f"{name} {value!r} {unit} (n={n} ops)" for name, (value, unit) in metrics.items()]
    return metrics, ops, lines, problems


def run_workload(args) -> int:
    from workloads import WORKLOADS

    cli = load_cli()
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    out = stem.with_suffix(".csv")
    print("env " + json.dumps(environment()))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    setup_out = stem.with_suffix(".setup.csv")
    if not args.trace:
        setup = cold_start_seconds(setup_out, COLD_STARTS // 2)
    warm = run_op(cli, workload, 0, out)  # imports and caches, untimed
    print(f"warmup_s {warm.seconds!r} s (n=1 op, exit {warm.rc})")

    problems: list[str] = []
    if args.trace:
        metrics, ops, lines, problems = measure_traced(
            cli, workload, args.seconds, out, stem.with_suffix(".spans.jsonl")
        )
    else:
        metrics, ops, lines = measure(cli, workload, args.seconds, out)
        setup += cold_start_seconds(setup_out, COLD_STARTS - COLD_STARTS // 2)
        metrics["setup_s"] = (statistics.median(setup), "s")
        lines.append(
            f"setup_s {metrics['setup_s'][0]!r} s (median of n={COLD_STARTS} cold starts, "
            f"min {min(setup):.6g}, max {max(setup):.6g})"
        )
    with open(stem.with_suffix(".ops.jsonl"), "w", encoding="utf-8") as handle:
        for op in ops:
            handle.write(json.dumps({"op": op.index, "exit": op.rc, "seconds": op.seconds, "ref": op.ref}) + "\n")
    failed, found_problems = assess(workload, ops)
    problems += found_problems
    lines += workload.notes
    lines.append(f"fail_ratio {failed / len(ops)!r} ({failed} of {len(ops)} ops)")
    lines.append(f"csv_sha256 {csv_digest(cli, workload, ops, out)} (ops 0-{workload.digest_ops - 1}, seed {args.seed})")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary line."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
