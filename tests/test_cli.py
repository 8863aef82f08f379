from __future__ import annotations

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import nodesync
from nodesync import cli, sim_harness
from nodesync.cli import main
from nodesync.queue_model import RateParams, estimate_tail
from nodesync.sync_game import GameSpec, best_pure_profile, solve_ns


def run_cli(args):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(args)
    return code, buffer.getvalue()


def test_decay_defaults():
    code, out = run_cli(["decay"])
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "x,mu_minus_lambda,i_value"
    rows = [line for line in lines[1:] if line]
    assert len(rows) == 51 * 51
    first = rows[0].split(",")
    assert float(first[2]) == 0.0
    corner = rows[-1].split(",")
    assert float(corner[0]) == 1.0
    assert float(corner[1]) == 10.0
    assert float(corner[2]) == pytest.approx(math.log(13.0 / 3.0), abs=1e-9)
    # The x = 0 edge of the sweep is identically zero.
    zero_rows = [r for r in rows if r.startswith("0.0,")]
    assert all(float(r.split(",")[2]) == 0.0 for r in zero_rows)


def test_decay_rejects_bad_grid():
    code, _ = run_cli(["decay", "--x-steps", "1"])
    assert code == 1


def test_tail_small_run_matches_library():
    args = ["tail", "--runs", "400", "--horizon", "150", "--reps", "1",
            "--gammas", "0,2", "--seed", "5"]
    code, out = run_cli(args)
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert lines[0] == "gamma,hits,runs,p_hat,std_err"
    estimates = estimate_tail(RateParams(3.0, 6.0), [0, 2], 400, 150, 5)
    first = lines[1].split(",")
    assert int(first[1]) == estimates[0].hits
    assert float(first[3]) == estimates[0].p_hat
    footer = lines[-1].split(",")
    assert footer[0] == "slope"
    assert float(footer[4]) == pytest.approx(math.log(2.0))


def test_tail_merges_repetitions():
    args = ["tail", "--runs", "200", "--horizon", "100", "--reps", "3", "--gammas", "0,1"]
    code, out = run_cli(args)
    assert code == 0
    data = [line for line in out.split("\n") if line][1:-1]
    assert all(int(row.split(",")[2]) == 600 for row in data)


def test_tail_exit_codes():
    bad_rates = ["tail", "--lam", "5", "--mu", "4", "--runs", "10", "--horizon", "10", "--reps", "1"]
    assert run_cli(bad_rates)[0] == 1
    all_zero = ["tail", "--runs", "40", "--horizon", "60", "--reps", "1", "--gammas", "500,600"]
    assert run_cli(all_zero)[0] == 2
    unknown_flag = ["tail", "--nope", "1"]
    assert run_cli(unknown_flag)[0] == 1


def test_capacity_and_rate_tables():
    code, out = run_cli(["capacity", "--epsilons", "0.01,1"])
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert lines[0] == "epsilon,gamma_star"
    assert float(lines[1].split(",")[1]) == pytest.approx(6.643856, abs=1e-5)
    assert float(lines[2].split(",")[1]) == 0.0

    code, out = run_cli(["rate", "--epsilons", "0.01,1", "--gamma", "10"])
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert lines[0] == "epsilon,mu_star"
    assert float(lines[1].split(",")[1]) == pytest.approx(4.754679, abs=1e-5)
    assert float(lines[2].split(",")[1]) == pytest.approx(3.0)


def test_decide_sweep_and_header():
    code, out = run_cli(["decide", "--m", "3", "--eps1", "0.1,0.5", "--eps-rest", "0.2"])
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert lines[0] == "eps1,p_1,p_2,p_3,objective,marginal_1,marginal_2,marginal_3"
    low = lines[1].split(",")
    assert low[1] == "1"
    high = lines[2].split(",")
    assert high[1] == "0"
    assert float(low[4]) == pytest.approx(5.0, abs=1e-8)


def test_decide_explicit_vector_mode():
    code, out = run_cli(["decide", "--m", "2", "--epsilon", "0.3,0.2"])
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "0.3"
    assert (cells[1], cells[2]) == ("0", "1")


def test_sweep_alpha_and_cost_zero():
    code, out = run_cli(["sweep", "--param", "alpha", "--values", "4,6,10", "--m", "4"])
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert lines[0] == "param_value,max_total_utility"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == pytest.approx(0.0, abs=1e-9)
    assert values[1] == pytest.approx(1.0, abs=1e-8)
    assert values[2] == pytest.approx(5.0, abs=1e-8)

    code, out = run_cli(["sweep", "--param", "cost", "--values", "0", "--m", "4"])
    assert code == 0
    emitted = float(out.strip().split("\n")[1].split(",")[1])
    _, pure = best_pure_profile(GameSpec.uniform(4, 0.2, 10.0, 0.0))
    assert emitted == pytest.approx(pure, abs=1e-9)


def test_netsim_compare_and_counts():
    args = ["netsim", "--rounds", "800", "--reps", "2", "--strategy", "compare", "--n-partial", "2"]
    code, out = run_cli(args)
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    header = lines[0].split(",")
    assert header[:7] == [
        "rep", "strategy", "sync_success_rate", "predicted_success", "rounds",
        "total_requests", "redundant_responses",
    ]
    assert header[7:] == ["failure_1", "failure_2", "failure_3"]
    cautious_rows = [line for line in lines if line.startswith(("0,cautious", "1,cautious"))]
    assert all(int(row.split(",")[5]) == 2 * 3 * 800 for row in cautious_rows)
    assert lines[-4].split(",")[0] == "mean"
    assert lines[-1].split(",")[:2] == ["stderr", "equilibrium"]


def test_netsim_rejects_fractional_capacity():
    assert run_cli(["netsim", "--gamma", "4.5", "--rounds", "10"])[0] == 1


def test_netsim_full_node_limit():
    # Profiles are int64 bit masks, so 64 nodes is invalid input, not a crash.
    assert run_cli(["netsim", "--m", "64", "--rounds", "10", "--reps", "1"]) == (1, "")
    code, out = run_cli(["netsim", "--m", "63", "--rounds", "20", "--reps", "1"])
    assert code == 0
    assert out.split("\n")[1].startswith("0,cautious,")


def test_invalid_input_writes_no_rows(tmp_path):
    for args in (
        ["decide", "--m", "13"],
        ["decide", "--eps1", "0.5,1.5"],
        ["sweep", "--m", "13"],
        ["netsim", "--m", "13", "--strategy", "compare", "--rounds", "10"],
        ["tail", "--lam", "60000", "--mu", "70000", "--runs", "2", "--horizon", "3", "--reps", "1"],
        ["tail", "--runs", "200", "--horizon", "100", "--reps", "1", "--gammas", "0"],
        ["tail", "--runs", "200", "--horizon", "100", "--reps", "1", "--gammas", "0,500"],
        ["netsim", "--mu", "60000", "--rounds", "10", "--reps", "1"],
        ["decay", "--lam", "-1"],
        ["capacity", "--epsilons", "0.1,-1"],
        ["rate", "--epsilons", "0.1,2"],
        ["rate", "--gamma", "-1"],
        ["decide", "--m", "2", "--alpha", "nan"],
        ["decide", "--m", "2", "--alpha", "inf"],
        ["decide", "--m", "2", "--cost", "inf"],
        ["sweep", "--m", "2", "--values", "nan"],
        ["sweep", "--m", "2", "--param", "cost", "--values", "inf"],
        ["netsim", "--gamma", "inf", "--rounds", "10", "--reps", "1"],
        ["capacity", "--mu", "inf"],
        ["rate", "--lam", "inf"],
        ["rate", "--gamma", "nan"],
        ["decay", "--lam", "nan"],
        ["decay", "--x-max", "inf"],
    ):
        assert run_cli(args) == (1, ""), args
        # The --out file is written only by a call that succeeds: an existing
        # file keeps its bytes and a missing one is not created.
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"earlier,rows\n")
        assert run_cli(args + ["--out", str(kept)]) == (1, ""), args
        assert kept.read_bytes() == b"earlier,rows\n"
        missing = tmp_path / "missing.csv"
        assert run_cli(args + ["--out", str(missing)]) == (1, ""), args
        assert not missing.exists()


def _fail_on_second_call(monkeypatch, name):
    """Make cli.<name> raise ArithmeticError from its second call on."""
    real, calls = getattr(cli, name), []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) >= 2:
            raise ArithmeticError(f"{name} failed on call {len(calls)}")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, flaky)
    return calls


def test_failure_after_some_rows_writes_nothing(tmp_path, monkeypatch):
    for name, args in (
        ("solve_ns", ["decide", "--m", "3", "--eps1", "0.1,0.5"]),
        ("solve_ns", ["sweep", "--m", "3", "--values", "1,2"]),
        ("simulate_detail", ["netsim", "--strategy", "compare", "--rounds", "50", "--reps", "1"]),
    ):
        with monkeypatch.context() as patch:
            calls = _fail_on_second_call(patch, name)
            assert run_cli(args) == (2, ""), args
            assert len(calls) == 2, args  # a row was computed before the failure
            kept = tmp_path / "kept.csv"
            kept.write_bytes(b"earlier,rows\n")
            calls.clear()
            assert run_cli(args + ["--out", str(kept)]) == (2, ""), args
            assert kept.read_bytes() == b"earlier,rows\n"
            missing = tmp_path / "missing.csv"
            calls.clear()
            assert run_cli(args + ["--out", str(missing)]) == (2, ""), args
            assert not missing.exists()


def test_out_of_memory_is_a_clean_error(monkeypatch, capsys):
    def no_memory(config):
        raise MemoryError()

    monkeypatch.setattr(cli, "simulate_detail", no_memory)
    assert main(["netsim", "--rounds", "10", "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nodesync: error: out of memory\n"

    def no_memory_for(config):
        raise MemoryError("Unable to allocate 8.0 GiB for an array")

    monkeypatch.setattr(cli, "simulate_detail", no_memory_for)
    assert main(["netsim", "--rounds", "10", "--reps", "1"]) == 1
    assert capsys.readouterr().err == "nodesync: error: Unable to allocate 8.0 GiB for an array\n"


def test_netsim_solves_each_spec_once(monkeypatch):
    calls = []

    def counting_solve_ns(spec):
        calls.append(spec)
        return solve_ns(spec)

    monkeypatch.setattr(sim_harness, "solve_ns", counting_solve_ns)
    args = ["netsim", "--rounds", "50", "--reps", "4", "--strategy", "compare"]
    assert run_cli(args)[0] == 0
    assert len(calls) == 1
    # The solve is shared within one call only: a second call solves again.
    assert run_cli(args)[0] == 0
    assert len(calls) == 2


def test_parser_is_built_once_and_reuse_leaks_no_state(tmp_path, monkeypatch):
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._shared_parser.cache_clear()
    plain = ["tail", "--runs", "150", "--horizon", "80", "--reps", "1"]
    first = run_cli(plain)  # the parser's first call in this process
    assert first[0] == 0
    cfg = tmp_path / "tail.cfg"
    cfg.write_text("gammas = 1,2\nseed = 7\nlam = 2.5\n")
    for before in (
        plain + ["--gammas", "1,2"],
        ["tail", "--config", str(cfg)] + plain[1:],
        plain + ["--gammas", "0"],  # exit 1: one threshold
        plain + ["--nope"],  # exit 1: argparse error
    ):
        run_cli(before)
        assert run_cli(plain) == first, before
    assert len(builds) == 1
    cli._shared_parser.cache_clear()


def test_parser_defaults_are_immutable():
    parser, registry = cli.build_parser()
    assert cli.build_parser()[0] is not parser  # the public builder stays fresh
    float_lists = 0
    for sub in registry.values():
        for action in sub._actions:
            assert not isinstance(action.default, (list, dict, set)), (sub.prog, action.dest)
            if action.type is cli._float_list and action.default is not None:
                assert isinstance(action.default, tuple), (sub.prog, action.dest)
                float_lists += 1
    assert float_lists == 14


def test_byte_identical_reruns():
    for args in (
        ["tail", "--runs", "150", "--horizon", "80", "--reps", "2"],
        ["decide", "--m", "2", "--eps1", "0.2,0.4"],
        ["netsim", "--rounds", "300", "--reps", "2", "--strategy", "compare"],
    ):
        assert run_cli(args) == run_cli(args)


def test_out_flag_writes_lf_file(tmp_path):
    target = tmp_path / "decay.csv"
    code, out = run_cli(["decay", "--x-steps", "2", "--gap-steps", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"x,mu_minus_lambda,i_value\n")


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "tail.cfg"
    cfg.write_text("runs = 120\nhorizon = 90\nreps = 1\ngammas = 0,1\n# comment\n")
    base = ["tail", "--config", str(cfg)]
    code, out = run_cli(base)
    assert code == 0
    rows = [line for line in out.split("\n") if line][1:-1]
    assert all(int(r.split(",")[2]) == 120 for r in rows)

    # Command-line flags override config entries.
    code, out = run_cli(base + ["--runs", "60"])
    assert code == 0
    rows = [line for line in out.split("\n") if line][1:-1]
    assert all(int(r.split(",")[2]) == 60 for r in rows)


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli(["tail", "--config", str(cfg)])[0] == 1
    cfg.write_text("no equals sign\n")
    assert run_cli(["tail", "--config", str(cfg)])[0] == 1
    assert run_cli(["tail", "--config", str(tmp_path / "missing.cfg")])[0] == 1


def test_program_imports_no_scipy():
    # scipy is a test-only cross-check; the program depends on numpy alone.
    src = Path(nodesync.__file__).resolve().parents[1]
    code = "import sys, nodesync.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
