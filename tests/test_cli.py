from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import nodesync
from nodesync import cli, queue_model, sim_harness
from nodesync.cli import main
from nodesync.queue_model import RateParams, estimate_tail
from nodesync.sync_game import GameSpec, best_pure_profile, is_correlated_equilibrium, solve_ns


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
    assert run_cli(all_zero)[0] == 1
    unknown_flag = ["tail", "--nope", "1"]
    assert run_cli(unknown_flag)[0] == 1


def test_capacity_and_rate_tables():
    code, out = run_cli(["capacity", "--epsilons", "0.01,1"])
    assert code == 0
    lines = [line for line in out.split("\n") if line]
    assert lines[0] == "epsilon,gamma_star"
    assert float(lines[1].split(",")[1]) == pytest.approx(6.643856, abs=1e-5)
    assert float(lines[2].split(",")[1]) == 0.0
    code, out = run_cli(["capacity"])
    assert code == 0 and out.split("\n")[-2] == "1.0,0.0" and "-0.0" not in out

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


# Specs with profit high next to cost and unequal tolerances, on which the
# equilibrium LP used to exit 2 ("basis matrix became singular in phase 2")
# or, the last one, to run for more than 580 s.
_HIGH_RATIO_DECIDE = {
    "m8": ("0.45,0.58,0.79,0.1,0.77,0.56,0.57,0.1", 33.8, 0.15),
    "m10": ("0.42,0.67,0.44,0.51,0.73,0.11,0.66,0.09,0.27,0.7", 15.4, 0.25),
    "m10_stall": ("0.33,0.75,0.26,0.82,0.49,0.65,0.57,0.17,0.94,0.68", 10.0, 0.1),
}


@pytest.mark.parametrize("name", sorted(_HIGH_RATIO_DECIDE))
def test_decide_high_profit_to_cost_specs(name):
    epsilon, alpha, cost = _HIGH_RATIO_DECIDE[name]
    m = epsilon.count(",") + 1
    args = ["decide", "--m", str(m), "--epsilon", epsilon]
    args += ["--alpha", str(alpha), "--cost", str(cost)]
    start = time.perf_counter()
    code, out = run_cli(args)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    lines = out.splitlines()
    assert len(lines) == 2
    tolerances = tuple(float(e) for e in epsilon.split(","))
    spec = GameSpec(m=m, epsilon=tolerances, alpha=(alpha,) * m, cost=(cost,) * m)
    report = solve_ns(spec)
    assert is_correlated_equilibrium(report.distribution, spec, tol=1e-8).ok
    assert report.objective >= best_pure_profile(spec)[1] - 1e-8
    assert float(lines[1].split(",")[m + 1]) == report.objective


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


def test_netsim_compare_draws_no_routing_at_its_defaults(monkeypatch):
    # CautiousAll sends everywhere and the default equilibrium is a point
    # mass, so neither route draws a routing uniform.
    draws = []
    fill = sim_harness.fill_streams
    monkeypatch.setattr(sim_harness, "fill_streams", lambda *args: draws.append(args) or fill(*args))
    code, _ = run_cli(["netsim", "--strategy", "compare"])
    assert code == 0 and draws == []


def test_netsim_rejects_fractional_capacity():
    assert run_cli(["netsim", "--gamma", "4.5", "--rounds", "10"])[0] == 1


def test_netsim_full_node_limit():
    # Send-to-all builds no profile masks, so it takes any number of full
    # nodes; only the game, and so the equilibrium strategy, stops at m = 12.
    code, out = run_cli(["netsim", "--m", "64", "--rounds", "20", "--reps", "1"])
    assert code == 0
    lines = out.split("\n")
    assert [c for c in lines[0].split(",") if c.startswith("failure_")] == [
        f"failure_{i}" for i in range(1, 65)
    ]
    assert lines[1].startswith("0,cautious,")
    assert run_cli(["netsim", "--m", "64", "--strategy", "compare", "--rounds", "20", "--reps", "1"]) == (1, "")


# Inputs that pass the range checks but whose answers leave the float range.
_OVERFLOW_CALLS = (
    ["tail", "--gammas=-inf,3", "--runs", "50", "--horizon", "50", "--reps", "1"],
    ["tail", "--gammas=3,inf", "--runs", "50", "--horizon", "50", "--reps", "1"],
    ["rate", "--gamma", "0.001"],
    ["rate", "--gamma", "1e-320", "--epsilons", "0.5"],
    ["capacity", "--lam", "1e-300", "--mu", "1e300"],
    ["decay", "--lam", "1e-310", "--x-steps", "2", "--gap-steps", "2"],
    ["sweep", "--m", "3", "--param", "cost", "--values", "0,1e308"],
    ["netsim", "--strategy", "equilibrium", "--alpha", "1e308", "--cost", "1e308",
     "--rounds", "10", "--reps", "1"],
)


def test_overflowing_inputs_fail_before_any_numerics(capfd, monkeypatch):
    # No walk runs for an infinite threshold, and nothing reaches LAPACK,
    # whose messages go straight to file descriptor 2.
    monkeypatch.setattr(
        "nodesync.queue_model._walk_sups",
        lambda *_: pytest.fail("a walk ran for invalid thresholds"),
    )
    for args in _OVERFLOW_CALLS:
        assert main(args) == 1, args
        out, err = capfd.readouterr()
        assert out == "", args
        assert err.startswith("nodesync: error: ") and err.count("\n") == 1, (args, err)
        assert "DLASCL" not in err


def test_game_with_finite_tables_answers_at_extreme_inputs():
    # The game is rejected on its tables, not on a bound of its inputs: at
    # m = 2 these utilities and totals are finite.
    args = ["decide", "--m", "2", "--eps1", "0.5", "--alpha", "1e308", "--cost", "1e308"]
    assert run_cli(args) == (0, "eps1,p_1,p_2,objective,marginal_1,marginal_2\n0.5,0,0,0.0,0.0,0.0\n")


@pytest.mark.parametrize(
    "spec",
    [
        ["--m", "8", "--eps1", "0.5", "--alpha", "1e300", "--cost", "1e299"],
        ["--m", "12", "--eps1", "0.5", "--alpha", "1e307", "--cost", "1e306"],
    ],
)
def test_overflow_inside_the_simplex_is_a_solver_failure(spec, capfd):
    # Finite tables whose prices overflow in the pivot loop: the call
    # answers or fails as a solver failure, never as an input error, and
    # no numpy warning escapes (pytest turns warnings into errors).
    code = main(["decide"] + spec)
    out, err = capfd.readouterr()
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert err.startswith("nodesync: failure: ") and err.count("\n") == 1, err


def test_overflowing_threshold_gap_is_one_clean_error(capfd):
    # Valid thresholds, so the walks run; no warning of the order check
    # may reach stderr before the fit's error line.
    args = ["tail", "--gammas=-1e308,1e308", "--runs", "20", "--horizon", "20", "--reps", "1"]
    assert main(args) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("nodesync: error: ") and err.count("\n") == 1, err


def test_invalid_input_writes_no_rows(tmp_path):
    for args in (
        ["decide", "--m", "13"],
        ["decide", "--eps1", "0.5,1.5"],
        ["sweep", "--m", "13"],
        ["netsim", "--m", "13", "--strategy", "compare", "--rounds", "10"],
        ["tail", "--lam", "60000", "--mu", "70000", "--runs", "2", "--horizon", "3", "--reps", "1"],
        ["tail", "--runs", "200", "--horizon", "100", "--reps", "1", "--gammas", "0"],
        ["tail", "--runs", "200", "--horizon", "100", "--reps", "1", "--gammas", "0,500"],
        ["tail", "--runs", "40", "--horizon", "60", "--reps", "1", "--gammas", "500,600"],
        ["netsim", "--mu", "60000", "--rounds", "10", "--reps", "1"],
        ["decay", "--lam", "-1"],
        ["capacity", "--epsilons", "0.1,-1"],
        ["rate", "--epsilons", "0.1,2"],
        ["capacity", "--epsilons", ","],
        ["rate", "--epsilons", ","],
        ["decide", "--eps1", ","],
        ["sweep", "--values", ","],
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
        ["decide", "--alpha", "1,2"],
        ["decay", "--x-min", "1", "--x-max", "0"],
        ["tail", "--reps", "0"],
        ["netsim", "--reps", "0"],
        *_OVERFLOW_CALLS,
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
        ("simulate", ["netsim", "--strategy", "compare", "--rounds", "50", "--reps", "2"]),
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
    def no_memory(configs):
        raise MemoryError()

    monkeypatch.setattr(cli, "simulate", no_memory)
    assert main(["netsim", "--rounds", "10", "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nodesync: error: out of memory\n"

    def no_memory_for(configs):
        raise MemoryError("Unable to allocate 8.0 GiB for an array")

    monkeypatch.setattr(cli, "simulate", no_memory_for)
    assert main(["netsim", "--rounds", "10", "--reps", "1"]) == 1
    assert capsys.readouterr().err == "nodesync: error: Unable to allocate 8.0 GiB for an array\n"


def test_netsim_over_the_memory_cap_is_a_clean_error(monkeypatch, capsys):
    # A 1 MiB cap stands in for the real one, so nothing large is built even
    # if the check were lost; simulate must not be reached either way.
    def unreachable(configs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(sim_harness, "MAX_SIM_BYTES", 2**20)
    monkeypatch.setattr(cli, "simulate", unreachable)
    assert main(["netsim", "--n-partial", "10", "--rounds", "10000", "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "nodesync: error: 10 partial nodes x 3 full nodes x 10000 rounds would take "
        "about 5 MiB of arrays, over the 1 MiB cap (MAX_SIM_BYTES)\n"
    )


def test_netsim_solves_each_spec_once(monkeypatch):
    calls = []

    def counting_solve_ns(spec):
        calls.append(spec)
        return solve_ns(spec)

    monkeypatch.setattr(cli, "solve_ns", counting_solve_ns)
    args = ["netsim", "--rounds", "50", "--reps", "4", "--strategy", "compare"]
    assert run_cli(args)[0] == 0
    assert len(calls) == 1
    # The solve is shared within one call only: a second call solves again.
    assert run_cli(args)[0] == 0
    assert len(calls) == 2


def test_netsim_solves_before_simulating(monkeypatch):
    simulated = []
    simulate = cli.simulate

    def failing_solve_ns(spec):
        raise ArithmeticError("no solve")

    def counting_simulate(configs):
        simulated.append(configs)
        return simulate(configs)

    monkeypatch.setattr(cli, "solve_ns", failing_solve_ns)
    monkeypatch.setattr(cli, "simulate", counting_simulate)
    args = ["netsim", "--rounds", "50", "--reps", "2", "--strategy", "compare"]
    assert run_cli(args) == (2, "")
    assert simulated == []


def test_netsim_compare_draws_each_node_once_per_rep(monkeypatch):
    draws = []
    inverse = sim_harness._poisson_inverse

    def counting_inverse(rate, u):
        draws.append(rate)
        return inverse(rate, u)

    monkeypatch.setattr(sim_harness, "_poisson_inverse", counting_inverse)
    args = ["netsim", "--strategy", "compare", "--m", "4", "--rounds", "50", "--reps", "3"]
    assert run_cli(args)[0] == 0
    # Both strategies of a rep share each node's ambient and service series:
    # 2 * m draws per rep, not 4 * m.
    assert len(draws) == 3 * 2 * 4


def test_netsim_inverts_at_most_one_block(monkeypatch):
    # A chunk draws each series with one inversion, so a chunk must fit in
    # one inversion block.
    assert sim_harness._CHUNK <= queue_model._BLOCK
    sizes = []
    inverse = sim_harness._poisson_inverse

    def recording_inverse(rate, u):
        sizes.append(u.size)
        return inverse(rate, u)

    monkeypatch.setattr(sim_harness, "_poisson_inverse", recording_inverse)
    rounds = sim_harness._CHUNK + 100
    args = ["netsim", "--strategy", "compare", "--n-partial", "4", "--rounds", str(rounds), "--reps", "1"]
    assert run_cli(args)[0] == 0
    # Two chunks, each drawing 2 series for each of the 3 full nodes.
    assert sorted(sizes) == [100] * 6 + [sim_harness._CHUNK] * 6
    assert max(sizes) <= queue_model._BLOCK


def test_tail_over_the_walk_length_bound_is_a_clean_error(monkeypatch, capsys):
    # No stream may be filled: the bound is checked before anything is drawn.
    def unreachable(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(queue_model, "fill_streams", unreachable)
    assert main(["tail", "--horizon", "300000000", "--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "nodesync: error: horizon must be at most 67108864 slots (MAX_HORIZON), got 300000000\n"
    )


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


def test_every_subcommand_takes_the_common_flags():
    parser, subcommands = cli.build_parser()
    assert sorted(subcommands) == ["capacity", "decay", "decide", "netsim", "rate", "sweep", "tail"]
    for name, sub in subcommands.items():
        args = parser.parse_args([name, "--seed", "3", "--out", "x", "--config", "c", "--reps", "2"])
        assert (args.command, args.seed, args.out, args.config, args.reps) == (name, 3, "x", "c", 2)
        tokens = cli._config_tokens(sub, {"seed": "3", "reps": "2", "out": "-"}, "f")
        assert tokens == ["--seed", "3", "--reps", "2", "--out", "-"], name


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
    cfg.write_text("config = x\n")
    assert run_cli(["tail", "--config", str(cfg)])[0] == 1
    assert run_cli(["tail", "--config", str(tmp_path / "missing.cfg")])[0] == 1


def test_bad_number_lists_are_named_on_stderr(tmp_path, capsys):
    cfg = tmp_path / "gammas.cfg"
    cfg.write_text("gammas = 1,x\n")
    for args, message in (
        (["decide", "--eps1", "a"], "argument --eps1: expected comma-separated numbers, got 'a'"),
        (["decide", "--eps1", ","], "argument --eps1: expected at least one number, got ','"),
        (["tail", "--config", str(cfg)], "argument --gammas: expected comma-separated numbers, got '1,x'"),
    ):
        assert run_cli(args) == (1, ""), args
        assert capsys.readouterr().err.endswith(f"error: {message}\n"), args


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
