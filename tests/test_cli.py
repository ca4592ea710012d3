import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qminority
from qminority import channels, cli, formulas, game, linalg
from reference import BENCH, FIGURE_SWEEPS, recorded

# the benchmark's plans and output checks, loaded from bench/ without putting it on sys.path
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
RECORDED_BEST_RESPONSES = recorded("best-response-ad", "best-response-dep")
# the sweep, compare and validate calls, whose numbers all come from game.evaluate
RECORDED_EVALUATIONS = recorded("figure-sweeps", "validate-compare")


class Reached(Exception):
    """Raised by a stub that stands in for the first step that allocates."""


def reached(*args):
    raise Reached


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngleParsing:
    def test_plain_float(self):
        assert cli.parse_angle("1.25") == 1.25

    def test_pi_tokens(self):
        assert cli.parse_angle("pi") == np.pi
        assert cli.parse_angle("pi/2") == np.pi / 2
        assert cli.parse_angle("-pi/16") == -np.pi / 16

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            cli.parse_angle("two pi")

    def test_rejects_division_by_zero(self):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle("pi/0")

    def test_division_by_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["payoff", "--channel", "bf", "--p", "0.2", "--mu", "0.5",
                      "--gamma", "pi/0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad angle 'pi/0'" in err
        assert "Traceback" not in err


class TestSweep:
    def test_csv_stdout(self, capsys):
        code, out, _ = run_cli(["sweep", "--channel", "pf", "--vary", "p",
                                "--mu", "0", "--gamma", "pi/2", "--points", "11"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "channel,p,mu,gamma,player,payoff"
        assert len(lines) == 1 + 11 * 4
        first = lines[1].split(",")
        assert first[0] == "phase_flip"
        assert float(first[1]) == 0.0
        assert first[4] == "1"
        assert abs(float(first[5]) - 0.25) < 1e-10

    def test_depolarizing_endpoint(self, capsys):
        code, out, _ = run_cli(["sweep", "--channel", "dep", "--vary", "p",
                                "--mu", "0", "--gamma", "pi/2", "--points", "11"], capsys)
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert float(last[1]) == 1.0
        assert abs(float(last[5]) - 0.125) < 1e-10

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["sweep", "--channel", "bf", "--vary", "mu",
                                "--p", "0.3", "--gamma", "pi/2", "--points", "3",
                                "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12
        assert set(rows[0]) == {"channel", "p", "mu", "gamma", "player", "payoff"}
        assert rows[0]["channel"] == "bit_flip"

    def test_file_deterministic(self, tmp_path, capsys):
        argv = ["sweep", "--channel", "ad", "--vary", "p", "--mu", "0.5",
                "--gamma", "pi/2", "--points", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lf_only(self, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--channel", "pf", "--vary", "p", "--mu", "0",
                         "--gamma", "0", "--points", "3", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_full_precision_round_trip(self, capsys):
        code, out, _ = run_cli(["sweep", "--channel", "pf", "--vary", "p",
                                "--mu", "0", "--gamma", "pi/2", "--points", "11"], capsys)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        curve = game.payoff_curve("phase_flip", "p",
                                  {"mu": 0.0, "gamma": np.pi / 2}, points=11)
        for i, pt in enumerate(curve):
            for player in range(4):
                printed = rows[4 * i + player][5]
                assert float(printed) == pt.payoffs[player]

    def test_missing_fixed_flag(self, capsys):
        code, _, err = run_cli(["sweep", "--channel", "pf", "--vary", "p",
                                "--mu", "0"], capsys)
        assert code == 2
        assert "gamma" in err

    def test_vary_conflict(self, capsys):
        code, _, err = run_cli(["sweep", "--channel", "pf", "--vary", "p",
                                "--p", "0.1", "--mu", "0", "--gamma", "0"], capsys)
        assert code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(["sweep", "--channel", "pf", "--vary", "p",
                                "--mu", "0", "--gamma", "0", "--points", "3",
                                "--out", "/no_such_dir_qm/x.csv"], capsys)
        assert code == 2
        assert "x.csv" in err

    def test_unknown_channel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--channel", "dephasing", "--vary", "p",
                      "--mu", "0", "--gamma", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--vary", "mu", "--p", "1.5", "--gamma", "pi/2"],
         "error: p must be in [0, 1], got 1.5"),
        (["--vary", "mu", "--p", "nan", "--gamma", "pi/2"],
         "error: p must be in [0, 1], got nan"),
        (["--vary", "p", "--mu", "-0.1", "--gamma", "pi/2"],
         "error: mu must be in [0, 1], got -0.1"),
        (["--vary", "p", "--mu", "0.3", "--gamma", "2"],
         "error: gamma must be in [0, pi/2], got 2.0"),
    ])
    @pytest.mark.parametrize("channel", ["ad", "dep"])
    def test_out_of_range_is_usage_error(self, capsys, channel, flags, message):
        code, out, err = run_cli(["sweep", "--channel", channel] + flags, capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [message]

    def test_failed_state_validation_exits_1(self, capsys, monkeypatch):
        def broken(rho):
            ones = np.ones(len(rho))
            return linalg.ValidationReport(ones, 0 * ones, 0 * ones)
        monkeypatch.setattr(linalg, "validate_densities", broken)
        code, out, err = run_cli(["sweep", "--channel", "bf", "--vary", "p",
                                  "--mu", "0.5", "--gamma", "pi/2"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: final state failed validation")
        assert len(err.splitlines()) == 1

    def test_long_channel_name(self, capsys):
        code, out, _ = run_cli(["sweep", "--channel", "phase_flip", "--vary", "p",
                                "--mu", "0", "--gamma", "0", "--points", "2"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("phase_flip,")


def whole_curve_text(channel, vary, fixed, points, fmt):
    """The sweep output as the CLI formatted it before streaming: the whole curve
    from payoff_curve, then every line, then one joined text."""
    kind = cli.parse_channel(channel)
    curve = game.payoff_curve(kind, vary, fixed, points)
    if fmt == "csv":
        lines = [cli.CSV_HEADER]
        for pt in curve:
            prefix = f"{kind},{pt.p:.17g},{pt.mu:.17g},{pt.gamma:.17g}"
            lines += [f"{prefix},{k + 1},{payoff:.17g}" for k, payoff in enumerate(pt.payoffs)]
        return "\n".join(lines) + "\n"
    rows = [{"channel": kind, "p": pt.p, "mu": pt.mu, "gamma": pt.gamma,
             "player": k + 1, "payoff": pt.payoffs[k]} for pt in curve for k in range(4)]
    return json.dumps(rows, indent=2) + "\n"


def sweep_argv(channel, vary, fixed, points, fmt):
    argv = ["sweep", "--channel", channel, "--vary", vary, "--points", str(points),
            "--format", fmt]
    for flag, value in fixed.items():
        argv += [f"--{flag}", value]
    return argv


class TestStreamedSweep:
    def assert_streams_whole_curve_text(self, channel, vary, fixed, points, fmt,
                                        tmp_path, capsys):
        expected = whole_curve_text(channel, vary, {axis: cli.parse_angle(value)
                                                    for axis, value in fixed.items()},
                                    points, fmt)
        argv = sweep_argv(channel, vary, fixed, points, fmt)
        assert run_cli(argv, capsys) == (0, expected, "")
        out = tmp_path / f"sweep.{fmt}"
        assert run_cli(argv + ["--out", str(out)], capsys) == (0, "", "")
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("channel", ["ad", "dep", "bf", "pf", "bpf"])
    @pytest.mark.parametrize("vary, fixed", FIGURE_SWEEPS,
                             ids=[f"{v}-" + "-".join(f.values()) for v, f in FIGURE_SWEEPS])
    def test_figure_sweep_bytes(self, vary, fixed, channel, fmt, tmp_path, capsys):
        self.assert_streams_whole_curve_text(channel, vary, fixed, 101, fmt, tmp_path, capsys)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("points", [2, 3, 256, 257, 513])
    def test_chunk_edge_bytes(self, points, fmt, tmp_path, capsys):
        # one slice, exactly one full slice, and one or two points past a slice
        assert game.CHUNK_POINTS == 256
        self.assert_streams_whole_curve_text("dep", "gamma", {"p": "0.3", "mu": "0.6"},
                                             points, fmt, tmp_path, capsys)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_failure_in_second_slice_writes_nothing(self, to_file, tmp_path, capsys,
                                                    monkeypatch):
        calls, validate = [], linalg.validate_densities

        def second_slice_fails(rho):
            calls.append(len(rho))
            report = validate(rho)
            if len(calls) == 2:
                ones = np.ones(len(rho))
                return linalg.ValidationReport(ones, 0 * ones, 0 * ones)
            return report
        monkeypatch.setattr(linalg, "validate_densities", second_slice_fails)
        out = tmp_path / "sweep.csv"
        argv = sweep_argv("bf", "p", {"mu": "0.5", "gamma": "pi/2"}, 300, "csv")
        code, stdout, err = run_cli(argv + (["--out", str(out)] if to_file else []), capsys)
        assert calls == [256, 44]
        assert (code, stdout) == (1, "")
        assert err.startswith("error: final state failed validation")
        assert list(tmp_path.iterdir()) == []

    def test_peak_rss_is_flat(self):
        # 20,001 points streamed in 79 slices peak within 3 MB of 1,001 points
        script = Path(__file__).resolve().parent / "sweep_memory.py"
        src = os.path.dirname(os.path.dirname(qminority.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, str(script), "20001", "3"],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestGrammar:
    def test_built_once_at_import(self, capsys, monkeypatch):
        def build_parser():
            raise AssertionError("main rebuilt the grammar")
        monkeypatch.setattr(cli, "build_parser", build_parser)
        code, out, _ = run_cli(["payoff", "--channel", "pf", "--p", "0", "--mu", "0",
                                "--gamma", "0"], capsys)
        assert (code, json.loads(out)["channel"]) == (0, "phase_flip")

    @pytest.mark.parametrize("command, argv", [
        ("cmd_sweep", ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0", "--gamma", "0"]),
        ("cmd_validate", ["validate"]),
        ("cmd_compare", ["compare", "--channel", "pf"]),
        ("cmd_best_response", ["best-response", "--channel", "pf", "--p", "0", "--mu", "0",
                               "--gamma", "0"]),
        ("cmd_payoff", ["payoff", "--channel", "pf", "--p", "0", "--mu", "0", "--gamma", "0"]),
    ])
    def test_command_replaced_after_import_is_run(self, command, argv, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, command, lambda args: seen.append(args.command) or 7)
        assert cli.main(argv) == 7
        assert seen == [argv[0]]

    def test_parses_the_same_after_many_calls(self):
        argv = ["payoff", "--channel", "pf", "--p", "0", "--mu", "0", "--gamma", "0",
                "--strategy", "0,0,0"]
        first = vars(cli._PARSER.parse_args(argv))
        for _ in range(3):
            cli._PARSER.parse_args(argv)
        assert vars(cli._PARSER.parse_args(argv)) == first == vars(cli.build_parser().parse_args(argv))


class TestWriteErrors:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0", "--gamma", "0", "--points", "3"],
        ["compare", "--channel", "pf", "--p-points", "2", "--mu-points", "2"],
        ["best-response", "--channel", "pf", "--p", "0", "--mu", "0", "--gamma", "0",
         "--grid", "2"],
        ["payoff", "--channel", "pf", "--p", "0", "--mu", "0", "--gamma", "0"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_path_message_is_deterministic(self, argv, capsys):
        argv = argv + ["--out", "/no_such_dir_qm/x.csv"]
        first, second = run_cli(argv, capsys), run_cli(argv, capsys)
        assert first == second == (
            2, "", "error: cannot write /no_such_dir_qm/x.csv: No such file or directory\n")

    def test_bad_arguments_are_reported_before_the_write(self, capsys):
        code, out, err = run_cli(["sweep", "--channel", "pf", "--vary", "p", "--mu", "3",
                                  "--gamma", "pi/2", "--out", "/no_such_dir_qm/x.csv"], capsys)
        assert (code, out, err) == (2, "", "error: mu must be in [0, 1], got 3.0\n")


class TestValidate:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 6
        assert "symmetry" in out
        assert "noiseless channel equality: PASS (max spread 0.000e+00)\n" in out

    def test_details_report_the_measured_extremes(self, capsys):
        # the positivity and bounds details print what the 3x3 grid gave, not
        # the limits they are checked against
        _, out, _ = run_cli(["validate"], capsys)
        details = dict(line.split(": ", 1) for line in out.splitlines())
        p, mu = np.repeat((0.0, 0.5, 1.0), 3), np.tile((0.0, 0.5, 1.0), 3)
        runs = [game.evaluate(kind, p, mu, np.pi / 2) for kind in channels.KINDS]
        payoffs = np.concatenate([run.payoffs for run in runs])
        eig = min(run.min_eigenvalue.min() for run in runs)
        assert details["final-state positivity"] == f"PASS (min eigenvalue {eig:.3e})"
        assert details["payoff bounds"] == (
            f"PASS (range [{payoffs.min():.6f}, {payoffs.max():.6f}])")
        assert details["payoff bounds"] == "PASS (range [0.000000, 0.250000])"

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_noiseless_payoff_is_the_grids_first_point(self, kind):
        # the noiseless check reads p = mu = 0 off the 3x3 grid's batch; a
        # one-point batch at the same place gives the same bits
        p, mu = np.repeat((0.0, 0.5, 1.0), 3), np.tile((0.0, 0.5, 1.0), 3)
        grid = game.evaluate(kind, p, mu, np.pi / 2).payoffs[0]
        assert grid.tobytes() == game.evaluate(kind, [0.0], [0.0], np.pi / 2).payoffs[0].tobytes()

    def test_injected_broken_channel(self, capsys):
        code, out, _ = run_cli(["validate", "--inject-broken-channel"], capsys)
        assert code == 1
        failing = [line for line in out.splitlines() if "FAIL" in line]
        assert any("completeness" in line for line in failing)


class TestCompare:
    def test_phase_flip_clean(self, capsys):
        code, out, _ = run_cli(["compare", "--channel", "pf"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "channel,p,mu,gamma,formula,simulated,difference"
        assert len(lines) == 1 + 11 * 5

    def test_amplitude_damping_reports_but_passes(self, capsys):
        code, out, _ = run_cli(["compare", "--channel", "ad", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "inconsistent"
        first = report["points"][0]
        assert abs(first["formula"] - 0.125) < 1e-12
        assert abs(first["simulated"] - 0.25) < 1e-10

    def test_depolarizing_gamma_zero_completes(self, capsys):
        code, out, _ = run_cli(["compare", "--channel", "dep", "--gamma", "0",
                                "--p-points", "5", "--mu-points", "3"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 5 * 3

    def test_grid_bound(self, capsys, monkeypatch):
        # the bound passes the argument checks and reaches the simulation, a stub
        # here so that nothing is allocated; one cell more is a usage error
        monkeypatch.setattr(game, "evaluate", reached)
        bound = formulas._MAX_GRID_CELLS

        def argv(cells):
            mu_points = next(k for k in range(2, cells) if cells % k == 0)
            return ["compare", "--channel", "pf", "--p-points", str(cells // mu_points),
                    "--mu-points", str(mu_points)]
        with pytest.raises(Reached):
            cli.main(argv(bound))
        code, out, err = run_cli(argv(bound + 1), capsys)
        assert (code, out) == (2, "")
        assert err == f"error: need at most {bound} grid cells, got {bound + 1}\n"

    def test_inconsistent_phase_flip_fails_but_writes_report(self, capsys, monkeypatch):
        exact = formulas._FORMS["phase_flip"]
        monkeypatch.setitem(formulas._FORMS, "phase_flip",
                            lambda p, mu, gamma: exact(p, mu, gamma) + 1e-6)
        code, out, err = run_cli(["compare", "--channel", "pf"], capsys)
        assert code == 1
        assert err.startswith("phase_flip: inconsistent")
        lines = out.splitlines()
        assert lines[0] == cli.COMPARE_HEADER
        assert len(lines) == 1 + 11 * 5

    def test_injectivity_of_grid_flags(self, capsys):
        code, out, _ = run_cli(["compare", "--channel", "bf", "--p-points", "3",
                                "--mu-points", "2", "--format", "json"], capsys)
        assert code == 0
        assert len(json.loads(out)["points"]) == 6


def whole_report_text(report, fmt):
    """The compare output as the CLI formatted it before the columns: an f-string per
    CSV row, and JSONEncoder(indent=2) over one dict a cell."""
    if fmt == "csv":
        return "".join([cli.COMPARE_HEADER + "\n"] + [
            f"{report.kind},{pt.p:.17g},{pt.mu:.17g},{report.gamma:.17g},"
            f"{pt.formula:.17g},{pt.simulated:.17g},{pt.difference:.17g}\n"
            for pt in report.points])
    return "".join(json.JSONEncoder(indent=2).iterencode({
        "channel": report.kind,
        "gamma": report.gamma,
        "tolerance": report.tolerance,
        "verdict": report.verdict,
        "max_difference": report.max_difference,
        "points": [pt._asdict() for pt in report.points],
    })) + "\n"


class TestStreamedCompare:
    @pytest.mark.parametrize("channel", ["ad", "dep", "bf", "pf", "bpf"])
    @pytest.mark.parametrize("p_points, mu_points, gamma", [
        (2, 128, "pi/2"), (3, 171, "pi/2"), (257, 2, "pi/2"), (11, 5, "pi/2"), (11, 5, "pi/5"),
    ], ids=["256-cells", "513-cells", "514-cells", "11x5", "11x5-pi/5"])
    def test_bytes_match_the_per_cell_formatter(self, channel, p_points, mu_points, gamma,
                                                tmp_path, capsys):
        # one full slice, and one or two cells past the second slice edge
        assert game.CHUNK_POINTS == 256
        kind = cli.parse_channel(channel)
        report = formulas.compare(kind, (p_points, mu_points), cli.parse_angle(gamma))
        code = 1 if kind == "phase_flip" and report.verdict == "inconsistent" else 0
        err = f"{kind}: {report.verdict} (max difference {report.max_difference:.6g})\n"
        for fmt in ("csv", "json"):
            expected = whole_report_text(report, fmt)
            argv = ["compare", "--channel", channel, "--p-points", str(p_points),
                    "--mu-points", str(mu_points), "--gamma", gamma, "--format", fmt]
            assert run_cli(argv, capsys) == (code, expected, err)
            out = tmp_path / f"compare.{fmt}"
            assert run_cli(argv + ["--out", str(out)], capsys) == (code, "", err)
            assert out.read_bytes() == expected.encode()

    def test_bad_grid_is_reported_before_the_write(self, capsys):
        code, out, err = run_cli(["compare", "--channel", "pf", "--p-points", "1",
                                  "--out", "/no_such_dir_qm/x.csv"], capsys)
        assert (code, out, err) == (2, "", "error: grid must be at least 2x2, got (1, 5)\n")


class TestBestResponse:
    def test_classical_counter_move(self, capsys):
        code, out, _ = run_cli(["best-response", "--channel", "pf", "--p", "0",
                                "--mu", "0", "--gamma", "0", "--grid", "9",
                                "--others", "0,0,0"], capsys)
        assert code == 0
        result = json.loads(out)
        assert set(result) == {"theta", "alpha", "beta", "payoff", "ne_payoff"}
        assert abs(result["payoff"] - 1.0) < 1e-12
        assert abs(result["theta"] - np.pi) < 1e-12

    def test_wrong_strategy_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["best-response", "--channel", "ad", "--p", "0.1", "--mu", "0.1",
                      "--gamma", "pi/2", "--others", "1,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "strategy must be 'theta,alpha,beta', got '1,2'" in err
        assert "Traceback" not in err

    def test_equilibrium_holds(self, capsys):
        code, out, _ = run_cli(["best-response", "--channel", "pf", "--p", "0",
                                "--mu", "0", "--gamma", "pi/2", "--grid", "5"], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["payoff"] <= 0.25 + 1e-6
        assert abs(result["ne_payoff"] - 0.25) < 1e-10

    @pytest.mark.parametrize("key", sorted(RECORDED_BEST_RESPONSES))
    def test_recorded_call(self, key, tmp_path, capsys):
        ref = RECORDED_BEST_RESPONSES[key]
        out = tmp_path / "best.json"
        code, stdout, _ = run_cli(key.split() + ["--out", str(out)], capsys)
        assert (code, stdout) == (ref["code"], ref["stdout"])
        assert out.read_bytes() == ref["out"].encode()

    @pytest.mark.parametrize("argv", [
        "--channel bf --p 0.2 --mu 0.5 --gamma pi/3 --grid 7 --player 3 --others 1.0,0.5,-0.3",
        "--channel ad --p 0.3 --mu 0.2 --gamma pi/4 --grid 9 --player 2",
        "--channel pf --p 0.5 --mu 0 --gamma pi/2 --grid 5",  # flat landscape
    ])
    def test_ne_payoff_is_run_game(self, argv, capsys):
        code, out, _ = run_cli(["best-response"] + argv.split(), capsys)
        assert code == 0
        args = cli.build_parser().parse_args(["best-response"] + argv.split())
        spec = channels.ChannelSpec(args.channel, args.p, args.mu)
        profile = [args.others] * 4
        profile[args.player - 1] = game.ne_strategy()
        cfg = game.GameConfig(gamma=args.gamma, noise_pre=spec, noise_post=spec,
                              strategies=profile)
        assert json.loads(out)["ne_payoff"] == game.run_game(cfg).payoffs[args.player - 1]

    def test_builds_one_kraus_set(self, capsys, monkeypatch):
        # the search and the equilibrium payoff share one Kraus-path setup
        builds = []
        build = channels.build_channel
        monkeypatch.setattr(channels, "build_channel",
                            lambda spec: builds.append(spec) or build(spec))
        code, _, _ = run_cli(["best-response", "--channel", "dep", "--p", "0.3",
                              "--mu", "0.3", "--gamma", "pi/2", "--grid", "5"], capsys)
        assert (code, len(builds)) == (0, 1)

    @pytest.mark.parametrize("argv,count", [
        # one move per 256-operator chunk: the pre-move state, the 10 screened
        # candidates and ne_payoff
        ("--channel dep --p 0.3 --mu 0.3 --gamma pi/2 --grid 9", 12),
        # three moves per 18-operator chunk: the pre-move state, the 6 chunks of
        # screened candidates and ne_payoff
        ("--channel ad --p 0.4 --mu 0.3 --gamma pi/2", 8),
    ])
    def test_kraus_applies(self, argv, count, capsys, monkeypatch):
        # the form reads the Kraus set's adjoint: it applies no set and builds no map
        applies = []
        apply = linalg.apply_kraus
        monkeypatch.setattr(linalg, "apply_kraus",
                            lambda rho, kraus: applies.append(kraus) or apply(rho, kraus))
        monkeypatch.setattr(channels, "channel_maps", reached)
        code, _, _ = run_cli(["best-response"] + argv.split(), capsys)
        assert (code, len(applies)) == (0, count)

    def test_grid_bound(self, capsys, monkeypatch):
        # the bound passes the argument checks and reaches the search's setup, a
        # stub here so that nothing is allocated; one point more is a usage error
        monkeypatch.setattr(game, "_slot", reached)
        argv = ["best-response", "--channel", "pf", "--p", "0.5", "--mu", "0",
                "--gamma", "pi/2", "--grid"]
        bound = game._MAX_GRID_POINTS
        with pytest.raises(Reached):
            cli.main(argv + [str(bound)])
        code, out, err = run_cli(argv + [str(bound + 1)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: need at most {bound} grid points, got {bound + 1}\n"

    @pytest.mark.parametrize("flag,message", [
        (["--player", "7"], "error: player must be 1..4, got 7\n"),
        (["--grid", "1"], "error: need at least 2 grid points, got 1\n"),
    ])
    def test_bad_search_arguments(self, flag, message, capsys):
        code, out, err = run_cli(["best-response", "--channel", "pf", "--p", "0.5",
                                  "--mu", "0", "--gamma", "pi/2"] + flag, capsys)
        assert (code, out, err) == (2, "", message)


class TestRecordedEvaluations:
    @pytest.mark.parametrize("key", sorted(RECORDED_EVALUATIONS))
    def test_recorded_call(self, key, tmp_path, capsys):
        # the benchmark's own check: numbers within workloads.PAYOFF_TOL of the
        # recording, exact exit codes and PASS/FAIL tokens
        argv = key.split()
        out = tmp_path / "out"
        if argv[0] in workloads.FILE_COMMANDS:
            argv += ["--out", str(out)]
        code, stdout, stderr = run_cli(argv, capsys)
        got = {"code": code, "stdout": stdout, "stderr": stderr,
               "out": out.read_text(encoding="utf-8") if out.exists() else None}
        assert workloads.check(key.split(), got, RECORDED_EVALUATIONS[key]) == []


class TestPayoff:
    def test_default_profile(self, capsys):
        code, out, _ = run_cli(["payoff", "--channel", "dep", "--p", "0.5",
                                "--mu", "0.5", "--gamma", "pi/2"], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["channel"] == "depolarizing"
        payoffs = [result[f"payoff_{k}"] for k in (1, 2, 3, 4)]
        assert max(payoffs) - min(payoffs) < 1e-12
        assert all(0.0 <= x <= 1.0 for x in payoffs)

    def test_explicit_strategies(self, capsys):
        argv = ["payoff", "--channel", "pf", "--p", "0", "--mu", "0",
                "--gamma", "0"]
        for triple in ("pi,0,0", "0,0,0", "0,0,0", "0,0,0"):
            argv += ["--strategy", triple]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        result = json.loads(out)
        assert abs(result["payoff_1"] - 1.0) < 1e-12
        assert abs(result["payoff_2"]) < 1e-14

    def test_failed_state_validation_exits_1(self, capsys, monkeypatch):
        broken = linalg.ValidationReport(hermiticity_residual=1.0,
                                         trace_residual=0.0, min_eigenvalue=0.0)
        monkeypatch.setattr(linalg, "validate_densities", lambda rho: broken)
        code, out, err = run_cli(["payoff", "--channel", "bf", "--p", "0.2",
                                  "--mu", "0.5", "--gamma", "pi/2"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: final state failed validation")
        assert len(err.splitlines()) == 1

    def test_wrong_strategy_count(self, capsys):
        code, _, err = run_cli(["payoff", "--channel", "pf", "--p", "0",
                                "--mu", "0", "--gamma", "0",
                                "--strategy", "0,0,0"], capsys)
        assert code == 2


class TestEntryPoint:
    def test_subprocess_matches_inprocess(self, tmp_path, capsys):
        argv = ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0",
                "--gamma", "pi/2", "--points", "5"]
        # the child imports the same package as this process, installed or not
        src = os.path.dirname(os.path.dirname(qminority.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "qminority.cli"] + argv,
                              capture_output=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert proc.stdout.decode() == out

    def test_closed_stdout_pipe_exits_1_without_traceback(self):
        # about 0.5 MB of CSV, more than a pipe buffers, so the child is still
        # writing when the reader closes the pipe after one line
        argv = ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0.3",
                "--gamma", "pi/2", "--points", "2001"]
        src = os.path.dirname(os.path.dirname(qminority.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        with subprocess.Popen([sys.executable, "-m", "qminority.cli"] + argv,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=path)) as proc:
            assert proc.stdout.readline() == (cli.CSV_HEADER + "\n").encode()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")
