import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qminority
from qminority import cli, linalg


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
        from qminority import game
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

    def test_long_channel_name(self, capsys):
        code, out, _ = run_cli(["sweep", "--channel", "phase_flip", "--vary", "p",
                                "--mu", "0", "--gamma", "0", "--points", "2"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("phase_flip,")


class TestValidate:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 6
        assert "symmetry" in out

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

    def test_injectivity_of_grid_flags(self, capsys):
        code, out, _ = run_cli(["compare", "--channel", "bf", "--p-points", "3",
                                "--mu-points", "2", "--format", "json"], capsys)
        assert code == 0
        assert len(json.loads(out)["points"]) == 6


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

    def test_equilibrium_holds(self, capsys):
        code, out, _ = run_cli(["best-response", "--channel", "pf", "--p", "0",
                                "--mu", "0", "--gamma", "pi/2", "--grid", "5"], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["payoff"] <= 0.25 + 1e-6
        assert abs(result["ne_payoff"] - 0.25) < 1e-10


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
        monkeypatch.setattr(linalg, "validate_density", lambda rho: broken)
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
