import argparse
import ctypes
import errno
import io
import json
import os
import platform
import runpy
import stat
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

import qminority
from qminority import channels, cli, formulas, game, linalg
import make_digests
import memory_gates
from reference import FIGURE_SWEEPS, counted_eigen_solves, recorded, workloads
RECORDED_BEST_RESPONSES = recorded("best-response-ad", "best-response-dep")
# the sweep, compare and validate calls, whose numbers all come from game.evaluate
RECORDED_EVALUATIONS = recorded("figure-sweeps", "validate-compare")
GLIBC = platform.libc_ver()[0] == "glibc"
GATES_SKIP = "the memory gates read /proc and are calibrated under glibc's heap policy"


class Reached(Exception):
    """Raised by a stub that stands in for the first step that allocates."""


def reached(*args, **kwargs):
    raise Reached


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child process that imports the same package as this one."""
    src = os.path.dirname(os.path.dirname(qminority.__file__))
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class FailingStdout:
    """A stdout whose writes raise ``error``; its descriptor is a file of its own."""

    def __init__(self, error, path):
        self.error, self.file = error, open(path, "w")

    def write(self, text):
        raise self.error

    def flush(self):
        pass

    def fileno(self):
        return self.file.fileno()


PAYOFF = ["payoff", "--channel", "pf", "--p", "0.3", "--mu", "0.2", "--gamma", "pi/2"]
# one call of each command that writes a table, JSON or text to stdout
STDOUT_CALLS = [
    ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0", "--gamma", "0", "--points", "3"],
    ["compare", "--channel", "pf", "--p-points", "2", "--mu-points", "2"],
    ["best-response", "--channel", "pf", "--p", "0", "--mu", "0", "--gamma", "0", "--grid", "2"],
    PAYOFF,
    ["validate"],
]


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


class TestEigenSolves:
    """Only the spectrum that is read is solved: validate's positivity line reads
    its 3x3 grid per kind, and every other final state is certified."""

    @pytest.mark.parametrize("argv", workloads.plan("figure-sweeps", 0)
                             + workloads.plan("validate-compare", 0)[1:]
                             + workloads.plan("best-response-ad", 0)
                             + workloads.plan("best-response-dep", 0)
                             + [["payoff", "--channel", "ad", "--p", "0.2", "--mu", "0.5",
                                 "--gamma", "pi/2"]], ids=" ".join)
    def test_payoff_commands_solve_nothing(self, argv, capsys, monkeypatch):
        solved = counted_eigen_solves(monkeypatch)
        assert run_cli(argv, capsys)[0] == 0
        assert solved == []

    def test_validate_solves_its_grid(self, capsys, monkeypatch):
        solved = counted_eigen_solves(monkeypatch)
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert sum(solved) == len(channels.KINDS) * 3 * 3
        assert "final-state positivity: PASS (min eigenvalue -1.488e-16)" in out


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
        def broken(rho, spectrum=True):
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

        def second_slice_fails(rho, spectrum=True):
            calls.append(len(rho))
            report = validate(rho, spectrum)
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


# floats the table writer must keep apart or format alike: signed zeros, repeats, a
# subnormal, both infinities and nans of both signs
EDGE_VALUES = np.array([0.0, -0.0, 0.25, 0.25, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf,
                        np.nan, -np.nan, 0.1 + 0.2, 1 / 3, 1 / 3, 0.0, 1e300])


def per_value_text(head, point, sep, tail, number, slices):
    """The table text with every value %-formatted on its own."""
    rows = "".join((point * len(part)) % tuple(number % value for value in part.ravel().tolist())
                   for part in slices)
    return head + rows[len(sep):] + tail


class TestTableText:
    """_table_text formats each distinct bit pattern of a slice once, into the same
    text as formatting every value on its own."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", ["sweep", "compare"])
    def test_matches_per_value_formatting(self, table, fmt):
        if table == "sweep":
            head, row, sep, tail, number = cli._SWEEP_FORMATS[fmt]
            point = "".join(sep + row.format(channel="pf", player=k, p="%s", mu="0.5",
                                             gamma="0", payoff="%s") for k in (1, 2))
        else:
            head, row, sep, tail, number = cli._COMPARE_FORMATS[fmt]
            fields = dict(channel="pf", gamma="0", tolerance="1e-10", verdict="consistent",
                          max_difference="0")
            head, point = head.format(**fields), sep + row.format(**fields)
        width = point.count("%s")
        values = np.resize(EDGE_VALUES, (6, width))
        slices = [values[:4], values[4:]]
        text = "".join(cli._table_text(head, point, sep, tail, number, iter(slices)))
        assert text == per_value_text(head, point, sep, tail, number, slices)
        assert number % -0.0 in text and number % 0.0 in text

    @pytest.mark.parametrize("number", ["%.17g", "%r"])
    def test_one_value_slices(self, number):
        slices = [EDGE_VALUES[i:i + 1, None] for i in range(len(EDGE_VALUES))]
        text = "".join(cli._table_text("[", ",%s", ",", "]", number, iter(slices)))
        assert text == per_value_text("[", ",%s", ",", "]", number, slices)


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


# a memory_gates.run_private script, which has imported sys and cli: it runs main
# twice and prints the second run's exit code and minor faults
_SECOND_SWEEP = """
import resource
cli.main(sys.argv[1:])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
# a child that prints the mallopt calls made by the imports, then by one main
_MALLOPT_CALLS = """
import ctypes, sys
calls = []
class Process:
    def mallopt(self, param, value):
        calls.append((param, value))
        return 1
ctypes.pythonapi = Process()
import qminority, qminority.cli
print(calls)
print(qminority.cli.main(sys.argv[1:]), calls)
"""


@pytest.mark.skipif(not GLIBC, reason=GATES_SKIP)
@pytest.mark.parametrize("gate", ["sweep", "kraus", "validate"])
def test_memory_gate(gate, capsys):
    # the gates that take seconds; CI runs the other two
    assert memory_gates.main([gate]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["sweeps"], ["sweep", "kraus"]])
def test_memory_gate_usage(argv, capsys):
    assert memory_gates.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: memory_gates.py {sweep,")


class TestHeapPolicy:
    """``main`` has glibc keep freed heap memory; importing the package does not."""

    @pytest.mark.skipif(not GLIBC, reason="the policy is set through glibc's mallopt")
    def test_second_sweep_faults_in_no_pages(self):
        # the first sweep's pages are kept and reused: at default thresholds the
        # second 101-point sweep faults in about 400 pages its chunks gave back. The
        # child imports the gates' bytecode-free copy: loading bytecode leaves a heap
        # in which the second sweep faults in about 150 pages even with the policy
        argv = ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0.3", "--gamma",
                "pi/2", "--points", "101", "--out", "sweep.csv"]
        proc = memory_gates.run_private(_SECOND_SWEEP, argv)
        code, faults = proc.stdout.split()
        assert code == "0", proc.stderr
        assert int(faults) < 100

    def test_set_by_main_not_by_import(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", _MALLOPT_CALLS, *PAYOFF, "--out",
                               str(tmp_path / "payoff.json")],
                              capture_output=True, text=True, timeout=120, env=child_env())
        # M_MMAP_THRESHOLD (-3) at glibc's 64-bit maximum, M_TRIM_THRESHOLD (-1) above it
        policy = [(-3, 32 << 20), (-1, 64 << 20)] if GLIBC else []
        assert proc.stdout == f"[]\n0 {policy}\n", proc.stderr

    @pytest.mark.parametrize("libc", ["no confstr name", "not glibc", "no mallopt"])
    def test_fallback_leaves_output_unchanged(self, libc, capsys, monkeypatch):
        class OtherLibc:
            def mallopt(self, param, value):
                raise AssertionError("mallopt called off glibc")

        want = run_cli(STDOUT_CALLS[0], capsys)
        if libc == "no confstr name":
            def confstr(name):
                raise ValueError("unrecognized configuration name")
            monkeypatch.setattr(os, "confstr", confstr)
        elif libc == "not glibc":
            monkeypatch.setattr(os, "confstr", lambda name: None)
            monkeypatch.setattr(ctypes, "pythonapi", OtherLibc())
        else:
            monkeypatch.setattr(ctypes, "pythonapi", object())
        assert run_cli(STDOUT_CALLS[0], capsys) == want


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

    @pytest.mark.parametrize("argv", STDOUT_CALLS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("error, expected", [
        (BrokenPipeError(32, "Broken pipe"), (1, "")),
        (OSError(28, "No space left on device"),
         (2, "error: cannot write stdout: No space left on device\n")),
    ], ids=["broken-pipe", "no-space"])
    def test_failed_stdout_write(self, argv, error, expected, tmp_path, capsys, monkeypatch):
        # a closed pipe exits 1 with no message, any other failure 2 with one line and
        # no compare verdict; stdout's descriptor then points at devnull, whose own
        # descriptor is closed, so the flush at exit writes nothing and raises nothing
        devnulls, real_open = [], os.open

        def recording_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            if path == os.devnull:
                devnulls.append(fd)
            return fd

        stdout = FailingStdout(error, tmp_path / "stdout")
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(os, "open", recording_open)
        code = cli.main(argv)
        monkeypatch.undo()
        try:
            os.write(stdout.fileno(), b"after the failure")
        finally:
            stdout.file.close()
        assert (code, capsys.readouterr().err) == expected
        assert (tmp_path / "stdout").read_bytes() == b""
        assert len(devnulls) == 1
        with pytest.raises(OSError):
            os.fstat(devnulls[0])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [PAYOFF, STDOUT_CALLS[0], ["validate"]],
                             ids=lambda argv: argv[0])
    def test_full_device_exits_2_with_one_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "qminority.cli"] + argv, stdout=full,
                                  stderr=subprocess.PIPE, timeout=120, env=child_env())
        assert (proc.returncode, proc.stderr) == (
            2, b"error: cannot write stdout: No space left on device\n")

    @pytest.mark.parametrize("argv", [PAYOFF, STDOUT_CALLS[0]], ids=lambda argv: argv[0])
    def test_missing_stdout_exits_2_with_one_line(self, argv, capsys, monkeypatch):
        # an interpreter started with descriptor 1 closed has sys.stdout None
        monkeypatch.setattr(sys, "stdout", None)
        code = cli.main(argv)
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (
            2, "error: cannot write stdout: Bad file descriptor\n")

    @pytest.mark.parametrize("fault", ["create", "write"])
    def test_failed_spool_exits_2_with_one_line(self, fault, capsys, monkeypatch):
        # stdout output goes through a temporary file first, which can fail too
        class FullSpool(io.StringIO):
            def writelines(self, lines):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def spool(*args, **kwargs):
            if fault == "create":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return FullSpool()
        monkeypatch.setattr(tempfile, "TemporaryFile", spool)
        assert run_cli(PAYOFF, capsys) == (
            2, "", "error: cannot write stdout: No space left on device\n")

    def test_no_usable_temporary_directory_exits_2_with_one_fixed_line(self, capsys,
                                                                      monkeypatch):
        # tempfile's own error lists the candidate directories, the working directory
        # among them; the line printed names none of them
        def spool(*args, **kwargs):
            raise FileNotFoundError(
                errno.ENOENT, "No usable temporary directory found in "
                f"{['/tmp', '/var/tmp', '/usr/tmp', os.getcwd()]}")
        monkeypatch.setattr(tempfile, "TemporaryFile", spool)
        code, out, err = run_cli(PAYOFF, capsys)
        assert (code, out, err) == (
            2, "", "error: cannot write stdout: no usable temporary directory\n")
        assert len(err.splitlines()) == 1 and "/" not in err

    def test_closed_stdout_exits_2_with_one_line(self):
        proc = subprocess.run([sys.executable, "-m", "qminority.cli"] + PAYOFF,
                              preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                              timeout=120, env=child_env())
        assert (proc.returncode, proc.stderr) == (
            2, b"error: cannot write stdout: Bad file descriptor\n")


class TestOutFile:
    """``--out`` acts like ``open(path, "w")``, but all or nothing."""

    def test_new_file_mode_follows_umask(self, tmp_path, capsys):
        for umask, mode in ((0o022, 0o644), (0o077, 0o600), (0o002, 0o664)):
            path = tmp_path / f"umask{umask:03o}.json"
            old = os.umask(umask)
            try:
                code, _, _ = run_cli(PAYOFF + ["--out", str(path)], capsys)
            finally:
                os.umask(old)
            assert (code, stat.S_IMODE(path.stat().st_mode)) == (0, mode)

    def test_existing_file_keeps_its_mode(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        for mode in (0o640, 0o604, 0o664):
            path.write_text("old")
            path.chmod(mode)
            old = os.umask(0o022)
            try:
                code, _, _ = run_cli(PAYOFF + ["--out", str(path)], capsys)
            finally:
                os.umask(old)
            assert (code, stat.S_IMODE(path.stat().st_mode)) == (0, mode)
            assert path.read_text() != "old"

    @pytest.mark.parametrize("existing", [True, False], ids=["target", "dangling"])
    def test_symlink_target_is_rewritten(self, existing, tmp_path, capsys):
        run_cli(PAYOFF + ["--out", str(tmp_path / "plain.json")], capsys)
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "x.json", tmp_path / "link.json"
        if existing:
            target.write_text("old")
        link.symlink_to(os.path.join("data", "x.json"))
        assert run_cli(PAYOFF + ["--out", str(link)], capsys) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == os.path.join("data", "x.json")
        assert target.read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert sorted(os.listdir(tmp_path / "data")) == ["x.json"]

    def test_fifo_is_refused_before_anything_is_created(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert run_cli(PAYOFF + ["--out", str(fifo)], capsys) == (
            2, "", f"error: cannot write {fifo}: not a regular file\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]

    def test_directory_is_refused(self, tmp_path, capsys):
        directory = tmp_path / "d"
        directory.mkdir()
        assert run_cli(PAYOFF + ["--out", str(directory)], capsys) == (
            2, "", f"error: cannot write {directory}: Is a directory\n")
        assert os.listdir(tmp_path) == ["d"] and os.listdir(directory) == []

    @pytest.mark.parametrize("name, reason", [("d", "Is a directory"),
                                              ("", "No such file or directory")])
    def test_refused_before_a_temporary_file(self, name, reason, tmp_path, capsys,
                                             monkeypatch):
        # a directory, or the empty path, which names none: no temporary file is made
        # in the directory's parent, which the user did not name
        (tmp_path / "d").mkdir()
        monkeypatch.chdir(tmp_path / "d")
        monkeypatch.setattr(tempfile, "NamedTemporaryFile",
                            lambda *args, **kwargs: pytest.fail("temporary file made"))
        target = str(tmp_path / name) if name else name
        assert run_cli(PAYOFF + ["--out", target], capsys) == (
            2, "", f"error: cannot write {target}: {reason}\n")
        assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []


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
        assert [line.split(":")[0] for line in failing] == ["channel completeness"]

    def test_builds_its_sets_in_five_batched_calls(self, capsys, monkeypatch):
        # the 125 completeness stacks come from one p-major 5x5 batch per kind; the one
        # other table is the equilibrium search's own phase-flip set, which build_channel
        # lays out without a stack
        batches, tables, builds = [], [], []
        kraus_sets, kraus_tables, build = (channels._kraus_sets, channels._kraus_tables,
                                           channels.build_channel)

        def counted(calls, function):
            def call(kind, p, mu):
                calls.append((kind, np.asarray(p).tolist(), np.asarray(mu).tolist()))
                return function(kind, p, mu)
            return call
        monkeypatch.setattr(channels, "_kraus_sets", counted(batches, kraus_sets))
        monkeypatch.setattr(channels, "_kraus_tables", counted(tables, kraus_tables))
        monkeypatch.setattr(channels, "build_channel",
                            lambda spec: builds.append(spec) or build(spec))
        code, _, _ = run_cli(["validate"], capsys)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        p, mu = [x for x in grid for _ in grid], grid * 5
        assert code == 0
        assert batches == [(kind, p, mu) for kind in channels.KINDS]
        assert builds == [channels.ChannelSpec("phase_flip", 0.0, 0.0)]
        assert tables == batches + [("phase_flip", [0.0], [0.0])]

    @pytest.mark.parametrize("argv", [["validate"], ["validate", "--inject-broken-channel"]])
    def test_checks_completeness_on_plain_stacks(self, argv, capsys, monkeypatch):
        # the 125 completeness residuals come from plain stacks; the one set laid out
        # is the equilibrium search's, which it applies
        residuals, layouts = [], []
        residual, from_table = linalg.completeness_residual, linalg.KrausSet._from_table
        monkeypatch.setattr(linalg, "completeness_residual",
                            lambda stack: residuals.append(type(stack)) or residual(stack))
        monkeypatch.setattr(linalg.KrausSet, "_from_table",
                            lambda *table: layouts.append(table) or from_table(*table))
        code, _, _ = run_cli(argv, capsys)
        assert code == (1 if len(argv) > 1 else 0)
        assert residuals == [np.ndarray] * 125
        assert len(layouts) == 1

    @pytest.mark.parametrize("inject_broken", [False, True])
    def test_holds_one_dense_stack_at_a_time(self, inject_broken):
        # a 256-operator depolarizing stack is 1 MiB; the previous one, kept by the loop's
        # name or the batch's, beside the next lifts the peak to about 2.2 MiB
        tracemalloc.start()
        try:
            cli._validate_checks(inject_broken)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20


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

    @pytest.mark.parametrize("channel", ["dep", "ad"])
    def test_lays_out_one_set_from_its_table(self, channel, capsys, monkeypatch):
        # the search's one Kraus set is laid out from its table: no plain stack is
        # scattered and no Gram product taken
        layouts, from_table = [], linalg.KrausSet._from_table
        monkeypatch.setattr(linalg.KrausSet, "_from_table",
                            lambda *table: layouts.append(table) or from_table(*table))
        monkeypatch.setattr(linalg, "completeness_residual", reached)
        monkeypatch.setattr(channels, "_scatter", reached)
        code, _, _ = run_cli(["best-response", "--channel", channel, "--p", "0.3",
                              "--mu", "0.3", "--gamma", "pi/2", "--grid", "9"], capsys)
        assert (code, len(layouts)) == (0, 1)

    @pytest.mark.parametrize("argv,count", [
        # the pre-move state, the 10 screened candidates and ne_payoff
        ("--channel dep --p 0.3 --mu 0.3 --gamma pi/2 --grid 9", 12),
        # the pre-move state, the 18 screened candidates and ne_payoff
        ("--channel ad --p 0.4 --mu 0.3 --gamma pi/2", 20),
    ])
    def test_kraus_applies(self, argv, count, capsys, monkeypatch):
        # the form reads the Kraus set's table: it applies no set and builds no map;
        # each state a Kraus set is applied to counts once
        applies = []
        apply = linalg.apply_kraus
        monkeypatch.setattr(linalg, "apply_kraus", lambda rho, kraus: applies.append(
            rho[..., 0, 0].size) or apply(rho, kraus))
        monkeypatch.setattr(channels, "channel_maps", reached)
        code, _, _ = run_cli(["best-response"] + argv.split(), capsys)
        assert (code, sum(applies)) == (0, count)

    @pytest.mark.parametrize("argv", [
        "--channel dep --p 0.3 --mu 0.3 --gamma pi/2 --grid 9",
        "--channel ad --p 0.4 --mu 0.3 --gamma pi/2",
    ])
    def test_one_play_per_replayed_slab(self, argv, capsys, monkeypatch):
        # the benchmark's calls replay their candidates in one theta slab, played in
        # one _play call however many Kraus operators there are; ne_payoff is the other
        plays = []
        play = game._play
        monkeypatch.setattr(game, "_play", lambda *args: plays.append(args) or play(*args))
        code, _, _ = run_cli(["best-response"] + argv.split(), capsys)
        assert (code, len(plays)) == (0, 2)

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


def blas_kernel() -> str:
    """The core type the OpenBLAS bundled with numpy picked at load time, or "unknown"
    where numpy does not link that library."""
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


class TestByteIdentity:
    def test_names_the_kernel_openblas_reports(self):
        # the kernel the failure message names is the one OpenBLAS prints at load time
        proc = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                              text=True, env=dict(os.environ, OPENBLAS_VERBOSE="2"))
        reported = [line.split(": ", 1)[1] for line in (proc.stdout + proc.stderr).splitlines()
                    if line.startswith("Core: ")]
        assert [blas_kernel()] == (reported or ["unknown"])

    def test_every_call_matches_its_digest(self, tmp_path, monkeypatch):
        # argparse wraps help and usage text to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        digests = json.loads(make_digests.DIGESTS.read_text())
        argvs = make_digests.calls()
        assert sorted(map(make_digests.key, argvs)) == sorted(digests)
        differ = []
        for argv in argvs:
            got, want = make_digests.run(argv, tmp_path), digests[make_digests.key(argv)]
            parts = [part for part in make_digests.PARTS if got[part] != want[part]]
            if parts:
                differ.append(f"  {make_digests.key(argv)}: {', '.join(parts)}")
        assert not differ, (
            f"{len(differ)} of {len(argvs)} calls differ from tests/cli_digests.json, "
            "recorded on Python 3.11 and numpy 2.4.6 (CI's versions) with OpenBLAS's "
            f"SkylakeX kernel; this run has numpy {np.__version__} and the {blas_kernel()} "
            "kernel:\n" + "\n".join(differ))


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
        monkeypatch.setattr(linalg, "validate_densities", lambda rho, spectrum=True: broken)
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
    @pytest.mark.parametrize("argv, code", [
        (["sweep", "--channel", "pf", "--vary", "p", "--mu", "0", "--gamma", "pi/2",
          "--points", "5"], 0),
        (["validate"], 0),
        (["validate", "--inject-broken-channel"], 1),
    ], ids=["sweep", "validate", "validate-broken"])
    def test_subprocess_matches_inprocess(self, argv, code, capsys):
        proc = subprocess.run([sys.executable, "-m", "qminority.cli"] + argv,
                              capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == code, proc.stderr
        assert run_cli(argv, capsys)[:2] == (code, proc.stdout)
        # a tampered Kraus stack fails the completeness check and no other
        failed = [line for line in proc.stdout.splitlines() if "FAIL" in line]
        assert len(failed) == code
        assert all(line.startswith("channel completeness: FAIL ") for line in failed)

    def test_closed_stdout_pipe_exits_1_without_traceback(self):
        # about 0.5 MB of CSV, more than a pipe buffers, so the child is still
        # writing when the reader closes the pipe after one line
        argv = ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0.3",
                "--gamma", "pi/2", "--points", "2001"]
        with subprocess.Popen([sys.executable, "-m", "qminority.cli"] + argv,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env()) as proc:
            assert proc.stdout.readline() == (cli.CSV_HEADER + "\n").encode()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")

    def test_run_as_main_in_process(self, capsys, monkeypatch):
        # the module's own entry point, `python -m qminority.cli`, run in this process;
        # runpy warns when the module it runs is already imported
        monkeypatch.delitem(sys.modules, "qminority.cli")
        monkeypatch.setattr(sys, "argv", ["qminority"] + PAYOFF)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("qminority.cli", run_name="__main__")
        as_main = (exc.value.code, capsys.readouterr().out)
        monkeypatch.undo()
        assert as_main == run_cli(PAYOFF, capsys)[:2]
        assert as_main[0] == 0 and as_main[1].startswith("{")
