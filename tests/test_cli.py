"""Command-line surface: every subcommand, flag validation, exit codes,
and reproducible file outputs."""

import csv
import shlex
from pathlib import Path

import pytest

import intervalsig
from intervalsig import cli
from intervalsig.cli import main
from intervalsig.network import parse_network, parse_trips


@pytest.fixture
def diamond_files(tmp_path):
    assert main(["gen-diamond", "--dir", str(tmp_path)]) == 0
    return tmp_path / "net.txt", tmp_path / "trips.txt"


class TestGenDiamond:
    def test_writes_parseable_instance(self, diamond_files):
        net_path, trips_path = diamond_files
        net = parse_network(net_path.read_text())
        demand = parse_trips(trips_path.read_text())
        assert net.edge_count == 5
        assert demand.total == pytest.approx(30.0)


class TestRun:
    def test_writes_csv_and_prints_summary(self, diamond_files, tmp_path,
                                           capsys):
        net, trips = diamond_files
        out = tmp_path / "run.csv"
        code = main(["run", "--net", str(net), "--trips", str(trips),
                     "--scheme", "extreme", "--r", "2",
                     "--horizon", "5", "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 6
        assert rows[0][0] == "t"
        printed = capsys.readouterr().out
        assert "mean_cost=" in printed
        assert "regret" not in printed

    def test_identical_flags_identical_bytes(self, diamond_files, tmp_path):
        net, trips = diamond_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["run", "--net", str(net), "--trips", str(trips),
                 "--scheme", "subinterval", "--r", "3", "--alpha", "0.5",
                 "--horizon", "7", "--seed", "11"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_builtin_instance_flag(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["run", "--instance", "diamond", "--scheme", "now",
                     "--horizon", "3", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_reference_prints_regret(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["run", "--instance", "diamond", "--scheme", "now",
                     "--horizon", "3", "--seed", "0",
                     "--ref-capped", "322.307", "--out", str(out)])
        assert code == 0
        assert "regret=" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--ref-capped", "nan"), ("--ref-capped", "inf"),
        ("--ref-capped", "-inf"), ("--ref-excess", "nan")])
    def test_nonfinite_reference_refused_before_the_run(
            self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "run", None)       # never reached
        out = tmp_path / "d.csv"
        code = main(["run", "--instance", "diamond", "--scheme", "now",
                     "--horizon", "3", "--seed", "0", f"{flag}={value}",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {flag} must be finite, got ")
        assert not out.exists()

    def test_uncapped_flag_changes_output(self, tmp_path):
        base = ["run", "--instance", "diamond", "--scheme", "now",
                "--horizon", "4", "--seed", "0"]
        a, b = tmp_path / "c.csv", tmp_path / "u.csv"
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--uncapped", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_extreme_requires_window(self, diamond_files, tmp_path, capsys):
        net, trips = diamond_files
        code = main(["run", "--net", str(net), "--trips", str(trips),
                     "--scheme", "extreme", "--horizon", "2", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert "window" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("flags, message", [
        (["--scheme", "now", "--r", "20"], "error: now takes no window"),
        (["--scheme", "extreme", "--r", "5", "--alpha", "0.5"],
         "error: extreme takes no shrink factor"),
    ], ids=["now-with-r", "extreme-with-alpha"])
    def test_misplaced_window_or_alpha_rejected(self, tmp_path, capsys,
                                                flags, message):
        out = tmp_path / "x.csv"
        code = main(["run", "--instance", "diamond", "--horizon", "2",
                     "--seed", "0", "--out", str(out)] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_missing_instance_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "--net", str(tmp_path / "no.txt"),
                     "--trips", str(tmp_path / "no2.txt"),
                     "--scheme", "now", "--horizon", "2", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert capsys.readouterr().err != ""

    def test_unknown_instance_is_a_user_error(self, tmp_path, capsys):
        code = main(["run", "--instance", "nowhere", "--scheme", "now",
                     "--horizon", "2", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: unknown instance 'nowhere'; available: ")

    def test_net_without_trips_rejected(self, diamond_files, tmp_path,
                                        capsys):
        net, _ = diamond_files
        code = main(["run", "--net", str(net), "--scheme", "now",
                     "--horizon", "2", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code != 0


class TestSweep:
    def test_nonfinite_reference_refused_before_the_run(self, tmp_path,
                                                        capsys):
        out_dir = tmp_path / "cells"
        code = main(["sweep", "--instance", "diamond", "--horizon", "12",
                     "--seed", "2", "--out-dir", str(out_dir),
                     "--ref-capped", "nan"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --ref-capped must be finite, got nan\n")
        assert not out_dir.exists()

    def test_writes_cells_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "cells"
        code = main(["sweep", "--instance", "diamond", "--horizon", "12",
                     "--seed", "2", "--out-dir", str(out_dir),
                     "--ref-capped", "322.307"])
        assert code == 0
        for name in ("now", "mean", "extreme-r5", "extreme-r10",
                     "extreme-r20"):
            assert (out_dir / f"{name}.csv").exists()
        rows = list(csv.reader((out_dir / "summary.csv").open()))
        assert rows[0] == ["scheme", "r", "mean_cost", "mean_excess",
                           "regret"]
        assert len(rows) == 6
        schemes = [r[0] for r in rows[1:]]
        assert schemes == ["now", "mean", "extreme", "extreme", "extreme"]
        assert [r[1] for r in rows[1:]] == ["", "", "5", "10", "20"]
        for row in rows[1:]:
            float(row[2]), float(row[3]), float(row[4])

    def test_deterministic_summary(self, tmp_path):
        args = ["sweep", "--instance", "diamond", "--horizon", "8",
                "--seed", "4"]
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        assert ((d1 / "summary.csv").read_bytes()
                == (d2 / "summary.csv").read_bytes())

    @pytest.mark.parametrize("source", ["instance", "files"])
    def test_each_cell_matches_run(self, source, diamond_files, tmp_path,
                                   capsys):
        net, trips = diamond_files
        flags = (["--instance", "diamond"] if source == "instance"
                 else ["--net", str(net), "--trips", str(trips)])
        flags += ["--horizon", "9", "--seed", "6", "--uncapped",
                  "--ref-capped", "400", "--ref-excess", "1.5"]
        capsys.readouterr()
        assert main(["sweep", *flags, "--out-dir",
                     str(tmp_path / "cells")]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = [("now", []), ("mean", []), ("extreme-r5", ["--r", "5"]),
                 ("extreme-r10", ["--r", "10"]),
                 ("extreme-r20", ["--r", "20"])]
        assert len(lines) == len(cells)
        for (label, window), line in zip(cells, lines):
            out = tmp_path / f"run-{label}.csv"
            assert main(["run", *flags, "--scheme", label.split("-")[0],
                         *window, "--out", str(out)]) == 0
            assert capsys.readouterr().out == line + "\n"
            assert (out.read_bytes()
                    == (tmp_path / "cells" / f"{label}.csv").read_bytes())


class TestFlappingDemo:
    def test_prints_gap(self, capsys):
        assert main(["flapping-demo", "--J", "7", "--N", "3",
                     "--horizon", "10"]) == 0
        out = capsys.readouterr().out
        assert "gap" in out
        assert "6.3333" in out

    def test_writes_series_csvs(self, tmp_path):
        prefix = tmp_path / "flap"
        assert main(["flapping-demo", "--J", "7", "--N", "3",
                     "--horizon", "6", "--out", str(prefix)]) == 0
        scalar = list(csv.reader((tmp_path / "flap_scalar.csv").open()))
        interval = list(csv.reader((tmp_path / "flap_interval.csv").open()))
        assert scalar[0][0] == "t"
        assert len(scalar) == len(interval) == 7

    def test_even_population_rejected(self, capsys):
        assert main(["flapping-demo", "--J", "7", "--N", "4",
                     "--horizon", "5"]) != 0
        assert capsys.readouterr().err != ""


class TestConvergenceCheck:
    def test_prints_distance_and_ks(self, capsys):
        code = main(["convergence-check", "--N", "20", "--M", "2",
                     "--trajectories", "50", "--horizon", "60",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ks_statistic=" in out
        assert "initial_distance=" in out


class TestSystemOptimum:
    def test_prints_reference_values(self, capsys):
        assert main(["system-optimum"]) == 0
        out = capsys.readouterr().out
        assert "capped_cost" in out
        assert "excess" in out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) != 0

    def test_no_subcommand(self, capsys):
        assert main([]) != 0

    def test_unknown_flag(self, capsys):
        assert main(["system-optimum", "--bogus"]) != 0


class TestExitCodes:
    def test_user_errors_exit_1(self, tmp_path, capsys):
        code = main(["run", "--instance", "diamond", "--scheme", "extreme",
                     "--horizon", "2", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--instance", "diamond", "--scheme", "now", "--horizon", "3"],
        ["convergence-check", "--trajectories", "4", "--horizon", "3"],
    ], ids=["run", "convergence-check"])
    def test_negative_seed_is_a_user_error(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        extra = ["--out", str(out)] if command[0] == "run" else []
        code = main(command + ["--seed", "-1"] + extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_cost_is_a_user_error(self, tmp_path, capsys):
        # uncapped, 30 agents on capacity 0.001 at power 300: the BPR
        # power overflows, and the cost history refuses the inf cost
        net, trips = tmp_path / "net.txt", tmp_path / "trips.txt"
        net.write_text("1 2 0.001 0 9 1 300 0 0 1 ;\n")
        trips.write_text("Origin 1\n2 : 30;\n")
        out = tmp_path / "x.csv"
        code = main(["run", "--net", str(net), "--trips", str(trips),
                     "--scheme", "now", "--horizon", "2", "--seed", "0",
                     "--uncapped", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_flapping_gap_is_a_user_error(self, capsys):
        # 3 * (1e308 + 1) overflows: the demo used to print gap=inf and
        # exit 0
        code = main(["flapping-demo", "--J", "1e308", "--N", "3",
                     "--horizon", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: agent count * (gap target + 1) must be finite, got "
            "agent count 3 and gap target 1e+308")
        assert "Traceback" not in err

    def test_largest_flapping_gap_still_runs(self, capsys):
        assert main(["flapping-demo", "--J", "1e307", "--N", "3",
                     "--horizon", "3"]) == 0
        assert f"gap={cli._FMT % 1e307} " in capsys.readouterr().out

    @pytest.mark.parametrize("name, old, new, message", [
        ("net.txt", "<NUMBER OF NODES> 5", "<NUMBER OF NODES> five",
         "line 2: <NUMBER OF NODES> 'five' is not a number"),
        ("trips.txt", "<TOTAL OD FLOW> 30", "<TOTAL OD FLOW> lots",
         "line 2: <TOTAL OD FLOW> 'lots' is not a number"),
        ("net.txt", "\n2 3 15", "\n2.7 3 15",
         "line 9: init node must be an integer, got 2.7"),
        ("trips.txt", "Origin 1", "Origin 1.5",
         "line 5: Origin id must be an integer, got 1.5"),
        ("trips.txt", "5 : 30.0;", "5.5 : 30.0;",
         "line 6: destination must be an integer, got 5.5"),
        ("net.txt", "2 4 15 ", "2 4 nan ",
         "line 10: capacity must be finite, got nan"),
        ("trips.txt", "5 : 30.0;", "5 : nan;",
         "line 6: demand must be finite, got nan"),
    ], ids=["word-node-count", "word-total-flow", "fractional-node",
            "fractional-origin", "fractional-destination", "nan-capacity",
            "nan-demand"])
    def test_bad_number_in_instance_is_a_user_error(
            self, diamond_files, tmp_path, capsys, name, old, new, message):
        # every number of a TNTP text is read strictly: no traceback, no
        # truncated id, no NaN left for period 1 to trip over
        path = tmp_path / name
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new, 1))
        net, trips = diamond_files
        out = tmp_path / "x.csv"
        code = main(["run", "--net", str(net), "--trips", str(trips),
                     "--scheme", "now", "--horizon", "2", "--seed", "0",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["net.txt", "trips.txt"])
    def test_undecodable_instance_file_is_a_user_error(
            self, diamond_files, tmp_path, capsys, name):
        # a Latin-1 comment line: byte 0xe9 starts no UTF-8 sequence
        path = tmp_path / name
        path.write_bytes(b"~ caf\xe9\n" + path.read_bytes())
        net, trips = diamond_files
        out = tmp_path / "x.csv"
        code = main(["run", "--net", str(net), "--trips", str(trips),
                     "--scheme", "now", "--horizon", "2", "--seed", "0",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def check(trajectories, horizon):
        config, inits = intervalsig.convergence_demo_config()
        return intervalsig.convergence_check(config, trajectories, horizon,
                                             inits, seed=0)

    @pytest.mark.parametrize("call", [
        lambda: intervalsig.run(intervalsig.RunConfig(
            scheme=intervalsig.now_scheme(), horizon=2.5, seed=1,
            instance="diamond")),
        lambda: intervalsig.RunConfig(
            scheme=intervalsig.now_scheme(), horizon=2, seed=1,
            instance="diamond", type_count=2.5),
        lambda: intervalsig.run_abstract(
            intervalsig.convergence_demo_config()[0], 2.5),
        lambda: TestExitCodes.check(2.5, 3),
        lambda: TestExitCodes.check(3, 2.5),
    ], ids=["run-horizon", "run-type-count", "abstract-horizon",
            "convergence-trajectories", "convergence-horizon"])
    def test_fractional_count_is_a_user_error(self, monkeypatch, capsys,
                                              call):
        # argparse's ``type=int`` keeps such values out of the commands;
        # a library call that passes one is a user error, not an internal
        # one
        monkeypatch.setitem(cli._COMMANDS, "system-optimum",
                            lambda _args: call())
        code = main(["system-optimum"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "must be an integer, got 2.5" in err
        assert "Traceback" not in err

    def test_internal_error_prints_traceback_and_own_code(self, monkeypatch,
                                                          capsys):
        def broken(_args):
            raise KeyError("no such column")

        monkeypatch.setitem(cli._COMMANDS, "system-optimum", broken)
        code = main(["system-optimum"])
        assert code == cli.EXIT_INTERNAL
        assert code not in (0, 1, 2)    # 2 is argparse's usage error
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "KeyError: 'no such column'" in err


ROOT = Path(__file__).resolve().parents[1]


class TestTrackedResults:
    def test_readme_flapping_commands_regenerate_tracked_csvs(self,
                                                              tmp_path):
        # README's commands, each writing into tmp_path instead of
        # results/flapping/
        tracked = ROOT / "results" / "flapping"
        commands = [shlex.split(line)[1:]
                    for line in (ROOT / "README.md").read_text(
                        encoding="utf-8").splitlines()
                    if line.startswith("intervalsig flapping-demo ")
                    and "--out results/flapping/" in line]
        assert len(commands) == 2
        for argv in commands:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / Path(argv[at]).name)
            assert main(argv) == 0
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(path.name for path in tracked.iterdir())
        assert len(written) == 4
        for name in written:
            assert ((tmp_path / name).read_bytes()
                    == (tracked / name).read_bytes()), name
