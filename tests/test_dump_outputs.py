"""scripts/dump_outputs.py writes the same bytes on every run, and
scripts/compare_outputs.py counts and bounds the entries two dumps
differ in."""

import csv
import dataclasses
import hashlib
import importlib.util
import platform
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from intervalsig import convergence_demo_config
from intervalsig.engine import diamond_system_optimum
from intervalsig.population import uniform_perturbation

from .oracle import convergence_check_full_batch

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# One output of each sort: network CSV and bytes, an abstract run over
# every cost kind, the flapping construction and the convergence check.
SUBSET = ["diamond-extreme-r5", "abstract-mixed-extreme-r7",
          "flapping-j7-n3", "convergence-m3"]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dump_outputs():
    return _load_script("dump_outputs")


def test_two_dumps_are_identical(dump_outputs, tmp_path, capsys):
    for side in ("a", "b"):
        assert dump_outputs.main([str(tmp_path / side), "--only",
                                  *SUBSET]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names == sorted(
        ["diamond-extreme-r5.csv", "diamond-extreme-r5.bin",
         "abstract-mixed-extreme-r7.csv", "abstract-mixed-extreme-r7.bin",
         "flapping-j7-n3.bin", "convergence-m3.bin"])
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        assert first, name
        assert first == (tmp_path / "b" / name).read_bytes(), name


# Every file a full dump writes, as ``sha256sum`` writes it, and the
# platform the dump was made on.  The bytes depend on the C library's
# ``pow`` (see ``costs``), so a mismatch on another platform may be the
# platform's and not a regression.  A change that means to move bytes
# rewrites the manifest in the same commit:
#   PYTHONPATH=src python3 scripts/dump_outputs.py OUT
#   (cd OUT && LC_ALL=C sha256sum *) > tests/dump_outputs.sha256
MANIFEST = Path(__file__).with_name("dump_outputs.sha256")
PLATFORM = MANIFEST.with_suffix(".platform")

# What ``perfbench/run.py --seed 1`` prints as its digest: for
# ``sioux-falls`` the sha256 of one round's run bytes, for
# ``abstract-model`` that of one round's run_abstract and
# convergence_check bytes together.
SIOUX_FALLS_SEED1 = ("edb0a368a0358b11b6d9de5712f3e1b93b5098bef9f09893858e8b"
                     "99fed5cadf")
ABSTRACT_MODEL_SEED1 = ("4fb1b4b4383985bf435ace720f1a8aa677096b146ff51e"
                        "656510e378c1c38838")


def platform_record() -> str:
    """This platform, in ``PLATFORM``'s lines."""
    return (f"python {platform.python_version()}\n"
            f"numpy {np.__version__}\n"
            f"libc {' '.join(platform.libc_ver())}\n"
            f"machine {platform.machine()}\n")


def test_dump_matches_the_manifest(dump_outputs, tmp_path, capsys):
    assert dump_outputs.main([str(tmp_path)]) == 0
    want = {name: digest for digest, name in (
        line.split("  ", 1) for line in MANIFEST.read_text().splitlines())}
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    differ = sorted(name for name in want.keys() | got.keys()
                    if want.get(name) != got.get(name))
    assert not differ, (f"{differ} differ from the manifest, made on\n"
                        f"{PLATFORM.read_text()}and this platform is\n"
                        f"{platform_record()}")
    # so that ``diff -r`` of two dumps covers the benchmark's exact inputs
    assert got["bench-sioux-falls.bin"] == SIOUX_FALLS_SEED1
    joined = b"".join((tmp_path / f"{name}.bin").read_bytes() for name in
                      ["bench-abstract-extreme-r50", "bench-convergence-m2"])
    assert hashlib.sha256(joined).hexdigest() == ABSTRACT_MODEL_SEED1


def test_manifest_is_sha256sum_output():
    # so that ``sha256sum -c`` in a dump directory reads it as well
    lines = MANIFEST.read_text().splitlines()
    assert len(lines) == 48
    assert lines == sorted(lines, key=lambda line: line[66:])
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}  [\w.-]+", line), line
    # the record names this platform's fields, so that a failed
    # comparison prints like for like
    assert ([line.split(" ", 1)[0] for line in PLATFORM.read_text()
             .splitlines()]
            == [line.split(" ", 1)[0]
                for line in platform_record().splitlines()])


def test_output_count_matches_the_docstring(dump_outputs):
    # 29 outputs, 19 of which (the network and run_abstract runs) also
    # write a CSV
    assert len(dump_outputs.OUTPUTS) == 29
    assert "48 files in all" in " ".join(dump_outputs.__doc__.split())


def test_file_run_is_the_built_in_run(dump_outputs, tmp_path, capsys):
    # a plan built from the gen-diamond files and the built-in
    # instance's shared plan load the same flows
    names = ["diamond-extreme-r5", "diamond-files-extreme-r5"]
    assert dump_outputs.main([str(tmp_path), "--only", *names]) == 0
    for suffix in (".bin", ".csv"):
        built_in, files = ((tmp_path / f"{name}{suffix}").read_bytes()
                           for name in names)
        assert files and files == built_in, suffix


def test_uniform_convergence_is_the_full_batch(dump_outputs, tmp_path,
                                               capsys):
    # the oracle plays both arms of every pair to the horizon
    assert dump_outputs.main([str(tmp_path), "--only",
                              "convergence-m3-uniform"]) == 0
    config, inits = convergence_demo_config(agent_count=20, action_count=3)
    config = dataclasses.replace(config, renewal=uniform_perturbation(2, 0.2))
    report, coalesced_at = convergence_check_full_batch(config, 300, 120,
                                                        inits, 0)
    assert (coalesced_at >= 0).all()
    assert (tmp_path / "convergence-m3-uniform.bin").read_bytes() == (
        dump_outputs._raw(report.distance_series, report.sample_a,
                          report.sample_b,
                          [report.ks_statistic, report.ks_pvalue]))


def test_system_optimum_is_pinned(dump_outputs, tmp_path, capsys):
    assert dump_outputs.main([str(tmp_path), "--only",
                              "diamond-system-optimum"]) == 0
    point = diamond_system_optimum()
    assert np.fromfile(tmp_path / "diamond-system-optimum.bin").tolist() == [
        point["split"], point["uncapped_cost"], point["capped_cost"],
        point["excess"]]


def test_unknown_output_is_a_usage_error(dump_outputs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        dump_outputs.main([str(tmp_path), "--only", "nowhere"])
    assert exit_info.value.code == 2
    assert "nowhere" in capsys.readouterr().err
    assert not tmp_path.joinpath("nowhere.bin").exists()


@pytest.fixture(scope="module")
def compare_outputs():
    return _load_script("compare_outputs")


@pytest.fixture(scope="module")
def one_dump(dump_outputs, tmp_path_factory):
    """A network run (CSV and bytes) and a flapping run (bytes only)."""
    out = tmp_path_factory.mktemp("dump")
    dump_outputs.main([str(out), "--only", "diamond-now", "flapping-j7-n3"])
    return out


@pytest.fixture
def two_dumps(one_dump, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(one_dump, a)
    shutil.copytree(one_dump, b)
    return a, b


def _scale_csv_cell(path, row, column, change):
    rows = list(csv.reader(path.open()))
    col = rows[0].index(column)
    rows[row][col] = "%.17g" % change(float(rows[row][col]))
    with path.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _compare(compare_outputs, a, b, capsys):
    code = compare_outputs.main([str(a), str(b)])
    return code, capsys.readouterr().out


class TestCompareOutputs:
    def test_identical_dumps(self, compare_outputs, two_dumps, capsys):
        code, out = _compare(compare_outputs, *two_dumps, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[:-1] == [
            "diamond-now.bin: identical", "diamond-now.csv: identical",
            "flapping-j7-n3.bin: identical"]
        assert " differ" not in out

    def test_one_ulp_is_counted_and_within_bound(self, compare_outputs,
                                                 two_dumps, capsys):
        a, b = two_dumps
        _scale_csv_cell(b / "diamond-now.csv", 3, "cost_e2",
                        lambda v: np.nextafter(v, np.inf))
        code, out = _compare(compare_outputs, a, b, capsys)
        assert code == 0
        assert "  cost_*        1 of 1500 differ, max rel " in out
        assert "  flow_*        0 of 1500 differ, max rel 0" in out
        assert "diamond-now.bin: identical" in out

    def test_one_ulp_in_raw_bytes_is_counted(self, compare_outputs,
                                             two_dumps, capsys):
        a, b = two_dumps
        path = b / "flapping-j7-n3.bin"
        values = np.frombuffer(path.read_bytes(), dtype=np.float64).copy()
        values[5] = np.nextafter(values[5], np.inf)
        path.write_bytes(values.tobytes())
        code, out = _compare(compare_outputs, a, b, capsys)
        assert code == 0
        assert f"  float64       1 of {len(values)} differ" in out

    @pytest.mark.parametrize("name", ["diamond-now.csv",
                                      "flapping-j7-n3.bin"])
    def test_change_beyond_bound_fails(self, compare_outputs, two_dumps,
                                       capsys, name):
        a, b = two_dumps
        path = b / name
        if name.endswith(".csv"):
            _scale_csv_cell(path, 7, "social_cost", lambda v: v * (1 + 1e-6))
        else:
            values = np.frombuffer(path.read_bytes(), dtype=np.float64)
            path.write_bytes((values * (1 + 1e-6)).tobytes())
        code, out = _compare(compare_outputs, a, b, capsys)
        assert code == 1
        assert "NOT within" in out

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_missing_file_fails(self, compare_outputs, two_dumps, capsys,
                                side):
        a, b = two_dumps
        ((a if side == "a" else b) / "flapping-j7-n3.bin").unlink()
        code, out = _compare(compare_outputs, a, b, capsys)
        assert code == 1
        other = "B" if side == "a" else "A"
        assert f"flapping-j7-n3.bin: only in {other}" in out
