"""scripts/dump_outputs.py writes the same bytes on every run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "dump_outputs.py"

# One output of each sort: network CSV and bytes, an abstract run over
# every cost kind, the flapping construction and the convergence check.
SUBSET = ["diamond-extreme-r5", "abstract-mixed-extreme-r7",
          "flapping-j7-n3", "convergence-m3"]


@pytest.fixture(scope="module")
def dump_outputs():
    spec = importlib.util.spec_from_file_location("dump_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_unknown_output_is_a_usage_error(dump_outputs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        dump_outputs.main([str(tmp_path), "--only", "nowhere"])
    assert exit_info.value.code == 2
    assert "nowhere" in capsys.readouterr().err
    assert not tmp_path.joinpath("nowhere.bin").exists()
