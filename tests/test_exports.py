"""Every name a module exports exists, so ``from ... import *`` works,
the package's modules import each other without a cycle, every entry
point the benchmark wraps by name is still there, and no run imports
scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import intervalsig

MODULES = ["intervalsig"] + [
    f"intervalsig.{info.name}"
    for info in pkgutil.iter_modules(intervalsig.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert missing == []


def package_imports():
    """Each package module's name, mapped to the package modules its
    ``from .x import`` statements name, those inside functions too."""
    graph = {}
    for path in Path(intervalsig.__file__).parent.glob("*.py"):
        imports = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:     # ``from . import x``
                    imports.update(alias.name for alias in node.names)
                else:
                    imports.add(node.module.split(".")[0])
        graph[path.stem] = imports
    return graph


def test_import_graph_has_no_cycle():
    graph = package_imports()
    assert {"abstract_model", "assignment", "network",
            "signaling"} <= set(graph)
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path + [module])
        if module in done:
            return
        path.append(module)
        for name in sorted(graph.get(module, ())):
            visit(name)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_each_model_keeps_its_own_choice_rule():
    # the abstract model's tie-pick and the network's equal split over
    # tied routes share only ``signaling.edge_weight``
    graph = package_imports()
    assert "assignment" not in graph["abstract_model"]
    assert "abstract_model" not in graph["assignment"]


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# Entry points the benchmark still names but the package dropped: the
# per-pair tie split lives in ``tests/oracle.py`` now, and the abstract
# run has no per-period step function.
DROPPED = {("intervalsig.network", "_tight_split"),
           ("intervalsig.abstract_model", "step_abstract")}


def benchmark_entry_points():
    """``ENTRY_POINTS`` of the benchmark's ``spans.py``, read from its
    source: (span name, module, attribute or Class.method) triples."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["ENTRY_POINTS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS in {SPANS}")


@pytest.mark.parametrize(
    "module_name, attr",
    [pytest.param(module, attr, id=name)
     for name, module, attr in benchmark_entry_points()
     if (module, attr) not in DROPPED])
def test_benchmark_entry_point_resolves(module_name, attr):
    # resolved as the benchmark's wrapper finds it: a method must be
    # the class's own, not inherited
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert getattr(module, attr, None) is not None


# Both models' runs, the convergence check, its CLI command and a KS test
# whose p-value is below 1, then the scipy modules the process holds.
RUN_PATH = """
import sys
from intervalsig.abstract_model import (
    convergence_check, convergence_demo_config, ks_2samp, run_abstract)
from intervalsig.cli import main
from intervalsig.engine import RunConfig, run
from intervalsig.signaling import extreme_scheme
for instance in ("diamond", "sioux-falls"):
    run(RunConfig(scheme=extreme_scheme(5), horizon=3, seed=1,
                  instance=instance))
config, inits = convergence_demo_config(action_count=3)
run_abstract(config, 20)
convergence_check(config, 50, 40, inits, seed=1)
assert ks_2samp([0.2, 0.8, 0.8], [0.8, 1.0, 1.0])[1] < 1.0
assert main(["convergence-check", "--trajectories", "20",
             "--horizon", "30"]) == 0
print("scipy modules:", sorted(name for name in sys.modules
                               if name.partition(".")[0] == "scipy"))
"""


def test_no_run_imports_scipy():
    # scipy is a test dependency only; run in a fresh process, since
    # this one has imported it for the tests
    src = Path(intervalsig.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", RUN_PATH],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True, timeout=120).stdout
    assert out.splitlines()[-1] == "scipy modules: []"
