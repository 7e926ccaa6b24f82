"""The benchmark's output checks (``perfbench/checks.py``) pass on the
package's own outputs.

The benchmark reads results through their row view; these tests keep
that reader working wherever the benchmark's own self-test is not run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from intervalsig import instances
from intervalsig.abstract_model import (
    AbstractConfig,
    convergence_check,
    convergence_demo_config,
    run_abstract,
)
from intervalsig.costs import polynomial_cost_fn
from intervalsig.engine import RunConfig, records_to_csv, run
from intervalsig.population import uniform_perturbation, uniform_type_set
from intervalsig.signaling import extreme_scheme

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in ``sys.modules``
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_network_run_and_its_csv(checks):
    result = run(RunConfig(scheme=extreme_scheme(5), horizon=30, seed=1,
                           instance="diamond"))
    links = checks.read_links(instances.diamond_net_text())
    trips = checks.read_trips(instances.diamond_trips_text())
    assert checks.check_network_run(result, links, trips, "extreme", 5,
                                    capped=True, type_count=5,
                                    epsilon=0.15) == []
    assert checks.check_csv_round_trip(records_to_csv(result), result) == []


def test_abstract_run(checks):
    # a polynomial cost per action, idle cost a to a few times that under
    # the whole population, as the benchmark's abstract workload builds;
    # the window is shorter than the run, so the initial signal leaves it
    actions, agents, window, types = 20, 1000, 10, 5
    rng = np.random.default_rng(1)
    coeffs = np.column_stack([
        rng.uniform(1.0, 2.0, actions),
        rng.uniform(0.5, 1.5, actions) / agents,
        rng.uniform(0.0, 1.0, actions) / agents ** 2])
    initial = np.column_stack([
        coeffs[:, 0], checks.polynomial(coeffs, np.full(actions, agents))])
    config = AbstractConfig(
        agent_count=agents, action_count=actions,
        costs=[polynomial_cost_fn(c) for c in coeffs],
        scheme=extreme_scheme(window),
        renewal=uniform_perturbation(types, 0.15), initial_signal=initial,
        seed=1, types=uniform_type_set(types))
    result = run_abstract(config, 40)
    omegas = np.arange(types) / (types - 1)
    assert checks.check_abstract_run(result, coeffs, initial, window,
                                     agents, omegas) == []


def test_convergence_check(checks):
    config, initial_signals = convergence_demo_config(agent_count=20,
                                                      action_count=2)
    report = convergence_check(config, trajectories=200, horizon=50,
                               initial_signals=initial_signals, seed=1)
    assert checks.check_convergence(report) == []
