"""Resource-choice model on abstract actions: the randomized choice
among tied actions, one period of the model, the run against its
one-column reference stepper, the running-envelope signal recursion,
the two-arm flapping construction, and the coupled-trajectory
convergence check."""

import copy
import csv
import dataclasses
import hashlib
import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from intervalsig import abstract_model
from intervalsig.abstract_model import (
    AbstractConfig,
    AbstractResult,
    FlappingSpec,
    ValidationError,
    convergence_check,
    convergence_demo_config,
    flapping_demo,
    ks_2samp,
    pick_among_ties,
    records_to_abstract_csv,
    run_abstract,
)
from intervalsig.costs import (
    flapping_cost_fn,
    linear_cost_fn,
    polynomial_cost_fn,
    social_cost_abstract,
)
from intervalsig.engine import RunConfig, run
from intervalsig.population import (
    PopulationProfile,
    TypeSet,
    derived_rng,
    finite_support,
    uniform_perturbation,
    uniform_type_set,
)
from intervalsig.signaling import (
    CostHistory,
    edge_weight,
    emit_signal,
    extreme_scheme,
    full_extreme_scheme,
    mean_scheme,
    now_scheme,
    subinterval_scheme,
)

from .oracle import convergence_check_full_batch, sample_period, step_column

SINGLETON = TypeSet((0.5,))
ALWAYS_FLAT = finite_support([(PopulationProfile((1.0,)), 1.0)])
ONE_TYPE = np.array([1.0])     # the shares of a single type


def two_action_config(**overrides):
    base = dict(
        agent_count=10,
        action_count=2,
        costs=[linear_cost_fn(10), linear_cost_fn(10, offset=0.05)],
        scheme=full_extreme_scheme(),
        renewal=ALWAYS_FLAT,
        initial_signal=np.array([[0.2, 0.5], [0.3, 0.8]]),
        seed=0,
        types=SINGLETON,
    )
    base.update(overrides)
    return AbstractConfig(**base)


def column_bytes(result) -> list[bytes]:
    """Every column's bytes, in field order."""
    return [getattr(result, f.name).tobytes()
            for f in dataclasses.fields(result)]


def fresh_history(config):
    """The history ``run_abstract`` starts ``config`` from."""
    return CostHistory(config.action_count, config.scheme,
                       config.initial_signal)


class TestConfigValidation:
    def test_cost_count_must_match_actions(self):
        with pytest.raises(ValidationError):
            two_action_config(costs=[linear_cost_fn(10)])

    def test_initial_signal_shape(self):
        with pytest.raises(ValidationError):
            two_action_config(initial_signal=np.zeros((3, 2)))

    def test_initial_signal_ordering(self):
        with pytest.raises(ValidationError):
            two_action_config(initial_signal=np.array([[1.0, 0.5],
                                                       [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [[0.3, np.inf], [-np.inf, 0.3],
                                     [-0.1, 0.3]])
    def test_infinite_or_negative_initial_endpoint_rejected(self, bad):
        # an infinite endpoint used to build and be read as NaN weights
        with pytest.raises(ValidationError,
                           match="initial signal must be finite"):
            two_action_config(initial_signal=np.array([[0.2, 0.5], bad]))

    def test_negative_zero_initial_endpoint_accepted(self):
        init = np.array([[-0.0, 0.5], [-0.0, -0.0]])
        config = two_action_config(initial_signal=init)
        assert run_abstract(config, 2).signal[0].tobytes() == init.tobytes()

    def test_agent_count_positive(self):
        with pytest.raises(ValidationError):
            two_action_config(agent_count=0)

    @pytest.mark.parametrize("count", [float("nan"), float("inf")])
    def test_non_finite_agent_count_rejected(self, count):
        # NaN used to pass ``< 1`` and fail only in period 1, when the
        # history refused its costs
        with pytest.raises(ValidationError,
                           match="agent count must be a finite number"):
            two_action_config(agent_count=count)

    @pytest.mark.parametrize("count", [True, "5"])
    def test_non_real_agent_count_rejected(self, count):
        # True used to build as one agent, and "5" to raise a bare
        # TypeError from the comparison
        with pytest.raises(ValidationError,
                           match="agent count must be a real number"):
            two_action_config(agent_count=count)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (2.0, "seed must be an integer, got 2.0"),
        (True, "seed must be an integer, got True")])
    def test_seed_checked_at_construction(self, seed, message):
        # a negative seed used to build and fail only in ``run_abstract``
        with pytest.raises(ValidationError, match=re.escape(message)):
            two_action_config(seed=seed)

    def test_fractional_agent_count_accepted(self):
        config = two_action_config(agent_count=10.5)
        result = run_abstract(config, 3)
        assert result.counts.sum(axis=1).tolist() == [10.5] * 3

    @pytest.mark.parametrize("wrong", [
        finite_support([(PopulationProfile((0.5, 0.5)), 1.0)]),
        uniform_perturbation(2, 0.1)], ids=["finite_support", "uniform"])
    def test_renewal_profile_width_must_match_types(self, wrong):
        with pytest.raises(ValidationError,
                           match="renewal type count != type set size"):
            two_action_config(renewal=wrong)

    def test_costs_must_be_cost_functions(self):
        # a lambda used to reach ``CostTable`` and fail there with an
        # AttributeError
        config, _ = convergence_demo_config()
        with pytest.raises(ValidationError, match="AbstractCostFn"):
            dataclasses.replace(config, costs=[config.costs[0], lambda n: n])

    @pytest.mark.parametrize("count", [2.0, 2.5, "2"])
    def test_fractional_action_count_rejected(self, count):
        # 2.0 used to build (two cost functions compare equal to it) and
        # then fail in ``CostHistory`` with numpy's TypeError
        config, _ = convergence_demo_config()
        with pytest.raises(ValidationError,
                           match="action count must be an integer"):
            dataclasses.replace(config, action_count=count)

    def test_numpy_integer_action_count_accepted(self):
        config, _ = convergence_demo_config()
        config = dataclasses.replace(config, action_count=np.int64(2))
        assert len(run_abstract(config, 3)) == 3

    @pytest.mark.parametrize("name, value, kind", [
        ("scheme", "now", "Scheme"),
        ("renewal", None, "RenewalProcess"),
        ("types", (0.0, 1.0), "TypeSet")])
    def test_field_of_the_wrong_type_rejected(self, name, value, kind):
        # a scheme name used to build and fail in ``run_abstract``, and
        # the others to fail here with an AttributeError
        config, _ = convergence_demo_config()
        with pytest.raises(ValidationError,
                           match=f"{name} must be a {kind}, got"):
            dataclasses.replace(config, **{name: value})


class TestFrozenConfig:
    """A config cannot change once built, so a seed fixes its run."""

    def test_initial_signal_cannot_be_written(self):
        config = two_action_config(scheme=extreme_scheme(3))
        before = column_bytes(run_abstract(config, 5))
        with pytest.raises(ValueError, match="read-only"):
            config.initial_signal[0, 0] = 0.0
        assert column_bytes(run_abstract(config, 5)) == before

    def test_initial_signal_is_the_configs_own(self):
        init = np.array([[0.2, 0.5], [0.3, 0.8]])
        config = two_action_config(initial_signal=init)
        init[0, 0] = 0.0
        assert config.initial_signal[0, 0] == 0.2

    def test_costs_cannot_grow(self):
        config = two_action_config()
        assert type(config.costs) is tuple
        with pytest.raises(AttributeError):
            config.costs.append(linear_cost_fn(10))
        assert len(config.costs) == config.action_count == 2

    def test_caller_list_of_costs_is_copied(self):
        costs = [linear_cost_fn(10), linear_cost_fn(10, offset=0.05)]
        config = two_action_config(costs=costs)
        costs.append(linear_cost_fn(10))
        assert len(config.costs) == 2

    def test_omegas_cannot_be_written(self):
        config = two_action_config()
        with pytest.raises(ValueError, match="read-only"):
            config.omegas[0] = 1.0


class TestChooseActionAbstract:
    """An abstract agent's choice: ``pick_among_ties`` over the weights
    its type reads from the signal."""

    SIG = np.array([[1.0, 3.0], [2.0, 2.0]])

    def test_pessimist_picks_tighter_upper_bound(self):
        assert pick_among_ties(edge_weight(self.SIG, 0.0), 0.3) == 1

    def test_optimist_picks_lower_lower_bound(self):
        assert pick_among_ties(edge_weight(self.SIG, 1.0), 0.3) == 0

    def test_singleton_argmin_ignores_rng_state(self):
        picks = {int(pick_among_ties(edge_weight(self.SIG, 0.0), u))
                 for u in np.random.default_rng(0).random(50)}
        assert picks == {1}

    def test_tie_breaks_uniformly(self):
        sig = np.array([[2.0, 4.0], [2.0, 4.0]])
        u = np.random.default_rng(31).random(10_000)
        picks = pick_among_ties(np.tile(edge_weight(sig, 0.5), (10_000, 1)),
                                u)
        assert abs(picks.mean() - 0.5) <= 0.02

    def test_picks_the_draws_share_of_the_ties(self):
        weights = np.array([[3.0, 1.0, 2.0, 1.0, 1.0]] * 4)
        picks = pick_among_ties(weights, np.array([0.0, 0.34, 0.9, 1.0]))
        assert picks.tolist() == [1, 3, 4, 4]

    @staticmethod
    def reference_pick(row, u):
        low = min(row)
        ties = [i for i, w in enumerate(row) if w == low]
        return ties[min(int(u * len(ties)), len(ties) - 1)]

    # (500, 2, 3): 1000 rows of 3 entries, counted a plane at a time;
    # (2, 200): 2 rows of 200 entries, counted with ``cumsum``;
    # (300, 1): one entry, which every row picks;
    # (400, 130): a plane at a time, with counts too wide for a byte
    @pytest.mark.parametrize("shape", [(500, 2, 3), (2, 200), (300, 1),
                                       (400, 130)])
    @pytest.mark.parametrize("seed", range(3))
    def test_tie_count_matches_python_reference(self, shape, seed):
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 3, shape).astype(float)
        rows = weights.reshape(-1, shape[-1])
        rows[0] = 2.0                          # every entry of a row ties
        rows[-1] = 0.0
        u = rng.random(shape[:-1])
        u.flat[0], u.flat[-1], u.flat[1] = 0.0, 1.0, 1.0
        want = [self.reference_pick(row.tolist(), uu)
                for row, uu in zip(rows, u.ravel().tolist())]
        picks = pick_among_ties(weights, u)
        assert picks.shape == shape[:-1]
        assert picks.ravel().tolist() == want
        # an entry-major array passed as a view
        view = np.moveaxis(np.ascontiguousarray(np.moveaxis(weights, -1, 0)),
                           0, -1)
        assert pick_among_ties(view, u).ravel().tolist() == want

    # Wide rows (at least as many entries as rows) find the minimizers
    # by ``argmin``, tall ones by ``min``; either way a tie-free array
    # skips the tie count, and any tie takes the counting pick.  The
    # last shape of each is ``convergence_check``'s ``(types, 2, k)``
    # rows, whose draws are ``(types, 1, k)``: both arms share them.
    LAYOUTS = {"wide": [(5, 200), (2, 3, 40), (1,), (2, 2, 3, 20)],
               "tall": [(1000, 2), (50, 20, 3), (300, 1), (5, 2, 40, 2)]}
    DRAWS = {(2, 2, 3, 20): (2, 1, 3), (5, 2, 40, 2): (5, 1, 40)}

    def assert_matches_reference(self, weights, u):
        rows = weights.reshape(-1, weights.shape[-1])
        draws = np.broadcast_to(u, weights.shape[:-1]).ravel().tolist()
        want = [self.reference_pick(row.tolist(), uu)
                for row, uu in zip(rows, draws)]
        picks = pick_among_ties(weights, u)
        assert np.shape(picks) == weights.shape[:-1]
        assert np.ravel(picks).tolist() == want
        view = np.moveaxis(np.ascontiguousarray(np.moveaxis(weights, -1, 0)),
                           0, -1)
        assert np.ravel(pick_among_ties(view, u)).tolist() == want
        return want

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("case", ["continuous", "one-tied-row",
                                      "signed-zeros"])
    @pytest.mark.parametrize("draw", ["random", 0.0, 1.0])
    def test_layouts_match_python_reference(self, layout, case, draw):
        rng = np.random.default_rng(11)
        for shape in self.LAYOUTS[layout]:
            weights = rng.random(shape)
            rows = weights.reshape(-1, shape[-1])
            row = rng.integers(len(rows))
            if shape[-1] > 1 and case == "one-tied-row":
                low = rows[row].argmin()
                rows[row, (low + 1 + rng.integers(shape[-1] - 1))
                     % shape[-1]] = rows[row, low]
            elif shape[-1] > 1 and case == "signed-zeros":
                # 0.0 and -0.0 tie under ==
                rows[row, -1], rows[row, 0] = 0.0, -0.0
            draws = self.DRAWS.get(shape, shape[:-1])
            u = (rng.random(draws) if draw == "random"
                 else np.full(draws, draw))
            want = self.assert_matches_reference(weights, u)
            ties = np.flatnonzero(rows[row] == rows[row].min())
            assert len(ties) == (2 if case != "continuous"
                                 and shape[-1] > 1 else 1)
            if draw != "random":
                assert want[row] == ties[0 if draw == 0.0 else -1]

    @pytest.mark.parametrize("shape", [(2,)] + LAYOUTS["wide"][:2]
                             + LAYOUTS["tall"][:2],
                             ids=["one-row", "wide", "wide-3d", "tall",
                                  "tall-3d"])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_nan_weight_is_refused(self, shape, tied):
        # a NaN row counts no minimal entry, so a tied row elsewhere
        # would make up the count of a tie-free array
        weights = np.random.default_rng(3).random(shape)
        rows = weights.reshape(-1, shape[-1])
        rows[-1, 1] = np.nan
        if tied:
            rows[0, :2] = rows[0].min()
        with pytest.raises(ValidationError, match="NaN"):
            pick_among_ties(weights, 0.5)

    @pytest.mark.parametrize("shape", [(3, 0), (0,), ()])
    def test_no_entries_is_refused(self, shape):
        with pytest.raises(ValidationError,
                           match=re.escape(str(shape))):
            pick_among_ties(np.zeros(shape), 0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_types_match_per_row_loop(self, seed):
        # (k, T, M) weights drawn from three values, so most rows tie;
        # u includes both ends of [0, 1].
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 3, (40, 5, 6)).astype(float)
        weights[0] = 1.0                       # every entry of a row ties
        u = rng.random((40, 5))
        u[1], u[2] = 0.0, 1.0
        picks = pick_among_ties(weights, u)
        assert picks.shape == (40, 5)
        for i in range(40):
            for j in range(5):
                row = weights[i, j]
                ties = np.flatnonzero(row == row.min())
                want = ties[min(int(u[i, j] * len(ties)), len(ties) - 1)]
                assert picks[i, j] == want
                assert pick_among_ties(row, u[i, j]) == want


class TestStepColumn:
    """One period of the model through ``tests/oracle.py``'s one-column
    stepper: emit the signal, play it in Python floats, record the
    costs."""

    def test_pessimists_chase_tighter_upper_bound(self):
        # one type reading upper endpoints; all ten agents pick action 1,
        # and the envelope absorbs the realized costs
        config = two_action_config(
            costs=[linear_cost_fn(10), linear_cost_fn(10)],
            types=TypeSet((0.0,)),
        )
        history = fresh_history(config)
        _, counts, costs = step_column(history, config, ONE_TYPE, [0.7])
        assert history.periods == 1
        assert counts == pytest.approx([10.0, 0.0])
        assert costs == pytest.approx([1.0, 0.0])
        signal = emit_signal(history)
        assert signal[0] == pytest.approx([0.2, 1.0])
        assert signal[1] == pytest.approx([0.0, 0.8])

    def test_counts_always_sum_to_agent_count(self):
        config = two_action_config()
        history = fresh_history(config)
        rng = np.random.default_rng(3)
        for _ in range(30):
            _, counts, _ = step_column(history, config, ONE_TYPE,
                                       rng.random(1))
            assert counts.sum() == pytest.approx(10.0, abs=1e-9)

    def test_symmetric_tie_moves_whole_mass_randomly(self):
        config = two_action_config(
            costs=[linear_cost_fn(10), linear_cost_fn(10)],
            initial_signal=np.array([[1.0, 2.0], [1.0, 2.0]]),
        )
        firsts = []
        rng = np.random.default_rng(11)
        for _ in range(4000):
            _, counts, _ = step_column(fresh_history(config), config,
                                       ONE_TYPE, rng.random(1))
            assert sorted(counts) == pytest.approx([0.0, 10.0])
            firsts.append(counts[0])
        assert abs(np.mean(firsts) - 5.0) <= 0.25   # expected N/2 under ties

    def test_constant_cost_fixed_point_of_envelope(self):
        config = two_action_config(
            costs=[polynomial_cost_fn([4.0]), polynomial_cost_fn([4.0])],
            initial_signal=np.array([[4.0, 4.0], [4.0, 4.0]]),
        )
        history = fresh_history(config)
        step_column(history, config, ONE_TYPE, [0.2])
        assert emit_signal(history) == pytest.approx(np.full((2, 2), 4.0))


class TestRunAbstract:
    @pytest.mark.parametrize("horizon", [2.5, 3.0])
    def test_fractional_horizon_rejected(self, horizon):
        with pytest.raises(ValidationError,
                           match=f"horizon must be an integer, got {horizon}"):
            run_abstract(two_action_config(), horizon)

    def test_numpy_integer_horizon_accepted(self):
        assert len(run_abstract(two_action_config(), np.int64(3))) == 3

    def test_window_past_the_horizon_is_the_horizon(self):
        # the initial signal stays in the envelope to the end of both
        # runs, and the ring grows with the periods recorded
        huge, short = (run_abstract(
            two_action_config(scheme=extreme_scheme(r)), 30)
            for r in (10 ** 13, 30))
        assert column_bytes(huge) == column_bytes(short)

    def test_deterministic_given_seed(self):
        config = two_action_config(scheme=now_scheme())
        a = run_abstract(config, horizon=25)
        b = run_abstract(config, horizon=25)
        assert column_bytes(a) == column_bytes(b)

    def test_point_signal_echoes_previous_costs(self):
        config = two_action_config(scheme=now_scheme())
        result = run_abstract(config, horizon=10)
        assert result.signal[1:, :, 0] == pytest.approx(result.costs[:-1])
        assert result.signal[1:, :, 1] == pytest.approx(result.costs[:-1])

    def test_mean_signal_is_running_average(self):
        config = two_action_config(scheme=mean_scheme())
        result = run_abstract(config, horizon=8)
        means = (np.cumsum(result.costs[:-1], axis=0)
                 / np.arange(1, 8)[:, None])
        assert result.signal[1:, :, 0] == pytest.approx(means)
        assert result.signal[1:, :, 1] == pytest.approx(means)

    def test_envelope_monotone_along_trajectory(self):
        config = two_action_config(
            types=TypeSet((0.0, 1.0)),
            renewal=finite_support([
                (PopulationProfile((0.8, 0.2)), 0.5),
                (PopulationProfile((0.2, 0.8)), 0.5),
            ]),
        )
        signal = run_abstract(config, horizon=40).signal
        assert np.all(signal[1:, :, 0] <= signal[:-1, :, 0] + 1e-15)
        assert np.all(signal[1:, :, 1] >= signal[:-1, :, 1] - 1e-15)

    def test_windowed_envelope_covers_recent_costs(self):
        config = two_action_config(
            scheme=extreme_scheme(3),
            types=TypeSet((0.0, 1.0)),
            renewal=finite_support([
                (PopulationProfile((0.8, 0.2)), 0.5),
                (PopulationProfile((0.2, 0.8)), 0.5),
            ]),
        )
        result = run_abstract(config, horizon=20)
        for t in range(4, 20):   # window fully populated, seed washed out
            recent = result.costs[t - 3:t]
            assert result.signal[t, :, 0] == pytest.approx(
                recent.min(axis=0))
            assert result.signal[t, :, 1] == pytest.approx(
                recent.max(axis=0))


class TestRunAbstractMemory:
    """``run_abstract`` holds little beyond its result.  On the abstract
    benchmark's shape (200 actions, 1000 agents, 300 periods, 5 types
    under ``extreme`` r = 50, per-action costs ``a + b n + c n^2``) the
    result is 1.92 MB; the run's peak traced allocation stays within
    1 MiB of it.  Its social-cost terms, ``(T, M)`` floats, take 0.48 MB
    of that; the same terms as one Python list take about 2 MB more."""

    SLACK = 2 ** 20

    @staticmethod
    def config():
        rng = np.random.default_rng(1)
        n, m = 1000, 200
        coeffs = np.column_stack([rng.uniform(1.0, 2.0, m),
                                  rng.uniform(0.5, 1.5, m) / n,
                                  rng.uniform(0.0, 1.0, m) / n ** 2])
        costs = [polynomial_cost_fn(c) for c in coeffs.tolist()]
        return AbstractConfig(
            agent_count=n, action_count=m, costs=costs,
            scheme=extreme_scheme(50),
            renewal=uniform_perturbation(5, 0.15),
            initial_signal=[[fn(0.0), fn(n)] for fn in costs], seed=1,
            types=uniform_type_set(5))

    def test_peak_is_the_result_and_a_little(self):
        config = self.config()
        run_abstract(config, 2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = run_abstract(config, 300)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        own = sum(getattr(result, f.name).nbytes
                  for f in dataclasses.fields(result))
        assert own == 1_924_800
        assert peak <= own + self.SLACK, peak - own


def replay_abstract(config, horizon):
    """``run_abstract``'s columns, played period by period through
    ``step_column`` on the run's own streams, each draw taken one period
    at a time with ``sample_period`` and one ``random`` call."""
    history = fresh_history(config)
    population = derived_rng(config.seed, "population")
    tie_break = derived_rng(config.seed, "tie-break")
    rows = []
    for t in range(1, horizon + 1):
        signal, counts, costs = step_column(
            history, config, sample_period(config.renewal, population),
            tie_break.random(len(config.types)))
        rows.append((t, counts, costs,
                     social_cost_abstract(counts, costs, config.agent_count),
                     signal))
    return [np.array(column) for column in zip(*rows)]


class TestRunAbstractAgainstStepColumn:
    """``run_abstract`` writes each period straight into its columns;
    replayed through the one-column stepper on its own draws, every
    column must have the same bytes.  Two actions of six have the same
    cost function and two a constant cost, the initial signal ties
    three pairs of actions, and the three types read the lower end, the
    upper end and the middle, so many periods tie and the tie uniforms
    decide."""

    HORIZON = 60

    @staticmethod
    def config(scheme, renewal):
        m = 6
        costs = [linear_cost_fn(30), linear_cost_fn(30),
                 polynomial_cost_fn([0.5]), polynomial_cost_fn([0.5]),
                 linear_cost_fn(30, offset=0.25),
                 polynomial_cost_fn([0.25, 1.0 / 30])]
        initial = np.array([[0.2, 0.6], [0.2, 0.6], [0.5, 0.5],
                            [0.5, 0.5], [0.0, 0.8], [0.0, 0.8]])
        return AbstractConfig(
            agent_count=30, action_count=m, costs=costs, scheme=scheme,
            renewal=renewal, initial_signal=initial, seed=9,
            types=TypeSet((0.0, 0.5, 1.0)))

    @pytest.mark.parametrize("renewal", [
        uniform_perturbation(3, 0.2),
        finite_support([(PopulationProfile((0.6, 0.2, 0.2)), 0.3),
                        (PopulationProfile((0.0, 0.0, 1.0)), 0.7)])],
        ids=["uniform", "finite"])
    @pytest.mark.parametrize("scheme", [
        now_scheme(), mean_scheme(), extreme_scheme(1), extreme_scheme(4),
        subinterval_scheme(4, 0.5), full_extreme_scheme()],
        ids=lambda scheme: scheme.label())
    def test_columns_are_the_replay(self, scheme, renewal):
        config = self.config(scheme, renewal)
        result = run_abstract(config, self.HORIZON)
        replay = replay_abstract(config, self.HORIZON)
        for name, column in zip(("t", "counts", "costs", "social_cost",
                                 "signal"), replay):
            got = getattr(result, name)
            assert got.shape == column.shape, name
            assert got.astype(float).tobytes() == \
                column.astype(float).tobytes(), name
        # ties were met after period 1 too, where the initial signal no
        # longer makes them: some type saw two or more minimal actions
        weights = edge_weight(result.signal[1:, None],
                              np.reshape(config.types.omegas, (-1, 1)))
        tied = (weights == weights.min(axis=-1, keepdims=True)).sum(axis=-1)
        assert (tied > 1).any()


def abstract_rows_digest(rows) -> str:
    """sha256 prefix of every row's values, read by attribute the way
    the benchmark checks read them."""
    h = hashlib.sha256()
    for r in rows:
        assert type(r.t) is int and type(r.social_cost) is float
        for block in ([r.t, r.social_cost], r.counts, r.costs, r.signal):
            h.update(np.ascontiguousarray(block, dtype=float).tobytes())
    return h.hexdigest()[:16]


class TestAbstractResultContract:
    """An ``AbstractResult`` reads as the record list ``run_abstract``
    used to return; the digests are that list's (all, ``[-1]``,
    ``[10:]``, ``[-7:]``), taken before the result became columnar, on
    a run whose five types' shares are redrawn every period."""

    @pytest.fixture(scope="class")
    def result(self):
        m = 6
        config = AbstractConfig(
            agent_count=50, action_count=m,
            costs=[linear_cost_fn(50, offset=0.1 * i) for i in range(m)],
            scheme=extreme_scheme(4), renewal=uniform_perturbation(5, 0.15),
            initial_signal=np.array([[0.1 * i, 1.0 + 0.1 * i]
                                     for i in range(m)]),
            seed=3, types=uniform_type_set(5))
        return run_abstract(config, 60)

    def test_sequence_reads_as_the_record_list(self, result):
        assert isinstance(result, AbstractResult)
        assert len(result) == 60
        assert [abstract_rows_digest(result),
                abstract_rows_digest([result[-1]]),
                abstract_rows_digest(result[10:]),
                abstract_rows_digest(result[-7:])] == [
            "54ec2cfe00cda110", "6291bec735e945cc", "3a767ff50684f546",
            "868d19ff7f179851"]

    def test_rows_are_the_columns(self, result):
        for i in (0, 9, -1):
            for name in ("t", "counts", "costs", "social_cost", "signal"):
                assert np.array_equal(getattr(result[i], name),
                                      getattr(result, name)[i])
            # a row of the run's own column, no copy
            assert result[i].counts.base is result.counts

    def test_sealed_but_a_deep_copy_writes_through(self, result):
        with pytest.raises(ValueError, match="read-only"):
            result[2].counts = np.zeros(6)
        edited = copy.deepcopy(result)
        edited[2].counts = np.zeros(6)
        assert not [r.counts for r in edited][2].any()
        assert result[2].counts.any()


class TestFlappingSpec:
    def test_rejects_even_agent_count(self):
        with pytest.raises(ValidationError):
            FlappingSpec(gap_target=7.0, agent_count=4)

    def test_rejects_small_agent_count(self):
        with pytest.raises(ValidationError):
            FlappingSpec(gap_target=7.0, agent_count=1)

    @pytest.mark.parametrize("agent_count", [3.5, 5.0])
    def test_rejects_fractional_agent_count(self, agent_count):
        # 3.5 passes an oddness test on floats; the cost function would
        # then truncate it to 3
        with pytest.raises(ValidationError, match="must be an integer"):
            FlappingSpec(gap_target=7.0, agent_count=agent_count)

    def test_rejects_fractional_horizon(self):
        spec = FlappingSpec(gap_target=7.0, agent_count=np.int64(3))
        with pytest.raises(ValidationError, match="must be an integer"):
            flapping_demo(spec, horizon=2.5)

    @pytest.mark.parametrize("gap_target", ["1", True])
    def test_rejects_non_real_gap(self, gap_target):
        # "1" used to raise a bare TypeError from the comparison
        with pytest.raises(ValidationError,
                           match="gap target must be a real number"):
            FlappingSpec(gap_target=gap_target, agent_count=3)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValidationError):
            FlappingSpec(gap_target=0.0, agent_count=3)

    @pytest.mark.parametrize("gap_target, agent_count", [
        (1e308, 3), (6e307, 3), (1e306, 1001), (np.inf, 3), (np.nan, 3)])
    def test_rejects_gap_whose_scaled_cost_overflows(self, gap_target,
                                                     agent_count):
        # 3 * (1e308 + 1) overflows, and the gap came out as inf
        with pytest.raises(ValidationError, match=re.escape(
                f"got agent count {agent_count} and gap target "
                f"{gap_target!r}")):
            FlappingSpec(gap_target=gap_target, agent_count=agent_count)

    def test_largest_gaps_still_run(self):
        # 3 * (1e307 + 1) is finite, and so is the gap
        report = flapping_demo(FlappingSpec(gap_target=1e307, agent_count=3),
                               horizon=4)
        assert report.gap == 1e307

    def test_cost_fn_matches_piecewise_form(self):
        fn = flapping_cost_fn(7.0, 3)
        assert fn(1) == pytest.approx(1.0)
        assert fn(2) == pytest.approx(2.0)      # 8^(1/3)
        assert fn(3) == pytest.approx(8.0)


class TestFlappingDemo:
    def test_small_instance_exact_gap(self):
        report = flapping_demo(FlappingSpec(gap_target=7.0, agent_count=3),
                               horizon=40)
        assert abs(report.gap - 19.0 / 3.0) < 1e-12
        assert report.scalar_records.social_cost == pytest.approx([8.0] * 40)
        assert report.interval_records.social_cost == pytest.approx(
            [5.0 / 3.0] * 40)

    def test_scalar_arm_is_all_or_nothing_and_alternates(self):
        report = flapping_demo(FlappingSpec(gap_target=7.0, agent_count=3),
                               horizon=40)
        counts = report.scalar_records.counts
        # all periods from the second on
        assert np.sort(counts[1:], axis=1) == pytest.approx(
            np.tile([0.0, 3.0], (39, 1)))
        assert (counts[1:] != counts[:-1]).any(axis=1).all()

    def test_interval_arm_stays_split(self):
        report = flapping_demo(FlappingSpec(gap_target=7.0, agent_count=5),
                               horizon=30)
        assert np.sort(report.interval_records.counts, axis=1) == \
            pytest.approx(np.tile([2.0, 3.0], (30, 1)))

    def test_large_population_gap_approaches_target(self):
        report = flapping_demo(FlappingSpec(gap_target=7.0, agent_count=101),
                               horizon=10)
        assert 6.85 <= report.gap < 7.0
        assert report.gap == pytest.approx(6.98950, abs=1e-4)

    def test_gap_lower_bound_holds(self):
        for n in (3, 5, 101):
            report = flapping_demo(
                FlappingSpec(gap_target=7.0, agent_count=n), horizon=5)
            assert report.gap_lower_bound <= report.gap
        r3 = flapping_demo(FlappingSpec(gap_target=7.0, agent_count=3),
                           horizon=5)
        assert r3.gap_lower_bound == pytest.approx(4.0)


class TestConvergenceCheck:
    def test_identical_initial_signals_stay_glued(self):
        config, (init_a, _) = convergence_demo_config()
        report = convergence_check(config, trajectories=5, horizon=30,
                                   initial_signals=(init_a, init_a), seed=0)
        assert report.distance_series == pytest.approx([0.0] * 31)

    def test_coupled_distance_collapses(self):
        config, inits = convergence_demo_config()
        report = convergence_check(config, trajectories=1, horizon=200,
                                   initial_signals=inits, seed=42)
        assert report.distance_series[0] > 0.1
        assert (report.distance_series[-1]
                < 1e-6 * report.distance_series[0])

    def test_distance_never_expands(self):
        config, inits = convergence_demo_config()
        report = convergence_check(config, trajectories=1, horizon=120,
                                   initial_signals=inits, seed=3)
        diffs = np.diff(report.distance_series)
        assert np.all(diffs <= 1e-12)

    def test_terminal_distribution_independent_of_start(self):
        config, inits = convergence_demo_config()
        report = convergence_check(config, trajectories=300, horizon=200,
                                   initial_signals=inits, seed=7)
        assert report.ks_statistic < 0.05

    def test_deterministic_given_seed(self):
        config, inits = convergence_demo_config()
        a = convergence_check(config, trajectories=20, horizon=50,
                              initial_signals=inits, seed=5)
        b = convergence_check(config, trajectories=20, horizon=50,
                              initial_signals=inits, seed=5)
        assert np.array_equal(a.distance_series, b.distance_series)
        assert a.ks_statistic == b.ks_statistic
        assert np.array_equal(a.sample_a, b.sample_a)


class TestConvergenceReportBytes:
    """sha256 prefixes of every ``ConvergenceReport`` field, taken before
    the arms shared their draws by broadcasting, at the benchmark's
    configuration (M = 2, 5000 x 100, seed 1) and two others.  In all
    three the arms' end shares agree, so the KS statistic is 0 and its
    p-value 1."""

    @pytest.mark.parametrize("case, digests", [
        ((2, 5000, 100, 1), {
            "distance_series": "71248bd99c91476e",
            "ks_statistic": "af5570f5a1810b7a",
            "ks_pvalue": "6c3c396ed6b5c36d",
            "sample_a": "ad20857a32f38ecf",
            "sample_b": "ad20857a32f38ecf"}),
        ((3, 500, 200, 5), {
            "distance_series": "2b3dca528c420746",
            "ks_statistic": "af5570f5a1810b7a",
            "ks_pvalue": "6c3c396ed6b5c36d",
            "sample_a": "d512155115086629",
            "sample_b": "d512155115086629"}),
        ((8, 200, 200, 1), {
            "distance_series": "8403c2003dd3ec83",
            "ks_statistic": "af5570f5a1810b7a",
            "ks_pvalue": "6c3c396ed6b5c36d",
            "sample_a": "85ba3174efd1e5f9",
            "sample_b": "85ba3174efd1e5f9"}),
    ])
    def test_fields_keep_their_bytes(self, case, digests):
        m, trajectories, horizon, seed = case
        config, inits = convergence_demo_config(agent_count=20,
                                                action_count=m)
        report = convergence_check(config, trajectories, horizon, inits,
                                   seed)
        assert {f.name: hashlib.sha256(np.ascontiguousarray(
                    getattr(report, f.name), dtype=float).tobytes()
                ).hexdigest()[:16]
                for f in dataclasses.fields(report)} == digests


def discrete_pair(rng, n):
    """Two samples of size ``n`` on a few share levels: a fifth of the
    pairs identical, and a third of the rest with the second arm one
    level up."""
    levels = int(rng.integers(1, 7))
    a = rng.integers(0, levels, n) / 5
    if rng.random() < 0.2:
        return a, a.copy()
    return a, rng.integers(0, levels, n) / 5 + 0.2 * (rng.random() < 0.3)


class TestKs2samp:
    """The package's KS test against ``scipy.stats.ks_2samp``: the same
    bits wherever scipy's default is exact and succeeds, p = 1.0 where
    its exact mode fails, and scipy's ``method="exact"`` above 10,000."""

    def compare(self, rng, sizes):
        """Compare one draw per size; the p-values of the draws where
        scipy's exact mode succeeded, and the count where it failed."""
        pvalues, failed = [], 0
        for n in sizes:
            a, b = discrete_pair(rng, n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                expected = stats.ks_2samp(a, b)
            statistic, pvalue = ks_2samp(a, b)
            assert statistic == expected.statistic, n
            if any("Exact calculation unsuccessful" in str(w.message)
                   for w in caught):
                # scipy's rounded 2P landed above 1, so it switched to
                # the asymptotic formula
                assert pvalue == 1.0 and expected.pvalue > 0.9999, n
                failed += 1
            else:
                assert pvalue == expected.pvalue, n
                pvalues.append(pvalue)
        return pvalues, failed

    def test_matches_scipy_below_400(self):
        rng = np.random.default_rng(20)
        pvalues, failed = self.compare(rng, rng.integers(1, 400, 2000))
        assert failed > 0
        assert min(pvalues) < 1e-6 and pvalues.count(1.0) > 0

    def test_matches_scipy_up_to_10000(self):
        rng = np.random.default_rng(21)
        sizes = np.exp(rng.uniform(np.log(400), np.log(10_000), 40))
        pvalues, _ = self.compare(rng, [10_000, *sizes.astype(int)])
        assert min(pvalues) < 1e-6 and len(pvalues) > 30

    @pytest.mark.parametrize("n", [10_001, 20_000])
    def test_stays_exact_above_10000(self, n):
        # scipy's default is asymptotic here
        rng = np.random.default_rng(n)
        a = rng.integers(0, 10, n) / 5
        b = np.minimum(rng.integers(0, 10, n) + (rng.random(n) < 0.02),
                       9) / 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = stats.ks_2samp(a, b, method="exact")
        assert 0.0 < expected.pvalue < 1.0
        assert ks_2samp(a, b) == (expected.statistic, expected.pvalue)

    @pytest.mark.parametrize("a, b", [([], []), ([0.2], []),
                                      ([0.2, 0.4], [0.2])])
    def test_unequal_or_empty_samples_refused(self, a, b):
        with pytest.raises(ValidationError, match="one size"):
            ks_2samp(a, b)


class TestConvergenceCheckValidation:
    """Malformed initial signals and counts fail before the first period
    is played."""

    @staticmethod
    def case(case):
        """The config and initial signals of ``case``."""
        # three actions, so that a transposed (2, M) signal has the wrong
        # shape rather than a square one
        config, (a, b) = convergence_demo_config(action_count=3)
        return config, {
            "inverted": (a, b[:, ::-1]),
            "three_arms": (a, b, a),
            "one_arm": (a,),
            "transposed": (a, b.T),
            "one_action_short": (a[:-1], b),
            "infinite_upper": (a, np.column_stack([b[:, 0],
                                                   [0.5, np.inf, 0.6]])),
            "negative_lower": (np.column_stack([[0.3, -0.1, 0.4], a[:, 1]]),
                               b),
        }[case]

    MESSAGES = {
        "inverted": "lower", "three_arms": "two initial signals",
        "one_arm": "two initial signals", "transposed": "shape",
        "one_action_short": "shape", "infinite_upper": "finite",
        "negative_lower": "finite"}

    @pytest.mark.parametrize("case", list(MESSAGES))
    def test_rejected_before_period_one(self, case, monkeypatch):
        config, inits = self.case(case)
        played, play = [], abstract_model._play
        monkeypatch.setattr(abstract_model, "_play",
                            lambda *args: played.append(1) or play(*args))
        with pytest.raises(ValidationError, match=self.MESSAGES[case]):
            convergence_check(config, trajectories=4, horizon=3,
                              initial_signals=inits, seed=0)
        assert played == []

    @pytest.mark.parametrize("counts", [
        dict(trajectories=2.5, horizon=3), dict(trajectories=4, horizon=2.5),
        dict(trajectories=4.0, horizon=3), dict(trajectories=0, horizon=3)])
    def test_counts_must_be_whole_and_positive(self, counts, monkeypatch):
        config, inits = convergence_demo_config(action_count=3)
        played = []
        monkeypatch.setattr(abstract_model, "_play",
                            lambda *args: played.append(1))
        with pytest.raises(ValidationError):
            convergence_check(config, initial_signals=inits, seed=0,
                              **counts)
        assert played == []

    def test_negative_zero_endpoints_accepted(self):
        config, (a, b) = convergence_demo_config(action_count=3)
        a, b = a.copy(), b.copy()
        a[0, 0] = b[1, 0] = b[1, 1] = -0.0
        report = convergence_check(config, trajectories=4, horizon=3,
                                   initial_signals=(a, b), seed=0)
        assert len(report.distance_series) == 4

    def test_numpy_integer_counts_accepted(self):
        config, inits = convergence_demo_config(action_count=3)
        report = convergence_check(config, trajectories=np.int64(4),
                                   horizon=np.int32(3),
                                   initial_signals=inits, seed=0)
        assert len(report.distance_series) == 4
        assert len(report.sample_a) == 4


class TestConvergenceCheckAgainstStepColumn:
    """``convergence_check`` replayed trajectory by trajectory through
    ``tests/oracle.py``'s one-column stepper, with its draws taken from
    the same stream in the same order: each period's atom uniforms, then
    its tie uniforms."""

    TRAJECTORIES, HORIZON, SEED = 12, 60, 4

    def replay(self, config, inits):
        k, seed = self.TRAJECTORIES, self.SEED
        atoms = config.renewal.atoms
        atom_probs = np.cumsum([d for _, d in atoms])
        rng = derived_rng(seed, "convergence")
        draws = []
        for _ in range(self.HORIZON):
            picks = np.searchsorted(atom_probs, rng.random(k), side="right")
            ties = rng.random((k, len(config.types)))
            draws.append((np.minimum(picks, len(atoms) - 1), ties))
        samples, first_signals = [], []
        for init in inits:
            arm = dataclasses.replace(config, initial_signal=init)
            histories = [fresh_history(arm) for _ in range(k)]
            signals = []
            for picks, ties in draws:
                periods = [step_column(history, arm, atoms[pick][0].weights,
                                       tie)
                           for history, pick, tie
                           in zip(histories, picks, ties)]
                signals.append(periods[0][0])
            signals.append(emit_signal(histories[0]))
            samples.append(np.array([counts[0] for _, counts, _ in periods])
                           / config.agent_count)
            first_signals.append(signals)
        distances = [float(np.abs(a[:, 0] - b[:, 0]).sum()
                           + np.abs(a[:, 1] - b[:, 1]).sum())
                     for a, b in zip(*first_signals)]
        return samples, np.array(distances)

    # the check tie-picks over 2 x 12 columns a plane at a time, the
    # stepper type by type in Python floats
    @pytest.mark.parametrize("action_count", [2, 3, 8])
    def test_replay_is_exact(self, action_count):
        config, inits = convergence_demo_config(action_count=action_count)
        report = convergence_check(config, trajectories=self.TRAJECTORIES,
                                   horizon=self.HORIZON,
                                   initial_signals=inits, seed=self.SEED)
        (sample_a, sample_b), distances = self.replay(config, inits)
        assert np.array_equal(report.sample_a, sample_a)
        assert np.array_equal(report.sample_b, sample_b)
        assert np.array_equal(report.distance_series, distances)

    def test_eight_actions_do_not_collapse(self):
        # unlike two actions, where every trajectory ends on action 0,
        # the distance stays at 0.2 and the end shares vary
        config, inits = convergence_demo_config(action_count=8)
        report = convergence_check(config, trajectories=self.TRAJECTORIES,
                                   horizon=self.HORIZON,
                                   initial_signals=inits, seed=self.SEED)
        assert report.distance_series[-1] == pytest.approx(0.2)
        assert len(set(report.sample_a)) > 1


class TestConvergenceCheckAgainstFullBatch:
    """``convergence_check`` drops arm b from its batch once every pair's
    arms have coalesced; ``tests/oracle.py``'s full batch plays both arms
    of every pair to the horizon.  Every report field must have the same
    bytes, under every scheme."""

    TRAJECTORIES = 50

    @staticmethod
    def perturbed_pair(m, seed):
        """Arm a on endpoints of 0.0, -0.0 and a few costs; arm b with
        some zeros' signs flipped and some endpoints moved inwards, so
        that pairs coalesce at many periods, or never."""
        rng = np.random.default_rng(seed)
        a = np.sort(rng.choice([0.0, -0.0, 0.2, 0.4, 0.6, 0.9],
                               size=(m, 2)), axis=1)
        b = a.copy()
        moved = rng.random((m, 2)) < 0.5
        b[moved & (a == 0.0)] *= -1.0
        lo = moved[:, 0] & (a[:, 0] > 0.0)
        b[lo, 0] = np.minimum(a[lo, 0] + 0.05, a[lo, 1])
        hi = moved[:, 1] & (a[:, 1] > 0.0)
        b[hi, 1] = np.maximum(a[hi, 1] - 0.05, b[hi, 0])
        return a, b

    @staticmethod
    def same_bytes(m, trajectories, horizon, inits, seed, renewal=None,
                   scheme=None):
        """Assert the two checks agree; the full batch's coalescence
        period of every pair.  ``renewal`` and ``scheme`` replace the
        demo's."""
        config, _ = convergence_demo_config(action_count=m)
        if renewal is not None:
            config = dataclasses.replace(config, renewal=renewal)
        if scheme is not None:
            config = dataclasses.replace(config, scheme=scheme)
        report = convergence_check(config, trajectories, horizon, inits,
                                   seed)
        with warnings.catch_warnings():
            # where scipy's exact p-value fails on a few trajectories,
            # its fallback gives 1.0, as ``ks_2samp`` does
            warnings.simplefilter("ignore", RuntimeWarning)
            expected, coalesced_at = convergence_check_full_batch(
                config, trajectories, horizon, inits, seed)
        for f in dataclasses.fields(report):
            got, want = (np.ascontiguousarray(getattr(r, f.name),
                                              dtype=float).tobytes()
                         for r in (report, expected))
            assert got == want, f.name
        return coalesced_at

    # under a windowed scheme equal signals need not mean equal rings,
    # nor a history that no longer reads its initial signal, so a
    # pair's signals can meet and part again
    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("scheme", [
        extreme_scheme(1), extreme_scheme(2), extreme_scheme(5),
        subinterval_scheme(3, 0.5), now_scheme(), mean_scheme(),
        full_extreme_scheme()], ids=lambda s: s.label())
    def test_every_scheme(self, scheme, m):
        for seed in range(5):
            for trajectories in (1, 2, 5):
                self.same_bytes(m, trajectories, 40,
                                self.perturbed_pair(m, seed), seed,
                                scheme=scheme)

    def test_equal_signals_with_unequal_rings(self):
        # from t = 4 the pair's signals are equal every third period but
        # its rings never are, so the signals part again each time: the
        # pair never coalesces and arm b must stay in the batch
        inits = self.perturbed_pair(2, 4)
        assert np.array_equal(inits[0], [[0.6, 0.9], [0.4, 0.9]])
        assert np.array_equal(inits[1], [[0.6, 0.85], [0.4, 0.85]])
        config, _ = convergence_demo_config(action_count=2)
        expected, coalesced_at = convergence_check_full_batch(
            dataclasses.replace(config, scheme=extreme_scheme(2)), 1, 40,
            inits, 4)
        assert coalesced_at.tolist() == [-1]
        assert expected.distance_series[4:].tolist() == [0, 2, 2] * 12 + [0]
        self.same_bytes(2, 1, 40, inits, 4, scheme=extreme_scheme(2))

    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_with_signed_zeros(self, m, seed):
        self.same_bytes(m, self.TRAJECTORIES, 60,
                        self.perturbed_pair(m, seed), seed)

    def test_random_pairs_coalesce_at_many_periods(self):
        # so that arm b stays in the batch to the horizon while pairs
        # coalesce at many periods
        coalesced_at = self.same_bytes(8, self.TRAJECTORIES, 60,
                                       self.perturbed_pair(8, 0), 0)
        assert len(set(coalesced_at[coalesced_at > 0])) > 10
        assert (coalesced_at < 0).any()

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_equal_arms_coalesce_at_once(self, m):
        # at the first period the rule allows: one recorded period, the
        # window of ``full_extreme``
        a, _ = self.perturbed_pair(m, 1)
        b = np.where(a == 0.0, -a, a)       # equal under ``==``
        coalesced_at = self.same_bytes(m, self.TRAJECTORIES, 30, (a, b), 1)
        assert (coalesced_at == 1).all()

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_first_coalescence_at_the_last_signal(self, m):
        config, _ = convergence_demo_config(action_count=m)
        inits = self.perturbed_pair(m, 0)
        _, coalesced_at = convergence_check_full_batch(
            config, self.TRAJECTORIES, 60, inits, 0)
        horizon = int(coalesced_at.max())
        assert horizon > 0
        coalesced_at = self.same_bytes(m, self.TRAJECTORIES, horizon,
                                       inits, 0)
        assert coalesced_at.max() == horizon

    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_uniform_perturbation_renewal(self, m, seed):
        # the coalescence rule rests on shared draws, not on the renewal
        # law: under a continuous one every pair coalesces at M = 2 and
        # 3, and none does at M = 8
        inits = convergence_demo_config(action_count=m)[1]
        coalesced_at = self.same_bytes(m, 200, 60, inits, seed,
                                       uniform_perturbation(2, 0.2))
        assert (coalesced_at >= 0).all() if m < 8 else (coalesced_at < 0).all()

    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("pair", ["demo", "perturbed"])
    def test_one_trajectory(self, m, pair):
        inits = (convergence_demo_config(action_count=m)[1]
                 if pair == "demo" else self.perturbed_pair(m, 2))
        self.same_bytes(m, 1, 60, inits, 3)


class TestCoalescedPairsLeaveTheBatch:
    """Arm b leaves the batch whole at the first period in which every
    pair's signals are equal and ``CostHistory.coalesced`` finds the
    arms' states equal; the check compares states at no other period."""

    @staticmethod
    def comparisons(monkeypatch, config, inits, trajectories, horizon,
                    seed):
        """The period of every ``coalesced`` call, and of those that
        kept arm a alone."""
        calls, kept, coalesced = [], [], CostHistory.coalesced

        def counted(self, *columns):
            calls.append(self.periods)
            part = coalesced(self, *columns)
            if part is not None:
                kept.append(self.periods)
            return part

        monkeypatch.setattr(CostHistory, "coalesced", counted)
        convergence_check(config, trajectories, horizon, inits, seed)
        return calls, kept

    def test_never_without_coalescence(self, monkeypatch):
        config, inits = convergence_demo_config(agent_count=20,
                                                action_count=8)
        assert self.comparisons(monkeypatch, config, inits, 200, 200,
                                1) == ([], [])

    @pytest.mark.parametrize("m, trajectories, horizon, seed, period", [
        (3, 500, 200, 5, 13), (2, 5000, 100, 1, 2)])
    def test_once_when_the_last_pair_coalesces(self, monkeypatch, m,
                                               trajectories, horizon, seed,
                                               period):
        config, inits = convergence_demo_config(agent_count=20,
                                                action_count=m)
        calls, kept = self.comparisons(monkeypatch, config, inits,
                                       trajectories, horizon, seed)
        _, coalesced_at = convergence_check_full_batch(
            config, trajectories, horizon, inits, seed)
        assert (coalesced_at >= 0).all()
        assert coalesced_at.max() == period
        assert calls == kept == [period]

    def test_equal_signals_from_unequal_rings_keep_arm_b(self, monkeypatch):
        # the pair of ``test_equal_signals_with_unequal_rings``
        config, _ = convergence_demo_config(action_count=2)
        config = dataclasses.replace(config, scheme=extreme_scheme(2))
        inits = TestConvergenceCheckAgainstFullBatch.perturbed_pair(2, 4)
        calls, kept = self.comparisons(monkeypatch, config, inits, 1, 40, 4)
        assert calls[0] == 4 and 4 not in kept


class TestAbstractCsv:
    def test_header_and_round_trip(self):
        config = two_action_config(scheme=now_scheme())
        result = run_abstract(config, horizon=4)
        rows = list(csv.reader(io.StringIO(records_to_abstract_csv(result))))
        assert rows[0] == ["t", "n_1", "n_2", "ulo_1", "ulo_2",
                           "uhi_1", "uhi_2", "social_cost"]
        assert len(rows) == 5
        table = np.array(rows[1:], dtype=float)
        assert [int(row[0]) for row in rows[1:]] == result.t.tolist()
        assert table[:, 1:3].tolist() == result.counts.tolist()
        assert table[:, 3:5].tolist() == result.signal[:, :, 0].tolist()
        assert table[:, 5:7].tolist() == result.signal[:, :, 1].tolist()
        assert table[:, 7].tolist() == result.social_cost.tolist()

    def test_network_result_refused(self):
        result = run(RunConfig(scheme=now_scheme(), horizon=2, seed=0,
                               instance="diamond"))
        with pytest.raises(ValidationError, match="must be an? AbstractResult"):
            records_to_abstract_csv(result)

    def test_empty_run_refused(self):
        with pytest.raises(ValidationError,
                           match="cannot serialize an empty run"):
            records_to_abstract_csv(AbstractResult.empty(0, 2))
