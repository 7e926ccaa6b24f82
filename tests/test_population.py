"""Risk-type sets, population profiles, and the i.i.d. renewal process."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from intervalsig.population import (
    FiniteSupport,
    PopulationProfile,
    RenewalProcess,
    TypeSet,
    UniformPerturbation,
    ValidationError,
    derived_rng,
    finite_support,
    sample_profile,
    uniform_perturbation,
    uniform_type_set,
)

from .oracle import sample_period


class TestTypeSet:
    def test_five_types(self):
        assert uniform_type_set(5).omegas == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_two_types(self):
        assert uniform_type_set(2).omegas == (0.0, 1.0)

    def test_three_types(self):
        assert uniform_type_set(3).omegas == (0.0, 0.5, 1.0)

    def test_count_below_two_rejected(self):
        with pytest.raises(ValidationError):
            uniform_type_set(1)

    def test_fractional_count_rejected(self):
        # used to fail in ``range`` with a bare TypeError
        with pytest.raises(ValidationError,
                           match="type count must be an integer, got 2.5"):
            uniform_type_set(2.5)

    @pytest.mark.parametrize("omegas", [("0.25", "0.5"), (False, True),
                                        (0.0, None)],
                             ids=["strings", "bools", "none"])
    def test_weights_must_be_real_numbers(self, omegas):
        # a string used to be parsed and a bool read as 0 or 1
        with pytest.raises(ValidationError,
                           match="risk weight must be a real number"):
            TypeSet(omegas)

    def test_numpy_weights_stored_as_floats(self):
        omegas = TypeSet((np.float32(0.5), np.int64(1))).omegas
        assert omegas == (0.5, 1.0) and all(type(w) is float for w in omegas)

    def test_singleton_custom_set_allowed(self):
        assert TypeSet((0.5,)).omegas == (0.5,)

    def test_empty_set_refused(self):
        with pytest.raises(ValidationError, match="type set cannot be empty"):
            TypeSet(())

    def test_must_be_strictly_increasing_within_unit_interval(self):
        with pytest.raises(ValidationError):
            TypeSet((0.5, 0.5))
        with pytest.raises(ValidationError):
            TypeSet((0.2, 1.2))
        with pytest.raises(ValidationError):
            TypeSet((-0.1, 0.5))


class TestPopulationProfile:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            PopulationProfile((0.5, 0.4))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            PopulationProfile((1.5, -0.5))

    @pytest.mark.parametrize("weights", [(float("nan"), 1.0),
                                         (1.0, float("nan")),
                                         (float("nan"),)])
    def test_nan_weight_refused(self, weights):
        # the sum check alone lets NaN through: NaN compares false
        with pytest.raises(ValidationError, match="must be >= 0"):
            PopulationProfile(weights)

    @pytest.mark.parametrize("weights", [("0.5", "0.5"), (True, False),
                                         (1.0, None)],
                             ids=["strings", "bools", "none"])
    def test_weights_must_be_real_numbers(self, weights):
        # a string used to be parsed and a bool read as 0 or 1
        with pytest.raises(ValidationError,
                           match="profile weight must be a real number"):
            PopulationProfile(weights)

    def test_valid_profile(self):
        p = PopulationProfile((0.25, 0.75))
        assert p.weights == (0.25, 0.75)


class TestRenewalValidation:
    def test_epsilon_must_stay_below_reciprocal_type_count(self):
        with pytest.raises(ValidationError):
            uniform_perturbation(5, 0.21)
        with pytest.raises(ValidationError):
            uniform_perturbation(5, -0.01)
        uniform_perturbation(5, 0.15)

    def test_finite_support_probabilities(self):
        eta = PopulationProfile((1.0,))
        with pytest.raises(ValidationError):
            finite_support([(eta, 0.5), (eta, 0.6)])
        with pytest.raises(ValidationError):
            finite_support([(eta, 0.0), (eta, 1.0)])
        finite_support([(eta, 1.0)])

    @pytest.mark.parametrize("make", [
        lambda: UniformPerturbation(2.5, 0.1),
        lambda: FiniteSupport((((0.5, 0.5), 1.0),)),
        lambda: FiniteSupport(((PopulationProfile((1.0,)), 0.5),
                               (PopulationProfile((0.5, 0.5)), 0.5))),
        lambda: FiniteSupport(()),
    ], ids=["fractional_type_count", "atom_not_a_profile",
            "atoms_of_two_widths", "no_atoms"])
    def test_checked_at_construction(self, make):
        # the first three used to build and fail in ``sample_profile``,
        # with a TypeError, an AttributeError and numpy's ValueError
        with pytest.raises(ValidationError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: UniformPerturbation(2, "0.1"),
        lambda: UniformPerturbation(2, None),
        lambda: UniformPerturbation(2, False),
        lambda: FiniteSupport([(PopulationProfile((1.0,)), "x")]),
        lambda: FiniteSupport([(PopulationProfile((1.0,)), None)]),
        lambda: FiniteSupport([PopulationProfile((1.0,))]),
        lambda: FiniteSupport([(PopulationProfile((1.0,)), 1.0, 0.0)]),
    ], ids=["epsilon_string", "epsilon_none", "epsilon_bool",
            "probability_string", "probability_none", "atom_not_a_pair",
            "atom_of_three"])
    def test_wrong_types_are_validation_errors(self, make):
        # each used to escape as a bare TypeError or ValueError
        with pytest.raises(ValidationError):
            make()

    def test_numpy_numbers_stored_as_floats(self):
        eta = PopulationProfile((1.0,))
        assert type(uniform_perturbation(2, np.float32(0.25)).epsilon) \
            is float
        (_, probability), = finite_support([(eta, np.int64(1))]).atoms
        assert type(probability) is float and probability == 1.0

    def test_both_laws_are_renewal_processes_with_a_type_count(self):
        support = FiniteSupport([(PopulationProfile((0.2, 0.3, 0.5)), 1.0)])
        assert isinstance(support, RenewalProcess)
        assert isinstance(UniformPerturbation(4, 0.1), RenewalProcess)
        assert support.type_count == 3
        assert UniformPerturbation(4, 0.1).type_count == 4

    def test_bare_base_is_refused(self):
        # AbstractConfig would take it and fail later, reading its
        # missing type count
        with pytest.raises(ValidationError, match="UniformPerturbation"):
            RenewalProcess()

    @pytest.mark.parametrize("law", [
        UniformPerturbation(4, 0.1),
        FiniteSupport([(PopulationProfile((0.2, 0.8)), 1.0)])],
        ids=["uniform", "finite"])
    def test_laws_copy_and_pickle(self, law):
        for twin in (copy.deepcopy(law), pickle.loads(pickle.dumps(law))):
            assert type(twin) is type(law) and twin == law


class TestFiniteSupportArrays:
    """The weight matrix and running probabilities that ``FiniteSupport``
    derives once for ``sample_profile``."""

    ATOMS = ((PopulationProfile((0.8, 0.2)), 0.25),
             (PopulationProfile((0.5, 0.5)), 0.75))

    def test_derived_at_construction(self):
        support = FiniteSupport(self.ATOMS)
        assert support.weights.tolist() == [[0.8, 0.2], [0.5, 0.5]]
        assert support.cumulative.tolist() == [0.25, 1.0]

    def test_read_only(self):
        support = FiniteSupport(self.ATOMS)
        for array in (support.weights, support.cumulative):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_kept_out_of_equality_and_repr(self):
        a, b = FiniteSupport(self.ATOMS), FiniteSupport(list(self.ATOMS))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"FiniteSupport(atoms={a.atoms!r})"


class TestSampleProfile:
    def test_degenerate_epsilon_zero(self):
        proc = uniform_perturbation(5, 0.0)
        rng = np.random.default_rng(0)
        for row in sample_profile(proc, rng, 10):
            assert row == pytest.approx((0.2,) * 5)

    def test_single_atom_always_returned(self):
        eta = PopulationProfile((0.3, 0.7))
        proc = finite_support([(eta, 1.0)])
        rng = np.random.default_rng(0)
        assert all(tuple(row) == eta.weights
                   for row in sample_profile(proc, rng, 20))

    def test_jittered_weights_respect_bounds(self):
        proc = uniform_perturbation(5, 0.15)
        rng = np.random.default_rng(7)
        for w in sample_profile(proc, rng, 2000):
            assert all(0.05 <= x <= 0.35 for x in w[:4])
            assert w[4] >= 0.0
            assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_jittered_weight_means_match_rejection_conditioning(self):
        # Rejecting negative remainders conditions the first four weights
        # on their sum staying below 1; the exact conditional mean is
        # 0.1895390... (a 0.0105 shift off the nominal 0.2).
        proc = uniform_perturbation(5, 0.15)
        rng = np.random.default_rng(123)
        draws = 100_000
        means = sample_profile(proc, rng, draws).mean(axis=0)
        assert np.all(np.abs(means[:4] - 0.1895390) <= 0.002)
        assert abs(means[4] - (1.0 - 4 * 0.1895390)) <= 0.004

    def test_degenerate_singleton_type(self):
        proc = uniform_perturbation(1, 0.0)
        rng = np.random.default_rng(0)
        assert sample_profile(proc, rng, 1).tolist() == [[1.0]]

    def test_finite_support_frequencies(self):
        eta1 = PopulationProfile((0.8, 0.2))
        eta2 = PopulationProfile((0.2, 0.8))
        eta3 = PopulationProfile((0.5, 0.5))
        proc = finite_support([(eta1, 0.3), (eta2, 0.2), (eta3, 0.5)])
        rng = np.random.default_rng(99)
        draws = 100_000
        rows = sample_profile(proc, rng, draws)
        observed = [int((rows == eta.weights).all(axis=1).sum())
                    for eta in (eta1, eta2, eta3)]
        expected = [0.3 * draws, 0.2 * draws, 0.5 * draws]
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_every_sample_is_a_probability_vector(self, k, data):
        eps = data.draw(st.floats(0, 1.0 / k, exclude_max=True))
        proc = uniform_perturbation(k, eps)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        w = sample_profile(proc, rng, 1)[0]
        assert w.shape == (k,)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class Replay:
    """Stands in for a generator's ``random``, giving fixed uniforms in
    order, so that a draw can be steered onto an atom boundary."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def per_period(proc, rng, count):
    """``count`` rows drawn one period at a time by the reference."""
    return np.array([sample_period(proc, rng) for _ in range(count)])


class TestBlockDraws:
    """A block is the one-period draws in order, bit for bit, and leaves
    the stream where they leave it."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_perturbation_block_equals_per_period_draws(self, k, data):
        # K - 1 >= 8 covers numpy's unrolled pairwise sum
        eps = data.draw(st.floats(0.0, 1.0 / k, exclude_max=True)
                        | st.just(np.nextafter(1.0 / k, 0.0)))
        proc = uniform_perturbation(k, eps)
        seed = data.draw(st.integers(0, 2**32 - 1))
        count = data.draw(st.integers(0, 60))
        block_rng, period_rng = (np.random.default_rng(seed)
                                 for _ in range(2))
        block = sample_profile(proc, block_rng, count)
        assert block.shape == (count, k)
        assert block.tobytes() == per_period(proc, period_rng,
                                             count).reshape(count, k).tobytes()
        assert block_rng.random() == period_rng.random()

    @pytest.mark.parametrize("k, eps, rejected", [
        (5, 0.15, 0.130), (2, 0.4, 0.0), (3, 0.3, 0.099), (10, 0.09, 0.263)])
    def test_rejection_heavy_cases(self, k, eps, rejected):
        proc = uniform_perturbation(k, eps)
        for seed in range(4):
            block_rng = derived_rng(seed, "population")
            period_rng = derived_rng(seed, "population")
            block = sample_profile(proc, block_rng, 500)
            assert block.tobytes() == per_period(proc, period_rng,
                                                 500).tobytes()
            assert block_rng.random() == period_rng.random()
        # the share of attempts rejected, so that the top-ups do run
        head = np.random.default_rng(0).uniform(
            1.0 / k - eps, 1.0 / k + eps, size=(100_000, k - 1))
        assert (head.sum(axis=1) > 1.0).mean() == pytest.approx(
            rejected, abs=0.005)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=12),
           st.integers(1, 4), st.data())
    def test_finite_support_block_equals_per_period_draws(self, parts,
                                                          width, data):
        total = sum(parts)
        atoms = []
        for i, part in enumerate(parts):
            weights = np.zeros(width)
            weights[i % width] = 1.0
            atoms.append((PopulationProfile(tuple(weights)), part / total))
        proc = finite_support(atoms)
        cumulative = np.cumsum([d for _, d in proc.atoms])
        edges = [0.0, float(cumulative[-1]),
                 float(np.nextafter(cumulative[-1], 1.0)),
                 np.nextafter(1.0, 0.0)] + cumulative[:-1].tolist()
        u = data.draw(st.lists(st.sampled_from(edges)
                               | st.floats(0.0, 1.0, exclude_max=True),
                               max_size=30))
        block = sample_profile(proc, Replay(u), len(u))
        assert block.tobytes() == per_period(
            proc, Replay(u), len(u)).reshape(len(u), width).tobytes()
        seed = data.draw(st.integers(0, 2**32 - 1))
        block_rng, period_rng = (np.random.default_rng(seed)
                                 for _ in range(2))
        assert sample_profile(proc, block_rng, 25).tobytes() == \
            per_period(proc, period_rng, 25).tobytes()
        assert block_rng.random() == period_rng.random()

    def test_last_atom_covers_a_total_below_one(self):
        # ten atoms of 0.1 add up to 0.9999999999999999 in floats
        atoms = [(PopulationProfile(tuple(np.eye(10)[i])), 0.1)
                 for i in range(10)]
        proc = finite_support(atoms)
        top = np.cumsum([0.1] * 10)[-1]
        assert top < 1.0
        u = [top, np.nextafter(1.0, 0.0), 0.05]
        block = sample_profile(proc, Replay(u), 3)
        assert block.tobytes() == per_period(proc, Replay(u), 3).tobytes()
        assert block.argmax(axis=1).tolist() == [9, 9, 0]

    @pytest.mark.parametrize("probabilities", [
        (0.5, 0.5), (0.2, 0.3, 0.5), (0.1,) * 10, (0.7, 0.1, 0.1, 0.1)])
    def test_finite_support_picks_are_searchsorted_clamped(self,
                                                           probabilities):
        # uniforms on, just below and just above every running
        # probability; ten atoms of 0.1 add up to below the largest
        n = len(probabilities)
        proc = finite_support([(PopulationProfile(tuple(np.eye(n)[i])), d)
                               for i, d in enumerate(probabilities)])
        cumulative = np.cumsum(probabilities)
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cumulative,
                            np.nextafter(cumulative, 0.0),
                            np.nextafter(cumulative, 1.0)])
        u = u[u < 1.0]
        picks = np.minimum(np.searchsorted(cumulative, u, side="right"),
                           n - 1)
        block = sample_profile(proc, Replay(u), len(u))
        assert block.argmax(axis=1).tolist() == picks.tolist()

    def test_count_is_a_whole_number(self):
        proc = uniform_perturbation(5, 0.15)
        rng = np.random.default_rng(0)
        assert sample_profile(proc, rng, 0).shape == (0, 5)
        with pytest.raises(ValidationError, match="must be an integer"):
            sample_profile(proc, rng, 2.0)
        with pytest.raises(ValidationError):
            sample_profile(proc, rng, -1)


class TestDeterminism:
    def test_same_seed_reproduces_sequence(self):
        proc = uniform_perturbation(5, 0.15)
        a = derived_rng(42, "population")
        b = derived_rng(42, "population")
        assert np.array_equal(sample_profile(proc, a, 200),
                              sample_profile(proc, b, 200))

    def test_distinct_labels_give_distinct_streams(self):
        a = derived_rng(42, "population")
        b = derived_rng(42, "tie-break")
        assert a.random() != b.random()

    def test_indexed_substreams_are_distinct(self):
        a = derived_rng(42, "trajectory", 0)
        b = derived_rng(42, "trajectory", 1)
        assert a.random() != b.random()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            derived_rng(-1, "population")

    @pytest.mark.parametrize("seed", [1.7, 1.0, np.float64(1.0), "1", None],
                             ids=["1.7", "float", "numpy_float", "str",
                                  "None"])
    def test_non_integral_seed_rejected(self, seed):
        # 1.7 used to run seed 1's stream
        with pytest.raises(ValidationError, match="seed must be an integer"):
            derived_rng(seed, "population")

    def test_numpy_integer_seed_is_that_seed(self):
        assert derived_rng(np.int64(7), "population").random() == \
            derived_rng(7, "population").random()
