"""Risk-type sets, population profiles, and the i.i.d. renewal process."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from intervalsig.population import (
    PopulationProfile,
    RenewalProcess,
    TypeSet,
    ValidationError,
    derived_rng,
    finite_support,
    sample_profile,
    uniform_perturbation,
    uniform_type_set,
)


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

    def test_singleton_custom_set_allowed(self):
        assert TypeSet((0.5,)).omegas == (0.5,)

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

    @pytest.mark.parametrize("kwargs", [
        dict(kind="bogus", type_count=3, epsilon=0.1),
        dict(kind="uniform_perturbation"),
        dict(kind="uniform_perturbation", type_count=3),
        dict(kind="uniform_perturbation", epsilon=0.1),
        dict(kind="finite_support"),
        dict(kind="uniform_perturbation", type_count=1, epsilon=0.0,
             atoms=((PopulationProfile((1.0,)), 1.0),)),
        dict(kind="finite_support", type_count=1,
             atoms=((PopulationProfile((1.0,)), 1.0),)),
        dict(kind="finite_support", epsilon=0.0,
             atoms=((PopulationProfile((1.0,)), 1.0),)),
    ], ids=["unknown_kind", "perturbation_bare", "no_epsilon",
            "no_type_count", "support_bare", "perturbation_with_atoms",
            "support_with_type_count", "support_with_epsilon"])
    def test_checked_at_construction(self, kwargs):
        with pytest.raises(ValidationError):
            RenewalProcess(**kwargs)

    def test_direct_construction_equals_factory(self):
        eta = PopulationProfile((1.0,))
        assert RenewalProcess("uniform_perturbation", type_count=5,
                              epsilon=0.15) == uniform_perturbation(5, 0.15)
        assert RenewalProcess("finite_support", atoms=[(eta, 1)]) == \
            finite_support([(eta, 1.0)])


class TestSampleProfile:
    def test_degenerate_epsilon_zero(self):
        proc = uniform_perturbation(5, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_profile(proc, rng).weights == pytest.approx(
                (0.2,) * 5)

    def test_single_atom_always_returned(self):
        eta = PopulationProfile((0.3, 0.7))
        proc = finite_support([(eta, 1.0)])
        rng = np.random.default_rng(0)
        assert all(sample_profile(proc, rng) == eta for _ in range(20))

    def test_jittered_weights_respect_bounds(self):
        proc = uniform_perturbation(5, 0.15)
        rng = np.random.default_rng(7)
        for _ in range(2000):
            w = sample_profile(proc, rng).weights
            assert all(0.05 <= x <= 0.35 for x in w[:4])
            assert w[4] >= 0.0
            assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_jittered_weight_means_match_rejection_conditioning(self):
        # Rejecting negative remainders conditions the first four weights
        # on their sum staying below 1; the exact conditional mean is
        # 0.1895390... (a 0.0105 shift off the nominal 0.2).
        proc = uniform_perturbation(5, 0.15)
        rng = np.random.default_rng(123)
        sums = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            sums += sample_profile(proc, rng).weights
        means = sums / draws
        assert np.all(np.abs(means[:4] - 0.1895390) <= 0.002)
        assert abs(means[4] - (1.0 - 4 * 0.1895390)) <= 0.004

    def test_degenerate_singleton_type(self):
        proc = uniform_perturbation(1, 0.0)
        rng = np.random.default_rng(0)
        assert sample_profile(proc, rng).weights == (1.0,)

    def test_finite_support_frequencies(self):
        eta1 = PopulationProfile((0.8, 0.2))
        eta2 = PopulationProfile((0.2, 0.8))
        eta3 = PopulationProfile((0.5, 0.5))
        proc = finite_support([(eta1, 0.3), (eta2, 0.2), (eta3, 0.5)])
        rng = np.random.default_rng(99)
        draws = 100_000
        counts = {id(eta1): 0, id(eta2): 0, id(eta3): 0}
        for _ in range(draws):
            counts[id(sample_profile(proc, rng))] += 1
        observed = [counts[id(eta1)], counts[id(eta2)], counts[id(eta3)]]
        expected = [0.3 * draws, 0.2 * draws, 0.5 * draws]
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_every_sample_is_a_probability_vector(self, k, data):
        eps = data.draw(st.floats(0, 1.0 / k, exclude_max=True))
        proc = uniform_perturbation(k, eps)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        w = np.array(sample_profile(proc, rng).weights)
        assert w.shape == (k,)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestDeterminism:
    def test_same_seed_reproduces_sequence(self):
        proc = uniform_perturbation(5, 0.15)
        seq1 = [sample_profile(proc, derived_rng(42, "population")).weights
                for _ in range(1)]
        a = derived_rng(42, "population")
        b = derived_rng(42, "population")
        for _ in range(200):
            assert sample_profile(proc, a).weights == sample_profile(
                proc, b).weights

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
