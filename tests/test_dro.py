import numpy as np
import pytest
from numpy.testing import assert_allclose

from segopt.dro import DEFAULT_BETA, HardnessWeightedSampler


class TestConstruction:
    def test_equal_losses_give_uniform(self):
        s = HardnessWeightedSampler(n=4, beta=100.0)
        assert_allclose(s.probabilities(), np.full(4, 0.25), atol=1e-15)

    def test_single_sample(self):
        s = HardnessWeightedSampler(n=1, beta=5.0)
        assert_allclose(s.probabilities(), [1.0], atol=0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            HardnessWeightedSampler(n=0)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            HardnessWeightedSampler(n=4, beta=0.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            HardnessWeightedSampler(n=4, beta=-1.0)

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be positive"):
            HardnessWeightedSampler(n=4, beta=beta)

    def test_default_beta(self):
        assert HardnessWeightedSampler(n=2).beta == DEFAULT_BETA == 100.0


class TestProbabilities:
    def test_two_sample_hand_value(self):
        s = HardnessWeightedSampler(n=2, beta=100.0)
        s.update_loss(0, 0.01)
        s.update_loss(1, 0.02)
        e = np.exp(1.0)
        assert_allclose(s.probabilities(), [1 / (1 + e), e / (1 + e)], atol=1e-12)

    def test_large_beta_concentrates_on_hardest(self):
        s = HardnessWeightedSampler(n=3, beta=1e6)
        s.update_loss(0, 0.10)
        s.update_loss(1, 0.11)
        s.update_loss(2, 0.09)
        assert s.probabilities()[1] > 0.999

    def test_tiny_beta_degenerates_to_uniform(self):
        s = HardnessWeightedSampler(n=5, beta=1e-9)
        for i, loss in enumerate([0.1, 0.9, 0.4, 0.7, 0.2]):
            s.update_loss(i, loss)
        assert np.abs(s.probabilities() - 0.2).max() < 1e-6

    def test_shift_invariance(self):
        a = HardnessWeightedSampler(n=4, beta=100.0)
        b = HardnessWeightedSampler(n=4, beta=100.0)
        losses = [0.3, 0.1, 0.25, 0.05]
        for i, loss in enumerate(losses):
            a.update_loss(i, loss)
            b.update_loss(i, loss + 7.5)
        assert np.abs(a.probabilities() - b.probabilities()).max() < 1e-12

    def test_monotone_in_loss(self):
        s = HardnessWeightedSampler(n=4, beta=10.0)
        before = s.probabilities()[2]
        s.update_loss(2, 1.5)
        assert s.probabilities()[2] > before

    def test_simplex(self):
        s = HardnessWeightedSampler(n=7, beta=100.0, seed=3)
        for i in range(7):
            s.update_loss(i, float(i) / 7.0)
        q = s.probabilities()
        assert (q >= 0).all()
        assert abs(q.sum() - 1.0) < 1e-12

    def test_no_overflow_at_high_beta_and_loss(self):
        s = HardnessWeightedSampler(n=2, beta=100.0)
        s.update_loss(0, 3.0)
        s.update_loss(1, 2.9)
        assert np.isfinite(s.probabilities()).all()


class TestUpdateLoss:
    def test_reflected_exactly(self):
        s = HardnessWeightedSampler(n=3, beta=1.0)
        s.update_loss(1, 0.42)
        assert s.loss_estimates[1] == 0.42
        assert s.initialized[1]
        assert not s.initialized[0]

    def test_last_write_wins(self):
        s = HardnessWeightedSampler(n=2, beta=1.0)
        s.update_loss(0, 0.9)
        s.update_loss(0, 0.1)
        assert s.loss_estimates[0] == 0.1

    def test_equalizing_restores_uniform(self):
        s = HardnessWeightedSampler(n=4, beta=50.0)
        for i, loss in enumerate([0.1, 0.2, 0.3, 0.4]):
            s.update_loss(i, loss)
        for i in range(4):
            s.update_loss(i, 0.5)
        assert_allclose(s.probabilities(), np.full(4, 0.25), atol=1e-15)

    def test_index_out_of_range(self):
        s = HardnessWeightedSampler(n=3)
        with pytest.raises(ValueError, match="out of range"):
            s.update_loss(3, 0.5)

    def test_nan_loss_rejected(self):
        s = HardnessWeightedSampler(n=3)
        with pytest.raises(ValueError, match="not finite"):
            s.update_loss(0, float("nan"))


class TestSampling:
    def test_single_sample_always_zero(self):
        s = HardnessWeightedSampler(n=1, seed=11)
        assert (s.sample_batch(100) == 0).all()

    def test_uniform_frequencies(self):
        s = HardnessWeightedSampler(n=4, beta=100.0, seed=0)
        draws = s.sample_batch(100_000)
        freq = np.bincount(draws, minlength=4) / draws.size
        assert np.abs(freq - 0.25).max() < 0.01

    def test_two_sample_frequencies_match_law(self):
        s = HardnessWeightedSampler(n=2, beta=100.0, seed=1)
        s.update_loss(0, 0.01)
        s.update_loss(1, 0.02)
        draws = s.sample_batch(100_000)
        freq = np.bincount(draws, minlength=2) / draws.size
        e = np.exp(1.0)
        assert np.abs(freq - np.array([1 / (1 + e), e / (1 + e)])).max() < 0.01

    def test_l1_convergence_general_state(self):
        s = HardnessWeightedSampler(n=10, beta=8.0, seed=5)
        rng = np.random.default_rng(2)
        for i in range(10):
            s.update_loss(i, float(rng.uniform()))
        q = s.probabilities()
        draws = s.sample_batch(100_000)
        freq = np.bincount(draws, minlength=10) / draws.size
        assert np.abs(freq - q).sum() < 0.02

    def test_indices_in_range(self):
        s = HardnessWeightedSampler(n=6, seed=7)
        draws = s.sample_batch(5000)
        assert draws.min() >= 0 and draws.max() <= 5

    def test_deterministic_given_seed(self):
        a = HardnessWeightedSampler(n=5, seed=123).sample_batch(1000)
        b = HardnessWeightedSampler(n=5, seed=123).sample_batch(1000)
        assert (a == b).all()

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            HardnessWeightedSampler(n=3).sample_batch(0)


class TestEntropy:
    def test_uniform_is_log_n(self):
        s = HardnessWeightedSampler(n=8)
        assert_allclose(s.entropy(), np.log(8.0), atol=1e-12)

    def test_concentration_lowers_entropy(self):
        s = HardnessWeightedSampler(n=8, beta=1e6)
        s.update_loss(0, 2.0)
        assert s.entropy() < 1e-3
