import numpy as np
import pytest
from numpy.testing import assert_allclose

from segopt.numerics import Rng, as_f64, require_finite, softmax


class TestSoftmax:
    def test_uniform_logits(self):
        assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), rtol=0, atol=0)

    def test_two_class_log_ratio(self):
        out = softmax(np.array([np.log(2.0), 0.0]))
        assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 6))
        assert_allclose(softmax(z + 123.456), softmax(z), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        out = softmax(rng.normal(size=(10, 4)) * 50)
        assert_allclose(out.sum(axis=1), np.ones(10), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax(np.zeros((0, 4)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            softmax(np.array([1.0, np.nan]))


class TestRng:
    def test_deterministic(self):
        a = Rng(42).uniform(size=100)
        b = Rng(42).uniform(size=100)
        assert (a == b).all()

    def test_seeds_diverge(self):
        a = Rng(42).uniform(size=100)
        b = Rng(43).uniform(size=100)
        assert not (a == b).all()

    def test_uniform_range_and_mean(self):
        u = Rng(0).uniform(size=200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_scale_zero(self):
        assert (Rng(0).normal(size=10, scale=0.0) == 0.0).all()

    def test_permutation_is_permutation(self):
        p = Rng(5).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_integers_bounds(self):
        v = Rng(1).integers(2, 5, size=1000)
        assert v.min() >= 2 and v.max() <= 4


class TestValidation:
    def test_as_f64_copies_to_float(self):
        out = as_f64([1, 2, 3])
        assert out.dtype == np.float64

    def test_require_finite_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            require_finite(np.array([1.0, np.inf]), "field")

    def test_require_finite_names_field(self):
        with pytest.raises(ValueError, match="field"):
            require_finite(np.array([np.nan]), "field")
