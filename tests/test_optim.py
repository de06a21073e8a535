import numpy as np
import pytest
from numpy.testing import assert_allclose

from segopt.optim import (
    OPTIMIZER_KINDS,
    Adam,
    Lookahead,
    PolySchedule,
    RAdam,
    SgdNesterov,
    make_optimizer,
    ranger,
)


def run_quadratic(opt, lr, x0=1.0, steps=100):
    """Minimize f(x) = x^2 (gradient 2x) and return the final iterate."""
    x = np.array([float(x0)])
    for _ in range(steps):
        x = opt.step(x, 2.0 * x, lr)
    return x


class TestPolySchedule:
    def test_endpoints(self):
        s = PolySchedule(initial_lr=0.01, t_max=1000)
        assert s.at(0) == 0.01
        assert s.at(1000) == 0.0

    def test_midpoint(self):
        s = PolySchedule(initial_lr=0.01, t_max=1000)
        assert_allclose(s.at(500), 0.01 * 0.5**0.9, atol=1e-12)

    def test_nonincreasing(self):
        s = PolySchedule(initial_lr=0.5, t_max=200)
        values = [s.at(t) for t in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_epoch_past_end_rejected(self):
        s = PolySchedule(initial_lr=0.01, t_max=10)
        with pytest.raises(ValueError, match="outside"):
            s.at(11)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            PolySchedule(initial_lr=0.01, t_max=10).at(-1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            PolySchedule(initial_lr=0.0, t_max=10)

    @pytest.mark.parametrize("lr", [np.inf, np.nan])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="positive"):
            PolySchedule(initial_lr=lr, t_max=10)


class TestSgdNesterov:
    def test_zero_gradient_no_move(self):
        opt = SgdNesterov()
        x = opt.step(np.array([1.0, -2.0]), np.zeros(2), 0.1)
        assert (x == np.array([1.0, -2.0])).all()

    def test_first_step_hand_value(self):
        opt = SgdNesterov()
        opt.momentum = 0.0
        x = opt.step(np.array([1.0]), np.array([2.0]), 0.1)
        assert_allclose(x, [0.8], atol=0)

    def test_quadratic_convergence_with_heavy_momentum(self):
        # momentum 0.99 contracts by only ~1.5% per step on this quadratic,
        # so driving |x| below 1e-3 takes on the order of 500 steps
        opt = SgdNesterov()
        assert opt.momentum == 0.99
        x = run_quadratic(opt, 0.01, steps=500)
        assert abs(x[0]) < 1e-3

    @pytest.mark.parametrize("lr", [np.inf, np.nan])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="positive"):
            SgdNesterov().step(np.ones(2), np.ones(2), lr)

    def test_length_mismatch(self):
        opt = SgdNesterov()
        with pytest.raises(ValueError):
            opt.step(np.zeros(3), np.zeros(2), 0.1)


class TestAdam:
    def test_zero_gradient_no_move(self):
        opt = Adam()
        start = np.array([0.5, -0.5])
        x = start
        for _ in range(10):
            x = opt.step(x, np.zeros(2), 0.1)
        assert (x == start).all()

    def test_first_step_is_signed_lr(self):
        opt = Adam()
        x = opt.step(np.zeros(3), np.array([2.0, -7.0, 0.3]), 0.05)
        assert_allclose(x, [-0.05, 0.05, -0.05], rtol=1e-6)

    def test_quadratic_convergence(self):
        opt = Adam()
        x = run_quadratic(opt, 0.05, steps=500)
        assert abs(x[0]) < 1e-2


class TestRAdam:
    def test_rho_infinity(self):
        assert_allclose(RAdam().rho_inf, 1999.0, atol=1e-9)

    def test_rho_schedule_crosses_four_between_t4_and_t5(self):
        opt = RAdam()
        rhos = [opt.rho_t(t) for t in range(1, 6)]
        assert_allclose(rhos[0], 1.0, atol=1e-12)
        assert all(r <= 4.0 for r in rhos[:4])
        assert rhos[4] > 4.0

    def test_unadapted_branch_matches_momentum_step(self):
        # while rho_t <= 4 the update must be lr * bias-corrected momentum,
        # with no second-moment denominator
        opt = RAdam()
        x = opt.step(np.array([1.0]), np.array([2.0]), 0.1)
        assert_allclose(x, [1.0 - 0.1 * 2.0], atol=1e-12)

    def test_rectification_approaches_one(self):
        assert abs(RAdam().rectification(10_000) - 1.0) < 1e-3

    def test_zero_gradient_no_move(self):
        opt = RAdam()
        x = np.array([0.3])
        for _ in range(10):
            x = opt.step(x, np.zeros(1), 0.1)
        assert x[0] == 0.3

    def test_quadratic_convergence(self):
        opt = RAdam()
        x = run_quadratic(opt, 0.05, steps=500)
        assert abs(x[0]) < 1e-2


class TestLookahead:
    def test_identity_configuration_is_exact(self):
        """k=1, alpha=1 must reproduce the inner optimizer bit for bit."""
        inner_a = Adam()
        wrapped = Lookahead(Adam())
        wrapped.k, wrapped.alpha = 1, 1.0
        xa = np.array([1.0, -0.3])
        xb = xa.copy()
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = rng.normal(size=2)
            xa = inner_a.step(xa, g, 0.02)
            xb = wrapped.step(xb, g, 0.02)
            assert (xa == xb).all()

    def test_hand_simulated_sync(self):
        # five SGD steps (lr=0.1, no momentum) on x^2 from 1.0 reach
        # 0.8^5 = 0.32768; the slow weights then move halfway
        inner = SgdNesterov()
        inner.momentum = 0.0
        wrapped = Lookahead(inner)
        wrapped.k = 5
        x = np.array([1.0])
        for _ in range(5):
            x = wrapped.step(x, 2.0 * x, 0.1)
        assert_allclose(x, [0.66384], atol=1e-15)

    def test_counter_stays_below_k(self):
        wrapped = Lookahead(SgdNesterov())
        wrapped.k = 4
        x = np.array([1.0])
        for _ in range(13):
            x = wrapped.step(x, np.array([0.5]), 0.1)
            assert 0 <= wrapped.inner_counter < 4


class TestRanger:
    def test_defaults(self):
        opt = ranger()
        assert opt.k == 6
        assert opt.alpha == 0.5
        assert isinstance(opt.inner, RAdam)
        assert opt.inner.beta1 == 0.9
        assert opt.inner.beta2 == 0.999

    def test_zero_lr_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ranger().step(np.ones(1), np.ones(1), 0.0)

    def test_non_finite_lr_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ranger().step(np.ones(1), np.ones(1), np.inf)

    def test_identity_configuration_matches_bare_inner(self):
        bare = RAdam()
        wrapped = ranger()
        wrapped.k, wrapped.alpha = 1, 1.0
        xa = np.array([1.0])
        xb = np.array([1.0])
        for _ in range(10):
            xa = bare.step(xa, 2.0 * xa, 0.05)
            xb = wrapped.step(xb, 2.0 * xb, 0.05)
            assert (xa == xb).all()

    def test_quadratic_convergence(self):
        opt = ranger()
        x = run_quadratic(opt, 0.05, steps=500)
        assert abs(x[0]) < 1e-2


class TestFactoryAndGenericProperties:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("lion")

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_no_optimizer_holds_a_learning_rate(self, kind):
        opt = make_optimizer(kind)
        assert not hasattr(opt, "lr")
        assert not hasattr(getattr(opt, "inner", opt), "lr")

    @pytest.mark.parametrize("cls", [SgdNesterov, Adam, RAdam])
    def test_constructors_take_no_arguments(self, cls):
        with pytest.raises(TypeError):
            cls(0.1)

    @pytest.mark.parametrize("kind", ["sgd", "adam", "radam", "ranger"])
    def test_step_count_tracks_calls(self, kind):
        opt = make_optimizer(kind)
        x = np.array([1.0])
        for i in range(7):
            x = opt.step(x, 2.0 * x, 0.01)
        assert opt.step_count == 7

    @pytest.mark.parametrize("kind,lr", [
        ("sgd", 0.05), ("adam", 0.05), ("radam", 0.05), ("ranger", 0.05),
    ])
    def test_smoke_convergence_within_1000_steps(self, kind, lr):
        opt = make_optimizer(kind)
        x = run_quadratic(opt, lr, steps=1000)
        assert abs(x[0]) < 1e-2

    @pytest.mark.parametrize("kind", ["sgd", "adam", "radam", "ranger"])
    def test_bit_identical_trajectories(self, kind):
        def trajectory():
            opt = make_optimizer(kind)
            rng = np.random.default_rng(99)
            x = np.ones(5)
            out = []
            for _ in range(50):
                x = opt.step(x, 2.0 * x + 0.01 * rng.normal(size=5), 0.03)
                out.append(x.copy())
            return np.array(out)

        assert (trajectory() == trajectory()).all()


class TestPublicStepChecks:
    """step() checks the gradient's shape and the learning rate for every
    optimizer kind; the arrays' finiteness is the caller's job."""

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_shape_mismatch_rejected(self, kind):
        with pytest.raises(ValueError, match="does not match"):
            make_optimizer(kind).step(np.ones(3), np.ones(4), 0.01)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("lr", [0.0, -0.01, np.inf, np.nan])
    def test_bad_learning_rate_rejected(self, kind, lr):
        opt = make_optimizer(kind)
        with pytest.raises(ValueError, match="positive and finite"):
            opt.step(np.ones(3), np.ones(3), lr)
        assert opt.step_count == 0
