from segopt import gradcheck
from segopt.gradcheck import PARAM_TOL, PROB_TOL, run_gradcheck
from segopt.losses import LOSS_KINDS
from segopt.model import Model


def test_all_kinds_pass_at_default_tolerances():
    results = run_gradcheck(trials=25, seed=0)
    assert [r.kind for r in results] == list(LOSS_KINDS)
    for r in results:
        assert r.passed
        assert r.worst_prob_err <= PROB_TOL
        assert r.worst_param_err <= PARAM_TOL
        assert r.trials == 25


def test_single_kind_selection():
    results = run_gradcheck(["gwdl"], trials=10, seed=1)
    assert len(results) == 1
    assert results[0].kind == "gwdl"


def test_deterministic_given_seed():
    a = run_gradcheck(["dice"], trials=8, seed=7)[0]
    b = run_gradcheck(["dice"], trials=8, seed=7)[0]
    assert a.worst_prob_err == b.worst_prob_err
    assert a.worst_param_err == b.worst_param_err


def test_wrong_prob_gradient_is_caught(monkeypatch):
    exact = gradcheck.composite_loss

    def corrupted(*args, **kwargs):
        out = exact(*args, **kwargs)
        if out.gradient is not None:
            out.gradient[0, 0] += 1e-3
        return out

    monkeypatch.setattr(gradcheck, "composite_loss", corrupted)
    for r in run_gradcheck(trials=5, seed=0):
        assert r.worst_prob_err > PROB_TOL, r.kind


def test_wrong_param_gradient_is_caught(monkeypatch):
    exact = Model.backward

    def corrupted(self, *args, **kwargs):
        value, grad = exact(self, *args, **kwargs)
        grad[0] += 1e-3
        return value, grad

    monkeypatch.setattr(Model, "backward", corrupted)
    for r in run_gradcheck(trials=5, seed=0):
        assert r.worst_param_err > PARAM_TOL, r.kind
