"""The batched training kernel's contract.

One optimizer step runs forward, loss and backward once per grid group
of the batch.  Its per-case values and mean gradient must equal what
per-case Model.backward gives, for every loss kind and both model kinds,
on batches that mix grids and repeat an index; train() must accept
mixed grids at any batch size, reject bad input on entry, and name the
first diverging case in batch order.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import segopt
from segopt.losses import LOSS_KINDS, LabelMap, brats_distance_matrix
from segopt.model import (MODEL_KINDS, Model, ModelSpec, TrainConfig, TrainingDiverged,
                          batch_gradient, train)
from segopt.numerics import Rng
from segopt.optim import DEFAULT_LR, OPTIMIZER_KINDS, PolySchedule, make_optimizer
from segopt.synthdata import Case

from conftest import fd_model_gradient, rel_err

GRIDS = ((6, 5), (3, 4, 2))  # a 2-D and a 3-D grid with different voxel counts


def grid_case(rng, case_id, grid, num_features=3):
    n_vox = int(np.prod(grid))
    labels = LabelMap(rng.integers(0, 4, size=n_vox), 4, grid)
    return Case(case_id, rng.normal(size=(n_vox, num_features)), labels, "test")


def mixed_dataset(rng, n_cases=7):
    return [grid_case(rng, f"c{i}", GRIDS[i % 2]) for i in range(n_cases)]


def perturbed_model(rng, model_kind, num_features=3):
    hidden = 5 if model_kind == "mlp" else None
    spec = ModelSpec(kind=model_kind, input_features=num_features, num_classes=4,
                     hidden_width=hidden, seed=4)
    params = Model.init(spec).params
    return Model(spec, params + 0.3 * rng.normal(size=params.shape))


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_batched_step_matches_per_case_backward(kind, model_kind, rng):
    m = brats_distance_matrix() if "gwdl" in kind else None
    cases = mixed_dataset(rng, 3)
    model = perturbed_model(rng, model_kind)
    batch = np.array([1, 0, 2, 1])  # 3-D, 2-D, 2-D, then the 3-D case again
    values, grad = batch_gradient(model.spec, model.params, cases, batch, kind, m)

    per_case = [model.backward(cases[i].features, cases[i].labels, kind, m) for i in batch]
    want_values = np.array([loss.value for loss, _ in per_case])
    want_grad = np.mean([g for _, g in per_case], axis=0)
    assert values.shape == (4,)
    assert values[0] == values[3]
    assert np.abs(values - want_values).max() <= 1e-12 * np.abs(want_values).max()
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_batched_gradient_matches_finite_differences_of_batch_mean(model_kind, rng):
    # an independent route: difference each case's loss through the
    # public forward and composite_loss, then average over the batch
    m = brats_distance_matrix()
    cases = mixed_dataset(rng, 3)
    model = perturbed_model(rng, model_kind)
    batch = [0, 1, 1, 2]
    _, grad = batch_gradient(model.spec, model.params, cases, batch, "gwdl_ce", m)
    differenced = np.mean([fd_model_gradient(model, cases[i].features, cases[i].labels,
                                             "gwdl_ce", m) for i in batch], axis=0)
    assert rel_err(grad, differenced) <= 1e-4


def reference_epoch(model, dataset, config):
    """One ERM epoch of the training loop, written out case by case."""
    optimizer = make_optimizer(config.optimizer, config.lr)
    lr = PolySchedule(initial_lr=optimizer.lr, t_max=config.epochs).at(0)
    order = Rng(config.seed).permutation(len(dataset))
    params = model.params.copy()
    losses = []
    for start in range(0, len(dataset), config.batch_size):
        work = Model(model.spec, params)
        outs = [work.backward(dataset[i].features, dataset[i].labels, config.loss,
                              config.distance_matrix)
                for i in order[start:start + config.batch_size]]
        losses.extend(loss.value for loss, _ in outs)
        params = optimizer.step(params, np.mean([g for _, g in outs], axis=0), lr=lr)
    return params, float(np.mean(losses))


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_mixed_grid_dataset_trains_with_batch_size_three(model_kind, rng):
    dataset = mixed_dataset(rng)  # 7 cases: batches of 3, 3 and 1, grids mixed
    model = perturbed_model(rng, model_kind)
    config = TrainConfig(loss="dice_ce", optimizer="sgd", lr=0.05, epochs=1,
                         batch_size=3, seed=2)
    out = train(model, dataset, config)
    want_params, want_loss = reference_epoch(model, dataset, config)
    assert np.abs(out.params - want_params).max() <= 1e-12 * np.abs(want_params).max()
    assert abs(out.training_log[0].loss - want_loss) <= 1e-12 * want_loss

    # DRO draws with replacement, so batches also repeat cases
    dro = train(model, dataset, TrainConfig(loss="gwdl_ce", distance_matrix=brats_distance_matrix(),
                                            sampler_mode="dro", optimizer="ranger",
                                            epochs=8, batch_size=3, seed=2))
    assert len(dro.training_log) == 8
    assert np.isfinite([rec.loss for rec in dro.training_log]).all()


def test_nan_features_set_after_construction_are_rejected_on_entry(rng):
    dataset = mixed_dataset(rng)
    dataset[4].features[2, 1] = np.nan
    model = perturbed_model(rng, "linear")
    for epochs in (0, 3):
        with pytest.raises(ValueError, match="non-finite values in features of case 'c4'"):
            train(model, dataset, TrainConfig(loss="ce", epochs=epochs))


def test_divergence_names_epoch_and_first_bad_case_in_batch_order():
    # 2 features, 2 classes; class logits +-1e7 * feature 0.  Cases "B" and
    # "C" carry feature 0 = 1e303, so their logits overflow to +-inf and
    # their losses come out NaN; "A" and "D" saturate but stay finite.
    rng = np.random.default_rng(3)

    def case(case_id, grid, scale):
        n_vox = int(np.prod(grid))
        feats = np.stack([scale * (1.0 + rng.uniform(size=n_vox)), rng.normal(size=n_vox)], 1)
        return Case(case_id, feats, LabelMap(rng.integers(0, 2, size=n_vox), 2, grid), "t")

    dataset = [case("A", (3, 4), 1.0), case("B", (2, 2, 2), 1e303),
               case("C", (3, 4), 1e303), case("D", (2, 2, 2), 1.0)]
    spec = ModelSpec(kind="linear", input_features=2, num_classes=2, seed=0)
    model = Model(spec, np.array([1e7, 0.0, -1e7, 0.0, 0.0, 0.0]))
    config = TrainConfig(loss="ce", epochs=3, batch_size=4, seed=0)
    # Seed 0 shuffles to A, D, C, B: the first bad case in batch order is
    # C.  Dataset order would give B; values read back in grid-group order
    # (A, C, then D, B) would put C's NaN at D's position.
    assert [dataset[i].case_id for i in Rng(0).permutation(4)] == ["A", "D", "C", "B"]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch 0: loss nan on case 'C'"):
            train(model, dataset, config)


def test_default_learning_rates_have_one_source():
    assert set(DEFAULT_LR) == set(OPTIMIZER_KINDS)
    for kind in OPTIMIZER_KINDS:
        optimizer = make_optimizer(kind)
        inner = getattr(optimizer, "inner", optimizer)
        assert inner.lr == DEFAULT_LR[kind]


@pytest.mark.parametrize("module", ["scipy.ndimage", "concurrent.futures"])
def test_cli_import_leaves_module_unloaded(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(segopt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, segopt.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
