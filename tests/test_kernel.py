"""The batched training kernel's contract.

One optimizer step runs forward, loss and backward once per grid group
of the batch.  Its per-case values and mean gradient must equal what
per-case Model.backward gives, for every loss kind and both model kinds,
on batches that mix grids and repeat an index; train() must accept
mixed grids at any batch size, and name the first diverging case in
batch order.  A _Loss whose tables are warm from earlier steps must give
the bytes of a fresh one, and train() the bytes of a loop of _gradient
calls on fresh _Loss objects and public step() calls.  A Case stays as
it was checked, so train() checks no case's features again.  A case read
from its files keeps float32 features and uint8 labels, and trains and
ensembles to the bytes of the same case held at float64 and int64.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import segopt
from segopt.losses import LOSS_KINDS, LabelMap, _Loss, brats_distance_matrix
from segopt.model import (MODEL_KINDS, Model, ModelSpec, TrainConfig, TrainingDiverged, _gradient,
                          ensemble_labels, train)
from segopt.numerics import Rng
from segopt.optim import DEFAULT_LR, OPTIMIZER_KINDS, PolySchedule, make_optimizer
from segopt.synthdata import Case, SynthConfig, generate, load, load_case

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
    values, grad = _gradient(model.spec, model.params, cases, batch, _Loss(kind, m, 4))

    per_case = [model.backward(cases[i].features, cases[i].labels, kind, m) for i in batch]
    want_values = np.array([loss for loss, _ in per_case])
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
    _, grad = _gradient(model.spec, model.params, cases, batch, _Loss("gwdl_ce", m, 4))
    differenced = np.mean([fd_model_gradient(model, cases[i].features, cases[i].labels,
                                             "gwdl_ce", m) for i in batch], axis=0)
    assert rel_err(grad, differenced) <= 1e-4


def uniform_dataset(rng, n_cases=7):
    return [grid_case(rng, f"u{i}", GRIDS[0]) for i in range(n_cases)]


# name -> (dataset, batch); None is the last batch of a 7-case ERM epoch at
# batch size 2, which holds one case.
LEAN_BATCHES = {
    "uniform": ("uniform", [3, 1]),
    "mixed-grid": ("mixed", [1, 0, 2, 5]),
    "dro-repeat": ("uniform", [4, 2, 4]),
    "partial": ("uniform", None),
}


@pytest.mark.parametrize("batch_name", LEAN_BATCHES)
@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_per_run_tables_give_the_general_path_bytes(model_kind, kind, batch_name, rng):
    # train() reuses one _Loss for every step; the reference is a fresh
    # one.  The reused _Loss first steps through every batch of its
    # dataset, so its cached offsets cover the named batch's shapes.
    m = brats_distance_matrix() if "gwdl" in kind else None
    data = LEAN_BATCHES[batch_name][0]
    cases = uniform_dataset(rng) if data == "uniform" else mixed_dataset(rng)
    partial = Rng(0).permutation(len(cases))[6:8].tolist()
    assert len(partial) == 1
    batches = {name: partial if batch is None else batch
               for name, (other, batch) in LEAN_BATCHES.items() if other == data}
    model = perturbed_model(rng, model_kind)
    loss = _Loss(kind, m, 4)
    for batch in batches.values():
        _gradient(model.spec, model.params, cases, np.array(batch), loss)
    batch = batches[batch_name]
    warm_values, warm_grad = _gradient(model.spec, model.params, cases, np.array(batch), loss)
    values, grad = _gradient(model.spec, model.params, cases, batch, _Loss(kind, m, 4))
    assert values.shape == (len(batch),)
    assert warm_values.tobytes() == values.tobytes()
    assert warm_grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_train_gives_the_public_step_bytes(model_kind, kind, rng):
    # Two ERM epochs of 7 cases at batch size 2 are 8 ranger steps, past
    # one Lookahead sync; train() must equal a fresh _Loss's gradient and step().
    m = brats_distance_matrix() if "gwdl" in kind else None
    dataset = uniform_dataset(rng)
    model = perturbed_model(rng, model_kind)
    config = TrainConfig(loss=kind, distance_matrix=m, optimizer="ranger", epochs=2, seed=5)
    optimizer = make_optimizer("ranger")
    schedule = PolySchedule(initial_lr=config.lr, t_max=config.epochs)
    shuffle = Rng(config.seed)
    params = model.params.copy()
    for epoch in range(config.epochs):
        order = shuffle.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch_size):
            _, grad = _gradient(model.spec, params, dataset,
                                list(order[start:start + config.batch_size]), _Loss(kind, m, 4))
            params = optimizer.step(params, grad, schedule.at(epoch))
    assert train(model, dataset, config).model.params.tobytes() == params.tobytes()


def reference_epoch(model, dataset, config):
    """One ERM epoch of the training loop, written out case by case."""
    optimizer = make_optimizer(config.optimizer)
    lr = PolySchedule(initial_lr=config.lr, t_max=config.epochs).at(0)
    order = Rng(config.seed).permutation(len(dataset))
    params = model.params.copy()
    losses = []
    for start in range(0, len(dataset), config.batch_size):
        work = Model(model.spec, params)
        outs = [work.backward(dataset[i].features, dataset[i].labels, config.loss,
                              config.distance_matrix)
                for i in order[start:start + config.batch_size]]
        losses.extend(loss for loss, _ in outs)
        params = optimizer.step(params, np.mean([g for _, g in outs], axis=0), lr)
    return params, float(np.mean(losses))


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_mixed_grid_dataset_trains_with_batch_size_three(model_kind, rng):
    dataset = mixed_dataset(rng)  # 7 cases: batches of 3, 3 and 1, grids mixed
    model = perturbed_model(rng, model_kind)
    config = TrainConfig(loss="dice_ce", optimizer="sgd", lr=0.05, epochs=1,
                         batch_size=3, seed=2)
    out = train(model, dataset, config)
    want_params, want_loss = reference_epoch(model, dataset, config)
    assert np.abs(out.model.params - want_params).max() <= 1e-12 * np.abs(want_params).max()
    assert abs(out.training_log[0].loss - want_loss) <= 1e-12 * want_loss

    # DRO draws with replacement, so batches also repeat cases
    dro = train(model, dataset, TrainConfig(loss="gwdl_ce", distance_matrix=brats_distance_matrix(),
                                            population="dro", optimizer="ranger",
                                            epochs=8, batch_size=3, seed=2))
    assert len(dro.training_log) == 8
    assert np.isfinite([rec.loss for rec in dro.training_log]).all()


def test_a_case_cannot_change_after_it_is_checked(rng, tmp_path):
    generate(SynthConfig(grid=(8, 8), subgroup_cases={"common": 1}), tmp_path)
    features = rng.normal(size=(30, 3))
    made = Case("c0", features, LabelMap(rng.integers(0, 4, size=30), 4, (6, 5)))
    # float64 features stay float64; a case file's float32 features stay float32.
    for case, dtype in ((made, np.float64), (load(tmp_path / "manifest.json")[0], np.float32)):
        with pytest.raises(ValueError, match="read-only"):
            case.features[2, 1] = np.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            case.features = np.full(case.features.shape, np.nan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            case.labels.labels = case.labels.labels[:6]
        assert case.features.flags.c_contiguous and case.features.dtype == dtype
    features[2, 1] = np.nan  # the caller's array is copied, not frozen
    assert np.isfinite(made.features).all()


def wide_copy(case):
    """``case`` with float64 features and int64 labels: a LabelMap narrows
    any labels it is given, so the wide copy is set past its check."""
    labels = LabelMap(case.labels.labels, case.labels.num_classes, case.labels.spatial_shape)
    object.__setattr__(labels, "labels", labels.labels.astype(np.int64))
    return Case(case.case_id, case.features.astype(np.float64), labels, case.subgroup)


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_narrow_cases_train_and_ensemble_to_the_bytes_of_wide_ones(model_kind, rng, tmp_path):
    # Two 100-voxel cases, whose batch has B*V = 200: uint8 labels times 200
    # wrap silently.  The 1152-voxel case alone: uint8 labels times 1152 raise.
    parts = [generate(SynthConfig(grid=grid, subgroup_cases={"common": count}, seed=seed),
                      tmp_path / str(seed))
             for grid, count, seed in (((10, 10), 2, 3), ((12, 12, 8), 1, 4))]
    narrow = [load_case(manifest, entry) for manifest in parts for entry in manifest.cases]
    for case in narrow:
        assert case.features.dtype == np.float32 and case.labels.labels.dtype == np.uint8
        assert not case.features.flags.writeable and not case.labels.labels.flags.writeable
    wide = [wide_copy(case) for case in narrow]
    assert wide[0].features.dtype == np.float64 and wide[0].labels.labels.dtype == np.int64

    model = perturbed_model(rng, model_kind, num_features=4)
    for batch in ([0, 1], [2], [1, 2, 0]):
        loss = _Loss("gwdl_ce", brats_distance_matrix(), 4)
        got, want = (_gradient(model.spec, model.params, cases, np.array(batch), loss)
                     for cases in (narrow, wide))
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    for config in (TrainConfig(loss="gwdl_ce", distance_matrix=brats_distance_matrix(),
                               epochs=4, batch_size=2, seed=1),
                   TrainConfig(loss="dice_ce", population="dro", optimizer="ranger",
                               epochs=4, batch_size=3, seed=2)):
        got, want = (train(model, cases, config) for cases in (narrow, wide))
        assert got.model.params.tobytes() == want.model.params.tobytes()
        assert got.training_log == want.training_log
        members = [model, got.model]
        for narrow_case, wide_case in zip(narrow, wide):
            labels = ensemble_labels(members, narrow_case)
            assert labels.dtype == np.uint8
            assert (labels == ensemble_labels(members, wide_case)).all()


def test_train_scans_no_case_for_finiteness(rng, monkeypatch):
    # Each Case was checked when it was made, so the finiteness checks of
    # one train() call do not grow with the number of cases.
    model = perturbed_model(rng, "linear")
    checked = []
    real = segopt.model.require_finite
    monkeypatch.setattr(segopt.model, "require_finite",
                        lambda arr, name="array": checked.append(name) or real(arr, name))
    counts = []
    for n_cases in (1, 7):
        checked.clear()
        train(model, mixed_dataset(rng, n_cases), TrainConfig(loss="ce", epochs=2))
        counts.append(len(checked))
    assert counts[0] == counts[1]


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
        assert not hasattr(getattr(optimizer, "inner", optimizer), "lr")
        assert TrainConfig(optimizer=kind).lr == DEFAULT_LR[kind]


@pytest.mark.parametrize("module", ["scipy.ndimage", "concurrent.futures"])
def test_cli_import_leaves_module_unloaded(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(segopt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, segopt.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
