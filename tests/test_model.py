import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from segopt.losses import LabelMap, brats_distance_matrix, composite_loss
from segopt.metrics import ensemble_mean_softmax
from segopt.model import (
    Model,
    ModelSpec,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    _unpack,
    ensemble_labels,
    load_model,
    save_model,
    train,
    write_training_log,
)
from segopt.synthdata import Case

from conftest import fd_model_gradient, label_map, rel_err, stratified_labels


def toy_case(rng, case_id, n_vox=16, flip_fraction=0.0):
    """Linearly separable two-class case: feature 0 carries the class sign."""
    labels = rng.integers(0, 2, size=n_vox)
    feats = np.stack([
        2.0 * labels - 1.0 + 0.1 * rng.normal(size=n_vox),
        rng.normal(size=n_vox),
    ], axis=1)
    if flip_fraction > 0:
        n_flip = int(flip_fraction * n_vox)
        labels = labels.copy()
        labels[:n_flip] = 1 - labels[:n_flip]
    return Case(case_id, feats, LabelMap(labels, 2, (n_vox,)), "toy")


def toy_dataset(seed=0, n_cases=8, flip_fractions=None):
    rng = np.random.default_rng(seed)
    fracs = flip_fractions or [0.0] * n_cases
    return [toy_case(rng, f"c{i}", flip_fraction=fracs[i]) for i in range(n_cases)]


LINEAR = ModelSpec(kind="linear", input_features=2, num_classes=2, seed=1)


class TestSpec:
    def test_param_counts(self):
        assert LINEAR.param_count() == 2 * 2 + 2
        mlp = ModelSpec(kind="mlp", input_features=3, num_classes=4,
                        hidden_width=5, seed=0)
        assert mlp.param_count() == (3 * 5 + 5) + (5 * 4 + 4)

    def test_mlp_requires_hidden_width(self):
        with pytest.raises(ValueError, match="hidden_width"):
            ModelSpec(kind="mlp", input_features=2, num_classes=2, seed=0)

    def test_linear_rejects_hidden_width(self):
        with pytest.raises(ValueError, match="hidden_width"):
            ModelSpec(kind="linear", input_features=2, num_classes=2,
                      hidden_width=3, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec(kind="cnn", input_features=2, num_classes=2, seed=0)

    def test_param_vector_length_checked(self):
        with pytest.raises(ValueError, match="spec needs"):
            Model(LINEAR, np.zeros(3))


class TestForward:
    def test_zero_params_give_uniform(self, rng):
        model = Model(LINEAR, np.zeros(LINEAR.param_count()))
        probs = model.forward(rng.normal(size=(10, 2)))
        assert (probs.voxels == 0.5).all()

    def test_saturated_weights_give_one_hot(self):
        # class-1 logit 1000 * feature 0; everything else zero
        spec = ModelSpec(kind="linear", input_features=2, num_classes=3, seed=0)
        w = np.zeros((3, 2))
        w[1, 0] = 1000.0
        params = np.concatenate([w.reshape(-1), np.zeros(3)])
        probs = Model(spec, params).forward(np.array([[1.0, 0.3]]))
        assert_allclose(probs.voxels[0], [0.0, 1.0, 0.0], atol=1e-300)

    def test_rows_sum_to_one(self, rng):
        spec = ModelSpec(kind="mlp", input_features=3, num_classes=4,
                         hidden_width=6, seed=2)
        model = Model.init(spec)
        probs = model.forward(rng.normal(size=(40, 3)))
        assert np.abs(probs.voxels.sum(axis=1) - 1.0).max() < 1e-9

    def test_feature_width_mismatch(self, rng):
        model = Model.init(LINEAR)
        with pytest.raises(ValueError):
            model.forward(rng.normal(size=(5, 3)))

    def test_init_is_seeded(self):
        a = Model.init(LINEAR).params
        b = Model.init(LINEAR).params
        assert (a == b).all()
        c = Model.init(ModelSpec(kind="linear", input_features=2,
                                 num_classes=2, seed=7)).params
        assert not (a == c).all()

    def test_init_biases_zero_weights_bounded(self):
        spec = ModelSpec(kind="mlp", input_features=3, num_classes=4,
                         hidden_width=5, seed=3)
        model = Model.init(spec)
        w1, b1, w2, b2 = _unpack(spec, model.params)
        assert (b1 == 0).all() and (b2 == 0).all()
        assert np.abs(w1).max() <= 0.1 and np.abs(w2).max() <= 0.1


class TestEnsembleLabels:
    """ensemble_labels is the argmax of the mean softmax of Model.forward."""

    SPEC = dict(input_features=3, num_classes=4)

    def members(self, count):
        kinds = [("linear", None), ("mlp", 5)]
        out = []
        for i in range(count):
            kind, hidden = kinds[i % 2]
            model = Model.init(ModelSpec(kind=kind, hidden_width=hidden, seed=20 + i, **self.SPEC))
            # Large weights, so the members disagree and the labels vary.
            out.append(Model(model.spec, 40.0 * model.params))
        return out

    @pytest.mark.parametrize("count", [1, 3, 4])
    def test_labels_equal_argmax_of_the_mean_softmax(self, rng, count):
        models = self.members(count)
        feats = rng.normal(size=(300, 3))
        mean = ensemble_mean_softmax([m.forward(feats) for m in models])
        want = np.argmax(mean.voxels, axis=1)
        got = ensemble_labels(models, feats)
        assert got.dtype == want.dtype
        assert (got == want).all()
        assert len(set(got.tolist())) > 1

    def test_overflowing_member_is_value_error(self, rng):
        models = self.members(2)
        huge = Model(models[1].spec, np.full(models[1].spec.param_count(), 1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                ensemble_labels([models[0], huge], rng.normal(size=(10, 3)))

    def test_mismatched_member_is_value_error(self, rng):
        other = Model.init(ModelSpec(kind="linear", input_features=3, num_classes=2, seed=0))
        with pytest.raises(ValueError, match="member 1"):
            ensemble_labels([self.members(1)[0], other], rng.normal(size=(10, 3)))

    def test_empty_ensemble_is_value_error(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            ensemble_labels([], rng.normal(size=(10, 3)))


class TestBackward:
    @pytest.mark.parametrize("kind", ["ce", "dice", "gwdl", "dice_ce", "gwdl_ce"])
    @pytest.mark.parametrize("model_kind", ["linear", "mlp"])
    def test_parameter_gradient_matches_finite_differences(self, kind, model_kind, rng):
        m = brats_distance_matrix() if "gwdl" in kind else None
        hidden = 5 if model_kind == "mlp" else None
        spec = ModelSpec(kind=model_kind, input_features=3, num_classes=4,
                         hidden_width=hidden, seed=11)
        model = Model.init(spec)
        feats = rng.normal(size=(12, 3))
        gt = label_map(stratified_labels(rng, 12, 4))
        _, grad = model.backward(feats, gt, kind, m)
        differenced = fd_model_gradient(model, feats, gt, kind, m)
        assert rel_err(grad, differenced) <= 1e-4

    def test_loss_value_matches_forward_route(self, rng):
        model = Model.init(ModelSpec(kind="linear", input_features=3,
                                     num_classes=4, seed=5))
        feats = rng.normal(size=(9, 3))
        gt = label_map(rng.integers(0, 4, size=9))
        loss, _ = model.backward(feats, gt, "dice_ce")
        direct = composite_loss("dice_ce", model.forward(feats), gt)
        assert loss == direct.value

    def test_duplicated_voxels_contribute_identically(self, rng):
        # cross-entropy averages per-voxel terms, so a doubled voxel at
        # half weight reproduces the single-voxel gradient exactly
        model = Model.init(ModelSpec(kind="linear", input_features=3,
                                     num_classes=4, seed=6))
        row = rng.normal(size=(1, 3))
        single = model.backward(row, label_map([2]), "ce")[1]
        doubled = model.backward(np.vstack([row, row]),
                                 label_map([2, 2]), "ce")[1]
        assert (single == doubled).all()

    def test_saturated_correct_model_has_vanishing_gradient(self):
        spec = ModelSpec(kind="linear", input_features=2, num_classes=3, seed=0)
        w = np.array([[80.0, 0.0], [0.0, 80.0], [-80.0, -80.0]])
        params = np.concatenate([w.reshape(-1), np.zeros(3)])
        model = Model(spec, params)
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]] * 4)
        probs = model.forward(feats)
        own_labels = label_map(np.argmax(probs.voxels, axis=1), num_classes=3)
        _, grad = model.backward(feats, own_labels, "ce")
        assert np.linalg.norm(grad) < 1e-6


class TestTrainConfig:
    def test_gwdl_requires_matrix(self):
        with pytest.raises(ValueError, match="requires a distance matrix"):
            TrainConfig(loss="gwdl_ce")

    def test_non_gwdl_loss_keeps_no_matrix(self):
        config = TrainConfig(loss="dice_ce", distance_matrix=brats_distance_matrix())
        assert config.distance_matrix is None

    def test_unknown_sampler_mode(self):
        with pytest.raises(ValueError, match="sampler mode"):
            TrainConfig(sampler_mode="boosted")

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            TrainConfig(optimizer="lion")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        model = Model.init(LINEAR)
        out = train(model, toy_dataset(), TrainConfig(loss="ce", epochs=0))
        assert (out.params == model.params).all()
        assert out.training_log == []

    def test_separable_toy_converges(self):
        model = Model.init(LINEAR)
        config = TrainConfig(loss="ce", optimizer="sgd", lr=0.1, epochs=300,
                             batch_size=2, seed=0)
        out = train(model, toy_dataset(), config)
        assert out.training_log[-1].loss < 0.1

    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "radam", "ranger"])
    def test_loss_halves_for_every_optimizer(self, optimizer):
        model = Model.init(LINEAR)
        config = TrainConfig(loss="ce", optimizer=optimizer, lr=0.01,
                             epochs=300, batch_size=2, seed=0)
        out = train(model, toy_dataset(), config)
        assert out.training_log[-1].loss < 0.5 * out.training_log[0].loss

    def test_log_schedule_and_entropy(self):
        dataset = toy_dataset()
        out = train(Model.init(LINEAR), dataset,
                    TrainConfig(loss="ce", optimizer="sgd", lr=0.2, epochs=10))
        assert [r.epoch for r in out.training_log] == list(range(10))
        assert out.training_log[0].lr == 0.2
        assert out.training_log[5].lr == pytest.approx(0.2 * 0.5**0.9)
        for rec in out.training_log:
            assert rec.sampler_entropy == pytest.approx(np.log(len(dataset)))

    def test_deterministic_given_seed(self):
        def run():
            return train(Model.init(LINEAR), toy_dataset(),
                         TrainConfig(loss="dice_ce", optimizer="adam",
                                     sampler_mode="dro", epochs=40, seed=3))
        a, b = run(), run()
        assert (a.params == b.params).all()
        assert a.training_log == b.training_log

    def test_dro_sampler_tracks_case_hardness(self):
        # graded label noise keeps per-case losses spread out; beta is
        # kept moderate so every case is still revisited and the stored
        # loss estimates stay fresh enough to rank correctly
        fracs = [0.0, 0.05, 0.1, 0.15, 0.25, 0.35, 0.45, 0.55]
        dataset = toy_dataset(seed=4, flip_fractions=fracs)
        config = TrainConfig(loss="ce", optimizer="sgd", lr=0.1,
                             sampler_mode="dro", beta=5.0, epochs=200, seed=2)
        out = train(Model.init(LINEAR), dataset, config)
        model = out.model()
        losses = [composite_loss("ce", model.forward(c.features), c.labels).value
                  for c in dataset]
        rho = stats.spearmanr(out.sampler.probabilities(), losses).statistic
        assert rho > 0.9

    def test_dro_with_tiny_beta_samples_uniformly(self):
        dataset = toy_dataset()
        config = TrainConfig(loss="ce", sampler_mode="dro", beta=1e-9,
                             epochs=5, seed=1)
        out = train(Model.init(LINEAR), dataset, config)
        draws = out.sampler.sample_batch(10_000)
        freq = np.bincount(draws, minlength=len(dataset)) / draws.size
        assert np.abs(freq - 1.0 / len(dataset)).max() < 0.02

    def test_divergence_names_epoch(self):
        config = TrainConfig(loss="ce", optimizer="sgd", lr=1e12, epochs=50)
        with pytest.raises(TrainingDiverged, match="epoch \\d+"):
            train(Model.init(LINEAR), toy_dataset(), config)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(Model.init(LINEAR), [], TrainConfig(loss="ce"))

    def test_feature_width_mismatch_names_case(self, rng):
        bad = Case("odd", rng.normal(size=(4, 3)),
                   LabelMap(np.zeros(4, dtype=np.int64), 2, (4,)), "toy")
        with pytest.raises(ValueError, match="odd"):
            train(Model.init(LINEAR), [bad], TrainConfig(loss="ce"))


class TestSerialization:
    def make_trained(self):
        out = train(Model.init(LINEAR), toy_dataset(),
                    TrainConfig(loss="ce", epochs=3, seed=0))
        return out

    def test_round_trip_is_bit_exact(self, tmp_path):
        trained = self.make_trained()
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.spec == trained.spec
        assert (loaded.params == trained.params).all()

    def test_sidecar_layout(self, tmp_path):
        import json
        trained = self.make_trained()
        save_model(trained, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        assert set(doc) == {"spec", "param_file", "param_count"}
        assert doc["param_file"] == "model.params.bin"
        assert doc["param_count"] == trained.params.size
        raw = np.fromfile(tmp_path / "model.params.bin", dtype="<f8")
        assert (raw == trained.params).all()

    def test_truncated_params_rejected(self, tmp_path):
        trained = self.make_trained()
        save_model(trained, tmp_path / "model.json")
        bin_path = tmp_path / "model.params.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="size mismatch"):
            load_model(tmp_path / "model.json")

    def test_missing_param_file(self, tmp_path):
        trained = self.make_trained()
        save_model(trained, tmp_path / "model.json")
        (tmp_path / "model.params.bin").unlink()
        with pytest.raises(FileNotFoundError, match="parameter file"):
            load_model(tmp_path / "model.json")

    def test_missing_descriptor_field(self, tmp_path):
        (tmp_path / "model.json").write_text('{"spec": {}}')
        with pytest.raises(ValueError, match="missing field"):
            load_model(tmp_path / "model.json")

    def test_training_log_csv(self, tmp_path):
        trained = self.make_trained()
        path = tmp_path / "log.csv"
        write_training_log(trained, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,lr,sampler_entropy"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == trained.training_log[0].loss
