import dataclasses
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from segopt.losses import LabelMap, brats_distance_matrix, composite_loss
from segopt.metrics import ensemble_mean_softmax
from segopt.model import (
    ENSEMBLE_BLOCK_VOXELS,
    Ensemble,
    Model,
    ModelSpec,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    _unpack,
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

    @pytest.mark.parametrize("features, classes", [(4, 4), (3, 2), (5, 2)],
                             ids=["width", "classes", "both"])
    def test_fit_check_names_both_sides(self, features, classes):
        spec = ModelSpec(kind="linear", input_features=3, num_classes=4)
        with pytest.raises(ValueError) as exc:
            spec.check_fit(features, classes, "model m", "the dataset")
        assert str(exc.value) == (f"model m expects 3 features and 4 classes, "
                                  f"the dataset has {features} and {classes}")


class TestForward:
    def test_zero_params_give_uniform(self, rng):
        model = Model(LINEAR, np.zeros(LINEAR.param_count()))
        probs = model.forward(rng.normal(size=(10, 2)))
        assert (probs == 0.5).all()

    def test_saturated_weights_give_one_hot(self):
        # class-1 logit 1000 * feature 0; everything else zero
        spec = ModelSpec(kind="linear", input_features=2, num_classes=3, seed=0)
        w = np.zeros((3, 2))
        w[1, 0] = 1000.0
        params = np.concatenate([w.reshape(-1), np.zeros(3)])
        probs = Model(spec, params).forward(np.array([[1.0, 0.3]]))
        assert_allclose(probs[0], [0.0, 1.0, 0.0], atol=1e-300)

    def test_rows_sum_to_one(self, rng):
        spec = ModelSpec(kind="mlp", input_features=3, num_classes=4,
                         hidden_width=6, seed=2)
        model = Model.init(spec)
        probs = model.forward(rng.normal(size=(40, 3)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_probabilities_are_a_plain_contiguous_float64_array(self, rng, kind):
        spec = ModelSpec(kind=kind, input_features=3, num_classes=4, seed=2,
                         hidden_width=6 if kind == "mlp" else None)
        probs = Model.init(spec).forward(rng.normal(size=(40, 3)).astype(np.float32))
        assert type(probs) is np.ndarray and probs.dtype == np.float64
        assert probs.shape == (40, 4) and probs.flags.c_contiguous

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
    """Ensemble(models).labels(case) is the argmax of the mean softmax of
    Model.forward, as a LabelMap on the case's grid."""

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

    def case(self, features):
        """A stand-in Case around ``features``; Ensemble.labels reads its
        features, class count, grid and id."""
        n = len(features)
        return Case("probe", features, LabelMap(np.zeros(n, dtype=np.int64), 4, (n,)))

    @pytest.mark.parametrize("count", [1, 3, 4])
    def test_labels_equal_argmax_of_the_mean_softmax(self, rng, count):
        models = self.members(count)
        feats = rng.normal(size=(300, 3))
        mean = ensemble_mean_softmax([m.forward(feats) for m in models])
        want = np.argmax(mean, axis=1)
        case = self.case(feats)
        got = Ensemble(models).labels(case).labels
        assert got.dtype == case.labels.labels.dtype == np.uint8  # the LabelMap's dtype
        assert (got == want).all()
        assert len(set(got.tolist())) > 1

    @pytest.mark.parametrize("count", [2, 3])
    def test_exact_ties_go_to_the_lowest_class(self, rng, count):
        # Linear members whose class rows 1 and 2, and 0 and 3, have equal
        # weights and biases: on every voxel the top two classes tie exactly.
        models = [m for m in self.members(2 * count) if m.spec.kind == "linear"]
        for member in models:
            w, b = _unpack(member.spec, member.params)
            w[2], b[2] = w[1], b[1]
            w[3], b[3] = w[0], b[0]
        feats = rng.normal(size=(300, 3))
        mean = ensemble_mean_softmax([m.forward(feats) for m in models])
        assert (mean[:, 1] == mean[:, 2]).all() and (mean[:, 0] == mean[:, 3]).all()
        got = Ensemble(models).labels(self.case(feats)).labels
        assert (got == np.argmax(mean, axis=1)).all()
        assert set(got.tolist()) == {0, 1}

    def test_overflowing_member_is_value_error(self, rng):
        models = self.members(2)
        huge = Model(models[1].spec, np.full(models[1].spec.param_count(), 1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                Ensemble([models[0], huge]).labels(self.case(rng.normal(size=(10, 3))))

    def test_mismatched_member_is_value_error(self, rng):
        other = Model.init(ModelSpec(kind="linear", input_features=3, num_classes=2, seed=0))
        with pytest.raises(ValueError, match="member 1"):
            Ensemble([self.members(1)[0], other]).labels(self.case(rng.normal(size=(10, 3))))

    def test_empty_ensemble_is_value_error(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            Ensemble([]).labels(self.case(rng.normal(size=(10, 3))))

    @pytest.mark.parametrize("fields", [dict(input_features=2, num_classes=4),
                                        dict(input_features=3, num_classes=3)])
    @pytest.mark.parametrize("position", [1, 2])
    def test_members_that_disagree_are_refused_when_made(self, fields, position):
        models = self.members(3)
        models[position] = Model.init(ModelSpec(kind="linear", seed=0, **fields))
        with pytest.raises(ValueError) as info:
            Ensemble(models)
        assert str(info.value) == (
            f"ensemble member 0 expects 3 features and 4 classes, ensemble member "
            f"{position} has {fields['input_features']} and {fields['num_classes']}")

    def test_members_of_different_hidden_widths_label_as_the_oracle(self, rng):
        models = [Model.init(ModelSpec(kind=kind, hidden_width=hidden, seed=40 + i, **self.SPEC))
                  for i, (kind, hidden) in enumerate([("mlp", 9), ("linear", None), ("mlp", 2)])]
        models = [Model(m.spec, 40.0 * m.params) for m in models]
        feats = rng.normal(size=(300, 3))
        mean = ensemble_mean_softmax([m.forward(feats) for m in models])
        got = Ensemble(models).labels(self.case(feats)).labels
        assert (got == np.argmax(mean, axis=1)).all()
        assert len(set(got.tolist())) > 1

    def test_labels_are_a_label_map_on_the_case_grid(self, rng):
        models = self.members(2)
        gt = LabelMap(np.zeros(12, dtype=np.int64), 4, (3, 4))
        case = Case("grid", rng.normal(size=(12, 3)), gt)
        got = Ensemble(models).labels(case)
        assert isinstance(got, LabelMap)
        assert (got.num_classes, got.spatial_shape) == (4, (3, 4))
        assert not got.labels.flags.writeable

    def test_a_case_that_does_not_fit_is_refused_naming_it(self, rng):
        case = Case("narrow", rng.normal(size=(10, 2)),
                    LabelMap(np.zeros(10, dtype=np.int64), 4, (10,)))
        with pytest.raises(ValueError) as info:
            Ensemble(self.members(2)).labels(case)
        assert str(info.value) == ("the ensemble expects 3 features and 4 classes, "
                                   "case 'narrow' has 2 and 4")


BLOCK = ENSEMBLE_BLOCK_VOXELS
BLOCK_EDGE_VOXELS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


class TestEnsembleBlocks:
    """Ensemble.labels runs the members block by block in one worker's
    buffers; the labels are those of the whole-case oracle at every block
    edge, and do not depend on what the buffers held before."""

    MEMBERS = {"linear": [("linear", None)] * 3, "mlp": [("mlp", 5), ("mlp", 7)],
               "mixed": [("linear", None), ("mlp", 5), ("linear", None), ("mlp", 3)],
               # evaluate's default hidden width.
               "mlp16": [("mlp", 16), ("linear", None)]}

    def members(self, kinds):
        out = []
        for i, (kind, hidden) in enumerate(kinds):
            model = Model.init(ModelSpec(kind=kind, hidden_width=hidden, seed=30 + i,
                                         input_features=3, num_classes=4))
            out.append(Model(model.spec, 40.0 * model.params))
        return out

    def case(self, features):
        n = len(features)
        return Case("probe", features.astype(np.float32),
                    LabelMap(np.zeros(n, dtype=np.int64), 4, (n,)))

    def oracle(self, models, case):
        mean = ensemble_mean_softmax([m.forward(case.features) for m in models])
        return np.argmax(mean, axis=1)

    @pytest.mark.parametrize("kinds", sorted(MEMBERS))
    @pytest.mark.parametrize("voxels", BLOCK_EDGE_VOXELS)
    def test_labels_equal_the_oracle_at_block_edges(self, rng, kinds, voxels):
        models = self.members(self.MEMBERS[kinds])
        case = self.case(rng.normal(size=(voxels, 3)))
        got = Ensemble(models).labels(case).labels
        assert got.shape == (voxels,) and got.dtype == np.uint8
        assert (got == self.oracle(models, case)).all()

    @pytest.mark.parametrize("kinds", sorted(MEMBERS))
    @pytest.mark.parametrize("voxels", [BLOCK + 1, 2 * BLOCK + 3])
    def test_mean_probabilities_match_the_whole_case_mean_to_rounding(self, rng, kinds,
                                                                       voxels):
        # Not bit for bit: BLAS may take a short last block through another
        # kernel (gemv for one column) than the same columns of the
        # whole-case call, which moves the last bits of those few voxels.
        models = self.members(self.MEMBERS[kinds])
        case = self.case(rng.normal(size=(voxels, 3)))
        whole = ensemble_mean_softmax([m.forward(case.features) for m in models])
        worker = Ensemble(models)
        for start in range(0, voxels, BLOCK):
            rows = case.features[start:start + BLOCK]
            assert_allclose(worker._mean(rows), whole[start:start + BLOCK].T,
                            rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kinds", sorted(MEMBERS))
    def test_reused_buffers_give_the_labels_of_fresh_ones(self, rng, kinds):
        models = self.members(self.MEMBERS[kinds])
        worker = Ensemble(models)
        # Falling, then rising: each case finds what the last one left.
        for voxels in [*BLOCK_EDGE_VOXELS[::-1], *BLOCK_EDGE_VOXELS]:
            case = self.case(rng.normal(size=(voxels, 3)))
            got = worker.labels(case).labels
            assert (got == Ensemble(models).labels(case).labels).all()
            assert (got == self.oracle(models, case)).all()

    def test_non_finite_mean_in_a_later_block_is_value_error(self, rng):
        models = self.members(self.MEMBERS["linear"])
        huge = Model(models[1].spec, np.full(models[1].spec.param_count(), 1e308))
        # Zero features keep every voxel finite but the last, which overflows.
        features = np.zeros((BLOCK + 5, 3))
        features[-1] = 10.0
        worker = Ensemble([models[0], huge])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as info:
                worker.labels(self.case(features))
        assert str(info.value) == "non-finite values in ensemble probabilities"


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
        own_labels = label_map(np.argmax(probs, axis=1), num_classes=3)
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
        with pytest.raises(ValueError, match="population"):
            TrainConfig(population="boosted")

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            TrainConfig(optimizer="lion")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("beta", [0.0, np.inf, np.nan, 1e308])
    def test_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be positive"):
            TrainConfig(beta=beta)

    def test_large_finite_beta_accepted(self):
        assert TrainConfig(beta=1e306).beta == 1e306

    def test_defaults_are_declared_on_fields(self):
        config = TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            if f.name != "lr":
                assert getattr(config, f.name) == f.default, f.name

    @pytest.mark.parametrize("lr", [0.0, np.inf, np.nan])
    def test_bad_lr(self, lr):
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(lr=lr)


class TestTrain:
    def test_returns_the_fitted_model_with_its_log(self):
        out = train(Model.init(LINEAR), toy_dataset(), TrainConfig(loss="ce", epochs=2))
        assert [f.name for f in dataclasses.fields(TrainedModel)] == [
            "model", "training_log", "sampler"]
        assert isinstance(out.model, Model)
        assert out.model.spec == LINEAR
        assert len(out.training_log) == 2 and out.sampler is None

    def test_zero_epochs_returns_initial_params(self):
        model = Model.init(LINEAR)
        out = train(model, toy_dataset(), TrainConfig(loss="ce", epochs=0))
        assert (out.model.params == model.params).all()
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
                                     population="dro", epochs=40, seed=3))
        a, b = run(), run()
        assert (a.model.params == b.model.params).all()
        assert a.training_log == b.training_log

    def test_dro_sampler_tracks_case_hardness(self):
        # graded label noise keeps per-case losses spread out; beta is
        # kept moderate so every case is still revisited and the stored
        # loss estimates stay fresh enough to rank correctly
        fracs = [0.0, 0.05, 0.1, 0.15, 0.25, 0.35, 0.45, 0.55]
        dataset = toy_dataset(seed=4, flip_fractions=fracs)
        config = TrainConfig(loss="ce", optimizer="sgd", lr=0.1,
                             population="dro", beta=5.0, epochs=200, seed=2)
        out = train(Model.init(LINEAR), dataset, config)
        model = out.model
        losses = [composite_loss("ce", model.forward(c.features), c.labels).value
                  for c in dataset]
        rho = stats.spearmanr(out.sampler.probabilities(), losses).statistic
        assert rho > 0.9

    def test_dro_with_tiny_beta_samples_uniformly(self):
        dataset = toy_dataset()
        config = TrainConfig(loss="ce", population="dro", beta=1e-9,
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

    def test_class_count_mismatch_names_case(self, rng):
        bad = Case("odd", rng.normal(size=(4, 2)),
                   LabelMap(np.zeros(4, dtype=np.int64), 3, (4,)), "toy")
        with pytest.raises(ValueError, match="case 'odd' has 2 and 3"):
            train(Model.init(LINEAR), [bad], TrainConfig(loss="ce"))

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
        save_model(trained.model, path)
        loaded = load_model(path)
        assert loaded.spec == trained.model.spec
        assert (loaded.params == trained.model.params).all()

    def test_sidecar_layout(self, tmp_path):
        import json
        trained = self.make_trained()
        save_model(trained.model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        assert set(doc) == {"spec", "param_file", "param_count"}
        assert doc["param_file"] == "model.params.bin"
        assert doc["param_count"] == trained.model.params.size
        raw = np.fromfile(tmp_path / "model.params.bin", dtype="<f8")
        assert (raw == trained.model.params).all()

    def test_truncated_params_rejected(self, tmp_path):
        trained = self.make_trained()
        save_model(trained.model, tmp_path / "model.json")
        bin_path = tmp_path / "model.params.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="size mismatch"):
            load_model(tmp_path / "model.json")

    def test_missing_param_file(self, tmp_path):
        trained = self.make_trained()
        save_model(trained.model, tmp_path / "model.json")
        (tmp_path / "model.params.bin").unlink()
        with pytest.raises(FileNotFoundError, match="parameter file"):
            load_model(tmp_path / "model.json")

    def test_missing_descriptor_field(self, tmp_path):
        (tmp_path / "model.json").write_text('{"spec": {}}')
        with pytest.raises(ValueError, match="missing required fields"):
            load_model(tmp_path / "model.json")

    def test_missing_spec_field_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.make_trained().model, path)
        doc = json.loads(path.read_text())
        del doc["spec"]["seed"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^malformed model file {re.escape(str(path))}: "
                                             "missing field 'seed'$"):
            load_model(path)

    def test_param_count_checked_before_the_sidecar_is_read(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.make_trained().model, path)
        doc = json.loads(path.read_text())
        doc["param_count"] += 1
        path.write_text(json.dumps(doc))
        (tmp_path / "model.params.bin").unlink()
        with pytest.raises(ValueError, match=rf"^malformed model file {re.escape(str(path))}: "
                                             "param_count \\d+ does not match spec"):
            load_model(path)

    def test_loaded_params_are_writable(self, tmp_path):
        save_model(self.make_trained().model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.params.dtype == np.float64
        assert loaded.params.flags.writeable

    @pytest.mark.parametrize("change, error", [
        (lambda m: m.params.__setitem__(0, np.nan), "non-finite values in params"),
        (lambda m: setattr(m, "params", np.zeros(3)), "parameter vector has 3 entries"),
    ], ids=["nan_written_in", "params_rebound"])
    def test_model_changed_after_its_check_writes_no_file(self, tmp_path, change, error):
        model = Model.init(LINEAR)
        change(model)
        with pytest.raises(ValueError, match=error):
            save_model(model, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

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
