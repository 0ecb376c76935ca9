import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgwcl.config import TrainConfig
from fgwcl.evaluate import (bootstrap_ci, embed, evaluate, fit_probe,
                            linear_probe, majority_rate, probe_accuracy)
from fgwcl.graph import CsbmParams, generate_csbm, make_splits
from fgwcl.model import Model, prepare_graph


def masks(n, train_frac=0.5, seed=0):
    rng = np.random.default_rng(seed)
    train = np.zeros(n, dtype=bool)
    train[rng.permutation(n)[: int(n * train_frac)]] = True
    return train, ~train


class TestLinearProbe:
    def test_one_hot_embeddings_perfect(self, rng):
        labels = rng.integers(0, 3, 60)
        features = np.eye(3)[labels]
        train, test = masks(60)
        # ensure all classes in train
        assert np.unique(labels[train]).size == 3
        assert linear_probe(features, labels, train, test) == 1.0

    def test_zero_embeddings_fall_back_to_majority(self, rng):
        labels = np.array([0] * 40 + [1] * 20)
        features = np.zeros((60, 5))
        train, test = masks(60, seed=3)
        acc = linear_probe(features, labels, train, test)
        assert_allclose(acc, majority_rate(labels, train, test))

    def test_separable_blobs_beat_chance(self, rng):
        n = 80
        labels = np.array([0] * 40 + [1] * 40)
        features = rng.standard_normal((n, 4)) * 0.3
        features[labels == 1, 0] += 3.0
        train, test = masks(n, seed=1)
        assert linear_probe(features, labels, train, test) > 0.9

    def test_missing_train_class_rejected(self, rng):
        labels = np.array([0] * 30 + [1] * 30)
        features = rng.standard_normal((60, 4))
        train = np.zeros(60, dtype=bool)
        train[:20] = True  # only class 0
        with pytest.raises(ValueError, match="class 1 absent"):
            linear_probe(features, labels, train, ~train)

    def test_constant_feature_column_guarded(self, rng):
        labels = rng.integers(0, 2, 40)
        features = rng.standard_normal((40, 3))
        features[:, 1] = 7.5  # zero variance
        train, test = masks(40)
        acc = linear_probe(features, labels, train, test)
        assert np.isfinite(acc)

    def test_fit_never_reads_test_labels(self, rng):
        labels = rng.integers(0, 3, 70)
        features = rng.standard_normal((70, 6))
        train, test = masks(70, seed=5)
        while np.unique(labels[train]).size < 3:
            labels = rng.integers(0, 3, 70)
        poisoned = labels.copy()
        poisoned[test] = rng.permutation(poisoned[test])
        clean = fit_probe(features, labels, train)
        dirty = fit_probe(features, poisoned, train)
        assert_allclose(clean.w, dirty.w)
        assert_allclose(clean.b, dirty.b)

    def test_deterministic(self, rng):
        labels = rng.integers(0, 2, 50)
        features = rng.standard_normal((50, 4))
        train, test = masks(50)
        a = linear_probe(features, labels, train, test)
        b = linear_probe(features, labels, train, test)
        assert a == b


class TestBootstrap:
    def test_constant_values_zero_width(self):
        low, high = bootstrap_ci([0.8] * 10)
        assert low == high == 0.8

    def test_interval_brackets_mean(self, rng):
        values = rng.uniform(0.6, 0.9, 25)
        low, high = bootstrap_ci(values)
        assert low <= values.mean() <= high
        assert high - low < 0.3

    def test_deterministic(self, rng):
        values = rng.uniform(0, 1, 12)
        assert bootstrap_ci(values) == bootstrap_ci(values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            bootstrap_ci([])


class TestEvaluate:
    def _setup(self, seed=0):
        g = generate_csbm(CsbmParams(n=80, feature_dim=6, p=0.3, q=0.03,
                                     mu_sig=1.5, seed=seed))
        cfg = TrainConfig(hidden_dim=8, out_dim=6, epochs=0, k=4,
                          num_anchors=6)
        model = Model(6, hidden_dim=8, out_dim=6, seed=0)
        return g, cfg, model

    def test_report_structure(self):
        g, cfg, model = self._setup()
        report = evaluate(model, g, cfg, split_mode="fractional", seeds=4)
        assert report["seeds"] == 4
        assert len(report["per_seed"]) == 4
        assert 0.0 <= report["ci_low"] <= report["ci_high"] <= 1.0
        assert 0.0 <= report["mean_accuracy"] <= 1.0
        assert report["majority_rate"] > 0.0

    def test_deterministic_report(self):
        g, cfg, model = self._setup()
        a = evaluate(model, g, cfg, seeds=3)
        b = evaluate(model, g, cfg, seeds=3)
        assert a == b

    @pytest.mark.parametrize("seeds", [0, -1, 2.5, True, float("nan")])
    def test_bad_seed_count_rejected_by_name(self, seeds):
        g, cfg, model = self._setup()
        with pytest.raises(ValueError, match="seeds"):
            evaluate(model, g, cfg, seeds=seeds)

    def test_requires_labels(self, rng):
        from fgwcl.graph import make_graph
        g = make_graph([(0, 1)], rng.standard_normal((4, 6)))
        _, cfg, model = self._setup()
        with pytest.raises(ValueError, match="labels"):
            evaluate(model, g, cfg)

    def test_embed_is_eval_mode(self):
        g, cfg, model = self._setup()
        model.dropout = 0.5  # would perturb if training mode leaked in
        gt = prepare_graph(g)
        assert_allclose(embed(model, gt), embed(model, gt))

    def test_probe_reuses_train_statistics(self, rng):
        labels = rng.integers(0, 2, 50)
        features = rng.standard_normal((50, 4)) * 10 + 3
        train, test = masks(50)
        probe = fit_probe(features, labels, train)
        acc_train = probe_accuracy(probe, features, labels, train)
        assert acc_train >= majority_rate(labels, train, train) - 1e-9
