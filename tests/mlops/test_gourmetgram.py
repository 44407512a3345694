"""Tests for the GourmetGram data, model, and lifecycle loop."""

import numpy as np
import pytest

from repro.common import InvalidStateError, ValidationError
from repro.mlops import FoodClassifier, FoodDatasetGenerator, MLOpsLifecycle


class TestData:
    def test_seeded_determinism(self):
        g1 = FoodDatasetGenerator(seed=5)
        g2 = FoodDatasetGenerator(seed=5)
        d1, d2 = g1.sample(100, time=1.0), g2.sample(100, time=1.0)
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_drift_moves_means(self):
        g = FoodDatasetGenerator(drift_rate=0.5)
        shift = np.linalg.norm(g.means_at(4.0) - g.means_at(0.0), axis=1)
        np.testing.assert_allclose(shift, 2.0)  # rate * t along unit directions

    def test_zero_drift_rate_is_stationary(self):
        g = FoodDatasetGenerator(drift_rate=0.0)
        np.testing.assert_array_equal(g.means_at(0.0), g.means_at(100.0))

    def test_class_names(self):
        g = FoodDatasetGenerator(seed=0)
        ds = g.sample(10)
        assert len(ds.class_names()) == 10

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            FoodDatasetGenerator(n_classes=1)
        with pytest.raises(ValidationError):
            FoodDatasetGenerator().sample(0)


class TestModel:
    def setup_method(self):
        self.gen = FoodDatasetGenerator(seed=1, class_spread=0.8)

    def test_high_accuracy_in_distribution(self):
        train = self.gen.sample(2000, time=0.0, seed=10)
        test = self.gen.sample(1000, time=0.0, seed=11)
        model = FoodClassifier().fit(train)
        assert model.accuracy(test) > 0.9

    def test_accuracy_degrades_under_drift(self):
        """The mechanistic drift story the lifecycle loop depends on."""
        model = FoodClassifier().fit(self.gen.sample(2000, time=0.0, seed=10))
        accs = [model.accuracy(self.gen.sample(1000, time=t, seed=20 + int(t)))
                for t in (0.0, 2.0, 4.0, 8.0)]
        assert accs[0] > accs[-1] + 0.2  # substantial decay
        assert all(a >= b - 0.05 for a, b in zip(accs, accs[1:]))  # ~monotone

    def test_retraining_restores_accuracy(self):
        stale = FoodClassifier().fit(self.gen.sample(2000, time=0.0, seed=10))
        fresh = FoodClassifier().fit(self.gen.sample(2000, time=6.0, seed=12))
        test = self.gen.sample(1000, time=6.0, seed=13)
        assert fresh.accuracy(test) > stale.accuracy(test) + 0.1

    def test_predict_before_fit_rejected(self):
        with pytest.raises(InvalidStateError):
            FoodClassifier().predict(np.zeros((1, 8)))

    def test_dimension_mismatch_rejected(self):
        model = FoodClassifier().fit(self.gen.sample(500, seed=10))
        with pytest.raises(ValidationError):
            model.predict(np.zeros((1, 3)))

    def test_serialisation_round_trip(self):
        model = FoodClassifier().fit(self.gen.sample(500, seed=10))
        clone = FoodClassifier.from_bytes(model.to_bytes())
        test = self.gen.sample(200, seed=11)
        np.testing.assert_array_equal(model.predict(test.features), clone.predict(test.features))
        assert model.fingerprint() == clone.fingerprint()

    def test_corrupt_payload_rejected(self):
        with pytest.raises(ValidationError):
            FoodClassifier.from_bytes(b"short")
        model = FoodClassifier().fit(self.gen.sample(500, seed=10))
        with pytest.raises(ValidationError):
            FoodClassifier.from_bytes(model.to_bytes()[:-8])

    def test_single_vector_prediction(self):
        model = FoodClassifier().fit(self.gen.sample(500, seed=10))
        pred = model.predict_one(model.centroids[3])
        assert pred == 3


class TestLifecycle:
    def make_lifecycle(self, drift_rate=0.6):
        gen = FoodDatasetGenerator(seed=2, drift_rate=drift_rate, class_spread=0.8)
        return MLOpsLifecycle(gen, seed=2)

    def test_initial_deploy_creates_production_v1(self):
        lc = self.make_lifecycle()
        v = lc.initial_deploy()
        assert v == 1
        assert lc.client.registry.production(MLOpsLifecycle.MODEL_NAME).version == 1

    def test_step_requires_deploy(self):
        lc = self.make_lifecycle()
        with pytest.raises(ValidationError):
            lc.step(1.0)

    def test_drift_triggers_retraining_and_promotion(self):
        lc = self.make_lifecycle()
        lc.initial_deploy()
        report = lc.run(until=8.0, dt=1.0)
        assert report.retrain_count >= 1
        assert report.promote_count >= 2  # initial + at least one retrain
        prod = lc.client.registry.production(MLOpsLifecycle.MODEL_NAME)
        assert prod.version > 1

    def test_managed_system_beats_unmanaged(self):
        """The course's core lesson, measured: the loop preserves accuracy."""
        lc = self.make_lifecycle()
        lc.initial_deploy()
        lc.run(until=8.0, dt=1.0)
        managed_final = lc.report.accuracy_series()[-1][1]

        gen = FoodDatasetGenerator(seed=2, drift_rate=0.6, class_spread=0.8)
        stale = FoodClassifier().fit(gen.sample(2000, time=0.0, seed=50))
        unmanaged_final = stale.accuracy(gen.sample(1000, time=8.0, seed=51))
        assert managed_final > unmanaged_final + 0.1

    def test_no_drift_no_retraining(self):
        lc = self.make_lifecycle(drift_rate=0.0)
        lc.initial_deploy()
        report = lc.run(until=6.0, dt=1.0)
        assert report.retrain_count == 0
        assert lc.client.registry.production(MLOpsLifecycle.MODEL_NAME).version == 1

    def test_runs_logged_to_tracking(self):
        lc = self.make_lifecycle()
        lc.initial_deploy()
        lc.run(until=8.0, dt=1.0)
        exp = lc.client.store.get_experiment_by_name("gourmetgram-retrain")
        assert len(exp.run_ids) >= 2  # initial train + retrains
        best = lc.client.store.best_run(exp.id, "val_accuracy", mode="max")
        assert best.latest_metric("val_accuracy") > 0.8

    def test_model_artifacts_stored_and_loadable(self):
        lc = self.make_lifecycle()
        lc.initial_deploy()
        prod = lc.client.registry.production(MLOpsLifecycle.MODEL_NAME)
        payload = lc.client.artifacts.get_artifact(
            prod.run_id, f"models/{MLOpsLifecycle.MODEL_NAME}/weights.bin"
        )
        restored = FoodClassifier.from_bytes(payload)
        assert restored.is_trained

    def test_accuracy_recovers_after_promotion(self):
        lc = self.make_lifecycle()
        lc.initial_deploy()
        report = lc.run(until=10.0, dt=1.0)
        series = report.accuracy_series()
        promos = [e.time for e in report.of_kind("promote") if e.time > 0]
        assert promos, "expected at least one retrain promotion"
        t_promo = promos[0]
        before = [a for t, a in series if t <= t_promo][-1]
        after = [a for t, a in series if t > t_promo]
        assert after and max(after) > before
