"""Tests for the Learning Gain Estimator (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lge import LGEConfig, LearningGainEstimator
from repro.irt.learning_curve import LearningCurveModel


def make_estimator(**config_kwargs) -> LearningGainEstimator:
    config = LGEConfig(**config_kwargs)
    return LearningGainEstimator(
        prior_domains=["d1", "d2"],
        prior_domain_mean_accuracies=[0.7, 0.85],
        config=config,
    )


class TestConfig:
    def test_target_difficulty_from_at(self):
        config = LGEConfig(target_initial_accuracy=0.5)
        assert config.target_difficulty == pytest.approx(0.0)
        harder = LGEConfig(target_initial_accuracy=0.3)
        assert harder.target_difficulty > 0

    def test_invalid_at_rejected(self):
        with pytest.raises(ValueError):
            LGEConfig(target_initial_accuracy=1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LGEConfig(alpha_bounds=(2.0, 1.0))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LGEConfig(prior_anchor_weight=-1.0)

    @pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            LGEConfig(alpha_bounds=bounds)


class TestFitWorker:
    def test_exposure_history_length_validated(self):
        estimator = make_estimator()
        with pytest.raises(ValueError):
            estimator.fit_worker("w", np.array([0.7, 0.8]), np.array([10, 10]), [0.6], [0.0])

    def test_fast_learner_gets_larger_alpha(self):
        estimator = make_estimator()
        accuracies = np.array([0.7, 0.85])
        counts = np.array([10.0, 10.0])
        exposures = [0.0, 10.0, 30.0]
        slow = estimator.fit_worker("slow", accuracies, counts, [0.52, 0.55], exposures)
        fast = estimator.fit_worker("fast", accuracies, counts, [0.60, 0.85], exposures)
        assert fast > slow

    def test_missing_prior_domains_are_skipped(self):
        estimator = make_estimator()
        alpha = estimator.fit_worker(
            "w", np.array([np.nan, np.nan]), np.array([0.0, 0.0]), [0.7, 0.8], [0.0, 10.0, 30.0]
        )
        assert np.isfinite(alpha)
        assert alpha >= 0

    def test_predict_requires_fit(self):
        estimator = make_estimator()
        with pytest.raises(KeyError):
            estimator.predict_worker("unknown", 10.0)

    def test_prediction_uses_fitted_curve(self):
        estimator = make_estimator()
        alpha = estimator.fit_worker(
            "w", np.array([0.75, 0.9]), np.array([10.0, 10.0]), [0.6, 0.7], [0.0, 10.0, 30.0]
        )
        expected = LearningCurveModel(alpha, estimator.target_difficulty).probability(30.0)
        assert estimator.predict_worker("w", 30.0) == pytest.approx(expected)

    def test_prediction_monotone_in_exposure(self):
        estimator = make_estimator()
        estimator.fit_worker("w", np.array([0.8, 0.9]), np.array([10.0, 10.0]), [0.65, 0.8], [0.0, 10.0, 30.0])
        assert estimator.predict_worker("w", 60.0) >= estimator.predict_worker("w", 30.0)


class TestEstimateBatch:
    def worker_matrices(self):
        worker_ids = ["w0", "w1", "w2"]
        accuracies = np.array([[0.85, 0.9], [0.65, 0.7], [0.45, 0.55]])
        counts = np.full((3, 2), 10.0)
        return worker_ids, accuracies, counts

    def test_output_shape_and_range(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.8], "w1": [0.6], "w2": [0.45]}
        estimates = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0])
        assert estimates.shape == (3,)
        assert np.all((estimates >= 0.0) & (estimates <= 1.0))

    def test_ranking_follows_cpe_histories(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.85], "w1": [0.6], "w2": [0.4]}
        estimates = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 20.0])
        assert estimates[0] > estimates[1] > estimates[2]

    def test_row_alignment_validated(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        with pytest.raises(ValueError):
            estimator.estimate(worker_ids[:2], accuracies, counts, {}, [0.0, 10.0])

    def test_prediction_exposure_override(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.8], "w1": [0.7], "w2": [0.6]}
        near = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0], prediction_exposure=10.0)
        far = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0], prediction_exposure=200.0)
        assert np.all(far >= near - 1e-9)

    def test_nan_task_count_next_to_present_accuracy_rejected(self):
        # A NaN count used to slip through as a NaN exposure and drag the
        # fit to alpha = 0 (estimate 0.5) without any error.
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        counts[1, 0] = np.nan
        histories = {"w0": [0.8], "w1": [0.6], "w2": [0.45]}
        with pytest.raises(ValueError, match="finite"):
            estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0])

    def test_nan_task_count_of_missing_domain_ignored(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.8], "w1": [0.6], "w2": [0.45]}
        reference = estimator.estimate(worker_ids, accuracies.copy(), counts, histories, [0.0, 10.0])
        accuracies[1, 0] = np.nan
        counts[1, 0] = np.nan
        estimates = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0])
        assert np.isfinite(estimates).all()
        assert estimates[0] == reference[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cumulative_exposure_rejected(self, value):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.8], "w1": [0.6], "w2": [0.45]}
        with pytest.raises(ValueError):
            estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, value])

    def test_history_longer_than_exposures_rejected(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.8, 0.9], "w1": [0.6], "w2": [0.45]}
        with pytest.raises(ValueError, match="one more entry"):
            estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0])

    def test_fitted_alphas_recorded(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        estimator.estimate(worker_ids, accuracies, counts, {"w0": [0.7], "w1": [0.6], "w2": [0.5]}, [0.0, 10.0])
        assert set(estimator.fitted_alphas) == set(worker_ids)

    def test_prior_difficulties_exposed(self):
        estimator = make_estimator()
        betas = estimator.prior_difficulties
        assert betas.shape == (2,)
        assert betas[0] > betas[1]  # easier domain (0.85 mean) has lower difficulty
