"""Item-Response-Theory / knowledge-tracing substrate.

The paper's Learning Gain Estimation (LGE) component models the growth of a
worker's target-domain accuracy during training with a *modified* Rasch
(one-parameter logistic) model:

    p_hat(j, i, d) = sigmoid(alpha_i * ln(K_j + 1) - beta_d)        (Eq. 10)

where ``K_j`` is the cumulative number of learning tasks the worker has seen
by round ``j``, ``alpha_i`` the per-worker learning rate, and ``beta_d`` a
per-domain difficulty.  This package provides:

* the classic Rasch 1PL model (:mod:`repro.irt.rasch`);
* the paper's learning-curve variant (:mod:`repro.irt.learning_curve`);
* difficulty initialisation from average accuracies
  (:mod:`repro.irt.difficulty`);
* the per-worker least-squares fit of ``alpha`` (Eq. 11)
  (:mod:`repro.irt.fitting`);
* two additional knowledge-tracing families the paper surveys — Bayesian
  Knowledge Tracing and Performance Factor Analysis — implemented as
  optional alternatives for ablation studies
  (:mod:`repro.irt.bkt`, :mod:`repro.irt.pfa`).
"""

from repro.irt.bkt import BayesianKnowledgeTracing
from repro.irt.difficulty import accuracy_from_difficulty, difficulty_from_accuracy
from repro.irt.fitting import AlphaFitBatch, AlphaFitObservation, fit_learning_rate, fit_learning_rate_batch
from repro.irt.learning_curve import LearningCurveModel, cumulative_learning_tasks
from repro.irt.pfa import PerformanceFactorModel
from repro.irt.rasch import RaschModel, sigmoid

__all__ = [
    "RaschModel",
    "sigmoid",
    "LearningCurveModel",
    "cumulative_learning_tasks",
    "difficulty_from_accuracy",
    "accuracy_from_difficulty",
    "AlphaFitObservation",
    "AlphaFitBatch",
    "fit_learning_rate",
    "fit_learning_rate_batch",
    "BayesianKnowledgeTracing",
    "PerformanceFactorModel",
]
