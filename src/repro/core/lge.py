"""Learning Gain Estimation (LGE, Algorithm 2).

Static estimators undervalue workers who improve quickly during training.
LGE refits, every round, a per-worker learning curve (the modified Rasch
model of Eq. 10) against two kinds of evidence and then *projects* each
worker's accuracy forward along the curve:

* prior-domain anchor points: the learning-curve prediction at exposure
  ``n_{i,d}`` and difficulty ``beta_d`` should match the worker's historical
  accuracy ``h_{i,d}``;
* target-domain anchor points: the prediction at exposure ``K_{j-1}`` and
  difficulty ``beta_T`` should match the CPE estimate ``p_{j,i}`` of every
  completed round ``j`` (the CPE of round ``j`` reflects a worker trained
  with ``j - 1`` revealed batches, hence the index shift).

The fitted ``alpha_i`` then yields the LGE-adjusted estimate
``p_hat_{c,i} = g(alpha_i, beta_T, K_c)`` used for elimination, and can be
extrapolated to the end of training (``K_n``) for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.irt.difficulty import difficulty_from_accuracy
from repro.irt.fitting import AlphaFitBatch, fit_learning_rate_batch
from repro.irt.learning_curve import LearningCurveModel
from repro.irt.rasch import sigmoid


@dataclass
class LGEConfig:
    """Configuration of the LGE estimator.

    Attributes
    ----------
    target_initial_accuracy:
        The assumed pre-training accuracy on the target domain (the paper's
        ``a_T``); it defines the target difficulty ``beta_T = ln(1/a_T - 1)``
        and is the knob Figure 5 sweeps.
    alpha_bounds:
        Search interval for the per-worker learning rate.
    prior_anchor_weight, target_anchor_weight:
        Relative weights of the two residual groups in Eq. (11).  The paper
        weights them equally; the default here discounts the prior-domain
        anchors to 0.5 because they inform the target-domain learning rate
        only through the assumption that learning ability transfers across
        domains, which is weaker evidence than direct target-domain rounds.
    weight_anchors_by_exposure:
        When ``True`` (default) every residual is additionally weighted by
        the number of tasks behind its observation (heteroscedastic least
        squares: an anchor backed by 80 answered tasks is trusted more than
        one backed by 10).  This keeps the handful of prior-domain anchors
        from drowning out the accumulating target-domain evidence in later
        rounds.  Set to ``False`` for the paper's literal equal weighting.
    anchor_at_midpoint:
        Where along the training curve the round-``j`` CPE estimate is
        anchored.  ``True`` (default) uses the middle of round ``j``'s
        exposure window, matching the batch-granular simulator in which a
        round's answers are produced while the worker is still learning;
        ``False`` uses the paper's ``K_{j-1}`` (the exposure at the start of
        the round).
    """

    target_initial_accuracy: float = 0.5
    alpha_bounds: Tuple[float, float] = (0.0, 10.0)
    prior_anchor_weight: float = 0.5
    target_anchor_weight: float = 1.0
    weight_anchors_by_exposure: bool = True
    anchor_at_midpoint: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.target_initial_accuracy < 1.0:
            raise ValueError("target_initial_accuracy must lie in (0, 1)")
        low, high = self.alpha_bounds
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError(f"alpha_bounds must be finite, got {self.alpha_bounds}")
        if high <= low:
            raise ValueError("alpha_bounds must satisfy low < high")
        if self.prior_anchor_weight < 0 or self.target_anchor_weight < 0:
            raise ValueError("anchor weights must be non-negative")

    @property
    def target_difficulty(self) -> float:
        """``beta_T`` implied by the initial target accuracy."""
        return float(difficulty_from_accuracy(self.target_initial_accuracy))


class LearningGainEstimator:
    """Per-worker learning-curve fitting and forward projection."""

    def __init__(
        self,
        prior_domains: Sequence[str],
        prior_domain_mean_accuracies: Sequence[float],
        config: Optional[LGEConfig] = None,
    ) -> None:
        if len(prior_domains) != len(prior_domain_mean_accuracies):
            raise ValueError("prior_domains and prior_domain_mean_accuracies must align")
        self._prior_domains = list(prior_domains)
        self._config = config or LGEConfig()
        self._prior_difficulties = np.atleast_1d(
            difficulty_from_accuracy(np.asarray(prior_domain_mean_accuracies, dtype=float))
        )
        self._fitted_alphas: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> LGEConfig:
        return self._config

    @property
    def prior_difficulties(self) -> np.ndarray:
        """Per-prior-domain difficulties ``beta_d = ln(1/a_d - 1)``."""
        return self._prior_difficulties.copy()

    @property
    def target_difficulty(self) -> float:
        return self._config.target_difficulty

    @property
    def fitted_alphas(self) -> Dict[str, float]:
        """Most recent fitted learning rate per worker id."""
        return dict(self._fitted_alphas)

    # ------------------------------------------------------------------ #
    def _observation_batch(
        self,
        accuracies: np.ndarray,
        counts: np.ndarray,
        histories: Sequence[Sequence[float]],
        cumulative_exposures: Sequence[float],
    ) -> AlphaFitBatch:
        """The Eq. (11) terms of every worker as ``(workers x (D + C))`` arrays.

        Column ``d < D`` is the prior-domain-``d`` anchor: the prediction at
        exposure ``max(n_{i,d}, 0)`` and difficulty ``beta_d`` should match
        ``h_{i,d}``.  Column ``D + j - 1`` is the round-``j`` target anchor:
        the prediction at the round's anchor exposure and ``beta_T`` should
        match the clipped CPE estimate ``p_{j,i}``.  Each term is weighted by
        its anchor weight, times its task count when
        ``weight_anchors_by_exposure``.  Missing prior domains (NaN accuracy,
        Section IV-E) and rounds past a worker's history become zero-weight
        terms.  :class:`AlphaFitBatch` rejects non-finite terms.
        """
        config = self._config
        n_domains = len(self._prior_domains)
        if accuracies.shape[1] < n_domains or counts.shape[1] < n_domains:
            raise ValueError(f"historical matrices need at least {n_domains} domain columns")
        accuracies = accuracies[:, :n_domains]
        counts = counts[:, :n_domains]
        n_workers = accuracies.shape[0]
        lengths = np.array([len(history) for history in histories], dtype=int)
        n_stages = int(lengths.max(initial=0))
        if len(cumulative_exposures) < n_stages + 1:
            raise ValueError("cumulative_exposures must have exactly one more entry than cpe_history")

        # Prior-domain anchors.  Negative counts clamp to 0 but NaN stays NaN,
        # so a NaN count next to a present accuracy fails validation.
        present = ~np.isnan(accuracies)
        prior_exposures = np.where(counts < 0.0, 0.0, counts)
        prior_weights = config.prior_anchor_weight * (
            prior_exposures if config.weight_anchors_by_exposure else np.ones_like(prior_exposures)
        )

        # Target-domain anchors, shared by all workers up to each history length.
        cumulative = np.asarray(cumulative_exposures[: n_stages + 1], dtype=float)
        before, after = cumulative[:-1], cumulative[1:]
        anchors = 0.5 * (before + after) if config.anchor_at_midpoint else before
        round_tasks = after - before
        round_tasks = np.where(round_tasks < 0.0, 0.0, round_tasks)
        target_weights = config.target_anchor_weight * (
            round_tasks if config.weight_anchors_by_exposure else np.ones_like(round_tasks)
        )
        cpe = np.zeros((n_workers, n_stages))
        for row, history in enumerate(histories):
            cpe[row, : len(history)] = history
        in_history = np.arange(n_stages) < lengths[:, None]

        exposures = np.hstack([np.where(present, prior_exposures, 0.0), np.broadcast_to(anchors, cpe.shape)])
        difficulties = np.hstack(
            [
                np.broadcast_to(self._prior_difficulties, accuracies.shape),
                np.full(cpe.shape, config.target_difficulty),
            ]
        )
        observed = np.hstack(
            [np.where(present, accuracies, 0.0), np.where(in_history, np.clip(cpe, 0.0, 1.0), 0.0)]
        )
        weights = np.hstack([np.where(present, prior_weights, 0.0), np.where(in_history, target_weights, 0.0)])
        return AlphaFitBatch(
            exposures=exposures,
            difficulties=difficulties,
            observed_accuracies=observed,
            weights=weights,
            has_observations=present.any(axis=1) | (lengths > 0),
        )

    def _fit_rows(
        self,
        worker_ids: Sequence[str],
        accuracies: np.ndarray,
        counts: np.ndarray,
        histories: Sequence[Sequence[float]],
        cumulative_exposures: Sequence[float],
    ) -> np.ndarray:
        """Fit, store and return the learning rates of all rows in one batch."""
        batch = self._observation_batch(accuracies, counts, histories, cumulative_exposures)
        alphas = fit_learning_rate_batch(batch, bounds=self._config.alpha_bounds)
        for worker_id, alpha in zip(worker_ids, alphas.tolist()):
            self._fitted_alphas[worker_id] = alpha
        return alphas

    def fit_worker(
        self,
        worker_id: str,
        historical_accuracies: np.ndarray,
        historical_counts: np.ndarray,
        cpe_history: Sequence[float],
        cumulative_exposures: Sequence[float],
    ) -> float:
        """Fit and store the learning rate ``alpha_i`` for one worker.

        The one-row case of the batched fit behind :meth:`estimate`.

        Parameters
        ----------
        cpe_history:
            CPE estimates ``p_{1,i} .. p_{c,i}`` of the completed rounds.
        cumulative_exposures:
            ``K_0 .. K_c``: the cumulative learning tasks a surviving worker
            has been trained with before each round (``K_0 = 0``) and after
            the current one.  Must have one more entry than ``cpe_history``.
        """
        if len(cumulative_exposures) != len(cpe_history) + 1:
            raise ValueError("cumulative_exposures must have exactly one more entry than cpe_history")
        alphas = self._fit_rows(
            [worker_id],
            np.atleast_2d(np.asarray(historical_accuracies, dtype=float)),
            np.atleast_2d(np.asarray(historical_counts, dtype=float)),
            [list(cpe_history)],
            cumulative_exposures,
        )
        return float(alphas[0])

    def predict_worker(self, worker_id: str, exposure: float) -> float:
        """Learning-curve prediction for a previously fitted worker."""
        if worker_id not in self._fitted_alphas:
            raise KeyError(f"worker {worker_id!r} has not been fitted")
        model = LearningCurveModel(
            learning_rate=self._fitted_alphas[worker_id],
            difficulty=self._config.target_difficulty,
        )
        return float(model.probability(exposure))

    # ------------------------------------------------------------------ #
    def estimate(
        self,
        worker_ids: Sequence[str],
        historical_accuracies: np.ndarray,
        historical_counts: np.ndarray,
        cpe_histories: Mapping[str, Sequence[float]],
        cumulative_exposures: Sequence[float],
        prediction_exposure: Optional[float] = None,
    ) -> np.ndarray:
        """Algorithm 2 over all remaining workers.

        Parameters
        ----------
        worker_ids:
            The remaining workers ``W_c`` (row order of the matrices).
        historical_accuracies, historical_counts:
            ``(|W_c| x D)`` matrices of prior-domain accuracies/task counts.
        cpe_histories:
            Per worker, the CPE estimates of every completed round.
        cumulative_exposures:
            ``K_0 .. K_c`` shared by all surviving workers.
        prediction_exposure:
            Exposure at which to report the estimate; defaults to the last
            entry of ``cumulative_exposures`` (i.e. ``K_c``, Algorithm 2
            line 15).

        Returns
        -------
        numpy.ndarray
            The LGE-adjusted accuracy estimate ``p_hat_{c,i}`` per worker.
        """
        accuracies = np.atleast_2d(np.asarray(historical_accuracies, dtype=float))
        counts = np.atleast_2d(np.asarray(historical_counts, dtype=float))
        if accuracies.shape[0] != len(worker_ids) or counts.shape[0] != len(worker_ids):
            raise ValueError("matrix rows must align with worker_ids")
        exposure = (
            float(prediction_exposure)
            if prediction_exposure is not None
            else float(cumulative_exposures[-1])
        )
        if len(worker_ids) == 0:
            return np.zeros(0)
        if exposure < 0:
            raise ValueError("exposure (cumulative learning tasks) must be non-negative")
        histories = [list(cpe_histories.get(worker_id, [])) for worker_id in worker_ids]
        alphas = self._fit_rows(worker_ids, accuracies, counts, histories, cumulative_exposures)
        return sigmoid(alphas * np.log1p(exposure) - self._config.target_difficulty)


__all__ = ["LGEConfig", "LearningGainEstimator"]
