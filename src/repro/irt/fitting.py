"""Per-worker learning-rate fitting (Eq. 11).

Each round, the LGE component refits every remaining worker's learning
parameter ``alpha_i`` by least squares against two kinds of evidence:

* the worker's historical accuracy on every prior domain ``d``, matched by
  the learning-curve prediction at exposure ``n_{i,d}`` (the number of tasks
  the worker completed on that domain) and difficulty ``beta_d``;
* the CPE-estimated target-domain accuracy of every completed round ``j``,
  matched by the learning-curve prediction at exposure ``K_{j-1}`` (what the
  worker had been trained with when producing those answers) and difficulty
  ``beta_T``.

Both kinds reduce to generic ``(exposure, difficulty, observed accuracy)``
triples, so the fit is a bounded one-dimensional least-squares problem.

:func:`fit_learning_rate` fits one worker from a list of observations;
:func:`fit_learning_rate_batch` fits every worker at once from
``(workers x observations)`` arrays and returns the same bits.  Three rules
make the batched objective reproduce the scalar sum exactly:

* the squared residuals are accumulated one observation column at a time,
  in the scalar path's order (``np.sum``'s pairwise summation would
  reorder the additions);
* the residual is squared with ``np.float_power(d, 2.0)``, which calls libm
  ``pow`` like the scalar ``d ** 2`` on Python floats (``d * d`` and
  ``np.power`` round differently in the last bit for some ``d``);
* a missing observation is a zero-weight term: adding ``+0.0`` to a
  non-negative running sum leaves it bit-unchanged, so ragged rows need no
  compaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.irt.learning_curve import LearningCurveModel
from repro.irt.rasch import sigmoid
from repro.stats.optimize import minimize_scalar_bounded, minimize_scalar_bounded_batch

DEFAULT_ALPHA_BOUNDS = (0.0, 10.0)


@dataclass(frozen=True)
class AlphaFitObservation:
    """One ``(exposure, difficulty, observed accuracy)`` residual term of Eq. 11.

    Attributes
    ----------
    exposure:
        Cumulative number of tasks behind the observation (``n_{i,d}`` for a
        prior domain, ``K_{j-1}`` for a target-domain round).
    difficulty:
        The domain difficulty ``beta`` applicable to the observation.
    observed_accuracy:
        The accuracy the learning-curve prediction should match (historical
        accuracy ``h_{i,d}`` or CPE estimate ``p_{j,i}``).
    weight:
        Optional non-negative weight for the squared residual.
    """

    exposure: float
    difficulty: float
    observed_accuracy: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.exposure) and self.exposure >= 0):
            raise ValueError(f"exposure must be finite and non-negative, got {self.exposure}")
        if not math.isfinite(self.difficulty):
            raise ValueError(f"difficulty must be finite, got {self.difficulty}")
        if not 0.0 <= self.observed_accuracy <= 1.0:
            raise ValueError(f"observed_accuracy must lie in [0, 1], got {self.observed_accuracy}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"weight must be finite and non-negative, got {self.weight}")


@dataclass(frozen=True)
class AlphaFitBatch:
    """The Eq. (11) terms of many workers as ``(workers x observations)`` arrays.

    Row ``i`` holds worker ``i``'s terms in the order the scalar fit would
    sum them; a term with zero ``weight`` contributes nothing, which is how
    missing prior domains and ragged rows are padded.  ``has_observations``
    marks the rows that carry at least one real term (zero-weight real terms
    included): a row without any is fitted to the lower bound, exactly as
    :func:`fit_learning_rate` treats an empty observation list.

    Construction validates every entry like :class:`AlphaFitObservation`
    does, padding included.
    """

    exposures: np.ndarray
    difficulties: np.ndarray
    observed_accuracies: np.ndarray
    weights: np.ndarray
    has_observations: np.ndarray

    def __post_init__(self) -> None:
        for name in ("exposures", "difficulties", "observed_accuracies", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "has_observations", np.asarray(self.has_observations, dtype=bool))
        shape = self.exposures.shape
        if len(shape) != 2:
            raise ValueError(f"observation arrays must be 2-D (workers x observations), got shape {shape}")
        for name in ("difficulties", "observed_accuracies", "weights"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {getattr(self, name).shape}")
        if self.has_observations.shape != shape[:1]:
            raise ValueError(f"has_observations must have shape {shape[:1]}")
        if not np.all(np.isfinite(self.exposures) & (self.exposures >= 0)):
            raise ValueError("exposures must be finite and non-negative")
        if not np.all(np.isfinite(self.difficulties)):
            raise ValueError("difficulties must be finite")
        if not np.all((self.observed_accuracies >= 0.0) & (self.observed_accuracies <= 1.0)):
            raise ValueError("observed accuracies must lie in [0, 1]")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise ValueError("weights must be finite and non-negative")

    @property
    def n_workers(self) -> int:
        return self.exposures.shape[0]


def sum_of_squares(alpha: float, observations: Sequence[AlphaFitObservation]) -> float:
    """The Eq. (11) objective evaluated at a candidate ``alpha``."""
    total = 0.0
    for obs in observations:
        model = LearningCurveModel(learning_rate=alpha, difficulty=obs.difficulty)
        predicted = model.probability(obs.exposure)
        total += obs.weight * (predicted - obs.observed_accuracy) ** 2
    return total


def sum_of_squares_batch(alphas: np.ndarray, batch: AlphaFitBatch) -> np.ndarray:
    """The Eq. (11) objective of every worker at ``(workers x m)`` candidate alphas.

    Row ``i`` of ``alphas`` holds candidates for worker ``i``; entry
    ``[i, k]`` of the result equals ``sum_of_squares(alphas[i, k], row_i)``
    bit for bit (see the module docstring for why).
    """
    alphas = np.asarray(alphas, dtype=float)
    log_exposures = np.log1p(batch.exposures)
    total = np.zeros(alphas.shape)
    for column in range(log_exposures.shape[1]):
        predicted = sigmoid(alphas * log_exposures[:, column, None] - batch.difficulties[:, column, None])
        residual = predicted - batch.observed_accuracies[:, column, None]
        total = total + batch.weights[:, column, None] * np.float_power(residual, 2.0)
    return total


def fit_learning_rate_batch(
    batch: AlphaFitBatch,
    bounds: tuple[float, float] = DEFAULT_ALPHA_BOUNDS,
    n_grid: int = 40,
) -> np.ndarray:
    """:func:`fit_learning_rate` for every row of ``batch`` in one lockstep fit.

    Returns the ``(workers,)`` fitted alphas, each bit-identical to
    ``fit_learning_rate`` on that row's real observations.
    """
    lower, upper = bounds
    alphas = minimize_scalar_bounded_batch(
        lambda candidates: sum_of_squares_batch(candidates, batch),
        lower,
        upper,
        n_lanes=batch.n_workers,
        n_grid=n_grid,
    )
    return np.where(batch.has_observations, alphas, float(lower))


def fit_learning_rate(
    observations: Iterable[AlphaFitObservation],
    bounds: tuple[float, float] = DEFAULT_ALPHA_BOUNDS,
    n_grid: int = 40,
) -> float:
    """Least-squares estimate of the learning parameter ``alpha_i``.

    Parameters
    ----------
    observations:
        The residual terms assembled by the LGE estimator.
    bounds:
        Search interval for ``alpha``; the lower bound of 0 encodes the
        assumption that training never makes a worker worse in expectation.
    n_grid:
        Grid density for the global search that seeds the Brent refinement.

    Returns
    -------
    float
        The fitted ``alpha``; when no observations are supplied the lower
        bound is returned (a flat learning curve).
    """
    observation_list = list(observations)
    lower, upper = bounds
    if upper <= lower:
        raise ValueError("bounds must satisfy lower < upper")
    if not observation_list:
        return float(lower)
    return float(
        minimize_scalar_bounded(lambda a: sum_of_squares(a, observation_list), lower, upper, n_grid=n_grid)
    )


__all__ = [
    "AlphaFitBatch",
    "AlphaFitObservation",
    "DEFAULT_ALPHA_BOUNDS",
    "fit_learning_rate",
    "fit_learning_rate_batch",
    "sum_of_squares",
    "sum_of_squares_batch",
]
