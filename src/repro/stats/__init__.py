"""Statistical substrate used throughout the reproduction.

The cross-domain worker-selection algorithm of the paper rests on a handful
of numerical building blocks:

* a multivariate normal model over per-domain worker accuracies with a
  stable ``(sigma, rho)`` parameterisation and conditional-distribution
  machinery (:mod:`repro.stats.mvn`);
* truncated multivariate / univariate normal sampling for synthetic worker
  generation (:mod:`repro.stats.truncated`);
* fixed Gauss--Legendre quadrature on ``(0, 1)`` for the marginal likelihood
  integral of Eq. (5) (:mod:`repro.stats.quadrature`);
* finite-difference gradient descent and bounded scalar minimisation used by
  the CPE / LGE estimators (:mod:`repro.stats.optimize`);
* correlation and bootstrap utilities for the dataset-consistency analysis
  of Table IV (:mod:`repro.stats.correlation`);
* seeded random-generator plumbing (:mod:`repro.stats.rng`).
"""

from repro.stats.correlation import (
    bootstrap_mean_ci,
    bucket_accuracies,
    bucketed_pearson,
    pearson_correlation,
)
from repro.stats.mvn import MultivariateNormalModel, nearest_positive_definite
from repro.stats.optimize import (
    GradientDescentResult,
    finite_difference_gradient,
    gradient_descent,
    minimize_scalar_bounded,
    minimize_scalar_bounded_batch,
)
from repro.stats.quadrature import GaussLegendreRule, unit_interval_rule
from repro.stats.rng import as_generator, spawn_generators
from repro.stats.truncated import (
    sample_truncated_mvn,
    sample_truncated_normal,
    truncated_normal_mean,
)

__all__ = [
    "MultivariateNormalModel",
    "nearest_positive_definite",
    "GaussLegendreRule",
    "unit_interval_rule",
    "GradientDescentResult",
    "finite_difference_gradient",
    "gradient_descent",
    "minimize_scalar_bounded",
    "minimize_scalar_bounded_batch",
    "sample_truncated_mvn",
    "sample_truncated_normal",
    "truncated_normal_mean",
    "pearson_correlation",
    "bucket_accuracies",
    "bucketed_pearson",
    "bootstrap_mean_ci",
    "as_generator",
    "spawn_generators",
]
