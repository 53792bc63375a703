"""The batched learning-rate fit must reproduce the scalar fit bit for bit.

Every comparison here uses ``==`` on floats, never ``approx``: the batched
path (one broadcast grid plus a lockstep bounded Brent) is only a valid
replacement for the per-worker loop if it returns the very same bits, so
that selections, reports and checkpoints do not move.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as spo

from repro.core.lge import LGEConfig, LearningGainEstimator
from repro.irt.fitting import (
    AlphaFitBatch,
    AlphaFitObservation,
    fit_learning_rate,
    fit_learning_rate_batch,
    sum_of_squares,
    sum_of_squares_batch,
)
from repro.irt.learning_curve import LearningCurveModel
from repro.stats.optimize import _bounded_brent_batch, minimize_scalar_bounded, minimize_scalar_bounded_batch

# --------------------------------------------------------------------------- #
# minimize_scalar_bounded_batch against minimize_scalar_bounded


# Each works on a scalar and, elementwise with the same float ops, on an array.
LANE_FUNCTIONS = [
    lambda x: (x - 0.3) * (x - 0.3),
    lambda x: np.sin(10 * x) + 0.5 * ((x - 0.8) * (x - 0.8)),  # multi-modal
    lambda x: np.abs(x - 1.7),
    lambda x: x,  # minimum at the lower bound
    lambda x: -x,  # minimum at the upper bound
    lambda x: 0.0 * x,  # flat
    lambda x: np.cos(3 * x) * np.exp(-x),
]


class TestMinimizeScalarBoundedBatch:
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.0, 2.0), (-3.0, 4.5)])
    @pytest.mark.parametrize("n_grid", [1, 2, 25, 60])
    def test_every_lane_matches_scalar_routine(self, bounds, n_grid):
        def objective_batch(points):
            return np.stack([function(points[lane]) for lane, function in enumerate(LANE_FUNCTIONS)])

        lower, upper = bounds
        batch = minimize_scalar_bounded_batch(objective_batch, lower, upper, len(LANE_FUNCTIONS), n_grid=n_grid)
        for lane, function in enumerate(LANE_FUNCTIONS):
            assert batch[lane] == minimize_scalar_bounded(function, lower, upper, n_grid=n_grid), lane

    def test_brent_port_matches_scipy_on_plateaus(self):
        # Rounded objectives have plateaus, so Brent meets exact ties in
        # every comparison; each lane must follow scipy's branches exactly.
        rng = np.random.default_rng(0)
        scales = rng.choice([1.0, 2.0, 5.0, 10.0], 40)
        centres = rng.uniform(-1.0, 2.0, 40)
        digits = rng.choice([0, 1, 2], 40)

        def lane(index, x):
            return np.round(scales[index] * np.abs(x - centres[index]), digits[index]) + np.round(
                np.sin(scales[index] * x), digits[index]
            )

        def objective_batch(points):
            return np.stack([lane(index, points[index]) for index in range(40)])

        for lower, upper in [(-0.39, 0.86), (0.0, 2.0), (-2.0, 3.0)]:
            x, fun, success = _bounded_brent_batch(objective_batch, np.full(40, lower), np.full(40, upper))
            for index in range(40):
                result = spo.minimize_scalar(
                    lambda point: lane(index, point), bounds=(lower, upper), method="bounded"
                )
                assert (x[index], fun[index], success[index]) == (result.x, result.fun, result.success)

    def test_zero_lanes(self):
        assert minimize_scalar_bounded_batch(lambda x: x, 0.0, 1.0, 0).shape == (0,)

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_invalid_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            minimize_scalar_bounded_batch(lambda x: x, *bounds, n_lanes=2)

    def test_objective_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            minimize_scalar_bounded_batch(lambda x: x[:, 0], 0.0, 1.0, n_lanes=3)


# --------------------------------------------------------------------------- #
# fit_learning_rate_batch against fit_learning_rate


def stack_rows(rows):
    """Stack ragged per-worker observation lists, padding with zero-weight terms."""
    width = max((len(row) for row in rows), default=0)
    arrays = np.zeros((4, len(rows), width))
    for index, row in enumerate(rows):
        for column, obs in enumerate(row):
            arrays[:, index, column] = (obs.exposure, obs.difficulty, obs.observed_accuracy, obs.weight)
    return AlphaFitBatch(*arrays, has_observations=[len(row) > 0 for row in rows])


exposures = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=5.0, max_value=500.0),
)
weights = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=80.0))
observations = st.builds(
    AlphaFitObservation,
    exposure=exposures,
    difficulty=st.floats(min_value=-4.0, max_value=4.0),
    observed_accuracy=st.floats(min_value=0.0, max_value=1.0),
    weight=weights,
)


@st.composite
def flat_rows(draw):
    """All exposures 0: the prediction ignores alpha, so the objective is flat."""
    size = draw(st.integers(min_value=1, max_value=5))
    return [
        AlphaFitObservation(0.0, draw(st.floats(-2, 2)), draw(st.floats(0, 1)), draw(weights))
        for _ in range(size)
    ]


@st.composite
def zero_weight_rows(draw):
    """Real observations that all carry zero weight (not the same as no observations)."""
    row = draw(st.lists(observations, min_size=1, max_size=5))
    return [AlphaFitObservation(o.exposure, o.difficulty, o.observed_accuracy, 0.0) for o in row]


@st.composite
def bound_rows(draw):
    """Perfect (or zero) accuracy after training: the optimum sits on a bound."""
    target = draw(st.sampled_from([0.0, 1.0]))
    size = draw(st.integers(min_value=1, max_value=4))
    return [
        AlphaFitObservation(
            draw(st.floats(5.0, 200.0)), draw(st.floats(-1, 1)), target, draw(st.floats(0.5, 20))
        )
        for _ in range(size)
    ]


rows = st.one_of(
    st.lists(observations, min_size=0, max_size=9),
    st.just([]),
    flat_rows(),
    zero_weight_rows(),
    bound_rows(),
)
alpha_bounds = st.one_of(
    st.just((0.0, 10.0)),
    st.tuples(st.floats(-5.0, 5.0), st.floats(0.05, 20.0)).map(lambda pair: (pair[0], pair[0] + pair[1])),
)


def _assert_rows_match(row_lists, bounds, n_grid):
    batch = stack_rows(row_lists)
    fitted = fit_learning_rate_batch(batch, bounds=bounds, n_grid=n_grid)
    assert fitted.shape == (len(row_lists),)
    for index, row in enumerate(row_lists):
        assert fitted[index] == fit_learning_rate(row, bounds=bounds, n_grid=n_grid), index


class TestFitLearningRateBatch:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(rows, min_size=1, max_size=8), alpha_bounds, st.integers(min_value=1, max_value=60))
    def test_rows_match_scalar_fit(self, row_lists, bounds, n_grid):
        _assert_rows_match(row_lists, bounds, n_grid)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(rows, min_size=1, max_size=6))
    def test_rows_match_scalar_fit_default_settings(self, row_lists):
        batch = stack_rows(row_lists)
        fitted = fit_learning_rate_batch(batch)
        for index, row in enumerate(row_lists):
            assert fitted[index] == fit_learning_rate(row), index

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(observations, min_size=1, max_size=6),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5),
    )
    def test_objective_matches_scalar_sum(self, row, alphas):
        batch = stack_rows([row, []])
        candidates = np.array([alphas, alphas])
        values = sum_of_squares_batch(candidates, batch)
        for column, alpha in enumerate(alphas):
            assert values[0, column] == sum_of_squares(alpha, row)
            assert values[1, column] == 0.0

    def test_empty_row_differs_from_all_zero_weight_row(self):
        zero_weight = [AlphaFitObservation(10.0, 0.0, 0.9, weight=0.0)]
        bounds = (1.0, 4.0)
        fitted = fit_learning_rate_batch(stack_rows([[], zero_weight]), bounds=bounds)
        assert fitted[0] == 1.0 == fit_learning_rate([], bounds=bounds)
        assert fitted[1] == fit_learning_rate(zero_weight, bounds=bounds)

    def test_optima_reach_both_bounds(self):
        high = [AlphaFitObservation(50.0, 0.0, 1.0), AlphaFitObservation(100.0, 0.0, 1.0)]
        low = [AlphaFitObservation(50.0, 0.0, 0.0), AlphaFitObservation(100.0, 0.0, 0.0)]
        fitted = fit_learning_rate_batch(stack_rows([high, low]), bounds=(0.0, 3.0))
        assert fitted[0] == fit_learning_rate(high, bounds=(0.0, 3.0))
        assert fitted[1] == fit_learning_rate(low, bounds=(0.0, 3.0))
        assert fitted[0] == pytest.approx(3.0, abs=1e-3)
        assert fitted[1] == pytest.approx(0.0, abs=1e-3)

    def test_no_workers(self):
        assert fit_learning_rate_batch(stack_rows([])).shape == (0,)


# --------------------------------------------------------------------------- #
# LearningGainEstimator.estimate against the per-worker scalar path


def scalar_observations(estimator, accuracies, counts, cpe_history, cumulative_exposures):
    """One worker's Eq. (11) terms, built the per-worker way (the oracle)."""
    config = estimator.config
    by_exposure = config.weight_anchors_by_exposure
    observations = []
    for domain, accuracy in enumerate(accuracies):
        if np.isnan(accuracy):
            continue  # Section IV-E: drop terms for missing prior domains.
        exposure = float(max(counts[domain], 0.0))
        observations.append(
            AlphaFitObservation(
                exposure=exposure,
                difficulty=float(estimator.prior_difficulties[domain]),
                observed_accuracy=float(accuracy),
                weight=config.prior_anchor_weight * (exposure if by_exposure else 1.0),
            )
        )
    for stage, cpe_estimate in enumerate(cpe_history, start=1):
        before = float(cumulative_exposures[stage - 1])
        after = float(cumulative_exposures[stage])
        round_tasks = max(after - before, 0.0)
        observations.append(
            AlphaFitObservation(
                exposure=0.5 * (before + after) if config.anchor_at_midpoint else before,
                difficulty=config.target_difficulty,
                observed_accuracy=float(np.clip(cpe_estimate, 0.0, 1.0)),
                weight=config.target_anchor_weight * (round_tasks if by_exposure else 1.0),
            )
        )
    return observations


@st.composite
def estimate_inputs(draw):
    n_domains = draw(st.integers(min_value=1, max_value=4))
    n_workers = draw(st.integers(min_value=1, max_value=7))
    n_rounds = draw(st.integers(min_value=0, max_value=4))
    accuracy = st.one_of(st.just(math.nan), st.floats(0.0, 1.0))
    count = st.one_of(st.just(0.0), st.floats(-5.0, 300.0))
    accuracies = np.array([[draw(accuracy) for _ in range(n_domains)] for _ in range(n_workers)])
    counts = np.array([[draw(count) for _ in range(n_domains)] for _ in range(n_workers)])
    # Cumulative exposures need not be monotone: negative round sizes clamp to 0.
    cumulative = [0.0] + [draw(st.floats(0.0, 200.0)) for _ in range(n_rounds)]
    histories = {
        f"w{row}": [draw(st.floats(-0.2, 1.2)) for _ in range(draw(st.integers(0, n_rounds)))]
        for row in range(n_workers)
    }
    config = LGEConfig(
        target_initial_accuracy=draw(st.floats(0.05, 0.95)),
        alpha_bounds=draw(alpha_bounds),
        prior_anchor_weight=draw(st.floats(0.0, 2.0)),
        target_anchor_weight=draw(st.floats(0.0, 2.0)),
        weight_anchors_by_exposure=draw(st.booleans()),
        anchor_at_midpoint=draw(st.booleans()),
    )
    means = [draw(st.floats(0.05, 0.95)) for _ in range(n_domains)]
    return config, means, accuracies, counts, cumulative, histories


class TestEstimateMatchesScalarPath:
    @settings(max_examples=60, deadline=None)
    @given(estimate_inputs(), st.one_of(st.none(), st.floats(0.0, 400.0)))
    def test_alphas_and_estimates_bit_identical(self, inputs, prediction_exposure):
        config, means, accuracies, counts, cumulative, histories = inputs
        estimator = LearningGainEstimator([f"d{i}" for i in range(len(means))], means, config)
        worker_ids = sorted(histories)
        estimates = estimator.estimate(
            worker_ids, accuracies, counts, histories, cumulative, prediction_exposure=prediction_exposure
        )
        exposure = cumulative[-1] if prediction_exposure is None else prediction_exposure
        fitted = estimator.fitted_alphas
        for row, worker_id in enumerate(worker_ids):
            history = histories[worker_id]
            terms = scalar_observations(
                estimator, accuracies[row], counts[row], history, cumulative[: len(history) + 1]
            )
            alpha = fit_learning_rate(terms, bounds=config.alpha_bounds)
            assert fitted[worker_id] == alpha, worker_id
            expected = LearningCurveModel(alpha, config.target_difficulty).probability(exposure)
            assert estimates[row] == expected, worker_id

    def test_fit_worker_is_the_one_row_case(self):
        estimator = LearningGainEstimator(["d1", "d2"], [0.7, 0.85])
        accuracies = np.array([0.75, np.nan])
        counts = np.array([30.0, 0.0])
        alpha = estimator.fit_worker("w", accuracies, counts, [0.6, 0.7], [0.0, 10.0, 30.0])
        terms = scalar_observations(estimator, accuracies, counts, [0.6, 0.7], [0.0, 10.0, 30.0])
        assert alpha == fit_learning_rate(terms) == estimator.fitted_alphas["w"]
