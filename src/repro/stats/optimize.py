"""Optimisation helpers used by the CPE and LGE estimators.

Two flavours are needed:

* **Vector gradient descent** with finite-difference gradients for the
  maximum-likelihood update of the multivariate-normal parameters
  (Eq. 6-7).  The paper computes gradients by backpropagation; with only
  ``2(D+1) + (D+1)D/2`` free parameters (14 for the paper's ``D = 3``),
  central differences of a vectorised likelihood are both simpler and fast
  enough, and the resulting update rule is identical.
* **Bounded scalar minimisation** for the per-worker learning-rate fit of
  Eq. (11), wrapped around :func:`scipy.optimize.minimize_scalar`, plus a
  batched variant that minimises many independent objectives in lockstep
  (one broadcast grid, then a masked port of scipy's bounded Brent) and
  returns the scalar routine's results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as spo


@dataclass
class GradientDescentResult:
    """Outcome of a gradient-descent run."""

    parameters: np.ndarray
    objective: float
    objective_history: List[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False


def finite_difference_gradient(
    objective: Callable[[np.ndarray], float],
    parameters: np.ndarray,
    step: float = 1e-5,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Central finite-difference gradient of a scalar objective.

    Parameters
    ----------
    objective:
        Callable mapping a parameter vector to a scalar.
    parameters:
        Point at which to evaluate the gradient.
    step:
        Per-coordinate perturbation size.
    mask:
        Optional boolean vector; coordinates where it is ``False`` get a zero
        gradient (used to freeze parameters such as prior-domain means that
        the paper estimates directly from historical data).
    """
    parameters = np.asarray(parameters, dtype=float)
    gradient = np.zeros_like(parameters)
    for index in range(parameters.size):
        if mask is not None and not mask[index]:
            continue
        forward = parameters.copy()
        backward = parameters.copy()
        forward[index] += step
        backward[index] -= step
        gradient[index] = (objective(forward) - objective(backward)) / (2.0 * step)
    return gradient


def perturbation_stack(
    parameters: np.ndarray,
    step: float = 1e-5,
    mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``2M`` central-difference evaluation points as one stacked matrix.

    Returns
    -------
    (stack, indices):
        ``stack`` has shape ``(2M, P)`` where ``M`` is the number of free
        (unmasked) coordinates: row ``2j`` perturbs coordinate
        ``indices[j]`` by ``+step``, row ``2j + 1`` by ``-step``.
    """
    parameters = np.asarray(parameters, dtype=float)
    indices = (
        np.flatnonzero(np.asarray(mask, dtype=bool))
        if mask is not None
        else np.arange(parameters.size)
    )
    stack = np.tile(parameters, (2 * indices.size, 1))
    rows = np.arange(indices.size)
    stack[2 * rows, indices] += step
    stack[2 * rows + 1, indices] -= step
    return stack, indices


def finite_difference_gradient_batch(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    parameters: np.ndarray,
    step: float = 1e-5,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Central finite-difference gradient from ONE batched objective call.

    Numerically equivalent to :func:`finite_difference_gradient` but asks the
    objective for all ``2M`` perturbed parameter vectors at once, which lets
    a vectorised likelihood (e.g. the CPE's stacked Eq. (5) engine) amortise
    every per-evaluation invariant across the whole gradient.

    Parameters
    ----------
    objective_batch:
        Callable mapping a ``(batch, P)`` parameter matrix to a ``(batch,)``
        vector of objective values.
    parameters, step, mask:
        As in :func:`finite_difference_gradient`.
    """
    parameters = np.asarray(parameters, dtype=float)
    gradient = np.zeros_like(parameters)
    stack, indices = perturbation_stack(parameters, step=step, mask=mask)
    if indices.size == 0:
        return gradient
    values = np.asarray(objective_batch(stack), dtype=float)
    if values.shape != (stack.shape[0],):
        raise ValueError(
            f"objective_batch must return shape ({stack.shape[0]},), got {values.shape}"
        )
    gradient[indices] = (values[0::2] - values[1::2]) / (2.0 * step)
    return gradient


def batch_gradient(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    step: float = 1e-5,
    mask: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """A ``gradient`` hook for :func:`gradient_descent` backed by a batched objective."""

    def gradient(parameters: np.ndarray) -> np.ndarray:
        return finite_difference_gradient_batch(objective_batch, parameters, step=step, mask=mask)

    return gradient


def gradient_descent(
    objective: Callable[[np.ndarray], float],
    initial: np.ndarray,
    learning_rates: Sequence[float] | float,
    n_epochs: int,
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    mask: Optional[np.ndarray] = None,
    fd_step: float = 1e-5,
    tolerance: float = 1e-10,
    backtracking: bool = True,
    max_backtracks: int = 8,
) -> GradientDescentResult:
    """Minimise ``objective`` by (projected) gradient descent.

    Parameters
    ----------
    objective:
        Scalar function to minimise (the CPE uses the *negative*
        log-likelihood so that Eq. 6-7's ascent becomes a descent).
    initial:
        Starting parameter vector.
    learning_rates:
        Either a scalar or a per-coordinate vector of step sizes; the paper
        uses different rates for ``mu`` (1e-7) and ``Sigma`` (1e-4), which a
        per-coordinate vector expresses directly.
    n_epochs:
        Maximum number of update steps (the paper's ``G``).
    gradient:
        Optional analytic gradient; defaults to central finite differences.
    project:
        Optional projection applied after every step (e.g. clamping standard
        deviations positive and correlations to ``(-1, 1)``).
    mask:
        Optional boolean vector of trainable coordinates.
    tolerance:
        Early-stopping threshold on the objective improvement.
    backtracking:
        When ``True`` (default) a step that would *increase* the objective is
        retried with successively halved step sizes (up to
        ``max_backtracks``); if no improvement is found the descent stops.
        This keeps the CPE likelihood update monotone and prevents the
        parameter blow-ups a fixed step size can cause on steep likelihood
        surfaces.
    """
    parameters = np.asarray(initial, dtype=float).copy()
    rates = np.asarray(learning_rates, dtype=float)
    if rates.ndim == 0:
        rates = np.full_like(parameters, float(rates))
    if rates.shape != parameters.shape:
        raise ValueError("learning_rates must be scalar or match the parameter shape")

    history: List[float] = [float(objective(parameters))]
    converged = False
    iterations = 0
    for iterations in range(1, n_epochs + 1):
        grad = (
            gradient(parameters)
            if gradient is not None
            else finite_difference_gradient(objective, parameters, step=fd_step, mask=mask)
        )
        if mask is not None:
            grad = np.where(mask, grad, 0.0)
        if not np.all(np.isfinite(grad)):
            converged = False
            break

        previous_value = history[-1]
        scale = 1.0
        candidate = parameters
        current = previous_value
        accepted = False
        for _ in range(max_backtracks if backtracking else 1):
            candidate = parameters - scale * rates * grad
            if project is not None:
                candidate = project(candidate)
            current = float(objective(candidate))
            if not backtracking or current <= previous_value:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            converged = True
            break

        parameters = candidate
        history.append(current)
        if abs(previous_value - current) < tolerance:
            converged = True
            break
    return GradientDescentResult(
        parameters=parameters,
        objective=history[-1],
        objective_history=history,
        n_iterations=iterations,
        converged=converged,
    )


def minimize_scalar_bounded(
    objective: Callable[[float], float],
    lower: float,
    upper: float,
    n_grid: int = 25,
) -> float:
    """Minimise a scalar objective on ``[lower, upper]``.

    A coarse grid search seeds a bounded Brent refinement, which makes the
    routine robust to the mildly multi-modal least-squares objectives that
    arise when a worker's prior-domain accuracies disagree strongly with the
    learning-task feedback.
    """
    if upper <= lower:
        raise ValueError("upper must exceed lower")
    grid = np.linspace(lower, upper, n_grid)
    values = np.array([objective(float(x)) for x in grid])
    best = float(grid[int(np.argmin(values))])
    span = (upper - lower) / max(n_grid - 1, 1)
    bracket_lower = max(lower, best - 2.0 * span)
    bracket_upper = min(upper, best + 2.0 * span)
    result = spo.minimize_scalar(objective, bounds=(bracket_lower, bracket_upper), method="bounded")
    if result.success and result.fun <= values.min():
        return float(result.x)
    return best


# Constants of scipy's bounded Brent (``scipy.optimize._optimize._minimize_scalar_bounded``).
_BRENT_SQRT_EPS = math.sqrt(2.2e-16)
_BRENT_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_brent_batch(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    xatol: float = 1e-5,
    maxiter: int = 500,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep port of scipy's bounded Brent over independent lanes.

    Every lane runs the exact scalar recurrence (same constants, branch
    order and floating-point operations); lanes that have converged are
    frozen by masks while the others keep iterating, so each lane's result
    is bit-identical to ``minimize_scalar(..., method="bounded")`` on its
    own objective.  The objective is evaluated for *all* lanes each step
    (frozen lanes at their current best point) and must be elementwise
    in the lane axis.

    Returns ``(x, fun, success)`` per lane.
    """

    def evaluate(points: np.ndarray) -> np.ndarray:
        return np.asarray(objective_batch(points[:, None]), dtype=float).reshape(points.shape)

    a = lower.astype(float)
    b = upper.astype(float)
    fulc = a + _BRENT_GOLDEN_MEAN * (b - a)
    nfc = fulc.copy()
    xf = fulc.copy()
    rat = np.zeros_like(a)
    e = np.zeros_like(a)
    fx = evaluate(xf)
    num = np.ones(a.shape, dtype=int)
    fu = np.full_like(a, np.inf)
    ffulc = fx.copy()
    fnfc = fx.copy()
    xm = 0.5 * (a + b)
    tol1 = _BRENT_SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    hit_maxiter = np.zeros(a.shape, dtype=bool)

    active = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
    while active.any():
        # Parabolic-fit candidate (computed for every lane, used where valid).
        try_parabola = np.abs(e) > tol1
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        accept = (
            try_parabola
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - xf))
            & (p < q * (b - xf))
        )
        with np.errstate(divide="ignore", invalid="ignore"):  # q == 0 where no parabola fits
            parabolic_rat = (p + 0.0) / q
        parabolic_x = xf + parabolic_rat
        near_bound = ((parabolic_x - a) < tol2) | ((b - parabolic_x) < tol2)
        toward_mid = np.sign(xm - xf) + ((xm - xf) == 0)
        parabolic_rat = np.where(near_bound, tol1 * toward_mid, parabolic_rat)
        # Golden-section step wherever the parabola was not accepted.
        golden_e = np.where(xf >= xm, a - xf, b - xf)
        new_e = np.where(accept, rat, golden_e)
        new_rat = np.where(accept, parabolic_rat, _BRENT_GOLDEN_MEAN * golden_e)
        rat = np.where(active, new_rat, rat)
        e = np.where(active, new_e, e)

        step_sign = np.sign(rat) + (rat == 0)
        x = np.where(active, xf + step_sign * np.maximum(np.abs(rat), tol1), xf)
        fu = np.where(active, evaluate(x), fu)
        num = num + active

        improved = active & (fu <= fx)
        worse = active & ~(fu <= fx)
        right = x >= xf
        left = x < xf
        new_a = np.where(improved & right, xf, np.where(worse & left, x, a))
        new_b = np.where(improved & ~right, xf, np.where(worse & ~left, x, b))
        shift_near = worse & ((fu <= fnfc) | (nfc == xf))
        shift_far = worse & ~shift_near & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        new_fulc = np.where(improved | shift_near, nfc, np.where(shift_far, x, fulc))
        new_ffulc = np.where(improved | shift_near, fnfc, np.where(shift_far, fu, ffulc))
        new_nfc = np.where(improved, xf, np.where(shift_near, x, nfc))
        new_fnfc = np.where(improved, fx, np.where(shift_near, fu, fnfc))
        xf = np.where(improved, x, xf)
        fx = np.where(improved, fu, fx)
        a, b = new_a, new_b
        fulc, ffulc, nfc, fnfc = new_fulc, new_ffulc, new_nfc, new_fnfc

        xm = np.where(active, 0.5 * (a + b), xm)
        tol1 = np.where(active, _BRENT_SQRT_EPS * np.abs(xf) + xatol / 3.0, tol1)
        tol2 = 2.0 * tol1

        hit_maxiter |= active & (num >= maxiter)
        active &= ~hit_maxiter & (np.abs(xf - xm) > (tol2 - 0.5 * (b - a)))

    failed = hit_maxiter | np.isnan(xf) | np.isnan(fx) | np.isnan(fu)
    return xf, fx, ~failed


def minimize_scalar_bounded_batch(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    n_lanes: int,
    n_grid: int = 25,
) -> np.ndarray:
    """:func:`minimize_scalar_bounded` for ``n_lanes`` independent objectives at once.

    The grid is evaluated for every lane in ONE broadcast call, then a
    lockstep port of scipy's bounded Brent refines every lane's bracket.
    Each lane's result is bit-identical to :func:`minimize_scalar_bounded`
    on that lane's scalar objective, provided ``objective_batch`` computes
    each ``(lane, point)`` value with the same floating-point operations as
    the scalar objective.

    Parameters
    ----------
    objective_batch:
        Callable mapping an ``(n_lanes, m)`` array of candidate points (row
        ``i`` belongs to lane ``i``) to the ``(n_lanes, m)`` objective values.
    lower, upper:
        Search interval shared by all lanes.
    n_lanes:
        Number of independent minimisations.
    n_grid:
        Grid density of the seeding search.

    Returns
    -------
    numpy.ndarray
        The ``(n_lanes,)`` minimisers.
    """
    lower = float(lower)
    upper = float(upper)
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("lower and upper must be finite")
    if upper <= lower:
        raise ValueError("upper must exceed lower")
    if n_lanes == 0:
        return np.zeros(0)
    grid = np.linspace(lower, upper, n_grid)
    values = np.asarray(objective_batch(np.broadcast_to(grid, (n_lanes, n_grid))), dtype=float)
    if values.shape != (n_lanes, n_grid):
        raise ValueError(f"objective_batch must return shape ({n_lanes}, {n_grid}), got {values.shape}")
    best = grid[np.argmin(values, axis=1)]
    grid_min = values.min(axis=1)
    span = (upper - lower) / max(n_grid - 1, 1)
    # Python's ``max(lower, v)`` / ``min(upper, v)``, tie-breaking included.
    below = best - 2.0 * span
    above = best + 2.0 * span
    bracket_lower = np.where(below > lower, below, lower)
    bracket_upper = np.where(above < upper, above, upper)
    x, fun, success = _bounded_brent_batch(objective_batch, bracket_lower, bracket_upper)
    return np.where(success & (fun <= grid_min), x, best)


__all__ = [
    "GradientDescentResult",
    "batch_gradient",
    "finite_difference_gradient",
    "finite_difference_gradient_batch",
    "gradient_descent",
    "minimize_scalar_bounded",
    "minimize_scalar_bounded_batch",
    "perturbation_stack",
]
