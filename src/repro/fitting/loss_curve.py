"""Online fitting of the convergence curve (§3.1, Eqn 1).

The paper models the normalised training loss at step ``k`` as::

    l(k) = 1 / (b0 * k + b1) + b2          b0, b1, b2 >= 0

and fits the coefficients with an NNLS solver. The model is nonlinear in
``b2``, but *for a fixed* ``b2`` the substitution ``y = 1 / (l - b2)`` makes
it linear: ``y = b0 * k + b1``, an NNLS problem in ``(b0, b1)``. We therefore
search over ``b2`` (coarse grid + golden-section refinement, scoring
candidates by the residual in the *original* loss space) and solve NNLS at
each candidate. With two unknowns, an interior NNLS optimum is the
closed-form least-squares solution; only a boundary optimum (``b0`` or
``b1`` pinned at zero) is handed to the Lawson–Hanson solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import FittingError
from repro.fitting.nnls import default_tol, nnls
from repro.fitting.preprocess import preprocess_losses
from repro.obs.registry import active_registry

#: Residual buckets for the fit-quality histograms (normalised loss units).
RESIDUAL_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5)

#: Minimum number of points required before a fit is attempted.
MIN_POINTS = 4

#: Hard cap when scanning for the convergence epoch on a fitted curve.
MAX_PREDICT_EPOCHS = 100_000


@dataclass(frozen=True)
class LossCurveFit:
    """A fitted Eqn-1 convergence curve (normalised loss units).

    ``residual`` is the root-mean-square error between the fitted curve and
    the (preprocessed, normalised) observations.
    """

    beta0: float
    beta1: float
    beta2: float
    residual: float
    num_points: int
    scale: float = 1.0

    def predict(self, step: float) -> float:
        """Predicted normalised loss at *step*."""
        if step < 0:
            raise FittingError("step must be non-negative")
        denom = self.beta0 * step + self.beta1
        if denom <= 0:
            raise FittingError("degenerate fit: b0*k + b1 must be positive")
        return 1.0 / denom + self.beta2

    def predict_raw(self, step: float) -> float:
        """Predicted loss in the job's raw (un-normalised) units."""
        return self.predict(step) * self.scale

    def epoch_decrease(self, epoch: int, steps_per_epoch: float) -> float:
        """Predicted loss decrease over epoch number *epoch*."""
        if epoch < 1:
            raise FittingError("epoch numbers start at 1")
        return self.predict((epoch - 1) * steps_per_epoch) - self.predict(
            epoch * steps_per_epoch
        )

    def epochs_to_converge(
        self, threshold: float, steps_per_epoch: float, patience: int = 2
    ) -> int:
        """Total epochs until the §2.1 stopping rule fires on the fitted curve.

        The fitted curve's per-epoch decrease is strictly decreasing in the
        epoch number, so we binary-search the first epoch whose decrease
        falls below *threshold* and add ``patience - 1`` confirmation epochs.
        """
        if threshold <= 0:
            raise FittingError("threshold must be positive")
        if steps_per_epoch <= 0:
            raise FittingError("steps_per_epoch must be positive")
        if patience < 1:
            raise FittingError("patience must be >= 1")
        if self.beta0 <= 0:
            # A flat fit never crosses the threshold from above: with no
            # decay at all, every epoch's decrease is 0 < threshold.
            return patience
        if self.epoch_decrease(1, steps_per_epoch) < threshold:
            return patience
        lo, hi = 1, 2
        while (
            self.epoch_decrease(hi, steps_per_epoch) >= threshold
            and hi < MAX_PREDICT_EPOCHS
        ):
            lo, hi = hi, hi * 2
        hi = min(hi, MAX_PREDICT_EPOCHS)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.epoch_decrease(mid, steps_per_epoch) < threshold:
                hi = mid
            else:
                lo = mid
        return hi + patience - 1

    def steps_to_converge(
        self, threshold: float, steps_per_epoch: float, patience: int = 2
    ) -> float:
        """Total steps (from step 0) until convergence on the fitted curve."""
        return (
            self.epochs_to_converge(threshold, steps_per_epoch, patience)
            * steps_per_epoch
        )

    def remaining_steps(
        self,
        current_step: float,
        threshold: float,
        steps_per_epoch: float,
        patience: int = 2,
    ) -> float:
        """Steps left from *current_step* until predicted convergence (>= 0)."""
        total = self.steps_to_converge(threshold, steps_per_epoch, patience)
        return max(total - current_step, 0.0)


def _nnls_for_beta2(
    steps: np.ndarray, losses: np.ndarray, beta2: float
) -> Optional[Tuple[float, float, float]]:
    """NNLS solve of ``1/(l - b2) = b0*k + b1``; returns (b0, b1, rmse).

    With two unknowns the unconstrained least-squares optimum has a closed
    form (centred normal equations). When both coefficients come out
    positive it *is* the NNLS optimum; only a boundary solution (one
    coefficient pinned at zero) needs the Lawson–Hanson active-set solver.
    A coefficient within (a bound on) Lawson–Hanson's tolerance of zero
    also goes to the solver, which pins it when it is below the tolerance:
    otherwise the answer near the ``b2`` where a coefficient crosses zero
    would depend on which path solved it.
    """
    shifted = losses - beta2
    shifted_min = float(shifted.min())
    if shifted_min <= 1e-9:
        return None
    y = 1.0 / shifted
    n = len(steps)
    k_mean = float(steps.sum()) / n
    centred = steps - k_mean
    spread = float(centred @ centred)
    beta0 = float(centred @ y) / spread if spread > 0 else math.nan
    beta1 = float(y.sum()) / n - beta0 * k_mean
    # |k| <= |mean| + sqrt(spread) and max(y) = 1/min(shifted): an upper
    # bound on the solver's tolerance, without another pass over the data.
    tol = default_tol(n, 2, abs(k_mean) + math.sqrt(spread), 1.0 / shifted_min)
    if not (beta0 > tol and beta1 > tol):
        design = np.column_stack([steps, np.ones_like(steps)])
        try:
            coeffs, _ = nnls(design, y)
        except FittingError:
            return None
        beta0, beta1 = float(coeffs[0]), float(coeffs[1])
    denom = beta0 * steps + beta1
    if denom.min() <= 1e-12:
        return None
    predicted = 1.0 / denom + beta2
    rmse = math.sqrt(float(((predicted - losses) ** 2).sum()) / n)
    return beta0, beta1, rmse


def fit_loss_curve(
    steps: Sequence[float],
    losses: Sequence[float],
    preprocess: bool = True,
    grid_size: int = 24,
    refine_iters: int = 40,
) -> LossCurveFit:
    """Fit Eqn 1 to raw ``(step, loss)`` observations.

    Parameters
    ----------
    steps, losses:
        Observation history (any order; raw loss units).
    preprocess:
        Run the §3.1 outlier-removal + normalisation pipeline first.
    grid_size:
        Coarse-grid resolution of the ``b2`` search.
    refine_iters:
        Golden-section iterations around the best grid cell.

    Raises
    ------
    FittingError
        With fewer than :data:`MIN_POINTS` observations, a non-finite step
        or loss, or when no admissible ``b2`` yields a solvable NNLS
        problem.
    """
    if len(steps) != len(losses):
        raise FittingError("steps and losses must have equal length")
    if len(steps) < MIN_POINTS:
        raise FittingError(
            f"need at least {MIN_POINTS} points to fit, got {len(steps)}"
        )
    steps = np.asarray(steps, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if not (np.isfinite(steps).all() and np.isfinite(losses).all()):
        raise FittingError("steps and losses must be finite")
    if preprocess:
        k, vals, scale = preprocess_losses(steps, losses)
    else:
        order = np.argsort(steps)
        k = steps[order]
        vals = losses[order]
        scale = 1.0
    if np.any(vals <= 0):
        raise FittingError("losses must be positive")

    min_loss = float(vals.min())
    upper = min_loss * 0.999

    best: Optional[Tuple[float, float, float, float]] = None  # (rmse, b0, b1, b2)

    def consider(beta2: float) -> float:
        nonlocal best
        result = _nnls_for_beta2(k, vals, beta2)
        if result is None:
            return math.inf
        beta0, beta1, rmse = result
        if best is None or rmse < best[0]:
            best = (rmse, beta0, beta1, beta2)
        return rmse

    grid = np.linspace(0.0, upper, grid_size)
    scores = [consider(b2) for b2 in grid]

    # Golden-section refinement around the best coarse cell.
    best_idx = int(np.argmin(scores))
    lo = grid[max(best_idx - 1, 0)]
    hi = grid[min(best_idx + 1, grid_size - 1)]
    if hi > lo:
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = consider(c), consider(d)
        for _ in range(refine_iters):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = consider(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = consider(d)

    if best is None:
        metrics = active_registry()
        metrics.counter("est.loss_fit_failures").inc()
        raise FittingError("could not fit the loss curve to the data")
    rmse, beta0, beta1, beta2 = best
    metrics = active_registry()
    metrics.counter("est.loss_fits").inc()
    metrics.histogram("est.loss_fit_residual", RESIDUAL_BUCKETS).observe(rmse)
    return LossCurveFit(
        beta0=beta0,
        beta1=beta1,
        beta2=beta2,
        residual=rmse,
        num_points=len(k),
        scale=scale,
    )
