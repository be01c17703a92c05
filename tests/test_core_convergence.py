"""Tests for the online convergence estimator (§3.1)."""

import math

import pytest

from repro.common.errors import FittingError
from repro.core.convergence import ConvergenceEstimator
from repro.workloads import MODEL_ZOO, LossEmitter


def feed(estimator, emitter, start_epoch, end_epoch, spe, stride=25):
    obs = emitter.observe_range(int(start_epoch * spe), int(end_epoch * spe), stride)
    estimator.add_observations((o.step, o.loss) for o in obs)


@pytest.fixture
def setup():
    profile = MODEL_ZOO["seq2seq"]
    spe = profile.steps_per_epoch("sync")
    emitter = LossEmitter(profile.loss, spe, seed=13)
    estimator = ConvergenceEstimator(threshold=0.002, steps_per_epoch=spe)
    return profile, spe, emitter, estimator


class TestDataCollection:
    def test_counts(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 2, spe)
        assert estimator.observation_count > 0
        assert estimator.latest_step > 0

    def test_cannot_fit_too_early(self, setup):
        *_, estimator = setup
        assert not estimator.can_fit
        with pytest.raises(FittingError):
            estimator.fit()

    def test_nonpositive_loss_rejected(self, setup):
        *_, estimator = setup
        with pytest.raises(FittingError):
            estimator.add_observation(1, 0.0)

    @pytest.mark.parametrize(
        "step, loss",
        [(1, math.nan), (1, math.inf), (math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0)],
    )
    def test_non_finite_observation_rejected(self, setup, step, loss):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 2, spe)
        count = estimator.observation_count
        with pytest.raises(FittingError, match="finite"):
            estimator.add_observation(step, loss)
        # The rejected point left the history alone: fitting still works.
        assert estimator.observation_count == count
        assert estimator.fit(force=True).residual < 0.05


class TestFitting:
    def test_fit_caches_between_refits(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 3, spe)
        first = estimator.fit()
        assert estimator.fit() is first  # no new data: cached
        feed(estimator, emitter, 3, 6, spe)
        assert estimator.fit() is not first  # enough new data: refit

    def test_force_refit(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 3, spe)
        first = estimator.fit()
        assert estimator.fit(force=True) is not first


class TestPrediction:
    def test_prediction_improves_with_progress(self, setup):
        """The Fig-6 property: more data, smaller prediction error."""
        profile, spe, emitter, estimator = setup
        truth_epochs = profile.loss.epochs_to_converge(0.002)
        truth_steps = truth_epochs * spe

        errors = []
        start = 0
        for end in (3, 10, 25, 45):
            feed(estimator, emitter, start, end, spe)
            start = end
            estimator.fit(force=True)
            predicted = estimator.predicted_total_steps()
            errors.append(abs(predicted - truth_steps) / truth_steps)
        # Late predictions must be decent and no worse than the worst
        # early prediction (strict monotonicity is not guaranteed: the
        # generator is deliberately outside the Eqn-1 family).
        assert errors[-1] < 0.35
        assert errors[-1] <= max(errors[0], errors[1]) + 1e-9

    def test_remaining_steps_decrease_with_progress(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 20, spe)
        early = estimator.remaining_steps(current_step=5 * spe)
        late = estimator.remaining_steps(current_step=15 * spe)
        assert late < early

    def test_remaining_steps_nonnegative(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 20, spe)
        assert estimator.remaining_steps(current_step=1e9) == 0.0

    def test_history_recorded(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 10, spe)
        estimator.remaining_steps(100)
        estimator.remaining_steps(200)
        assert len(estimator.prediction_history) == 2

    def test_prediction_errors_signed(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 10, spe)
        estimator.remaining_steps(100)
        pairs = estimator.prediction_errors(true_total_steps=50 * spe)
        assert len(pairs) == 1
        progress, error = pairs[0]
        assert 0 <= progress <= 1

    def test_prediction_errors_validation(self, setup):
        *_, estimator = setup
        with pytest.raises(FittingError):
            estimator.prediction_errors(0)


class TestValidation:
    def test_constructor_guards(self):
        with pytest.raises(FittingError):
            ConvergenceEstimator(threshold=0, steps_per_epoch=10)
        with pytest.raises(FittingError):
            ConvergenceEstimator(threshold=0.01, steps_per_epoch=0)
