"""Tests for the Eqn-1 convergence-curve fitter."""

import math
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.errors import FittingError
from repro.fitting import loss_curve
from repro.fitting.loss_curve import (
    MIN_POINTS,
    LossCurveFit,
    _nnls_for_beta2,
    fit_loss_curve,
)
from repro.fitting.nnls import nnls
from repro.fitting.preprocess import preprocess_losses
from repro.workloads import MODEL_ZOO, LossEmitter


def eqn1(steps, b0, b1, b2):
    return [1.0 / (b0 * k + b1) + b2 for k in steps]


class TestFitOnExactEqn1Data:
    def test_recovers_coefficients(self):
        steps = list(range(0, 2000, 20))
        losses = eqn1(steps, 2e-3, 1.0, 0.1)
        fit = fit_loss_curve(steps, losses, preprocess=False)
        assert fit.beta0 == pytest.approx(2e-3, rel=0.05)
        assert fit.beta1 == pytest.approx(1.0, rel=0.05)
        assert fit.beta2 == pytest.approx(0.1, abs=0.02)
        assert fit.residual < 1e-3

    def test_predict_matches_truth(self):
        steps = list(range(0, 1000, 10))
        losses = eqn1(steps, 1e-3, 1.0, 0.05)
        fit = fit_loss_curve(steps, losses, preprocess=False)
        for k in (0, 100, 500, 2000):
            assert fit.predict(k) == pytest.approx(eqn1([k], 1e-3, 1.0, 0.05)[0], rel=0.02)

    @settings(max_examples=20, deadline=None)
    @given(
        b0=st.floats(1e-4, 1e-2),
        b2=st.floats(0.0, 0.4),
    )
    def test_low_residual_across_family(self, b0, b2):
        steps = list(range(0, 3000, 30))
        losses = eqn1(steps, b0, 1.0, b2)
        fit = fit_loss_curve(steps, losses, preprocess=False)
        assert fit.residual < 5e-3


class TestFitOnNoisyGroundTruth:
    def test_fits_model_zoo_curves(self):
        """Fits against the mixture generator stay reasonably tight (Fig 7)."""
        profile = MODEL_ZOO["seq2seq"]
        spe = profile.steps_per_epoch("sync")
        emitter = LossEmitter(profile.loss, spe, seed=11)
        obs = emitter.observe_range(0, int(30 * spe), stride=100)
        fit = fit_loss_curve([o.step for o in obs], [o.loss for o in obs])
        assert fit.residual < 0.05
        assert fit.num_points == len(obs)

    def test_scale_roundtrip(self):
        profile = MODEL_ZOO["seq2seq"]
        spe = profile.steps_per_epoch("sync")
        emitter = LossEmitter(profile.loss, spe, initial_loss=6.0, seed=11)
        obs = emitter.observe_range(0, int(20 * spe), stride=100)
        fit = fit_loss_curve([o.step for o in obs], [o.loss for o in obs])
        # predict_raw is in the emitter's raw units.
        assert fit.predict_raw(0) == pytest.approx(6.0, rel=0.15)


class TestConvergencePrediction:
    @pytest.fixture
    def fit(self):
        steps = list(range(0, 5000, 25))
        losses = eqn1(steps, 1e-3, 1.0, 0.05)
        return fit_loss_curve(steps, losses, preprocess=False)

    def test_epoch_decrease_positive_decreasing(self, fit):
        d = [fit.epoch_decrease(e, steps_per_epoch=100) for e in range(1, 30)]
        assert all(x > 0 for x in d)
        assert d[0] > d[-1]

    def test_epochs_to_converge_monotone_in_threshold(self, fit):
        assert fit.epochs_to_converge(0.0001, 100) >= fit.epochs_to_converge(0.01, 100)

    def test_epochs_to_converge_is_first_crossing(self, fit):
        epochs = fit.epochs_to_converge(0.001, 100, patience=1)
        assert fit.epoch_decrease(epochs, 100) < 0.001
        assert fit.epoch_decrease(epochs - 1, 100) >= 0.001

    def test_patience_shifts_convergence(self, fit):
        assert fit.epochs_to_converge(0.001, 100, patience=3) == (
            fit.epochs_to_converge(0.001, 100, patience=1) + 2
        )

    def test_steps_and_remaining(self, fit):
        total = fit.steps_to_converge(0.001, 100)
        assert fit.remaining_steps(0, 0.001, 100) == pytest.approx(total)
        assert fit.remaining_steps(total + 50, 0.001, 100) == 0.0

    def test_flat_fit_converges_immediately(self):
        flat = LossCurveFit(beta0=0.0, beta1=2.0, beta2=0.0, residual=0.0, num_points=5)
        assert flat.epochs_to_converge(0.001, 100, patience=2) == 2

    def test_validation(self, fit):
        with pytest.raises(FittingError):
            fit.epochs_to_converge(0, 100)
        with pytest.raises(FittingError):
            fit.epochs_to_converge(0.01, 0)
        with pytest.raises(FittingError):
            fit.predict(-1)


class TestFitValidation:
    def test_too_few_points(self):
        with pytest.raises(FittingError):
            fit_loss_curve([1, 2, 3], [3.0, 2.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(FittingError):
            fit_loss_curve([1, 2, 3, 4], [1.0, 2.0])

    def test_nonpositive_losses(self):
        with pytest.raises(FittingError):
            fit_loss_curve([1, 2, 3, 4, 5], [5.0, 4.0, 3.0, -1.0, 2.0], preprocess=False)

    def test_unsorted_input_accepted(self):
        steps = [300, 100, 0, 200, 400]
        losses = eqn1(steps, 1e-3, 1.0, 0.1)
        fit = fit_loss_curve(steps, losses, preprocess=False)
        assert fit.residual < 0.01

    def test_outliers_handled_by_preprocessing(self):
        steps = list(range(0, 1200, 10))
        losses = eqn1(steps, 1e-3, 1.0, 0.1)
        losses[40] *= 10  # a big spike mid-run
        with_pre = fit_loss_curve(steps, losses, preprocess=True)
        assert with_pre.residual < 0.02


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["steps", "losses"])
    @pytest.mark.parametrize("preprocess", [True, False])
    def test_non_finite_input_rejected(self, bad, where, preprocess):
        steps = [0.0, 100.0, 200.0, 300.0, 400.0]
        losses = eqn1(steps, 1e-3, 1.0, 0.1)
        (steps if where == "steps" else losses)[2] = bad
        with pytest.raises(FittingError, match="finite"):
            fit_loss_curve(steps, losses, preprocess=preprocess)


# -- properties ------------------------------------------------------------------


def lawson_hanson_for_beta2(
    steps: np.ndarray, losses: np.ndarray, beta2: float
) -> Optional[Tuple[float, float, float]]:
    """Reference: the per-``b2`` solve with Lawson–Hanson for every case.

    Unlike the original, lets Lawson–Hanson's :class:`FittingError` through:
    on some ill-conditioned designs it stalls at its iteration cap, and the
    comparisons below must tell that apart from an inadmissible ``b2``.
    """
    shifted = losses - beta2
    if np.any(shifted <= 1e-9):
        return None
    y = 1.0 / shifted
    design = np.column_stack([steps, np.ones_like(steps)])
    coeffs, _ = nnls(design, y)
    beta0, beta1 = float(coeffs[0]), float(coeffs[1])
    denom = beta0 * steps + beta1
    if np.any(denom <= 1e-12):
        return None
    predicted = 1.0 / denom + beta2
    return beta0, beta1, float(np.sqrt(np.mean((predicted - losses) ** 2)))


def reference_fit(steps, losses, grid_size=24, refine_iters=40):
    """Reference: the ``b2`` search solving every candidate with Lawson–Hanson.

    Fed by the library's ``preprocess_losses``, whose output is checked bit
    for bit against the original loop in ``test_fitting_preprocess``.
    Returns ``((rmse, b0, b1, b2) or None, whether Lawson–Hanson stalled)``;
    like the original, a stalled candidate is skipped.
    """
    k, vals, _ = preprocess_losses(steps, losses)
    upper = float(vals.min()) * 0.999
    best = None
    stalled = False

    def consider(beta2):
        nonlocal best, stalled
        try:
            result = lawson_hanson_for_beta2(k, vals, beta2)
        except FittingError:
            stalled = True
            return math.inf
        if result is None:
            return math.inf
        if best is None or result[2] < best[0]:
            best = (result[2], result[0], result[1], beta2)
        return result[2]

    grid = np.linspace(0.0, upper, grid_size)
    scores = [consider(b2) for b2 in grid]
    best_idx = int(np.argmin(scores))
    a = grid[max(best_idx - 1, 0)]
    b = grid[min(best_idx + 1, grid_size - 1)]
    if b > a:
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
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
    return best, stalled


@st.composite
def observations(draw, max_size=60):
    """Distinct steps with Eqn-1-like, arbitrary, rising or steep losses.

    ``rising`` losses make the unconstrained ``b0`` negative and ``steep``
    ones (``y = 1/l`` climbing from near zero late in training) make ``b1``
    negative, so the Lawson–Hanson boundary path is exercised.
    """
    n = draw(st.integers(MIN_POINTS, max_size))
    steps = draw(st.lists(st.integers(0, 100_000), min_size=n, max_size=n, unique=True))
    shape = draw(st.sampled_from(["eqn1", "arbitrary", "rising", "steep"]))
    if shape == "eqn1":
        b0 = draw(st.floats(1e-5, 1e-2))
        b1 = draw(st.floats(0.5, 2.0))
        b2 = draw(st.floats(0.0, 0.5))
        noise = draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n))
        losses = [(1.0 / (b0 * k + b1) + b2) * (1.0 + e) for k, e in zip(steps, noise)]
    elif shape == "steep":
        start = min(steps)
        losses = [1.0 / (0.01 * (k - start) + 0.05) for k in steps]
    else:
        losses = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
        if shape == "rising":
            ranks = np.argsort(np.argsort(steps))
            losses = [sorted(losses)[r] for r in ranks]
    return [float(k) for k in steps], losses


def fit_or_none(steps, losses) -> Optional[LossCurveFit]:
    """The fit, or None when no admissible ``b2`` exists for the data."""
    try:
        return fit_loss_curve(steps, losses)
    except FittingError as exc:
        assert "could not fit" in str(exc)
        return None


class TestFitProperties:
    @settings(max_examples=60, deadline=None)
    @given(obs=observations())
    def test_fitted_curve_never_increases(self, obs):
        fit = fit_or_none(*obs)
        assume(fit is not None)
        assert fit.beta0 >= 0 and fit.beta1 >= 0
        horizon = np.linspace(min(obs[0]), 2.0 * max(obs[0]), 50)
        predicted = [fit.predict(k) for k in horizon]
        assert all(b <= a for a, b in zip(predicted, predicted[1:]))

    @settings(max_examples=40, deadline=None)
    @given(obs=observations(), data=st.data())
    def test_permuted_pairs_give_identical_fit(self, obs, data):
        pairs = list(zip(*obs))
        shuffled = data.draw(st.permutations(pairs))
        steps, losses = (list(col) for col in zip(*shuffled))
        assert fit_or_none(steps, losses) == fit_or_none(*obs)

    @settings(max_examples=40, deadline=None)
    @given(
        obs=observations(),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        where=st.sampled_from(["steps", "losses"]),
        data=st.data(),
    )
    def test_non_finite_anywhere_raises(self, obs, bad, where, data):
        steps, losses = obs
        target = steps if where == "steps" else losses
        target[data.draw(st.integers(0, len(target) - 1))] = bad
        with pytest.raises(FittingError, match="finite"):
            fit_loss_curve(steps, losses)

    @settings(max_examples=150, deadline=None)
    @given(obs=observations(), frac=st.floats(0.0, 1.0))
    def test_beta2_solve_matches_lawson_hanson(self, obs, frac):
        k, vals, _ = preprocess_losses(*obs)
        beta2 = frac * float(vals.min()) * 0.999
        got = _nnls_for_beta2(k, vals, beta2)
        y = 1.0 / (vals - beta2)
        design = np.column_stack([k, np.ones_like(k)])
        try:
            want = lawson_hanson_for_beta2(k, vals, beta2)
        except FittingError:
            # Lawson–Hanson stalled. The closed form only answers where the
            # optimum is interior: the unconstrained least-squares solution.
            if got is None:
                return
            want = tuple(np.linalg.lstsq(design, y, rcond=None)[0])
        assert (got is None) == (want is None)
        if want is None:
            return

        def objective(coeffs):
            # Exact arithmetic: near an exact fit, rounding each float
            # residual (~eps * |y|) moves the sum by more than 1e-12 when the
            # two coefficient pairs differ only in their last bits.
            b0, b1 = Fraction(float(coeffs[0])), Fraction(float(coeffs[1]))
            return float(
                sum(
                    (b0 * Fraction(float(ki)) + b1 - Fraction(float(yi))) ** 2
                    for ki, yi in zip(k, y)
                )
            )

        # The absolute floor covers exact fits, whose objective is rounding
        # noise: residuals below 1e-10 of ||y||.
        yy = float(y @ y)
        assert objective(got) == pytest.approx(objective(want), rel=1e-12, abs=1e-20 * yy)
        y_scale = float(np.abs(y).max())
        k_scale = max(float(k.max()), 1.0)
        assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-9 * y_scale / k_scale)
        assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9 * y_scale)

    @settings(max_examples=40, deadline=None)
    @given(obs=observations())
    def test_fit_matches_lawson_hanson_search(self, obs):
        fit = fit_or_none(*obs)
        reference, stalled = reference_fit(*obs)
        if stalled:
            # The original skipped the candidates its solver stalled on, so
            # it can only do worse.
            if reference is not None:
                assert fit is not None and fit.residual <= reference[0] * (1 + 1e-12)
            return
        assert (fit is None) == (reference is None)
        if fit is None:
            return
        rmse, _, _, beta2 = reference
        assert fit.residual == pytest.approx(rmse, rel=1e-12)
        assert fit.beta2 == pytest.approx(beta2, abs=1e-5)


class TestBoundarySolve:
    """A negative unconstrained coefficient falls back to Lawson–Hanson."""

    def count_nnls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return nnls(*args, **kwargs)

        monkeypatch.setattr(loss_curve, "nnls", counting)
        return calls

    def test_interior_optimum_skips_lawson_hanson(self, monkeypatch):
        calls = self.count_nnls(monkeypatch)
        k = np.arange(0.0, 1000.0, 10.0)
        losses = 1.0 / (1e-3 * k + 1.0) + 0.1
        assert _nnls_for_beta2(k, losses, 0.1) is not None
        assert calls == []

    @pytest.mark.parametrize(
        "losses, pinned",
        [
            (np.linspace(0.5, 1.0, 20), 0),  # rising loss: b0 < 0
            (1.0 / (0.5 * np.arange(20.0) + 0.05), 1),  # steep: b1 < 0
        ],
    )
    def test_negative_coefficient_uses_lawson_hanson(self, monkeypatch, losses, pinned):
        calls = self.count_nnls(monkeypatch)
        k = np.arange(20.0) * 50 + 1000.0
        got = _nnls_for_beta2(k, losses, 0.0)
        assert calls == [1]
        assert got is not None
        assert got[:2] == pytest.approx(lawson_hanson_for_beta2(k, losses, 0.0)[:2])
        assert got[pinned] == 0.0
