"""Tests for the Eqn-2 step-time ground truth, including the Fig-4 shapes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.workloads import MODEL_ZOO, StepTimeModel, straggler_step_time
from repro.workloads.speed import MODE_ASYNC, MODE_SYNC, validate_mode


@pytest.fixture
def sync_model():
    return StepTimeModel(MODEL_ZOO["resnet-50"], MODE_SYNC)


@pytest.fixture
def async_model():
    return StepTimeModel(MODEL_ZOO["resnet-50"], MODE_ASYNC)


class TestBasics:
    def test_validate_mode(self):
        assert validate_mode("sync") == "sync"
        with pytest.raises(ConfigurationError):
            validate_mode("semisync")

    def test_invalid_tasks(self, sync_model):
        with pytest.raises(ConfigurationError):
            sync_model.speed(0, 1)
        with pytest.raises(ConfigurationError):
            sync_model.speed(1, 0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            StepTimeModel(MODEL_ZOO["resnet-50"], MODE_SYNC, bandwidth=0)

    def test_mini_batch_sync_divides_global(self, sync_model):
        assert sync_model.mini_batch(4) == pytest.approx(256 / 4)

    def test_mini_batch_async_fixed(self, async_model):
        assert async_model.mini_batch(4) == 32
        assert async_model.mini_batch(16) == 32

    def test_concurrent_pushers(self, sync_model, async_model):
        assert sync_model.concurrent_pushers(8) == 8
        assert async_model.concurrent_pushers(8) == pytest.approx(4.0)

    def test_breakdown_sums_to_total(self, sync_model):
        b = sync_model.breakdown(4, 8)
        assert b.total == pytest.approx(b.compute + b.transfer + b.update + b.overhead)

    def test_imbalance_must_be_at_least_one(self, sync_model):
        with pytest.raises(ConfigurationError):
            sync_model.breakdown(4, 8, imbalance=0.5)


class TestEqn2Structure:
    def test_more_ps_less_transfer(self, sync_model):
        few = sync_model.breakdown(2, 8).transfer
        many = sync_model.breakdown(8, 8).transfer
        assert many < few

    def test_more_workers_more_transfer_sync(self, sync_model):
        assert sync_model.breakdown(8, 16).transfer > sync_model.breakdown(8, 4).transfer

    def test_overhead_linear_in_tasks(self, sync_model):
        prof = MODEL_ZOO["resnet-50"]
        base = sync_model.breakdown(4, 8).overhead
        plus_ps = sync_model.breakdown(5, 8).overhead
        assert plus_ps - base == pytest.approx(prof.overhead_ps)

    def test_imbalance_slows_step(self, sync_model):
        balanced = sync_model.step_time(8, 8, imbalance=1.0)
        imbalanced = sync_model.step_time(8, 8, imbalance=1.5)
        assert imbalanced > balanced

    def test_sync_compute_shrinks_with_workers_until_floor(self, sync_model):
        c2 = sync_model.breakdown(4, 2).compute
        c8 = sync_model.breakdown(4, 8).compute
        assert c8 < c2
        # Past the under-utilisation floor compute stops shrinking.
        floor_w = int(256 / (32 * 0.75)) + 1
        c_floor = sync_model.breakdown(4, floor_w).compute
        c_more = sync_model.breakdown(4, floor_w + 8).compute
        assert c_more == pytest.approx(c_floor)


class TestFig4Shapes:
    def test_fig4a_interior_optimum(self, sync_model):
        """20 containers split between ps and workers: peak near w=8 (Fig 4a)."""
        speeds = {w: sync_model.speed(20 - w, w) for w in range(1, 20)}
        best = max(speeds, key=speeds.get)
        assert 5 <= best <= 11
        # Both extremes are clearly worse than the peak.
        assert speeds[1] < 0.7 * speeds[best]
        assert speeds[19] < 0.7 * speeds[best]

    def test_fig4b_nonmonotone_in_workers(self, sync_model):
        """1:1 ps:workers: speed rises, peaks, then declines (Fig 4b)."""
        speeds = {w: sync_model.speed(w, w) for w in range(1, 21)}
        best = max(speeds, key=speeds.get)
        assert 6 <= best <= 16
        assert speeds[20] < speeds[best]

    def test_async_speed_increases_sublinearly(self, async_model):
        s2 = async_model.speed(2, 2)
        s8 = async_model.speed(8, 8)
        s16 = async_model.speed(16, 16)
        assert s8 > s2 and s16 > s8
        # Doubling the tasks from 8 to 16 must yield less than 2x speed.
        assert s16 < 2 * s8

    def test_examples_per_second(self, sync_model, async_model):
        assert sync_model.examples_per_second(4, 8) == pytest.approx(
            sync_model.speed(4, 8) * 256
        )
        assert async_model.examples_per_second(4, 8) == pytest.approx(
            async_model.speed(4, 8) * 32
        )


class TestPlacementAwareTransfer:
    def test_full_colocation_on_one_server_is_free(self, sync_model):
        layout = {"s0": (8, 4)}
        assert sync_model.breakdown(4, 8, placement=layout).transfer == 0.0

    def test_spread_worse_than_packed(self, sync_model):
        packed = {"s0": (2, 1), "s1": (2, 1)}
        spread = {f"s{i}": (1, 0) for i in range(4)}
        spread["s4"] = (0, 1)
        spread["s5"] = (0, 1)
        t_packed = sync_model.step_time(2, 4, placement=packed)
        t_spread = sync_model.step_time(2, 4, placement=spread)
        assert t_packed < t_spread

    def test_fig10_accounting(self):
        """The worked example of Fig. 10: layout (c) beats (a) and (b)."""
        profile = MODEL_ZOO["resnet-50"]
        model = StepTimeModel(profile, MODE_SYNC)
        # 2 ps + 4 workers over 3 servers, as drawn in the paper.
        a = {"s1": (0, 2), "s2": (2, 0), "s3": (2, 0)}
        b = {"s1": (1, 1), "s2": (2, 1), "s3": (1, 0)}
        c = {"s1": (2, 1), "s2": (2, 1)}
        ta = model.breakdown(2, 4, placement=a).transfer
        tb = model.breakdown(2, 4, placement=b).transfer
        tc = model.breakdown(2, 4, placement=c).transfer
        assert tc < ta
        assert tc < tb

    def test_layout_totals_validated(self, sync_model):
        with pytest.raises(ConfigurationError):
            sync_model.breakdown(4, 8, placement={"s0": (7, 4)})

    def test_bandwidth_shares_slow_transfer(self, sync_model):
        layout = {"s0": (4, 2), "s1": (4, 2)}
        fast = sync_model.step_time(4, 8, placement=layout)
        shared = sync_model.step_time(
            4, 8, placement=layout, bandwidths={"s0": 20e6, "s1": 20e6}
        )
        assert shared > fast


class TestStragglers:
    def test_sync_pays_full_slowdown(self, sync_model):
        base = sync_model.step_time(4, 8)
        slowed = straggler_step_time(sync_model, 4, 8, slowdown=3.0)
        compute = sync_model.breakdown(4, 8).compute
        assert slowed == pytest.approx(base + 2.0 * compute)

    def test_async_unaffected_step_time(self, async_model):
        base = async_model.step_time(4, 8)
        assert straggler_step_time(async_model, 4, 8, slowdown=3.0) == pytest.approx(base)

    def test_slowdown_below_one_rejected(self, sync_model):
        with pytest.raises(ConfigurationError):
            straggler_step_time(sync_model, 4, 8, slowdown=0.5)


class TestMeasuredSpeed:
    def test_reproducible(self, sync_model):
        assert sync_model.measured_speed(4, 8, seed=1) == sync_model.measured_speed(
            4, 8, seed=1
        )

    def test_zero_noise_is_exact(self, sync_model):
        assert sync_model.measured_speed(4, 8, seed=1, noise_std=0) == pytest.approx(
            sync_model.speed(4, 8)
        )

    @settings(max_examples=20, deadline=None)
    @given(p=st.integers(1, 20), w=st.integers(1, 20))
    def test_speed_positive_everywhere(self, p, w):
        for name in ("resnet-50", "cnn-rand", "seq2seq"):
            for mode in (MODE_SYNC, MODE_ASYNC):
                model = StepTimeModel(MODEL_ZOO[name], mode)
                assert model.speed(p, w) > 0


@st.composite
def _speed_cases(draw):
    model = StepTimeModel(
        MODEL_ZOO[draw(st.sampled_from(sorted(MODEL_ZOO)))],
        draw(st.sampled_from([MODE_SYNC, MODE_ASYNC])),
        bandwidth=draw(st.sampled_from([10e6, 125e6, 1.25e9])),
    )
    p = draw(st.integers(1, 16))
    w = draw(st.integers(1, 24))
    imbalance = draw(st.floats(1.0, 3.0))
    placement = bandwidths = None
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        servers = [f"s{i}" for i in range(k)]
        worker_at = [draw(st.integers(0, k - 1)) for _ in range(w)]
        ps_at = [draw(st.integers(0, k - 1)) for _ in range(p)]
        placement = {
            name: (worker_at.count(i), ps_at.count(i))
            for i, name in enumerate(servers)
        }
        if draw(st.booleans()):
            bandwidths = {
                name: draw(st.floats(0.5, 2e8)) for name in servers[: k - 1]
            }
    return model, p, w, placement, imbalance, bandwidths


class TestOneFormula:
    """``step_time`` and ``speed`` add the Eqn-2 terms without building a
    :class:`StepBreakdown`; they must equal ``breakdown(...).total`` exactly."""

    @settings(max_examples=300, deadline=None)
    @given(case=_speed_cases())
    def test_step_time_equals_breakdown_total(self, case):
        model, p, w, placement, imbalance, bandwidths = case
        total = model.breakdown(p, w, placement, imbalance, bandwidths).total
        assert model.step_time(p, w, placement, imbalance, bandwidths) == total
        speed = model.speed(p, w, placement, imbalance, bandwidths)
        assert speed == (w / total if model.mode == MODE_ASYNC else 1.0 / total)

    def test_validation_shared(self, sync_model):
        for call in (sync_model.breakdown, sync_model.step_time, sync_model.speed):
            with pytest.raises(ConfigurationError):
                call(0, 4)
            with pytest.raises(ConfigurationError):
                call(2, 4, imbalance=0.5)
