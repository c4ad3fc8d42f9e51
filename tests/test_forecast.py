"""Tests for forecasting, blueprint planning and fleet scaling
(repro.serving.forecast, repro.serving.planner, FleetEngine ``scaler=``)."""

from __future__ import annotations

import math

import pytest

from repro.serving import (
    BlueprintPlanner,
    CostAwareRouter,
    DecodeModel,
    FleetEngine,
    ForecastScaler,
    LeastLoadedRouter,
    LinearTrendForecaster,
    MovingAverageForecaster,
    RateTracker,
    ReactiveScaler,
    ScalerObservation,
    TrafficShape,
    check_report,
    decode_workload,
    diurnal_workload,
)

from scenarios import make_model


# --------------------------------------------------------------------------- #
# Forecasters
# --------------------------------------------------------------------------- #
class TestForecasters:
    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            MovingAverageForecaster(window=0)

    def test_negative_rate_rejected(self):
        forecaster = MovingAverageForecaster()
        with pytest.raises(ValueError, match="rate"):
            forecaster.observe(-1.0)

    def test_no_observations_predict_zero(self):
        assert MovingAverageForecaster().predict() == 0.0
        assert LinearTrendForecaster().predict(5) == 0.0

    def test_negative_horizon_rejected(self):
        forecaster = MovingAverageForecaster()
        forecaster.observe(1.0)
        with pytest.raises(ValueError, match="steps_ahead"):
            forecaster.predict(-1)

    def test_moving_average_is_flat_at_any_horizon(self):
        forecaster = MovingAverageForecaster(window=4)
        for rate in (2.0, 4.0, 6.0):
            forecaster.observe(rate)
        assert forecaster.predict(1) == pytest.approx(4.0)
        assert forecaster.predict(10) == pytest.approx(4.0)

    def test_window_evicts_oldest(self):
        forecaster = MovingAverageForecaster(window=2)
        for rate in (100.0, 2.0, 4.0):
            forecaster.observe(rate)
        assert forecaster.history == (2.0, 4.0)
        assert forecaster.predict() == pytest.approx(3.0)

    def test_linear_trend_extrapolates_a_ramp_exactly(self):
        forecaster = LinearTrendForecaster(window=8)
        for step in range(5):
            forecaster.observe(10.0 + 3.0 * step)  # 10, 13, 16, 19, 22
        assert forecaster.predict(1) == pytest.approx(25.0)
        assert forecaster.predict(4) == pytest.approx(34.0)

    def test_linear_trend_clamps_decay_at_zero(self):
        forecaster = LinearTrendForecaster(window=8)
        for rate in (8.0, 4.0, 0.0):
            forecaster.observe(rate)
        assert forecaster.predict(10) == 0.0

    def test_linear_trend_single_observation_falls_back_to_mean(self):
        forecaster = LinearTrendForecaster()
        forecaster.observe(7.0)
        assert forecaster.predict(3) == pytest.approx(7.0)

    def test_linear_trend_constant_series_predicts_constant(self):
        forecaster = LinearTrendForecaster(window=4)
        for _ in range(6):
            forecaster.observe(5.0)
        assert forecaster.predict(8) == pytest.approx(5.0)

    def test_reset_drops_history(self):
        forecaster = LinearTrendForecaster()
        forecaster.observe(3.0)
        forecaster.reset()
        assert forecaster.history == ()
        assert forecaster.predict() == 0.0

    def test_determinism(self):
        a, b = LinearTrendForecaster(window=5), LinearTrendForecaster(window=5)
        for rate in (1.0, 5.0, 2.0, 8.0, 3.0, 9.0):
            a.observe(rate)
            b.observe(rate)
        assert a.predict(3) == b.predict(3)


class TestRateTracker:
    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            RateTracker(MovingAverageForecaster(), window=0.0)

    def test_only_completed_windows_are_observed(self):
        tracker = RateTracker(MovingAverageForecaster(), window=10.0)
        tracker.record(1.0)
        tracker.record(2.0)
        assert tracker.pending_count == 2
        assert tracker.forecaster.history == ()  # window [0, 10) still open
        tracker.record(11.0)  # closes [0, 10) with 2 arrivals
        assert tracker.forecaster.history == (0.2,)
        assert tracker.pending_count == 1

    def test_empty_windows_observe_zero(self):
        tracker = RateTracker(MovingAverageForecaster(), window=5.0)
        tracker.record(1.0)
        tracker.record(21.0)  # skips [5,10) and [10,15) and [15,20)
        assert tracker.forecaster.history == (0.2, 0.0, 0.0, 0.0)

    def test_advance_flushes_without_an_arrival(self):
        tracker = RateTracker(MovingAverageForecaster(), window=4.0)
        tracker.record(0.5)
        tracker.advance(8.0)
        assert tracker.forecaster.history == (0.25, 0.0)
        assert tracker.pending_count == 0

    def test_time_must_not_go_backwards(self):
        tracker = RateTracker(MovingAverageForecaster(), window=1.0)
        tracker.record(5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            tracker.record(4.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            tracker.advance(4.0)

    def test_predict_passes_through(self):
        tracker = RateTracker(LinearTrendForecaster(), window=2.0)
        for t in (0.0, 0.5, 2.5, 3.0, 3.5, 4.5):
            tracker.record(t)
        tracker.advance(6.0)
        assert tracker.predict(1) == tracker.forecaster.predict(1)


# --------------------------------------------------------------------------- #
# Blueprint planning
# --------------------------------------------------------------------------- #
def flat_price(model: str, num_stages: int, bucket: int) -> float:
    """A pure price function: 1ms iterations regardless of bucket."""
    return 1e-3


@pytest.fixture()
def planner_model() -> DecodeModel:
    return make_model("alpha", max_batch_size=4)


class TestBlueprintPlanner:
    def test_validation(self, planner_model):
        with pytest.raises(ValueError, match="max_replicas"):
            BlueprintPlanner(flat_price, [planner_model], max_replicas=0)
        with pytest.raises(ValueError, match="stage_options"):
            BlueprintPlanner(
                flat_price, [planner_model], max_replicas=1, stage_options=(0,)
            )
        with pytest.raises(ValueError, match="headroom"):
            BlueprintPlanner(flat_price, [planner_model], max_replicas=1, headroom=0.5)

    def test_candidates_enumerate_replicas_by_buckets(self, planner_model):
        planner = BlueprintPlanner(flat_price, [planner_model], max_replicas=3)
        candidates = planner.candidates("alpha", TrafficShape())
        # buckets(4) = {1, 2, 4} x 3 replica counts x 1 stage option.
        assert len(candidates) == 9
        chips = [bp.chips for bp in candidates]
        assert chips == sorted(chips)  # cheapest first

    def test_capacity_and_latency_pricing(self, planner_model):
        planner = BlueprintPlanner(flat_price, [planner_model], max_replicas=2)
        shape = TrafficShape(mean_prompt=64, mean_output=16)
        iters = planner_model.ideal_iterations(64, 16)
        for bp in planner.candidates("alpha", shape):
            assert bp.iteration_latency == pytest.approx(1e-3)
            assert bp.request_latency == pytest.approx(iters * 1e-3)
            assert bp.capacity_rps == pytest.approx(
                bp.replicas * bp.bucket / (iters * 1e-3)
            )
            assert bp.chips == bp.replicas * bp.num_stages

    def test_plan_picks_cheapest_feasible(self, planner_model):
        planner = BlueprintPlanner(
            flat_price, [planner_model], max_replicas=4, headroom=1.0
        )
        shape = TrafficShape(mean_prompt=64, mean_output=16)
        one_replica_rate = planner.candidates("alpha", shape)[0].capacity_rps
        # A rate a single bucket-1 replica cannot serve but a bigger bucket
        # or second replica can: the planner stays at the cheapest chips.
        blueprint = planner.plan("alpha", one_replica_rate * 2.5, shape)
        assert blueprint.replicas == 1
        assert blueprint.bucket == 4

    def test_plan_respects_slo_gate(self, planner_model):
        # Price grows with bucket, so big buckets blow the deadline.
        def bucket_price(model, num_stages, bucket):
            return 1e-3 * bucket

        planner = BlueprintPlanner(
            bucket_price, [planner_model], max_replicas=4, headroom=1.0
        )
        iters = planner_model.ideal_iterations(64, 16)
        shape = TrafficShape(
            mean_prompt=64, mean_output=16, slo_seconds=1.5 * iters * 1e-3
        )
        rate = 3.0 * 1 / (iters * 1e-3)  # needs >1 bucket-1 replica
        blueprint = planner.plan("alpha", rate, shape)
        assert blueprint.request_latency <= shape.slo_seconds
        assert blueprint.bucket == 1  # buckets 2/4 violate the SLO
        assert blueprint.replicas >= 3

    def test_plan_saturates_when_infeasible(self, planner_model):
        planner = BlueprintPlanner(flat_price, [planner_model], max_replicas=2)
        shape = TrafficShape()
        blueprint = planner.plan("alpha", 1e12, shape)
        best = max(
            planner.candidates("alpha", shape), key=lambda bp: bp.capacity_rps
        )
        assert blueprint.capacity_rps == best.capacity_rps

    def test_plan_rejects_negative_rate(self, planner_model):
        planner = BlueprintPlanner(flat_price, [planner_model], max_replicas=1)
        with pytest.raises(ValueError, match="rate"):
            planner.plan("alpha", -1.0, TrafficShape())

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="mean_prompt"):
            TrafficShape(mean_prompt=0)
        with pytest.raises(ValueError, match="slo_seconds"):
            TrafficShape(slo_seconds=0.0)


# --------------------------------------------------------------------------- #
# Scaler policies (pure plan() math, no engine)
# --------------------------------------------------------------------------- #
def observation(**overrides) -> ScalerObservation:
    base = dict(
        now=0.0,
        provisioned=2,
        booting=0,
        num_replicas=4,
        queued=0,
        resident=0,
        busy=0,
        arrivals={},
        interval=1.0,
    )
    base.update(overrides)
    return ScalerObservation(**base)


class TestReactiveScaler:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            ReactiveScaler(interval=0.0)
        with pytest.raises(ValueError, match="provision_delay"):
            ReactiveScaler(interval=1.0, provision_delay=-1.0)
        with pytest.raises(ValueError, match="min_replicas"):
            ReactiveScaler(interval=1.0, min_replicas=0)
        with pytest.raises(ValueError, match="scale_up_queue"):
            ReactiveScaler(interval=1.0, scale_up_queue=0)

    def test_scales_up_on_queue_depth(self):
        scaler = ReactiveScaler(interval=1.0, scale_up_queue=4)
        assert scaler.plan(observation(queued=9)) == 2 + math.ceil(9 / 4)
        # Booting capacity counts: no double-ordering while boots are in flight.
        assert scaler.plan(observation(queued=4, booting=1)) == 4

    def test_scales_down_to_busy_when_queue_empty(self):
        scaler = ReactiveScaler(interval=1.0, scale_up_queue=4)
        assert scaler.plan(observation(provisioned=4, busy=2)) == 2
        # min_replicas floors the release.
        assert scaler.plan(observation(provisioned=4, busy=0)) == 1


class TestForecastScaler:
    def make(self, planner_model, **kwargs) -> ForecastScaler:
        planner = BlueprintPlanner(
            flat_price, [planner_model], max_replicas=8, headroom=1.0
        )
        shape = TrafficShape(mean_prompt=64, mean_output=16)
        defaults = dict(interval=1.0, provision_delay=2.0, hold_ticks=1)
        defaults.update(kwargs)
        return ForecastScaler(planner, {"alpha": shape}, **defaults)

    def test_needs_shapes(self, planner_model):
        planner = BlueprintPlanner(flat_price, [planner_model], max_replicas=1)
        with pytest.raises(ValueError, match="shape"):
            ForecastScaler(planner, {}, interval=1.0)

    def test_steps_ahead_covers_the_provision_delay(self, planner_model):
        assert self.make(planner_model, provision_delay=0.0).steps_ahead == 1
        assert self.make(planner_model, provision_delay=2.5).steps_ahead == 3

    def test_no_traffic_plans_the_floor(self, planner_model):
        scaler = self.make(planner_model, min_replicas=2)
        assert scaler.plan(observation(arrivals={"alpha": 0})) == 2

    def test_ramp_raises_the_target_ahead_of_the_load(self, planner_model):
        scaler = self.make(planner_model)
        iters = planner_model.ideal_iterations(64, 16)
        per_replica = 4 / (iters * 1e-3)  # bucket-4 capacity of one replica
        targets = []
        for tick in range(5):
            rate = per_replica * (0.5 + tick)  # steep ramp in capacity units
            count = int(rate * 1.0)
            targets.append(scaler.plan(observation(arrivals={"alpha": count})))
        assert targets[-1] > targets[0]
        # The trend forecaster plans past the last observation: the final
        # target covers more than the last observed rate alone needs.
        assert targets[-1] >= math.ceil((per_replica * 4.5) / per_replica)

    def test_hold_ticks_resists_a_noisy_dip(self, planner_model):
        scaler = self.make(planner_model, hold_ticks=3, provision_delay=0.0)
        iters = planner_model.ideal_iterations(64, 16)
        per_replica = 4 / (iters * 1e-3)
        high = scaler.plan(observation(arrivals={"alpha": int(4 * per_replica)}))
        dip = scaler.plan(observation(arrivals={"alpha": 0}))
        assert dip >= high  # held up by the recent high-water mark
        scaler.plan(observation(arrivals={"alpha": 0}))
        low = scaler.plan(observation(arrivals={"alpha": 0}))
        assert low == scaler.min_replicas  # the hold window has drained

    def test_hold_ticks_validation(self, planner_model):
        with pytest.raises(ValueError, match="hold_ticks"):
            self.make(planner_model, hold_ticks=0)


# --------------------------------------------------------------------------- #
# FleetEngine integration: the scaler drives paid provisioning
# --------------------------------------------------------------------------- #
def scaled_engine(cache, small_chip, fast_constraints, **kwargs) -> FleetEngine:
    kwargs.setdefault("router", CostAwareRouter())
    kwargs.setdefault("num_chips", 3)
    return FleetEngine(
        [make_model("alpha", max_batch_size=2)],
        chip=small_chip,
        constraints=fast_constraints,
        plan_cache=cache,
        **kwargs,
    )


def steady_workload(num_requests: int = 60, rate: float = 400.0):
    return decode_workload(
        "alpha", num_requests=num_requests, rate=rate, seed=0, slo_seconds=1.0
    )


class TestFleetScaling:
    def test_scaler_needs_health_aware_router(self, cache, small_chip, fast_constraints):
        engine = scaled_engine(
            cache, small_chip, fast_constraints, router=LeastLoadedRouter()
        )
        engine.warm()
        with pytest.raises(ValueError, match="health-aware"):
            engine.run(steady_workload(), scaler=ReactiveScaler(interval=0.01))

    def test_no_scaler_keeps_free_instant_provisioning(
        self, cache, small_chip, fast_constraints
    ):
        engine = scaled_engine(cache, small_chip, fast_constraints)
        engine.warm()
        report = engine.run(steady_workload())
        assert report.provision_ups == report.provision_downs == 0
        # Without a scaler, what was active is what was provisioned (free).
        assert report.provisioned_chip_seconds == pytest.approx(
            report.active_chip_seconds
        )

    def test_reactive_scaler_run_balances_and_pays(
        self, cache, small_chip, fast_constraints
    ):
        engine = scaled_engine(cache, small_chip, fast_constraints)
        engine.warm()
        workload = steady_workload()
        report = engine.run(
            workload, scaler=ReactiveScaler(interval=0.005, provision_delay=0.01)
        )
        # Also: capacity held (provisioned or booting) costs at least what ran.
        assert check_report(report, workload) == []
        assert report.provisioned_chip_seconds > 0
        assert report.peak_provisioned_chips <= 3

    def test_forecast_scaler_run_provisions_up_and_down(
        self, cache, small_chip, fast_constraints
    ):
        engine = scaled_engine(cache, small_chip, fast_constraints)
        engine.warm()
        planner = BlueprintPlanner.for_engine(engine)
        # Express load in the engine's own capacity units so the diurnal
        # peak genuinely needs more than one replica and the trough less.
        mean_iters = engine.deployments[0].ideal_iterations(72, 26)
        replica_rate = 2 / (mean_iters * engine.iteration_latency("alpha", 2))
        interval = 20 * engine.iteration_latency("alpha", 1)
        duration = 60 * interval
        workload = diurnal_workload(
            "alpha",
            base_rate=2.0 * replica_rate,
            period=duration,
            amplitude=0.9,
            duration=duration,
            seed=5,
        )
        scaler = ForecastScaler(
            planner,
            {"alpha": TrafficShape(mean_prompt=72, mean_output=26)},
            interval=interval,
            provision_delay=2 * interval,
            hold_ticks=1,
        )
        report = engine.run(workload, scaler=scaler)
        assert check_report(report, workload) == []
        assert report.provision_ups > 0
        assert report.provision_downs > 0
        assert 0 < report.mean_provisioned_chips <= 3

    def test_scaled_runs_replay_bit_identically(
        self, cache, small_chip, fast_constraints
    ):
        def one_run():
            engine = scaled_engine(cache, small_chip, fast_constraints)
            engine.warm()
            report = engine.run(
                steady_workload(),
                scaler=ReactiveScaler(interval=0.005, provision_delay=0.01),
            )
            return [
                (r.request.request_id, r.replica, r.tokens_generated, r.completion_time)
                for r in report.completed
            ]

        assert one_run() == one_run()

    def test_min_replicas_bounds_the_initial_fleet(
        self, cache, small_chip, fast_constraints
    ):
        engine = scaled_engine(cache, small_chip, fast_constraints)
        engine.warm()
        report = engine.run(
            steady_workload(num_requests=20, rate=200.0),
            scaler=ReactiveScaler(interval=0.005, min_replicas=3),
        )
        # The floor holds the whole fleet provisioned: nothing to release.
        assert report.provision_downs == 0
        assert report.peak_provisioned_chips == 3
