"""Tests for continuous-batching autoregressive serving (repro.serving.continuous)."""

from __future__ import annotations

import math

import pytest

from repro.core import T10Compiler
from repro.ir import OperatorGraph, elementwise, matmul
from repro.serving import (
    DECODE_OK,
    DECODE_SHED,
    SLO_BEST_EFFORT,
    SLO_INTERACTIVE,
    ContinuousEngine,
    DecodeModel,
    DecodeRequest,
    DynamicBatcher,
    PlanCache,
    StaticEngine,
    TenantSpec,
    WorkerPool,
    decode_workload,
    merge_decode_workloads,
    uniform_workload,
)


def tiny_decode_builder(batch_size: int, *, width: int = 64) -> OperatorGraph:
    """A decode-step-shaped graph scaled by batch size (fast to compile)."""
    graph = OperatorGraph(name=f"tiny-decode-b{batch_size}")
    fc1 = graph.add(matmul("fc1", m=batch_size * 8, k=width, n=width))
    act = graph.add(
        elementwise("act", {"m": batch_size * 8, "n": width}, kind="relu"),
        inputs=[fc1],
    )
    graph.add(matmul("fc2", m=batch_size * 8, k=width, n=32), inputs=[act])
    return graph


@pytest.fixture()
def cache(small_cost_model, fast_constraints):
    """A plan cache compiling with the shared test cost model."""
    return PlanCache(
        compiler_factory=lambda chip, constraints: T10Compiler(
            chip, cost_model=small_cost_model, constraints=constraints
        ),
    )


def make_model(*, max_batch_size: int = 4, prefill_chunk: int = 64) -> DecodeModel:
    return DecodeModel(
        name="tiny",
        decode_builder=tiny_decode_builder,
        max_batch_size=max_batch_size,
        prefill_chunk=prefill_chunk,
    )


def make_engine(cache, small_chip, fast_constraints, **kwargs) -> ContinuousEngine:
    model = kwargs.pop("model", None) or make_model(
        max_batch_size=kwargs.pop("max_batch_size", 4)
    )
    return ContinuousEngine(
        model,
        chip=small_chip,
        constraints=fast_constraints,
        plan_cache=cache,
        **kwargs,
    )


def request(
    request_id: int,
    arrival: float,
    *,
    tokens: int = 4,
    prompt: int = 16,
    slo_class: str = SLO_INTERACTIVE,
    deadline: float | None = None,
) -> DecodeRequest:
    return DecodeRequest(
        request_id=request_id,
        model="tiny",
        arrival_time=arrival,
        prompt_tokens=prompt,
        max_new_tokens=tokens,
        slo_class=slo_class,
        deadline=deadline,
    )


# --------------------------------------------------------------------------- #
# Requests and workload generation
# --------------------------------------------------------------------------- #
class TestDecodeRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            request(0, -1.0)
        with pytest.raises(ValueError):
            request(0, 0.0, prompt=0)
        with pytest.raises(ValueError):
            request(0, 0.0, tokens=0)
        with pytest.raises(ValueError):
            DecodeRequest(0, "m", 0.0, 1, 1, slo_class="bulk")
        with pytest.raises(ValueError):
            request(0, 5.0, deadline=4.0)

    def test_interactive_flag(self):
        assert request(0, 0.0).interactive
        assert not request(0, 0.0, slo_class=SLO_BEST_EFFORT).interactive

    def test_workload_is_deterministic_and_within_ranges(self):
        first = decode_workload(
            "tiny", num_requests=50, rate=100.0, seed=7, slo_seconds=0.5
        )
        second = decode_workload(
            "tiny", num_requests=50, rate=100.0, seed=7, slo_seconds=0.5
        )
        assert first == second
        assert len(first) == 50
        assert all(16 <= req.prompt_tokens <= 128 for req in first)
        assert all(4 <= req.max_new_tokens <= 48 for req in first)
        arrivals = [req.arrival_time for req in first]
        assert arrivals == sorted(arrivals)

    def test_workload_deadlines_only_on_interactive(self):
        requests = decode_workload(
            "tiny",
            num_requests=60,
            rate=100.0,
            seed=1,
            interactive_fraction=0.5,
            slo_seconds=lambda prompt, output: 0.01 * output,
        )
        classes = {req.slo_class for req in requests}
        assert classes == {SLO_INTERACTIVE, SLO_BEST_EFFORT}
        for req in requests:
            if req.interactive:
                assert req.deadline is not None
                assert req.deadline == pytest.approx(
                    req.arrival_time + 0.01 * req.max_new_tokens
                )
            else:
                assert req.deadline is None

    def test_workload_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decode_workload("tiny", num_requests=0, rate=1.0)
        with pytest.raises(ValueError):
            decode_workload("tiny", num_requests=1, rate=0.0)
        with pytest.raises(ValueError):
            decode_workload("tiny", num_requests=1, rate=1.0, interactive_fraction=2.0)

    def test_workload_tags_tenant(self):
        requests = decode_workload(
            "tiny", num_requests=5, rate=100.0, seed=0, tenant="acme"
        )
        assert all(req.tenant == "acme" for req in requests)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("")
        with pytest.raises(ValueError):
            TenantSpec("t", fairness_floor=1.5)
        with pytest.raises(ValueError):
            TenantSpec("t", weight=0.0)
        spec = TenantSpec("t", fairness_floor=0.5, weight=2.0)
        assert (spec.name, spec.fairness_floor, spec.weight) == ("t", 0.5, 2.0)


class TestMergeDecodeWorkloads:
    def streams(self):
        return [
            decode_workload(
                "tiny", num_requests=12, rate=200.0, seed=1, tenant="acme"
            ),
            decode_workload(
                "tiny", num_requests=8, rate=150.0, seed=2, tenant="globex"
            ),
        ]

    def test_renumbers_colliding_ids_in_arrival_order(self):
        merged = merge_decode_workloads(*self.streams())
        assert [req.request_id for req in merged] == list(range(20))
        times = [req.arrival_time for req in merged]
        assert times == sorted(times)
        assert {req.tenant for req in merged} == {"acme", "globex"}

    def test_permutation_invariant(self):
        forward = merge_decode_workloads(*self.streams())
        backward = merge_decode_workloads(*reversed(self.streams()))
        assert forward == backward

    def test_rejects_indistinguishable_requests(self):
        stream = decode_workload(
            "tiny", num_requests=3, rate=100.0, seed=1, tenant="acme"
        )
        with pytest.raises(ValueError, match="indistinguishable"):
            merge_decode_workloads(stream, stream)


class TestDecodeModel:
    def test_prefill_iterations(self):
        model = make_model(prefill_chunk=64)
        assert model.prefill_iterations(1) == 1
        assert model.prefill_iterations(64) == 1
        assert model.prefill_iterations(65) == 2
        assert model.total_iterations(request(0, 0.0, tokens=5, prompt=65)) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeModel("", tiny_decode_builder)
        with pytest.raises(ValueError):
            DecodeModel("m", tiny_decode_builder, max_batch_size=0)
        with pytest.raises(ValueError):
            DecodeModel("m", tiny_decode_builder, prefill_chunk=0)


# --------------------------------------------------------------------------- #
# Worker-pool iteration costing
# --------------------------------------------------------------------------- #
class TestIterationProfile:
    def test_profile_pays_compile_once(self, cache, small_chip, fast_constraints):
        pool = WorkerPool(small_chip, plan_cache=cache, constraints=fast_constraints)
        graph = tiny_decode_builder(2)
        cold = pool.profile(graph)
        assert cold.ok
        assert cold.cache_outcome == "compile"
        assert cold.compile_seconds > 0
        assert cold.latency > 0
        warm = pool.profile(tiny_decode_builder(2))
        assert warm.cache_outcome == "hit-memory"
        assert warm.compile_seconds == 0.0
        assert warm.latency == cold.latency


# --------------------------------------------------------------------------- #
# Continuous engine
# --------------------------------------------------------------------------- #
class TestContinuousEngine:
    def test_warm_compiles_each_bucket_once(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints, max_batch_size=4)
        engine.warm()
        assert cache.stats.misses == 3  # buckets 1, 2, 4
        engine.warm()
        assert cache.stats.misses == 3
        report = engine.run([request(0, 0.0), request(1, 0.0)])
        assert report.cache.misses == 0

    def test_short_requests_retire_before_long_cobatched_ones(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        report = engine.run(
            [request(0, 0.0, tokens=12), request(1, 0.0, tokens=2)]
        )
        long_record, short_record = report.completed
        assert short_record.completion_time < long_record.completion_time
        assert short_record.tokens_generated == 2
        assert long_record.tokens_generated == 12

    def test_admission_at_iteration_boundary(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        # The second request arrives mid-generation of the first and joins
        # the running batch at the next boundary instead of waiting for the
        # first to finish.
        late = request(1, arrival=unit * 1.5, tokens=2)
        report = engine.run([request(0, 0.0, tokens=10), late])
        late_record = next(r for r in report.completed if r.request.request_id == 1)
        first_record = next(r for r in report.completed if r.request.request_id == 0)
        assert late_record.admitted_time < first_record.completion_time
        assert late_record.completion_time < first_record.completion_time

    def test_edf_admission_order(self, cache, small_chip, fast_constraints):
        engine = make_engine(
            cache, small_chip, fast_constraints, model=make_model(max_batch_size=1)
        )
        unit = engine.iteration_latency(1)
        # Both queue behind a running request; the later arrival has the
        # tighter deadline and must be admitted first.
        blocker = request(0, 0.0, tokens=6)
        loose = request(1, arrival=unit * 0.1, tokens=1, deadline=unit * 1000)
        tight = request(2, arrival=unit * 0.2, tokens=1, deadline=unit * 900)
        report = engine.run([blocker, loose, tight])
        by_id = {r.request.request_id: r for r in report.completed}
        assert by_id[2].admitted_time < by_id[1].admitted_time

    def test_preemption_of_best_effort(self, cache, small_chip, fast_constraints):
        engine = make_engine(
            cache, small_chip, fast_constraints, model=make_model(max_batch_size=1)
        )
        unit = engine.iteration_latency(1)
        best_effort = request(0, 0.0, tokens=20, slo_class=SLO_BEST_EFFORT)
        interactive = request(1, arrival=unit * 1.5, tokens=2)
        report = engine.run([best_effort, interactive])
        assert report.preemptions == 1
        be_record = next(r for r in report.completed if r.request.request_id == 0)
        it_record = next(r for r in report.completed if r.request.request_id == 1)
        assert be_record.preemptions == 1
        # The interactive request finished first; the preempted best-effort
        # request kept its progress and still generated every token.
        assert it_record.completion_time < be_record.completion_time
        assert be_record.tokens_generated == 20

    def test_load_shedding_of_hopeless_requests(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        hopeless = request(0, 0.0, tokens=50, deadline=unit * 0.5)
        report = engine.run([hopeless])
        assert report.shed == 1
        record = report.completed[0]
        assert record.status == DECODE_SHED
        assert not record.ok
        assert not record.met_slo
        assert record.tokens_generated == 0
        assert math.isnan(record.time_to_first_token)
        assert report.total_completed == 0

    def test_shedding_can_be_disabled(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints, shed=False)
        unit = engine.iteration_latency(1)
        hopeless = request(0, 0.0, tokens=50, deadline=unit * 0.5)
        report = engine.run([hopeless])
        assert report.shed == 0
        record = report.completed[0]
        assert record.status == DECODE_OK
        assert not record.met_slo  # served, but past its deadline
        assert report.slo_attainment == 0.0

    def test_autoscaling_grows_and_shrinks_with_queue_depth(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(
            cache, small_chip, fast_constraints, num_chips=2, max_batch_size=2
        )
        # A burst far deeper than one replica's batch: the second replica
        # must activate, then deactivate once the backlog drains.
        burst = [request(i, 0.0, tokens=2) for i in range(12)]
        report = engine.run(burst)
        assert report.scale_ups >= 1
        assert report.scale_downs >= 1
        assert report.peak_active_chips == 2
        assert 1.0 < report.mean_active_chips <= 2.0

    def test_min_replicas_pins_the_fleet(self, cache, small_chip, fast_constraints):
        engine = make_engine(
            cache, small_chip, fast_constraints, num_chips=2, min_replicas=2
        )
        report = engine.run([request(0, 0.0)])
        assert report.scale_ups == 0
        assert report.scale_downs == 0
        assert report.mean_active_chips == pytest.approx(2.0)

    def test_determinism(self, cache, small_chip, fast_constraints):
        workload = decode_workload(
            "tiny", num_requests=40, rate=5000.0, seed=3, slo_seconds=0.01
        )
        first = make_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload
        )
        second = make_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload
        )
        assert first.completed == second.completed
        assert first.iterations == second.iterations
        assert first.makespan == second.makespan

    def test_empty_workload(self, cache, small_chip, fast_constraints):
        report = make_engine(cache, small_chip, fast_constraints).run([])
        assert report.completed == ()
        assert report.makespan == 0.0
        assert report.iterations == 0
        assert report.throughput == 0.0
        assert math.isnan(report.slo_attainment)

    def test_rejects_unknown_model_and_bad_config(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        with pytest.raises(ValueError, match="unserved"):
            engine.run(
                [DecodeRequest(0, "other-model", 0.0, 16, 4)]
            )
        with pytest.raises(ValueError, match="jobs"):
            ContinuousEngine(
                make_model(),
                chip=small_chip,
                constraints=fast_constraints,
                plan_cache=cache,
                jobs=2,
            )
        with pytest.raises(ValueError, match="min_replicas"):
            make_engine(cache, small_chip, fast_constraints, min_replicas=5)

    def test_mean_active_chips_bounded_with_shed_leading_request(
        self, cache, small_chip, fast_constraints
    ):
        # Regression: active time used to be divided by the served-request
        # makespan, so a shed request long before the served traffic made
        # mean_active_chips explode past the fleet size (hundreds of chips
        # on a one-chip fleet).
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        hopeless = request(0, 0.0, tokens=50, deadline=unit * 0.5)
        late = request(1, arrival=unit * 1000, tokens=2)
        report = engine.run([hopeless, late])
        assert report.shed == 1
        assert report.total_completed == 1
        assert report.active_span >= report.makespan
        assert 0.0 < report.mean_active_chips <= report.num_chips

    def test_report_accounting_is_consistent(self, cache, small_chip, fast_constraints):
        workload = decode_workload(
            "tiny", num_requests=30, rate=5000.0, seed=5, slo_seconds=0.005
        )
        report = make_engine(cache, small_chip, fast_constraints).run(workload)
        assert len(report.completed) == 30
        assert report.total_completed + report.shed == 30
        assert report.total_tokens == sum(
            r.tokens_generated for r in report.ok_requests
        )
        assert report.slo_met <= report.total_completed
        assert report.goodput <= report.throughput
        assert 0.0 <= report.utilization <= 1.0
        assert report.summary()  # renders without raising


# --------------------------------------------------------------------------- #
# Static baseline
# --------------------------------------------------------------------------- #
class TestStaticEngine:
    def test_head_of_line_blocking(self, cache, small_chip, fast_constraints):
        model = make_model(max_batch_size=2)
        engine = StaticEngine(
            model, chip=small_chip, constraints=fast_constraints, plan_cache=cache
        )
        unit = engine.iteration_latency(2)
        long_req = request(0, 0.0, tokens=20)
        short_req = request(1, 0.0, tokens=1)
        late = request(2, arrival=unit * 2, tokens=1)
        report = engine.run([long_req, short_req, late])
        by_id = {r.request.request_id: r for r in report.completed}
        # The late request cannot join the running batch: it waits for the
        # batch's longest member even though a slot freed long before.
        assert by_id[2].admitted_time >= by_id[0].completion_time

    def test_no_slo_machinery(self, cache, small_chip, fast_constraints):
        engine = StaticEngine(
            make_model(), chip=small_chip, constraints=fast_constraints, plan_cache=cache
        )
        unit = engine.iteration_latency(1)
        report = engine.run(
            [request(0, 0.0, tokens=30, deadline=unit * 0.5), request(1, 0.0)]
        )
        assert report.shed == 0
        assert report.preemptions == 0
        assert report.scale_ups == 0
        assert report.total_completed == 2

    def test_same_cache_as_continuous(self, cache, small_chip, fast_constraints):
        """Both engines share per-bucket programs through one plan cache."""
        continuous = make_engine(cache, small_chip, fast_constraints)
        continuous.warm()
        misses = cache.stats.misses
        static = StaticEngine(
            make_model(), chip=small_chip, constraints=fast_constraints, plan_cache=cache
        )
        static.warm()
        assert cache.stats.misses == misses  # every bucket was a hit


# --------------------------------------------------------------------------- #
# Pipeline-sharded decode (num_stages > 1)
# --------------------------------------------------------------------------- #
class TestShardedDecode:
    def sharded_model(self, *, max_batch_size: int = 2) -> DecodeModel:
        return DecodeModel(
            name="tiny",
            decode_builder=tiny_decode_builder,
            max_batch_size=max_batch_size,
            num_stages=2,
        )

    def test_both_engines_run_sharded(self, cache, small_chip, fast_constraints):
        """A num_stages=2 model occupies a two-chip group per replica and the
        chip-seconds/peak accounting scales with the group size."""
        model = self.sharded_model()
        workload = decode_workload(
            "tiny", num_requests=12, rate=5000.0, seed=9, slo_seconds=0.005
        )
        for engine_cls in (ContinuousEngine, StaticEngine):
            report = engine_cls(
                model,
                chip=small_chip,
                num_chips=2,
                constraints=fast_constraints,
                plan_cache=cache,
            ).run(workload)
            assert report.num_stages == 2
            assert report.num_chips == 2
            assert report.total_completed + report.shed == 12
            assert report.peak_active_chips == 2  # one group of two chips
            assert report.busy_chip_seconds > 0
            assert 0.0 <= report.utilization <= 1.0
            assert report.iterations > 0

    def test_sharded_matches_unsharded_token_accounting(
        self, cache, small_chip, fast_constraints
    ):
        """Sharding changes where iterations run, never how many tokens each
        request generates."""
        workload = decode_workload("tiny", num_requests=8, rate=5000.0, seed=4)
        sharded = ContinuousEngine(
            self.sharded_model(),
            chip=small_chip,
            num_chips=2,
            constraints=fast_constraints,
            plan_cache=cache,
        ).run(workload)
        flat = ContinuousEngine(
            make_model(max_batch_size=2),
            chip=small_chip,
            num_chips=1,
            constraints=fast_constraints,
            plan_cache=cache,
        ).run(workload)
        def tokens(report):
            return {r.request.request_id: r.tokens_generated for r in report.ok_requests}

        assert tokens(sharded) == tokens(flat)

    def test_fleet_smaller_than_group_is_rejected(
        self, cache, small_chip, fast_constraints
    ):
        with pytest.raises(ValueError, match="group"):
            ContinuousEngine(
                self.sharded_model(),
                chip=small_chip,
                num_chips=1,
                constraints=fast_constraints,
                plan_cache=cache,
            )


# --------------------------------------------------------------------------- #
# Accounting bugfixes (shed sentinels, migration re-prefill, raw utilization,
# autoscale hysteresis) — regression tests for repro.serving PR 7
# --------------------------------------------------------------------------- #
class TestAccountingFixes:
    def test_shed_records_use_sentinels_not_fabricated_values(
        self, cache, small_chip, fast_constraints
    ):
        """A shed request was never admitted and never placed: its record
        must say so (NaN admission, replica -1) instead of fabricating an
        admitted_time=now and whatever replica index was at hand."""
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        report = engine.run([request(0, 0.0, tokens=50, deadline=unit * 0.5)])
        assert report.shed == 1
        record = report.completed[0]
        assert math.isnan(record.admitted_time)
        assert record.replica == -1
        assert record.requeues == 0
        # Served requests still carry real values.
        served = make_engine(cache, small_chip, fast_constraints).run(
            [request(1, 0.0, tokens=2)]
        )
        record = served.completed[0]
        assert record.admitted_time == 0.0
        assert record.replica == 0

    def test_preemption_resume_on_other_replica_charges_reprefill(
        self, cache, small_chip, fast_constraints
    ):
        """KV state lives on the replica that ran the prefill: a preempted
        request resuming on a *different* replica must redo its prefill and
        all generated tokens (counted as a migration), never silently carry
        its progress across chips."""
        model = make_model(max_batch_size=1)
        be0 = request(0, 0.0, tokens=30, slo_class=SLO_BEST_EFFORT)
        unit_engine = make_engine(
            cache, small_chip, fast_constraints, model=model, num_chips=2,
            min_replicas=2,
        )
        unit = unit_engine.iteration_latency(1)
        # int1 occupies replica 1; the long int2 preempts be0 off replica 0;
        # replica 1 frees first, so be0 resumes there — a migration.
        int1 = request(1, arrival=0.5 * unit, tokens=2)
        int2 = request(2, arrival=1.5 * unit, tokens=20)
        workload = [be0, int1, int2]
        migrated = unit_engine.run(workload)
        assert migrated.preemptions >= 1
        assert migrated.migrations >= 1
        be_record = next(
            r for r in migrated.completed if r.request.request_id == 0
        )
        assert be_record.requeues >= 1
        assert be_record.tokens_generated == 30  # all tokens still delivered
        # Same workload on one replica: resume happens on the origin, keeps
        # progress, and therefore takes strictly fewer decode iterations.
        control = make_engine(
            cache, small_chip, fast_constraints, model=make_model(max_batch_size=1)
        ).run(workload)
        assert control.migrations == 0
        assert migrated.iterations > sum(
            model.ideal_iterations(r.prompt_tokens, r.max_new_tokens)
            for r in workload
        )
        assert control.iterations == sum(
            model.ideal_iterations(r.prompt_tokens, r.max_new_tokens)
            for r in workload
        )

    @pytest.mark.parametrize("engine_cls", [ContinuousEngine, StaticEngine])
    def test_chip_seconds_are_ordered(
        self, cache, small_chip, fast_constraints, engine_cls
    ):
        """busy <= active <= provisioned; without a provisioning scaler the
        engines provision on demand, so provisioned equals active."""
        engine = engine_cls(
            make_model(),
            chip=small_chip,
            constraints=fast_constraints,
            plan_cache=cache,
            num_chips=2,
        )
        report = engine.run(
            decode_workload("tiny", num_requests=12, rate=2000.0, seed=4)
        )
        assert 0.0 < report.busy_chip_seconds <= report.active_chip_seconds + 1e-12
        assert report.provisioned_chip_seconds == report.active_chip_seconds
        assert report.peak_provisioned_chips == report.peak_active_chips > 0

    def test_pool_utilization_is_raw_and_bounded(
        self, cache, small_chip, fast_constraints
    ):
        """utilization() reports the raw busy/span ratio: legitimately <= 1
        (+ float eps) after any run, and deliberately unclamped so that
        busy-seconds double-accounting would surface as > 1 instead of being
        silently masked."""
        pool = WorkerPool(
            small_chip, num_chips=2, plan_cache=cache, constraints=fast_constraints
        )
        batcher = DynamicBatcher(max_batch_size=1, batch_window=0.0)
        graph = tiny_decode_builder(1)
        for batch in batcher.batches(
            uniform_workload(["tiny"], num_requests=6, interval=0.0)
        ):
            pool.place(batch, graph)
        assert 0.0 < pool.utilization() <= 1.0 + 1e-9
        # The clamp is really gone: inject double-accounted busy seconds and
        # the ratio must read above 1 rather than saturating at it.
        pool.busy_seconds += pool.makespan * pool.num_chips
        assert pool.utilization() > 1.0

    def test_autoscale_hysteresis_at_scale_up_queue_boundary(
        self, cache, small_chip, fast_constraints
    ):
        """The second replica activates only when the backlog strictly
        exceeds scale_up_queue per active replica, deactivates once it
        drains, and peak_active never exceeds the fleet."""
        def burst(n):
            return [request(i, 0.0, tokens=2) for i in range(n)]

        def engine():
            return make_engine(
                cache, small_chip, fast_constraints,
                model=make_model(max_batch_size=1), num_chips=2, scale_up_queue=3,
            )

        # 1 running + 3 queued == the boundary: no scale-up.
        at_boundary = engine().run(burst(4))
        assert at_boundary.scale_ups == 0
        assert at_boundary.scale_downs == 0
        assert at_boundary.peak_active_chips == 1
        # One more request crosses it: scale up, then back down on drain.
        over_boundary = engine().run(burst(5))
        assert over_boundary.scale_ups == 1
        assert over_boundary.scale_downs == 1
        assert over_boundary.peak_active_chips == 2
        for report in (at_boundary, over_boundary):
            assert report.peak_active_chips <= report.num_chips
