"""Tests for continuous-batching autoregressive serving (repro.serving.continuous)."""

from __future__ import annotations

import heapq
import math
import pickle
from dataclasses import MISSING, FrozenInstanceError, asdict, fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    DECODE_OK,
    DECODE_SHED,
    SLO_BEST_EFFORT,
    SLO_INTERACTIVE,
    CompletedDecode,
    ContinuousEngine,
    ContinuousReport,
    DecodeModel,
    DecodeRequest,
    FaultSchedule,
    FleetEngine,
    StaticEngine,
    TenantSpec,
    Watchdog,
    WorkerPool,
    check_report,
    chip_death,
    decode_workload,
    merge_decode_workloads,
    restart,
)
from repro.serving.continuous import (
    _EV_ARRIVAL,
    _EV_FAULT,
    _EV_ITER_END,
    ACTIVE,
    IDLE,
    _DecodeRun,
    _Replica,
    _Running,
    _StaticRun,
)

from scenarios import (
    CONTINUOUS,
    FLEET,
    STATIC,
    Replay,
    ScriptedScaler,
    make_engine,
    make_model,
    mixed_workload,
    request,
    scenarios,
    tiny_builder,
)

tiny_decode_builder = tiny_builder("tiny-decode")


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

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_arrivals(self, arrival):
        """A NaN arrival compares false with everything, so it used to pass
        the ``< 0`` check and break the engines' arrival ordering."""
        with pytest.raises(ValueError, match="arrival_time"):
            request(0, arrival)

    def test_rejects_a_nan_deadline_but_not_an_infinite_one(self):
        with pytest.raises(ValueError, match="deadline"):
            request(0, 1.0, deadline=math.nan)
        assert request(0, 1.0, deadline=math.inf).deadline == math.inf

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



class TestRecordContract:
    """Reports, tests and figures read records by field, compare their
    ``repr`` and replace fields on copies, so a record must stay the same
    immutable value whatever its representation."""

    def served(self) -> CompletedDecode:
        return CompletedDecode(
            request=DecodeRequest(7, "opt", 0.5, 16, 3, deadline=2.0, tenant="chat"),
            status=DECODE_OK,
            admitted_time=0.75,
            first_token_time=1.0,
            completion_time=1.5,
            tokens_generated=3,
            preemptions=1,
            replica=2,
        )

    def test_fields_and_defaults(self):
        assert [(f.name, f.default) for f in fields(CompletedDecode)] == [
            ("request", MISSING),
            ("status", MISSING),
            ("admitted_time", MISSING),
            ("first_token_time", MISSING),
            ("completion_time", MISSING),
            ("tokens_generated", MISSING),
            ("preemptions", 0),
            ("replica", -1),
            ("requeues", 0),
            ("migrations", 0),
            ("lost_tokens", 0),
        ]
        record = self.served()
        assert (record.requeues, record.migrations, record.lost_tokens) == (0, 0, 0)
        assert record == CompletedDecode(
            record.request, DECODE_OK, 0.75, 1.0, 1.5, 3, 1, 2, 0, 0, 0
        )
        assert (record.ok, record.met_slo, record.latency) == (True, True, 1.0)
        assert (record.time_to_first_token, record.time_per_output_token) == (0.5, 0.25)

    def test_repr_is_the_dataclass_repr(self):
        request_repr = (
            "DecodeRequest(request_id=7, model='opt', arrival_time=0.5, "
            "prompt_tokens=16, max_new_tokens=3, slo_class='interactive', "
            "deadline=2.0, tenant='chat')"
        )
        record = self.served()
        assert repr(record) == (
            f"CompletedDecode(request={request_repr}, status='ok', "
            "admitted_time=0.75, first_token_time=1.0, completion_time=1.5, "
            "tokens_generated=3, preemptions=1, replica=2, requeues=0, "
            "migrations=0, lost_tokens=0)"
        )
        shed = CompletedDecode(record.request, DECODE_SHED, math.nan, math.nan, 0.5, 0)
        assert repr(shed) == (
            f"CompletedDecode(request={request_repr}, status='shed', "
            "admitted_time=nan, first_token_time=nan, completion_time=0.5, "
            "tokens_generated=0, preemptions=0, replica=-1, requeues=0, "
            "migrations=0, lost_tokens=0)"
        )

    def test_compares_and_hashes_by_value(self):
        first, second = self.served(), self.served()
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert hash(first) == hash(tuple(getattr(first, f.name) for f in fields(first)))
        assert first != replace(first, replica=3)
        assert len({first, second, replace(first, replica=3)}) == 2

    @pytest.mark.parametrize("name", ["status", "replica", "ok", "latency", "other"])
    def test_is_immutable(self, name):
        record = self.served()
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == self.served()

    def test_replace_fields_and_asdict(self):
        record = self.served()
        shed = replace(record, status=DECODE_SHED, replica=-1)
        assert (shed.status, shed.replica, shed.request) == (
            DECODE_SHED,
            -1,
            record.request,
        )
        assert not shed.ok and not shed.met_slo
        assert record.status == DECODE_OK  # the original is untouched
        assert asdict(record) == {
            "request": asdict(record.request),
            "status": DECODE_OK,
            "admitted_time": 0.75,
            "first_token_time": 1.0,
            "completion_time": 1.5,
            "tokens_generated": 3,
            "preemptions": 1,
            "replica": 2,
            "requeues": 0,
            "migrations": 0,
            "lost_tokens": 0,
        }

    def test_pickle_round_trip(self):
        record = self.served()
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is CompletedDecode
        shed = CompletedDecode(record.request, DECODE_SHED, math.nan, math.nan, 0.5, 0)
        assert repr(pickle.loads(pickle.dumps(shed))) == repr(shed)

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

    def test_keeps_every_field_but_the_id(self):
        """Each renumbered request equals its source in every other field.

        The streams set every field away from its default somewhere, so a
        field added to ``DecodeRequest`` but not copied by the merge fails
        here instead of silently taking its default.
        """
        streams = [
            decode_workload(
                "tiny", num_requests=12, rate=200.0, seed=1, tenant="acme",
                slo_seconds=0.5,
            ),
            decode_workload(
                "other", num_requests=8, rate=150.0, seed=2, tenant="globex",
                interactive_fraction=0.5, slo_seconds=0.25,
            ),
        ]
        sources = sorted(
            (req for stream in streams for req in stream),
            key=lambda req: (req.arrival_time, req.tenant, req.model, req.request_id),
        )
        merged = merge_decode_workloads(*streams)
        names = [f.name for f in fields(DecodeRequest) if f.name != "request_id"]
        for field in fields(DecodeRequest):
            if field.default is not MISSING:
                assert any(
                    getattr(req, field.name) != field.default for req in sources
                ), f"no test request sets {field.name!r} away from its default"
        for source, copy in zip(sources, merged, strict=True):
            assert [getattr(copy, name) for name in names] == [
                getattr(source, name) for name in names
            ]

    def test_rejects_indistinguishable_requests(self):
        stream = decode_workload(
            "tiny", num_requests=3, rate=100.0, seed=1, tenant="acme"
        )
        with pytest.raises(ValueError, match="indistinguishable"):
            merge_decode_workloads(stream, stream)


class TestDecodeModel:
    @settings(max_examples=200, deadline=None)
    @given(
        prefill_chunk=st.integers(1, 200),
        prompt=st.integers(1, 5000),
        output=st.integers(1, 500),
    )
    def test_ideal_iterations_is_prefill_plus_decode(self, prefill_chunk, prompt, output):
        model = make_model(prefill_chunk=prefill_chunk)
        assert model.ideal_iterations(prompt, output) == (
            model.prefill_iterations(prompt) + output - 1
        )

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
        with pytest.raises(ValueError, match="min_replicas"):
            make_engine(cache, small_chip, fast_constraints, min_replicas=5)

    def test_duplicate_request_ids_rejected(self, cache, small_chip, fast_constraints):
        # Requeue bookkeeping and trace flows key on the request id: three
        # id-7 requests through a chip death used to cross their admission
        # and requeue accounting instead of failing.
        engine = make_engine(cache, small_chip, fast_constraints, num_chips=2)
        workload = [request(7, 0.0), request(7, 0.0, tokens=9), request(7, 1e-6)]
        with pytest.raises(ValueError, match="duplicate request ids"):
            engine.run(workload, faults=FaultSchedule.of([chip_death(1e-6, 0)]))

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
        assert check_report(report, workload) == []
        assert report.total_tokens == sum(
            r.tokens_generated for r in report.ok_requests
        )
        assert report.slo_met <= report.total_completed
        assert report.goodput <= report.throughput
        assert 0.0 <= report.utilization <= 1.0
        assert report.summary()  # renders without raising

    def test_check_report_flags_broken_token_books(
        self, cache, small_chip, fast_constraints
    ):
        """A served record carries every token, ordered admitted <= first
        token <= completed; a shed one carries no token and no first-token
        time.  Tampering with any of them is named by request id."""
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        workload = [request(0, 0.0, tokens=3), request(1, 0.0, tokens=50, deadline=unit * 0.5)]
        report = engine.run(workload)
        assert check_report(report, workload) == []
        served, shed = report.completed
        assert served.ok and not shed.ok
        for broken in (
            replace(served, tokens_generated=2),
            replace(served, first_token_time=served.completion_time + unit),
            replace(served, first_token_time=served.admitted_time - unit),
            replace(served, first_token_time=math.nan),
            replace(shed, tokens_generated=1),
            replace(shed, first_token_time=0.0),
        ):
            records = tuple(
                broken if record.request is broken.request else record
                for record in report.completed
            )
            failures = check_report(replace(report, completed=records), workload)
            assert len(failures) == 1
            assert f"request {broken.request.request_id} " in failures[0]

    def test_check_report_bounds_chip_seconds_by_peak_times_span(
        self, cache, small_chip, fast_constraints
    ):
        """Active and provisioned chip-seconds are each at most their peak
        chip count over the whole active span.  A report claiming a lower
        peak, or a shorter span, than its books need is named."""
        engine = make_engine(cache, small_chip, fast_constraints, num_chips=2)
        unit = engine.iteration_latency(1)
        workload = [request(i, i * 0.5 * unit, tokens=6) for i in range(8)]
        report = engine.run(workload)
        assert check_report(report, workload) == []
        assert report.active_chip_seconds > 0.0
        for broken, names in (
            (replace(report, peak_active_chips=0), ["active"]),
            (replace(report, peak_provisioned_chips=0), ["provisioned"]),
            (replace(report, active_span=0.5 * report.active_span), ["active", "provisioned"]),
        ):
            failures = check_report(broken, workload)
            assert [failure.split()[0] for failure in failures] == names
            assert all("peak chips over the" in failure for failure in failures)


# --------------------------------------------------------------------------- #
# Static baseline
# --------------------------------------------------------------------------- #
class TestStaticEngine:
    def test_duplicate_request_ids_rejected(self, cache, small_chip, fast_constraints):
        engine = StaticEngine(
            make_model(), chip=small_chip, constraints=fast_constraints, plan_cache=cache
        )
        with pytest.raises(ValueError, match="duplicate request ids"):
            engine.run([request(7, 0.0), request(7, 1.0)])

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

    @pytest.mark.parametrize("window", [-1e-3, math.nan, math.inf])
    def test_rejects_bad_batch_window(self, window, cache, small_chip, fast_constraints):
        with pytest.raises(ValueError, match="batch_window"):
            StaticEngine(
                make_model(),
                chip=small_chip,
                constraints=fast_constraints,
                plan_cache=cache,
                batch_window=window,
            )

    def test_zero_window_sets_no_timer(self, cache, small_chip, fast_constraints):
        """At the default window a free replica never waits, so the run
        never schedules a window timer."""
        engine = StaticEngine(
            make_model(), chip=small_chip, constraints=fast_constraints, plan_cache=cache
        )
        workload = [request(i, 1e-6 * i, tokens=2) for i in range(9)]
        with mock.patch.object(_StaticRun, "on_scale", side_effect=AssertionError):
            report = engine.run(workload)
        assert check_report(report, workload) == []

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
            assert check_report(report, workload) == []
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
        workload = decode_workload("tiny", num_requests=12, rate=2000.0, seed=4)
        report = engine.run(workload)
        assert check_report(report, workload) == []
        assert report.busy_chip_seconds > 0
        assert report.provisioned_chip_seconds == report.active_chip_seconds
        assert report.peak_provisioned_chips == report.peak_active_chips > 0

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


    def test_fault_before_first_arrival_accrues_no_chip_seconds(
        self, cache, small_chip, fast_constraints
    ):
        """Active chip-seconds integrate from the first arrival on: a chip
        death and restart scheduled ahead of the traffic change the fleet's
        state but must not integrate backwards (which drove active below
        busy)."""
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        workload = [request(0, 20 * unit)]
        faults = FaultSchedule.of(
            [chip_death(5 * unit, 0), restart(10 * unit, 0, cold_cache=False, warmup_delay=unit)]
        )
        report = engine.run(workload, faults=faults, watchdog=Watchdog(detection_delay=unit))
        assert check_report(report, workload) == []
        assert report.faults.failovers == 1
        assert report.active_span == pytest.approx(4 * unit)
        assert report.active_chip_seconds == pytest.approx(4 * unit)


# --------------------------------------------------------------------------- #
# The iteration-tick decode loop against the per-iteration reference
# --------------------------------------------------------------------------- #
def reference_advance(running: _Running, now: float) -> None:
    """One finished iteration, accounted eagerly on every resident."""
    if running.prefill_remaining > 1:
        running.prefill_remaining -= 1
        return
    if running.prefill_remaining == 1:
        running.prefill_remaining = 0
        running.tokens_done = 1
        running.first_token_time = now
        return
    running.tokens_done += 1


def reference_retire(self, replica: _Replica, now: float) -> None:
    """Advance every resident request one finished iteration and retire
    the done ones."""
    for running in list(replica.running):
        reference_advance(running, now)
        if running.tokens_done >= running.request.max_new_tokens:
            replica.running.remove(running)
            record = CompletedDecode(
                request=running.request,
                status=DECODE_OK,
                admitted_time=running.admitted_time,
                first_token_time=running.first_token_time,
                completion_time=now,
                tokens_generated=running.tokens_done,
                preemptions=running.preemptions,
                replica=replica.index,
                requeues=running.requeues,
                migrations=running.migrations,
                lost_tokens=running.lost_tokens,
            )
            self.records.append(record)
            if self.traced:
                self.engine._trace_done(self.tracer, record, replica, now)
            self.on_retire(record, now)


def reference_victim(self, replica: _Replica) -> _Running | None:
    """The batch scanned from the newest resident for a best-effort one."""
    running = replica.running
    for position in range(len(running) - 1, -1, -1):
        if not running[position].request.interactive:
            return running[position]
    return None


def reference_execute(self) -> ContinuousReport:
    """One heap for every event: each arrival is an ``_EV_ARRIVAL`` event
    beside the timers, and the event kind orders same-instant events.

    The run accrues its books at transitions only; the reference also keeps
    the per-event integral they replaced, advancing at every event from
    the first arrival, and checks that the two agree to rounding."""
    events = self.events
    events += [
        (request.arrival_time, _EV_ARRIVAL, position, request)
        for position, request in enumerate(self.requests)
    ]
    heapq.heapify(events)
    self.arrived = 0
    replicas = self.replicas
    last = self.last_time
    shadow_active = shadow_provisioned = 0.0
    while events:
        now, kind, _, payload = heapq.heappop(events)
        if now > last:
            elapsed = now - last
            shadow_active += elapsed * self.counts[ACTIVE] * self.stages
            shadow_provisioned += elapsed * self.num_charged * self.stages
            last = now
        if kind == _EV_ARRIVAL:
            self.arrived += 1
            self.on_arrival(payload, now)
        elif kind == _EV_ITER_END:
            index, epoch = payload
            replica = replicas[index]
            if replica.epoch != epoch:
                continue
            replica.busy = False
            self.retire(replica, now)
            self.start_iteration(replica, now)
            self.after_iteration(replica, now)
        elif kind == _EV_FAULT:
            self.chips.handle(payload, now)
        else:
            self.on_scale(payload, now)
        if self.traced:
            self.sample(now)
    self.close(last)
    assert self.last_time == last
    self.sweep()
    report = self.report()
    assert math.isclose(report.active_chip_seconds, shadow_active, rel_tol=1e-12)
    assert math.isclose(report.provisioned_chip_seconds, shadow_provisioned, rel_tol=1e-12)
    return report


def reference_start_iteration(self, replica: _Replica, now: float) -> None:
    """Admit at every boundary, whatever the queues hold."""
    if replica.busy or replica.state is not ACTIVE:
        return
    self.admit(replica, now)
    running = replica.running
    if not running:
        if self.counts[ACTIVE] > self.min_active:
            self.counters["scale_downs"] += 1
            self.scale(replica, IDLE, now, "scale-down", **self.engine._replica_args(replica))
        return
    size = replica.bucket or len(running)
    latency = (replica.latencies or self.latencies(replica))[size]
    if self.links_priced:
        factor = self.link_factor(replica, now)
        if factor > 1.0:
            latency = self.degraded(replica, latency, factor)
    replica.busy = True
    replica.iter_end = now + latency
    self.counters["iterations"] += 1
    self.busy_chip_seconds += latency * self.stages
    if self.traced:
        self.engine._trace_iteration(self.tracer, replica, now, latency)
    heapq.heappush(
        self.events,
        (replica.iter_end, _EV_ITER_END, next(self.seq), (replica.index, replica.epoch)),
    )


def reference_admit(self, replica: _Replica, now: float) -> None:
    """Walk every admission stage, even with a full batch that nothing
    waiting can preempt."""
    queues = replica.queues
    iq, bq, preempted = queues.iq, queues.bq, queues.preempted
    running = replica.running
    deployment = self.deployments[replica.model]
    max_batch = deployment.max_batch_size
    while iq and len(running) < max_batch:
        request = self.pop_interactive(queues)[3]
        if self.hopeless(request, replica, now):
            self.shed(request, now)
            continue
        replica.join(self.admit_one(request, replica, now))
    while iq and len(running) >= max_batch:
        victim = self.victim(replica)
        if victim is None:
            break
        request = self.pop_interactive(queues)[3]
        if self.hopeless(request, replica, now):
            self.shed(request, now)
            continue
        replica.leave(victim)
        victim.preemptions += 1
        self.counters["preemptions"] += 1
        preempted.appendleft(victim)
        if self.traced:
            self.tracer.instant(
                "preempt",
                ts=now,
                track=self.engine._chip_tracks(replica)[0],
                cat="lifecycle",
                args={"victim": victim.request.request_id, "for": request.request_id},
            )
        replica.join(self.admit_one(request, replica, now))
    while preempted and len(running) < max_batch:
        resumed = preempted.popleft()
        migrated = resumed.origin not in (-1, replica.index)
        resumed.origin = replica.index
        if migrated:
            self.counters["migrations"] += 1
            resumed.requeues += 1
            resumed.migrations += 1
            resumed.restart(deployment.prefill_iterations(resumed.request.prompt_tokens))
        if self.traced:
            self.tracer.instant(
                "migrate" if migrated else "resume",
                ts=now,
                track=self.engine._chip_tracks(replica)[0],
                cat="lifecycle",
                args={"request": resumed.request.request_id},
            )
        replica.join(resumed)
    while bq and len(running) < max_batch:
        replica.join(self.admit_one(bq.popleft(), replica, now))


def assert_matches_reference(run) -> ContinuousReport:
    """``run()`` under the tick loop equals ``run()`` under the reference
    loop, record for record and counter for counter.

    The reference keeps every request's progress current on every
    iteration, scans the batch for a preemption victim, holds arrivals in
    the event heap beside the timers and walks the whole admission routine
    at every iteration boundary.  It runs more events than the tick loop
    but makes the same replica transitions, so equal chip-second books
    show that they do not depend on the events the loop runs."""
    actual = run()
    # The reference keeps progress current on every iteration, so catching
    # it up on leaving a batch has nothing to do.
    with mock.patch.object(_DecodeRun, "retire", reference_retire), mock.patch.object(
        _DecodeRun, "victim", reference_victim
    ), mock.patch.object(_Running, "sync", lambda self, tick: None), mock.patch.object(
        _DecodeRun, "execute", reference_execute
    ), mock.patch.object(
        _DecodeRun, "start_iteration", reference_start_iteration
    ), mock.patch.object(
        _DecodeRun, "admit", reference_admit
    ):
        expected = run()
    assert repr(actual.completed) == repr(expected.completed)
    # Both loops make the same transitions at the same instants, so their
    # books, accrued at transitions only, agree bit for bit.
    assert (
        actual.busy_chip_seconds,
        actual.active_chip_seconds,
        actual.provisioned_chip_seconds,
        actual.active_span,
    ) == (
        expected.busy_chip_seconds,
        expected.active_chip_seconds,
        expected.provisioned_chip_seconds,
        expected.active_span,
    )
    assert (
        actual.iterations,
        actual.preemptions,
        actual.shed,
        actual.migrations,
        actual.faults.requeued,
        actual.faults.lost_tokens,
    ) == (
        expected.iterations,
        expected.preemptions,
        expected.shed,
        expected.migrations,
        expected.faults.requeued,
        expected.faults.lost_tokens,
    )
    return actual


@settings(max_examples=30, deadline=None)
@given(scenario=scenarios(engines=(CONTINUOUS,)))
def test_continuous_loop_matches_reference(scenario, testbed):
    """ContinuousEngine, sharded or not, through any drawn traffic, faults
    and watchdog, replays identically under the reference loop."""
    replay = Replay(scenario, testbed)
    report = assert_matches_reference(replay.run)
    assert check_report(report, replay.workload) == []


def assert_batch_window_kept(report: ContinuousReport, max_batch: int, window: float) -> None:
    """The static batch-window contract, read off the records.

    A static batch is the set of requests a replica admitted together; it
    holds the replica from that start until its last member retires.  No
    batch starts short of ``max_batch`` before its oldest member's window
    closes, and no request waits past its window while a replica is idle.
    """
    batches: dict[tuple[int, float], list[CompletedDecode]] = {}
    for record in report.completed:
        batches.setdefault((record.replica, record.admitted_time), []).append(record)
    busy: dict[int, list[tuple[float, float]]] = {}
    for (replica, start), members in batches.items():
        if len(members) < max_batch:
            oldest = min(member.request.arrival_time for member in members)
            assert start >= oldest + window, f"batch on {replica} started early"
        end = max(member.completion_time for member in members)
        busy.setdefault(replica, []).append((start, end))
    for record in report.completed:
        closes = record.request.arrival_time + window
        for replica in range(report.num_chips // report.num_stages):
            covered = closes
            for start, end in sorted(busy.get(replica, ())):
                if start > covered:
                    break
                covered = max(covered, end)
            assert covered >= record.admitted_time, (
                f"request {record.request.request_id} waited past its window "
                f"while replica {replica} was idle"
            )


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios(engines=(STATIC,), chips=(1, 2)))
def test_static_loop_matches_reference(scenario, testbed):
    """StaticEngine batches retire member by member on their own ticks, keep
    the batch-window contract on one-shot and multi-token traffic, and
    replay identically when the programs compile at ``jobs=2``."""
    replay = Replay(scenario, testbed)
    report = assert_matches_reference(replay.run)
    assert check_report(report, replay.workload) == []
    assert_batch_window_kept(report, scenario.max_batch, scenario.batch_window * replay.unit)
    parallel = replay.run(testbed.cache_jobs2)
    assert repr(parallel.completed) == repr(report.completed)


@settings(max_examples=20, deadline=None)
@given(scenario=scenarios(engines=(FLEET,), chips=(3, 3), faults=(True,)))
def test_fleet_loop_matches_reference(scenario, testbed):
    """FleetEngine over three chips, through drawn link windows, chip deaths
    and restarts, replays identically under the reference loop."""
    replay = Replay(scenario, testbed)
    report = assert_matches_reference(replay.run)
    assert check_report(report, replay.workload) == []


class TestIterationTicks:
    """A request's progress is counted in its replica's iteration ticks and
    caught up only when it leaves the batch; these pin that bookkeeping's
    edges."""

    @pytest.mark.parametrize("prompt, iterations", [(16, 1), (40, 3)])
    def test_single_token_request_finishes_on_its_first_token_tick(
        self, cache, small_chip, fast_constraints, prompt, iterations
    ):
        model = make_model(prefill_chunk=16)
        engine = make_engine(cache, small_chip, fast_constraints, model=model)
        unit = engine.iteration_latency(1)
        report = engine.run([request(0, 0.0, tokens=1, prompt=prompt)])
        (record,) = report.completed
        assert report.iterations == iterations
        assert record.tokens_generated == 1
        assert record.first_token_time == record.completion_time
        assert record.completion_time == pytest.approx(iterations * unit)

    def test_multi_iteration_prefill_beside_a_short_request(
        self, cache, small_chip, fast_constraints
    ):
        """A prompt of three chunks emits token one on its third iteration.
        A one-chunk request joining after the first retires on that same
        tick, so one tick carries two events of different requests."""
        model = make_model(prefill_chunk=16)
        engine = make_engine(cache, small_chip, fast_constraints, model=model)
        one, two = engine.iteration_latency(1), engine.iteration_latency(2)
        report = engine.run(
            [request(0, 0.0, prompt=40, tokens=5), request(1, 0.5 * one, prompt=16, tokens=2)]
        )
        long, short = report.completed
        assert report.iterations == 7
        assert short.first_token_time == pytest.approx(one + two)
        assert short.completion_time == pytest.approx(one + 2 * two)
        assert long.first_token_time == short.completion_time
        assert long.completion_time == pytest.approx(5 * one + 2 * two)
        assert long.tokens_generated == 5

    @pytest.mark.parametrize("completed, lost", [(2, 0), (6, 3)])
    def test_chip_death_mid_iteration_loses_only_completed_iterations(
        self, cache, small_chip, fast_constraints, completed, lost
    ):
        """Four prefill iterations, then decode: a death inside iteration
        ``completed + 1`` discards the tokens of the ``completed`` finished
        iterations and nothing of the aborted one."""
        model = make_model(max_batch_size=1, prefill_chunk=16)
        engine = make_engine(cache, small_chip, fast_constraints, model=model, num_chips=2)
        unit = engine.iteration_latency(1)
        workload = [request(0, 0.0, prompt=64, tokens=10)]
        report = engine.run(
            workload,
            faults=FaultSchedule.of([chip_death((completed + 0.5) * unit, 0)]),
            watchdog=Watchdog(detection_delay=unit),
        )
        (record,) = report.completed
        assert check_report(report, workload) == []
        assert record.tokens_generated == 10
        assert record.requeues == 1
        assert record.lost_tokens == report.faults.lost_tokens == lost
        assert report.faults.lost_iterations == 1
        # The aborted iteration was started (and counted); the request then
        # re-runs all 13 of its iterations on replica 1 from detection on.
        assert report.iterations == completed + 1 + 13
        assert record.replica == 1
        assert record.completion_time == pytest.approx((completed + 1.5 + 13) * unit)

    @pytest.mark.parametrize("arrival, first_token", [(4.5, 3), (1.5, 6)])
    def test_preempted_request_resumes_with_exact_progress_on_its_replica(
        self, cache, small_chip, fast_constraints, arrival, first_token
    ):
        """Preempted after five decode-phase ticks (or mid-prefill, after
        two), a best-effort request resumes on its own replica exactly where
        it stopped: nothing is redone."""
        model = make_model(max_batch_size=1, prefill_chunk=8)
        engine = make_engine(cache, small_chip, fast_constraints, model=model)
        unit = engine.iteration_latency(1)
        workload = [
            request(0, 0.0, prompt=24, tokens=6, slo_class=SLO_BEST_EFFORT),
            request(1, arrival * unit, prompt=8, tokens=3),
        ]
        report = engine.run(workload)
        resumed, urgent = report.completed
        assert (report.preemptions, report.migrations) == (1, 0)
        assert report.iterations == 8 + 3
        assert resumed.preemptions == 1
        assert (resumed.requeues, resumed.lost_tokens) == (0, 0)
        assert resumed.first_token_time == pytest.approx(first_token * unit)
        assert resumed.completion_time == pytest.approx(11 * unit)
        assert urgent.completion_time == pytest.approx((math.ceil(arrival) + 3) * unit)

    def test_preempted_request_resumed_elsewhere_restarts(
        self, cache, small_chip, fast_constraints
    ):
        """Preempted on replica 0 with two tokens out, a best-effort request
        resumes on replica 1, which frees first: it loses both tokens and
        re-prefills from scratch there."""
        engine = make_engine(
            cache, small_chip, fast_constraints,
            model=make_model(max_batch_size=1), num_chips=2, min_replicas=2,
        )
        unit = engine.iteration_latency(1)
        workload = [
            request(0, 0.0, tokens=10, slo_class=SLO_BEST_EFFORT),
            request(1, 0.5 * unit, tokens=2),
            request(2, 1.7 * unit, tokens=20),
        ]
        report = engine.run(workload)
        migrated = report.completed[0]
        assert check_report(report, workload) == []
        assert (report.preemptions, report.migrations) == (1, 1)
        assert migrated.replica == 1
        assert (migrated.requeues, migrated.migrations, migrated.lost_tokens) == (1, 1, 2)
        assert migrated.first_token_time == pytest.approx(3.5 * unit)
        assert migrated.completion_time == pytest.approx(12.5 * unit)
        assert migrated.tokens_generated == 10


class TestSameInstantOrder:
    """Events at one instant run in a fixed order: faults, then arrivals,
    then iteration ends and scaler or batch-window timers.  Each case puts
    an arrival exactly on another event's timestamp and checks the outcome
    the order implies, and that the reference loop agrees."""

    def test_arrival_at_an_iteration_end_joins_at_that_boundary(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        workload = [request(0, 0.0, tokens=4), request(1, unit, tokens=2)]
        report = assert_matches_reference(lambda: engine.run(workload))
        first, second = report.completed
        assert first.admitted_time == 0.0
        assert second.admitted_time == unit
        assert report.iterations == 4

    def test_chip_death_at_an_arrival_strikes_first(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        workload = [request(0, 2 * unit)]
        faults = FaultSchedule.of([chip_death(2 * unit, 0)])
        report = assert_matches_reference(
            lambda: engine.run(workload, faults=faults, watchdog=Watchdog(detection_delay=unit))
        )
        (record,) = report.completed
        assert check_report(report, workload) == []
        assert record.status == DECODE_SHED
        assert math.isnan(record.admitted_time)
        assert (report.iterations, report.faults.lost_iterations) == (0, 0)

    def test_batch_window_closing_at_an_arrival_takes_it(
        self, cache, small_chip, fast_constraints
    ):
        model = make_model()
        unit = make_engine(cache, small_chip, fast_constraints, model=model).iteration_latency(1)
        window = 2 * unit
        engine = StaticEngine(
            model,
            chip=small_chip,
            constraints=fast_constraints,
            plan_cache=cache,
            batch_window=window,
        )
        workload = [request(0, 0.0, tokens=3), request(1, window, tokens=3)]
        report = assert_matches_reference(lambda: engine.run(workload))
        assert [record.admitted_time for record in report.completed] == [window, window]
        assert report.iterations == 3

    def test_scaler_tick_at_an_arrival_observes_it(self, cache, small_chip, fast_constraints):
        engine = FleetEngine(
            [make_model()],
            chip=small_chip,
            constraints=fast_constraints,
            plan_cache=cache,
            num_chips=2,
        )
        interval = 0.5 * engine.iteration_latency("tiny")
        workload = [request(0, 0.0, tokens=4), request(1, interval, tokens=2)]
        scalers = []

        def run() -> ContinuousReport:
            scalers.append(ScriptedScaler(1, interval=interval))
            return engine.run(workload, scaler=scalers[-1])

        report = assert_matches_reference(run)
        assert check_report(report, workload) == []
        actual, expected = scalers
        tick = actual.seen[0]
        assert (tick.now, tick.arrivals, tick.queued) == (interval, {"tiny": 2}, 1)
        assert repr(actual.seen) == repr(expected.seen)


def test_event_heap_holds_only_timers(cache, small_chip, fast_constraints):
    """Arrivals stay in the trace, so a fault-free continuous replay's heap
    holds at most one iteration end per replica, at any request count."""
    peaks: list[int] = []
    original = _DecodeRun.start_iteration

    def start_iteration(self, replica, now):
        original(self, replica, now)
        peaks[-1] = max(peaks[-1], len(self.events))

    model = make_model()
    engine = make_engine(cache, small_chip, fast_constraints, model=model, num_chips=4)
    unit = engine.iteration_latency(1)
    with mock.patch.object(_DecodeRun, "start_iteration", start_iteration):
        for num_requests in (100, 2000):
            workload = mixed_workload(
                model, unit, num_requests=num_requests, load=6.0, seed=0, interactive=0.5
            )
            peaks.append(0)
            report = engine.run(workload)
            assert check_report(report, workload) == []
    assert 1 < peaks[0] <= engine.num_replicas
    assert 1 < peaks[1] <= engine.num_replicas


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_maybe_idle_covers_every_idle_replica(scenario, testbed):
    """``start_idle`` skips its walk only when no ACTIVE replica lacks an
    iteration: at every call, through scale-downs, chip deaths, restarts
    and a provisioning scaler, ``maybe_idle`` is set whenever a walk would
    find an idle replica."""
    replay = Replay(scenario, testbed)
    checks = []
    original = _DecodeRun.start_idle

    def start_idle(self, now):
        checks.append((self.maybe_idle, self.any_idle()))
        original(self, now)

    with mock.patch.object(_DecodeRun, "start_idle", start_idle):
        report = replay.run()
    assert check_report(report, replay.workload) == []
    # Single-model engines call it on every arrival; the fleet on detection.
    assert len(checks) >= (0 if scenario.engine == FLEET else len(replay.workload))
    assert all(flagged for flagged, idle in checks if idle)


def test_an_overloaded_replay_skips_the_idle_walk(cache, small_chip, fast_constraints):
    """Under overload every replica is busy at almost every arrival, so
    almost every arrival's ``start_idle`` returns without a walk."""
    flags = []
    original = _DecodeRun.start_idle

    def start_idle(self, now):
        flags.append(self.maybe_idle)
        original(self, now)

    model = make_model()
    engine = make_engine(cache, small_chip, fast_constraints, model=model, num_chips=4)
    unit = engine.iteration_latency(1)
    workload = mixed_workload(model, unit, num_requests=2000, load=6.0, seed=0, interactive=0.5)
    with mock.patch.object(_DecodeRun, "start_idle", start_idle):
        report = engine.run(workload)
    assert check_report(report, workload) == []
    assert len(flags) == len(workload)
    assert flags.count(True) < len(workload) // 10
