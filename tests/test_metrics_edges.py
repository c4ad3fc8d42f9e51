"""Degenerate-input metrics edges and cache-stat accounting regressions.

Three audits ride together here:

* the metric helpers in :mod:`repro.runtime.metrics` and the report
  summaries in :mod:`repro.serving.metrics` must return *defined* values on
  empty or degenerate inputs (no silent ``nan`` leaking into tables),
* every request-derived read of a report, its per-tenant slices included,
  must equal a rescan of its records bit for bit, and
* :class:`repro.serving.plan_cache.CacheStats` search-accounting fields
  (``sketched_candidates`` / ``materialized_plans``) must accumulate only on
  true compiles — never on warm hits, disk hits, or single-flight followers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import T10Compiler
from repro.runtime.metrics import (
    goodput_rps,
    latency_percentiles,
    percentile,
    slo_attainment,
    throughput_rps,
)
from repro.serving import (
    DECODE_OK,
    DECODE_SHED,
    SLO_BEST_EFFORT,
    SLO_INTERACTIVE,
    CacheStats,
    CompletedDecode,
    ContinuousReport,
    DecodeRequest,
    FaultStats,
    PlanCache,
    StaticEngine,
    jain_fairness,
)
from repro.serving.plan_cache import COMPILE, HIT_DISK, HIT_MEMORY

from scenarios import make_engine, make_model, request, tiny_builder

tiny_decode_builder = tiny_builder("tiny-decode")


# --------------------------------------------------------------------------- #
# percentile / throughput degenerate edges (runtime.metrics)
# --------------------------------------------------------------------------- #
class TestPercentileEdges:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))
        tails = latency_percentiles([])
        assert all(math.isnan(value) for value in tails.values())

    def test_nan_entries_are_dropped_not_sorted(self):
        # Regression: nan entries used to flow into sorted() and land at an
        # arbitrary rank, silently corrupting every percentile.
        clean = [1.0, 2.0, 3.0, 4.0]
        dirty = [1.0, float("nan"), 2.0, 3.0, float("nan"), 4.0]
        for q in (0.0, 50.0, 95.0, 100.0):
            assert percentile(dirty, q) == percentile(clean, q)

    def test_all_nan_is_nan(self):
        assert math.isnan(percentile([float("nan")] * 3, 99.0))

    def test_infinities_are_kept(self):
        # An infinite latency is real data (a stuck request), not a gap.
        assert percentile([1.0, float("inf")], 100.0) == float("inf")
        assert percentile([1.0, float("inf")], 0.0) == 1.0

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)

    def test_single_value(self):
        assert percentile([7.5], 99.0) == 7.5


class TestRateEdges:
    def test_zero_completions_is_zero_throughput(self):
        assert throughput_rps(0, 10.0) == 0.0
        assert throughput_rps(0, 0.0) == 0.0

    def test_degenerate_window_is_nan_not_zero(self):
        # Completions with no time span have no meaningful rate; returning
        # 0.0 would claim the system did nothing.
        assert math.isnan(throughput_rps(5, 0.0))
        assert math.isnan(throughput_rps(5, -1.0))
        assert math.isnan(goodput_rps(5, 0.0))

    def test_goodput_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            goodput_rps(-1, 1.0)

    def test_slo_attainment_empty_is_nan(self):
        assert math.isnan(slo_attainment([], 1.0))

    def test_slo_attainment_rejects_negative_slo(self):
        with pytest.raises(ValueError):
            slo_attainment([1.0], -0.5)


# --------------------------------------------------------------------------- #
# Report summaries on empty runs (serving.metrics)
# --------------------------------------------------------------------------- #
class TestEmptyRunSummaries:
    def test_continuous_empty_run_summary_is_defined(
        self, cache, small_chip, fast_constraints
    ):
        report = make_engine(cache, small_chip, fast_constraints).run([])
        text = report.summary()
        assert "no requests served" in text
        assert "nan" not in text

    def test_static_empty_run_summary_is_defined(
        self, cache, small_chip, fast_constraints
    ):
        engine = StaticEngine(
            make_model(), chip=small_chip, constraints=fast_constraints, plan_cache=cache
        )
        report = engine.run([])
        text = report.summary()
        assert "no requests served" in text
        assert "nan" not in text

    def test_all_shed_run_summary_is_defined(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        report = engine.run([request(0, 0.0, tokens=50, deadline=unit * 0.5)])
        assert report.total_completed == 0
        assert report.shed == 1
        text = report.summary()
        assert "no requests served" in text
        assert "1 shed" in text
        assert "nan" not in text

    def test_empty_run_rates_follow_conventions(
        self, cache, small_chip, fast_constraints
    ):
        report = make_engine(cache, small_chip, fast_constraints).run([])
        assert report.throughput == 0.0
        assert report.goodput == 0.0
        assert report.token_throughput == 0.0
        assert math.isnan(report.slo_attainment)
        assert report.utilization == 0.0
        assert report.mean_active_chips == 0.0


# --------------------------------------------------------------------------- #
# CacheStats search accounting (serving.plan_cache)
# --------------------------------------------------------------------------- #
class TestCacheStatsAccumulation:
    def test_cold_compile_accumulates_search_counters(
        self, cache, small_chip, fast_constraints
    ):
        graph = tiny_decode_builder(1)
        lookup = cache.get_or_compile(graph, small_chip, fast_constraints)
        assert lookup.outcome == COMPILE
        assert cache.stats.misses == 1
        # The stats mirror exactly the compiled model's own accounting.
        assert cache.stats.sketched_candidates == lookup.compiled.sketched_candidates
        assert cache.stats.materialized_plans == lookup.compiled.materialized_plans
        assert cache.stats.sketched_candidates > 0
        assert cache.stats.materialized_plans > 0

    def test_warm_hit_does_not_accumulate(self, cache, small_chip, fast_constraints):
        cache.get_or_compile(tiny_decode_builder(1), small_chip, fast_constraints)
        after_compile = cache.stats.snapshot()
        warm = cache.get_or_compile(
            tiny_decode_builder(1), small_chip, fast_constraints
        )
        assert warm.outcome == HIT_MEMORY
        delta = cache.stats.since(after_compile)
        assert delta.hits_memory == 1
        assert delta.misses == 0
        assert delta.sketched_candidates == 0
        assert delta.materialized_plans == 0
        assert delta.compile_seconds == 0.0
        assert delta.saved_seconds > 0.0

    def test_disk_hit_does_not_accumulate(
        self, small_cost_model, small_chip, fast_constraints, tmp_path
    ):
        def factory(chip, constraints):
            return T10Compiler(
                chip, cost_model=small_cost_model, constraints=constraints
            )

        first = PlanCache(tmp_path, compiler_factory=factory)
        first.get_or_compile(tiny_decode_builder(1), small_chip, fast_constraints)
        first.close()
        # A fresh process (new cache, same directory) finds the program on
        # disk: a hit, so the search counters stay zero.
        second = PlanCache(tmp_path, compiler_factory=factory)
        lookup = second.get_or_compile(
            tiny_decode_builder(1), small_chip, fast_constraints
        )
        assert lookup.outcome == HIT_DISK
        assert second.stats.hits_disk == 1
        assert second.stats.misses == 0
        assert second.stats.sketched_candidates == 0
        assert second.stats.materialized_plans == 0
        second.close()

    def test_concurrent_misses_accumulate_exactly_once(
        self, cache, small_chip, fast_constraints
    ):
        # Many threads race one cold key: single-flight elects one compiler;
        # followers count as memory hits and must not double the search
        # accounting.
        num_threads = 6
        barrier = threading.Barrier(num_threads)
        outcomes: list[str] = []
        lock = threading.Lock()

        def lookup_one():
            barrier.wait()
            lookup = cache.get_or_compile(
                tiny_decode_builder(2), small_chip, fast_constraints
            )
            with lock:
                outcomes.append(lookup.outcome)

        threads = [threading.Thread(target=lookup_one) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(outcomes) == num_threads
        assert outcomes.count(COMPILE) == 1
        assert outcomes.count(HIT_MEMORY) == num_threads - 1
        assert cache.stats.misses == 1
        assert cache.stats.hits_memory == num_threads - 1
        reference = cache.get_or_compile(
            tiny_decode_builder(2), small_chip, fast_constraints
        )
        assert cache.stats.sketched_candidates == reference.compiled.sketched_candidates
        assert cache.stats.materialized_plans == reference.compiled.materialized_plans

    def test_engine_run_reports_zero_search_work_when_warm(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        engine.warm()
        warm_sketched = cache.stats.sketched_candidates
        report = engine.run([request(0, 0.0), request(1, 0.0)])
        # Serving a warm engine does no plan-search work at all.
        assert report.cache.misses == 0
        assert cache.stats.sketched_candidates == warm_sketched


# --------------------------------------------------------------------------- #
# Report reads against a rescan oracle (serving.metrics)
# --------------------------------------------------------------------------- #
def reference_reads(report: ContinuousReport) -> dict:
    """Every request-derived read of ``report``, rescanning ``completed``
    once per read the way the report used to."""
    ok_requests = [record for record in report.completed if record.ok]
    deadlined = [
        record for record in report.completed if record.request.deadline is not None
    ]
    slo_met = sum(1 for record in ok_requests if record.met_slo)
    gaps = [
        record.time_per_output_token
        for record in ok_requests
        if not math.isnan(record.time_per_output_token)
    ]
    return {
        "ok_requests": ok_requests,
        "total_completed": len(ok_requests),
        "total_tokens": sum(record.tokens_generated for record in ok_requests),
        "slo_met": slo_met,
        "slo_attainment": (
            sum(1 for record in deadlined if record.met_slo) / len(deadlined)
            if deadlined
            else float("nan")
        ),
        "goodput": goodput_rps(slo_met, report.makespan),
        "throughput": throughput_rps(len(ok_requests), report.makespan),
        "ttft_percentiles": latency_percentiles(
            [record.time_to_first_token for record in ok_requests]
        ),
        "tpot_percentiles": latency_percentiles(gaps),
        "latency_percentiles": latency_percentiles(
            [record.latency for record in ok_requests]
        ),
    }


def report_reads(report: ContinuousReport) -> dict:
    """The same reads through the report's own properties."""
    return {
        "ok_requests": report.ok_requests,
        "total_completed": report.total_completed,
        "total_tokens": report.total_tokens,
        "slo_met": report.slo_met,
        "slo_attainment": report.slo_attainment,
        "goodput": report.goodput,
        "throughput": report.throughput,
        "ttft_percentiles": report.ttft_percentiles,
        "tpot_percentiles": report.tpot_percentiles,
        "latency_percentiles": report.latency_percentiles,
    }


def reference_slice(report: ContinuousReport, tenant: str) -> ContinuousReport:
    """``report`` restricted to ``tenant``, by one rescan per tenant."""
    records = tuple(
        record for record in report.completed if record.request.tenant == tenant
    )
    served = [record for record in records if record.ok]
    makespan = 0.0
    if served:
        makespan = max(r.completion_time for r in served) - min(
            r.request.arrival_time for r in served
        )
    return ContinuousReport(
        policy=report.policy,
        model=report.model,
        num_chips=report.num_chips,
        num_stages=report.num_stages,
        max_batch_size=report.max_batch_size,
        completed=records,
        makespan=makespan,
        busy_chip_seconds=0.0,
        active_chip_seconds=0.0,
        active_span=0.0,
        iterations=0,
        cache=CacheStats(),
        warm_compile_seconds=0.0,
        preemptions=sum(record.preemptions for record in records),
        shed=sum(1 for record in records if not record.ok),
        scale_ups=0,
        scale_downs=0,
        peak_active_chips=0,
        migrations=sum(record.migrations for record in records),
        faults=FaultStats(
            requeued=sum(record.requeues for record in records),
            lost_tokens=sum(record.lost_tokens for record in records),
        ),
    )


#: Virtual instants from a small grid, so deadlines tie completions.
_instants = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def records(draw, request_id: int) -> CompletedDecode:
    """One record: served or shed, with no deadline or one met or missed,
    and sometimes a NaN first token."""
    arrival = draw(_instants)
    deadline = draw(st.one_of(st.none(), _instants.map(lambda d: arrival + d)))
    tokens = draw(st.integers(1, 4))
    request = DecodeRequest(
        request_id=request_id,
        model="m",
        arrival_time=arrival,
        prompt_tokens=draw(st.integers(1, 8)),
        max_new_tokens=tokens,
        slo_class=SLO_BEST_EFFORT if deadline is None else SLO_INTERACTIVE,
        deadline=deadline,
        tenant=draw(st.sampled_from(["", "chat", "search", "vision"])),
    )
    admitted = arrival + draw(_instants)
    completion = admitted + draw(_instants)
    accounting = dict(
        preemptions=draw(st.integers(0, 2)),
        requeues=draw(st.integers(0, 2)),
        migrations=draw(st.integers(0, 1)),
        lost_tokens=draw(st.integers(0, 3)),
    )
    if draw(st.booleans()):
        first = draw(
            st.one_of(
                st.just(float("nan")),
                st.floats(admitted, completion, allow_nan=False),
            )
        )
        return CompletedDecode(
            request=request,
            status=DECODE_OK,
            admitted_time=admitted,
            first_token_time=first,
            completion_time=completion,
            tokens_generated=tokens,
            replica=draw(st.integers(0, 3)),
            **accounting,
        )
    return CompletedDecode(
        request=request,
        status=DECODE_SHED,
        admitted_time=draw(st.sampled_from([float("nan"), admitted])),
        first_token_time=float("nan"),
        completion_time=completion,
        tokens_generated=0,
        **accounting,
    )


@st.composite
def reports(draw) -> ContinuousReport:
    """A report over a drawn record set: empty, all shed, or mixed."""
    count = draw(st.integers(0, 12))
    completed = tuple(draw(records(request_id)) for request_id in range(count))
    if draw(st.booleans()):
        completed = tuple(
            replace(
                record,
                status=DECODE_SHED,
                first_token_time=float("nan"),
                tokens_generated=0,
                replica=-1,
            )
            for record in completed
        )
    return ContinuousReport(
        policy="continuous",
        model="m",
        num_chips=4,
        num_stages=1,
        max_batch_size=8,
        completed=completed,
        makespan=draw(st.sampled_from([0.0, -1.0, 0.5, 2.75])),
        busy_chip_seconds=1.0,
        active_chip_seconds=2.0,
        active_span=3.0,
        iterations=5,
        cache=CacheStats(),
        warm_compile_seconds=0.0,
        preemptions=sum(record.preemptions for record in completed),
        shed=sum(1 for record in completed if not record.ok),
        scale_ups=0,
        scale_downs=0,
        peak_active_chips=4,
    )


class TestReportReads:
    """Every request-derived read of a report equals a rescan of its
    records, bit for bit (``repr`` keeps NaN and signed zeros apart)."""

    @settings(max_examples=200, deadline=None)
    @given(report=reports())
    def test_reads_match_a_rescan(self, report):
        assert repr(report_reads(report)) == repr(reference_reads(report))
        # A second read answers the same.
        assert repr(report_reads(report)) == repr(reference_reads(report))

    @settings(max_examples=100, deadline=None)
    @given(report=reports())
    def test_tenant_slices_and_fairness_match_a_rescan(self, report):
        tenants = sorted({record.request.tenant for record in report.completed})
        expected = {tenant: reference_slice(report, tenant) for tenant in tenants}
        slices = report.per_tenant()
        assert list(slices) == tenants
        assert repr(slices) == repr(expected)
        for tenant in tenants:
            assert repr(report.tenant_slice(tenant)) == repr(expected[tenant])
            assert repr(report_reads(slices[tenant])) == repr(
                reference_reads(expected[tenant])
            )
        assert repr(report.fairness) == repr(
            jain_fairness([piece.goodput for piece in expected.values()])
        )

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([float("nan"), math.inf, -math.inf, 0.0, -0.0]),
            ),
            max_size=20,
        )
    )
    def test_latency_percentiles_match_three_percentile_calls(self, values):
        expected = {
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
        }
        assert repr(latency_percentiles(values)) == repr(expected)
