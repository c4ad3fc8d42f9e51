"""Tests for the model-serving subsystem (plan cache, batcher, pool, scheduler)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import T10Compiler
from repro.ir import OperatorGraph, elementwise, matmul
from repro.serving import (
    COMPILE,
    HIT_DISK,
    HIT_MEMORY,
    DynamicBatcher,
    InferenceRequest,
    PlanCache,
    ServedModel,
    ServingScheduler,
    WorkerPool,
    batch_buckets,
    bucket_for,
    merge_workloads,
    plan_key,
    poisson_workload,
    uniform_workload,
)


def build_tiny(batch_size: int, *, width: int = 64) -> OperatorGraph:
    """A three-operator MLP-ish graph scaled by batch size."""
    graph = OperatorGraph(name=f"tiny-b{batch_size}")
    fc1 = graph.add(matmul("fc1", m=batch_size * 8, k=width, n=width))
    act = graph.add(
        elementwise("act", {"m": batch_size * 8, "n": width}, kind="relu"),
        inputs=[fc1],
    )
    graph.add(matmul("fc2", m=batch_size * 8, k=width, n=32), inputs=[act])
    return graph


@pytest.fixture()
def cache(small_cost_model, fast_constraints, tmp_path):
    """A disk-backed plan cache compiling with the shared test cost model."""
    return PlanCache(
        tmp_path / "plans",
        compiler_factory=lambda chip, constraints: T10Compiler(
            chip, cost_model=small_cost_model, constraints=constraints
        ),
    )


# --------------------------------------------------------------------------- #
# Plan cache
# --------------------------------------------------------------------------- #
class TestPlanCache:
    def test_compile_once_then_memory_hits(self, cache, small_chip, fast_constraints):
        graph = build_tiny(1)
        first = cache.get_or_compile(graph, small_chip, fast_constraints)
        assert first.outcome == COMPILE
        assert first.compiled.ok
        second = cache.get_or_compile(build_tiny(1), small_chip, fast_constraints)
        assert second.outcome == HIT_MEMORY
        assert second.compiled is first.compiled
        assert cache.stats.misses == 1
        assert cache.stats.hits_memory == 1
        assert cache.stats.hit_rate == 0.5

    def test_disk_tier_survives_new_cache_instance(
        self, cache, small_chip, small_cost_model, fast_constraints, tmp_path
    ):
        graph = build_tiny(2)
        cache.get_or_compile(graph, small_chip, fast_constraints)
        reopened = PlanCache(
            tmp_path / "plans",
            compiler_factory=lambda chip, constraints: T10Compiler(
                chip, cost_model=small_cost_model, constraints=constraints
            ),
        )
        lookup = reopened.get_or_compile(build_tiny(2), small_chip, fast_constraints)
        assert lookup.outcome == HIT_DISK
        assert lookup.compiled.ok
        assert reopened.stats.misses == 0
        # Promoted to the memory tier on the way in.
        again = reopened.get_or_compile(build_tiny(2), small_chip, fast_constraints)
        assert again.outcome == HIT_MEMORY

    def test_corrupt_disk_entry_is_a_miss(
        self, cache, small_chip, fast_constraints, tmp_path
    ):
        graph = build_tiny(1)
        lookup = cache.get_or_compile(graph, small_chip, fast_constraints)
        path = tmp_path / "plans" / f"{lookup.key}.plan.pkl"
        assert path.exists()
        path.write_bytes(b"not a pickle")
        fresh = PlanCache(tmp_path / "plans", compiler_factory=cache._compiler_factory)
        relookup = fresh.get_or_compile(graph, small_chip, fast_constraints)
        assert relookup.outcome == COMPILE
        assert relookup.compiled.ok

    def test_key_distinguishes_chip_and_constraints(
        self, small_chip, tiny_chip, fast_constraints
    ):
        graph = build_tiny(1)
        assert plan_key(graph, small_chip, fast_constraints) != plan_key(
            graph, tiny_chip, fast_constraints
        )
        relaxed = fast_constraints.relaxed(max_plans=123)
        assert plan_key(graph, small_chip, fast_constraints) != plan_key(
            graph, small_chip, relaxed
        )

    def test_concurrent_misses_compile_once(self, cache, small_chip, fast_constraints):
        graph = build_tiny(4)
        with ThreadPoolExecutor(max_workers=8) as pool:
            lookups = list(
                pool.map(
                    lambda _: cache.get_or_compile(graph, small_chip, fast_constraints),
                    range(8),
                )
            )
        assert cache.stats.misses == 1
        assert sum(1 for lookup in lookups if lookup.outcome == COMPILE) == 1
        assert len({id(lookup.compiled) for lookup in lookups}) == 1

    def test_warm_compiles_in_parallel(self, cache, small_chip, fast_constraints):
        graphs = [build_tiny(size) for size in (1, 2, 4, 8)]
        lookups = cache.warm(graphs, small_chip, fast_constraints)
        assert [lookup.outcome for lookup in lookups] == [COMPILE] * 4
        assert len(cache) == 4

    def test_stats_snapshot_and_since(self, cache, small_chip, fast_constraints):
        cache.get_or_compile(build_tiny(1), small_chip, fast_constraints)
        before = cache.stats.snapshot()
        cache.get_or_compile(build_tiny(1), small_chip, fast_constraints)
        delta = cache.stats.since(before)
        assert delta.misses == 0
        assert delta.hits_memory == 1
        assert delta.hit_rate == 1.0

    def test_cross_tenant_sharing_compiles_once(
        self, cache, small_chip, fast_constraints
    ):
        """Two tenants with the same plan fingerprint share one program: the
        first tenant attributes the compile, the second a pure warm hit."""
        first = cache.get_or_compile(
            build_tiny(1), small_chip, fast_constraints, tenant="acme"
        )
        second = cache.get_or_compile(
            build_tiny(1), small_chip, fast_constraints, tenant="globex"
        )
        assert first.outcome == COMPILE
        assert second.outcome == HIT_MEMORY
        assert second.compiled is first.compiled
        assert cache.stats.misses == 1
        acme, globex = cache.tenant_stats("acme"), cache.tenant_stats("globex")
        assert (acme.misses, acme.hits) == (1, 0)
        assert (globex.misses, globex.hits) == (0, 1)
        assert set(cache.tenants) == {"acme", "globex"}

    def test_evicting_one_tenants_scope_keeps_the_shared_plan(
        self, cache, small_chip, fast_constraints
    ):
        """A tenant's cold-restart namespace is scoped; dropping it must not
        evict the unscoped plan every tenant shares by fingerprint."""
        shared = cache.get_or_compile(
            build_tiny(1), small_chip, fast_constraints, tenant="acme"
        )
        scoped = cache.get_or_compile(
            build_tiny(1),
            small_chip,
            fast_constraints,
            scope="acme-restart-gen1",
            tenant="acme",
        )
        assert scoped.key != shared.key
        dropped = cache.evict_scope("acme-restart-gen1")
        assert dropped == 1
        # The shared entry is untouched: globex still gets a warm hit.
        relookup = cache.get_or_compile(
            build_tiny(1), small_chip, fast_constraints, tenant="globex"
        )
        assert relookup.outcome == HIT_MEMORY
        assert relookup.compiled is shared.compiled
        assert cache.tenant_stats("globex").hits == 1


# --------------------------------------------------------------------------- #
# Dynamic batcher
# --------------------------------------------------------------------------- #
class TestDynamicBatcher:
    def test_buckets_are_powers_of_two_up_to_max(self):
        assert batch_buckets(8) == (1, 2, 4, 8)
        assert batch_buckets(6) == (1, 2, 4, 6)
        assert batch_buckets(1) == (1,)
        assert bucket_for(3, 8) == 4
        assert bucket_for(8, 8) == 8
        with pytest.raises(ValueError):
            bucket_for(9, 8)

    def test_bucket_for_edge_cases(self):
        # A batch of one always fits the smallest bucket.
        assert bucket_for(1, 1) == 1
        assert bucket_for(1, 8) == 1
        # Exact powers of two map onto themselves, not the next bucket up.
        assert bucket_for(2, 8) == 2
        assert bucket_for(4, 8) == 4
        # A non-power-of-two cap is its own (largest) bucket.
        assert bucket_for(5, 6) == 6
        # Empty and negative batches have no bucket to run on; regression:
        # batch_size=0 used to silently map to bucket 1.
        with pytest.raises(ValueError, match="batch_size"):
            bucket_for(0, 8)
        with pytest.raises(ValueError, match="batch_size"):
            bucket_for(-1, 8)
        # Overflow states the limit in the error instead of falling through.
        with pytest.raises(ValueError, match="max_batch_size=4"):
            bucket_for(5, 4)

    @given(data=st.data(), max_batch=st.integers(min_value=1, max_value=4096))
    @settings(deadline=None, max_examples=300)
    def test_bucket_for_is_smallest_covering_bucket(self, data, max_batch):
        """The closed form agrees with a scan of the compiled buckets."""
        batch = data.draw(st.integers(min_value=1, max_value=max_batch))
        expected = min(b for b in batch_buckets(max_batch) if b >= batch)
        assert bucket_for(batch, max_batch) == expected

    def test_batch_buckets_rejects_non_positive_max(self):
        with pytest.raises(ValueError):
            batch_buckets(0)
        with pytest.raises(ValueError):
            batch_buckets(-3)

    def test_full_batch_closes_immediately(self):
        batcher = DynamicBatcher(max_batch_size=4, batch_window=1.0)
        requests = [InferenceRequest(i, "m", 0.001 * i) for i in range(8)]
        batches = list(batcher.batches(requests))
        assert [len(batch) for batch in batches] == [4, 4]
        # Closed by the size trigger at the fourth arrival, not the window.
        assert batches[0].dispatch_time == pytest.approx(0.003)

    def test_window_flushes_partial_batch(self):
        batcher = DynamicBatcher(max_batch_size=8, batch_window=0.010)
        requests = [
            InferenceRequest(0, "m", 0.000),
            InferenceRequest(1, "m", 0.001),
            InferenceRequest(2, "m", 0.100),  # arrives after the window
        ]
        batches = list(batcher.batches(requests))
        assert [len(batch) for batch in batches] == [2, 1]
        assert batches[0].dispatch_time == pytest.approx(0.010)
        assert batches[0].padded_size == 2

    def test_models_batch_independently(self):
        batcher = DynamicBatcher(max_batch_size={"a": 2, "b": 8}, batch_window=0.5)
        requests = merge_workloads(
            uniform_workload(["a"], num_requests=4, interval=0.001),
            [InferenceRequest(100, "b", 0.0005)],
        )
        batches = list(batcher.batches(requests))
        by_model = {}
        for batch in batches:
            by_model.setdefault(batch.model, []).append(len(batch))
        assert by_model == {"a": [2, 2], "b": [1]}

    def test_queue_depth_is_sampled(self):
        batcher = DynamicBatcher(max_batch_size=8, batch_window=1.0)
        replay = batcher.batches(uniform_workload(["m"], num_requests=5, interval=0.0))
        list(replay)
        assert replay.stats.max_queue_depth == 5
        assert replay.stats.mean_queue_depth == pytest.approx(3.0)

    def test_replay_stats_are_local_to_each_replay(self):
        # Regression: stats used to live on the batcher and were only reset
        # when a new generator was first advanced, so a consumed replay's
        # numbers survived — and a created-but-unconsumed replay read stale
        # data from the previous one.
        batcher = DynamicBatcher(max_batch_size=8, batch_window=1.0)
        first = batcher.batches(uniform_workload(["m"], num_requests=5, interval=0.0))
        list(first)
        second = batcher.batches([])  # created but never consumed
        assert second.stats.max_queue_depth == 0
        assert second.stats.mean_queue_depth == 0.0
        # The consumed replay keeps its own numbers untouched.
        assert first.stats.max_queue_depth == 5
        assert first.stats.mean_queue_depth == pytest.approx(3.0)
        third = batcher.batches(uniform_workload(["m"], num_requests=2, interval=0.0))
        list(third)
        assert third.stats.max_queue_depth == 2
        assert first.stats.max_queue_depth == 5

    def test_empty_replay_yields_nothing_and_zero_stats(self):
        # An empty workload is a legal replay: no batches, and the stats
        # read as an idle queue rather than raising on empty samples.
        batcher = DynamicBatcher(max_batch_size=8, batch_window=1.0)
        replay = batcher.batches([])
        assert list(replay) == []
        assert replay.stats.queue_depth_samples == []
        assert replay.stats.max_queue_depth == 0
        assert replay.stats.mean_queue_depth == 0.0


# --------------------------------------------------------------------------- #
# Batcher properties (hypothesis)
# --------------------------------------------------------------------------- #
arrival_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
        st.sampled_from(["a", "b", "c"]),
    ),
    max_size=50,
)


class TestBatcherProperties:
    @given(
        stream=arrival_streams,
        max_batch=st.integers(min_value=1, max_value=6),
        window=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(deadline=None, max_examples=200)
    def test_batches_partition_requests_in_dispatch_order(
        self, stream, max_batch, window
    ):
        """Every request lands in exactly one batch; dispatch never rewinds."""
        requests = [
            InferenceRequest(request_id=i, model=model, arrival_time=arrival)
            for i, (arrival, model) in enumerate(stream)
        ]
        batcher = DynamicBatcher(max_batch_size=max_batch, batch_window=window)
        batches = list(batcher.batches(requests))

        batched_ids = [req.request_id for batch in batches for req in batch.requests]
        assert len(batched_ids) == len(set(batched_ids)), "a request was batched twice"
        assert sorted(batched_ids) == sorted(req.request_id for req in requests)

        dispatch_times = [batch.dispatch_time for batch in batches]
        assert all(
            earlier <= later
            for earlier, later in zip(dispatch_times, dispatch_times[1:])
        ), f"dispatch times rewound: {dispatch_times}"

        for batch in batches:
            assert 1 <= len(batch) <= batcher.max_batch_for(batch.model)
            assert batch.padded_size >= len(batch)
            # A batch never dispatches before its requests exist.
            assert batch.dispatch_time >= max(r.arrival_time for r in batch.requests)


# --------------------------------------------------------------------------- #
# Workload generators
# --------------------------------------------------------------------------- #
class TestWorkloads:
    def test_poisson_workload_is_deterministic_and_sorted(self):
        a = poisson_workload({"x": 100.0, "y": 50.0}, num_requests=60, seed=7)
        b = poisson_workload({"x": 100.0, "y": 50.0}, num_requests=60, seed=7)
        assert a == b
        assert len(a) == 60
        times = [req.arrival_time for req in a]
        assert times == sorted(times)
        assert [req.request_id for req in a] == list(range(60))
        assert {req.model for req in a} == {"x", "y"}

    def test_poisson_workload_count_is_exact_for_uneven_mixes(self):
        # Independent per-model rounding must not lose requests (a 3-way
        # even split used to yield 99 of 100).
        mix = {"a": 1.0, "b": 1.0, "c": 1.0}
        assert len(poisson_workload(mix, num_requests=100, seed=0)) == 100

    def test_poisson_workload_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            poisson_workload({"x": 0.0}, num_requests=10)
        with pytest.raises(ValueError):
            poisson_workload({"x": 1.0}, num_requests=0)

    def test_merge_workloads_renumbers_colliding_ids(self):
        # Regression: independent generators both number from 0, and the old
        # merge sorted by (arrival_time, original id) — requests with equal
        # keys tied arbitrarily and the duplicated ids corrupted per-request
        # accounting downstream.  The merge must renumber deterministically.
        a = poisson_workload({"x": 100.0}, num_requests=20, seed=1)
        b = poisson_workload({"y": 100.0}, num_requests=20, seed=1)
        assert {req.request_id for req in a} == {req.request_id for req in b}
        merged = merge_workloads(a, b)
        ids = [req.request_id for req in merged]
        assert ids == list(range(40))
        times = [req.arrival_time for req in merged]
        assert times == sorted(times)

    def test_merge_workloads_breaks_arrival_ties_by_stream_order(self):
        # Same seed, same rate: every arrival time collides pairwise.  Ties
        # must resolve to the order the streams were passed in, stably.
        a = poisson_workload({"x": 50.0}, num_requests=10, seed=3)
        b = poisson_workload({"y": 50.0}, num_requests=10, seed=3)
        merged = merge_workloads(a, b)
        for first, second in zip(merged, merged[1:]):
            if first.arrival_time == second.arrival_time:
                assert (first.model, second.model) == ("x", "y")
        # Deterministic: merging again gives the identical stream.
        assert merge_workloads(a, b) == merged


# --------------------------------------------------------------------------- #
# Worker pool
# --------------------------------------------------------------------------- #
class TestWorkerPool:
    def test_batches_spread_across_free_workers(
        self, cache, small_chip, fast_constraints
    ):
        pool = WorkerPool(
            small_chip, num_chips=2, plan_cache=cache, constraints=fast_constraints
        )
        batcher = DynamicBatcher(max_batch_size=1, batch_window=0.0)
        graph = build_tiny(1)
        executions = [
            pool.place(batch, graph)
            for batch in batcher.batches(
                uniform_workload(["tiny"], num_requests=4, interval=0.0)
            )
        ]
        assert {execution.worker for execution in executions} == {0, 1}
        # On any single worker, batches run back to back, never overlapping.
        by_worker: dict[int, list] = {}
        for execution in executions:
            by_worker.setdefault(execution.worker, []).append(execution)
        for runs in by_worker.values():
            for earlier, later in zip(runs, runs[1:]):
                assert later.start_time >= earlier.completion_time

    def test_compile_penalty_only_on_miss(self, cache, small_chip, fast_constraints):
        pool = WorkerPool(
            small_chip, num_chips=1, plan_cache=cache, constraints=fast_constraints
        )
        batcher = DynamicBatcher(max_batch_size=1, batch_window=0.0)
        graph = build_tiny(1)
        batches = list(
            batcher.batches(uniform_workload(["tiny"], num_requests=2, interval=10.0))
        )
        cold = pool.place(batches[0], graph)
        warm = pool.place(batches[1], graph)
        assert cold.cache_outcome == COMPILE
        assert cold.compile_penalty > 0
        assert warm.cache_outcome == HIT_MEMORY
        assert warm.compile_penalty == 0.0
        assert warm.latency == pytest.approx(cold.latency)

    def test_oversized_graph_is_rejected_not_crashed(
        self, cache, tiny_chip, fast_constraints
    ):
        pool = WorkerPool(
            tiny_chip, num_chips=1, plan_cache=cache, constraints=fast_constraints
        )
        batcher = DynamicBatcher(max_batch_size=1, batch_window=0.0)
        huge = build_tiny(64, width=4096)
        [batch] = batcher.batches([InferenceRequest(0, "huge", 0.0)])
        execution = pool.place(batch, huge)
        assert not execution.ok
        assert execution.status == "oom"


# --------------------------------------------------------------------------- #
# End-to-end scheduler
# --------------------------------------------------------------------------- #
class TestServingScheduler:
    def make_scheduler(self, cache, small_chip, fast_constraints, **kwargs):
        models = [
            ServedModel("tiny", build_tiny, max_batch_size=8),
            ServedModel(
                "wide", lambda batch: build_tiny(batch, width=96), max_batch_size=4
            ),
        ]
        kwargs.setdefault("num_chips", 2)
        kwargs.setdefault("batch_window", 1e-3)
        return ServingScheduler(
            models,
            chip=small_chip,
            constraints=fast_constraints,
            plan_cache=cache,
            **kwargs,
        )

    def test_warm_cache_serves_100_requests_with_zero_recompiles(
        self, cache, small_chip, fast_constraints
    ):
        scheduler = self.make_scheduler(cache, small_chip, fast_constraints)
        warm = scheduler.warm()
        # Every (model, bucket) combination compiled exactly once: 4 + 3.
        assert [lookup.outcome for lookup in warm] == [COMPILE] * 7
        requests = poisson_workload(
            {"tiny": 3000.0, "wide": 1000.0}, num_requests=100, seed=3
        )
        report = scheduler.serve(requests)
        assert report.total_completed == 100
        assert report.recompilations == 0
        assert report.cache_hit_rate == 1.0
        assert report.cache.saved_seconds > 0
        # SLO metrics are present and ordered.
        tails = report.overall_percentiles
        assert 0 < tails["p50"] <= tails["p95"] <= tails["p99"]
        assert report.overall_throughput > 0
        for stats in report.per_model.values():
            assert stats.recompilations == 0
            assert stats.completed > 0
            assert stats.throughput > 0

    def test_cold_serve_compiles_each_bucket_once(
        self, cache, small_chip, fast_constraints
    ):
        scheduler = self.make_scheduler(cache, small_chip, fast_constraints)
        requests = poisson_workload({"tiny": 3000.0}, num_requests=50, seed=1)
        report = scheduler.serve(requests)
        buckets_used = {
            record.padded_batch_size for record in report.completed if record.ok
        }
        assert report.recompilations == len(buckets_used)
        # A second identical run is fully cached.
        rerun = scheduler.serve(requests)
        assert rerun.recompilations == 0
        assert rerun.cache_hit_rate == 1.0

    def test_more_chips_do_not_hurt_throughput_under_load(
        self, cache, small_chip, fast_constraints
    ):
        requests = poisson_workload({"tiny": 50_000.0}, num_requests=80, seed=2)
        single = self.make_scheduler(cache, small_chip, fast_constraints, num_chips=1)
        single.warm(["tiny"])
        one = single.serve(requests)
        double = self.make_scheduler(cache, small_chip, fast_constraints, num_chips=4)
        four = double.serve(requests)
        assert four.overall_throughput >= one.overall_throughput
        assert four.overall_percentiles["p99"] <= one.overall_percentiles["p99"]

    def test_unknown_model_is_rejected(self, cache, small_chip, fast_constraints):
        scheduler = self.make_scheduler(cache, small_chip, fast_constraints)
        with pytest.raises(ValueError, match="unserved"):
            scheduler.serve([InferenceRequest(0, "nope", 0.0)])

    def test_duplicate_served_model_is_rejected(
        self, cache, small_chip, fast_constraints
    ):
        with pytest.raises(ValueError, match="duplicate"):
            ServingScheduler(
                [
                    ServedModel("tiny", build_tiny),
                    ServedModel("tiny", build_tiny),
                ],
                chip=small_chip,
                plan_cache=cache,
            )

    def test_report_rows_render_as_table(self, cache, small_chip, fast_constraints):
        from repro.experiments.common import format_table

        scheduler = self.make_scheduler(cache, small_chip, fast_constraints)
        scheduler.warm()
        report = scheduler.serve(
            poisson_workload({"tiny": 2000.0, "wide": 500.0}, num_requests=40, seed=5)
        )
        rows = report.rows()
        assert [row["model"] for row in rows] == ["tiny", "wide"]
        table = format_table(rows, title="serving")
        assert "tiny" in table and "wide" in table
        assert "requests on 2 chip(s)" in report.summary()
