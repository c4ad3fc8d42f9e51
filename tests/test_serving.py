"""Tests for the model-serving subsystem: plan cache, batch buckets, the
worker pool's pricing, and one-shot serving on the decode engines.

A one-shot request (one forward pass) is a :class:`DecodeRequest` with a
one-token prompt and one output token: one iteration of the model's
bucketed program.
"""

from __future__ import annotations

import itertools
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import T10Compiler
from repro.core import compiler as compiler_module
from repro.hw.memory import OutOfChipMemoryError
from repro.ir import OperatorGraph, matmul
from repro.serving import (
    COMPILE,
    HIT_DISK,
    HIT_MEMORY,
    SLO_BEST_EFFORT,
    DecodeModel,
    DecodeRequest,
    FleetEngine,
    PlanCache,
    StaticEngine,
    WorkerPool,
    batch_buckets,
    bucket_for,
    check_report,
    decode_workload,
    merge_decode_workloads,
    plan_key,
)

from scenarios import ARRIVALS, STATIC, Replay, scenarios, tiny_builder


build_tiny = tiny_builder("tiny")


@pytest.fixture()
def cache(small_cost_model, fast_constraints, tmp_path):
    """A disk-backed plan cache compiling with the shared test cost model."""
    return PlanCache(
        tmp_path / "plans",
        compiler_factory=lambda chip, constraints: T10Compiler(
            chip, cost_model=small_cost_model, constraints=constraints
        ),
    )


def one_shot(request_id: int, arrival: float, model: str = "tiny") -> DecodeRequest:
    """One forward pass: a one-token prompt and one output token."""
    return DecodeRequest(request_id, model, arrival, prompt_tokens=1, max_new_tokens=1)


def one_shot_stream(
    rate: float, *, num_requests: int, seed: int, model: str = "tiny"
) -> list[DecodeRequest]:
    """A Poisson stream of one-shot requests for ``model``."""
    return decode_workload(
        model,
        num_requests=num_requests,
        rate=rate,
        seed=seed,
        prompt_tokens=(1, 1),
        output_tokens=(1, 1),
        interactive_fraction=0.0,
        tenant=model,
    )


def one_shot_mix(rates: dict[str, float], *, num_requests: int, seed: int):
    """``num_requests`` one-shot requests per model, merged by arrival."""
    return merge_decode_workloads(
        *(
            one_shot_stream(rate, num_requests=num_requests, seed=seed, model=model)
            for model, rate in rates.items()
        )
    )


def static_engine(cache, small_chip, fast_constraints, *, max_batch_size=8, **kwargs):
    """A StaticEngine serving ``build_tiny`` one-shot (two chips by default)."""
    kwargs.setdefault("num_chips", 2)
    return StaticEngine(
        DecodeModel("tiny", build_tiny, max_batch_size=max_batch_size),
        chip=small_chip,
        constraints=fast_constraints,
        plan_cache=cache,
        **kwargs,
    )


def batch_starts(report) -> dict[tuple[int, float], list[int]]:
    """Request ids per static batch, keyed by (replica, start time) in start
    order: a static batch's members are admitted together."""
    starts: dict[tuple[int, float], list[int]] = {}
    for record in sorted(report.completed, key=lambda r: (r.admitted_time, r.replica)):
        key = (record.replica, record.admitted_time)
        starts.setdefault(key, []).append(record.request.request_id)
    return starts


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
        with ThreadPoolExecutor(max_workers=len(graphs)) as pool:
            lookups = list(
                pool.map(
                    lambda graph: cache.get_or_compile(graph, small_chip, fast_constraints),
                    graphs,
                )
            )
        assert [lookup.outcome for lookup in lookups] == [COMPILE] * 4
        assert cache.stats.misses == 4
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
# Batched lookups: get_or_compile_many == get_or_compile one by one
# --------------------------------------------------------------------------- #
def oom_graph(batch_size: int) -> OperatorGraph:
    """A graph whose middle operator admits no plan on the small test chip."""
    graph = OperatorGraph(name=f"oom-b{batch_size}")
    first = graph.add(matmul("fc1", m=batch_size * 8, k=64, n=64))
    huge = graph.add(matmul("huge", m=4096, k=4096, n=4096), inputs=[first])
    graph.add(matmul("fc2", m=batch_size * 8, k=64, n=48), inputs=[huge])
    return graph


def compiled_view(compiled) -> tuple:
    """Everything of a compile but its wall-clock time."""
    return (
        compiled.graph.name,
        compiled.status,
        compiled.error,
        compiled.program,
        compiled.schedule,
        compiled.pareto_plans,
        compiled.search_stats,
        compiled.unique_operators,
        compiled.dispatched_searches,
        compiled.sketched_candidates,
        compiled.evaluated_candidates,
        compiled.materialized_plans,
    )


def counts(stats) -> tuple:
    return (
        stats.hits_memory,
        stats.hits_disk,
        stats.misses,
        stats.sketched_candidates,
        stats.materialized_plans,
    )


class BatchCountingCompiler(T10Compiler):
    """Records the batches it compiles; optionally holds a batch at a gate."""

    def __init__(self, *args, gate=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batches: list[list[str]] = []
        self.gate = gate

    def compile_many(self, graphs):  # type: ignore[override]
        self.batches.append([graph.name for graph in graphs])
        if self.gate is not None:
            self.gate(graphs)
        return super().compile_many(graphs)


class TestGetOrCompileMany:
    def caches(self, small_cost_model, tmp_path, jobs=1):
        """Two caches over copies of one disk tier holding ``tiny-b2``."""
        compilers: list[BatchCountingCompiler] = []

        def factory(chip, constraints):
            compiler = BatchCountingCompiler(
                chip, cost_model=small_cost_model, constraints=constraints, jobs=jobs
            )
            compilers.append(compiler)
            return compiler

        seed = PlanCache(tmp_path / "seed", compiler_factory=factory)
        return seed, factory, compilers

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_equals_one_by_one(
        self, jobs, small_chip, small_cost_model, fast_constraints, tmp_path
    ):
        """Memory and disk hits, a repeated graph, a scoped key, an OOM
        graph mid-batch and a later graph sharing its searches, with tenant
        attribution, against the same lookups made one at a time."""
        seed, factory, compilers = self.caches(small_cost_model, tmp_path, jobs)
        seed.get_or_compile(build_tiny(2), small_chip, fast_constraints, scope="s")
        graphs = [
            build_tiny(1), build_tiny(2), oom_graph(1), build_tiny(4), build_tiny(1),
            oom_graph(2), build_tiny(8),
        ]
        sides = []
        for name in ("one-by-one", "batched"):
            shutil.copytree(tmp_path / "seed", tmp_path / name)
            cache = PlanCache(tmp_path / name, compiler_factory=factory)
            # A warm entry: served from memory on both sides.
            cache.get_or_compile(build_tiny(4), small_chip, fast_constraints, scope="s")
            before = cache.stats.snapshot()
            start = time.perf_counter()
            if name == "batched":
                lookups = cache.get_or_compile_many(
                    graphs, small_chip, fast_constraints, scope="s", tenant="t"
                )
            else:
                lookups = [
                    cache.get_or_compile(graph, small_chip, fast_constraints, scope="s",
                                         tenant="t")
                    for graph in graphs
                ]
            wall = time.perf_counter() - start
            sides.append((cache, lookups, cache.stats.since(before), wall))
        (serial, serial_lookups, serial_stats, _), (batch, lookups, stats, wall) = sides
        assert [lookup.outcome for lookup in lookups] == [
            COMPILE, HIT_DISK, COMPILE, HIT_MEMORY, HIT_MEMORY, COMPILE, COMPILE
        ]
        assert [lookup.outcome for lookup in lookups] == [
            lookup.outcome for lookup in serial_lookups
        ]
        assert [lookup.key for lookup in lookups] == [lookup.key for lookup in serial_lookups]
        assert all(lookup.key.endswith("-s") for lookup in lookups)
        assert [compiled_view(lookup.compiled) for lookup in lookups] == [
            compiled_view(lookup.compiled) for lookup in serial_lookups
        ]
        assert [lookup.compiled.status for lookup in lookups].count("oom") == 2
        assert counts(stats) == counts(serial_stats)
        assert counts(batch.tenant_stats("t")) == counts(serial.tenant_stats("t"))
        assert batch.tenant_stats("t").misses == 4
        assert batch.evict_scope("s") == serial.evict_scope("s") == 6
        # One batch compile on the batched side (after the warm entry's); its
        # programs' times sum to at most the batch's wall time.
        assert compilers[-1].batches == [
            ["tiny-b4"], [graph.name for graph in graphs[:4:2] + graphs[5:]]
        ]
        fresh = [lookup.compiled for lookup in lookups if lookup.outcome == COMPILE]
        assert 0 < sum(compiled.compile_time_seconds for compiled in fresh) <= wall

    def test_batch_times_sum_to_the_batch_wall_time(
        self, small_chip, small_cost_model, fast_constraints, monkeypatch
    ):
        """On a clock that ticks once per read, the shares of a batch with
        an OOM graph and cache-only graphs add up to its first-to-last read."""
        ticks = itertools.count()

        class Clock:
            @staticmethod
            def perf_counter() -> float:
                return float(next(ticks))

        monkeypatch.setattr(compiler_module, "time", Clock)
        compiler = T10Compiler(small_chip, cost_model=small_cost_model,
                               constraints=fast_constraints)
        compiler.compile(build_tiny(4))
        graphs = [build_tiny(1), oom_graph(1), build_tiny(4), build_tiny(2)]
        before = next(ticks)
        compiled = compiler.compile_many(graphs)
        reads = next(ticks) - before - 1
        shares = [model.compile_time_seconds for model in compiled]
        assert sum(shares) == pytest.approx(reads - 1)
        assert all(share > 0 for share in shares)
        # The graph whose only search was cached owns no search time.
        assert shares[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("leader", ["batch", "single"])
    def test_concurrent_lookup_of_one_key_compiles_once(
        self, leader, small_chip, small_cost_model, fast_constraints, tmp_path
    ):
        """Another thread's ``get_or_compile`` of a key a batch is compiling
        (or the batch's lookup of a key another thread compiles) compiles it
        once; the rider counts a memory hit."""
        entered = threading.Event()
        release = threading.Event()

        def gate(graphs):
            if len(graphs) == (3 if leader == "batch" else 1):
                entered.set()
                assert release.wait(timeout=60)

        compiler = BatchCountingCompiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints, gate=gate
        )
        cache = PlanCache(compiler_factory=lambda chip, constraints: compiler)
        graphs = [build_tiny(1), build_tiny(2), build_tiny(4)]
        results: dict[str, object] = {}

        def batch():
            results["batch"] = cache.get_or_compile_many(graphs, small_chip, fast_constraints)

        def single():
            results["single"] = cache.get_or_compile(build_tiny(2), small_chip,
                                                     fast_constraints)

        first, second = (batch, single) if leader == "batch" else (single, batch)
        threads = [threading.Thread(target=first)]
        threads[0].start()
        assert entered.wait(timeout=60)
        threads.append(threading.Thread(target=second))
        threads[1].start()
        # The second caller reaches the flight while the first compiles.
        deadline = time.monotonic() + 60
        while not cache._flight.in_flight(plan_key(graphs[0], small_chip, fast_constraints)):
            if leader == "batch" or time.monotonic() > deadline:
                break
            time.sleep(0.001)
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=120)
        assert sorted(sum(compiler.batches, [])) == sorted(graph.name for graph in graphs)
        assert cache.stats.misses == 3
        assert cache.stats.hits_memory == 1
        rider = results["single"] if leader == "batch" else results["batch"][1]
        assert rider.outcome == HIT_MEMORY
        assert rider.compiled is (
            results["batch"][1].compiled if leader == "batch" else results["single"].compiled
        )

    def test_a_search_another_batch_drops_is_searched_again(
        self, small_chip, small_cost_model, fast_constraints
    ):
        """Two threads compile on one compiler.  Thread A's batch fails OOM
        mid-graph, its search of ``huge`` raising, so it drops the search
        behind the failing operator; thread B found that search cached
        before the drop and merges after it.  B searches it again and
        compiles as it would alone."""
        compilers: list[T10Compiler] = []

        def factory(chip, constraints):
            compilers.append(
                T10Compiler(chip, cost_model=small_cost_model, constraints=constraints)
            )
            return compilers[-1]

        cache = PlanCache(compiler_factory=factory)
        reference = PlanCache(compiler_factory=factory)
        graph = OperatorGraph(name="after-oom")
        # oom_graph's ``fc2``: searched by A's fan-out, claimed by no graph.
        graph.add(matmul("proj", m=8, k=64, n=48))
        cache.get_or_compile(build_tiny(1), small_chip, fast_constraints)
        compiler = compilers[0]
        names = {}
        forgetting, fanned, forgot = threading.Event(), threading.Event(), threading.Event()
        forget, fan_out = compiler.intra_op.forget, compiler.engine._fan_out

        def gated_forget(signature):
            if threading.current_thread() is names["a"]:
                forgetting.set()
                assert fanned.wait(timeout=60)
            forget(signature)
            forgot.set()

        def gated_fan_out(batch, intra_op):
            fan_out(batch, intra_op)
            if threading.current_thread() is names["b"]:
                fanned.set()
                assert forgot.wait(timeout=60)

        huge = oom_graph(1).operators[1]
        search_group = compiler.intra_op._search_group

        too_big = OutOfChipMemoryError(2**30, small_chip.sram_per_core, huge.name)

        def raising_search_group(operators):
            if any(operator.signature() == huge.signature() for operator in operators):
                raise too_big
            return search_group(operators)

        compiler.intra_op._search_group = raising_search_group
        compiler.intra_op.forget = gated_forget
        compiler.engine._fan_out = gated_fan_out
        results: dict[str, object] = {}

        def run(name, graphs):
            try:
                results[name] = cache.get_or_compile_many(graphs, small_chip, fast_constraints)
            except BaseException as error:  # surfaced by the assertions below
                results[name] = error

        names["a"] = threading.Thread(target=run, args=("a", [oom_graph(1)]))
        names["b"] = threading.Thread(target=run, args=("b", [graph]))
        names["a"].start()
        assert forgetting.wait(timeout=60)
        names["b"].start()
        for thread in names.values():
            thread.join(timeout=120)
        assert fanned.is_set() and forgot.is_set()
        (oom,) = results["a"]
        (alone,) = results["b"]
        assert oom.compiled.status == "oom"
        assert oom.compiled.error == str(too_big)
        expected = reference.get_or_compile(graph, small_chip, fast_constraints)
        assert alone.compiled.ok
        assert alone.compiled.program == expected.compiled.program
        assert alone.compiled.pareto_plans == expected.compiled.pareto_plans
        # B found the search cached, so it dispatched none of its own.
        assert alone.compiled.dispatched_searches == 0

    def test_every_graph_of_a_batch_is_one_lookup_and_one_search_call(
        self, small_chip, small_cost_model, fast_constraints, monkeypatch
    ):
        """Profilers time and count the per-graph entry points by name: a
        batch calls each once per graph, in order, and the first call holds
        the batch's compile."""
        from repro.core.parallel import ParallelCompilationEngine

        calls: list[tuple[str, str]] = []

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(self, graph, *args, **kwargs):
                calls.append((name, graph.name))
                return original(self, graph, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(PlanCache, "get_or_compile")
        spy(ParallelCompilationEngine, "search_graph")
        cache = PlanCache(
            compiler_factory=lambda chip, constraints: T10Compiler(
                chip, cost_model=small_cost_model, constraints=constraints
            )
        )
        graphs = [build_tiny(1), build_tiny(2), build_tiny(1), build_tiny(4)]
        lookups = cache.get_or_compile_many(graphs, small_chip, fast_constraints)
        assert [lookup.outcome for lookup in lookups] == [COMPILE, COMPILE, HIT_MEMORY, COMPILE]
        names = [graph.name for graph in graphs]
        unique = ["tiny-b1", "tiny-b2", "tiny-b4"]
        # The first lookup compiles the batch (its three graph searches)
        # before the later lookups return theirs.
        assert calls == (
            [("get_or_compile", names[0])]
            + [("search_graph", name) for name in unique]
            + [("get_or_compile", name) for name in names[1:]]
        )


# --------------------------------------------------------------------------- #
# Batch buckets and the batch window
# --------------------------------------------------------------------------- #
class TestDynamicBatcher:
    """Batch buckets, and how a static batch fills under a batch window."""

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

    def test_full_batch_closes_immediately(self, cache, small_chip, fast_constraints):
        engine = static_engine(cache, small_chip, fast_constraints, max_batch_size=4,
                               num_chips=1, batch_window=1.0)
        requests = [one_shot(i, 0.001 * i) for i in range(8)]
        starts = batch_starts(engine.run(requests))
        assert [len(members) for members in starts.values()] == [4, 4]
        # Started by the size trigger at the fourth arrival, not the window.
        assert list(starts)[0] == (0, 0.003)

    def test_window_flushes_partial_batch(self, cache, small_chip, fast_constraints):
        engine = static_engine(cache, small_chip, fast_constraints, num_chips=1,
                               batch_window=0.010)
        requests = [
            one_shot(0, 0.000),
            one_shot(1, 0.001),
            one_shot(2, 0.100),  # arrives after the window
        ]
        report = engine.run(requests)
        starts = batch_starts(report)
        assert [len(members) for members in starts.values()] == [2, 1]
        # Each partial batch waits out its oldest request's window.
        assert [start for _, start in starts] == pytest.approx([0.010, 0.110])
        assert report.iterations == 2

    def test_models_batch_independently(self, cache, small_chip, fast_constraints):
        # A fleet never co-batches two models, and caps each model's batch
        # at its own max_batch_size.
        fleet = FleetEngine(
            [
                DecodeModel("a", build_tiny, max_batch_size=2),
                DecodeModel("b", tiny_builder("tiny", 96), max_batch_size=8),
            ],
            chip=small_chip,
            constraints=fast_constraints,
            plan_cache=cache,
            num_chips=2,
        )
        requests = merge_decode_workloads(
            [one_shot(i, 0.0, "a") for i in range(4)],
            [one_shot(i, 0.0, "b") for i in range(6)],
        )
        report = fleet.run(requests)
        assert check_report(report, requests) == []
        limits = {"a": 2, "b": 8}
        model_of = {r.request.request_id: r.request.model for r in report.completed}
        for members in batch_starts(report).values():
            models = {model_of[request_id] for request_id in members}
            assert len(models) == 1
            assert len(members) <= limits[models.pop()]

    def test_empty_replay_yields_nothing_and_zero_stats(
        self, cache, small_chip, fast_constraints
    ):
        # An empty workload is a legal replay: no records, no iterations,
        # and the books still balance.
        engine = static_engine(cache, small_chip, fast_constraints, batch_window=1.0)
        report = engine.run([])
        assert report.completed == ()
        assert report.iterations == 0
        assert report.busy_chip_seconds == 0.0
        assert check_report(report, []) == []


# --------------------------------------------------------------------------- #
# Batch-window properties (hypothesis)
# --------------------------------------------------------------------------- #
class TestBatcherProperties:
    @given(
        scenario=scenarios(
            engines=(STATIC,),
            chips=(1, 2),
            stages=(1,),
            batches=(1, 2, 3, 4, 5, 6),
            traffic=(ARRIVALS,),
        )
    )
    @settings(deadline=None, max_examples=200)
    def test_batches_partition_requests_in_dispatch_order(self, scenario, testbed):
        """Every request lands in exactly one batch; dispatch never rewinds."""
        replay = Replay(scenario, testbed)
        requests = replay.workload
        report = replay.run()
        assert check_report(report, requests) == []

        starts = batch_starts(report)
        batched_ids = [request_id for members in starts.values() for request_id in members]
        assert len(batched_ids) == len(set(batched_ids)), "a request was batched twice"
        assert sorted(batched_ids) == [req.request_id for req in requests]

        # FIFO dispatch: batches taken in start order (ties between replicas
        # by their oldest member) cut the arrival order into consecutive runs.
        dispatched = sorted(starts.items(), key=lambda item: (item[0][1], min(item[1])))
        in_dispatch_order = [i for _, members in dispatched for i in sorted(members)]
        assert in_dispatch_order == [req.request_id for req in requests], (
            "dispatch rewound past an earlier arrival"
        )

        arrival = {req.request_id: req.arrival_time for req in requests}
        window = scenario.batch_window * replay.unit
        for (_, start), members in starts.items():
            assert 1 <= len(members) <= scenario.max_batch
            # A batch never dispatches before its requests exist.
            assert start >= max(arrival[i] for i in members)
            if len(members) < scenario.max_batch:
                # A partial batch waits out its oldest member's window.
                assert start >= min(arrival[i] for i in members) + window


# --------------------------------------------------------------------------- #
# Workload generators
# --------------------------------------------------------------------------- #
class TestWorkloads:
    def test_poisson_workload_is_deterministic_and_sorted(self):
        # The one-shot stream fig25 serves: a Poisson clock of one-iteration,
        # deadline-free requests.
        def draw():
            return decode_workload(
                "x", num_requests=60, rate=100.0, seed=7, prompt_tokens=(1, 1),
                output_tokens=(1, 1), interactive_fraction=0.0,
            )

        a = draw()
        assert a == draw()
        assert len(a) == 60
        times = [req.arrival_time for req in a]
        assert times == sorted(times)
        assert [req.request_id for req in a] == list(range(60))
        assert all(
            (req.prompt_tokens, req.max_new_tokens, req.slo_class, req.deadline)
            == (1, 1, SLO_BEST_EFFORT, None)
            for req in a
        )


# --------------------------------------------------------------------------- #
# Worker pool
# --------------------------------------------------------------------------- #
class TestWorkerPool:
    def test_batches_spread_across_free_workers(
        self, cache, small_chip, fast_constraints
    ):
        engine = static_engine(cache, small_chip, fast_constraints, max_batch_size=1)
        report = engine.run([one_shot(i, 0.0) for i in range(4)])
        assert {record.replica for record in report.completed} == {0, 1}
        # On any single replica, batches run back to back, never overlapping.
        by_replica: dict[int, list] = {}
        for record in sorted(report.completed, key=lambda r: r.admitted_time):
            by_replica.setdefault(record.replica, []).append(record)
        for runs in by_replica.values():
            for earlier, later in zip(runs, runs[1:]):
                assert later.admitted_time >= earlier.completion_time

    def test_compile_penalty_only_on_miss(self, cache, small_chip, fast_constraints):
        # The first engine compiles its buckets at warm-up; a second engine
        # on the same cache pays nothing, and neither run compiles.
        requests = [one_shot(i, 1e-4 * i) for i in range(6)]
        cold = static_engine(cache, small_chip, fast_constraints)
        cold_report = cold.run(requests)
        warm = static_engine(cache, small_chip, fast_constraints)
        warm_report = warm.run(requests)
        assert cold.warm_compile_seconds > 0
        assert warm.warm_compile_seconds == 0.0
        assert cold_report.cache.misses == warm_report.cache.misses == 0
        assert repr(warm_report.completed) == repr(cold_report.completed)

    def test_oversized_graph_is_rejected_not_crashed(
        self, cache, tiny_chip, fast_constraints
    ):
        pool = WorkerPool(
            tiny_chip, num_chips=1, plan_cache=cache, constraints=fast_constraints
        )
        cost = pool.profile(tiny_builder("tiny", 4096)(64))
        assert not cost.ok
        assert cost.status == "oom"
        assert cost.latency == 0.0


# --------------------------------------------------------------------------- #
# End-to-end one-shot serving
# --------------------------------------------------------------------------- #
class TestServingScheduler:
    """One-shot serving end to end on the decode engines."""

    def make_fleet(self, cache, small_chip, fast_constraints, **kwargs):
        models = [
            DecodeModel("tiny", build_tiny, max_batch_size=8),
            DecodeModel("wide", tiny_builder("tiny", 96), max_batch_size=4),
        ]
        kwargs.setdefault("num_chips", 2)
        return FleetEngine(
            models,
            chip=small_chip,
            constraints=fast_constraints,
            plan_cache=cache,
            **kwargs,
        )

    def test_warm_cache_serves_100_requests_with_zero_recompiles(
        self, cache, small_chip, fast_constraints
    ):
        fleet = self.make_fleet(cache, small_chip, fast_constraints)
        fleet.warm()
        # Every (model, bucket) combination compiled exactly once: 4 + 3.
        assert cache.stats.misses == 7
        requests = one_shot_mix({"tiny": 3000.0, "wide": 1000.0}, num_requests=50, seed=3)
        report = fleet.run(requests)
        assert check_report(report, requests) == []
        assert report.total_completed == 100
        assert report.cache.misses == 0
        assert cache.stats.misses == 7
        # SLO metrics are present and ordered.
        tails = report.latency_percentiles
        assert 0 < tails["p50"] <= tails["p95"] <= tails["p99"]
        assert report.throughput > 0
        for tenant in report.per_tenant().values():
            assert tenant.total_completed == 50
            assert tenant.throughput > 0

    def test_cold_serve_compiles_each_bucket_once(
        self, cache, small_chip, fast_constraints
    ):
        engine = static_engine(cache, small_chip, fast_constraints, batch_window=1e-3)
        requests = one_shot_stream(3000.0, num_requests=50, seed=1)
        report = engine.run(requests)
        # The run warmed first: every bucket compiled once, none while serving.
        assert cache.stats.misses == len(batch_buckets(8))
        assert report.cache.misses == 0
        assert engine.warm_compile_seconds > 0
        # A second identical run is fully cached and replays identically.
        rerun = engine.run(requests)
        assert cache.stats.misses == len(batch_buckets(8))
        assert repr(rerun.completed) == repr(report.completed)

    def test_more_chips_do_not_hurt_throughput_under_load(
        self, cache, small_chip, fast_constraints
    ):
        requests = one_shot_stream(50_000.0, num_requests=80, seed=2)
        one = static_engine(cache, small_chip, fast_constraints, num_chips=1).run(requests)
        four = static_engine(cache, small_chip, fast_constraints, num_chips=4).run(requests)
        assert four.throughput >= one.throughput
        assert four.latency_percentiles["p99"] <= one.latency_percentiles["p99"]

    def test_unknown_model_is_rejected(self, cache, small_chip, fast_constraints):
        engine = static_engine(cache, small_chip, fast_constraints)
        with pytest.raises(ValueError, match="unserved"):
            engine.run([DecodeRequest(0, "nope", 0.0, 1, 1)])

    def test_duplicate_served_model_is_rejected(
        self, cache, small_chip, fast_constraints
    ):
        with pytest.raises(ValueError, match="duplicate"):
            FleetEngine(
                [DecodeModel("tiny", build_tiny), DecodeModel("tiny", build_tiny)],
                chip=small_chip,
                plan_cache=cache,
            )

    def test_report_rows_render_as_table(self, cache, small_chip, fast_constraints):
        from repro.experiments.common import format_table

        fleet = self.make_fleet(cache, small_chip, fast_constraints)
        report = fleet.run(
            one_shot_mix({"tiny": 2000.0, "wide": 500.0}, num_requests=20, seed=5)
        )
        rows = [
            {"tenant": tenant, "completed": scope.total_completed, "rps": scope.throughput}
            for tenant, scope in report.per_tenant().items()
        ]
        assert [row["tenant"] for row in rows] == ["tiny", "wide"]
        table = format_table(rows, title="serving")
        assert "tiny" in table and "wide" in table
        assert "40 requests (40 tokens) on 2 chip(s)" in report.summary()
