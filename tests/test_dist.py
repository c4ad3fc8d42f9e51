"""Tests for the multi-chip sharding subsystem (repro.dist) and its serving path."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import T10Compiler
from repro.dist import (
    PipelineSimulator,
    ShardedCompiler,
    partition_graph,
    stage_subgraph,
)
from repro.hw.interconnect import InterconnectConfig, InterconnectModel
from repro.ir import OperatorGraph, elementwise, matmul
from repro.serving import (
    COMPILE,
    HIT_DISK,
    HIT_MEMORY,
    DecodeModel,
    DecodeRequest,
    PlanCache,
    StaticEngine,
    WorkerPool,
    check_report,
    plan_key,
)


def mlp_graph(num_layers: int = 6, *, width: int = 64, name: str = "mlp") -> OperatorGraph:
    """A chain of small matmul+relu layers that fits the small test chip."""
    graph = OperatorGraph(name=name)
    prev: str | None = None
    for layer in range(num_layers):
        fc = matmul(f"fc{layer}", m=16, k=width, n=width)
        graph.add(fc, [prev] if prev else [])
        act = elementwise(f"act{layer}", {"m": 16, "n": width}, kind="relu")
        graph.add(act, [fc.name])
        prev = act.name
    return graph


def heavy_chain(num_layers: int = 8, *, width: int = 1024) -> OperatorGraph:
    """A matmul chain whose weights exceed the small chip's SRAM unsharded."""
    graph = OperatorGraph(name=f"heavy{num_layers}")
    prev: str | None = None
    for layer in range(num_layers):
        op = matmul(f"fc{layer}", m=64, k=width, n=width)
        graph.add(op, [prev] if prev else [])
        prev = op.name
    return graph


#: Like tests/conftest.py's TEST_JOBS: CI's multi-chip leg sets this to 2 so
#: stage compiles exercise the parallel engine's forked-worker path.
TEST_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "1"))


@pytest.fixture()
def sharded_compiler(small_chip, small_cost_model, fast_constraints):
    return ShardedCompiler(
        small_chip,
        cost_model=small_cost_model,
        constraints=fast_constraints,
        jobs=TEST_JOBS,
    )


# --------------------------------------------------------------------------- #
# Stage partitioner
# --------------------------------------------------------------------------- #
class TestPartition:
    def test_rejects_bad_stage_counts(self, small_chip, small_cost_model):
        graph = mlp_graph(2)
        with pytest.raises(ValueError):
            partition_graph(graph, 0, cost_model=small_cost_model, chip=small_chip)
        with pytest.raises(ValueError):
            partition_graph(
                graph, len(graph) + 1, cost_model=small_cost_model, chip=small_chip
            )

    def test_rejects_empty_graph(self, small_chip, small_cost_model):
        with pytest.raises(ValueError):
            partition_graph(
                OperatorGraph(name="empty"), 1, cost_model=small_cost_model, chip=small_chip
            )

    def test_slices_cover_topo_order(self, small_chip, small_cost_model):
        graph = mlp_graph(5)
        partition = partition_graph(graph, 3, cost_model=small_cost_model, chip=small_chip)
        assert partition.slices[0].start == 0
        assert partition.slices[-1].stop == len(graph)
        for earlier, later in zip(partition.slices, partition.slices[1:]):
            assert earlier.stop == later.start
        assert all(stage.num_ops >= 1 for stage in partition.slices)
        assert len(partition.est_stage_times) == 3
        assert len(partition.est_transfer_times) == 2

    def test_partition_is_deterministic(self, small_chip, small_cost_model):
        graph = mlp_graph(6)
        first = partition_graph(graph, 4, cost_model=small_cost_model, chip=small_chip)
        second = partition_graph(graph, 4, cost_model=small_cost_model, chip=small_chip)
        assert first == second

    def test_balances_identical_layers(self, small_chip, small_cost_model):
        graph = heavy_chain(8)
        partition = partition_graph(graph, 2, cost_model=small_cost_model, chip=small_chip)
        # Eight identical operators split 4/4: anything else has a worse
        # bottleneck.
        assert [s.num_ops for s in partition.slices] == [4, 4]

    def test_transfer_bytes_match_boundary_activations(self, small_chip, small_cost_model):
        graph = heavy_chain(4)
        partition = partition_graph(graph, 2, cost_model=small_cost_model, chip=small_chip)
        boundary_op = graph.operators[partition.slices[0].stop - 1]
        assert partition.transfer_bytes == (boundary_op.output_bytes,)

    def test_fan_out_producer_ships_one_copy(self, small_chip, small_cost_model):
        # One producer feeding several downstream consumers crosses each
        # boundary once — not once per edge (regression: per-edge counting
        # quadrupled the priced transfer after fan-out ops).
        graph = OperatorGraph(name="fanout")
        src = matmul("src", m=16, k=64, n=64)
        graph.add(src)
        for i in range(3):
            graph.add(
                elementwise(f"sink{i}", {"m": 16, "n": 64}, kind="relu"), [src.name]
            )
        partition = partition_graph(graph, 2, cost_model=small_cost_model, chip=small_chip)
        assert partition.slices[0].stop >= 1
        # Whatever the cut, only one copy of src's output crosses it.
        assert partition.transfer_bytes[0] == src.output_bytes

    def test_bottleneck_below_serial_sum(self, small_chip, small_cost_model):
        graph = heavy_chain(8)
        one = partition_graph(graph, 1, cost_model=small_cost_model, chip=small_chip)
        two = partition_graph(graph, 2, cost_model=small_cost_model, chip=small_chip)
        assert two.est_bottleneck < one.est_bottleneck

    def test_memory_feasibility_flag(self, small_chip, small_cost_model):
        # 10 x 2 MiB of weights exceed the 16 MiB small chip unsharded but
        # fit once split in two.
        graph = heavy_chain(10)
        one = partition_graph(graph, 1, cost_model=small_cost_model, chip=small_chip)
        two = partition_graph(graph, 2, cost_model=small_cost_model, chip=small_chip)
        assert not one.memory_feasible
        assert two.memory_feasible

    def test_stage_subgraph_keeps_intra_stage_edges_only(
        self, small_chip, small_cost_model
    ):
        graph = mlp_graph(4)
        partition = partition_graph(graph, 2, cost_model=small_cost_model, chip=small_chip)
        sub = stage_subgraph(graph, partition.slices[1], 2)
        assert len(sub) == partition.slices[1].num_ops
        member_names = set(partition.stage_ops(1))
        for producer, consumer in sub.edges():
            assert producer.name in member_names
            assert consumer.name in member_names
        # The first op of the stage lost its cross-boundary producer edge.
        first_op = graph.operators[partition.slices[1].start]
        assert sub.predecessors(first_op.name) == []


# --------------------------------------------------------------------------- #
# Pipeline simulator
# --------------------------------------------------------------------------- #
class TestPipelineSimulator:
    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineSimulator([])
        with pytest.raises(ValueError):
            PipelineSimulator([1.0], [0.1])  # too many transfers
        with pytest.raises(ValueError):
            PipelineSimulator([1.0, -1.0], [0.1])
        with pytest.raises(ValueError):
            PipelineSimulator([1.0], []).run(0)

    def test_single_stage_is_sequential(self):
        result = PipelineSimulator([2.0]).run(5)
        assert result.total_latency == pytest.approx(10.0)
        assert result.fill_time == pytest.approx(2.0)
        assert result.drain_time == 0.0
        assert result.bottleneck == pytest.approx(2.0)

    def test_fill_then_steady_state(self):
        # Two balanced stages with a free link: fill 2s, then one micro-batch
        # per second.
        result = PipelineSimulator([1.0, 1.0], [0.0]).run(4)
        assert result.fill_time == pytest.approx(2.0)
        assert result.total_latency == pytest.approx(2.0 + 3 * 1.0)
        assert result.steady_period == pytest.approx(1.0)

    def test_transfer_joins_fill_and_bottleneck(self):
        result = PipelineSimulator([1.0, 1.0], [0.5]).run(1)
        assert result.total_latency == pytest.approx(2.5)
        result = PipelineSimulator([1.0, 1.0], [0.5]).run(3)
        # Stage 0 + its outgoing transfer is the 1.5 s bottleneck.
        assert result.bottleneck == pytest.approx(1.5)
        assert result.total_latency == pytest.approx(2.5 + 2 * 1.5)

    def test_bottleneck_stage_dominates(self):
        slow_mid = PipelineSimulator([0.1, 2.0, 0.1], [0.0, 0.0]).run(10)
        assert slow_mid.steady_period == pytest.approx(2.0)
        assert slow_mid.stage_utilization[1] > slow_mid.stage_utilization[0]

    def test_throughput_improves_with_balanced_stages(self):
        serial = PipelineSimulator([4.0]).run(8)
        split = PipelineSimulator([2.0, 2.0], [0.0]).run(8)
        quarters = PipelineSimulator([1.0] * 4, [0.0] * 3).run(8)
        assert serial.throughput() < split.throughput() < quarters.throughput()

    def test_utilization_bounded(self):
        result = PipelineSimulator([1.0, 3.0], [0.2]).run(6)
        assert all(0.0 < u <= 1.0 for u in result.stage_utilization)


# --------------------------------------------------------------------------- #
# Sharded compiler
# --------------------------------------------------------------------------- #
class TestShardedCompiler:
    def test_compiles_every_stage(self, sharded_compiler):
        graph = mlp_graph(4)
        model = sharded_compiler.compile(graph, 2)
        assert model.ok
        assert len(model.stages) == 2
        assert sum(stage.num_ops for stage in model.stages) == len(graph)
        assert all(stage.latency > 0 for stage in model.stages)
        assert model.latency == pytest.approx(
            sum(model.stage_latencies) + sum(model.transfer_times)
        )
        assert "across 2 chip(s)" in model.summary()

    def test_stage_programs_cache_independently(self, sharded_compiler):
        graph = mlp_graph(4)
        first = sharded_compiler.compile(graph, 2)
        assert [stage.cache_outcome for stage in first.stages] == [COMPILE, COMPILE]
        second = sharded_compiler.compile(graph, 2)
        assert [stage.cache_outcome for stage in second.stages] == [
            HIT_MEMORY,
            HIT_MEMORY,
        ]
        assert second.compiled_stages == 0

    def test_scope_key_disambiguates_stage_plans(
        self, small_chip, small_cost_model, fast_constraints
    ):
        graph = mlp_graph(2)
        partition = partition_graph(
            graph, 2, cost_model=small_cost_model, chip=small_chip
        )
        scope = partition.slices[0].scope(2)
        base = plan_key(graph, small_chip, fast_constraints)
        scoped = plan_key(graph, small_chip, fast_constraints, scope=scope)
        assert base != scoped
        assert scoped.startswith(base)
        # Scopes become on-disk cache filenames; keep them filename-safe.
        assert all(c.isalnum() or c in ".-" for c in scope), scope

    def test_plans_are_reproducible_across_compilers(
        self, small_chip, small_cost_model, fast_constraints
    ):
        graph = mlp_graph(3)
        first = ShardedCompiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints
        ).compile(graph, 2)
        second = ShardedCompiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints
        ).compile(graph, 2)
        assert first.plans_equal(second)

    def test_oom_model_rescued_by_sharding(self, sharded_compiler, small_cost_model):
        graph = heavy_chain(8)
        single = sharded_compiler.compile(graph, 1)
        assert single.status == "oom"
        assert single.failed_stage == 0
        assert "stage 1/1" in single.error
        sharded = sharded_compiler.compile(graph, 2)
        assert sharded.ok
        assert sharded.pipeline(4).total_latency > 0

    def test_too_many_stages_is_invalid(self, sharded_compiler):
        graph = mlp_graph(1)  # 2 operators
        model = sharded_compiler.compile(graph, 3)
        assert model.status == "invalid"
        assert not model.ok
        with pytest.raises(RuntimeError):
            model.simulator()

    def test_custom_interconnect_prices_transfers(
        self, small_chip, small_cost_model, fast_constraints
    ):
        graph = heavy_chain(4)
        slow_link = ShardedCompiler(
            small_chip,
            cost_model=small_cost_model,
            constraints=fast_constraints,
            interconnect=InterconnectModel(InterconnectConfig(bandwidth=1e6)),
        ).compile(graph, 2)
        fast_link = ShardedCompiler(
            small_chip,
            cost_model=small_cost_model,
            constraints=fast_constraints,
            interconnect=InterconnectModel(InterconnectConfig(bandwidth=1e12)),
        ).compile(graph, 2)
        assert slow_link.transfer_times[0] > fast_link.transfer_times[0]
        assert slow_link.latency > fast_link.latency


# --------------------------------------------------------------------------- #
# Serving integration
# --------------------------------------------------------------------------- #
@pytest.fixture()
def dist_cache(small_cost_model):
    """Plan cache whose compilers use the shared small-chip cost model."""
    cache = PlanCache(
        compiler_factory=lambda chip, constraints: T10Compiler(
            chip, cost_model=small_cost_model, constraints=constraints, jobs=TEST_JOBS
        )
    )
    yield cache
    cache.close()


def one_shot_stream(model: str, count: int, interval: float) -> list[DecodeRequest]:
    """``count`` one-forward-pass requests arriving ``interval`` apart."""
    return [
        DecodeRequest(i, model, i * interval, prompt_tokens=1, max_new_tokens=1)
        for i in range(count)
    ]


def sharded_engine(small_chip, fast_constraints, cache, model: DecodeModel, **kwargs):
    return StaticEngine(
        model, chip=small_chip, constraints=fast_constraints, plan_cache=cache, **kwargs
    )


class TestShardedServing:
    def test_pool_places_sharded_batches_on_chip_groups(
        self, small_chip, fast_constraints, dist_cache
    ):
        engine = sharded_engine(
            small_chip,
            fast_constraints,
            dist_cache,
            DecodeModel("mlp", lambda batch: mlp_graph(4), max_batch_size=1, num_stages=2),
            num_chips=5,
        )
        # Two 2-chip replicas; the fifth chip is a spare.
        assert engine.num_replicas == 2
        requests = one_shot_stream("mlp", 6, 0.0)
        report = engine.run(requests)
        assert check_report(report, requests) == []
        assert {record.replica for record in report.completed} == {0, 1}
        # A group runs one batch at a time: batches on it never overlap,
        # and every group is charged as two busy chips.
        by_replica: dict[int, list] = {}
        for record in sorted(report.completed, key=lambda r: r.admitted_time):
            by_replica.setdefault(record.replica, []).append(record)
        for runs in by_replica.values():
            for earlier, later in zip(runs, runs[1:]):
                assert later.admitted_time >= earlier.completion_time
        latency = engine.iteration_latency(1)
        assert report.busy_chip_seconds == pytest.approx(6 * latency * 2)

    def test_sharded_outcome_reports_disk_hits(
        self, small_chip, small_cost_model, fast_constraints, tmp_path
    ):
        def make_pool():
            cache = PlanCache(
                tmp_path / "plans",
                compiler_factory=lambda chip, constraints: T10Compiler(
                    chip, cost_model=small_cost_model, constraints=constraints
                ),
            )
            return WorkerPool(
                small_chip, num_chips=2, plan_cache=cache, constraints=fast_constraints
            )

        graph = mlp_graph(4)
        pool = make_pool()
        cold = pool.profile(graph, num_stages=2)
        assert cold.cache_outcome == COMPILE
        assert cold.compile_seconds > 0
        again = pool.profile(graph, num_stages=2)
        assert again.cache_outcome == HIT_MEMORY
        assert again.compile_seconds == 0.0
        # A fresh pool over the same cache dir restores every stage from
        # disk: the outcome must say so, not claim a memory hit.
        warm = make_pool().profile(graph, num_stages=2)
        assert warm.cache_outcome == HIT_DISK
        assert warm.compile_seconds == 0.0
        assert warm.latency == cold.latency

    def test_warm_sharded_compiles_concurrently(
        self, small_chip, fast_constraints, dist_cache
    ):
        # Engines warming sharded models on threads over one cache compile
        # every stage program once, and all serve afterwards.
        models = [
            DecodeModel("mlp", lambda batch: mlp_graph(4), max_batch_size=1, num_stages=2),
            DecodeModel("heavy", lambda batch: heavy_chain(8), max_batch_size=1, num_stages=2),
        ]
        engines = [
            sharded_engine(small_chip, fast_constraints, dist_cache, model, num_chips=2)
            for model in models * 2
        ]
        with ThreadPoolExecutor(max_workers=len(engines)) as pool:
            list(pool.map(lambda engine: engine.warm(), engines))
        # Two stage programs per model, each compiled exactly once.
        assert dist_cache.stats.misses == 2 * len(models)
        for engine in engines:
            assert engine.iteration_latency(1) > 0

    def test_pool_rejects_oversized_groups(
        self, small_chip, fast_constraints, dist_cache
    ):
        pool = WorkerPool(
            small_chip, num_chips=2, plan_cache=dist_cache, constraints=fast_constraints
        )
        with pytest.raises(ValueError):
            pool.profile(mlp_graph(4), num_stages=3)

    def test_scheduler_serves_sharded_model_that_ooms_unsharded(
        self, small_chip, fast_constraints, dist_cache
    ):
        pool = WorkerPool(
            small_chip, num_chips=2, plan_cache=dist_cache, constraints=fast_constraints
        )
        assert pool.profile(heavy_chain(8)).status == "oom"
        engine = sharded_engine(
            small_chip,
            fast_constraints,
            dist_cache,
            DecodeModel("heavy", lambda batch: heavy_chain(8), max_batch_size=1, num_stages=2),
            num_chips=2,
        )
        engine.warm()
        # The unsharded graph OOMs; sharded it has a real latency.
        unit = engine.iteration_latency(1)
        assert unit > 0
        requests = one_shot_stream("heavy", 6, unit)
        report = engine.run(requests)
        assert check_report(report, requests) == []
        assert report.total_completed == 6
        assert report.cache.misses == 0
        assert report.throughput > 0

    def test_scheduler_rejects_model_larger_than_fleet(
        self, small_chip, fast_constraints
    ):
        with pytest.raises(ValueError, match="group of 4 chips"):
            StaticEngine(
                DecodeModel("mlp", lambda batch: mlp_graph(2), num_stages=4),
                chip=small_chip,
                num_chips=2,
                constraints=fast_constraints,
            )
