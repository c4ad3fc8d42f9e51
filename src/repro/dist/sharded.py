"""Compile and execute one model as pipeline stages across several chips.

:class:`ShardedCompiler` is the multi-chip counterpart of
:class:`~repro.core.compiler.T10Compiler`: it partitions an operator graph
into pipeline stages (:mod:`repro.dist.partition`), compiles every stage for
one chip through the serving :class:`~repro.serving.plan_cache.PlanCache`
(so stage programs are cached, single-flighted and reusable across runs —
the cache key carries the stage slice as a scope), measures each stage on
the analytical simulator, and wires the stage boundaries with an
:class:`~repro.hw.interconnect.InterconnectModel`.

The result, a :class:`ShardedModel`, answers the questions the multi-chip
experiments ask: does a model that OOMs on one chip fit when sharded, what
is the pipelined latency/throughput for ``M`` micro-batches, and are the
stage plans bit-for-bit reproducible (they are — every per-stage compile is
the deterministic single-chip pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.compiler import CompiledModel, default_cost_model
from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.core.cost_model import CostModel
from repro.dist.partition import StagePartition, StageSlice, partition_graph, stage_subgraph
from repro.dist.pipeline import PipelineResult, PipelineSimulator
from repro.hw.interconnect import InterconnectModel, default_interconnect
from repro.hw.simulator import ChipSimulator, measure_compilation
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.ir.graph import OperatorGraph

if TYPE_CHECKING:  # avoid a module-level repro.serving import cycle
    from repro.serving.plan_cache import PlanCache


@dataclass(frozen=True)
class StagePlan:
    """One compiled pipeline stage placed on one chip."""

    slice: StageSlice
    graph: OperatorGraph
    compiled: CompiledModel
    latency: float
    """Simulated execution latency of one micro-batch on this stage (s)."""
    transfer_bytes: int
    """Activation bytes this stage ships to the next one (0 for the last)."""
    transfer_time: float
    """Link time of that transfer (0 for the last stage)."""
    cache_outcome: str
    """How the stage program was obtained (hit-memory/hit-disk/compile)."""
    compile_seconds: float
    """Wall-clock seconds the stage lookup took (compile time on a miss)."""

    @property
    def ok(self) -> bool:
        return self.compiled.ok

    @property
    def num_ops(self) -> int:
        return len(self.graph)


@dataclass
class ShardedModel:
    """Result of sharding one operator graph across ``num_stages`` chips."""

    graph: OperatorGraph
    chip: ChipSpec
    num_stages: int
    status: str
    partition: StagePartition | None = None
    stages: tuple[StagePlan, ...] = ()
    error: str = ""
    failed_stage: int | None = None

    @property
    def ok(self) -> bool:
        """Whether every stage compiled and fits its chip."""
        return self.status == "ok"

    @property
    def compile_seconds(self) -> float:
        """Wall-clock seconds spent obtaining all stage programs."""
        return sum(stage.compile_seconds for stage in self.stages)

    @property
    def compiled_stages(self) -> int:
        """Stage lookups that actually compiled (plan-cache misses)."""
        return sum(1 for stage in self.stages if stage.cache_outcome == "compile")

    @property
    def stage_latencies(self) -> tuple[float, ...]:
        return tuple(stage.latency for stage in self.stages)

    @property
    def transfer_times(self) -> tuple[float, ...]:
        return tuple(stage.transfer_time for stage in self.stages[:-1])

    def simulator(self) -> PipelineSimulator:
        """Pipeline simulator over this model's measured stage timings."""
        if not self.ok:
            raise RuntimeError(
                f"{self.graph.name} did not shard onto {self.num_stages} "
                f"chip(s): {self.status} ({self.error})"
            )
        return PipelineSimulator(self.stage_latencies, self.transfer_times)

    def degraded_simulator(self, link_factor: float) -> PipelineSimulator:
        """Pipeline simulator with stage-boundary links slowed ``link_factor``x.

        Used by the serving fault layer to price iterations executed during a
        link-degradation window; single-stage models have no links and so are
        unaffected (the returned simulator equals :meth:`simulator`).
        """
        return self.simulator().scaled(link_factor)

    def pipeline(self, num_micro_batches: int = 1) -> PipelineResult:
        """Pipelined execution of ``num_micro_batches`` micro-batches."""
        return self.simulator().run(num_micro_batches)

    @property
    def latency(self) -> float:
        """End-to-end latency of a single micro-batch (fill only)."""
        return self.pipeline(1).total_latency

    def plans_equal(self, other: "ShardedModel") -> bool:
        """Bit-for-bit comparison of every stage's plans, schedule and program.

        The multi-chip determinism bar mirrors :mod:`repro.core.parallel`:
        two independent compiles of the same (graph, chips, constraints)
        must agree on every stage artefact, not merely on latencies.
        """
        if self.num_stages != other.num_stages or len(self.stages) != len(other.stages):
            return False
        for mine, theirs in zip(self.stages, other.stages):
            if (
                mine.compiled.pareto_plans != theirs.compiled.pareto_plans
                or mine.compiled.schedule != theirs.compiled.schedule
                or mine.compiled.program != theirs.compiled.program
            ):
                return False
        return True

    def summary(self) -> str:
        """One-paragraph description of the sharding outcome."""
        if not self.ok:
            return (
                f"{self.graph.name} across {self.num_stages} chip(s): "
                f"{self.status} ({self.error})"
            )
        ops = "/".join(str(stage.num_ops) for stage in self.stages)
        return (
            f"{self.graph.name} across {self.num_stages} chip(s): "
            f"stages of {ops} operators, micro-batch latency "
            f"{self.latency * 1e3:.3f} ms, bottleneck "
            f"{self.simulator().bottleneck * 1e3:.3f} ms"
        )


class ShardedCompiler:
    """Partition a graph over a chip group and compile each stage once."""

    def __init__(
        self,
        chip: ChipSpec = IPU_MK2,
        *,
        cost_model: CostModel | None = None,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        interconnect: InterconnectModel | None = None,
        plan_cache: "PlanCache | None" = None,
        jobs: int | None = 1,
    ) -> None:
        """``plan_cache`` may be shared with a serving scheduler so stage
        programs warm the same cache batches are served from; when omitted a
        private in-memory cache is created.  ``jobs`` is forwarded to the
        per-stage compilers exactly as in :class:`T10Compiler`.
        """
        self.chip = chip
        self.cost_model = cost_model or default_cost_model(chip)
        self.constraints = constraints
        self.interconnect = (
            interconnect if interconnect is not None else default_interconnect(chip)
        )
        if plan_cache is None:
            from repro.serving.plan_cache import PlanCache

            plan_cache = PlanCache(jobs=jobs)
        self.plan_cache = plan_cache
        self._simulator = ChipSimulator(chip)
        self._measurements: dict[str, tuple[str, str, float]] = {}

    # ------------------------------------------------------------------ #
    def partition(self, graph: OperatorGraph, num_stages: int) -> StagePartition:
        """The stage partition ``compile`` would use (no compilation)."""
        return partition_graph(
            graph,
            num_stages,
            cost_model=self.cost_model,
            chip=self.chip,
            interconnect=self.interconnect,
        )

    def _measure(self, key: str, compiled: CompiledModel) -> tuple[str, str, float]:
        """(status, error, latency) of one stage program, memoised by cache key."""
        memo = self._measurements.get(key)
        if memo is None:
            memo = self._measurements[key] = measure_compilation(
                self._simulator, compiled
            )
        return memo

    def compile(
        self, graph: OperatorGraph, num_stages: int, *, scope: str = ""
    ) -> ShardedModel:
        """Shard ``graph`` into ``num_stages`` stages and compile each one.

        Every stage goes through the plan cache under a scope naming its
        slice, so repeated compiles (and structurally identical stages) are
        cached independently and never conflated with the unsharded graph.
        A caller-supplied ``scope`` prefixes each stage's slice scope
        (``{scope}:{stage}``) — the serving fault layer namespaces a restarted
        replica's programs this way so
        :meth:`~repro.serving.plan_cache.PlanCache.evict_scope` can model the
        replica's cold program store.  A stage that fails to compile (OOM)
        fails the whole sharding with the stage index in the diagnosis.
        """
        try:
            partition = self.partition(graph, num_stages)
        except ValueError as error:
            return ShardedModel(
                graph=graph,
                chip=self.chip,
                num_stages=num_stages,
                status="invalid",
                error=str(error),
            )
        stages: list[StagePlan] = []
        for stage_slice in partition.slices:
            sub = stage_subgraph(graph, stage_slice, num_stages)
            stage_scope = stage_slice.scope(num_stages)
            lookup = self.plan_cache.get_or_compile(
                sub,
                self.chip,
                self.constraints,
                scope=f"{scope}:{stage_scope}" if scope else stage_scope,
            )
            status, error, latency = self._measure(lookup.key, lookup.compiled)
            boundary = stage_slice.index
            is_last = boundary == num_stages - 1
            stages.append(
                StagePlan(
                    slice=stage_slice,
                    graph=sub,
                    compiled=lookup.compiled,
                    latency=latency,
                    transfer_bytes=0 if is_last else partition.transfer_bytes[boundary],
                    transfer_time=0.0 if is_last else partition.est_transfer_times[boundary],
                    cache_outcome=lookup.outcome,
                    compile_seconds=lookup.seconds,
                )
            )
            if status != "ok":
                return ShardedModel(
                    graph=graph,
                    chip=self.chip,
                    num_stages=num_stages,
                    status=status,
                    partition=partition,
                    stages=tuple(stages),
                    error=(
                        f"stage {stage_slice.index + 1}/{num_stages} "
                        f"({sub.name}): {error}"
                    ),
                    failed_stage=stage_slice.index,
                )
        return ShardedModel(
            graph=graph,
            chip=self.chip,
            num_stages=num_stages,
            status="ok",
            partition=partition,
            stages=tuple(stages),
        )
