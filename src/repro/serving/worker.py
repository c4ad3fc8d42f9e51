"""The simulated chip fleet the decode engines price their iterations on.

The pool models ``num_chips`` chips — one default hardware class plus
optional per-chip overrides — and answers one question per compiled
program: what does running it once cost?  :meth:`WorkerPool.profile`
compiles through the shared plan cache on first use and returns the
simulated latency together with the compile time that lookup paid.

Models sharded across a chip group (:mod:`repro.dist`) are priced the same
way, except the latency is the pipelined one of the sharded program and the
compile time covers every stage that missed the plan cache.

Latencies come from the analytical simulator.  Since the same compiled
program yields the same latency every run, measurements are memoised per
plan-cache key.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.core.parallel import SingleFlight
from repro.dist.sharded import ShardedCompiler, ShardedModel
from repro.hw.interconnect import default_interconnect
from repro.hw.simulator import ChipSimulator, measure_compilation
from repro.hw.spec import ChipSpec
from repro.ir.graph import OperatorGraph
from repro.serving.plan_cache import (
    COMPILE,
    HIT_DISK,
    HIT_MEMORY,
    CacheLookup,
    PlanCache,
    plan_key,
)


@dataclass(frozen=True)
class IterationCost:
    """Cost of running one compiled program once on this pool's chip (group).

    This is the unit the continuous-batching engine schedules in: the
    simulated latency of one decode iteration at a given batch bucket, plus
    whatever compile time *this* lookup incurred (non-zero only the first
    time a bucket is seen cold).
    """

    status: str
    error: str
    latency: float
    """Simulated execution latency of one run (seconds; 0 when not ``ok``)."""
    compile_seconds: float
    """Wall-clock compile time this lookup paid (0 on a cache hit)."""
    cache_outcome: str

    @property
    def ok(self) -> bool:
        """Whether the program compiled and simulates cleanly."""
        return self.status == "ok"


class WorkerPool:
    """N simulated chips and the cost of running a program on them."""

    def __init__(
        self,
        chip: ChipSpec,
        *,
        num_chips: int = 1,
        plan_cache: PlanCache,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        chip_classes: Mapping[int, ChipSpec] | None = None,
    ) -> None:
        """``plan_cache`` compiles and holds the pool's programs (its
        compilers set the parallel-compilation width).  Stage-boundary
        transfers of sharded models are priced on the chip's
        ``inter_chip_bandwidth``.  ``chip_classes`` makes the pool
        heterogeneous: it maps chip index → :class:`ChipSpec` for chips
        that are *not* the default ``chip`` class (e.g. the fig22 GPU
        baseline joining an IPU fleet).  Programs are compiled per class —
        the plan cache keys on the chip fingerprint — and priced on that
        class's own simulator.
        """
        if num_chips < 1:
            raise ValueError(f"num_chips must be >= 1, got {num_chips}")
        self.chip = chip
        self.num_chips = num_chips
        self.chip_classes: dict[int, ChipSpec] = dict(chip_classes or {})
        for index in self.chip_classes:
            if not 0 <= index < num_chips:
                raise ValueError(
                    f"chip_classes index {index} outside fleet [0, {num_chips})"
                )
        self.plan_cache = plan_cache
        self.constraints = constraints
        self.interconnect = default_interconnect(chip)
        self.simulator = ChipSimulator(chip)
        self._simulators: dict[str, ChipSimulator] = {chip.fingerprint(): self.simulator}
        self._latency_memo: dict[str, tuple[str, str, float]] = {}
        self._sharded_compiler: ShardedCompiler | None = None
        self._sharded_memo: dict[tuple[str, int], ShardedModel] = {}
        self._sharded_lock = threading.Lock()
        self._sharded_flight = SingleFlight()

    def chip_for(self, index: int) -> ChipSpec:
        """The hardware class of chip ``index`` (the default unless overridden)."""
        if not 0 <= index < self.num_chips:
            raise ValueError(f"chip index {index} outside fleet [0, {self.num_chips})")
        return self.chip_classes.get(index, self.chip)

    def hardware_classes(self) -> tuple[ChipSpec, ...]:
        """Distinct chip classes in the pool, default class first, then by
        first appearance in chip-index order (deterministic)."""
        classes = [self.chip]
        seen = {self.chip.fingerprint()}
        for index in range(self.num_chips):
            spec = self.chip_classes.get(index)
            if spec is not None and spec.fingerprint() not in seen:
                seen.add(spec.fingerprint())
                classes.append(spec)
        return tuple(classes)

    def _simulator_for(self, chip: ChipSpec) -> ChipSimulator:
        simulator = self._simulators.get(chip.fingerprint())
        if simulator is None:
            simulator = self._simulators[chip.fingerprint()] = ChipSimulator(chip)
        return simulator

    def _measure(
        self, key: str, lookup: CacheLookup, simulator: ChipSimulator
    ) -> tuple[str, str, float]:
        """(status, error, latency) of one compiled program, memoised by key."""
        memo = self._latency_memo.get(key)
        if memo is None:
            memo = self._latency_memo[key] = measure_compilation(simulator, lookup.compiled)
        return memo

    def profile(
        self,
        graph: OperatorGraph,
        *,
        num_stages: int = 1,
        scope: str = "",
        chip: ChipSpec | None = None,
        tenant: str = "",
    ) -> IterationCost:
        """Full cost of running ``graph`` once: the one-graph case of
        :meth:`profile_many`."""
        return self.profile_many(
            [graph], num_stages=num_stages, scope=scope, chip=chip, tenant=tenant
        )[0]

    def profile_many(
        self,
        graphs: Sequence[OperatorGraph],
        *,
        num_stages: int = 1,
        scope: str = "",
        chip: ChipSpec | None = None,
        tenant: str = "",
    ) -> list[IterationCost]:
        """Full cost of running each of ``graphs`` once: latency plus the
        lookup's compile penalty and cache outcome.

        The single-chip programs are looked up together
        (:meth:`PlanCache.get_or_compile_many
        <repro.serving.plan_cache.PlanCache.get_or_compile_many>`), so their
        misses compile as one batch; the results equal profiling the graphs
        one by one.  With ``num_stages > 1`` each graph is pipeline-sharded
        over a chip group and the latency is the pipelined one.  The compile
        penalty is non-zero only on a lookup that actually compiled (a cold
        bucket); repeated calls are cache hits with zero penalty.
        ``scope`` namespaces the plan-cache entries (see
        :func:`~repro.serving.plan_cache.plan_key`) — the fault layer passes
        a per-replica scope after a cold restart, so the re-warm recompiles
        even though an identical unscoped program is resident.

        ``chip`` prices the graphs on a non-default hardware class of a
        heterogeneous pool (single-chip placements only: sharded groups stay
        on the default class).  ``tenant`` attributes the plan-cache lookups
        to a traffic source without changing the cache key — how plan
        sharing across tenants stays visible per tenant.
        """
        if num_stages > 1:
            if chip is not None and chip.fingerprint() != self.chip.fingerprint():
                raise ValueError(
                    "sharded chip groups run on the pool's default class; "
                    f"cannot shard onto {chip.name!r}"
                )
            costs = []
            for graph in graphs:
                model, penalty, outcome = self._sharded(graph, num_stages, scope=scope)
                cost = ("ok", "", model.latency) if model.ok else (model.status, model.error, 0.0)
                costs.append(IterationCost(*cost, penalty, outcome))
            return costs
        target = chip if chip is not None else self.chip
        lookups = self.plan_cache.get_or_compile_many(
            graphs, target, self.constraints, scope=scope, tenant=tenant
        )
        simulator = self._simulator_for(target)
        costs = []
        for lookup in lookups:
            status, error, latency = self._measure(lookup.key, lookup, simulator)
            penalty = lookup.seconds if lookup.outcome == COMPILE else 0.0
            if status != "ok":
                latency = 0.0
            costs.append(IterationCost(status, error, latency, penalty, lookup.outcome))
        return costs

    # ------------------------------------------------------------------ #
    # Sharded models (repro.dist)
    # ------------------------------------------------------------------ #
    def _sharded(
        self, graph: OperatorGraph, num_stages: int, *, scope: str = ""
    ) -> tuple[ShardedModel, float, str]:
        """(sharded model, compile seconds this call incurred, cache outcome).

        Stage programs live in the shared plan cache (stage-slice scoped
        keys, prefixed by ``scope`` when given); the memo only avoids
        re-running the partitioner and the per-stage pipeline simulation per
        batch.  Thread-safe: concurrent callers of one
        (graph, num_stages, scope) are single-flighted, mirroring the plan
        cache — only the builder reports the stage compiles.
        """
        if not 1 < num_stages <= self.num_chips:
            raise ValueError(
                f"num_stages must be in [2, num_chips={self.num_chips}], got {num_stages}"
            )
        key = (plan_key(graph, self.chip, self.constraints, scope=scope), num_stages)
        with self._sharded_lock:
            cached = self._sharded_memo.get(key)
        if cached is not None:
            return cached, 0.0, HIT_MEMORY

        built_fresh = False

        def build() -> ShardedModel:
            nonlocal built_fresh
            with self._sharded_lock:
                cached = self._sharded_memo.get(key)
                if cached is not None:
                    return cached
                if self._sharded_compiler is None:
                    self._sharded_compiler = ShardedCompiler(
                        self.chip,
                        constraints=self.constraints,
                        interconnect=self.interconnect,
                        plan_cache=self.plan_cache,
                    )
                compiler = self._sharded_compiler
            model = compiler.compile(graph, num_stages, scope=scope)
            with self._sharded_lock:
                self._sharded_memo[key] = model
            built_fresh = True
            return model

        model, leader = self._sharded_flight.do(key, build)
        if not (leader and built_fresh):
            return model, 0.0, HIT_MEMORY
        penalty = sum(
            stage.compile_seconds
            for stage in model.stages
            if stage.cache_outcome == COMPILE
        )
        # The batch-level outcome is the weakest stage outcome: any stage
        # that compiled makes the whole lookup a compile, else any disk hit
        # makes it a disk hit.
        outcomes = {stage.cache_outcome for stage in model.stages}
        if COMPILE in outcomes:
            outcome = COMPILE
        elif HIT_DISK in outcomes:
            outcome = HIT_DISK
        else:
            outcome = HIT_MEMORY
        return model, penalty, outcome

    def sharded_model(self, graph: OperatorGraph, num_stages: int) -> ShardedModel:
        """The compiled sharding of ``graph`` over a group of ``num_stages`` chips."""
        model, _, _ = self._sharded(graph, num_stages)
        return model
