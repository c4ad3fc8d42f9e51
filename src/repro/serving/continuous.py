"""Continuous-batching autoregressive serving with SLO-aware scheduling.

Production LLM engines (vLLM, Orca) do not run requests in fixed batches:
requests **join a running batch at the next decode-iteration boundary** and
**retire the moment their last token is generated**, so short generations
never wait for long ones.  This module builds that execution model on top of
the existing pieces — per-bucket programs compiled through the
:class:`~repro.serving.plan_cache.PlanCache`, latencies from the analytical
simulator via :meth:`~repro.serving.worker.WorkerPool.profile` (pipeline
sharding included) — entirely in virtual time, so every run is bit-for-bit
reproducible.

Two engines share the runtime:

* :class:`ContinuousEngine` — iteration-level admission with an SLO-aware
  policy: earliest-deadline-first admission of interactive requests,
  priority preemption of best-effort traffic, load shedding of requests
  whose projected completion already misses their deadline, and replica
  autoscaling that grows/shrinks the active fleet with queue depth.
* :class:`StaticEngine` — the classic baseline: FIFO batches that run to
  the completion of their *longest* member before the replica takes new
  work.  Same fleet, same compiled programs, no iteration-level admission.

The fig27 experiment runs both on identical workloads and fleets; continuous
batching wins on goodput-under-SLO because head-of-line blocking is gone.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.ir.graph import OperatorGraph
from repro.obs.trace import (
    KIND_FLOW_END,
    KIND_FLOW_START,
    KIND_FLOW_STEP,
    Tracer,
    get_tracer,
)
from repro.obs.registry import publish_stats
from repro.serving.batcher import batch_buckets, bucket_for
from repro.serving.faults import (
    FAULT_CHIP_DEATH,
    FAULT_LINK_DEGRADATION,
    FAULT_RESTART,
    FaultEvent,
    FaultSchedule,
    Watchdog,
    _ChipOnline,
    _Detect,
    _LinkRestored,
)
from repro.serving.metrics import ContinuousReport, FaultStats
from repro.serving.plan_cache import CacheStats, PlanCache
from repro.serving.request import (
    DECODE_OK,
    DECODE_SHED,
    CompletedDecode,
    DecodeRequest,
)
from repro.serving.worker import IterationCost, WorkerPool

#: Scheduling policies reported by the two engines.
POLICY_CONTINUOUS = "continuous"
POLICY_STATIC = "static"


@dataclass(frozen=True)
class DecodeModel:
    """An autoregressive model deployed behind a decode engine.

    ``decode_builder`` maps a (bucketed) batch size to the decode-step graph
    executed once per generated token (see
    :func:`repro.models.opt.opt_decode_session`).  Prefill is modelled as
    decode-shaped iterations over the prompt, ``prefill_chunk`` tokens per
    iteration; the first output token is produced by the last prefill
    iteration, mirroring engines whose prefill pass emits token one.
    ``num_stages > 1`` runs every iteration pipeline-sharded over a chip
    group (:mod:`repro.dist`).
    """

    name: str
    decode_builder: Callable[[int], OperatorGraph]
    max_batch_size: int = 8
    num_stages: int = 1
    prefill_chunk: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("DecodeModel requires a name")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.num_stages < 1:
            raise ValueError(f"num_stages must be >= 1, got {self.num_stages}")
        if self.prefill_chunk < 1:
            raise ValueError(f"prefill_chunk must be >= 1, got {self.prefill_chunk}")

    def prefill_iterations(self, prompt_tokens: int) -> int:
        """Iterations spent ingesting the prompt (the last one emits token 1)."""
        return max(1, math.ceil(prompt_tokens / self.prefill_chunk))

    def total_iterations(self, request: DecodeRequest) -> int:
        """Iterations from admission to retirement for ``request``."""
        return self.ideal_iterations(request.prompt_tokens, request.max_new_tokens)

    def ideal_iterations(self, prompt_tokens: int, output_tokens: int) -> int:
        """Iteration count of an uncontended request — its ideal service time
        in iteration units.  Deadlines and offered-load calculations (fig27,
        examples) must price work with this exact formula or their SLOs drift
        from what the engines actually execute."""
        return self.prefill_iterations(prompt_tokens) + output_tokens - 1


@dataclass
class _Running:
    """Per-request progress while resident in a replica's batch."""

    request: DecodeRequest
    admitted_time: float
    prefill_remaining: int
    tokens_done: int = 0
    first_token_time: float = float("nan")
    preemptions: int = 0
    origin: int = -1
    """Replica whose chips hold this request's KV state.  Progress only
    survives preemption on *this* replica; resuming anywhere else must
    re-prefill from scratch (the KV cache never left the original chips)."""
    requeues: int = 0
    """Times progress was discarded (dead replica, or cross-replica resume)."""
    migrations: int = 0
    """The subset of ``requeues`` caused by cross-replica migration."""
    lost_tokens: int = 0
    """Output tokens generated and then discarded across all requeues."""

    @property
    def done(self) -> bool:
        return self.tokens_done >= self.request.max_new_tokens

    def advance(self, now: float) -> None:
        """Account one finished iteration this request participated in."""
        if self.prefill_remaining > 1:
            self.prefill_remaining -= 1
            return
        if self.prefill_remaining == 1:
            self.prefill_remaining = 0
            self.tokens_done = 1
            self.first_token_time = now
            return
        self.tokens_done += 1


@dataclass
class _Replica:
    """One serving replica: a *(model, chip-group, generation)* binding.

    A replica is not "a chip" — it is the association of a model's compiled
    programs with a group of physical chips at a point in its lifetime.  The
    single-model engines bind every replica to their one model; the fleet
    engine (:mod:`repro.serving.fleet`) re-binds idle replicas across models
    as traffic shifts, bumping ``generation`` each time.
    """

    index: int
    model: str = ""
    """Model this replica currently serves (the binding; empty = unbound)."""
    active: bool = False
    busy: bool = False
    running: list[_Running] = field(default_factory=list)
    bucket: int = 0
    """Static engine only: the bucket the current batch was compiled for."""
    chips: tuple[int, ...] = ()
    """The physical chips currently backing this replica (``num_stages`` of
    them; empty while the replica is dead and awaiting re-placement)."""
    dead: bool = False
    epoch: int = 0
    """Bumped on every death and re-placement; in-flight iteration-end events
    carry the epoch they were scheduled under and are dropped when stale."""
    iter_start: float = 0.0
    iter_latency: float = 0.0
    cache_scope: str = ""
    """Plan-cache namespace of this replica's program store (empty = the
    shared warm namespace; set after a cold restart)."""
    generation: int = 0
    """Generation of the binding: bumped on cold restarts (names the cache
    scope) and on fleet re-binds to a different model."""


#: Event kinds, ordered so same-timestamp faults strike before arrivals and
#: arrivals precede iteration ends — a chip death at an iteration boundary
#: kills the in-flight iteration, and a request arriving exactly at a
#: boundary is admissible there.  Scaler ticks come last: a capacity
#: decision taken at time t observes everything that happened at t.
_EV_FAULT = 0
_EV_ARRIVAL = 1
_EV_ITER_END = 2
_EV_SCALE = 3


class _DecodeEngineBase:
    """Shared runtime: per-bucket compiled programs and iteration costing."""

    policy = "base"

    def __init__(
        self,
        model: DecodeModel,
        *,
        chip: ChipSpec = IPU_MK2,
        num_chips: int = 1,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        plan_cache: PlanCache | None = None,
        cache_dir: str | Path | None = None,
        jobs: int | None = None,
    ) -> None:
        if num_chips < 1:
            raise ValueError(f"num_chips must be >= 1, got {num_chips}")
        if model.num_stages > num_chips:
            raise ValueError(
                f"model {model.name!r} needs a group of {model.num_stages} "
                f"chips but the fleet has only {num_chips}"
            )
        if plan_cache is not None and cache_dir is not None:
            raise ValueError("pass either plan_cache or cache_dir, not both")
        if plan_cache is not None and jobs is not None:
            raise ValueError(
                "jobs has no effect on a caller-supplied plan_cache; set jobs "
                "when building the cache instead"
            )
        self.model = model
        self.num_chips = num_chips
        self._owns_cache = plan_cache is None
        cache = plan_cache if plan_cache is not None else PlanCache(cache_dir, jobs=jobs)
        self.pool = WorkerPool(
            chip, num_chips=num_chips, plan_cache=cache, constraints=constraints
        )
        #: Replicas the fleet can host: chip groups for sharded models.
        self.num_replicas = num_chips // model.num_stages
        self._graphs: dict[int, OperatorGraph] = {}
        self._costs: dict[int, IterationCost] = {}
        #: Per-bucket sharded models (num_stages > 1 only): the fault layer
        #: re-prices iterations through their pipeline simulator when the
        #: inter-chip links run degraded.
        self._sharded_models: dict[int, object] = {}
        self._degraded_costs: dict[tuple[int, float], float] = {}
        self.warm_compile_seconds = 0.0

    # ------------------------------------------------------------------ #
    @property
    def plan_cache(self) -> PlanCache:
        """The cache holding this engine's per-bucket programs."""
        return self.pool.plan_cache

    @property
    def chip(self) -> ChipSpec:
        """The fleet's chip specification."""
        return self.pool.chip

    def close(self) -> None:
        """Release compiler worker pools held by the engine's own cache."""
        if self._owns_cache:
            self.plan_cache.close()

    def _graph(self, bucket: int) -> OperatorGraph:
        graph = self._graphs.get(bucket)
        if graph is None:
            graph = self._graphs[bucket] = self.model.decode_builder(bucket)
        return graph

    def warm(self) -> list[IterationCost]:
        """Compile and measure every batch bucket once (idempotent).

        Compile time is wall-clock and therefore kept *out* of virtual time
        (it is reported as ``warm_compile_seconds``); iteration latencies come
        from the simulator, which is what keeps runs bit-for-bit
        reproducible at any compilation parallelism.
        """
        costs = []
        for bucket in batch_buckets(self.model.max_batch_size):
            if bucket in self._costs:
                costs.append(self._costs[bucket])
                continue
            cost = self.pool.profile(self._graph(bucket), num_stages=self.model.num_stages)
            if not cost.ok:
                raise RuntimeError(
                    f"{self.model.name} does not serve at batch {bucket} on "
                    f"{self.chip.name}: {cost.status} ({cost.error})"
                )
            self.warm_compile_seconds += cost.compile_seconds
            # Steady state: later lookups of this bucket are pure latency.
            self._costs[bucket] = IterationCost(
                cost.status, cost.error, cost.latency, 0.0, cost.cache_outcome
            )
            if self.model.num_stages > 1:
                # Memoised by the pool: no extra compile, just the handle the
                # link-degradation pricing needs.
                self._sharded_models[bucket] = self.pool.sharded_model(
                    self._graph(bucket), self.model.num_stages
                )
            costs.append(self._costs[bucket])
        return costs

    def _degraded_latency(self, bucket: int, link_factor: float) -> float:
        """Iteration latency of ``bucket`` with stage links ``link_factor``x
        slower (memoised; only meaningful for sharded models)."""
        key = (bucket, link_factor)
        latency = self._degraded_costs.get(key)
        if latency is None:
            model = self._sharded_models[bucket]
            result = model.degraded_simulator(link_factor).run(1)
            latency = self._degraded_costs[key] = result.total_latency
        return latency

    def _make_replicas(self, *, active: bool) -> list["_Replica"]:
        """The fleet's replicas with their static chip-group assignment:
        replica ``i`` owns chips ``[i * num_stages, (i + 1) * num_stages)``.
        Chips beyond ``num_replicas * num_stages`` start as spares."""
        stages = self.model.num_stages
        return [
            _Replica(
                index=i,
                model=self.model.name,
                active=active,
                chips=tuple(range(i * stages, (i + 1) * stages)),
            )
            for i in range(self.num_replicas)
        ]

    def iteration_latency(self, batch_size: int = 1) -> float:
        """Simulated latency of one decode iteration at ``batch_size``.

        The batch-1 value is the natural unit for offered load and SLO
        scales in experiments.  Compiles the bucket on first use.
        """
        return self._cost_for_bucket(bucket_for(batch_size, self.model.max_batch_size)).latency

    @staticmethod
    def _seed_arrivals(
        ordered: Sequence[DecodeRequest],
        seq: "itertools.count[int]",
        events: list,
    ) -> None:
        """Push every request's arrival onto the event heap."""
        for request in ordered:
            heapq.heappush(
                events, (request.arrival_time, _EV_ARRIVAL, next(seq), request)
            )

    # ------------------------------------------------------------------ #
    # Tracing (see docs/observability.md for the span taxonomy).  All
    # serving events are virtual-domain and emitted from the single-threaded
    # event loop, which is what makes traces bit-identical at any ``jobs``.
    # ------------------------------------------------------------------ #
    @property
    def trace_group(self) -> str:
        """Track-group (Perfetto process) of this engine's trace events."""
        return f"{self.policy}@{self.num_chips}chips"

    def _chip_tracks(self, replica: "_Replica") -> tuple[str, ...]:
        """Occupancy tracks of the chips currently backing ``replica`` (one
        per chip: pipeline-sharded models occupy a whole chip group).  After
        a failover the replica's spans land on its *new* chips' tracks."""
        group = self.trace_group
        return tuple(f"{group}/chip{chip}" for chip in replica.chips)

    def _flow_id(self, request_id: int) -> str:
        """Per-trace-unique flow id for one request's lifecycle arrows."""
        return f"{self.trace_group}/r{request_id}"

    def _trace_enqueue(self, tracer: Tracer, request: DecodeRequest) -> None:
        track = f"{self.trace_group}/requests"
        args = {"request": request.request_id, "class": request.slo_class}
        tracer.instant(
            "enqueue", ts=request.arrival_time, track=track, cat="lifecycle", args=args
        )
        tracer.flow(
            KIND_FLOW_START,
            self._flow_id(request.request_id),
            ts=request.arrival_time,
            track=track,
            name="request",
        )

    def _trace_admit(
        self, tracer: Tracer, request: DecodeRequest, replica: "_Replica", now: float
    ) -> None:
        track = self._chip_tracks(replica)[0]
        tracer.instant(
            "admit",
            ts=now,
            track=track,
            cat="lifecycle",
            args={"request": request.request_id},
        )
        tracer.flow(
            KIND_FLOW_STEP,
            self._flow_id(request.request_id),
            ts=now,
            track=track,
            name="request",
        )

    def _trace_iteration(
        self, tracer: Tracer, replica: "_Replica", now: float, latency: float
    ) -> None:
        args = {
            "batch": len(replica.running),
            "bucket": bucket_for(len(replica.running), self.model.max_batch_size),
            "requests": ",".join(str(r.request.request_id) for r in replica.running),
        }
        for track in self._chip_tracks(replica):
            tracer.span(
                "iteration", ts=now, dur=latency, track=track, cat="decode", args=args
            )

    def _trace_done(
        self,
        tracer: Tracer,
        record: CompletedDecode,
        replica: "_Replica | None",
        now: float,
    ) -> None:
        """Lifecycle close-out shared by retirement and shedding: the flow
        arrow lands on the serving chip (or the request lane for shed
        requests, which never held a chip) and one async lifecycle span
        covers arrival → completion on the request lane (exactly one per
        request — the invariant the determinism tests count)."""
        group = self.trace_group
        request = record.request
        name = "retire" if record.ok else "shed"
        end_track = (
            self._chip_tracks(replica)[0]
            if replica is not None
            else f"{group}/requests"
        )
        tracer.instant(
            name,
            ts=now,
            track=end_track,
            cat="lifecycle",
            args={"request": request.request_id, "tokens": record.tokens_generated},
        )
        tracer.flow(
            KIND_FLOW_END,
            self._flow_id(request.request_id),
            ts=now,
            track=end_track,
            name="request",
        )
        tracer.async_span(
            "request",
            ts=request.arrival_time,
            dur=now - request.arrival_time,
            track=f"{group}/requests",
            flow_id=self._flow_id(request.request_id),
            cat="lifecycle",
            args={
                "request": request.request_id,
                "status": record.status,
                "tokens": record.tokens_generated,
                "preemptions": record.preemptions,
                "replica": record.replica,
            },
        )

    def _publish_run_metrics(
        self, tracer: Tracer, report: ContinuousReport, counters: dict[str, int]
    ) -> None:
        """Fold the run's scalar stats into the tracer's metrics registry."""
        prefix = f"serving.{self.trace_group}"
        publish_stats(tracer.metrics, prefix, counters)
        publish_stats(
            tracer.metrics,
            prefix,
            {"completed": report.total_completed, "tokens": report.total_tokens},
        )
        publish_stats(tracer.metrics, f"{prefix}.cache", report.cache.as_dict())
        if report.faults.any:
            publish_stats(tracer.metrics, f"{prefix}.faults", report.faults)
        latency = tracer.metrics.histogram(f"{prefix}.latency_s")
        ttft = tracer.metrics.histogram(f"{prefix}.ttft_s")
        for record in report.completed:
            if record.ok:
                latency.observe(record.latency)
                ttft.observe(record.time_to_first_token)

    def _retire_finished(
        self,
        replica: "_Replica",
        now: float,
        records: list[CompletedDecode],
        tracer: Tracer | None = None,
    ) -> None:
        """Advance every resident request one finished iteration and retire
        the done ones — the accounting both engines must share exactly, or
        their reports stop being comparable."""
        for running in list(replica.running):
            running.advance(now)
            if running.done:
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
                records.append(record)
                if tracer is not None:
                    self._trace_done(tracer, record, replica, now)

    def _cost_for_bucket(self, bucket: int) -> IterationCost:
        cost = self._costs.get(bucket)
        if cost is None:
            self.warm()
            cost = self._costs[bucket]
        return cost

    def _cost(self, batch_len: int) -> IterationCost:
        return self._cost_for_bucket(bucket_for(batch_len, self.model.max_batch_size))

    def _check_requests(self, requests: Sequence[DecodeRequest]) -> list[DecodeRequest]:
        unknown = sorted({req.model for req in requests} - {self.model.name})
        if unknown:
            raise ValueError(
                f"requests for unserved models {unknown}; served: [{self.model.name!r}]"
            )
        return sorted(requests, key=lambda req: (req.arrival_time, req.request_id))

    def _report(
        self,
        records: list[CompletedDecode],
        *,
        counters: dict[str, int],
        busy_chip_seconds: float,
        active_chip_seconds: float,
        active_span: float,
        peak_active: int,
        cache: CacheStats,
        faults: FaultStats | None = None,
    ) -> ContinuousReport:
        """Assemble the run report shared by both engines.

        ``makespan`` spans the *served* requests (the throughput window);
        ``active_span`` is the whole event window ``active_chip_seconds``
        integrates over, which may be longer when leading/trailing requests
        were shed.
        """
        served = [record for record in records if record.ok]
        makespan = 0.0
        if served:
            makespan = max(r.completion_time for r in served) - min(
                r.request.arrival_time for r in served
            )
        return ContinuousReport(
            policy=self.policy,
            model=self.model.name,
            num_chips=self.num_chips,
            num_stages=self.model.num_stages,
            max_batch_size=self.model.max_batch_size,
            completed=tuple(records),
            makespan=makespan,
            busy_chip_seconds=busy_chip_seconds,
            active_chip_seconds=active_chip_seconds,
            active_span=active_span,
            iterations=counters["iterations"],
            cache=cache,
            warm_compile_seconds=self.warm_compile_seconds,
            preemptions=counters["preemptions"],
            shed=counters["shed"],
            scale_ups=counters["scale_ups"],
            scale_downs=counters["scale_downs"],
            peak_active_chips=peak_active * self.model.num_stages,
            migrations=counters.get("migrations", 0),
            faults=faults if faults is not None else FaultStats(),
            # Neither engine has a provisioning scaler: what was active is
            # exactly what was provisioned.
            provisioned_chip_seconds=active_chip_seconds,
            peak_provisioned_chips=peak_active * self.model.num_stages,
        )


class ContinuousEngine(_DecodeEngineBase):
    """Event-driven continuous batching with an SLO-aware scheduling policy.

    At every decode-iteration boundary the engine retires finished requests
    and admits queued ones: interactive requests earliest-deadline-first,
    then best-effort FIFO.  When interactive requests would otherwise wait,
    resident best-effort requests are **preempted** (swapped out with their
    progress kept, vLLM-style) to make room.  At its admission boundary —
    the moment it would start running — a request whose *projected*
    completion (its remaining iterations priced at the full-batch iteration
    latency) already misses its deadline is **shed** instead of admitted,
    protecting the goodput of the rest.  Replicas activate when the backlog
    exceeds ``scale_up_queue`` pending requests per active replica and
    deactivate when both batch and queue drain.
    """

    policy = POLICY_CONTINUOUS

    def __init__(
        self,
        model: DecodeModel,
        *,
        chip: ChipSpec = IPU_MK2,
        num_chips: int = 1,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        plan_cache: PlanCache | None = None,
        cache_dir: str | Path | None = None,
        jobs: int | None = None,
        min_replicas: int = 1,
        scale_up_queue: int | None = None,
        shed: bool = True,
    ) -> None:
        super().__init__(
            model,
            chip=chip,
            num_chips=num_chips,
            constraints=constraints,
            plan_cache=plan_cache,
            cache_dir=cache_dir,
            jobs=jobs,
        )
        if not 1 <= min_replicas <= self.num_replicas:
            raise ValueError(
                f"min_replicas must be in [1, {self.num_replicas}], got {min_replicas}"
            )
        if scale_up_queue is not None and scale_up_queue < 1:
            raise ValueError(f"scale_up_queue must be >= 1, got {scale_up_queue}")
        self.min_replicas = min_replicas
        self.scale_up_queue = (
            scale_up_queue if scale_up_queue is not None else model.max_batch_size
        )
        self.shed_enabled = shed

    # ------------------------------------------------------------------ #
    def run(
        self,
        requests: Sequence[DecodeRequest],
        *,
        faults: FaultSchedule | None = None,
        watchdog: Watchdog | None = None,
    ) -> ContinuousReport:
        """Replay one decode workload and return the full report.

        ``faults`` injects chip deaths, restarts and link-degradation
        windows into the event loop as first-class virtual-time events (see
        :mod:`repro.serving.faults`); ``watchdog`` sets the
        failure-detection delay and the degraded-mode shedding policy.
        Both default to a fault-free run, which behaves exactly as before.
        Like everything else in the engine, faults live entirely in virtual
        time, so a chaos run is just as bit-for-bit reproducible as a clean
        one.
        """
        ordered = self._check_requests(requests)
        schedule = (faults if faults is not None else FaultSchedule()).for_fleet(
            self.num_chips
        )
        wd = watchdog if watchdog is not None else Watchdog()
        self.warm()
        tracer = get_tracer()
        traced = tracer.enabled
        fleet_track = f"{self.trace_group}/fleet"
        stages = self.model.num_stages

        # EDF queue of interactive requests: (deadline, arrival, id, request).
        # Deadline-free interactive requests sort after any deadline but
        # before best-effort traffic.
        iq: list[tuple[float, float, int, DecodeRequest]] = []
        bq: deque[DecodeRequest] = deque()
        preempted: deque[_Running] = deque()
        replicas = self._make_replicas(active=False)
        for replica in replicas[: self.min_replicas]:
            replica.active = True
        # Chips not backing any replica (the fleet remainder when num_chips
        # is not a multiple of num_stages) are failover capacity.
        spares: list[int] = list(range(self.num_replicas * stages, self.num_chips))
        dead_chips: set[int] = set()
        # Chips that came back cold: the next replica formed over one of
        # them re-warms its buckets under a fresh plan-cache namespace.
        cold_chips: set[int] = set()
        fault_stats = FaultStats()
        # Requeue counts, loss accounting and original admission times of
        # requests pulled off dead replicas, restored on re-admission (or shed).
        requeue_counts: dict[int, int] = {}
        first_admits: dict[int, float] = {}
        migration_counts: dict[int, int] = {}
        lost_token_counts: dict[int, int] = {}
        records: list[CompletedDecode] = []
        seq = itertools.count()
        events: list[tuple[float, int, int, object]] = []
        self._seed_arrivals(ordered, seq, events)
        for fault in schedule:
            heapq.heappush(events, (fault.time, _EV_FAULT, next(seq), fault))
            if fault.kind == FAULT_LINK_DEGRADATION and math.isfinite(fault.until):
                heapq.heappush(
                    events,
                    (fault.until, _EV_FAULT, next(seq), _LinkRestored(fault.factor)),
                )

        stats_before = self.plan_cache.stats.snapshot()
        counters = {
            "iterations": 0,
            "preemptions": 0,
            "shed": 0,
            "scale_ups": 0,
            "scale_downs": 0,
            "migrations": 0,
        }
        busy_chip_seconds = 0.0
        active_chip_seconds = 0.0
        peak_active = self.min_replicas
        last_time = ordered[0].arrival_time if ordered else 0.0
        # The full-batch iteration latency prices shedding projections: it is
        # the per-iteration cost a request experiences once the fleet is busy.
        est_iteration = self._cost(self.model.max_batch_size).latency

        def active_count() -> int:
            return sum(1 for replica in replicas if replica.active)

        def queued_total() -> int:
            return len(iq) + len(bq) + len(preempted)

        def degraded() -> bool:
            return any(replica.dead for replica in replicas)

        def integrate(now: float) -> None:
            nonlocal active_chip_seconds, last_time
            active_chip_seconds += (now - last_time) * active_count() * stages
            last_time = now

        def enqueue_interactive(request: DecodeRequest) -> None:
            deadline = request.deadline if request.deadline is not None else math.inf
            heapq.heappush(
                iq, (deadline, request.arrival_time, request.request_id, request)
            )

        def shed_check(request: DecodeRequest, now: float) -> bool:
            """True when the request's projected completion misses its deadline.

            Checked at the admission boundary, where the request would start
            immediately — the projection is its full remaining iteration
            count priced at the full-batch iteration latency.  Queue wait it
            already suffered is baked into ``now``.
            """
            if not self.shed_enabled or request.deadline is None:
                return False
            projected = now + self.model.total_iterations(request) * est_iteration
            return projected > request.deadline

        def shed(request: DecodeRequest, now: float) -> None:
            # A shed request never joined a batch or held a replica: record
            # NaN / the -1 sentinel (not fabricated values) so TTFT/goodput
            # accounting can never mistake it for a served request.  A
            # request requeued off a dead replica and shed afterwards keeps
            # its real first admission time.
            counters["shed"] += 1
            record = CompletedDecode(
                request=request,
                status=DECODE_SHED,
                admitted_time=first_admits.pop(request.request_id, float("nan")),
                first_token_time=float("nan"),
                completion_time=now,
                tokens_generated=0,
                replica=-1,
                requeues=requeue_counts.pop(request.request_id, 0),
                migrations=migration_counts.pop(request.request_id, 0),
                lost_tokens=lost_token_counts.pop(request.request_id, 0),
            )
            records.append(record)
            if traced:
                self._trace_done(tracer, record, None, now)

        def queue_sample(now: float) -> None:
            """Fleet-level counter tracks: queue depths and active replicas."""
            tracer.counter(
                "queues",
                ts=now,
                track=fleet_track,
                values={
                    "interactive": len(iq),
                    "best_effort": len(bq),
                    "preempted": len(preempted),
                },
            )
            tracer.counter(
                "active_replicas", ts=now, track=fleet_track, values={"active": active_count()}
            )

        def admit_one(request: DecodeRequest, replica: _Replica, now: float) -> _Running:
            if traced:
                self._trace_admit(tracer, request, replica, now)
            return _Running(
                request=request,
                admitted_time=first_admits.pop(request.request_id, now),
                prefill_remaining=self.model.prefill_iterations(request.prompt_tokens),
                origin=replica.index,
                requeues=requeue_counts.pop(request.request_id, 0),
                migrations=migration_counts.pop(request.request_id, 0),
                lost_tokens=lost_token_counts.pop(request.request_id, 0),
            )

        def admit(replica: _Replica, now: float) -> None:
            running = replica.running
            # Interactive first, earliest deadline first.
            while iq and len(running) < self.model.max_batch_size:
                _, _, _, request = heapq.heappop(iq)
                if shed_check(request, now):
                    shed(request, now)
                    continue
                running.append(admit_one(request, replica, now))
            # Priority preemption: interactive requests still waiting evict
            # the most recently admitted best-effort resident (its progress
            # is kept; it resumes from the preempted queue).
            while iq and len(running) >= self.model.max_batch_size:
                victim_index = None
                for position in range(len(running) - 1, -1, -1):
                    if not running[position].request.interactive:
                        victim_index = position
                        break
                if victim_index is None:
                    break
                _, _, _, request = heapq.heappop(iq)
                if shed_check(request, now):
                    shed(request, now)
                    continue
                victim = running.pop(victim_index)
                victim.preemptions += 1
                counters["preemptions"] += 1
                preempted.appendleft(victim)
                if traced:
                    tracer.instant(
                        "preempt",
                        ts=now,
                        track=self._chip_tracks(replica)[0],
                        cat="lifecycle",
                        args={
                            "victim": victim.request.request_id,
                            "for": request.request_id,
                        },
                    )
                running.append(admit_one(request, replica, now))
            # Preempted best-effort work resumes before fresh best-effort
            # admissions (its progress is sunk cost) — but progress only
            # survives on the replica whose chips still hold its KV state;
            # resuming anywhere else must re-prefill from scratch (the KV
            # cache never crossed chips, so a free migration would be
            # physically impossible).
            while preempted and len(running) < self.model.max_batch_size:
                resumed = preempted.popleft()
                migrated = resumed.origin != replica.index
                if migrated:
                    counters["migrations"] += 1
                    resumed.requeues += 1
                    resumed.migrations += 1
                    resumed.lost_tokens += resumed.tokens_done
                    resumed.prefill_remaining = self.model.prefill_iterations(
                        resumed.request.prompt_tokens
                    )
                    resumed.tokens_done = 0
                    resumed.first_token_time = float("nan")
                    resumed.origin = replica.index
                if traced:
                    tracer.instant(
                        "migrate" if migrated else "resume",
                        ts=now,
                        track=self._chip_tracks(replica)[0],
                        cat="lifecycle",
                        args={"request": resumed.request.request_id},
                    )
                running.append(resumed)
            while bq and len(running) < self.model.max_batch_size:
                running.append(admit_one(bq.popleft(), replica, now))

        # ----------------------------- faults ------------------------- #
        def fault_sample(now: float) -> None:
            """Degraded-mode counter track: fleet health at a glance."""
            tracer.counter(
                "faults",
                ts=now,
                track=fleet_track,
                values={
                    "dead_replicas": sum(1 for r in replicas if r.dead),
                    "spares": len(spares),
                    "requeued": fault_stats.requeued,
                    "degraded_sheds": fault_stats.degraded_sheds,
                },
            )

        def degraded_shed(now: float) -> None:
            """Degraded-mode admission: while any replica is dead, cap the
            best-effort backlog at ``degraded_shed_queue`` per surviving
            active replica, shedding newest-first (oldest backlog keeps its
            slot; interactive traffic is governed by its own deadline
            check)."""
            if wd.degraded_shed_queue is None or not degraded():
                return
            cap = wd.degraded_shed_queue * max(1, active_count())
            dropped = False
            while len(bq) > cap:
                fault_stats.degraded_sheds += 1
                shed(bq.pop(), now)
                dropped = True
            if dropped and traced:
                fault_sample(now)

        def rewarm(replica: _Replica) -> None:
            """Re-fetch every bucket program under a fresh per-replica
            namespace: a revived chip's program store is cold, so the
            compiles are real (and visible in the cache counters) but —
            being wall-clock — never touch virtual time."""
            replica.generation += 1
            replica.cache_scope = f"replica{replica.index}-gen{replica.generation}"
            for bucket in batch_buckets(self.model.max_batch_size):
                cost = self.pool.profile(
                    self._graph(bucket), num_stages=stages, scope=replica.cache_scope
                )
                fault_stats.restart_compile_seconds += cost.compile_seconds

        def try_place(now: float) -> None:
            """Re-place dead, drained replicas onto surviving spare chips
            (pipeline-stage failover for sharded models)."""
            nonlocal peak_active
            for replica in replicas:
                if not replica.dead or replica.running or len(spares) < stages:
                    continue
                spares.sort()
                replica.chips = tuple(spares[:stages])
                del spares[:stages]
                replica.dead = False
                replica.epoch += 1
                replica.active = True
                fault_stats.failovers += 1
                if any(chip in cold_chips for chip in replica.chips):
                    cold_chips.difference_update(replica.chips)
                    rewarm(replica)
                peak_active = max(peak_active, active_count())
                if traced:
                    tracer.instant(
                        "failover",
                        ts=now,
                        track=fleet_track,
                        cat="fault",
                        args={
                            "replica": replica.index,
                            "chips": ",".join(str(c) for c in replica.chips),
                        },
                    )
                start_iteration(replica, now)

        def on_chip_death(fault: FaultEvent, now: float) -> None:
            nonlocal busy_chip_seconds
            if fault.chip in dead_chips:
                return
            dead_chips.add(fault.chip)
            fault_stats.chip_deaths += 1
            if traced:
                tracer.instant(
                    "chip-death",
                    ts=now,
                    track=fleet_track,
                    cat="fault",
                    args={"chip": fault.chip},
                )
            if fault.chip in spares:
                spares.remove(fault.chip)
                if traced:
                    fault_sample(now)
                return
            owner = next(
                (r for r in replicas if fault.chip in r.chips and not r.dead), None
            )
            if owner is None:
                return
            if owner.busy:
                # The in-flight iteration dies with the chip: refund the
                # part of its busy time that never executed; its
                # iteration-end event is dropped by the epoch bump below.
                end = owner.iter_start + owner.iter_latency
                busy_chip_seconds -= max(0.0, end - now) * stages
                fault_stats.lost_iterations += 1
                owner.busy = False
            integrate(now)
            owner.epoch += 1
            owner.dead = True
            owner.active = False
            # Surviving chips of the group become spares immediately; the
            # in-flight requests stay in limbo until the watchdog notices.
            for chip in owner.chips:
                if chip != fault.chip and chip not in dead_chips:
                    spares.append(chip)
            owner.chips = ()
            if owner.cache_scope:
                # The replica's private program store dies with it.
                self.plan_cache.evict_scope(owner.cache_scope)
                owner.cache_scope = ""
            heapq.heappush(
                events,
                (
                    now + wd.detection_delay,
                    _EV_FAULT,
                    next(seq),
                    _Detect(owner.index, owner.epoch),
                ),
            )
            if traced:
                fault_sample(now)

        def on_detect(detect: _Detect, now: float) -> None:
            replica = replicas[detect.replica]
            if not replica.dead or replica.epoch != detect.epoch:
                return
            if traced:
                tracer.instant(
                    "detect",
                    ts=now,
                    track=fleet_track,
                    cat="fault",
                    args={"replica": replica.index, "requeued": len(replica.running)},
                )
            # In-flight requests lose all progress — their KV state died
            # with the chips — and go back to their queues for re-admission
            # (full re-prefill).
            for running in replica.running:
                fault_stats.requeued += 1
                fault_stats.lost_tokens += running.tokens_done
                requeue_counts[running.request.request_id] = running.requeues + 1
                first_admits[running.request.request_id] = running.admitted_time
                migration_counts[running.request.request_id] = running.migrations
                lost_token_counts[running.request.request_id] = (
                    running.lost_tokens + running.tokens_done
                )
                if traced:
                    tracer.instant(
                        "requeue",
                        ts=now,
                        track=f"{self.trace_group}/requests",
                        cat="fault",
                        args={
                            "request": running.request.request_id,
                            "lost_tokens": running.tokens_done,
                        },
                    )
            for running in replica.running:
                if running.request.interactive:
                    enqueue_interactive(running.request)
            for running in reversed(replica.running):
                if not running.request.interactive:
                    bq.appendleft(running.request)
            replica.running = []
            # Preempted requests whose KV state lived on the dead replica
            # lose their progress too — they resume as fresh admissions.
            for entry in preempted:
                if entry.origin != replica.index:
                    continue
                fault_stats.requeued += 1
                fault_stats.lost_tokens += entry.tokens_done
                entry.requeues += 1
                entry.lost_tokens += entry.tokens_done
                entry.prefill_remaining = self.model.prefill_iterations(
                    entry.request.prompt_tokens
                )
                entry.tokens_done = 0
                entry.first_token_time = float("nan")
                entry.origin = -1
            try_place(now)
            degraded_shed(now)
            autoscale_up(now)
            for survivor in replicas:
                if survivor.active and not survivor.busy:
                    start_iteration(survivor, now)
            if traced:
                fault_sample(now)

        def on_restart(fault: FaultEvent, now: float) -> None:
            fault_stats.restarts += 1
            if traced:
                tracer.instant(
                    "restart",
                    ts=now,
                    track=fleet_track,
                    cat="fault",
                    args={"chip": fault.chip, "warmup": fault.warmup_delay},
                )
            heapq.heappush(
                events,
                (
                    now + fault.warmup_delay,
                    _EV_FAULT,
                    next(seq),
                    _ChipOnline(fault.chip, fault.cold_cache),
                ),
            )

        def on_chip_online(online: _ChipOnline, now: float) -> None:
            if online.chip not in dead_chips:
                return  # restart of a chip that never died: nothing to do
            dead_chips.discard(online.chip)
            if online.cold_cache:
                cold_chips.add(online.chip)
            spares.append(online.chip)
            if traced:
                tracer.instant(
                    "chip-online",
                    ts=now,
                    track=fleet_track,
                    cat="fault",
                    args={"chip": online.chip, "cold": online.cold_cache},
                )
            try_place(now)
            if traced:
                fault_sample(now)

        def handle_fault(payload: object, now: float) -> None:
            if isinstance(payload, FaultEvent):
                if payload.kind == FAULT_CHIP_DEATH:
                    on_chip_death(payload, now)
                elif payload.kind == FAULT_RESTART:
                    on_restart(payload, now)
                elif traced:
                    # Link degradation needs no state: iterations started
                    # inside the window are priced through the degraded
                    # pipeline lazily (see start_iteration).
                    tracer.instant(
                        "link-degraded",
                        ts=now,
                        track=fleet_track,
                        cat="fault",
                        args={"factor": payload.factor, "until": payload.until},
                    )
            elif isinstance(payload, _Detect):
                on_detect(payload, now)
            elif isinstance(payload, _ChipOnline):
                on_chip_online(payload, now)
            elif isinstance(payload, _LinkRestored) and traced:
                tracer.instant(
                    "link-restored",
                    ts=now,
                    track=fleet_track,
                    cat="fault",
                    args={"factor": payload.factor},
                )

        def start_iteration(replica: _Replica, now: float) -> None:
            nonlocal busy_chip_seconds
            if replica.busy or not replica.active or replica.dead:
                return
            admit(replica, now)
            if not replica.running:
                # Nothing to do: shrink the fleet if the floor allows it.
                if active_count() > self.min_replicas:
                    integrate(now)
                    replica.active = False
                    counters["scale_downs"] += 1
                    if traced:
                        tracer.instant(
                            "scale-down",
                            ts=now,
                            track=fleet_track,
                            cat="autoscale",
                            args={"replica": replica.index},
                        )
                return
            cost = self._cost(len(replica.running))
            latency = cost.latency
            if stages > 1:
                # Iterations started inside a link-degradation window pay
                # the stretched stage-boundary transfers (wider pipeline
                # bottleneck); single-chip replicas have no links.  Windows
                # scoped to a chip set only tax replicas backed by those
                # chips (fleet-wide windows tax everyone, as before).
                factor = schedule.link_factor(now, replica.chips)
                if factor > 1.0:
                    latency = self._degraded_latency(
                        bucket_for(len(replica.running), self.model.max_batch_size),
                        factor,
                    )
            replica.busy = True
            replica.iter_start = now
            replica.iter_latency = latency
            counters["iterations"] += 1
            busy_chip_seconds += latency * stages
            if traced:
                self._trace_iteration(tracer, replica, now, latency)
            heapq.heappush(
                events,
                (
                    now + latency,
                    _EV_ITER_END,
                    next(seq),
                    (replica.index, replica.epoch),
                ),
            )

        def autoscale_up(now: float) -> None:
            nonlocal peak_active
            while True:
                active = active_count()
                if active >= self.num_replicas:
                    return
                if queued_total() <= active * self.scale_up_queue:
                    return
                # Dead (or chipless, awaiting failover) replicas can't serve.
                replica = next(
                    (r for r in replicas if not r.active and not r.dead and r.chips),
                    None,
                )
                if replica is None:
                    return
                integrate(now)
                replica.active = True
                counters["scale_ups"] += 1
                if traced:
                    tracer.instant(
                        "scale-up",
                        ts=now,
                        track=fleet_track,
                        cat="autoscale",
                        args={"replica": replica.index},
                    )
                peak_active = max(peak_active, active_count())
                start_iteration(replica, now)

        while events:
            now, kind, _, payload = heapq.heappop(events)
            integrate(now)
            if kind == _EV_ARRIVAL:
                request = payload
                if traced:
                    self._trace_enqueue(tracer, request)
                if request.interactive:
                    enqueue_interactive(request)
                else:
                    bq.append(request)
                degraded_shed(now)
                autoscale_up(now)
                for replica in replicas:
                    if replica.active and not replica.busy:
                        start_iteration(replica, now)
            elif kind == _EV_ITER_END:
                index, epoch = payload
                replica = replicas[index]
                if replica.epoch != epoch:
                    continue  # the iteration was aborted by a chip death
                replica.busy = False
                self._retire_finished(
                    replica, now, records, tracer if traced else None
                )
                start_iteration(replica, now)
            else:
                handle_fault(payload, now)
            if traced:
                queue_sample(now)

        # A run can end with the whole fleet dead and never restarted:
        # strand nothing — whatever is still queued is reported as shed so
        # the books always balance (completed + shed == requests).
        while iq:
            _, _, _, request = heapq.heappop(iq)
            shed(request, last_time)
        while bq:
            shed(bq.popleft(), last_time)
        while preempted:
            shed(preempted.popleft().request, last_time)

        records.sort(key=lambda record: record.request.request_id)
        first_arrival = ordered[0].arrival_time if ordered else 0.0
        report = self._report(
            records,
            counters=counters,
            busy_chip_seconds=busy_chip_seconds,
            active_chip_seconds=active_chip_seconds,
            active_span=last_time - first_arrival,
            peak_active=peak_active,
            cache=self.plan_cache.stats.since(stats_before),
            faults=fault_stats,
        )
        if traced:
            self._publish_run_metrics(tracer, report, counters)
        return report


class StaticEngine(_DecodeEngineBase):
    """Static batching baseline: FIFO batches that run until *all* members
    finish.

    A replica takes up to ``max_batch_size`` queued requests (arrival order,
    deadline-unaware), compiles/runs the bucket chosen at batch-formation
    time, and admits nothing until the longest generation in the batch has
    retired — the head-of-line blocking continuous batching removes.  All
    chips serve from the start (no autoscaling), no preemption, no shedding.
    """

    policy = POLICY_STATIC

    def run(self, requests: Sequence[DecodeRequest]) -> ContinuousReport:
        """Replay one decode workload through static batches."""
        ordered = self._check_requests(requests)
        self.warm()
        tracer = get_tracer()
        traced = tracer.enabled

        queue: deque[DecodeRequest] = deque()
        replicas = self._make_replicas(active=True)
        records: list[CompletedDecode] = []
        seq = itertools.count()
        events: list[tuple[float, int, int, object]] = []
        self._seed_arrivals(ordered, seq, events)

        stats_before = self.plan_cache.stats.snapshot()
        iterations = 0
        busy_chip_seconds = 0.0
        first_arrival = ordered[0].arrival_time if ordered else 0.0
        last_event = first_arrival

        def start_batch(replica: _Replica, now: float) -> None:
            if replica.busy or not queue:
                return
            batch = [
                queue.popleft()
                for _ in range(min(len(queue), self.model.max_batch_size))
            ]
            if traced:
                for request in batch:
                    self._trace_admit(tracer, request, replica, now)
            replica.running = [
                _Running(
                    request=request,
                    admitted_time=now,
                    prefill_remaining=self.model.prefill_iterations(
                        request.prompt_tokens
                    ),
                )
                for request in batch
            ]
            # The program is fixed for the whole batch lifetime: the bucket
            # holding the batch as formed, padding included as members retire.
            replica.bucket = bucket_for(len(batch), self.model.max_batch_size)
            schedule_iteration(replica, now)

        def schedule_iteration(replica: _Replica, now: float) -> None:
            nonlocal iterations, busy_chip_seconds
            cost = self._cost_for_bucket(replica.bucket)
            replica.busy = True
            iterations += 1
            busy_chip_seconds += cost.latency * self.model.num_stages
            if traced:
                self._trace_iteration(tracer, replica, now, cost.latency)
            heapq.heappush(
                events, (now + cost.latency, _EV_ITER_END, next(seq), replica.index)
            )

        while events:
            now, kind, _, payload = heapq.heappop(events)
            last_event = now
            if kind == _EV_ARRIVAL:
                if traced:
                    self._trace_enqueue(tracer, payload)
                queue.append(payload)
                for replica in replicas:
                    start_batch(replica, now)
            else:
                replica = replicas[payload]
                replica.busy = False
                self._retire_finished(
                    replica, now, records, tracer if traced else None
                )
                if replica.running:
                    schedule_iteration(replica, now)
                else:
                    start_batch(replica, now)

        records.sort(key=lambda record: record.request.request_id)
        span = last_event - first_arrival
        active_replica_chips = self.num_replicas * self.model.num_stages
        report = self._report(
            records,
            counters={
                "iterations": iterations,
                "preemptions": 0,
                "shed": 0,
                "scale_ups": 0,
                "scale_downs": 0,
            },
            busy_chip_seconds=busy_chip_seconds,
            active_chip_seconds=span * active_replica_chips,
            active_span=span,
            peak_active=self.num_replicas,
            cache=self.plan_cache.stats.since(stats_before),
        )
        if traced:
            self._publish_run_metrics(
                tracer,
                report,
                {
                    "iterations": iterations,
                    "preemptions": 0,
                    "shed": 0,
                    "scale_ups": 0,
                    "scale_downs": 0,
                },
            )
        return report
