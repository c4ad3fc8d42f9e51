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

It also holds the decode-engine core every engine shares: one event loop,
:class:`_DecodeRun`, over an explicit per-run state object (event heap,
records and counters, the replica lifecycle — one :class:`ReplicaState` per
replica, changed only through a checked transition table, whose per-state
counts the chip-second integrals read — the iteration-level admission
scheduler, the requeue carry and the end-of-run sweep), plus
:class:`_DecodeEngineBase` (programs and cost tables, request validation,
tracing) and :class:`_ChipFaults` (the chip and fault state the loop
drives).  Each engine runs the loop through its own subclass, whose hooks
are the only place policies differ.  Two single-model engines sit on it
here, and :class:`~repro.serving.fleet.FleetEngine` is the third:

* :class:`ContinuousEngine` — iteration-level admission with an SLO-aware
  policy over one engine-wide queue set: earliest-deadline-first admission
  of interactive requests, priority preemption of best-effort traffic,
  load shedding of requests whose projected completion already misses
  their deadline, and replica autoscaling that grows/shrinks the active
  fleet with queue depth.
* :class:`StaticEngine` — the classic baseline: FIFO batches that run to
  the completion of their *longest* member before the replica takes new
  work, optionally waiting up to a batch window for a batch to fill.  Same
  fleet, same compiled programs, no iteration-level admission.

The fig27 experiment runs both on identical workloads and fleets; continuous
batching wins on goodput-under-SLO because head-of-line blocking is gone.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field
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
from repro.serving.plan_cache import PlanCache
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
        # prefill_iterations inlined: every SLO callback of a trace calls this.
        return max(1, math.ceil(prompt_tokens / self.prefill_chunk)) + output_tokens - 1


#: A first-token time not stamped yet.
_NAN = float("nan")


class _Running:
    """A request's progress from its first admission on: in a batch,
    preempted, or in the requeue carry.

    ``prefill_remaining`` and ``tokens_done`` are current only while the
    request is off a batch.  Joining one stamps the replica ticks whose
    iterations emit its first and last token; :meth:`sync` catches the two
    fields up when it leaves (retired, preempted or displaced).

    Slotted, with one written-out ``__init__`` called positionally: every
    first admission builds one."""

    __slots__ = (
        "request",
        "admitted_time",
        "prefill_remaining",
        "tokens_done",
        "first_token_time",
        "first_tick",
        "finish_tick",
        "preemptions",
        "origin",
        "requeues",
        "migrations",
        "lost_tokens",
    )

    def __init__(
        self,
        request: DecodeRequest | None,
        admitted_time: float,
        prefill_remaining: int,
        origin: int = -1,
    ) -> None:
        # Attribute notes are comments: a string statement here would cost
        # a NOP per construction.
        self.request = request
        self.admitted_time = admitted_time
        self.prefill_remaining = prefill_remaining
        self.tokens_done = 0
        self.first_token_time = _NAN
        # Replica tick whose iteration emits token one (-1: already emitted).
        self.first_tick = -1
        # Replica tick whose iteration emits the last token.
        self.finish_tick = 0
        self.preemptions = 0
        # Replica whose chips hold this request's KV state.  Progress only
        # survives preemption on *this* replica; resuming anywhere else must
        # re-prefill from scratch (the KV cache never left the original chips).
        self.origin = origin
        # Times progress was discarded (dead replica, or cross-replica resume).
        self.requeues = 0
        # The subset of ``requeues`` caused by cross-replica migration.
        self.migrations = 0
        # Output tokens generated and then discarded across all requeues.
        self.lost_tokens = 0

    def sync(self, tick: int) -> None:
        """Catch the progress fields up to tick ``tick`` of the batch being
        left: one prefill chunk per iteration up to ``first_tick``, then one
        token per iteration up to ``finish_tick``."""
        if tick < self.first_tick:
            self.prefill_remaining = self.first_tick - tick
        else:
            self.prefill_remaining = 0
            self.tokens_done = self.request.max_new_tokens - (self.finish_tick - tick)

    def restart(self, prefill_iterations: int) -> None:
        """Discard the decode progress (its KV state is gone): the tokens
        generated so far are lost and the prompt is re-prefilled."""
        self.lost_tokens += self.tokens_done
        self.prefill_remaining = prefill_iterations
        self.tokens_done = 0
        self.first_token_time = float("nan")


#: The requeue carry's stand-in for a request that was never admitted.
_NEVER_ADMITTED = _Running(None, _NAN, 0)

#: A request's place in arrival order.
_ARRIVAL_ORDER = operator.attrgetter("arrival_time", "request_id")

#: A record's place in the report: by request id.
_REQUEST_ID = operator.attrgetter("request.request_id")

#: Builds a named tuple from one tuple of all its fields, in C.
_new = tuple.__new__


@dataclass(eq=False)
class _Queues:
    """The queues a replica admits from.

    :class:`ContinuousEngine` hands every replica the same queue set (one
    engine-wide EDF queue); :class:`~repro.serving.fleet.FleetEngine` gives
    each replica its own, holding the requests the router placed there.
    """

    iq: list = field(default_factory=list)
    """EDF heap of interactive requests: (deadline, arrival, id, request).
    Deadline-free interactive requests sort after any deadline."""
    bq: deque = field(default_factory=deque)
    """FIFO of best-effort requests."""
    preempted: deque = field(default_factory=deque)
    """Preempted residents (:class:`_Running`) awaiting resumption."""

    def __len__(self) -> int:
        return len(self.iq) + len(self.bq) + len(self.preempted)

    def push(self, request: DecodeRequest) -> None:
        if request.interactive:
            deadline = request.deadline if request.deadline is not None else math.inf
            heapq.heappush(
                self.iq, (deadline, request.arrival_time, request.request_id, request)
            )
        else:
            self.bq.append(request)


class ReplicaState(enum.IntEnum):
    """Where a replica is in its lifecycle; ``_DecodeRun.transition`` is the
    only place it changes.  "Engine structure" in docs/continuous.md gives
    each state's meaning and what it is charged."""

    UNPROVISIONED = 0
    BOOTING = 1
    IDLE = 2
    ACTIVE = 3
    DEAD = 4


UNPROVISIONED, BOOTING, IDLE, ACTIVE, DEAD = ReplicaState

#: The legal lifecycle transitions, by source state.  Failover leaves DEAD
#: for whatever the run's ``placed`` hook decides.
_TRANSITIONS: dict[ReplicaState, frozenset[ReplicaState]] = {
    UNPROVISIONED: frozenset({BOOTING, IDLE, DEAD}),
    BOOTING: frozenset({IDLE, UNPROVISIONED, DEAD}),
    IDLE: frozenset({ACTIVE, UNPROVISIONED, DEAD}),
    ACTIVE: frozenset({IDLE, DEAD}),
    DEAD: frozenset({UNPROVISIONED, IDLE, ACTIVE}),
}


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
    state: ReplicaState = IDLE
    """Lifecycle state; set directly only before the run counts states."""
    busy: bool = False
    running: list[_Running] = field(default_factory=list)
    queues: _Queues | None = None
    """The queue set this replica admits from (continuous batching only)."""
    bucket: int = 0
    """Static engine only: the bucket the current batch was compiled for."""
    chips: tuple[int, ...] = ()
    """The physical chips currently backing this replica (``num_stages`` of
    them; empty while the replica is dead and awaiting re-placement)."""
    chip_class: ChipSpec | None = None
    """Hardware class of the backing chips (programs are priced per class)."""
    latencies: tuple[float, ...] | None = None
    """Steady-state iteration latency of ``model`` on ``chip_class``, indexed
    by batch size (None until first priced, and again whenever either
    changes)."""
    ready: float = math.nan
    """When the replica's latest boot completes (scaler runs only)."""
    epoch: int = 0
    """Bumped on every death and re-placement; in-flight iteration-end events
    carry the epoch they were scheduled under and are dropped when stale."""
    iter_end: float = 0.0
    """When the iteration in flight (if ``busy``) ends."""
    cache_scope: str = ""
    """Plan-cache namespace of this replica's program store (empty = the
    shared warm namespace; set after a cold restart)."""
    generation: int = 0
    """Generation of the binding: bumped on cold restarts (names the cache
    scope) and on fleet re-binds to a different model."""
    tick: int = 0
    """Iterations completed (one aborted by a chip death never counts)."""
    due: dict[int, list[_Running]] = field(default_factory=dict)
    """Residents by the ticks whose iterations emit their first and last
    tokens, each list in batch order, so ``retire`` visits only the
    residents due at a tick."""
    best_effort: int = 0
    """Best-effort requests in ``running``."""
    max_batch: int = 0
    """``model``'s max batch size (0 while unbound)."""

    def join(self, entry: _Running) -> None:
        """Add ``entry`` to the batch, stamping and listing its first- and
        last-token ticks."""
        tick = self.tick
        prefill = entry.prefill_remaining
        due = self.due
        if prefill:
            entry.first_tick = first = tick + prefill
            entry.finish_tick = finish = first + entry.request.max_new_tokens - 1
            if first != finish:
                due.setdefault(first, []).append(entry)
        else:
            entry.first_tick = -1
            entry.finish_tick = finish = tick + entry.request.max_new_tokens - entry.tokens_done
        due.setdefault(finish, []).append(entry)
        if not entry.request.interactive:
            self.best_effort += 1
        self.running.append(entry)

    def leave(self, entry: _Running) -> None:
        """Take ``entry`` out of the batch, and its pending ticks off the
        ``due`` lists, with its progress synced."""
        self.running.remove(entry)
        tick = self.tick
        first, finish = entry.first_tick, entry.finish_tick
        if finish > tick:
            self.due[finish].remove(entry)
            if tick < first < finish:
                self.due[first].remove(entry)
        entry.sync(tick)
        if not entry.request.interactive:
            self.best_effort -= 1

    def clear(self) -> list[_Running]:
        """Empty the batch; returns its members with their progress synced."""
        members, self.running = self.running, []
        for entry in members:
            entry.sync(self.tick)
        self.best_effort = 0
        self.due = {}
        return members


#: Event kinds, ordered so same-timestamp faults strike before arrivals and
#: arrivals precede iteration ends — a chip death at an iteration boundary
#: kills the in-flight iteration, and a request arriving exactly at a
#: boundary is admissible there.  Scaler ticks come last: a capacity
#: decision taken at time t observes everything that happened at t.
#: Arrivals never enter the event heap: the loop reads them from the
#: arrival-ordered trace and ranks them against the heap's timers by kind.
_EV_FAULT = 0
_EV_ARRIVAL = 1
_EV_ITER_END = 2
_EV_SCALE = 3


class _DecodeEngineBase:
    """The machinery every decode engine shares.

    Construction and plan-cache ownership, per-bucket programs with their
    steady-state cost tables (per model and hardware class), request
    validation and the trace helpers.  ``run`` validates its arguments and
    replays the workload through the engine's :class:`_DecodeRun` subclass:
    one event loop, with the scheduling policy in that subclass's hooks.
    """

    policy = "base"
    #: Whether requests that would miss their deadline are shed at admission.
    shed_enabled = False
    #: FaultStats fields the ``faults`` counter track samples, after the
    #: dead-replica and spare counts.
    fault_counters: tuple[str, ...] = ("requeued", "degraded_sheds")

    def __init__(
        self,
        deployments: Sequence[DecodeModel],
        *,
        chip: ChipSpec,
        num_chips: int,
        constraints: SearchConstraints,
        plan_cache: PlanCache | None,
        chip_classes: dict[int, ChipSpec] | None = None,
    ) -> None:
        if not deployments:
            raise ValueError(f"{type(self).__name__} needs at least one deployment")
        names = [deployment.name for deployment in deployments]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate deployment names: {sorted(names)}")
        stages = {deployment.num_stages for deployment in deployments}
        if len(stages) != 1:
            raise ValueError(
                "fleet deployments must share one num_stages (chip groups are "
                f"re-bound across models), got {sorted(stages)}"
            )
        self.num_stages = stages.pop()
        if chip_classes and self.num_stages > 1:
            raise ValueError(
                "heterogeneous chip_classes require num_stages == 1 "
                "(sharded groups stay on the default class)"
            )
        if num_chips < 1:
            raise ValueError(f"num_chips must be >= 1, got {num_chips}")
        if self.num_stages > num_chips:
            raise ValueError(
                f"model {names[0]!r} needs a group of {self.num_stages} "
                f"chips but the fleet has only {num_chips}"
            )
        self._deployments = {deployment.name: deployment for deployment in deployments}
        self.num_chips = num_chips
        self.pool = WorkerPool(
            chip,
            num_chips=num_chips,
            plan_cache=plan_cache if plan_cache is not None else PlanCache(jobs=None),
            constraints=constraints,
            chip_classes=chip_classes,
        )
        #: Replicas the fleet can host: chip groups for sharded models.
        self.num_replicas = num_chips // self.num_stages
        self.warm_compile_seconds = 0.0
        self._graphs: dict[tuple[str, int], OperatorGraph] = {}
        #: Steady-state IterationCost per bucket, per (model, chip-class
        #: fingerprint) — the pricing every scheduling decision reads.
        self._costs: dict[tuple[str, str], dict[int, IterationCost]] = {}
        self._tenant_touched: set[tuple[str, str, str]] = set()

    # ------------------------------------------------------------------ #
    @property
    def plan_cache(self) -> PlanCache:
        """The cache holding this engine's per-bucket programs."""
        return self.pool.plan_cache

    @property
    def chip(self) -> ChipSpec:
        """The fleet's default chip specification."""
        return self.pool.chip

    @property
    def deployments(self) -> tuple[DecodeModel, ...]:
        """The served models, in declaration order."""
        return tuple(self._deployments.values())

    def _graph(self, model: str, bucket: int) -> OperatorGraph:
        key = (model, bucket)
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._graphs[key] = self._deployments[model].decode_builder(bucket)
        return graph

    def _bucket_costs(
        self, model: str, chip_class: ChipSpec, tenant: str = ""
    ) -> dict[int, IterationCost]:
        """Every bucket's steady-state cost of ``model`` on ``chip_class``,
        compiling (or warm-touching) the programs on first use.

        The first call compiles for real — wall-clock only, accumulated into
        ``warm_compile_seconds``, which keeps runs bit-for-bit reproducible
        at any compilation parallelism — with the plan-cache misses
        *attributed* to the tenant whose traffic triggered them.  Each later
        tenant's first touch re-looks the buckets up (pure memory hits,
        attributed to that tenant), which is how "compile once, second
        tenant gets the warm hit" stays visible per tenant without ever
        forking the plans.
        """
        fingerprint = chip_class.fingerprint()
        key = (model, fingerprint)
        touch_key = (tenant, model, fingerprint)
        table = self._costs.get(key)
        if table is not None and (not tenant or touch_key in self._tenant_touched):
            return table
        fresh: dict[int, IterationCost] = {}
        for bucket, cost in self._profile_buckets(model, chip_class, tenant=tenant):
            if not cost.ok:
                raise RuntimeError(
                    f"{model} does not serve at batch {bucket} on "
                    f"{chip_class.name}: {cost.status} ({cost.error})"
                )
            if table is None:
                self.warm_compile_seconds += cost.compile_seconds
                # Steady state: later lookups of this bucket are pure latency.
                fresh[bucket] = IterationCost(
                    cost.status, cost.error, cost.latency, 0.0, cost.cache_outcome
                )
        if table is None:
            table = self._costs[key] = fresh
        if tenant:
            self._tenant_touched.add(touch_key)
        return table

    def _profile_buckets(
        self, model: str, chip_class: ChipSpec, **where: str
    ) -> list[tuple[int, IterationCost]]:
        """Look up (compiling the misses as one batch) every bucket program
        of ``model`` on ``chip_class``; ``where`` names the pool ``tenant``
        or cache ``scope``."""
        default_class = chip_class.fingerprint() == self.pool.chip.fingerprint()
        buckets = batch_buckets(self._deployments[model].max_batch_size)
        costs = self.pool.profile_many(
            [self._graph(model, bucket) for bucket in buckets],
            num_stages=self.num_stages,
            chip=None if default_class else chip_class,
            **where,
        )
        return list(zip(buckets, costs))

    def _cost(
        self, model: str, chip_class: ChipSpec, batch_len: int, tenant: str = ""
    ) -> IterationCost:
        """Steady-state cost of a ``batch_len`` iteration of ``model`` on
        ``chip_class``; the first touch of a (model, class) pair compiles,
        attributed to ``tenant``."""
        table = self._costs.get((model, chip_class.fingerprint()))
        if table is None:
            table = self._bucket_costs(model, chip_class, tenant)
        return table[bucket_for(batch_len, self._deployments[model].max_batch_size)]

    def warm(self) -> None:
        """Compile and measure every bucket of every deployment on every
        hardware class once (idempotent), so compile cost is paid up front
        and ``recompiles`` during a run is exactly zero."""
        for model in self._deployments:
            for chip_class in self.pool.hardware_classes():
                self._bucket_costs(model, chip_class)

    def _make_replicas(self, model: str = "", queues: _Queues | None = None) -> list[_Replica]:
        """The fleet's replicas with their static chip-group assignment:
        replica ``i`` owns chips ``[i * num_stages, (i + 1) * num_stages)``.
        Chips beyond ``num_replicas * num_stages`` start as spares.  Every
        replica admits from ``queues`` when given, else from its own set."""
        stages = self.num_stages
        max_batch = self._deployments[model].max_batch_size if model else 0
        return [
            _Replica(
                index=i,
                model=model,
                max_batch=max_batch,
                chips=tuple(range(i * stages, (i + 1) * stages)),
                chip_class=self.pool.chip_for(i * stages),
                queues=queues if queues is not None else _Queues(),
            )
            for i in range(self.num_replicas)
        ]

    def _check_requests(self, requests: Sequence[DecodeRequest]) -> list[DecodeRequest]:
        """Requests in arrival order, after rejecting unserved models and
        duplicate ids (requeue accounting and trace flows key on the id)."""
        unknown = sorted({req.model for req in requests} - set(self._deployments))
        if unknown:
            raise ValueError(
                f"requests for unserved models {unknown}; served: "
                f"{sorted(self._deployments)}"
            )
        ids = [req.request_id for req in requests]
        if len(set(ids)) != len(ids):
            raise ValueError(
                "duplicate request ids in workload; compose per-tenant "
                "streams with merge_decode_workloads, which renumbers them"
            )
        return sorted(requests, key=_ARRIVAL_ORDER)

    # ------------------------------------------------------------------ #
    # Tracing (see docs/observability.md for the span taxonomy).  All
    # serving events are virtual-domain and emitted from the single-threaded
    # event loop, which is what makes traces bit-identical at any ``jobs``.
    # ``tags`` are engine-specific extra args (the fleet names models and
    # tenants).
    # ------------------------------------------------------------------ #
    @property
    def trace_group(self) -> str:
        """Track-group (Perfetto process) of this engine's trace events."""
        return f"{self.policy}@{self.num_chips}chips"

    def _request_lane(self, request: DecodeRequest) -> str:
        """Track carrying ``request``'s enqueue and lifecycle span."""
        return f"{self.trace_group}/requests"

    def _chip_tracks(self, replica: _Replica) -> tuple[str, ...]:
        """Occupancy tracks of the chips currently backing ``replica`` (one
        per chip: pipeline-sharded models occupy a whole chip group).  After
        a failover the replica's spans land on its *new* chips' tracks."""
        group = self.trace_group
        return tuple(f"{group}/chip{chip}" for chip in replica.chips)

    def _flow_id(self, request_id: int) -> str:
        """Per-trace-unique flow id for one request's lifecycle arrows."""
        return f"{self.trace_group}/r{request_id}"

    def _replica_args(self, replica: _Replica) -> dict:
        return {"replica": replica.index}

    def _failover_args(self, replica: _Replica) -> dict:
        return {"replica": replica.index, "chips": ",".join(str(c) for c in replica.chips)}

    def _link_args(self, fault: FaultEvent) -> dict:
        return {"factor": fault.factor, "until": fault.until}

    def _trace_enqueue(self, tracer: Tracer, request: DecodeRequest, **tags) -> None:
        track = self._request_lane(request)
        tracer.instant(
            "enqueue",
            ts=request.arrival_time,
            track=track,
            cat="lifecycle",
            args={"request": request.request_id, "class": request.slo_class, **tags},
        )
        tracer.flow(
            KIND_FLOW_START,
            self._flow_id(request.request_id),
            ts=request.arrival_time,
            track=track,
            name="request",
        )

    def _trace_admit(
        self, tracer: Tracer, request: DecodeRequest, replica: _Replica, now: float, **tags
    ) -> None:
        track = self._chip_tracks(replica)[0]
        tracer.instant(
            "admit",
            ts=now,
            track=track,
            cat="lifecycle",
            args={"request": request.request_id, **tags},
        )
        tracer.flow(
            KIND_FLOW_STEP,
            self._flow_id(request.request_id),
            ts=now,
            track=track,
            name="request",
        )

    def _trace_iteration(
        self, tracer: Tracer, replica: _Replica, now: float, latency: float, **tags
    ) -> None:
        args = {
            "batch": len(replica.running),
            "bucket": bucket_for(
                len(replica.running), self._deployments[replica.model].max_batch_size
            ),
            "requests": ",".join(str(r.request.request_id) for r in replica.running),
            **tags,
        }
        for track in self._chip_tracks(replica):
            tracer.span(
                "iteration", ts=now, dur=latency, track=track, cat="decode", args=args
            )

    def _trace_done(
        self,
        tracer: Tracer,
        record: CompletedDecode,
        replica: _Replica | None,
        now: float,
        **tags,
    ) -> None:
        """Lifecycle close-out shared by retirement and shedding: the flow
        arrow lands on the serving chip (or the request lane for shed
        requests, which never held a chip) and one async lifecycle span
        covers arrival → completion on the request lane (exactly one per
        request — the invariant the determinism tests count)."""
        request = record.request
        lane = self._request_lane(request)
        end_track = self._chip_tracks(replica)[0] if replica is not None else lane
        tracer.instant(
            "retire" if record.ok else "shed",
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
            track=lane,
            flow_id=self._flow_id(request.request_id),
            cat="lifecycle",
            args={
                "request": request.request_id,
                "status": record.status,
                "tokens": record.tokens_generated,
                "preemptions": record.preemptions,
                "replica": record.replica,
                **tags,
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


class _ChipFaults:
    """Chip and fault state of one run, driven by the run's event loop.

    Holds the chip sets — spares, dead, cold (back from a restart with an
    empty program store) and warming (between restart and chip-online) —
    and the run's :class:`FaultStats`, and performs every fault transition
    the engines share: seeding the schedule, chip death (busy-time refund,
    cache-scope eviction, detection timer), restart and chip-online,
    spare-group failover with a cold rewarm, and the ``faults`` counter
    sample.  What happens to a dead replica's requests once the watchdog
    notices, and to a replica once it is re-placed, is engine policy: the
    run's ``detect`` and ``placed`` hooks (``online`` runs after a chip came
    back and failover was tried).
    """

    def __init__(self, run: "_DecodeRun") -> None:
        engine = run.engine
        self.run = run
        self.engine = engine
        self.replicas = run.replicas
        self.tracer = run.tracer
        self.traced = run.traced
        self.track = f"{engine.trace_group}/fleet"
        self.stats = FaultStats()
        #: Chips not backing any replica (the fleet remainder when num_chips
        #: is not a multiple of num_stages) start life as failover capacity.
        self.spares: list[int] = list(
            range(len(self.replicas) * engine.num_stages, engine.num_chips)
        )
        self.dead_chips: set[int] = set()
        #: The next replica re-placed over a cold chip re-warms its buckets
        #: under a fresh plan-cache namespace.
        self.cold_chips: set[int] = set()
        #: Chips between restart and chip-online.
        self.warming: set[int] = set()
        for fault in run.schedule:
            self._push(fault.time, fault)
            if fault.kind == FAULT_LINK_DEGRADATION and math.isfinite(fault.until):
                self._push(fault.until, _LinkRestored(fault.factor))

    def _push(self, when: float, payload: object) -> None:
        heapq.heappush(self.run.events, (when, _EV_FAULT, next(self.run.seq), payload))

    def _instant(self, name: str, now: float, **args) -> None:
        self.tracer.instant(name, ts=now, track=self.track, cat="fault", args=args)

    @property
    def degraded(self) -> bool:
        """Whether any replica is dead."""
        return self.run.counts[DEAD] > 0

    def sample(self, now: float) -> None:
        """Degraded-mode counter track: fleet health at a glance."""
        values = {"dead_replicas": self.run.counts[DEAD], "spares": len(self.spares)}
        for name in self.engine.fault_counters:
            values[name] = getattr(self.stats, name)
        self.tracer.counter("faults", ts=now, track=self.track, values=values)

    def handle(self, payload: object, now: float) -> None:
        """Apply one ``_EV_FAULT`` event."""
        if isinstance(payload, FaultEvent):
            if payload.kind == FAULT_CHIP_DEATH:
                self._chip_death(payload.chip, now)
            elif payload.kind == FAULT_RESTART:
                self._restart(payload, now)
            elif self.traced:
                # Link degradation needs no state: the engine prices
                # iterations started inside the window when they start.
                self._instant("link-degraded", now, **self.engine._link_args(payload))
        elif isinstance(payload, _Detect):
            replica = self.replicas[payload.replica]
            if replica.state is DEAD and replica.epoch == payload.epoch:
                self.run.detect(replica, now)
        elif isinstance(payload, _ChipOnline):
            self._chip_online(payload, now)
        elif isinstance(payload, _LinkRestored) and self.traced:
            self._instant("link-restored", now, factor=payload.factor)

    def _chip_death(self, chip: int, now: float) -> None:
        if chip in self.dead_chips:
            return
        self.dead_chips.add(chip)
        self.stats.chip_deaths += 1
        if self.traced:
            self._instant("chip-death", now, chip=chip)
        if chip in self.spares:
            self.spares.remove(chip)
            if self.traced:
                self.sample(now)
            return
        owner = next(
            (r for r in self.replicas if chip in r.chips and r.state is not DEAD), None
        )
        if owner is None:
            return
        if owner.busy:
            # The in-flight iteration dies with the chip: refund the part of
            # its busy time that never executed; its iteration-end event is
            # dropped by the epoch bump below.
            self.run.busy_chip_seconds -= max(0.0, owner.iter_end - now) * self.engine.num_stages
            self.stats.lost_iterations += 1
            owner.busy = False
        # Any live state dies, a boot in flight included: its ready event
        # goes stale, and the death is not a provision-down.
        self.run.transition(owner, DEAD, now)
        owner.epoch += 1
        # Surviving chips of the group become spares immediately; the
        # replica's requests stay in limbo until the watchdog notices.
        for other in owner.chips:
            if other != chip and other not in self.dead_chips:
                self.spares.append(other)
        owner.chips = ()
        if owner.cache_scope:
            # The replica's private program store dies with it.
            self.engine.plan_cache.evict_scope(owner.cache_scope)
            owner.cache_scope = ""
        self._push(
            now + self.run.watchdog.detection_delay, _Detect(owner.index, owner.epoch)
        )
        if self.traced:
            self.sample(now)

    def _restart(self, fault: FaultEvent, now: float) -> None:
        self.stats.restarts += 1
        if fault.chip in self.dead_chips:
            self.warming.add(fault.chip)
        if self.traced:
            self._instant("restart", now, chip=fault.chip, warmup=fault.warmup_delay)
        self._push(now + fault.warmup_delay, _ChipOnline(fault.chip, fault.cold_cache))

    def _chip_online(self, online: _ChipOnline, now: float) -> None:
        self.warming.discard(online.chip)
        if online.chip not in self.dead_chips:
            return  # restart of a chip that never died: nothing to do
        self.dead_chips.discard(online.chip)
        if online.cold_cache:
            self.cold_chips.add(online.chip)
        self.spares.append(online.chip)
        if self.traced:
            self._instant("chip-online", now, chip=online.chip, cold=online.cold_cache)
        self.try_place(now)
        self.run.online(now)
        if self.traced:
            self.sample(now)

    def try_place(self, now: float) -> None:
        """Re-place dead, drained replicas onto surviving spare chips
        (pipeline-stage failover for sharded models); the run's ``placed``
        hook then moves each out of DEAD.

        The spare group may belong to a *different* chip class than the
        chips that died (heterogeneous fleets are single-stage, so any spare
        is compatible), in which case the binding's programs are compiled
        for the new class before it serves again."""
        engine = self.engine
        stages = engine.num_stages
        spares = self.spares
        for replica in self.replicas:
            if replica.state is not DEAD or replica.running or len(spares) < stages:
                continue
            spares.sort()
            group = spares[:stages]
            del spares[:stages]
            replica.chips = tuple(group)
            replica.chip_class = engine.pool.chip_for(group[0])
            replica.latencies = None
            replica.epoch += 1
            self.stats.failovers += 1
            if replica.model:
                engine._bucket_costs(replica.model, replica.chip_class)
            if any(chip in self.cold_chips for chip in group):
                self.cold_chips.difference_update(group)
                if replica.model:
                    self._rewarm(replica)
            if self.traced:
                self._instant("failover", now, **engine._failover_args(replica))
            self.run.placed(replica, now)

    def _rewarm(self, replica: _Replica) -> None:
        """Re-fetch every bucket program of the replica's bound model under
        a fresh per-replica namespace: a revived chip's program store is
        cold, so the compiles are real (visible in the cache counters) but —
        being wall-clock — never touch virtual time."""
        engine = self.engine
        replica.generation += 1
        replica.cache_scope = f"replica{replica.index}-gen{replica.generation}"
        for _, cost in engine._profile_buckets(
            replica.model, replica.chip_class, scope=replica.cache_scope
        ):
            self.stats.restart_compile_seconds += cost.compile_seconds


class _DecodeRun:
    """One replay of a decode workload: the run state and the event loop
    every decode engine shares.

    The loop owns the timer heap (iteration ends, faults, scaler and
    batch-window timers), which it merges with the arrival-ordered trace,
    the records and counters, the replica lifecycle (:meth:`transition`,
    with per-state counts that the busy, active and provisioned chip-second
    integrals read), and the Orca-style iteration scheduler:
    at each iteration boundary a replica retires its finished requests and
    admits from its queue set — interactive requests earliest-deadline-first,
    then priority preemption of best-effort residents, then resumed
    preemptions, then best-effort FIFO — shedding any request whose
    projected completion already misses its deadline.  Requests displaced
    by a chip death keep their accounting in one requeue carry until they
    are re-admitted or shed, and the end-of-run sweep sheds whatever is
    still queued, so every request ends exactly once.

    The engines differ only in the hooks a subclass overrides: how an
    arrival reaches a queue set (``on_arrival``), what detection does with a
    dead replica's requests (``displace``, then ``refill``), the
    interactive pop order (``pop_interactive``), the scale-down floor
    (``min_active``) and how degraded links price an iteration
    (``links_priced``, ``degraded``).  The static-batching baseline replaces
    ``admit`` itself.
    """

    #: Counters the report reads, in publication order.
    counter_names: tuple[str, ...] = (
        "iterations",
        "preemptions",
        "shed",
        "scale_ups",
        "scale_downs",
        "migrations",
    )
    #: A drained replica deactivates only while more than this many are active.
    min_active = 0
    #: Whether link-degradation windows re-price the iterations they cover.
    links_priced = False
    #: States charged as provisioned chip-seconds.  Without a provisioning
    #: scaler capacity is free until it serves, so provisioned == active.
    charged: tuple[ReplicaState, ...] = (ACTIVE,)

    def __init__(
        self,
        engine: _DecodeEngineBase,
        requests: list[DecodeRequest],
        schedule: FaultSchedule,
        watchdog: Watchdog,
        replicas: list[_Replica],
    ) -> None:
        self.engine = engine
        self.requests = requests
        self.schedule = schedule
        self.watchdog = watchdog
        self.replicas = replicas
        #: The distinct queue sets, in replica order.
        self.queue_sets = list(dict.fromkeys(replica.queues for replica in replicas))
        self.tracer = get_tracer()
        self.traced = self.tracer.enabled
        self.fleet_track = f"{engine.trace_group}/fleet"
        self.stages = engine.num_stages
        self.shed_enabled = engine.shed_enabled
        self.deployments = engine._deployments
        #: The timer heap: ``(time, kind, seq, payload)``; ``seq`` keeps
        #: same-instant timers of one kind in the order they were set.
        self.seq = itertools.count()
        self.events: list[tuple[float, int, int, object]] = []
        #: Requests delivered so far: the cursor into ``requests``.
        self.arrived = 0
        self.records: list[CompletedDecode] = []
        self.counters = dict.fromkeys(self.counter_names, 0)
        #: The requeue carry: the progress record of every request displaced
        #: off a dead replica (or stranded preempted), by request id, until
        #: it is re-admitted or shed.
        self.carry: dict[int, _Running] = {}
        #: Requests no queue set took yet (the fleet's unroutable arrivals).
        self.unrouted: deque[DecodeRequest] = deque()
        self.busy_chip_seconds = 0.0
        self.active_chip_seconds = 0.0
        self.provisioned_chip_seconds = 0.0
        #: Replicas per lifecycle state, and in the charged states (kept in
        #: step by :meth:`transition`), with their peaks.
        self.counts = [[r.state for r in replicas].count(state) for state in ReplicaState]
        self.num_charged = self.peak_charged = sum(self.counts[s] for s in self.charged)
        #: Whether states other than ACTIVE are charged; when not, the
        #: provisioned integral equals the active one bit for bit, so only
        #: the active one is accrued.
        self.paid = self.charged != (ACTIVE,)
        self.peak_active = self.counts[ACTIVE]
        #: Whether some ACTIVE replica may have no iteration in flight; while
        #: it is false :meth:`start_idle` has nothing to start.  A replica
        #: becomes such only by a move to ACTIVE (:meth:`transition`) or an
        #: iteration end that starts no next iteration (:meth:`after_iteration`),
        #: so those set it, and the walk in :meth:`start_idle` recomputes it.
        self.maybe_idle = self.any_idle()
        #: The window the books integrate over opens at the first arrival;
        #: ``accrued`` is the instant they are accrued to, and ``last_time``
        #: (set once the event loop ends) is where the window closes.
        self.accrued = self.last_time = requests[0].arrival_time if requests else 0.0
        self.stats_before = engine.plan_cache.stats.snapshot()
        self.chips = _ChipFaults(self)

    # ------------------------------------------------------------------ #
    def execute(self) -> ContinuousReport:
        """Run every event, sweep the queues and build the report.

        Arrivals come from ``requests`` through the ``arrived`` cursor and
        merge with the timer heap's head: at one instant a fault runs before
        an arrival, and an arrival before an iteration end or a scaler or
        batch-window timer."""
        events = self.events
        replicas = self.replicas
        traced = self.traced
        requests = self.requests
        count = len(requests)
        heappop = heapq.heappop
        arrived = 0
        arrival = requests[0].arrival_time if count else math.inf
        now = self.last_time
        while True:
            # The head timer runs first when it is earlier than the next
            # arrival, or at its instant ranks before arrivals; once the
            # trace is spent ``arrival`` is inf, and a timer set at inf
            # still runs.
            if events and (
                events[0][0] < arrival
                or events[0][0] == arrival
                and (events[0][1] < _EV_ARRIVAL or arrived == count)
            ):
                now, kind, _, payload = heappop(events)
                if kind == _EV_ITER_END:
                    index, epoch = payload
                    replica = replicas[index]
                    if replica.epoch != epoch:
                        continue  # the iteration was aborted by a chip death
                    replica.busy = False
                    self.retire(replica, now)
                    self.start_iteration(replica, now)
                    self.after_iteration(replica, now)
                elif kind == _EV_FAULT:
                    self.chips.handle(payload, now)
                else:
                    self.on_scale(payload, now)
            elif arrived < count:
                now = arrival
                request = requests[arrived]
                arrived = self.arrived = arrived + 1
                arrival = requests[arrived].arrival_time if arrived < count else math.inf
                self.on_arrival(request, now)
            else:
                break
            if traced:
                self.sample(now)
        self.close(now)
        self.sweep()
        return self.report()

    def close(self, now: float) -> None:
        """End the event window at the last event's time ``now`` (at the
        first arrival if every event ran before it) and accrue the books
        to it."""
        self.last_time = max(self.last_time, now)
        self.integrate(self.last_time)

    def report(self) -> ContinuousReport:
        """Assemble the run report and publish its metrics when traced.

        ``makespan`` spans the *served* requests (the throughput window);
        ``active_span`` is the whole event window ``active_chip_seconds``
        integrates over, which may be longer when leading/trailing requests
        were shed.
        """
        engine, records, counters = self.engine, self.records, self.counters
        records.sort(key=_REQUEST_ID)
        first_arrival = self.requests[0].arrival_time if self.requests else 0.0
        served = [record for record in records if record.status == DECODE_OK]
        makespan = 0.0
        if served:
            makespan = max(r.completion_time for r in served) - min(
                r.request.arrival_time for r in served
            )
        stages = self.stages
        report = ContinuousReport(
            policy=engine.policy,
            model="+".join(sorted(engine._deployments)),
            num_chips=engine.num_chips,
            num_stages=stages,
            max_batch_size=max(
                deployment.max_batch_size for deployment in engine._deployments.values()
            ),
            completed=tuple(records),
            makespan=makespan,
            busy_chip_seconds=self.busy_chip_seconds,
            active_chip_seconds=self.active_chip_seconds,
            active_span=self.last_time - first_arrival,
            iterations=counters["iterations"],
            cache=engine.plan_cache.stats.since(self.stats_before),
            warm_compile_seconds=engine.warm_compile_seconds,
            preemptions=counters["preemptions"],
            shed=counters["shed"],
            scale_ups=counters["scale_ups"],
            scale_downs=counters["scale_downs"],
            peak_active_chips=self.peak_active * stages,
            rebinds=counters.get("rebinds", 0),
            migrations=counters.get("migrations", 0),
            faults=self.chips.stats,
            provisioned_chip_seconds=(
                self.provisioned_chip_seconds if self.paid else self.active_chip_seconds
            ),
            peak_provisioned_chips=self.peak_charged * stages,
            provision_ups=counters.get("provision_ups", 0),
            provision_downs=counters.get("provision_downs", 0),
        )
        if self.traced:
            engine._publish_run_metrics(self.tracer, report, counters)
        return report

    def transition(self, replica: _Replica, state: ReplicaState, now: float) -> None:
        """Move ``replica`` to lifecycle ``state`` at ``now``: the one place
        a replica changes state.  Accrues the chip-second books up to
        ``now`` at the old counts (the counts they multiply change only
        here), then updates the counts and their peaks.  A move the
        transition table does not list is a bug in the caller."""
        old = replica.state
        if state not in _TRANSITIONS[old]:
            raise RuntimeError(
                f"replica {replica.index}: illegal lifecycle transition "
                f"{old.name} -> {state.name}"
            )
        self.integrate(now)
        counts = self.counts
        counts[old] -= 1
        counts[state] += 1
        replica.state = state
        if state is ACTIVE:
            self.maybe_idle = True
        self.num_charged = sum(counts[s] for s in self.charged)
        self.peak_charged = max(self.peak_charged, self.num_charged)
        self.peak_active = max(self.peak_active, counts[ACTIVE])

    def integrate(self, now: float) -> None:
        """Accrue active and provisioned chip-seconds from ``accrued`` up to
        ``now`` at the current counts.  It runs only at a transition and
        once when the window closes (:meth:`close`), so the books do not
        depend on how many events the loop runs.  A no-op when no time
        passed since the last accrual, and before the first arrival: the
        window opens there, so a fault scheduled ahead of the traffic
        changes state but accrues nothing."""
        if now > self.accrued:
            elapsed = now - self.accrued
            self.active_chip_seconds += elapsed * self.counts[ACTIVE] * self.stages
            if self.paid:
                self.provisioned_chip_seconds += elapsed * self.num_charged * self.stages
            self.accrued = now

    def retire(self, replica: _Replica, now: float) -> None:
        """Count one finished iteration on ``replica``; stamp the first
        tokens due at its new tick and retire the requests it finishes, in
        batch order."""
        tick = replica.tick = replica.tick + 1
        due = replica.due.pop(tick, None)
        if due is None:
            return
        for running in due:
            if running.first_tick == tick:
                running.first_token_time = now
                if running.finish_tick != tick:
                    continue
            replica.leave(running)
            # CompletedDecode(request, status, admitted_time,
            # first_token_time, completion_time, tokens_generated,
            # preemptions, replica, requeues, migrations, lost_tokens),
            # built in one allocation.
            record = _new(
                CompletedDecode,
                (
                    running.request,
                    DECODE_OK,
                    running.admitted_time,
                    running.first_token_time,
                    now,
                    running.tokens_done,
                    running.preemptions,
                    replica.index,
                    running.requeues,
                    running.migrations,
                    running.lost_tokens,
                ),
            )
            self.records.append(record)
            if self.traced:
                self.engine._trace_done(self.tracer, record, replica, now)
            self.on_retire(record, now)

    def start_idle(self, now: float) -> None:
        """Start an iteration on every active replica that has none."""
        if not self.maybe_idle:
            return
        for replica in self.replicas:
            if replica.state is ACTIVE and not replica.busy:
                self.start_iteration(replica, now)
        # Those still idle drained with the scale-down floor reached.
        self.maybe_idle = self.any_idle()

    def any_idle(self) -> bool:
        """Whether some ACTIVE replica has no iteration in flight."""
        return any(r.state is ACTIVE and not r.busy for r in self.replicas)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def latencies(self, replica: _Replica) -> tuple[float, ...]:
        """``replica``'s iteration latency by batch size, priced on first use."""
        if replica.latencies is None:
            table = self.engine._bucket_costs(replica.model, replica.chip_class)
            max_batch = self.deployments[replica.model].max_batch_size
            replica.latencies = (math.nan,) + tuple(
                table[bucket_for(size, max_batch)].latency for size in range(1, max_batch + 1)
            )
        return replica.latencies

    def hopeless(self, request: DecodeRequest, replica: _Replica, now: float) -> bool:
        """Whether ``request``, started now on ``replica``, misses its
        deadline: its full iteration count priced at the replica class's
        full-batch iteration latency (the per-iteration cost once the fleet
        is busy).  Queue wait it already suffered is baked into ``now``."""
        if not self.shed_enabled or request.deadline is None:
            return False
        deployment = self.deployments[request.model]
        unit = (replica.latencies or self.latencies(replica))[deployment.max_batch_size]
        return now + deployment.total_iterations(request) * unit > request.deadline

    def shed(self, request: DecodeRequest, now: float) -> None:
        """End ``request`` unserved.  A request that never held a batch slot
        records NaN / the -1 sentinel (not fabricated values) so TTFT and
        goodput accounting can never mistake it for a served one; one that
        was admitted before keeps its first admission time and accounting
        from the requeue carry."""
        self.counters["shed"] += 1
        carried = self.carry.pop(request.request_id, _NEVER_ADMITTED)
        record = CompletedDecode(
            request=request,
            status=DECODE_SHED,
            admitted_time=carried.admitted_time,
            first_token_time=float("nan"),
            completion_time=now,
            tokens_generated=0,
            preemptions=carried.preemptions,
            replica=-1,
            requeues=carried.requeues,
            migrations=carried.migrations,
            lost_tokens=carried.lost_tokens,
        )
        self.records.append(record)
        self.note_outcome(request, False)
        if self.traced:
            self.engine._trace_done(self.tracer, record, None, now)

    def admit_one(self, request: DecodeRequest, replica: _Replica, now: float) -> _Running:
        if self.traced:
            self.engine._trace_admit(self.tracer, request, replica, now)
        prefill = self.deployments[replica.model].prefill_iterations(
            request.prompt_tokens
        )
        carried = self.carry.pop(request.request_id, None)
        if carried is None:
            return _Running(request, now, prefill, replica.index)
        if carried.origin not in (-1, replica.index):
            # The requeue landed on a different replica than the one whose
            # death displaced it: a cross-replica (often cross-model)
            # failover migration, charged the same full re-prefill as any
            # requeue.
            carried.migrations += 1
            self.counters["migrations"] += 1
            if self.traced:
                self.tracer.instant(
                    "migrate",
                    ts=now,
                    track=self.engine._chip_tracks(replica)[0],
                    cat="fault",
                    args={
                        "request": request.request_id,
                        "from": carried.origin,
                        "to": replica.index,
                    },
                )
        carried.prefill_remaining = prefill
        carried.origin = replica.index
        return carried

    def victim(self, replica: _Replica) -> _Running | None:
        """The resident a waiting interactive request preempts: the most
        recently admitted best-effort one (None: all are interactive)."""
        if not replica.best_effort:
            return None
        running = replica.running
        position = len(running) - 1
        while running[position].request.interactive:
            position -= 1
        return running[position]

    def pop_interactive(self, queues: _Queues) -> tuple:
        """The next interactive request to admit: earliest deadline first."""
        return heapq.heappop(queues.iq)

    def admit(self, replica: _Replica, now: float) -> None:
        """Fill ``replica``'s batch from its queue set at an iteration
        boundary."""
        queues = replica.queues
        iq, bq, preempted = queues.iq, queues.bq, queues.preempted
        running = replica.running
        deployment = self.deployments[replica.model]
        max_batch = replica.max_batch
        traced = self.traced
        # Interactive first, earliest deadline first.
        while iq and len(running) < max_batch:
            request = self.pop_interactive(queues)[3]
            if self.hopeless(request, replica, now):
                self.shed(request, now)
                continue
            replica.join(self.admit_one(request, replica, now))
        # Priority preemption: interactive requests still waiting evict the
        # most recently admitted best-effort resident (its progress is kept;
        # it resumes from the preempted queue).
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
            if traced:
                self.tracer.instant(
                    "preempt",
                    ts=now,
                    track=self.engine._chip_tracks(replica)[0],
                    cat="lifecycle",
                    args={"victim": victim.request.request_id, "for": request.request_id},
                )
            replica.join(self.admit_one(request, replica, now))
        # Preempted best-effort work resumes before fresh best-effort
        # admissions (its progress is sunk cost) — but progress only survives
        # on the replica whose chips still hold its KV state; resuming
        # anywhere else must re-prefill from scratch (the KV cache never
        # crossed chips).  Origin -1: detection already discarded the
        # progress and charged the requeue.
        while preempted and len(running) < max_batch:
            resumed = preempted.popleft()
            migrated = resumed.origin not in (-1, replica.index)
            resumed.origin = replica.index
            if migrated:
                self.counters["migrations"] += 1
                resumed.requeues += 1
                resumed.migrations += 1
                resumed.restart(deployment.prefill_iterations(resumed.request.prompt_tokens))
            if traced:
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

    def start_iteration(self, replica: _Replica, now: float) -> None:
        if replica.busy or replica.state is not ACTIVE:
            return
        queues = replica.queues
        running = replica.running
        if len(running) < replica.max_batch:
            if queues.iq or queues.bq or queues.preempted:
                self.admit(replica, now)
        elif queues.iq and replica.best_effort:
            # A full batch admits only by preempting a best-effort resident.
            self.admit(replica, now)
        if not running:
            # Drained: release the chips unless that breaches the floor.
            if self.counts[ACTIVE] > self.min_active:
                self.counters["scale_downs"] += 1
                self.scale(replica, IDLE, now, "scale-down", **self.engine._replica_args(replica))
            return
        # A static batch keeps the bucket it was formed in (0: none).
        size = replica.bucket or len(running)
        latency = (replica.latencies or self.latencies(replica))[size]
        if self.links_priced:
            # Iterations started inside a link-degradation window pay the
            # slowdown; windows scoped to a chip set only tax replicas backed
            # by those chips.
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

    def activate(self, replica: _Replica, now: float) -> None:
        if replica.state is not ACTIVE:
            self.counters["scale_ups"] += 1
            self.scale(replica, ACTIVE, now, "scale-up", **self.engine._replica_args(replica))

    def scale(
        self, replica: _Replica, state: ReplicaState, now: float, event: str, /, **args
    ) -> None:
        """A scaling decision: move ``replica`` to ``state`` and trace it as
        the instant ``event`` on the fleet track (category ``autoscale``, or
        ``provisioning`` for the scaler's, which never touch ACTIVE)."""
        old = replica.state
        self.transition(replica, state, now)
        if self.traced:
            cat = "autoscale" if ACTIVE in (old, state) else "provisioning"
            self.tracer.instant(event, ts=now, track=self.fleet_track, cat=cat, args=args)

    # ------------------------------------------------------------------ #
    # Faults
    # ------------------------------------------------------------------ #
    def detect(self, replica: _Replica, now: float) -> None:
        """The watchdog noticed ``replica`` died: displace its requests, try
        failover, and restart admission on the survivors."""
        self.displace(replica, now)
        self.chips.try_place(now)
        self.degraded_shed(now)
        self.refill(now)
        self.start_idle(now)
        if self.traced:
            self.chips.sample(now)

    def carry_off(self, running: _Running, origin: int) -> int:
        """Discard a displaced request's decode progress (its KV state died
        with the chips) and park its accounting in the requeue carry;
        returns the tokens lost.  A later admission on a replica other than
        ``origin`` (-1: none) counts as a migration."""
        lost = running.tokens_done
        self.chips.stats.lost_tokens += lost
        running.restart(0)  # admission re-prices the prefill
        running.origin = origin
        self.carry[running.request.request_id] = running
        return lost

    def trace_requeue(self, request: DecodeRequest, lost: int, now: float) -> None:
        self.tracer.instant(
            "requeue",
            ts=now,
            track=self.engine._request_lane(request),
            cat="fault",
            args={"request": request.request_id, "lost_tokens": lost},
        )

    def degraded_shed(self, now: float) -> bool:
        """Degraded-mode admission: while any replica is dead, cap the
        best-effort backlog at ``degraded_shed_queue`` per surviving active
        replica, shedding newest-first across every queue set and parked
        request (the oldest backlog keeps its slot; interactive traffic is
        governed by its own deadline check).  Returns whether it shed."""
        watchdog = self.watchdog
        if watchdog.degraded_shed_queue is None or not self.chips.degraded:
            return False
        cap = watchdog.degraded_shed_queue * max(1, self.counts[ACTIVE])
        unrouted = self.unrouted
        total = sum(len(queues.bq) for queues in self.queue_sets) + sum(
            1 for request in unrouted if not request.interactive
        )
        dropped = False
        while total > cap:
            newest_queued = max(
                (queues for queues in self.queue_sets if queues.bq),
                key=lambda queues: _ARRIVAL_ORDER(queues.bq[-1]),
                default=None,
            )
            newest_parked = max(
                (request for request in unrouted if not request.interactive),
                key=_ARRIVAL_ORDER,
                default=None,
            )
            if newest_parked is not None and (
                newest_queued is None
                or _ARRIVAL_ORDER(newest_parked) > _ARRIVAL_ORDER(newest_queued.bq[-1])
            ):
                unrouted.remove(newest_parked)
                victim = newest_parked
            elif newest_queued is not None:
                victim = newest_queued.bq.pop()
            else:
                break
            self.chips.stats.degraded_sheds += 1
            self.shed(victim, now)
            total -= 1
            dropped = True
        if dropped and self.traced:
            self.chips.sample(now)
        return dropped

    def sweep(self) -> None:
        """Shed whatever is still queued, preempted or parked.

        A run can end with replicas dead and their queues full (e.g. the
        whole fleet killed and never restarted); the books must balance all
        the same (completed + shed == requests).  Nothing can still be
        resident: detection clears a dead replica, failover skips replicas
        holding residents, and live replicas iterate until they drain.
        """
        now = self.last_time
        for replica in self.replicas:
            assert not replica.running, f"replica {replica.index} stranded residents"
        for queues in self.queue_sets:
            while queues.iq:
                self.shed(heapq.heappop(queues.iq)[3], now)
            while queues.bq:
                self.shed(queues.bq.popleft(), now)
            while queues.preempted:
                entry = queues.preempted.popleft()
                entry.lost_tokens += entry.tokens_done
                self.carry[entry.request.request_id] = entry
                self.shed(entry.request, now)
        while self.unrouted:
            self.shed(self.unrouted.popleft(), now)

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    def on_arrival(self, request: DecodeRequest, now: float) -> None:
        """Put an arriving request on a queue set (or shed it)."""
        raise NotImplementedError

    def displace(self, replica: _Replica, now: float) -> None:
        """Move a detected-dead replica's requests off it."""
        raise NotImplementedError

    def refill(self, now: float) -> None:
        """Put capacity back to work after a detection."""

    def placed(self, replica: _Replica, now: float) -> None:
        """A dead replica was re-placed onto spare chips: move it out of
        DEAD."""
        raise NotImplementedError

    def online(self, now: float) -> None:
        """A restarted chip came back (after failover was tried)."""

    def on_scale(self, payload: object, now: float) -> None:
        """An ``_EV_SCALE`` event (provisioning runs only)."""

    def after_iteration(self, replica: _Replica, now: float) -> None:
        """After an iteration end retired, admitted and restarted ``replica``."""
        if not replica.busy and replica.state is ACTIVE:
            self.maybe_idle = True

    def sample(self, now: float) -> None:
        """Counter samples after each event (traced runs only)."""

    def note_outcome(self, request: DecodeRequest, met: bool) -> None:
        """A request ended, meeting its SLO or not."""

    def on_retire(self, record: CompletedDecode, now: float) -> None:
        """A request was served (called after its record is traced)."""

    def link_factor(self, replica: _Replica, now: float) -> float:
        """How many times slower ``replica``'s links run at ``now``."""
        return self.schedule.link_factor(now, replica.chips)

    def degraded(self, replica: _Replica, latency: float, factor: float) -> float:
        """``latency`` of an iteration whose links run ``factor``x slower."""
        return latency * factor


class _SingleModelEngine(_DecodeEngineBase):
    """A decode engine whose every replica serves one model."""

    def __init__(
        self,
        model: DecodeModel,
        *,
        chip: ChipSpec = IPU_MK2,
        num_chips: int = 1,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        plan_cache: PlanCache | None = None,
    ) -> None:
        super().__init__(
            [model],
            chip=chip,
            num_chips=num_chips,
            constraints=constraints,
            plan_cache=plan_cache,
        )
        self.model = model

    def iteration_latency(self, batch_size: int = 1) -> float:
        """Simulated latency of one decode iteration at ``batch_size``.

        The batch-1 value is the natural unit for offered load and SLO
        scales in experiments.  Compiles the buckets on first use.
        """
        return self._cost(self.model.name, self.chip, batch_size).latency


class ContinuousEngine(_SingleModelEngine):
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
        #: Iteration latency per (bucket, link factor) through the degraded
        #: pipeline simulator (sharded models only).
        self._degraded_costs: dict[tuple[int, float], float] = {}

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
        self.warm()
        return _ContinuousRun(
            self, ordered, schedule, watchdog if watchdog is not None else Watchdog()
        ).execute()


class _ContinuousRun(_DecodeRun):
    """ContinuousEngine's policy: every replica admits from one shared queue
    set, a queue-depth autoscaler grows the active fleet, at least
    ``min_replicas`` stay active, and degraded stage links re-simulate the
    sharded pipeline."""

    def __init__(
        self,
        engine: "ContinuousEngine",
        requests: list[DecodeRequest],
        schedule: FaultSchedule,
        watchdog: Watchdog,
    ) -> None:
        self.queues = _Queues()
        replicas = engine._make_replicas(engine.model.name, self.queues)
        for replica in replicas[: engine.min_replicas]:
            replica.state = ACTIVE
        self.min_active = engine.min_replicas
        # Single-chip replicas have no stage links to degrade.
        self.links_priced = engine.num_stages > 1
        super().__init__(engine, requests, schedule, watchdog, replicas)

    def on_arrival(self, request: DecodeRequest, now: float) -> None:
        if self.traced:
            self.engine._trace_enqueue(self.tracer, request)
        self.queues.push(request)
        self.degraded_shed(now)
        self.refill(now)
        self.start_idle(now)

    def refill(self, now: float) -> None:
        """The queue-depth autoscaler, run on every arrival and detection:
        activate idle replicas while the backlog exceeds ``scale_up_queue``
        pending requests per active replica."""
        counts = self.counts
        while counts[IDLE] and len(self.queues) > counts[ACTIVE] * self.engine.scale_up_queue:
            replica = next(r for r in self.replicas if r.state is IDLE)
            self.activate(replica, now)
            self.start_iteration(replica, now)

    def placed(self, replica: _Replica, now: float) -> None:
        self.transition(replica, ACTIVE, now)
        self.start_iteration(replica, now)

    def displace(self, replica: _Replica, now: float) -> None:
        """In-flight requests lose all progress — their KV state died with
        the chips — and go back to the shared queues for a full re-prefill;
        preempted requests whose KV state lived there resume from scratch."""
        stats = self.chips.stats
        if self.traced:
            self.tracer.instant(
                "detect",
                ts=now,
                track=self.fleet_track,
                cat="fault",
                args={"replica": replica.index, "requeued": len(replica.running)},
            )
        inflight = replica.clear()
        for running in inflight:
            stats.requeued += 1
            running.requeues += 1
            lost = self.carry_off(running, -1)
            if self.traced:
                self.trace_requeue(running.request, lost, now)
        for running in inflight:
            if running.request.interactive:
                self.queues.push(running.request)
        self.queues.bq.extendleft(
            running.request for running in reversed(inflight) if not running.request.interactive
        )
        prefill = self.engine.model.prefill_iterations
        for entry in self.queues.preempted:
            if entry.origin != replica.index:
                continue
            stats.requeued += 1
            stats.lost_tokens += entry.tokens_done
            entry.requeues += 1
            entry.restart(prefill(entry.request.prompt_tokens))
            entry.origin = -1

    def degraded(self, replica: _Replica, latency: float, factor: float) -> float:
        """Iteration latency with stage links ``factor``x slower: the sharded
        pipeline re-simulated with stretched stage-boundary transfers (a
        wider bottleneck), memoised per (bucket, factor)."""
        engine = self.engine
        bucket = bucket_for(len(replica.running), engine.model.max_batch_size)
        latency = engine._degraded_costs.get((bucket, factor))
        if latency is None:
            # Memoised by the pool: no extra compile, just the handle.
            sharded = engine.pool.sharded_model(
                engine._graph(engine.model.name, bucket), engine.num_stages
            )
            latency = sharded.degraded_simulator(factor).run(1).total_latency
            engine._degraded_costs[(bucket, factor)] = latency
        return latency

    def sample(self, now: float) -> None:
        """Fleet-level counter tracks: queue depths and active replicas."""
        queues = self.queues
        self.tracer.counter(
            "queues",
            ts=now,
            track=self.fleet_track,
            values={
                "interactive": len(queues.iq),
                "best_effort": len(queues.bq),
                "preempted": len(queues.preempted),
            },
        )
        self.tracer.counter(
            "active_replicas",
            ts=now,
            track=self.fleet_track,
            values={"active": self.counts[ACTIVE]},
        )


class StaticEngine(_SingleModelEngine):
    """Static batching baseline: FIFO batches that run until *all* members
    finish.

    A replica takes up to ``max_batch_size`` queued requests (arrival order,
    deadline-unaware), compiles/runs the bucket chosen at batch-formation
    time, and admits nothing until the longest generation in the batch has
    retired — the head-of-line blocking continuous batching removes.  All
    chips serve from the start (no autoscaling), no preemption, no shedding.
    """

    policy = POLICY_STATIC

    def __init__(
        self,
        model: DecodeModel,
        *,
        chip: ChipSpec = IPU_MK2,
        num_chips: int = 1,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        plan_cache: PlanCache | None = None,
        batch_window: float = 0.0,
    ) -> None:
        """``batch_window`` (seconds) lets a free replica whose queue holds
        less than a full batch wait until the oldest queued request has
        waited that long, then take whatever is queued; ``0.0`` starts a
        batch the moment a replica is free."""
        if not (math.isfinite(batch_window) and batch_window >= 0.0):
            raise ValueError(f"batch_window must be finite and >= 0, got {batch_window}")
        super().__init__(
            model,
            chip=chip,
            num_chips=num_chips,
            constraints=constraints,
            plan_cache=plan_cache,
        )
        self.batch_window = batch_window

    def run(self, requests: Sequence[DecodeRequest]) -> ContinuousReport:
        """Replay one decode workload through static batches."""
        ordered = self._check_requests(requests)
        self.warm()
        return _StaticRun(self, ordered).execute()


class _StaticRun(_DecodeRun):
    """StaticEngine's policy: every replica is active from the start and
    takes a FIFO batch only once its previous batch fully retired.  With a
    batch window, a free replica facing less than a full batch waits for
    the window of the oldest queued request; an ``_EV_SCALE`` timer at that
    instant brings the idle replicas back."""

    counter_names = ("iterations", "preemptions", "shed", "scale_ups", "scale_downs")

    def __init__(self, engine: StaticEngine, requests: list[DecodeRequest]) -> None:
        self.queues = _Queues()
        replicas = engine._make_replicas(engine.model.name, self.queues)
        for replica in replicas:
            replica.state = ACTIVE
        self.min_active = len(replicas)
        self.window = engine.batch_window
        #: The latest window timer pushed (-inf: none yet).
        self.timer = -math.inf
        super().__init__(engine, requests, FaultSchedule(), Watchdog(), replicas)

    def integrate(self, now: float) -> None:
        # The whole fleet is active over the whole event window (empty when
        # the trace is), and nothing transitions: one closed form at the end.
        self.active_chip_seconds = (now - self.accrued) * (self.counts[ACTIVE] * self.stages)
        self.provisioned_chip_seconds = self.active_chip_seconds

    def on_arrival(self, request: DecodeRequest, now: float) -> None:
        if self.traced:
            self.engine._trace_enqueue(self.tracer, request)
        self.queues.bq.append(request)  # arrival order, deadline-unaware
        self.start_idle(now)

    def on_scale(self, payload: object, now: float) -> None:
        """A batch window closed: idle replicas take what is queued."""
        self.start_idle(now)

    def admit(self, replica: _Replica, now: float) -> None:
        queue = self.queues.bq
        if replica.running or not queue:
            return
        max_batch = self.engine.model.max_batch_size
        if self.window and len(queue) < max_batch:
            closes = queue[0].arrival_time + self.window
            if now < closes:
                # FIFO: the oldest queued request only leaves with a batch,
                # so window timers are pushed in increasing time order.
                if closes > self.timer:
                    self.timer = closes
                    heapq.heappush(self.events, (closes, _EV_SCALE, next(self.seq), None))
                return
        for _ in range(min(len(queue), max_batch)):
            replica.join(self.admit_one(queue.popleft(), replica, now))
        # The program is fixed for the whole batch lifetime: the bucket
        # holding the batch as formed, padding included as members retire.
        replica.bucket = bucket_for(len(replica.running), max_batch)
