"""Multi-model, multi-tenant serving fleet over one shared worker pool.

:class:`FleetEngine` serves N model deployments from one fleet.  It shares
the decode-engine core with :class:`~repro.serving.continuous.
ContinuousEngine` (programs, tracing, retirement, reports and the chip/fault
mechanism of :mod:`repro.serving.continuous`) but not its scheduling
policy: every replica is a *(model, chip-group, generation)* binding
(:class:`~repro.serving.continuous._Replica`) with its own routed queues, a
pluggable :class:`~repro.serving.router.Router` picks the replica each
request queues on, and idle replicas **re-bind** across models as traffic shifts — cheap
precisely because the compiler's per-bucket programs live in the shared
:class:`~repro.serving.plan_cache.PlanCache` and are shared across tenants
by fingerprint.

Per-request policy order (see :mod:`repro.serving.router`)::

    route → admit → preempt → shed → autoscale

* **route** — at arrival, the router picks a compatible (or idle,
  re-bindable) replica from an immutable fleet snapshot; the request then
  stays on that replica's queues.
* **admit** — at each of that replica's iteration boundaries: interactive
  requests earliest-deadline-first across *all* tenants, then resumed
  preemptions, then best-effort FIFO — SLO class, not tenant, is the
  scheduling currency.
* **preempt** — waiting interactive requests (any tenant) evict resident
  best-effort requests (any tenant), progress kept on the replica.
* **shed** — at its admission boundary a request whose projected completion
  (remaining iterations × the replica class's full-batch iteration latency)
  already misses its deadline is rejected.
* **autoscale** — replicas activate on demand when routed work arrives and
  deactivate when they drain, so an idle deployment consumes no chips.

The pool may be heterogeneous (``chip_classes``: e.g. the fig22 GPU baseline
joining an IPU fleet); programs are compiled and priced per hardware class,
and routers see the class through their cost callbacks.

Chaos is first-class here too: ``run(faults=..., watchdog=...)`` injects
chip deaths, restarts and (optionally per-chip-group) link-degradation
windows from :mod:`repro.serving.faults` as virtual-time events.  Under
chaos the router's fleet view carries per-replica **health** (``healthy`` /
``degraded-link`` / ``restarting`` / ``dead``) and the live link slowdown,
so a health-aware router prices sick capacity honestly and routes around
dying replicas.  When the watchdog detects a death, requests pulled off the
dead replica re-enter the *router* — not a replica-local queue — so they
may land on another model's replica (**cross-model failover**, charged a
full re-prefill), and the failover re-placement may move a binding onto
spare chips of a different hardware class.  The watchdog adds the
fleet-scale degraded-mode policy: per-tenant **retry budgets** with
deadline-aware honest drops (a requeue whose projected completion already
misses its deadline is shed immediately), and **brownout admission
control** — below a surviving-capacity watermark, best-effort traffic is
shed at arrival and interactive admission serves tenants still below their
fairness floor first.

Everything runs in virtual time: compile cost is wall-clock-only
(``warm_compile_seconds``), so fleet runs are bit-identical at any compile
parallelism and under permutation of tenant workload streams (compose them
with :func:`~repro.serving.request.merge_decode_workloads`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.obs.registry import publish_stats
from repro.obs.trace import Tracer, get_tracer
from repro.serving.batcher import bucket_for
from repro.serving.continuous import (
    _EV_ARRIVAL,
    _EV_FAULT,
    _EV_ITER_END,
    _EV_SCALE,
    DecodeModel,
    _ChipFaults,
    _DecodeEngineBase,
    _Replica,
    _Running,
)
from repro.serving.faults import FaultEvent, FaultSchedule, Watchdog
from repro.serving.metrics import ContinuousReport
from repro.serving.plan_cache import PlanCache
from repro.serving.planner import FleetScaler, ScalerObservation
from repro.serving.request import (
    DECODE_SHED,
    CompletedDecode,
    DecodeRequest,
    TenantSpec,
)
from repro.serving.router import (
    HEALTH_DEAD,
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    HEALTH_RESTARTING,
    CostAwareRouter,
    FleetView,
    ReplicaView,
    Router,
)
from repro.serving.worker import IterationCost

#: Policy prefix of fleet reports; the router name is appended.
POLICY_FLEET = "fleet"

#: Payload of a periodic scaler tick (_EV_SCALE).
_SCALE_TICK = object()


@dataclass(frozen=True)
class _ProvisionReady:
    """_EV_SCALE payload: a booting replica finishes provisioning.  The
    ``ready`` stamp must still match the booting table — a cancelled or
    re-issued boot leaves a stale event behind, which is simply dropped."""

    index: int
    ready: float


@dataclass
class _FleetReplica(_Replica):
    """A fleet replica: the shared binding plus its own routed queues.

    Unlike the single-model engines, whose replicas admit from engine-wide
    queues, a fleet replica owns the queues of the requests routed to it —
    which is what makes a request's placement well-defined the moment the
    router decides, and keeps admission replica-local (no cross-replica
    migration, so KV locality is trivially preserved).
    """

    iq: list = field(default_factory=list)
    """EDF heap of routed interactive requests: (deadline, arrival, id, req)."""
    bq: deque = field(default_factory=deque)
    """FIFO of routed best-effort requests."""
    preempted: deque = field(default_factory=deque)
    """Preempted residents awaiting resumption on this replica."""

    @property
    def queued(self) -> int:
        return len(self.iq) + len(self.bq) + len(self.preempted)


class FleetEngine(_DecodeEngineBase):
    """Continuous batching for a heterogeneous mix of models and tenants.

    ``deployments`` are the models the fleet serves (unique names, uniform
    ``num_stages`` so chip groups are interchangeable across re-binds).
    ``tenants`` declares the traffic sources and their fairness floors —
    unknown tenants in the workload are served too (with no floor), so the
    list is a promise registry, not an ACL.  ``chip_classes`` maps chip
    index → :class:`ChipSpec` for non-default hardware (single-stage fleets
    only).  ``router`` defaults to :class:`~repro.serving.router.
    CostAwareRouter`.
    """

    fault_counters = ("requeued", "degraded_sheds", "brownout_sheds", "retry_drops")

    def __init__(
        self,
        deployments: Sequence[DecodeModel],
        *,
        tenants: Sequence[TenantSpec] | None = None,
        chip: ChipSpec = IPU_MK2,
        num_chips: int = 2,
        chip_classes: dict[int, ChipSpec] | None = None,
        router: Router | None = None,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        plan_cache: PlanCache | None = None,
        cache_dir: str | Path | None = None,
        jobs: int | None = None,
        shed: bool = True,
    ) -> None:
        tenants = tenants or ()
        tenant_names = [tenant.name for tenant in tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ValueError(f"duplicate tenant names: {sorted(tenant_names)}")
        super().__init__(
            deployments,
            chip=chip,
            num_chips=num_chips,
            constraints=constraints,
            plan_cache=plan_cache,
            cache_dir=cache_dir,
            jobs=jobs,
            chip_classes=chip_classes,
        )
        self.tenants = {tenant.name: tenant for tenant in tenants}
        self.router = router if router is not None else CostAwareRouter()
        self.shed_enabled = shed

    # ------------------------------------------------------------------ #
    @property
    def policy(self) -> str:
        """Reported policy string: ``fleet-<router name>``."""
        return f"{POLICY_FLEET}-{self.router.name}"

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

    def iteration_latency(
        self, model: str, batch_size: int = 1, *, chip_class: ChipSpec | None = None
    ) -> float:
        """Simulated decode-iteration latency of ``model`` at ``batch_size``
        on ``chip_class`` (default: the pool's default class).  The batch-1
        value on the default class is the natural offered-load unit."""
        target = chip_class if chip_class is not None else self.pool.chip
        return self._cost(model, target, batch_size).latency

    def _view(
        self,
        now: float,
        replicas: list[_FleetReplica],
        tenant: str = "",
        health=None,
    ) -> FleetView:
        """Immutable router snapshot.  ``health`` is an optional
        ``(replica, now) -> (state, link_factor)`` callback supplied by a
        chaos run; without it every replica reports healthy (fault-free runs
        build the exact view they always did)."""
        if health is None:
            state = lambda replica, when: (HEALTH_HEALTHY, 1.0)  # noqa: E731
        else:
            state = health
        views = []
        for replica in replicas:
            health_state, link_factor = state(replica, now)
            views.append(
                ReplicaView(
                    index=replica.index,
                    model=replica.model,
                    chip_class=replica.chip_class.name,
                    queued=replica.queued,
                    resident=len(replica.running),
                    busy=replica.busy,
                    health=health_state,
                    link_factor=link_factor,
                )
            )
        return FleetView(
            now=now,
            replicas=tuple(views),
            iteration_latency=lambda model, index: self._cost(
                model,
                replicas[index].chip_class,
                self._deployments[model].max_batch_size,
                tenant,
            ).latency,
            ideal_iterations=lambda model, prompt, output: self._deployments[
                model
            ].ideal_iterations(prompt, output),
            max_batch=lambda model: self._deployments[model].max_batch_size,
        )

    # ------------------------------------------------------------------ #
    # Tracing: the shared span taxonomy with one request lane *per tenant*,
    # so Perfetto shows per-tenant activity side by side, and models named
    # on lifecycle events (docs/observability.md).
    # ------------------------------------------------------------------ #
    def _tenant_track(self, tenant: str) -> str:
        return f"{self.trace_group}/tenant/{tenant or 'default'}"

    def _request_lane(self, request: DecodeRequest) -> str:
        return self._tenant_track(request.tenant)

    def _failover_args(self, replica: _FleetReplica) -> dict:
        return {
            **super()._failover_args(replica),
            "model": replica.model,
            "class": replica.chip_class.name,
        }

    def _link_args(self, fault: FaultEvent) -> dict:
        chips = ",".join(str(chip) for chip in fault.chips) or "fleet"
        return {**super()._link_args(fault), "chips": chips}

    def _trace_done(self, tracer, record, replica, now) -> None:
        super()._trace_done(tracer, record, replica, now, model=record.request.model)

    def _publish_run_metrics(
        self, tracer: Tracer, report: ContinuousReport, counters: dict[str, int]
    ) -> None:
        """The shared run metrics plus the fairness index and one
        goodput/attainment block per tenant (the per-tenant lanes' numeric
        counterpart)."""
        super()._publish_run_metrics(tracer, report, counters)
        prefix = f"serving.{self.trace_group}"
        fairness = report.fairness
        publish_stats(
            tracer.metrics,
            prefix,
            {"fairness_x1000": -1 if math.isnan(fairness) else int(round(fairness * 1000))},
        )
        for tenant, slice_report in report.per_tenant().items():
            publish_stats(
                tracer.metrics,
                f"{prefix}.tenant.{tenant or 'default'}",
                {
                    "completed": slice_report.total_completed,
                    "shed": slice_report.shed,
                    "slo_met": slice_report.slo_met,
                },
            )

    # ------------------------------------------------------------------ #
    def run(
        self,
        requests: Sequence[DecodeRequest],
        *,
        faults: FaultSchedule | None = None,
        watchdog: Watchdog | None = None,
        scaler: FleetScaler | None = None,
    ) -> ContinuousReport:
        """Replay one multi-tenant decode workload and return the report.

        ``faults`` injects chip deaths, restarts and link-degradation
        windows (optionally scoped to a chip group) as first-class
        virtual-time events; ``watchdog`` sets the detection delay and the
        fleet's degraded-mode policy — degraded-queue shedding, per-tenant
        retry budgets with deadline-aware honest drops, and brownout
        admission control (see :class:`~repro.serving.faults.Watchdog`).
        Both default to a fault-free run, which behaves exactly as before.

        ``scaler`` turns provisioning into an explicit, paid-for decision
        (:class:`~repro.serving.planner.FleetScaler`): only provisioned
        replicas are routable, new ones become routable
        ``scaler.provision_delay`` virtual seconds after the scaler asks,
        and the report charges ``provisioned_chip_seconds`` for every
        chip-second held — booting included.  Requires a health-aware
        router (unprovisioned replicas are hidden from routing as
        ``restarting``).  Without a scaler every replica is routable from
        the start and provisioning is free, exactly as before.

        Pure virtual time, single-threaded event loop: identical inputs give
        bit-identical reports at any plan-cache ``jobs`` width, and
        workloads composed with
        :func:`~repro.serving.request.merge_decode_workloads` make the run
        invariant under permutation of the tenant streams too.  Chaos runs
        inherit both properties — compile cost (including failover rewarms)
        stays wall-clock-only.
        """
        ordered = self._check_requests(requests)
        schedule = (faults if faults is not None else FaultSchedule()).for_fleet(
            self.num_chips
        )
        wd = watchdog if watchdog is not None else Watchdog()
        chaos = bool(schedule.events)
        scaling = scaler is not None
        if scaling and chaos:
            raise ValueError(
                "scaler and faults are not yet composable: provisioning and "
                "failover both re-assign replicas; run them separately"
            )
        if scaling and not getattr(self.router, "health_aware", False):
            raise ValueError(
                "a scaler needs a health-aware router (unprovisioned replicas "
                "are hidden from routing as 'restarting'); use e.g. "
                "CostAwareRouter(health_aware=True)"
            )
        tracer = get_tracer()
        traced = tracer.enabled
        fleet_track = f"{self.trace_group}/fleet"
        stages = self.num_stages

        replicas: list[_FleetReplica] = self._make_replicas(_FleetReplica)
        # Accounting of requests pulled off dead replicas, restored on
        # re-admission (or shed): requeue/migration/loss counts, original
        # admission time, preemption count, and the replica whose death
        # displaced them (to recognise a cross-replica migration on
        # re-admission).
        requeue_counts: dict[int, int] = {}
        first_admits: dict[int, float] = {}
        migration_counts: dict[int, int] = {}
        lost_token_counts: dict[int, int] = {}
        preempt_counts: dict[int, int] = {}
        requeue_origins: dict[int, int] = {}
        #: Progress-losing requeues charged so far, per tenant.
        retry_spend: dict[str, int] = {}
        #: Deadline-carrying outcomes per tenant (met / total), feeding the
        #: brownout fairness-floor ordering.
        deadlined_total: dict[str, int] = {}
        deadlined_met: dict[str, int] = {}
        records: list[CompletedDecode] = []
        seq = itertools.count()
        events: list[tuple[float, int, int, object]] = []
        for request in ordered:
            heapq.heappush(
                events, (request.arrival_time, _EV_ARRIVAL, next(seq), request)
            )
        if scaling and ordered:
            # First capacity decision one interval after traffic starts (the
            # first window of arrivals is its observation).
            heapq.heappush(
                events,
                (
                    ordered[0].arrival_time + scaler.interval,
                    _EV_SCALE,
                    next(seq),
                    _SCALE_TICK,
                ),
            )

        stats_before = self.plan_cache.stats.snapshot()
        counters = {
            "iterations": 0,
            "preemptions": 0,
            "shed": 0,
            "scale_ups": 0,
            "scale_downs": 0,
            "rebinds": 0,
            "migrations": 0,
            "provision_ups": 0,
            "provision_downs": 0,
        }
        served_by_tenant: dict[str, int] = {}
        #: Requests the router had no candidate for (every replica busy on
        #: other models); re-offered in arrival order as capacity frees.
        unrouted: deque[DecodeRequest] = deque()
        busy_chip_seconds = 0.0
        active_chip_seconds = 0.0
        peak_active = 0
        last_time = ordered[0].arrival_time if ordered else 0.0
        # Scaler state: routable replicas, boots in flight (index -> ready
        # time), per-model arrivals since the last tick, arrivals still in
        # the event heap (the tick-rescheduling fuel gauge), and the
        # provisioned-capacity integral the report charges.
        provisioned: set[int] = set(range(len(replicas)))
        booting: dict[int, float] = {}
        window_counts: dict[str, int] = {}
        arrivals_remaining = len(ordered)
        provisioned_chip_seconds = 0.0
        peak_provisioned = len(replicas)
        if scaling:
            provisioned = set(range(min(max(1, scaler.min_replicas), len(replicas))))
            peak_provisioned = len(provisioned)

        def active_count() -> int:
            return sum(1 for replica in replicas if replica.active)

        def integrate(now: float) -> None:
            nonlocal active_chip_seconds, provisioned_chip_seconds, last_time
            span = now - last_time
            active_chip_seconds += span * active_count() * stages
            if scaling:
                provisioned_chip_seconds += (
                    span * (len(provisioned) + len(booting)) * stages
                )
            last_time = now

        def tenant_sample(tenant: str, now: float) -> None:
            """Per-tenant queue/goodput counters on the tenant's own track."""
            queued = (
                sum(
                    1
                    for replica in replicas
                    for _, _, _, req in replica.iq
                    if req.tenant == tenant
                )
                + sum(
                    1
                    for replica in replicas
                    for req in replica.bq
                    if req.tenant == tenant
                )
                + sum(1 for req in unrouted if req.tenant == tenant)
            )
            tracer.counter(
                "tenant",
                ts=now,
                track=self._tenant_track(tenant),
                values={"queued": queued, "served": served_by_tenant.get(tenant, 0)},
            )

        def fleet_sample(now: float) -> None:
            tracer.counter(
                "fleet",
                ts=now,
                track=fleet_track,
                values={"active": active_count(), "rebinds": counters["rebinds"]},
            )

        def describe(replica: _FleetReplica, now: float) -> tuple[str, float]:
            """Per-replica health as the router's view reports it: while any
            replacement chip is booting, dead replicas read ``restarting``."""
            if replica.dead:
                return (HEALTH_RESTARTING if chips.warming else HEALTH_DEAD), 1.0
            factor = schedule.link_factor(now, replica.chips)
            if factor > 1.0:
                return HEALTH_DEGRADED, factor
            return HEALTH_HEALTHY, 1.0

        def provision_describe(
            replica: _FleetReplica, now: float
        ) -> tuple[str, float]:
            """Routing view under a scaler: unprovisioned replicas read as
            restarting — not routable, not rebindable — until provisioned."""
            if replica.index not in provisioned:
                return HEALTH_RESTARTING, 1.0
            return HEALTH_HEALTHY, 1.0

        health_cb = describe if chaos else (provision_describe if scaling else None)

        def brownout() -> bool:
            """Whether surviving capacity is below the brownout watermark."""
            if wd.brownout_watermark is None or not chips.dead_chips:
                return False
            surviving = (self.num_chips - len(chips.dead_chips)) / self.num_chips
            return surviving < wd.brownout_watermark

        def note_outcome(request: DecodeRequest, met: bool) -> None:
            """Track per-tenant deadline attainment (drives brownout order)."""
            if request.deadline is None:
                return
            tenant = request.tenant
            deadlined_total[tenant] = deadlined_total.get(tenant, 0) + 1
            if met:
                deadlined_met[tenant] = deadlined_met.get(tenant, 0) + 1

        def below_floor(tenant: str) -> bool:
            """Whether ``tenant`` is currently under its promised fairness
            floor (tenants without a floor, or with no deadline-carrying
            outcome yet, are never "below")."""
            spec = self.tenants.get(tenant)
            if spec is None or spec.fairness_floor <= 0.0:
                return False
            total = deadlined_total.get(tenant, 0)
            if total == 0:
                return False
            return deadlined_met.get(tenant, 0) / total < spec.fairness_floor

        def pop_interactive(replica: _FleetReplica) -> tuple:
            """EDF pop — except under brownout, where interactive admission
            serves tenants still below their fairness floor first (then EDF):
            the scarce surviving capacity goes to restoring broken promises
            before improving already-met ones."""
            if not brownout() or len(replica.iq) <= 1:
                return heapq.heappop(replica.iq)
            best = min(
                range(len(replica.iq)),
                key=lambda position: (
                    0 if below_floor(replica.iq[position][3].tenant) else 1,
                    replica.iq[position][0],
                    replica.iq[position][1],
                    replica.iq[position][2],
                ),
            )
            entry = replica.iq[best]
            replica.iq[best] = replica.iq[-1]
            replica.iq.pop()
            heapq.heapify(replica.iq)
            return entry

        def shed_check(request: DecodeRequest, replica: _FleetReplica, now: float) -> bool:
            """Projected completion vs deadline, priced at this replica
            class's full-batch iteration latency."""
            if not self.shed_enabled or request.deadline is None:
                return False
            deployment = self._deployments[replica.model]
            unit = self._cost(
                replica.model, replica.chip_class, deployment.max_batch_size
            ).latency
            projected = now + deployment.total_iterations(request) * unit
            return projected > request.deadline

        def shed(request: DecodeRequest, now: float) -> None:
            # A request requeued off a dead replica and shed afterwards
            # keeps its real first admission time and loss accounting; a
            # never-admitted shed records NaN / the -1 sentinel as always.
            counters["shed"] += 1
            requeue_origins.pop(request.request_id, None)
            record = CompletedDecode(
                request=request,
                status=DECODE_SHED,
                admitted_time=first_admits.pop(request.request_id, float("nan")),
                first_token_time=float("nan"),
                completion_time=now,
                tokens_generated=0,
                replica=-1,
                preemptions=preempt_counts.pop(request.request_id, 0),
                requeues=requeue_counts.pop(request.request_id, 0),
                migrations=migration_counts.pop(request.request_id, 0),
                lost_tokens=lost_token_counts.pop(request.request_id, 0),
            )
            records.append(record)
            note_outcome(request, False)
            if traced:
                self._trace_done(tracer, record, None, now)

        def admit_one(
            request: DecodeRequest, replica: _FleetReplica, now: float
        ) -> _Running:
            if traced:
                self._trace_admit(tracer, request, replica, now, tenant=request.tenant)
            deployment = self._deployments[replica.model]
            migrations = migration_counts.pop(request.request_id, 0)
            origin = requeue_origins.pop(request.request_id, None)
            if origin is not None and origin != replica.index:
                # The requeue landed on a different replica than the one
                # whose death displaced it: that is a cross-replica (often
                # cross-model) failover migration, charged the same full
                # re-prefill as any requeue.
                migrations += 1
                counters["migrations"] += 1
                if traced:
                    tracer.instant(
                        "migrate",
                        ts=now,
                        track=self._chip_tracks(replica)[0],
                        cat="fault",
                        args={
                            "request": request.request_id,
                            "from": origin,
                            "to": replica.index,
                        },
                    )
            return _Running(
                request=request,
                admitted_time=first_admits.pop(request.request_id, now),
                prefill_remaining=deployment.prefill_iterations(request.prompt_tokens),
                origin=replica.index,
                preemptions=preempt_counts.pop(request.request_id, 0),
                requeues=requeue_counts.pop(request.request_id, 0),
                migrations=migrations,
                lost_tokens=lost_token_counts.pop(request.request_id, 0),
            )

        def admit(replica: _FleetReplica, now: float) -> None:
            """Replica-local admission: EDF interactive (cross-tenant), then
            preemption of best-effort residents, then resumed preemptions,
            then best-effort FIFO — ContinuousEngine's admission order over
            this replica's own routed queues."""
            running = replica.running
            max_batch = self._deployments[replica.model].max_batch_size
            while replica.iq and len(running) < max_batch:
                _, _, _, request = pop_interactive(replica)
                if shed_check(request, replica, now):
                    shed(request, now)
                    continue
                running.append(admit_one(request, replica, now))
            while replica.iq and len(running) >= max_batch:
                victim_index = None
                for position in range(len(running) - 1, -1, -1):
                    if not running[position].request.interactive:
                        victim_index = position
                        break
                if victim_index is None:
                    break
                _, _, _, request = pop_interactive(replica)
                if shed_check(request, replica, now):
                    shed(request, now)
                    continue
                victim = running.pop(victim_index)
                victim.preemptions += 1
                counters["preemptions"] += 1
                replica.preempted.appendleft(victim)
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
            # Preempted work resumes on its own replica only (its KV state
            # never left these chips), before fresh best-effort admissions.
            while replica.preempted and len(running) < max_batch:
                resumed = replica.preempted.popleft()
                if traced:
                    tracer.instant(
                        "resume",
                        ts=now,
                        track=self._chip_tracks(replica)[0],
                        cat="lifecycle",
                        args={"request": resumed.request.request_id},
                    )
                running.append(resumed)
            while replica.bq and len(running) < max_batch:
                running.append(admit_one(replica.bq.popleft(), replica, now))

        def retired(record: CompletedDecode, now: float) -> None:
            note_outcome(record.request, record.met_slo)
            tenant = record.request.tenant
            served_by_tenant[tenant] = served_by_tenant.get(tenant, 0) + 1
            if traced:
                tenant_sample(tenant, now)

        def start_iteration(replica: _FleetReplica, now: float) -> None:
            nonlocal busy_chip_seconds
            if replica.busy or not replica.active or replica.dead:
                return
            if scaling and replica.index not in provisioned:
                return  # deprovisioned mid-flight; routing never re-feeds it
            admit(replica, now)
            if not replica.running:
                # Drained: release the chips (demand-driven autoscaling).
                integrate(now)
                replica.active = False
                counters["scale_downs"] += 1
                if traced:
                    tracer.instant(
                        "scale-down",
                        ts=now,
                        track=fleet_track,
                        cat="autoscale",
                        args={"replica": replica.index, "model": replica.model},
                    )
                return
            cost = self._cost(replica.model, replica.chip_class, len(replica.running))
            latency = cost.latency
            if chaos:
                # Iterations started inside a link-degradation window pay
                # the slowdown (host/NIC links for single-chip groups,
                # stage-boundary transfers for sharded ones); windows scoped
                # to a chip set only tax replicas backed by those chips.
                factor = schedule.link_factor(now, replica.chips)
                if factor > 1.0:
                    latency *= factor
            replica.busy = True
            replica.iter_start = now
            replica.iter_latency = latency
            counters["iterations"] += 1
            busy_chip_seconds += latency * stages
            if traced:
                self._trace_iteration(tracer, replica, now, latency, model=replica.model)
            heapq.heappush(
                events,
                (
                    now + latency,
                    _EV_ITER_END,
                    next(seq),
                    (replica.index, replica.epoch),
                ),
            )

        def activate(replica: _FleetReplica, now: float) -> None:
            nonlocal peak_active
            if replica.active:
                return
            integrate(now)
            replica.active = True
            counters["scale_ups"] += 1
            peak_active = max(peak_active, active_count())
            if traced:
                tracer.instant(
                    "scale-up",
                    ts=now,
                    track=fleet_track,
                    cat="autoscale",
                    args={"replica": replica.index, "model": replica.model},
                )

        def bind(replica: _FleetReplica, model: str, now: float) -> None:
            """Bind (or re-bind) an idle replica to ``model``.  A re-bind
            bumps the binding generation — its compiled programs are already
            shared in the plan cache, so the switch costs no virtual time."""
            if replica.busy or replica.running or replica.queued or replica.dead:
                raise RuntimeError(
                    f"router bound busy or dead replica {replica.index} to "
                    f"{model!r} (bound to {replica.model!r}); only idle live "
                    "replicas re-bind"
                )
            previous = replica.model
            replica.model = model
            if previous:
                replica.generation += 1
                counters["rebinds"] += 1
                if traced:
                    tracer.instant(
                        "rebind",
                        ts=now,
                        track=fleet_track,
                        cat="routing",
                        args={
                            "replica": replica.index,
                            "from": previous,
                            "to": model,
                            "generation": replica.generation,
                        },
                    )

        def place(request: DecodeRequest, now: float) -> bool:
            """Offer ``request`` to the router; queue it on the chosen
            replica.  False = no compatible or idle replica right now (the
            caller parks the request until capacity frees).  A health-blind
            router may queue onto a dead replica — the request then waits
            for failover, exactly the limbo health-aware routing avoids."""
            view = self._view(now, replicas, request.tenant, health=health_cb)
            index = self.router.route(request, view)
            if index is None:
                return False
            if not 0 <= index < len(replicas):
                raise RuntimeError(
                    f"router {self.router.name!r} returned replica {index}; "
                    f"fleet has {len(replicas)}"
                )
            replica = replicas[index]
            if replica.model != request.model:
                bind(replica, request.model, now)
            self._bucket_costs(request.model, replica.chip_class, request.tenant)
            if request.interactive:
                deadline = request.deadline if request.deadline is not None else math.inf
                heapq.heappush(
                    replica.iq,
                    (deadline, request.arrival_time, request.request_id, request),
                )
            else:
                replica.bq.append(request)
            if not replica.dead:
                activate(replica, now)
                start_iteration(replica, now)
            return True

        def drain_unrouted(now: float) -> None:
            """Re-offer parked requests in arrival order whenever capacity
            may have freed (a replica drained and became rebindable)."""
            placed_any = False
            remaining: deque[DecodeRequest] = deque()
            while unrouted:
                request = unrouted.popleft()
                if place(request, now):
                    placed_any = True
                else:
                    remaining.append(request)
            unrouted.extend(remaining)
            if placed_any and traced:
                fleet_sample(now)

        # ----------------------------- faults ------------------------- #
        def degraded_shed(now: float) -> None:
            """Degraded-mode admission: while any replica is dead, cap the
            fleet's total best-effort backlog at ``degraded_shed_queue`` per
            surviving active replica, shedding newest-first across all
            replica-local queues (oldest backlog keeps its slot;
            interactive traffic is governed by its own deadline check)."""
            if wd.degraded_shed_queue is None or not chips.degraded:
                return
            cap = wd.degraded_shed_queue * max(1, active_count())
            total = sum(len(replica.bq) for replica in replicas) + sum(
                1 for request in unrouted if not request.interactive
            )
            dropped = False
            while total > cap:
                backlogged = [replica for replica in replicas if replica.bq]
                newest_parked = max(
                    (
                        (request.arrival_time, request.request_id)
                        for request in unrouted
                        if not request.interactive
                    ),
                    default=None,
                )
                if backlogged:
                    victim = max(
                        backlogged,
                        key=lambda replica: (
                            replica.bq[-1].arrival_time,
                            replica.bq[-1].request_id,
                        ),
                    )
                    newest_queued = (
                        victim.bq[-1].arrival_time,
                        victim.bq[-1].request_id,
                    )
                else:
                    victim = None
                    newest_queued = None
                if newest_parked is not None and (
                    newest_queued is None or newest_parked > newest_queued
                ):
                    parked = next(
                        request
                        for request in reversed(unrouted)
                        if not request.interactive
                        and (request.arrival_time, request.request_id)
                        == newest_parked
                    )
                    unrouted.remove(parked)
                    chips.stats.degraded_sheds += 1
                    shed(parked, now)
                elif victim is not None:
                    chips.stats.degraded_sheds += 1
                    shed(victim.bq.pop(), now)
                else:
                    break
                total -= 1
                dropped = True
            if dropped and traced:
                chips.sample(now)

        def placed(replica: _FleetReplica, now: float) -> None:
            if replica.queued:
                activate(replica, now)
                start_iteration(replica, now)

        def requeue_shed_check(
            request: DecodeRequest, chip_class: ChipSpec, now: float
        ) -> bool:
            """Honest deadline check at requeue time: the full re-prefill is
            priced at the dead replica's class; when even an immediate
            restart misses the deadline, the retry would only waste
            surviving capacity."""
            if not self.shed_enabled or request.deadline is None:
                return False
            deployment = self._deployments[request.model]
            unit = self._cost(
                request.model, chip_class, deployment.max_batch_size
            ).latency
            return now + deployment.total_iterations(request) * unit > request.deadline

        def requeue_one(running: _Running, origin: _FleetReplica, now: float) -> None:
            """One progress-losing requeue off a dead replica: charge the
            tenant's retry budget, drop honestly when the budget is spent or
            the deadline is already unreachable, otherwise re-offer through
            the router — cross-model failover happens right here, because
            the router may pick any compatible or rebindable replica."""
            request = running.request
            rid = request.request_id
            stats = chips.stats
            stats.lost_tokens += running.tokens_done
            first_admits[rid] = running.admitted_time
            migration_counts[rid] = running.migrations
            lost_token_counts[rid] = running.lost_tokens + running.tokens_done
            preempt_counts[rid] = running.preemptions
            tenant = request.tenant
            spent = retry_spend.get(tenant, 0)
            exhausted = wd.retry_budget is not None and spent >= wd.retry_budget
            if exhausted or requeue_shed_check(request, origin.chip_class, now):
                # Dropped, not retried: the record keeps only the requeues
                # that actually bought another attempt.
                requeue_counts[rid] = running.requeues
                stats.retry_drops += 1
                if traced:
                    tracer.instant(
                        "retry-drop",
                        ts=now,
                        track=self._tenant_track(tenant),
                        cat="fault",
                        args={
                            "request": rid,
                            "reason": "budget" if exhausted else "deadline",
                        },
                    )
                shed(request, now)
                return
            retry_spend[tenant] = spent + 1
            requeue_counts[rid] = running.requeues + 1
            requeue_origins[rid] = origin.index
            stats.requeued += 1
            if traced:
                tracer.instant(
                    "requeue",
                    ts=now,
                    track=self._tenant_track(tenant),
                    cat="fault",
                    args={"request": rid, "lost_tokens": running.tokens_done},
                )
            if not place(request, now):
                unrouted.append(request)

        def on_detect(replica: _FleetReplica, now: float) -> None:
            if traced:
                tracer.instant(
                    "detect",
                    ts=now,
                    track=fleet_track,
                    cat="fault",
                    args={
                        "replica": replica.index,
                        "requeued": len(replica.running) + len(replica.preempted),
                    },
                )
            # In-flight and preempted requests lose all progress — their KV
            # state died with the chips — and re-enter the router for
            # re-admission (full re-prefill), budget and deadline allowing.
            inflight = list(replica.running)
            replica.running = []
            displaced = list(replica.preempted)
            replica.preempted.clear()
            for running in inflight:
                requeue_one(running, replica, now)
            for entry in displaced:
                requeue_one(entry, replica, now)
            # Queued-but-never-admitted requests held no progress: they
            # re-route for free (no budget charge, no requeue count).
            parked = [entry[3] for entry in sorted(replica.iq)] + list(replica.bq)
            replica.iq = []
            replica.bq.clear()
            for request in parked:
                if not place(request, now):
                    unrouted.append(request)
            chips.try_place(now)
            degraded_shed(now)
            drain_unrouted(now)
            for survivor in replicas:
                if survivor.active and not survivor.busy:
                    start_iteration(survivor, now)
            if traced:
                chips.sample(now)

        def on_arrival(request: DecodeRequest, now: float) -> None:
            if traced:
                self._trace_enqueue(tracer, request, model=request.model)
            if brownout() and not request.interactive:
                # Brownout admission control: below the surviving-capacity
                # watermark, best-effort traffic is shed at the door so the
                # remaining chips serve deadline traffic.
                chips.stats.brownout_sheds += 1
                if traced:
                    tracer.instant(
                        "brownout-shed",
                        ts=now,
                        track=self._tenant_track(request.tenant),
                        cat="fault",
                        args={"request": request.request_id},
                    )
                shed(request, now)
            elif not place(request, now):
                # Every replica is busy serving other models: park until a
                # replica drains and becomes rebindable.
                unrouted.append(request)
            if chaos:
                degraded_shed(now)
            if traced:
                tenant_sample(request.tenant, now)
                fleet_sample(now)

        def provision_sample(now: float) -> None:
            tracer.counter(
                "provisioning",
                ts=now,
                track=fleet_track,
                values={"provisioned": len(provisioned), "booting": len(booting)},
            )

        def apply_target(target: int, now: float) -> None:
            """Move provisioned+booting toward ``target`` replicas.  Up:
            lowest-index spares start booting (routable after the delay).
            Down: cancel the newest boots first (most lead time wasted
            otherwise), then release idle provisioned replicas highest
            index first; replicas holding work are never released."""
            nonlocal peak_provisioned
            current = len(provisioned) + len(booting)
            for replica in replicas:
                if current >= target:
                    break
                index = replica.index
                if index in provisioned or index in booting or replica.dead:
                    continue
                counters["provision_ups"] += 1
                ready = now + scaler.provision_delay
                if scaler.provision_delay <= 0:
                    provisioned.add(index)
                else:
                    booting[index] = ready
                    heapq.heappush(
                        events,
                        (ready, _EV_SCALE, next(seq), _ProvisionReady(index, ready)),
                    )
                current += 1
                if traced:
                    tracer.instant(
                        "provision",
                        ts=now,
                        track=fleet_track,
                        cat="provisioning",
                        args={"replica": index, "ready": ready},
                    )
            while booting and current > target:
                index = max(booting, key=lambda idx: (booting[idx], idx))
                del booting[index]
                counters["provision_downs"] += 1
                current -= 1
                if traced:
                    tracer.instant(
                        "boot-cancelled",
                        ts=now,
                        track=fleet_track,
                        cat="provisioning",
                        args={"replica": index},
                    )
            if current > target:
                for replica in sorted(replicas, key=lambda r: r.index, reverse=True):
                    if current <= target or len(provisioned) <= 1:
                        break
                    index = replica.index
                    if index not in provisioned:
                        continue
                    if (
                        replica.busy
                        or replica.running
                        or replica.queued
                        or replica.active
                        or replica.dead
                    ):
                        continue
                    provisioned.discard(index)
                    counters["provision_downs"] += 1
                    current -= 1
                    if traced:
                        tracer.instant(
                            "deprovision",
                            ts=now,
                            track=fleet_track,
                            cat="provisioning",
                            args={"replica": index},
                        )
            peak_provisioned = max(peak_provisioned, len(provisioned) + len(booting))

        def on_scale_tick(now: float) -> None:
            queued_total = sum(replica.queued for replica in replicas) + len(unrouted)
            resident_total = sum(len(replica.running) for replica in replicas)
            busy_replicas = sum(
                1
                for replica in replicas
                if replica.index in provisioned
                and (replica.busy or replica.running or replica.queued)
            )
            observation = ScalerObservation(
                now=now,
                provisioned=len(provisioned),
                booting=len(booting),
                num_replicas=len(replicas),
                queued=queued_total,
                resident=resident_total,
                busy=busy_replicas,
                arrivals=dict(window_counts),
                interval=scaler.interval,
            )
            window_counts.clear()
            target = max(1, min(scaler.plan(observation), len(replicas)))
            apply_target(target, now)
            if traced:
                provision_sample(now)
            if unrouted:
                drain_unrouted(now)
            # Keep ticking while anything can still need a decision; once
            # arrivals, queues, residents and boots are all drained the
            # clock stops advancing and the run can end.
            if arrivals_remaining or queued_total or resident_total or booting:
                heapq.heappush(
                    events,
                    (now + scaler.interval, _EV_SCALE, next(seq), _SCALE_TICK),
                )

        def on_provision_ready(payload: _ProvisionReady, now: float) -> None:
            if booting.get(payload.index) != payload.ready:
                return  # the boot was cancelled after this event was queued
            del booting[payload.index]
            if replicas[payload.index].dead:
                return
            provisioned.add(payload.index)
            if traced:
                tracer.instant(
                    "provision-ready",
                    ts=now,
                    track=fleet_track,
                    cat="provisioning",
                    args={"replica": payload.index},
                )
                provision_sample(now)
            if unrouted:
                drain_unrouted(now)

        def refund(chip_seconds: float) -> None:
            nonlocal busy_chip_seconds
            busy_chip_seconds -= chip_seconds

        chips = _ChipFaults(
            self,
            replicas,
            schedule,
            wd,
            events,
            seq,
            tracer,
            refund=refund,
            detect=on_detect,
            placed=placed,
            online=drain_unrouted,
        )
        while events:
            now, kind, _, payload = heapq.heappop(events)
            integrate(now)
            if kind == _EV_FAULT:
                chips.handle(payload, now)
            elif kind == _EV_SCALE:
                if isinstance(payload, _ProvisionReady):
                    on_provision_ready(payload, now)
                else:
                    on_scale_tick(now)
            elif kind == _EV_ARRIVAL:
                arrivals_remaining -= 1
                if scaling:
                    model = payload.model
                    window_counts[model] = window_counts.get(model, 0) + 1
                on_arrival(payload, now)
            else:
                index, epoch = payload
                replica = replicas[index]
                if replica.epoch != epoch:
                    continue  # the iteration was aborted by a chip death
                replica.busy = False
                self._retire_finished(
                    replica, now, records, tracer if traced else None, retired
                )
                start_iteration(replica, now)
                if unrouted:
                    drain_unrouted(now)
                if traced:
                    fleet_sample(now)

        # The books must balance (completed + shed == requests) even when the
        # run ends with replicas dead and their queues full (e.g. the whole
        # fleet killed after the last arrival and never restarted): whatever
        # is still queued or parked is shed.  Nothing can still be resident —
        # detection clears a dead replica, failover skips replicas holding
        # residents, and live replicas iterate until they drain.
        for replica in replicas:
            assert not replica.running, f"replica {replica.index} stranded residents"
            while replica.iq:
                _, _, _, request = heapq.heappop(replica.iq)
                shed(request, last_time)
            while replica.bq:
                shed(replica.bq.popleft(), last_time)
            while replica.preempted:
                shed(replica.preempted.popleft().request, last_time)
        while unrouted:
            shed(unrouted.popleft(), last_time)

        return self._report(
            records,
            ordered,
            tracer,
            counters=counters,
            busy_chip_seconds=busy_chip_seconds,
            active_chip_seconds=active_chip_seconds,
            end_time=last_time,
            peak_active=peak_active,
            stats_before=stats_before,
            faults=chips.stats,
            provisioned_chip_seconds=provisioned_chip_seconds if scaling else None,
            peak_provisioned=peak_provisioned if scaling else None,
        )
