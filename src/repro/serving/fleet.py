"""Multi-model, multi-tenant serving fleet over one shared worker pool.

:class:`FleetEngine` serves N model deployments from one fleet.  It runs the
decode event loop of :mod:`repro.serving.continuous` — admission,
preemption, shedding, iteration pricing, retirement, the requeue carry and
the chip/fault mechanism are the same code :class:`~repro.serving.
continuous.ContinuousEngine` runs — through :class:`_FleetRun`, whose policy
hooks differ: every replica is a *(model, chip-group, generation)* binding
with its *own* queue set, a pluggable :class:`~repro.serving.router.Router`
picks the replica each request queues on, and idle replicas **re-bind**
across models as traffic shifts — cheap precisely because the compiler's
per-bucket programs live in the shared
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
  ``run(scaler=...)`` instead makes provisioning a paid decision ahead of
  routing, and composes with ``faults=`` (see :meth:`FleetEngine.run`).

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
import math
from collections import deque
from typing import Sequence

from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.obs.registry import publish_stats
from repro.obs.trace import Tracer
# Kept importable from this module: per-layer profilers wrap it by name.
from repro.serving.batcher import bucket_for  # noqa: F401
from repro.serving.continuous import (
    _EV_SCALE,
    ACTIVE,
    BOOTING,
    DEAD,
    IDLE,
    UNPROVISIONED,
    DecodeModel,
    ReplicaState,
    _DecodeEngineBase,
    _DecodeRun,
    _Queues,
    _Replica,
    _Running,
    _new,
)
from repro.serving.faults import FaultEvent, FaultSchedule, Watchdog
from repro.serving.metrics import ContinuousReport
from repro.serving.plan_cache import PlanCache
from repro.serving.planner import FleetScaler, ScalerObservation
from repro.serving.request import CompletedDecode, DecodeRequest, TenantSpec
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

#: Policy prefix of fleet reports; the router name is appended.
POLICY_FLEET = "fleet"

#: Payload of a periodic scaler tick (_EV_SCALE); any other payload is the
#: index of a replica whose boot completes at the event's time.
_SCALE_TICK = object()


class _ViewMemo:
    """One run's router snapshot, kept from route to route.

    ``states[i]`` is the routing-visible state of replica ``i`` — bound
    model, chip class, queued and resident counts, busy, health and link
    factor — when its ``views[i]`` was built; ``snapshot`` is the tuple of
    those views.  ``marked`` holds the replicas whose state may have changed
    since the last route: the run marks a replica at every event that can
    touch it (:class:`_FleetRun` lists the sites), and only marked replicas
    are read again.  ``health[i]`` is replica ``i``'s ``(health,
    link_factor)`` as last read, and ``stale`` the replicas whose health the
    run has since marked for a re-read; a re-read marks the replica too.
    ``prices[i]`` maps a model to its full-batch iteration latency on
    replica ``i``'s chip class, and ``class_keys[i]`` is that class's
    fingerprint (the first-touch key).  ``iterations`` memoises
    ``ideal_iterations`` by ``(model, prompt, output)``, and ``callbacks``
    holds each tenant's view callbacks.
    """

    def __init__(self, replicas: list[_Replica]) -> None:
        size = len(replicas)
        self.states: list[tuple | None] = [None] * size
        self.views: list[ReplicaView | None] = [None] * size
        self.snapshot: tuple[ReplicaView, ...] = ()
        self.marked: set[int] = set(range(size))
        self.health: list[tuple[str, float]] = [(HEALTH_HEALTHY, 1.0)] * size
        self.stale: set[int] = set(range(size))
        self.prices: list[dict[str, float]] = [{} for _ in range(size)]
        self.class_keys = [replica.chip_class.fingerprint() for replica in replicas]
        self.iterations: dict[tuple[str, int, int], int] = {}
        self.callbacks: dict[str, tuple] = {}

    def mark_all(self) -> None:
        """Mark every replica (the rare events that may touch any)."""
        self.marked.update(range(len(self.views)))


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
        replicas: list[_Replica],
        memo: _ViewMemo,
        tenant: str = "",
        health=None,
    ) -> FleetView:
        """Immutable router snapshot.  ``health`` is an optional
        ``(replica, now) -> (state, link_factor)`` callback supplied by a
        chaos or scaler run; without it every replica reports healthy.

        ``memo`` carries the run's previous snapshot: ``health`` is asked
        only for the replicas the run marked stale, only the replicas the
        run marked since the last route are read, a replica's
        :class:`ReplicaView` is rebuilt only when its routing-visible state
        changed, and each tenant's callbacks are built once per run."""
        marked, stale = memo.marked, memo.stale
        if health is not None and stale:
            healths = memo.health
            for position in stale:
                healths[position] = health(replicas[position], now)
            marked |= stale
            stale.clear()
        if marked:
            states, views, healths = memo.states, memo.views, memo.health
            changed = False
            for position in marked:
                replica = replicas[position]
                queues = replica.queues
                health_state, link_factor = healths[position]
                # ReplicaView's fields after ``index``, in declaration order
                # (``queued`` is ``len(queues)``, summed here without a call).
                state = (
                    replica.model,
                    replica.chip_class.name,
                    len(queues.iq) + len(queues.bq) + len(queues.preempted),
                    len(replica.running),
                    replica.busy,
                    health_state,
                    link_factor,
                )
                if state != states[position]:
                    states[position] = state
                    views[position] = _new(ReplicaView, (replica.index,) + state)
                    changed = True
            marked.clear()
            if changed:
                memo.snapshot = tuple(views)
        callbacks = memo.callbacks.get(tenant)
        if callbacks is None:
            callbacks = memo.callbacks[tenant] = self._view_callbacks(
                replicas, memo.prices, memo.iterations, tenant
            )
        # FleetView(now, replicas, iteration_latency, ideal_iterations,
        # max_batch), built in one allocation.
        return _new(FleetView, (now, memo.snapshot) + callbacks)

    def _view_callbacks(
        self,
        replicas: list[_Replica],
        prices: list[dict[str, float]],
        iterations: dict[tuple[str, int, int], int],
        tenant: str,
    ) -> tuple:
        """A run's ``(iteration_latency, ideal_iterations, max_batch)`` view
        callbacks for ``tenant``.  The latency callback reads the run's
        ``prices`` table, filling a missing entry through :meth:`_cost` —
        so a first-touch compile is charged to ``tenant``.  The iteration
        count is a pure function of its arguments, memoised in
        ``iterations`` (one table per run)."""
        deployments = self._deployments

        def iteration_latency(model: str, index: int) -> float:
            try:
                return prices[index][model]
            except KeyError:
                latency = prices[index][model] = self._cost(
                    model, replicas[index].chip_class, deployments[model].max_batch_size, tenant
                ).latency
                return latency

        def ideal_iterations(model: str, prompt: int, output: int) -> int:
            key = (model, prompt, output)
            try:
                return iterations[key]
            except KeyError:
                count = iterations[key] = deployments[model].ideal_iterations(prompt, output)
                return count

        batch_sizes = {name: model.max_batch_size for name, model in deployments.items()}
        return iteration_latency, ideal_iterations, batch_sizes.__getitem__

    # ------------------------------------------------------------------ #
    # Tracing: the shared span taxonomy with one request lane *per tenant*,
    # so Perfetto shows per-tenant activity side by side, and models named
    # on lifecycle events (docs/observability.md).
    # ------------------------------------------------------------------ #
    def _tenant_track(self, tenant: str) -> str:
        return f"{self.trace_group}/tenant/{tenant or 'default'}"

    def _request_lane(self, request: DecodeRequest) -> str:
        return self._tenant_track(request.tenant)

    def _replica_args(self, replica: _Replica) -> dict:
        return {"replica": replica.index, "model": replica.model}

    def _failover_args(self, replica: _Replica) -> dict:
        return {
            **super()._failover_args(replica),
            "model": replica.model,
            "class": replica.chip_class.name,
        }

    def _link_args(self, fault: FaultEvent) -> dict:
        chips = ",".join(str(chip) for chip in fault.chips) or "fleet"
        return {**super()._link_args(fault), "chips": chips}

    def _trace_enqueue(self, tracer, request) -> None:
        super()._trace_enqueue(tracer, request, model=request.model)

    def _trace_admit(self, tracer, request, replica, now) -> None:
        super()._trace_admit(tracer, request, replica, now, tenant=request.tenant)

    def _trace_iteration(self, tracer, replica, now, latency) -> None:
        super()._trace_iteration(tracer, replica, now, latency, model=replica.model)

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
        chip-second held — booting included, dead time not.  Requires a
        health-aware router (unprovisioned and booting replicas are hidden
        from routing as ``restarting``).  Without a scaler every replica is
        routable from the start and provisioning is free, exactly as
        before.  Scaler and faults compose: a chip death cancels a boot in
        flight and lowers the capacity the next tick observes, and a
        failed-over replica comes back unprovisioned.

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
        if scaler is not None and not getattr(self.router, "health_aware", False):
            raise ValueError(
                "a scaler needs a health-aware router (unprovisioned replicas "
                "are hidden from routing as 'restarting'); use e.g. "
                "CostAwareRouter(health_aware=True)"
            )
        wd = watchdog if watchdog is not None else Watchdog()
        return _FleetRun(self, ordered, schedule, wd, scaler).execute()


class _FleetRun(_DecodeRun):
    """FleetEngine's policy over the shared event loop.

    Every replica admits from its own queue set, filled by the router at
    arrival (re-binding idle replicas across models); requests no replica
    can take yet park in ``unrouted`` until capacity frees.  Replicas
    activate when routed work arrives and deactivate as soon as they drain.
    Detection re-routes a dead replica's requests (cross-model failover)
    under per-tenant retry budgets; brownout sheds best-effort arrivals and
    orders interactive admission by fairness floor; degraded links multiply
    the iteration latency.  An optional scaler provisions replicas ahead of
    routing.

    The router's view is rebuilt only for *marked* replicas (see
    :class:`_ViewMemo`).  A replica is marked by every event that can change
    what the router sees of it, before the next route:

    * an iteration end (:meth:`after_iteration`) and a :meth:`place` mark
      their own replica;
    * a lifecycle :meth:`transition` (activation, scale-down, provisioning,
      death, failover) marks its replica, through its health re-read;
    * :meth:`watch_health` marks every replica once a link edge passes or
      the warming chip set changes, through their health re-reads;
    * :meth:`displace` marks its replica after emptying its batch and again
      after emptying its queues, since re-routes run in between;
    * a :meth:`degraded_shed` that shed marks every replica.  It is rare.

    Detection needs no mark of its own: its re-routes mark through
    :meth:`displace` and :meth:`place`, and the ``start_idle`` after them
    starts nothing, since a fleet replica is never active and idle between
    events (every activation starts an iteration, and a drained replica
    scales down at once with ``min_active`` 0).
    """

    counter_names = (
        "iterations",
        "preemptions",
        "shed",
        "scale_ups",
        "scale_downs",
        "rebinds",
        "migrations",
        "provision_ups",
        "provision_downs",
    )

    def __init__(
        self,
        engine: FleetEngine,
        requests: list[DecodeRequest],
        schedule: FaultSchedule,
        watchdog: Watchdog,
        scaler: FleetScaler | None,
    ) -> None:
        self.chaos = self.links_priced = bool(schedule.events)
        self.scaler = scaler
        replicas = engine._make_replicas()
        if scaler is not None:
            # Paid capacity: the floor starts provisioned, the rest waits for
            # the scaler, and booting capacity is charged too.
            self.charged = (IDLE, ACTIVE, BOOTING)
            for replica in replicas[max(1, scaler.min_replicas) :]:
                replica.state = UNPROVISIONED
        super().__init__(engine, requests, schedule, watchdog, replicas)
        #: Progress-losing requeues charged so far, per tenant.
        self.retry_spend: dict[str, int] = {}
        #: Deadline-carrying outcomes per tenant (met / total), feeding the
        #: brownout fairness-floor ordering.
        self.deadlined_total: dict[str, int] = {}
        self.deadlined_met: dict[str, int] = {}
        self.served_by_tenant: dict[str, int] = {}
        #: Whether brownout can fire: without a watermark no arrival is shed
        #: at the door and interactive admission stays EDF, so the deadline
        #: books the fairness order reads are not kept.
        self.books = watchdog.brownout_watermark is not None
        # Scaler state: per-model arrivals since the last tick.
        self.window_counts: dict[str, int] = {}
        # Without faults or a scaler every replica reads healthy: skip the
        # per-replica health call on every route.
        self.health = self.describe if self.chaos or scaler is not None else None
        self.view_memo = _ViewMemo(replicas)
        self.marked = self.view_memo.marked
        #: :meth:`watch_health` marks every replica's health stale once
        #: ``now`` reaches ``link_edge`` or ``bool(chips.warming)`` stops
        #: equalling ``warming``.
        self.link_edge = -math.inf
        self.warming = False
        #: The (tenant, model, chip-class fingerprint) keys whose bucket
        #: programs ``place`` has touched in this run.
        self.touched: set[tuple[str, str, str]] = set()
        if scaler is not None and requests:
            # First capacity decision one interval after traffic starts (the
            # first window of arrivals is its observation).
            self.push_scale(requests[0].arrival_time + scaler.interval, _SCALE_TICK)

    def push_scale(self, when: float, payload: object) -> None:
        heapq.heappush(self.events, (when, _EV_SCALE, next(self.seq), payload))

    # ------------------------------------------------------------------ #
    # Tracing
    # ------------------------------------------------------------------ #
    def tenant_sample(self, tenant: str, now: float) -> None:
        """Per-tenant queue/goodput counters on the tenant's own track."""
        waiting = [entry[3] for queues in self.queue_sets for entry in queues.iq]
        waiting += [request for queues in self.queue_sets for request in queues.bq]
        waiting += self.unrouted
        queued = sum(1 for request in waiting if request.tenant == tenant)
        self.tracer.counter(
            "tenant",
            ts=now,
            track=self.engine._tenant_track(tenant),
            values={"queued": queued, "served": self.served_by_tenant.get(tenant, 0)},
        )

    def fleet_sample(self, now: float) -> None:
        self.tracer.counter(
            "fleet",
            ts=now,
            track=self.fleet_track,
            values={"active": self.counts[ACTIVE], "rebinds": self.counters["rebinds"]},
        )

    def fleet_instant(self, name: str, now: float, cat: str, **args) -> None:
        self.tracer.instant(name, ts=now, track=self.fleet_track, cat=cat, args=args)

    # ------------------------------------------------------------------ #
    # Health, brownout and fairness
    # ------------------------------------------------------------------ #
    def describe(self, replica: _Replica, now: float) -> tuple[str, float]:
        """Per-replica health as the router's view reports it.  Dead
        replicas read ``restarting`` while any replacement chip is booting,
        else ``dead``; unprovisioned and booting ones read ``restarting`` —
        not routable, not rebindable — until provisioned; live ones read
        their link state."""
        state = replica.state
        if state is DEAD:
            return (HEALTH_RESTARTING if self.chips.warming else HEALTH_DEAD), 1.0
        if state is UNPROVISIONED or state is BOOTING:
            return HEALTH_RESTARTING, 1.0
        if self.chaos:
            factor = self.schedule.link_factor(now, replica.chips)
            if factor > 1.0:
                return HEALTH_DEGRADED, factor
        return HEALTH_HEALTHY, 1.0

    def transition(self, replica: _Replica, state: ReplicaState, now: float) -> None:
        super().transition(replica, state, now)
        self.view_memo.stale.add(replica.index)

    def watch_health(self, now: float) -> None:
        """Mark every replica's health stale when it may have changed
        without a transition (which marks its own replica): a link window
        opened or closed at or before ``now``, or the warming chip set,
        which dead replicas read, emptied or filled."""
        warming = bool(self.chips.warming)
        if now >= self.link_edge or warming != self.warming:
            self.link_edge = self.schedule.next_link_edge(now)
            self.warming = warming
            self.view_memo.stale.update(range(len(self.replicas)))

    def link_factor(self, replica: _Replica, now: float) -> float:
        """The live ``replica``'s link factor from the health memo, re-read
        (and the replica marked) only when stale.  The memo is otherwise
        refreshed on routes, so a link edge passed since the last one is
        caught first, as a route catches it.  (The warming chip set only
        changes how dead replicas read.)"""
        if now >= self.link_edge:
            self.watch_health(now)
        memo = self.view_memo
        index = replica.index
        if index in memo.stale:
            memo.stale.discard(index)
            memo.health[index] = self.describe(replica, now)
            self.marked.add(index)
        return memo.health[index][1]

    def brownout(self) -> bool:
        """Whether surviving capacity is below the brownout watermark."""
        watermark = self.watchdog.brownout_watermark
        dead = self.chips.dead_chips
        if watermark is None or not dead:
            return False
        num_chips = self.engine.num_chips
        return (num_chips - len(dead)) / num_chips < watermark

    def note_outcome(self, request: DecodeRequest, met: bool) -> None:
        """Track per-tenant deadline attainment (drives brownout order)."""
        if not self.books or request.deadline is None:
            return
        tenant = request.tenant
        self.deadlined_total[tenant] = self.deadlined_total.get(tenant, 0) + 1
        if met:
            self.deadlined_met[tenant] = self.deadlined_met.get(tenant, 0) + 1

    def below_floor(self, tenant: str) -> bool:
        """Whether ``tenant`` is currently under its promised fairness floor
        (tenants without a floor, or with no deadline-carrying outcome yet,
        are never "below")."""
        spec = self.engine.tenants.get(tenant)
        if spec is None or spec.fairness_floor <= 0.0:
            return False
        total = self.deadlined_total.get(tenant, 0)
        if total == 0:
            return False
        return self.deadlined_met.get(tenant, 0) / total < spec.fairness_floor

    def pop_interactive(self, queues: _Queues) -> tuple:
        """EDF pop — except under brownout, where interactive admission
        serves tenants still below their fairness floor first (then EDF):
        the scarce surviving capacity goes to restoring broken promises
        before improving already-met ones."""
        iq = queues.iq
        if not self.books or len(iq) <= 1 or not self.brownout():
            return heapq.heappop(iq)
        best = min(
            range(len(iq)),
            key=lambda position: (
                0 if self.below_floor(iq[position][3].tenant) else 1,
                iq[position][0],
                iq[position][1],
                iq[position][2],
            ),
        )
        entry = iq[best]
        iq[best] = iq[-1]
        iq.pop()
        heapq.heapify(iq)
        return entry

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def on_arrival(self, request: DecodeRequest, now: float) -> None:
        if self.scaler is not None:
            self.window_counts[request.model] = self.window_counts.get(request.model, 0) + 1
        traced = self.traced
        if traced:
            self.engine._trace_enqueue(self.tracer, request)
        if self.books and not request.interactive and self.brownout():
            # Brownout admission control: below the surviving-capacity
            # watermark, best-effort traffic is shed at the door so the
            # remaining chips serve deadline traffic.
            self.chips.stats.brownout_sheds += 1
            if traced:
                self.tracer.instant(
                    "brownout-shed",
                    ts=now,
                    track=self.engine._tenant_track(request.tenant),
                    cat="fault",
                    args={"request": request.request_id},
                )
            self.shed(request, now)
        elif not self.place(request, now):
            # Every replica is busy serving other models: park until a
            # replica drains and becomes rebindable.
            self.unrouted.append(request)
        if self.chaos:
            self.degraded_shed(now)
        if traced:
            self.tenant_sample(request.tenant, now)
            self.fleet_sample(now)

    def place(self, request: DecodeRequest, now: float) -> bool:
        """Offer ``request`` to the router; queue it on the chosen replica.
        False = no compatible or idle replica right now (the caller parks
        the request until capacity frees).  A health-blind router may queue
        onto a dead replica — the request then waits for failover, exactly
        the limbo health-aware routing avoids."""
        engine = self.engine
        replicas = self.replicas
        if self.health is not None:
            self.watch_health(now)
        view = engine._view(now, replicas, self.view_memo, request.tenant, health=self.health)
        index = engine.router.route(request, view)
        if index is None:
            return False
        if not 0 <= index < len(replicas):
            raise RuntimeError(
                f"router {engine.router.name!r} returned replica {index}; "
                f"fleet has {len(replicas)}"
            )
        replica = replicas[index]
        model = request.model
        if replica.model != model:
            self.bind(replica, model, now)
        touch = (request.tenant, model, self.view_memo.class_keys[index])
        if touch not in self.touched:
            engine._bucket_costs(model, replica.chip_class, request.tenant)
            self.touched.add(touch)
        replica.queues.push(request)
        self.marked.add(index)
        state = replica.state
        if state is not DEAD:
            if state is not ACTIVE:
                self.activate(replica, now)
            if not replica.busy:
                self.start_iteration(replica, now)
        return True

    def bind(self, replica: _Replica, model: str, now: float) -> None:
        """Bind (or re-bind) an idle replica to ``model``.  A re-bind bumps
        the binding generation — its compiled programs are already shared in
        the plan cache, so the switch costs no virtual time."""
        if replica.busy or replica.running or len(replica.queues) or replica.state is DEAD:
            raise RuntimeError(
                f"router bound busy or dead replica {replica.index} to "
                f"{model!r} (bound to {replica.model!r}); only idle live "
                "replicas re-bind"
            )
        previous = replica.model
        replica.model = model
        replica.max_batch = self.deployments[model].max_batch_size
        replica.latencies = None
        if previous:
            replica.generation += 1
            self.counters["rebinds"] += 1
            if self.traced:
                self.fleet_instant(
                    "rebind",
                    now,
                    "routing",
                    replica=replica.index,
                    generation=replica.generation,
                    **{"from": previous, "to": model},
                )

    def drain_unrouted(self, now: float) -> None:
        """Re-offer parked requests in arrival order whenever capacity may
        have freed (a replica drained and became rebindable)."""
        placed_any = False
        remaining: deque[DecodeRequest] = deque()
        while self.unrouted:
            request = self.unrouted.popleft()
            if self.place(request, now):
                placed_any = True
            else:
                remaining.append(request)
        self.unrouted.extend(remaining)
        if placed_any and self.traced:
            self.fleet_sample(now)

    # Capacity back after a detection or a chip coming online: re-offer
    # the parked requests.
    refill = online = drain_unrouted

    def on_retire(self, record: CompletedDecode, now: float) -> None:
        if self.books:
            self.note_outcome(record.request, record.met_slo)
        tenant = record.request.tenant
        self.served_by_tenant[tenant] = self.served_by_tenant.get(tenant, 0) + 1
        if self.traced:
            self.tenant_sample(tenant, now)

    def after_iteration(self, replica: _Replica, now: float) -> None:
        # The base hook's check, inlined: it runs on every iteration end.
        if not replica.busy and replica.state is ACTIVE:
            self.maybe_idle = True
        self.marked.add(replica.index)
        if self.unrouted:
            self.drain_unrouted(now)
        if self.traced:
            self.fleet_sample(now)

    # ------------------------------------------------------------------ #
    # Faults
    # ------------------------------------------------------------------ #
    def placed(self, replica: _Replica, now: float) -> None:
        # The replica may have moved to another chip class: re-price it.
        memo = self.view_memo
        memo.prices[replica.index].clear()
        memo.class_keys[replica.index] = replica.chip_class.fingerprint()
        # Under a scaler, which owns paid capacity, a re-placed replica waits
        # to be provisioned again (its queues are empty: health-aware routing
        # never queues on a dead replica, and detection emptied them).
        self.transition(replica, IDLE if self.scaler is None else UNPROVISIONED, now)
        if len(replica.queues):
            self.activate(replica, now)
            self.start_iteration(replica, now)

    def requeue(self, running: _Running, origin: _Replica, now: float) -> None:
        """One progress-losing requeue off a dead replica: charge the
        tenant's retry budget, drop honestly when the budget is spent or the
        deadline is unreachable even after an immediate full re-prefill
        (priced at the dead replica's class), otherwise re-offer through the
        router — cross-model failover happens right here, because the router
        may pick any compatible or rebindable replica."""
        request = running.request
        tenant = request.tenant
        stats = self.chips.stats
        lost = self.carry_off(running, origin.index)
        spent = self.retry_spend.get(tenant, 0)
        budget = self.watchdog.retry_budget
        exhausted = budget is not None and spent >= budget
        if exhausted or self.hopeless(request, origin, now):
            # Dropped, not retried: the record keeps only the requeues that
            # actually bought another attempt.
            stats.retry_drops += 1
            if self.traced:
                self.tracer.instant(
                    "retry-drop",
                    ts=now,
                    track=self.engine._tenant_track(tenant),
                    cat="fault",
                    args={
                        "request": request.request_id,
                        "reason": "budget" if exhausted else "deadline",
                    },
                )
            self.shed(request, now)
            return
        self.retry_spend[tenant] = spent + 1
        running.requeues += 1
        stats.requeued += 1
        if self.traced:
            self.trace_requeue(request, lost, now)
        if not self.place(request, now):
            self.unrouted.append(request)

    def displace(self, replica: _Replica, now: float) -> None:
        """In-flight and preempted requests lose all progress — their KV
        state died with the chips — and re-enter the router for a full
        re-prefill, budget and deadline allowing.  Queued-but-never-admitted
        requests held no progress: they re-route for free."""
        queues = replica.queues
        if self.traced:
            self.fleet_instant(
                "detect",
                now,
                "fault",
                replica=replica.index,
                requeued=len(replica.running) + len(queues.preempted),
            )
        displaced = replica.clear() + list(queues.preempted)
        queues.preempted.clear()
        # Re-routes run between the two clears: mark the replica after each.
        self.marked.add(replica.index)
        for running in displaced:
            self.requeue(running, replica, now)
        parked = [entry[3] for entry in sorted(queues.iq)] + list(queues.bq)
        queues.iq.clear()
        queues.bq.clear()
        self.marked.add(replica.index)
        for request in parked:
            if not self.place(request, now):
                self.unrouted.append(request)

    def degraded_shed(self, now: float) -> bool:
        shed = super().degraded_shed(now)
        if shed:
            self.view_memo.mark_all()
        return shed

    # ------------------------------------------------------------------ #
    # Provisioning
    # ------------------------------------------------------------------ #
    def on_scale(self, payload: object, now: float) -> None:
        if payload is _SCALE_TICK:
            self.scale_tick(now)
            return
        # A boot completes, unless it was cancelled, re-issued or killed by a
        # chip death after this event was queued.
        replica = self.replicas[payload]
        if replica.state is not BOOTING or replica.ready != now:
            return
        self.scale(replica, IDLE, now, "provision-ready", replica=payload)
        if self.traced:
            self.provision_sample(now)
        if self.unrouted:
            self.drain_unrouted(now)

    def num_provisioned(self) -> int:
        """Replicas the scaler holds ready to serve (booting excluded)."""
        return self.counts[IDLE] + self.counts[ACTIVE]

    def provision_sample(self, now: float) -> None:
        self.tracer.counter(
            "provisioning",
            ts=now,
            track=self.fleet_track,
            values={"provisioned": self.num_provisioned(), "booting": self.counts[BOOTING]},
        )

    def apply_target(self, target: int, now: float) -> None:
        """Move provisioned+booting toward ``target`` replicas.  Up:
        lowest-index unprovisioned replicas start booting (routable after
        the delay; dead ones wait for failover).  Down: cancel the newest
        boots first (most lead time wasted otherwise), then release idle
        provisioned replicas highest index first; replicas holding work are
        never released."""
        replicas, counters = self.replicas, self.counters
        delay = self.scaler.provision_delay
        current = self.num_provisioned() + self.counts[BOOTING]
        for replica in replicas:
            if current >= target:
                break
            if replica.state is not UNPROVISIONED:
                continue
            counters["provision_ups"] += 1
            ready = replica.ready = now + delay
            state = BOOTING if delay > 0 else IDLE
            self.scale(replica, state, now, "provision", replica=replica.index, ready=ready)
            if delay > 0:
                self.push_scale(ready, replica.index)
            current += 1
        while self.counts[BOOTING] and current > target:
            replica = max(
                (r for r in replicas if r.state is BOOTING), key=lambda r: (r.ready, r.index)
            )
            counters["provision_downs"] += 1
            self.scale(replica, UNPROVISIONED, now, "boot-cancelled", replica=replica.index)
            current -= 1
        for replica in reversed(replicas):
            if current <= target or self.num_provisioned() <= 1:
                break
            if replica.state is not IDLE or len(replica.queues):
                continue
            counters["provision_downs"] += 1
            self.scale(replica, UNPROVISIONED, now, "deprovision", replica=replica.index)
            current -= 1

    def scale_tick(self, now: float) -> None:
        scaler = self.scaler
        replicas = self.replicas
        queued_total = sum(len(replica.queues) for replica in replicas) + len(self.unrouted)
        resident_total = sum(len(replica.running) for replica in replicas)
        busy_replicas = sum(
            1
            for replica in replicas
            if (replica.state is IDLE or replica.state is ACTIVE)
            and (replica.busy or replica.running or len(replica.queues))
        )
        observation = ScalerObservation(
            now=now,
            provisioned=self.num_provisioned(),
            booting=self.counts[BOOTING],
            num_replicas=len(replicas),
            queued=queued_total,
            resident=resident_total,
            busy=busy_replicas,
            arrivals=dict(self.window_counts),
            interval=scaler.interval,
        )
        self.window_counts.clear()
        self.apply_target(max(1, min(scaler.plan(observation), len(replicas))), now)
        if self.traced:
            self.provision_sample(now)
        if self.unrouted:
            self.drain_unrouted(now)
        # Keep ticking while anything can still need a decision; once
        # arrivals, queues, residents and boots are all drained the clock
        # stops advancing and the run can end.  So does a fleet dead for
        # good: no replica lives, and neither a timer (which may revive one)
        # nor an arrival is still pending.
        pending = len(self.requests) - self.arrived
        waiting = pending or queued_total or resident_total
        revivable = self.events or pending or self.counts[DEAD] < len(replicas)
        if (waiting or self.counts[BOOTING]) and revivable:
            self.push_scale(now + scaler.interval, _SCALE_TICK)
