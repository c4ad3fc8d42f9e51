"""Per-request replica routing for the multi-tenant serving fleet.

The fleet engine (:mod:`repro.serving.fleet`) drives N model-bound replica
sets over one shared :class:`~repro.serving.worker.WorkerPool`.  A *router*
makes the first scheduling decision of a request's life: which replica (and
therefore which chip group and hardware class) it queues on.  Everything
after that — admission order, preemption, shedding, autoscaling — is the
replica-local policy inherited from continuous batching, so the policy
order of a fleet request is::

    route → admit → preempt → shed → autoscale

Routers are deliberately a small, pluggable interface over an immutable
:class:`FleetView` snapshot: the heuristics here (least-loaded-compatible,
SLO-aware cost estimate priced from :class:`~repro.serving.worker.
IterationCost` latencies) can be swapped for a learned tree router — BRAD's
forest router is the template — without touching the engine, because a
router only ever reads the view and returns a replica index.

Determinism contract: a router must be a pure function of ``(request,
view)`` — no randomness, no wall-clock, ties broken by replica index — so
fleet runs stay bit-identical at any compile parallelism and under
permutation of the tenant workload streams.

Under chaos (:mod:`repro.serving.faults`) the view also carries per-replica
**health**: ``healthy``, ``degraded-link`` (serving, but ``link_factor``
times slower), ``restarting`` (replacement chip warming up) or ``dead``.
:class:`CostAwareRouter` reads it by default — degraded links are priced
into the projection and dying replicas are routed around instead of waiting
for failover; ``health_aware=False`` restores the health-blind behaviour
(the watchdog-only ablation fig31 measures against).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.serving.request import DecodeRequest, _frozen_record

#: Health states a replica can report to the router, from best to worst.
HEALTH_HEALTHY = "healthy"
"""Fully serving at its class's steady-state iteration latency."""
HEALTH_DEGRADED = "degraded-link"
"""Serving, but inside a link-degradation window: iterations run
``link_factor`` times slower than the steady-state price."""
HEALTH_RESTARTING = "restarting"
"""Dead, with a replacement chip already booting (warmup in flight): the
replica will return, but cannot serve right now."""
HEALTH_DEAD = "dead"
"""Dead with no recovery in sight — requests queued here wait for a
failover re-placement (or are re-routed by a health-aware router)."""


@_frozen_record
class ReplicaView(NamedTuple):
    """Immutable snapshot of one replica, as the router sees it."""

    index: int
    model: str
    """Model the replica is currently bound to (empty = unbound)."""
    chip_class: str
    """Name of the hardware class backing this replica's chip group."""
    queued: int
    """Requests routed to this replica and still waiting for admission."""
    resident: int
    """Requests currently occupying batch slots."""
    busy: bool
    """Whether an iteration is in flight right now."""
    health: str = HEALTH_HEALTHY
    """One of the ``HEALTH_*`` states (single-model fleets and fault-free
    runs always report :data:`HEALTH_HEALTHY`)."""
    link_factor: float = 1.0
    """Slowdown multiplier of this replica's links right now (>= 1; only
    above 1 while :attr:`health` is :data:`HEALTH_DEGRADED`)."""

    @property
    def load(self) -> int:
        """Work already committed to this replica (queued + resident)."""
        return self.queued + self.resident

    @property
    def alive(self) -> bool:
        """Whether the replica can execute iterations right now (healthy or
        degraded — dead and restarting replicas cannot serve)."""
        return self.health in (HEALTH_HEALTHY, HEALTH_DEGRADED)

    @property
    def rebindable(self) -> bool:
        """Whether the fleet may re-bind this replica to a different model:
        only a fully idle, *live* replica (no iteration in flight, nothing
        queued or resident) can switch models — its chips hold no KV state
        to lose, and dead chips cannot take a binding at all."""
        return (
            self.alive and not self.busy and self.queued == 0 and self.resident == 0
        )


@_frozen_record
class FleetView(NamedTuple):
    """Immutable fleet snapshot a router decides against.

    The cost callbacks are supplied by the engine and are memoised lookups
    of simulator-priced :class:`~repro.serving.worker.IterationCost` values
    — deterministic, virtual-time-free, and identical at any compile
    parallelism — so a router using them stays bit-reproducible.
    """

    now: float
    replicas: tuple[ReplicaView, ...]
    iteration_latency: Callable[[str, int], float]
    """``(model, replica_index) -> seconds``: the full-batch decode-iteration
    latency of ``model`` on that replica's hardware class."""
    ideal_iterations: Callable[[str, int, int], int]
    """``(model, prompt_tokens, output_tokens) -> iterations``: the
    deployment's exact pricing formula (prefill + decode)."""
    max_batch: Callable[[str], int]
    """``model -> max_batch_size`` of that model's deployment."""

    def compatible(self, model: str) -> list[ReplicaView]:
        """Replicas already bound to ``model``, in index order."""
        return [replica for replica in self.replicas if replica.model == model]

    def rebindable(self) -> list[ReplicaView]:
        """Replicas idle enough to switch models, in index order."""
        return [replica for replica in self.replicas if replica.rebindable]


class Router(ABC):
    """Strategy choosing the replica a request queues on.

    Implementations must return the index of a replica that is either bound
    to ``request.model`` or currently rebindable (the engine re-binds it and
    charges a ``rebind``), or ``None`` when no such replica exists right now
    — the engine then parks the request and re-offers it to the router at
    the next capacity-freeing event.  Returning a busy replica bound to a
    different model is a contract violation and the engine raises.  Must be
    deterministic in ``(request, view)``.
    """

    name = "router"

    @abstractmethod
    def route(self, request: DecodeRequest, view: FleetView) -> int | None:
        """The replica index ``request`` should queue on (``None`` = park)."""


class LeastLoadedRouter(Router):
    """Least-loaded-compatible with overflow onto idle replicas.

    Routes to the compatible replica with the smallest committed load; when
    every compatible replica already holds at least ``spill_load`` requests
    and an idle (rebindable) replica exists, spills onto the lowest-indexed
    idle one instead — that is what lets a hot model annex chips a cold
    model is not using.  Model-blind about cost: it never consults the
    hardware class, which is exactly the blindness
    :class:`CostAwareRouter` fixes.
    """

    name = "least-loaded"

    def __init__(self, *, spill_load: int | None = None) -> None:
        """``spill_load`` defaults to the model's ``max_batch_size`` — spill
        once every bound replica has a full batch committed."""
        if spill_load is not None and spill_load < 1:
            raise ValueError(f"spill_load must be >= 1, got {spill_load}")
        self.spill_load = spill_load

    def route(self, request: DecodeRequest, view: FleetView) -> int | None:
        model = request.model
        best: tuple[int, int] | None = None  # (load, index) of the lightest bound replica
        first_idle: int | None = None
        for replica in view.replicas:
            if replica.model == model:
                key = (replica.load, replica.index)
                if best is None or key < best:
                    best = key
            elif first_idle is None and replica.rebindable:
                first_idle = replica.index
        if best is None:
            return first_idle
        spill = self.spill_load if self.spill_load is not None else view.max_batch(model)
        if first_idle is not None and best[0] >= spill:
            return first_idle
        return best[1]


class CostAwareRouter(Router):
    """SLO-aware routing on projected completion, priced per hardware class.

    For each candidate replica the router projects the request's finish
    time: the backlog already committed there (in full-batch rounds) plus
    the request's own ideal iterations, both priced at that replica's
    class-specific iteration latency, plus a re-bind surcharge when taking
    an idle replica would switch its model.  A deadlined request stays on a
    *bound* replica whenever the cheapest bound projection still meets its
    deadline — a re-bind is spent only when the deadline demands it, so
    idle capacity is preserved for the models that need it; otherwise (and
    for best-effort traffic) the cheapest projection over all candidates
    wins, ties to the lowest index.  The class-specific pricing is what
    keeps latency-sensitive traffic off a slow hardware class while still
    letting best-effort overflow soak it.

    With ``health_aware=True`` (the default) the router also reads the
    view's health states: dead and restarting replicas are routed *around*
    instead of queued on (their backlog would sit in limbo until failover),
    and a degraded replica's projection is stretched by its ``link_factor``
    so traffic drains toward healthy capacity without abandoning a degraded
    replica that is still the cheapest option.  ``health_aware=False`` is
    the watchdog-only ablation: the router prices every replica at its
    steady-state latency and keeps routing to dying replicas, leaving all
    recovery to failover — exactly the baseline fig31 measures against.
    """

    def __init__(
        self, *, rebind_cost_iterations: float = 4.0, health_aware: bool = True
    ) -> None:
        """``rebind_cost_iterations`` biases against flapping: annexing an
        idle replica must beat the best bound replica by this many
        full-batch iterations of projected time."""
        if rebind_cost_iterations < 0:
            raise ValueError(
                f"rebind_cost_iterations must be >= 0, got {rebind_cost_iterations}"
            )
        self.rebind_cost_iterations = rebind_cost_iterations
        self.health_aware = health_aware

    @property
    def name(self) -> str:  # noqa: D102 - documented on the class
        return "cost-aware" if self.health_aware else "cost-aware-blind"

    def route(self, request: DecodeRequest, view: FleetView) -> int | None:
        # One pass prices each candidate once and keeps the cheapest in-time
        # bound candidate and the cheapest candidate of all, ties to the
        # lowest index.  Health-aware routing skips dead
        # and restarting bound replicas: their queue sits in limbo until
        # failover re-places it, so nothing new should land there while
        # live candidates exist.
        model = request.model
        deadline = request.deadline
        now = view.now
        health_aware = self.health_aware
        rebind = self.rebind_cost_iterations
        latency_of = view.iteration_latency
        ceil = math.ceil
        work = view.ideal_iterations(model, request.prompt_tokens, request.max_new_tokens)
        max_batch = view.max_batch(model)
        best = in_time = None
        best_score = in_time_score = math.inf
        for index, bound_model, _, queued, resident, busy, health, factor in view.replicas:
            if bound_model == model:
                if health != HEALTH_HEALTHY and health_aware and health != HEALTH_DEGRADED:
                    continue
            elif busy or queued or resident or (
                health != HEALTH_HEALTHY and health != HEALTH_DEGRADED
            ):
                continue  # neither bound nor rebindable
            latency = latency_of(model, index)
            if factor > 1.0 and health_aware:
                # A degraded replica's iterations really run this much
                # slower; pricing it in is what steers deadline traffic off
                # the sick group while still letting it soak best-effort
                # overflow.
                latency *= factor
            # Projected finish: the committed backlog in full-batch rounds
            # plus this request's ideal iterations, plus the re-bind
            # surcharge on an idle replica of another model.
            projected = (ceil((queued + resident) / max_batch) + work) * latency
            if bound_model != model:
                projected += rebind * latency
            elif (
                deadline is not None
                and now + projected <= deadline
                and (
                    projected < in_time_score
                    or (projected == in_time_score and (in_time is None or index < in_time))
                )
            ):
                in_time_score, in_time = projected, index
            if projected < best_score or (
                projected == best_score and (best is None or index < best)
            ):
                best_score, best = projected, index
        # A deadlined request stays on the cheapest bound replica that
        # still meets its deadline; otherwise the cheapest candidate wins.
        return best if in_time is None else in_time


class StaticPartitionRouter(Router):
    """Fixed per-model fleet partition — the baseline routing defeats.

    Every model owns a static, disjoint set of replicas; requests never
    cross the partition and idle capacity in one partition cannot absorb
    another model's burst.  This is exactly the pre-fleet deployment style
    (one engine per model carved out of the fleet) expressed as a router,
    which is what makes the fig30 comparison an apples-to-apples ablation
    of routing alone.
    """

    name = "static-partition"

    def __init__(self, partition: Mapping[str, Sequence[int]]) -> None:
        if not partition:
            raise ValueError("StaticPartitionRouter needs a non-empty partition")
        seen: dict[int, str] = {}
        for model, indices in partition.items():
            if not indices:
                raise ValueError(f"model {model!r} owns no replicas")
            for index in indices:
                if index in seen:
                    raise ValueError(
                        f"replica {index} assigned to both {seen[index]!r} "
                        f"and {model!r}; partitions must be disjoint"
                    )
                seen[index] = model
        self.partition = {model: frozenset(indices) for model, indices in partition.items()}

    def route(self, request: DecodeRequest, view: FleetView) -> int:
        model = request.model
        indices = self.partition.get(model)
        if indices is None:
            raise ValueError(
                f"model {model!r} has no partition; partitioned: {sorted(self.partition)}"
            )
        owned = [replica for replica in view.replicas if replica.index in indices]
        if len(owned) != len(indices):
            missing = sorted(indices - {replica.index for replica in owned})
            raise ValueError(
                f"model {model!r} owns replicas {missing}, which the fleet lacks "
                f"(it has {len(view.replicas)} replicas)"
            )
        return min(owned, key=lambda replica: (replica.load, replica.index)).index
